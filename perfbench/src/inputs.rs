//! Seeded inputs and their reference scores. Every input is generated
//! from the workload seed; every reference comes from a single-thread
//! `Kernel::best` scan, a different path from the pipeline, batch and
//! service routes under test.

use crate::trace::{Tracer, SETUP_OP};
use megasw_multigpu::RunConfig;
use megasw_seq::rng::ChaCha8Rng;
use megasw_seq::{ChromosomeGenerator, DivergenceModel, DnaSeq, GenerateConfig};
use megasw_sw::kernel::{self, KernelDispatch};
use megasw_sw::BestCell;
use std::ops::RangeInclusive;
use std::time::Instant;

/// One pair with its reference best cell.
pub struct Pair {
    pub id: String,
    pub a: Vec<u8>,
    pub b: Vec<u8>,
    pub best: BestCell,
}

/// Cells and seconds of the single-thread reference scans, which double
/// as the kernel-layer probe.
#[derive(Default, Clone, Copy)]
pub struct KernelProbe {
    pub cells: u128,
    pub seconds: f64,
}

impl KernelProbe {
    pub fn gcups(&self) -> f64 {
        if self.seconds > 0.0 {
            self.cells as f64 / self.seconds / 1e9
        } else {
            0.0
        }
    }
}

pub struct Gen<'t> {
    rng: ChaCha8Rng,
    tracer: &'t Tracer,
    pub probe: KernelProbe,
}

impl<'t> Gen<'t> {
    /// `tag` separates the input streams of workloads sharing a seed.
    pub fn new(seed: u64, tag: u64, tracer: &'t Tracer) -> Gen<'t> {
        Gen {
            rng: ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag),
            tracer,
            probe: KernelProbe::default(),
        }
    }

    fn random(&mut self, len: usize) -> Vec<u8> {
        let cfg = GenerateConfig::uniform(len, self.rng.next_u64());
        ChromosomeGenerator::new(cfg).generate().codes().to_vec()
    }

    /// A diverged copy of `ancestor` (SNPs, short indels, small
    /// rearrangements), so the pair aligns along a long diagonal.
    fn homolog(&mut self, ancestor: &[u8]) -> Vec<u8> {
        let seq = DnaSeq::from_codes(ancestor.to_vec()).expect("generated codes are valid");
        let (derived, _) = DivergenceModel::test_scale(self.rng.next_u64()).apply(&seq);
        derived.codes().to_vec()
    }

    /// A query of `m` bases against a diverged `n`-base window of itself
    /// (`m ≥ n`).
    pub fn window_pair(&mut self, id: String, m: usize, n: usize) -> Pair {
        let a = self.random(m);
        let start = self.rng.gen_range(0..m - n + 1);
        let b = self.homolog(&a[start..start + n]);
        self.finish(id, a, b)
    }

    /// `count` lengths spread evenly over `len`, in a seeded order. Every
    /// seed offers the same size mix, so a seed changes what is aligned,
    /// not how much work it is.
    fn lengths(&mut self, count: usize, len: RangeInclusive<usize>) -> Vec<usize> {
        let (lo, hi) = (*len.start() as f64, *len.end() as f64);
        let mut v: Vec<usize> = (0..count)
            .map(|k| (lo + (hi - lo) * (k as f64 + 0.5) / count as f64).round() as usize)
            .collect();
        for i in (1..count).rev() {
            let j = self.rng.gen_range(0..i + 1);
            v.swap(i, j);
        }
        v
    }

    /// `count` database-search-shaped pairs with lengths spread over
    /// `len`: every `homolog_every`-th pair aligns along its diagonal, the
    /// rest are unrelated.
    pub fn search_pairs(
        &mut self,
        prefix: &str,
        count: usize,
        len: RangeInclusive<usize>,
        homolog_every: usize,
    ) -> Vec<Pair> {
        let ms = self.lengths(count, len.clone());
        let ns = self.lengths(count, len);
        (0..count)
            .map(|k| {
                let a = self.random(ms[k]);
                let b = if k % homolog_every == 0 {
                    self.homolog(&a)
                } else {
                    self.random(ns[k])
                };
                self.finish(format!("{prefix}{k}"), a, b)
            })
            .collect()
    }

    fn finish(&mut self, id: String, a: Vec<u8>, b: Vec<u8>) -> Pair {
        let scheme = RunConfig::paper_default().scheme;
        let engine = kernel::select(KernelDispatch::Auto).expect("Auto dispatch always resolves");
        let start = Instant::now();
        let best = engine.best(&a, &b, &scheme);
        let end = Instant::now();
        self.tracer
            .record("kernel.best", None, SETUP_OP, start, end);
        self.probe.cells += a.len() as u128 * b.len() as u128;
        self.probe.seconds += (end - start).as_secs_f64();
        Pair { id, a, b, best }
    }
}
