//! Stress tests for the threaded pipeline: deep chains, extreme
//! configurations, and sustained ring traffic. These guard the
//! synchronization design (no deadlocks, no lost borders) under shapes the
//! unit tests don't reach.

use megasw_gpusim::{catalog, Platform};
use megasw_multigpu::checkpoint::RecoveryPolicy;
use megasw_multigpu::pipeline::{FaultPhase, PipelineRun, ScheduledFault, Semantics};
use megasw_multigpu::{CheckpointCadence, PartitionPolicy, RunConfig};
use megasw_seq::{ChromosomeGenerator, DivergenceModel, GenerateConfig};
use megasw_sw::traceback::anchored_best;

#[path = "../../../tests/util/deadline.rs"]
mod deadline;
use deadline::with_deadline;

/// Scalar whole-sequence oracle via the kernel trait (the deprecated
/// `gotoh_best` free function is being phased out).
fn gotoh_best(a: &[u8], b: &[u8], scheme: &megasw_sw::ScoreScheme) -> megasw_sw::BestCell {
    megasw_sw::kernel::scalar().best(a, b, scheme)
}

fn pair(len: usize, seed: u64) -> (megasw_seq::DnaSeq, megasw_seq::DnaSeq) {
    let a = ChromosomeGenerator::new(GenerateConfig::uniform(len, seed)).generate();
    let (b, _) = DivergenceModel::test_scale(seed + 13).apply(&a);
    (a, b)
}

#[test]
fn sixteen_device_chain() {
    // Far more devices than any real 2013 host: the chain logic must not
    // care. One block column per device at the extreme.
    let (a, b) = pair(4_000, 1);
    let p = Platform::homogeneous(catalog::gtx680(), 16);
    let cfg = RunConfig::paper_default()
        .with_block(64)
        .with_buffer_capacity(2);
    let report = PipelineRun::new(a.codes(), b.codes(), &p)
        .config(cfg.clone())
        .run()
        .unwrap();
    assert_eq!(report.best, gotoh_best(a.codes(), b.codes(), &cfg.scheme));
    assert_eq!(report.devices.len(), 16);
    // Every interior ring carried exactly rows borders.
    let rows = (a.len().div_ceil(cfg.block_h)) as u64;
    for d in &report.devices[..15] {
        let rs = d.ring_out.as_ref().unwrap();
        assert_eq!(rs.pushed, rows);
        assert_eq!(rs.popped, rows);
    }
}

#[test]
fn block_height_one_maximizes_ring_traffic() {
    // One border per matrix row: thousands of ring operations per device
    // pair under a capacity-1 ring — the tightest synchronization the
    // design admits.
    let (a, b) = pair(1_500, 2);
    let mut cfg = RunConfig::paper_default().with_buffer_capacity(1);
    cfg.block_h = 1;
    cfg.block_w = 97;
    let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
        .config(cfg.clone())
        .run()
        .unwrap();
    assert_eq!(report.best, gotoh_best(a.codes(), b.codes(), &cfg.scheme));
    let rs = report.devices[0].ring_out.as_ref().unwrap();
    assert_eq!(rs.pushed, a.len() as u64);
    assert!(rs.max_occupancy <= 1);
}

#[test]
fn extreme_skew_partitions() {
    // 1000 : 1 : 1000 weights — the middle device owns a single block
    // column and becomes a pure relay bottleneck.
    let (a, b) = pair(2_500, 3);
    let cfg = RunConfig::paper_default()
        .with_block(32)
        .with_partition(PartitionPolicy::Explicit(vec![1000.0, 1.0, 1000.0]));
    let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
        .config(cfg.clone())
        .run()
        .unwrap();
    assert_eq!(report.best, gotoh_best(a.codes(), b.codes(), &cfg.scheme));
    assert_eq!(report.devices.len(), 3);
    assert_eq!(report.devices[1].slab_width, 32);
}

#[test]
fn wide_matrix_tall_matrix() {
    // Degenerate aspect ratios: a 50 × 20 000 ribbon and its transpose.
    let scheme = megasw_sw::ScoreScheme::cudalign();
    let ribbon = ChromosomeGenerator::new(GenerateConfig::uniform(20_000, 4)).generate();
    let sliver = ChromosomeGenerator::new(GenerateConfig::uniform(50, 5)).generate();
    let cfg = RunConfig::paper_default().with_block(256);
    for (a, b) in [(&sliver, &ribbon), (&ribbon, &sliver)] {
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(cfg.clone())
            .run()
            .unwrap();
        assert_eq!(report.best, gotoh_best(a.codes(), b.codes(), &scheme));
    }
}

#[test]
fn anchored_pipeline_under_stress_shapes() {
    let (a, b) = pair(2_000, 6);
    let scheme = megasw_sw::ScoreScheme::cudalign();
    for (bh, bw, cap) in [(1usize, 64usize, 1usize), (500, 17, 2), (64, 2_000, 3)] {
        let mut cfg = RunConfig::paper_default().with_buffer_capacity(cap);
        cfg.block_h = bh;
        cfg.block_w = bw;
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(cfg.clone())
            .semantics(Semantics::Anchored)
            .run()
            .unwrap();
        assert_eq!(
            report.best,
            anchored_best(a.codes(), b.codes(), &scheme),
            "bh={bh} bw={bw} cap={cap}"
        );
    }
}

#[test]
fn recovery_with_capacity_one_rings_terminates_and_stays_exact() {
    // The worst synchronization shape (capacity-1 rings, tiny blocks)
    // combined with a mid-matrix device death and a rewind: the recovery
    // driver must neither deadlock on the poisoned rings of the dead
    // attempt nor perturb the score. The watchdog turns a hang into a
    // failure.
    let (a, b) = pair(2_000, 8);
    let want = {
        let cfg = RunConfig::paper_default().with_block(32);
        gotoh_best(a.codes(), b.codes(), &cfg.scheme)
    };
    let report = with_deadline(
        "capacity-1 recovery pipeline",
        std::time::Duration::from_secs(60),
        move || {
            let cfg = RunConfig::paper_default()
                .with_block(32)
                .with_buffer_capacity(1)
                .with_checkpoint(CheckpointCadence::EveryRows(4));
            PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
                .config(cfg.clone())
                .faults(ScheduledFault {
                    device: 1,
                    block_row: 30,
                    phase: FaultPhase::Compute,
                })
                .recover(RecoveryPolicy {
                    max_device_failures: 1,
                })
                .run()
                .unwrap()
        },
    );
    assert_eq!(report.best, want);
    assert_eq!(report.recovery.as_ref().unwrap().recoveries, 1);
}

#[test]
fn repeated_runs_under_contention() {
    // Many back-to-back runs on the same platform: per-run rings must be
    // fully independent (no leakage of closed/poisoned state).
    let (a, b) = pair(800, 7);
    let cfg = RunConfig::paper_default().with_block(48);
    let want = gotoh_best(a.codes(), b.codes(), &cfg.scheme);
    for i in 0..20 {
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(cfg.clone())
            .run()
            .unwrap();
        assert_eq!(report.best, want, "iteration {i}");
    }
}
