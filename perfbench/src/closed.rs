//! The closed-loop workloads: one caller that sends its next operation
//! only after the previous one returned.
//!
//! * `pair-megabase` — the paper's regime: one ~1 Mbp × 4 kbp homologous
//!   pair through `PipelineRun` on the plain driver, thousands of
//!   block-rows streaming borders through the ring. Exercises the kernel
//!   and the slab pipeline; touches neither batch, service nor HTTP.
//! * `batch-mixed` — one `BatchRun` of ~200 database-search-shaped pairs
//!   plus a few just above the large-pair threshold, so the whole-pair
//!   dispatch and the slab route both run. Exercises the batch packer and
//!   per-pair set-up; its small pairs have no ring traffic.

use crate::inputs::{Gen, Pair};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{setup_repeated, Measured};
use megasw_gpusim::Platform;
use megasw_multigpu::{BatchConfig, BatchJob, BatchRun, PipelineRun, RunConfig};
use megasw_sw::{kernel, BestCell};
use std::time::{Duration, Instant};

/// Rows of the megabase pair (sequence `a`, streamed through the ring).
const MEGA_ROWS: usize = 1_000_000;
/// Columns of the megabase pair (sequence `b`, split into slabs).
const MEGA_COLS: usize = 4_000;

const BATCH_SMALL: usize = 200;
const BATCH_LARGE: usize = 3;

pub fn pair_megabase(seed: u64, seconds: u64, tracer: &Tracer) -> Result<Measured, String> {
    let platform = Platform::env1();
    let config = RunConfig::paper_default();
    let (pair, mut m) = setup_repeated(|| {
        let mut g = Gen::new(seed, 1, tracer);
        let pair = g.window_pair("megabase".into(), MEGA_ROWS, MEGA_COLS);
        (pair, g.probe)
    });
    m.devices = platform.len();

    let mut phases = [0u64; 5]; // compute, wait_input, wait_output, checkpoint, other
    let mut ring_blocked = Vec::new();
    let mut gcups = Vec::new();
    let rescues = kernel::simd_rescues();
    closed_loop(
        &mut m,
        seconds,
        tracer,
        "pipeline.run",
        &[pair.best],
        |op| {
            let report = PipelineRun::new(&pair.a, &pair.b, &platform)
                .config(config.clone())
                .run()
                .map_err(|e| e.to_string())?;
            if tracer.traces(op) {
                for d in &report.devices {
                    if let Some(at) = &d.attribution {
                        phases[0] += at.compute_ns;
                        phases[1] += at.wait_input_ns;
                        phases[2] += at.wait_output_ns;
                        phases[3] += at.checkpoint_ns;
                        phases[4] += at.other_ns + at.prune_skip_ns + at.simd_rescue_ns;
                    }
                }
                let blocked: u64 = report
                    .devices
                    .iter()
                    .filter_map(|d| d.ring_out.as_ref())
                    .map(|r| r.producer_blocks + r.consumer_blocks)
                    .sum();
                ring_blocked.push(blocked as f64);
                gcups.push(report.gcups_wall.unwrap_or(0.0));
            }
            Ok((report.total_cells, vec![report.best]))
        },
    );

    let total: u64 = phases.iter().sum::<u64>().max(1);
    let frac = |k: usize| phases[k] as f64 / total as f64;
    m.layer = vec![
        (
            "kernel.simd_rescues",
            (kernel::simd_rescues() - rescues) as f64,
        ),
        ("pipeline.efficiency", efficiency(median(&gcups), &m)),
        ("pipeline.compute_frac", frac(0)),
        ("pipeline.wait_input_frac", frac(1)),
        ("pipeline.wait_output_frac", frac(2)),
        ("pipeline.checkpoint_frac", frac(3)),
        ("pipeline.other_frac", frac(4)),
        ("pipeline.ring_blocked", median(&ring_blocked)),
    ];
    Ok(m)
}

pub fn batch_mixed(seed: u64, seconds: u64, tracer: &Tracer) -> Result<Measured, String> {
    let platform = Platform::env1();
    // `megasw batch` defaults: paper geometry, 16 Mcell threshold, 8 bins.
    let config = BatchConfig::default().with_base(RunConfig::paper_default());
    let ((pairs, jobs), mut m) = setup_repeated(|| {
        let mut g = Gen::new(seed, 2, tracer);
        let mut pairs: Vec<Pair> = g.search_pairs("db", BATCH_SMALL, 1_000..=4_000, 4);
        // Just above the threshold (4096² cells), so they take the slab route.
        pairs.extend((0..BATCH_LARGE).map(|k| g.window_pair(format!("big{k}"), 4_400, 4_200)));
        let jobs: Vec<BatchJob> = pairs
            .iter()
            .map(|p| BatchJob::new(p.id.clone(), p.a.clone(), p.b.clone()))
            .collect();
        ((pairs, jobs), g.probe)
    });
    m.devices = platform.len();
    let refs: Vec<_> = pairs.iter().map(|p| p.best).collect();

    let mut gcups = Vec::new();
    let mut pairs_per_s = Vec::new();
    let mut pair_p50 = Vec::new();
    let (mut small, mut large, mut requeued) = (0.0, 0.0, 0.0);
    let rescues = kernel::simd_rescues();
    closed_loop(&mut m, seconds, tracer, "batch.run", &refs, |op| {
        let report = BatchRun::new(&jobs, &platform)
            .config(config.clone())
            .run()
            .map_err(|e| e.to_string())?;
        if tracer.traces(op) {
            gcups.push(report.gcups_wall);
            pairs_per_s.push(report.pairs.len() as f64 / report.wall_time.as_secs_f64());
            pair_p50.push(report.latency_p50.as_secs_f64() * 1e3);
            small = report.small_pairs as f64;
            large = report.large_pairs as f64;
            requeued += report.requeued as f64;
        }
        let bests = report.pairs.iter().map(|o| o.best).collect();
        Ok((report.total_cells, bests))
    });

    m.layer = vec![
        (
            "kernel.simd_rescues",
            (kernel::simd_rescues() - rescues) as f64,
        ),
        ("batch.efficiency", efficiency(median(&gcups), &m)),
        ("batch.pairs_per_s", median(&pairs_per_s)),
        ("batch.pair_p50_ms", median(&pair_p50)),
        ("batch.small_pairs", small),
        ("batch.large_pairs", large),
        ("batch.requeued", requeued),
    ];
    Ok(m)
}

/// Achieved GCUPS over what the devices would reach running the
/// single-thread kernel with no coordination at all.
fn efficiency(gcups: f64, m: &Measured) -> f64 {
    let ceiling = m.devices as f64 * m.probe.gcups();
    if ceiling > 0.0 {
        gcups / ceiling
    } else {
        0.0
    }
}

/// Run `op` back to back for `seconds`. `op` returns the cells it
/// computed and the best cells it reported, which must equal `want`;
/// `span` names the layer call it makes.
fn closed_loop<F>(
    m: &mut Measured,
    seconds: u64,
    tracer: &Tracer,
    span: &'static str,
    want: &[BestCell],
    mut op: F,
) where
    F: FnMut(u64) -> Result<(u128, Vec<BestCell>), String>,
{
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(seconds);
    let mut id = 0u64;
    while Instant::now() < deadline {
        let start = Instant::now();
        let result = op(id);
        let end = Instant::now();
        tracer.record("op", None, id, start, end);
        tracer.record(span, Some("op"), id, start, end);
        match result {
            Ok((cells, got)) if got == want => {
                m.tally.ok += 1;
                m.cells += cells;
                m.latencies.push((id, (end - start).as_secs_f64() * 1e3));
            }
            Ok((_, got)) => {
                m.tally.wrong += 1;
                m.note_problem(format!(
                    "op {id}: {} results differ from the reference",
                    mismatches(&got, want)
                ));
            }
            Err(e) => {
                m.tally.failed += 1;
                m.note_problem(format!("op {id} failed: {e}"));
            }
        }
        id += 1;
    }
    m.wall_s = t0.elapsed().as_secs_f64();
}

fn mismatches(got: &[BestCell], want: &[BestCell]) -> usize {
    got.len().abs_diff(want.len()) + got.iter().zip(want).filter(|(g, w)| g != w).count()
}
