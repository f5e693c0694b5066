//! `bench-artifact` — run the regression-tracked benchmark set and write a
//! schema-versioned `BENCH_<n>.json` artifact.
//!
//! ```text
//! bench-artifact [OUT.json]          # default BENCH_1.json
//! MEGASW_BENCH_SAMPLES=1 bench-artifact BENCH_ci.json   # CI smoke run
//! ```
//!
//! The experiment set deliberately mirrors the paper's environments on
//! workloads small enough to finish in seconds: the threaded pipeline on
//! env1 and env2 (host-CPU GCUPS — noisy, threshold accordingly) plus the
//! deterministic discrete-event run of env2 (simulated GCUPS — bit-stable
//! across hosts, the anchor `bench-diff` can hold tight). Each experiment
//! carries its stall breakdown and span-duration quantiles, so a diff can
//! say not just "slower" but "slower because input stalls doubled".

use megasw::prelude::*;
use megasw_bench::artifact::{Artifact, Experiment};
use megasw_bench::{cached_pair, gcups};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_1.json".to_string());
    let samples: u64 = std::env::var("MEGASW_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);

    let mut artifact = Artifact::new(samples);
    let pair_len = 20_000;
    let (a, b) = cached_pair(pair_len, 11);
    let config = RunConfig::paper_default();

    for (name, platform) in [
        ("pipeline.env1.2gpu", Platform::env1()),
        ("pipeline.env2.3gpu", Platform::env2()),
    ] {
        eprintln!("running {name} ({samples} samples)…");
        artifact.experiments.push(run_pipeline_experiment(
            name,
            a.codes(),
            b.codes(),
            &platform,
            &config,
            samples,
        ));
    }

    eprintln!("running des.env2.3gpu…");
    artifact.experiments.push(run_des_experiment(
        "des.env2.3gpu",
        &Platform::env2(),
        &config,
    ));

    eprintln!("running recover.env2.3gpu…");
    artifact.experiments.push(run_recovery_experiment(
        "recover.env2.3gpu",
        &Platform::env2(),
        &config,
    ));

    eprintln!("running prune.env2.3gpu…");
    artifact.experiments.push(run_prune_experiment(
        "prune.env2.3gpu",
        &Platform::env2(),
        &config,
    ));

    eprintln!("running rebalance.env2.3gpu…");
    artifact.experiments.push(run_rebalance_experiment(
        "rebalance.env2.3gpu",
        &Platform::env2(),
        &config,
    ));

    eprintln!("running batch.env2.3gpu…");
    artifact.experiments.push(run_batch_experiment(
        "batch.env2.3gpu",
        &Platform::env2(),
        samples,
    ));

    eprintln!("running service.env2.3gpu…");
    artifact.experiments.push(run_service_experiment(
        "service.env2.3gpu",
        Platform::env2(),
    ));

    if let Err(e) = std::fs::write(&out, artifact.to_json()) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "wrote {out}: {} experiments, {samples} samples each",
        artifact.experiments.len()
    );
    ExitCode::SUCCESS
}

/// Time the threaded pipeline `samples` times; attach the stall/span
/// metrics of one observed run.
fn run_pipeline_experiment(
    name: &str,
    a: &[u8],
    b: &[u8],
    platform: &Platform,
    config: &RunConfig,
    samples: u64,
) -> Experiment {
    let cells = (a.len() * b.len()) as u64;
    let mut rates: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            let report = PipelineRun::new(a, b, platform)
                .config(config.clone())
                .run()
                .expect("benchmark pipeline run failed");
            std::hint::black_box(report.best);
            gcups(u128::from(cells), t.elapsed().as_secs_f64())
        })
        .collect();
    rates.sort_by(|x, y| x.total_cmp(y));

    let obs = Recorder::new(ObsLevel::Full);
    let report = PipelineRun::new(a, b, platform)
        .config(config.clone())
        .observer(obs.clone())
        .run()
        .expect("observed benchmark pipeline run failed");
    Experiment {
        name: name.to_string(),
        cells,
        gcups_median: rates[rates.len() / 2],
        gcups_min: rates[0],
        gcups_max: rates[rates.len() - 1],
        ..Experiment::default()
    }
    .with_kernel(&report.kernel)
    .with_metrics(&report.metrics_with_spans(&obs.spans()))
}

/// The deterministic anchor: one simulated paper-scale run. Identical on
/// every host, so any delta here is a real behavioural change.
fn run_des_experiment(name: &str, platform: &Platform, config: &RunConfig) -> Experiment {
    let (m, n) = (1_000_000, 1_000_000);
    let obs = Recorder::new(ObsLevel::Full);
    let run = DesSim::new(m, n, platform)
        .config(config.clone())
        .observer(obs.clone())
        .run();
    let g = run.report.gcups_sim.unwrap_or(0.0);
    Experiment {
        name: name.to_string(),
        cells: (m * n) as u64,
        gcups_median: g,
        gcups_min: g,
        gcups_max: g,
        ..Experiment::default()
    }
    .with_kernel(&run.report.kernel)
    .with_metrics(&run.report.metrics_with_spans(&obs.spans()))
}

/// The pruning anchor: the 1M × 1M simulated run on a 99%-identity pair
/// with distributed block pruning. Deterministic like the DES experiment;
/// its pruned fraction and effective GCUPS track the pruning protocol, and
/// `bench-diff` reports pruned-fraction drift without calling it a perf
/// regression.
fn run_prune_experiment(name: &str, platform: &Platform, config: &RunConfig) -> Experiment {
    let (m, n) = (1_000_000, 1_000_000);
    let obs = Recorder::new(ObsLevel::Full);
    let run = DesSim::new(m, n, platform)
        .config(config.clone().with_pruning(PruneMode::Distributed))
        .identity(0.99)
        .observer(obs.clone())
        .run();
    assert!(
        run.aborted.is_none(),
        "pruning benchmark must complete: {:?}",
        run.aborted
    );
    let g = run.report.gcups_sim.unwrap_or(0.0);
    Experiment {
        name: name.to_string(),
        cells: (m * n) as u64,
        gcups_median: g,
        gcups_min: g,
        gcups_max: g,
        ..Experiment::default()
    }
    .with_kernel(&run.report.kernel)
    .with_metrics(&run.report.metrics_with_spans(&obs.spans()))
}

/// The drifting-clock rebalance anchor: the 1M × 1M simulated env2 run
/// where the Titan (the biggest proportional share) halves its clock at
/// the matrix midpoint, with checkpoint-boundary rebalancing on. The
/// controller migrates columns to the healthy boards, so this experiment's
/// GCUPS sits well above what static slabs would deliver on the same
/// drift; its migration accounting is bit-stable across hosts.
fn run_rebalance_experiment(name: &str, platform: &Platform, config: &RunConfig) -> Experiment {
    let (m, n) = (1_000_000, 1_000_000);
    let rows = m / config.block_h;
    let obs = Recorder::new(ObsLevel::Full);
    let run = DesSim::new(m, n, platform)
        .config(config.clone().with_rebalance(RebalanceMode::on()))
        .drift(ClockDrift {
            device: 0,
            after_row: rows / 2,
            factor: 0.5,
        })
        .observer(obs.clone())
        .run();
    assert!(
        run.aborted.is_none(),
        "rebalance benchmark must complete: {:?}",
        run.aborted
    );
    let g = run.report.gcups_sim.unwrap_or(0.0);
    Experiment {
        name: name.to_string(),
        cells: (m * n) as u64,
        gcups_median: g,
        gcups_min: g,
        gcups_max: g,
        ..Experiment::default()
    }
    .with_kernel(&run.report.kernel)
    .with_metrics(&run.report.metrics_with_spans(&obs.spans()))
}

/// The many-pair batch anchor: a small-pair-heavy mixed-size manifest (48
/// pairs, 2.0k–2.9k bases — the database-search shape, enough pairs that
/// every device stays packed) through the threaded batch engine for host
/// GCUPS, plus the deterministic DES twin pinning the inter-task packing
/// speedup. The speedup is asserted ≥ 2× over the serial
/// one-pair-at-a-time baseline, so a packing-schedule regression fails the
/// artifact run loudly rather than drifting in a table; the accounting
/// lands in the artifact's `batch` object.
fn run_batch_experiment(name: &str, platform: &Platform, samples: u64) -> Experiment {
    let jobs: Vec<BatchJob> = (0..48)
        .map(|i| {
            let len = 2_000 + 53 * (i % 17);
            let a = ChromosomeGenerator::new(GenerateConfig::sized(len, 900 + i as u64)).generate();
            let (b, _) = DivergenceModel::test_scale(900 + i as u64).apply(&a);
            BatchJob::new(format!("bench{i}"), a.codes().to_vec(), b.codes().to_vec())
        })
        .collect();
    let cfg = BatchConfig::default();
    let cells: u128 = jobs.iter().map(BatchJob::cells).sum();

    let mut last = None;
    let mut rates: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            let report = BatchRun::new(&jobs, platform)
                .config(cfg.clone())
                .run()
                .expect("benchmark batch run failed");
            let g = gcups(cells, t.elapsed().as_secs_f64());
            last = Some(report);
            g
        })
        .collect();
    rates.sort_by(|x, y| x.total_cmp(y));
    let report = last.expect("at least one sample ran");

    let specs: Vec<BatchSpec> = jobs
        .iter()
        .map(|j| BatchSpec {
            m: j.a.len(),
            n: j.b.len(),
        })
        .collect();
    let sim = BatchSim::new(&specs, platform).config(cfg).run();
    assert!(
        sim.packing_speedup() >= 2.0,
        "batch packing speedup {:.2} fell below the 2x anchor",
        sim.packing_speedup()
    );

    let mut e = Experiment {
        name: name.to_string(),
        cells: u64::try_from(cells).unwrap_or(u64::MAX),
        gcups_median: rates[rates.len() / 2],
        gcups_min: rates[0],
        gcups_max: rates[rates.len() - 1],
        ..Experiment::default()
    }
    .with_kernel(&KernelSelection::default())
    .with_metrics(&report.metrics());
    e.batch_packing_speedup = sim.packing_speedup();
    e
}

/// The resident-service anchor: a sustained stream of 22 small jobs (20
/// singles plus two 3-pair batches submitted up front, so the queue
/// actually builds depth) drained by an in-process [`AlignService`]. The
/// GCUPS is host-noisy like the pipeline experiments, but the accounting —
/// jobs completed, per-job p50/p99 latency, queue-depth high-water mark —
/// lands in the artifact's `service` object so a scheduling or queueing
/// regression in `megasw serve` fails the diff next to the kernel numbers.
fn run_service_experiment(name: &str, platform: Platform) -> Experiment {
    let base = RunConfig::test_default()
        .with_policy(KernelPolicy::default().with_checkpoint(CheckpointCadence::EveryRows(4)));
    let mut svc = AlignService::start(platform, ServiceConfig::new(base), MetricsHub::new());

    let mk = |seed: u64, len: usize| {
        let a = ChromosomeGenerator::new(GenerateConfig::sized(len, seed)).generate();
        let (b, _) = DivergenceModel::test_scale(seed).apply(&a);
        (a, b)
    };
    let mut cells: u128 = 0;
    let mut ids = Vec::new();
    let t = Instant::now();
    for i in 0..20u64 {
        let (a, b) = mk(700 + i, 1_200 + 43 * (i as usize % 13));
        cells += (a.len() as u128) * (b.len() as u128);
        ids.push(svc.submit(JobSpec::single(
            format!("s{i}"),
            a.codes().to_vec(),
            b.codes().to_vec(),
        )));
    }
    for batch in 0..2u64 {
        let jobs: Vec<BatchJob> = (0..3u64)
            .map(|i| {
                let (a, b) = mk(760 + 10 * batch + i, 900 + 60 * i as usize);
                cells += (a.len() as u128) * (b.len() as u128);
                BatchJob::new(
                    format!("b{batch}p{i}"),
                    a.codes().to_vec(),
                    b.codes().to_vec(),
                )
            })
            .collect();
        ids.push(svc.submit(JobSpec::batch(jobs)));
    }
    for id in ids {
        let status = svc
            .wait(id, std::time::Duration::from_secs(600))
            .expect("service job reached a terminal state");
        assert_eq!(
            status.state,
            JobState::Done,
            "service benchmark job {id} did not complete: {status:?}"
        );
    }
    let g = gcups(cells, t.elapsed().as_secs_f64());

    let registry = svc.hub().registry();
    svc.shutdown();
    assert_eq!(
        registry.counter("service.jobs_completed"),
        Some(22),
        "service benchmark must drain the whole stream"
    );
    Experiment {
        name: name.to_string(),
        cells: u64::try_from(cells).unwrap_or(u64::MAX),
        gcups_median: g,
        gcups_min: g,
        gcups_max: g,
        ..Experiment::default()
    }
    .with_kernel(&KernelSelection::default())
    .with_metrics(&registry)
}

/// The fault-tolerance anchor: the same simulated paper-scale run with a
/// mid-matrix device death and checkpoint recovery. Deterministic like the
/// DES experiment, so its GCUPS *and* recovery accounting (recoveries,
/// rewound cells, checkpoints) are bit-stable across hosts — a change in
/// any of them is a real behavioural change in the recovery protocol.
fn run_recovery_experiment(name: &str, platform: &Platform, config: &RunConfig) -> Experiment {
    let (m, n) = (1_000_000, 1_000_000);
    let obs = Recorder::new(ObsLevel::Full);
    let run = DesSim::new(m, n, platform)
        .config(config.clone())
        .observer(obs.clone())
        .faults(ScheduledFault {
            device: 1,
            block_row: 976,
            phase: FaultPhase::Compute,
        })
        .recover(RecoveryPolicy::default())
        .run();
    assert!(
        run.aborted.is_none(),
        "recovery benchmark must complete: {:?}",
        run.aborted
    );
    let g = run.report.gcups_sim.unwrap_or(0.0);
    Experiment {
        name: name.to_string(),
        cells: (m * n) as u64,
        gcups_median: g,
        gcups_min: g,
        gcups_max: g,
        ..Experiment::default()
    }
    .with_kernel(&run.report.kernel)
    .with_metrics(&run.report.metrics_with_spans(&obs.spans()))
}
