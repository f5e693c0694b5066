//! Golden observability tests: both backends must export a structurally
//! valid Chrome trace, the threaded stall accounting must balance exactly
//! against wall time, and the deprecated entry points must stay
//! bit-identical to the builder they now wrap.

use megasw::prelude::*;

/// Scalar whole-sequence oracle via the kernel trait (the deprecated
/// `gotoh_best` free function is being phased out).
fn gotoh_best(a: &[u8], b: &[u8], scheme: &ScoreScheme) -> BestCell {
    kernel::scalar().best(a, b, scheme)
}

fn homologous_pair(len: usize, seed: u64) -> (DnaSeq, DnaSeq) {
    let a = ChromosomeGenerator::new(GenerateConfig::sized(len, seed)).generate();
    let (b, _) = DivergenceModel::test_scale(seed + 99).apply(&a);
    (a, b)
}

fn device_names(platform: &Platform) -> Vec<String> {
    platform.devices.iter().map(|d| d.name.clone()).collect()
}

/// Per-lane start times must be monotonic — Perfetto renders out-of-order
/// lanes, Chrome's legacy viewer silently drops them.
fn assert_lane_monotonic(spans: &[ObsSpan]) {
    let mut last: std::collections::BTreeMap<Option<u32>, u64> = Default::default();
    for s in spans {
        assert!(s.end_ns >= s.start_ns, "span ends before it starts: {s:?}");
        let prev = last.entry(s.device).or_insert(0);
        assert!(
            s.start_ns >= *prev,
            "lane {:?} goes backwards: {} after {}",
            s.device,
            s.start_ns,
            prev
        );
        *prev = s.start_ns;
    }
}

#[test]
fn threaded_run_exports_a_valid_chrome_trace() {
    let (a, b) = homologous_pair(4_000, 17);
    let platform = Platform::env2();
    let obs = Recorder::new(ObsLevel::Full);
    let report = PipelineRun::new(a.codes(), b.codes(), &platform)
        .config(RunConfig::paper_default().with_block(128))
        .observer(obs.clone())
        .run()
        .unwrap();
    assert!(report.best.score > 0);

    let spans = obs.spans();
    assert!(spans.iter().any(|s| s.kind == ObsKind::Kernel));
    assert!(spans.iter().any(|s| s.kind == ObsKind::RingPush));
    assert_lane_monotonic(&spans);

    let names = device_names(&platform);
    let check = validate_trace(&chrome_trace(&spans, &names)).unwrap();
    assert_eq!(check.span_events, spans.len());
    // One lane per device — every device of the chain did observable work.
    for d in 0..platform.len() as u64 {
        assert!(check.lanes.contains(&d), "device lane {d} missing");
    }
    // Lane metadata names the boards ("GPU{d} <board name>").
    for (d, name) in names.iter().enumerate() {
        let lane = check.lane_names.get(&(d as u64)).unwrap();
        assert!(lane.contains(name), "lane {d} named {lane:?}");
    }
}

#[test]
fn des_twin_exports_a_valid_chrome_trace() {
    let platform = Platform::env2();
    let obs = Recorder::new(ObsLevel::Full);
    let run = DesSim::new(300_000, 300_000, &platform)
        .config(RunConfig::paper_default())
        .observer(obs.clone())
        .run();

    let spans = obs.spans();
    assert!(spans.iter().any(|s| s.kind == ObsKind::Kernel));
    assert!(spans.iter().any(|s| s.kind == ObsKind::BorderXfer));
    assert_lane_monotonic(&spans);
    // Simulated timestamps live on the simulated clock: nothing outlasts
    // the makespan.
    let makespan = run.report.sim_time.unwrap().as_nanos();
    assert!(spans.iter().all(|s| s.end_ns <= makespan));

    let names = device_names(&platform);
    let check = validate_trace(&chrome_trace(&spans, &names)).unwrap();
    assert_eq!(check.span_events, spans.len());
    for d in 0..platform.len() as u64 {
        assert!(check.lanes.contains(&d), "device lane {d} missing");
    }
}

#[test]
fn threaded_stall_breakdown_balances_against_wall_time() {
    let (a, b) = homologous_pair(3_000, 29);
    let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
        .config(RunConfig::paper_default().with_block(96))
        .run()
        .unwrap();
    let wall_ns = report.wall_time.unwrap().as_nanos() as u64;
    for d in &report.devices {
        let busy_ns = d.wall_busy.unwrap().as_nanos() as u64;
        let bd = d.stall.unwrap();
        // The identity the paper's stall pictures rest on, exact in
        // nanoseconds: startup + input + drain == wall − busy.
        assert_eq!(
            bd.total().as_nanos(),
            wall_ns - busy_ns,
            "device {}: {bd}",
            d.device
        );
    }
}

#[test]
fn attribution_is_visible_in_report_metrics_and_trace() {
    // Acceptance path for the deep-observability layer, on the paper's
    // heterogeneous 3-GPU environment: per-device phase attribution sums
    // to the makespan exactly, flows into the metrics registry (and a
    // conforming Prometheus exposition), and the Chrome trace carries
    // per-device stall counter tracks.
    let (a, b) = homologous_pair(3_000, 41);
    let obs = Recorder::new(ObsLevel::Full);
    let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
        .config(RunConfig::paper_default().with_block(96))
        .observer(obs.clone())
        .run()
        .unwrap();
    let wall_ns = report.wall_time.unwrap().as_nanos() as u64;

    // RunReport: the identity, exact per device.
    let mut agg = 0u64;
    for d in &report.devices {
        let attr = d.attribution.expect("threaded runs attribute");
        assert_eq!(attr.total_ns(), wall_ns, "device {}: {attr}", d.device);
        agg += attr.compute_ns;
    }
    assert!(agg > 0);

    // Metrics: per-device and aggregate series, and the exposition is
    // Prometheus-conformant.
    let m = report.metrics_with_spans(&obs.spans());
    for (i, d) in report.devices.iter().enumerate() {
        let attr = d.attribution.unwrap();
        assert_eq!(
            m.counter(&format!("attr.d{i}.compute_ns")),
            Some(attr.compute_ns)
        );
        assert_eq!(
            m.counter(&format!("attr.d{i}.wait_input_ns")),
            Some(attr.wait_input_ns)
        );
    }
    assert_eq!(m.counter("attr.compute_ns"), Some(agg));
    let exposition = prometheus(&m);
    let summary = megasw::obs::validate_exposition(&exposition).unwrap();
    assert!(summary.families > 0 && summary.samples > 0);
    assert!(exposition.contains("megasw_attr_d0_compute_ns"));

    // Chrome trace: counter tracks per device lane, still a valid trace.
    let trace = chrome_trace(&obs.spans(), &device_names(&Platform::env2()));
    let check = validate_trace(&trace).unwrap();
    assert!(check.counter_events > 0, "no stall counter tracks");
    assert!(trace.contains("stall d0 (ns)"));
}

#[test]
fn metrics_summary_covers_the_run() {
    let (a, b) = homologous_pair(2_000, 37);
    let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
        .config(RunConfig::paper_default().with_block(128))
        .run()
        .unwrap();
    let m = report.metrics();
    assert_eq!(
        m.counter("cells.total"),
        Some(u64::try_from(report.total_cells).unwrap())
    );
    assert_eq!(
        m.counter("bytes.transferred"),
        Some(report.total_bytes_transferred())
    );
    assert!(m.counter("ring.pushed").unwrap() > 0);
    let text = m.to_string();
    assert!(text.contains("gcups.wall"));
    assert!(text.contains("stall.startup_ns"));
}

#[test]
fn builder_variants_stay_bit_identical_to_the_plain_run() {
    let (a, b) = homologous_pair(2_500, 43);
    let cfg = RunConfig::paper_default().with_block(112);
    for platform in [Platform::env1(), Platform::env2()] {
        let plain = PipelineRun::new(a.codes(), b.codes(), &platform)
            .config(cfg.clone())
            .run()
            .unwrap();
        assert_eq!(
            plain.best,
            gotoh_best(a.codes(), b.codes(), &cfg.scheme),
            "platform {}",
            platform.name
        );

        // A plan that never fires: the fault path must not perturb results.
        let plan = ScheduledFault {
            device: 0,
            block_row: usize::MAX,
            phase: FaultPhase::Compute,
        };
        let with_faults = PipelineRun::new(a.codes(), b.codes(), &platform)
            .config(cfg.clone())
            .faults(plan)
            .run()
            .unwrap();
        assert_eq!(with_faults.best, plain.best);
        assert_eq!(with_faults.total_cells, plain.total_cells);

        // Pruning enabled but reported: the best cell never moves.
        let pruned = PipelineRun::new(a.codes(), b.codes(), &platform)
            .config(cfg.clone().with_pruning(PruneMode::Distributed))
            .run()
            .unwrap();
        assert_eq!(pruned.best, plain.best);
        assert!(pruned.pruning.is_some());
    }
}

#[test]
fn obs_level_gates_what_both_backends_record() {
    let (a, b) = homologous_pair(1_200, 51);
    let cfg = RunConfig::paper_default().with_block(64);

    let kernels_only = Recorder::new(ObsLevel::Kernels);
    PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
        .config(cfg.clone())
        .observer(kernels_only.clone())
        .run()
        .unwrap();
    assert!(kernels_only
        .spans()
        .iter()
        .all(|s| s.kind == ObsKind::Kernel));

    let off = Recorder::new(ObsLevel::Off);
    DesSim::new(50_000, 50_000, &Platform::env2())
        .config(cfg)
        .observer(off.clone())
        .run();
    assert!(off.is_empty());
}
