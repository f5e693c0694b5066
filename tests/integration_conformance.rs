//! Differential conformance: four independent implementations of the same
//! problem must agree on every seeded combination of shape, block geometry,
//! buffer capacity, and platform.
//!
//! * the **reference DP** (`gotoh_best`) is ground truth;
//! * the **threaded pipeline** must match it bit-for-bit (score *and*
//!   end-point);
//! * the **banded scan** (`banded_adaptive`) must converge to the same best
//!   cell from a narrow initial band;
//! * the **DES backend** computes no scores, so it is held to structural
//!   invariants instead: every device covers its slab, the slabs tile the
//!   matrix exactly, and the simulated clock advances.
//!
//! Each combination is labelled, so one divergent case fails with enough
//! context to replay it by hand.

use megasw::prelude::*;
use megasw::sw::banded::BandedResult;

/// Scalar whole-sequence oracle via the kernel trait (the deprecated
/// `gotoh_best` free function is being phased out).
fn gotoh_best(a: &[u8], b: &[u8], scheme: &ScoreScheme) -> BestCell {
    kernel::scalar().best(a, b, scheme)
}

/// Adaptive banded scan via the kernel trait (same phase-out).
fn banded_adaptive(a: &[u8], b: &[u8], scheme: &ScoreScheme, width: usize) -> BandedResult {
    kernel::scalar().banded_adaptive(a, b, scheme, width)
}

struct Combo {
    label: String,
    a: DnaSeq,
    b: DnaSeq,
    platform: Platform,
    cfg: RunConfig,
}

/// The ~40-case seeded matrix: 5 sequence shapes × 4 geometry/capacity
/// settings × 2 platforms.
fn combos() -> Vec<Combo> {
    let shapes: &[(usize, u64, &str)] = &[
        (1_200, 0x4D_10, "short"),
        (2_400, 0x4D_11, "medium"),
        (3_600, 0x4D_12, "long"),
        (2_000, 0x4D_13, "snp-heavy"),
        (1_700, 0x4D_14, "indel-heavy"),
    ];
    let geometries: &[(usize, usize, usize, &str)] = &[
        // (block_h, block_w, capacity, label)
        (64, 64, 8, "square64"),
        (32, 128, 1, "wide-cap1"),
        (128, 33, 2, "tall-odd"),
        (256, 256, 4, "square256"),
    ];
    let mut out = Vec::new();
    for &(len, seed, shape) in shapes {
        let a = ChromosomeGenerator::new(GenerateConfig::sized(len, seed)).generate();
        let model = match shape {
            "snp-heavy" => DivergenceModel::snp_only(seed, 0.10),
            "indel-heavy" => DivergenceModel::human_chimp_scaled(seed, len),
            _ => DivergenceModel::test_scale(seed + 7),
        };
        let (b, _) = model.apply(&a);
        for &(bh, bw, cap, geom) in geometries {
            for (platform, pname) in [(Platform::env1(), "env1"), (Platform::env2(), "env2")] {
                let mut cfg = RunConfig::paper_default().with_buffer_capacity(cap);
                cfg.block_h = bh;
                cfg.block_w = bw;
                out.push(Combo {
                    label: format!("{shape}/{geom}/{pname}"),
                    a: a.clone(),
                    b: b.clone(),
                    platform,
                    cfg,
                });
            }
        }
    }
    out
}

#[test]
fn threaded_pipeline_matches_reference_on_every_combo() {
    for c in combos() {
        let want = gotoh_best(c.a.codes(), c.b.codes(), &c.cfg.scheme);
        let report = PipelineRun::new(c.a.codes(), c.b.codes(), &c.platform)
            .config(c.cfg.clone())
            .run()
            .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", c.label));
        assert_eq!(report.best, want, "{}", c.label);
        assert_eq!(
            report.total_cells,
            (c.a.len() as u128) * (c.b.len() as u128),
            "{}",
            c.label
        );
    }
}

#[test]
fn banded_scan_converges_to_the_reference_on_every_shape() {
    // The scan depends only on the sequences and scheme, not the platform
    // or geometry — deduplicate to one check per shape.
    let mut seen = std::collections::BTreeSet::new();
    for c in combos() {
        let shape = c.label.split('/').next().unwrap().to_string();
        if !seen.insert(shape) {
            continue;
        }
        let want = gotoh_best(c.a.codes(), c.b.codes(), &c.cfg.scheme);
        let banded = banded_adaptive(c.a.codes(), c.b.codes(), &c.cfg.scheme, 16);
        assert_eq!(banded.best, want, "{}", c.label);
        assert!(
            banded.cells_computed <= (c.a.len() as u128) * (c.b.len() as u128),
            "{}: banded computed more cells than the full matrix",
            c.label
        );
    }
}

#[test]
fn des_backend_is_structurally_sound_on_every_combo() {
    for c in combos() {
        let run = DesSim::new(c.a.len(), c.b.len(), &c.platform)
            .config(c.cfg.clone())
            .run();
        let r = &run.report;
        assert!(run.aborted.is_none(), "{}", c.label);
        assert!(run.losses.is_empty(), "{}", c.label);
        assert_eq!(
            r.total_cells,
            (c.a.len() as u128) * (c.b.len() as u128),
            "{}",
            c.label
        );
        // Slabs tile the columns exactly, in chain order.
        let mut next_col = 1;
        for d in &r.devices {
            assert_eq!(d.slab_j0, next_col, "{}", c.label);
            next_col += d.slab_width;
        }
        assert_eq!(next_col, c.b.len() + 1, "{}", c.label);
        let sim = r
            .sim_time
            .unwrap_or_else(|| panic!("{}: no sim time", c.label));
        assert!(sim.as_nanos() > 0, "{}", c.label);
        assert!(r.gcups_sim.unwrap() > 0.0, "{}", c.label);
    }
}

#[test]
fn pruned_threaded_pipeline_stays_bit_identical_on_every_combo() {
    // Block pruning emits substitute borders instead of computing skipped
    // tiles; on every shape × geometry × platform the best cell (score AND
    // end-point) must still match the reference exactly. Distributed
    // pruning runs the full matrix; Local runs a sampled subset.
    for (idx, c) in combos().into_iter().enumerate() {
        let want = gotoh_best(c.a.codes(), c.b.codes(), &c.cfg.scheme);
        let modes: &[PruneMode] = if idx % 3 == 0 {
            &[PruneMode::Local, PruneMode::Distributed]
        } else {
            &[PruneMode::Distributed]
        };
        for &mode in modes {
            let report = PipelineRun::new(c.a.codes(), c.b.codes(), &c.platform)
                .config(c.cfg.clone().with_pruning(mode))
                .run()
                .unwrap_or_else(|e| panic!("{}/{mode}: pipeline failed: {e}", c.label));
            assert_eq!(report.best, want, "{}/{mode}", c.label);
            let pr = report.pruning.unwrap();
            assert!(pr.tiles_pruned <= pr.tiles_total, "{}/{mode}", c.label);
            assert!(pr.watermark_lag >= 0, "{}/{mode}", c.label);
        }
    }
}

#[test]
fn pruned_recovery_after_fault_stays_bit_identical() {
    // The distributed watermark is checkpointed and re-seeded after a
    // device death; a recovered pruned run must still match the fault-free
    // unpruned reference bit-for-bit.
    for c in combos().into_iter().step_by(9) {
        let want = gotoh_best(c.a.codes(), c.b.codes(), &c.cfg.scheme);
        let cfg = c
            .cfg
            .clone()
            .with_pruning(PruneMode::Distributed)
            .with_checkpoint(CheckpointCadence::EveryRows(4));
        let report = PipelineRun::new(c.a.codes(), c.b.codes(), &c.platform)
            .config(cfg)
            .faults(ScheduledFault {
                device: 1,
                block_row: 6,
                phase: FaultPhase::Compute,
            })
            .recover(RecoveryPolicy::default())
            .run()
            .unwrap_or_else(|e| panic!("{}: pruned recovery failed: {e}", c.label));
        assert_eq!(report.best, want, "{}", c.label);
        assert_eq!(report.recovery.unwrap().recoveries, 1, "{}", c.label);
        assert!(report.pruning.is_some(), "{}", c.label);
    }
}

#[test]
fn pruned_des_mirror_is_structurally_sound() {
    // The DES twin models the same protocol analytically: its accounting
    // must stay internally consistent, and pruning must never slow the
    // simulated clock down.
    for c in combos().into_iter().step_by(7) {
        let plain = DesSim::new(c.a.len(), c.b.len(), &c.platform)
            .config(c.cfg.clone())
            .identity(0.95)
            .run();
        let pruned = DesSim::new(c.a.len(), c.b.len(), &c.platform)
            .config(c.cfg.clone().with_pruning(PruneMode::Distributed))
            .identity(0.95)
            .run();
        assert!(pruned.aborted.is_none(), "{}", c.label);
        let pr = pruned.report.pruning.as_ref().unwrap();
        assert!(pr.tiles_pruned <= pr.tiles_total, "{}", c.label);
        assert!(pr.cells_skipped <= pruned.report.total_cells, "{}", c.label);
        assert!(pr.watermark_lag >= 0, "{}", c.label);
        assert!(
            pruned.report.sim_time.unwrap() <= plain.report.sim_time.unwrap(),
            "{}: pruning slowed the simulated clock",
            c.label
        );
    }
}

#[test]
fn watermark_is_monotone_and_never_exceeds_the_true_best() {
    // Property check on the live watermark gauge: sampled while the
    // threaded run executes, each device's watermark must only ever grow,
    // and can never exceed the true global best — it folds only
    // actually-observed cell scores.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let a = ChromosomeGenerator::new(GenerateConfig::sized(6_000, 0x4D_77)).generate();
    let (b, _) = DivergenceModel::snp_only(0x4D_78, 0.01).apply(&a);
    let want = gotoh_best(a.codes(), b.codes(), &ScoreScheme::cudalign());
    let platform = Platform::env2();
    let cfg = RunConfig::paper_default()
        .with_block(64)
        .with_pruning(PruneMode::Distributed);
    let live = LiveTelemetry::new(
        platform.len(),
        (a.len() as u64).saturating_mul(b.len() as u64),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let live = Arc::clone(&live);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut traces: Vec<Vec<i64>> = vec![Vec::new(); 3];
            while !stop.load(Ordering::Relaxed) {
                let snap = live.snapshot();
                for (trace, d) in traces.iter_mut().zip(&snap.devices) {
                    trace.push(d.watermark);
                }
                std::thread::yield_now();
            }
            traces
        })
    };
    let report = PipelineRun::new(a.codes(), b.codes(), &platform)
        .config(cfg)
        .live(Arc::clone(&live))
        .run()
        .unwrap();
    stop.store(true, Ordering::Relaxed);
    let traces = poller.join().unwrap();

    assert_eq!(report.best, want);
    for (device, trace) in traces.iter().enumerate() {
        assert!(
            trace.windows(2).all(|w| w[0] <= w[1]),
            "gpu{device}: watermark went backwards"
        );
    }
    let last = live.snapshot();
    for d in &last.devices {
        assert!(
            d.watermark <= i64::from(want.score),
            "watermark {} exceeds the true best {}",
            d.watermark,
            want.score
        );
    }
}

/// Every dispatch mode the host supports (forced scalar always; forced
/// SSE4.1/AVX2/AVX-512BW when the CPU has them), for the dispatch-axis
/// tests below.
fn available_dispatches() -> Vec<KernelDispatch> {
    [
        KernelDispatch::ForceScalar,
        KernelDispatch::ForceSse41,
        KernelDispatch::ForceAvx2,
        KernelDispatch::ForceAvx512,
    ]
    .into_iter()
    .filter(|&d| kernel::select(d).is_ok())
    .collect()
}

#[test]
fn every_dispatch_mode_is_bit_identical_on_sampled_combos() {
    // The dispatch axis of the conformance matrix: each engine the host
    // supports must reproduce the reference best cell bit-for-bit, plain
    // and crossed with distributed pruning.
    for (idx, c) in combos().into_iter().enumerate().step_by(5) {
        let want = gotoh_best(c.a.codes(), c.b.codes(), &c.cfg.scheme);
        for d in available_dispatches() {
            let report = PipelineRun::new(c.a.codes(), c.b.codes(), &c.platform)
                .config(c.cfg.clone().with_dispatch(d))
                .run()
                .unwrap_or_else(|e| panic!("{}/{d:?}: pipeline failed: {e}", c.label));
            assert_eq!(report.best, want, "{}/{d:?}", c.label);
            assert_eq!(report.kernel.dispatch, d, "{}/{d:?}", c.label);
            if idx % 2 == 0 {
                let pruned = PipelineRun::new(c.a.codes(), c.b.codes(), &c.platform)
                    .config(
                        c.cfg
                            .clone()
                            .with_dispatch(d)
                            .with_pruning(PruneMode::Distributed),
                    )
                    .run()
                    .unwrap_or_else(|e| panic!("{}/{d:?}/pruned: pipeline failed: {e}", c.label));
                assert_eq!(pruned.best, want, "{}/{d:?}/pruned", c.label);
            }
        }
    }
}

#[test]
fn every_dispatch_mode_survives_fault_recovery_bit_identically() {
    // Checkpointed border waves are extracted from whatever engine computed
    // them; resuming after a device death must stay exact on every engine.
    for c in combos().into_iter().step_by(13) {
        let want = gotoh_best(c.a.codes(), c.b.codes(), &c.cfg.scheme);
        for d in available_dispatches() {
            let cfg = c
                .cfg
                .clone()
                .with_dispatch(d)
                .with_pruning(PruneMode::Distributed)
                .with_checkpoint(CheckpointCadence::EveryRows(4));
            let report = PipelineRun::new(c.a.codes(), c.b.codes(), &c.platform)
                .config(cfg)
                .faults(ScheduledFault {
                    device: 1,
                    block_row: 6,
                    phase: FaultPhase::Compute,
                })
                .recover(RecoveryPolicy::default())
                .run()
                .unwrap_or_else(|e| panic!("{}/{d:?}: recovery failed: {e}", c.label));
            assert_eq!(report.best, want, "{}/{d:?}", c.label);
            assert_eq!(report.recovery.unwrap().recoveries, 1, "{}/{d:?}", c.label);
        }
    }
}

#[test]
fn every_dispatch_mode_is_bit_identical_on_wide_tiles() {
    // The combos' tiles are at most 256 a side and mostly narrower, so the
    // 32-lane wave (short side ≥ 64) meets few of them; tiles of 64, 96 and
    // 512 a side put every engine's widest wave inside `PipelineRun`. The
    // 512 grid divides the matrix exactly, so no edge tile is narrow: the
    // vector engines must run every tile on a wave and none scalar by size.
    let a = ChromosomeGenerator::new(GenerateConfig::sized(2_700, 0x4D_30)).generate();
    let (b, _) = DivergenceModel::test_scale(0x4D_31).apply(&a);
    let (a, b) = (&a.codes()[..2_560], &b.codes()[..2_048]);
    let want = gotoh_best(a, b, &ScoreScheme::cudalign());
    for side in [64usize, 96, 512] {
        for d in available_dispatches() {
            let mut cfg = RunConfig::paper_default().with_dispatch(d);
            cfg.block_h = side;
            cfg.block_w = side;
            for cfg in [cfg.clone(), cfg.with_pruning(PruneMode::Distributed)] {
                let label = format!("{side}/{d:?}/{:?}", cfg.policy.pruning);
                let report = PipelineRun::new(a, b, &Platform::env1())
                    .config(cfg)
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: pipeline failed: {e}"));
                assert_eq!(report.best, want, "{label}");
                let paths = report.kernel_paths;
                if d == KernelDispatch::ForceScalar {
                    assert_eq!(paths, kernel::PathCounts::default(), "{label}");
                } else {
                    assert!(paths.wide > 0, "{label}: {paths:?}");
                }
                if side == 512 && d != KernelDispatch::ForceScalar {
                    assert_eq!(paths.scalar + paths.half, 0, "{label}: {paths:?}");
                }
            }
        }
    }
}

#[test]
fn work_counts_cover_the_whole_matrix_across_segments_and_rewinds() {
    // Pruning, rescue and kernel-path counts are whole-run totals: a run
    // that resumes from a checkpoint wave — at every rebalance boundary, or
    // after a fault rewind past its first checkpoint — counts the rows
    // above the wave through the checkpoint, each tile once. Two devices,
    // the fault on the last: the upstream device deposits each wave before
    // the dead one can start the row after it, so the rewind lands on the
    // newest wave below the fault row.
    let mut checked = 0;
    for c in combos() {
        let rows = c.a.len().div_ceil(c.cfg.block_h);
        if c.platform.len() != 2 || rows <= 8 {
            continue;
        }
        let tiles = (rows * c.b.len().div_ceil(c.cfg.block_w)) as u64;
        let pruned = c.cfg.clone().with_pruning(PruneMode::Distributed);
        let run = || PipelineRun::new(c.a.codes(), c.b.codes(), &c.platform);
        let faulted = |cfg: RunConfig| {
            run()
                .config(cfg)
                .faults(ScheduledFault {
                    device: 1,
                    block_row: 6,
                    phase: FaultPhase::Compute,
                })
                .recover(RecoveryPolicy::default())
                .run()
        };
        // With 2-row checkpoints the rebalanced fault rewinds to wave 6,
        // inside the 4-row segment that started at row 4.
        let runs = [
            ("plain", run().config(pruned.clone()).run(), None),
            (
                "rebalanced",
                run().config(aggressive_rebalance(&pruned)).run(),
                None,
            ),
            (
                "recovered",
                faulted(
                    pruned
                        .clone()
                        .with_checkpoint(CheckpointCadence::EveryRows(4)),
                ),
                Some(4),
            ),
            (
                "rebalanced+recovered",
                faulted(aggressive_rebalance(&pruned)),
                Some(6),
            ),
        ];
        for (kind, report, resumed_from) in runs {
            let label = format!("{}/{kind}", c.label);
            let report = report.unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
            if let Some(row) = resumed_from {
                let rec = report.recovery.as_ref().expect("recovery report");
                assert_eq!(rec.resumed_from_rows, vec![row], "{label}");
            }
            let pr = report.pruning.as_ref().expect("pruning report");
            assert_eq!(pr.tiles_total, tiles, "{label}");
            assert!(pr.tiles_pruned <= pr.tiles_total, "{label}");
            let p = report.kernel_paths;
            let routed = p.wide + p.half + p.scalar + p.rescued;
            if report.kernel.resolved == KernelId::Scalar {
                assert_eq!(routed, 0, "{label}");
            } else {
                assert_eq!(routed, pr.tiles_total - pr.tiles_pruned, "{label}: {p:?}");
            }
        }
        // The DES twin counts the same grid once across its segments and
        // its rewind.
        let sim = |cfg: RunConfig| {
            DesSim::new(c.a.len(), c.b.len(), &c.platform)
                .config(cfg)
                .identity(0.95)
        };
        let des_runs = [
            ("des-plain", sim(pruned.clone()).run()),
            ("des-rebalanced", sim(aggressive_rebalance(&pruned)).run()),
            (
                "des-recovered",
                sim(pruned
                    .clone()
                    .with_checkpoint(CheckpointCadence::EveryRows(4)))
                .faults(ScheduledFault {
                    device: 1,
                    block_row: 6,
                    phase: FaultPhase::Compute,
                })
                .recover(RecoveryPolicy::default())
                .run(),
            ),
        ];
        for (kind, run) in des_runs {
            let label = format!("{}/{kind}", c.label);
            assert!(run.aborted.is_none(), "{label}: {:?}", run.aborted);
            if kind == "des-recovered" {
                let rec = run.report.recovery.as_ref().expect("recovery report");
                assert_eq!(rec.recoveries, 1, "{label}");
            }
            let pr = run.report.pruning.as_ref().expect("pruning report");
            assert_eq!(pr.tiles_total, tiles, "{label}");
            assert!(pr.tiles_pruned <= pr.tiles_total, "{label}");
        }
        checked += 1;
    }
    assert!(
        checked >= 4,
        "only {checked} combos had more than 8 block-rows"
    );
}

#[test]
fn forced_scalar_equals_auto_on_random_megabase_windows() {
    // Seeded property test on the kernel surface itself: windows sampled
    // from a megabase homologous pair must score identically (score AND
    // tie-broken end point) under ForceScalar and Auto dispatch.
    use megasw::seq::rng::ChaCha8Rng;
    let human = ChromosomeGenerator::new(GenerateConfig::sized(1_000_000, 0x4D_99)).generate();
    let (chimp, _) = DivergenceModel::human_chimp_scaled(0x4D_9A, 1_000_000).apply(&human);
    let forced = kernel::select(KernelDispatch::ForceScalar).unwrap();
    let auto = kernel::select(KernelDispatch::Auto).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0x4D_AB);
    for case in 0..6 {
        let wa = 2_000 + rng.gen_range(0..6_000usize);
        let wb = 2_000 + rng.gen_range(0..6_000usize);
        let ia = rng.gen_range(0..human.len() - wa);
        let ib = rng.gen_range(0..chimp.len() - wb);
        let a = &human.codes()[ia..ia + wa];
        let b = &chimp.codes()[ib..ib + wb];
        for scheme in [ScoreScheme::cudalign(), ScoreScheme::lenient()] {
            assert_eq!(
                forced.best(a, b, &scheme),
                auto.best(a, b, &scheme),
                "case {case}: a[{ia}..+{wa}] x b[{ib}..+{wb}]"
            );
        }
    }
}

/// An aggressive rebalance policy for the conformance axis: a checkpoint
/// every 2 block-rows, a 2-wave window and zero hysteresis, so the
/// controller migrates at essentially every boundary where the split is
/// not already perfect — maximum stress on the hand-off.
fn aggressive_rebalance(cfg: &RunConfig) -> RunConfig {
    cfg.clone()
        .with_checkpoint(CheckpointCadence::EveryRows(2))
        .with_rebalance(RebalanceMode::On {
            threshold: 0.0,
            window_waves: 2,
        })
}

#[test]
fn rebalanced_threaded_pipeline_stays_bit_identical_on_sampled_combos() {
    // The rebalance axis of the conformance matrix: live repartitioning at
    // checkpoint boundaries resumes every worker from the boundary wave's
    // full-width border, so the best cell (score AND end-point) must match
    // the reference exactly — plain and crossed with distributed pruning.
    for (idx, c) in combos().into_iter().enumerate().step_by(5) {
        let want = gotoh_best(c.a.codes(), c.b.codes(), &c.cfg.scheme);
        let report = PipelineRun::new(c.a.codes(), c.b.codes(), &c.platform)
            .config(aggressive_rebalance(&c.cfg))
            .run()
            .unwrap_or_else(|e| panic!("{}/rebalance: pipeline failed: {e}", c.label));
        assert_eq!(report.best, want, "{}/rebalance", c.label);
        let rb = report
            .rebalance
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no rebalance report", c.label));
        assert!(rb.evaluations > 0, "{}", c.label);
        assert_eq!(
            rb.migrations as usize,
            rb.applied_at_rows.len(),
            "{}",
            c.label
        );
        if idx % 2 == 0 {
            let pruned = PipelineRun::new(c.a.codes(), c.b.codes(), &c.platform)
                .config(aggressive_rebalance(&c.cfg).with_pruning(PruneMode::Distributed))
                .run()
                .unwrap_or_else(|e| panic!("{}/rebalance+prune: pipeline failed: {e}", c.label));
            assert_eq!(pruned.best, want, "{}/rebalance+prune", c.label);
            assert!(pruned.pruning.is_some(), "{}", c.label);
            assert!(pruned.rebalance.is_some(), "{}", c.label);
        }
    }
}

#[test]
fn rebalanced_recovery_after_fault_stays_bit_identical() {
    // Rebalance × fault recovery × distributed pruning: a device death in a
    // run that has already migrated columns must still rewind, repartition
    // across the survivors and finish with the exact reference best.
    for c in combos().into_iter().step_by(11) {
        let want = gotoh_best(c.a.codes(), c.b.codes(), &c.cfg.scheme);
        let report = PipelineRun::new(c.a.codes(), c.b.codes(), &c.platform)
            .config(aggressive_rebalance(&c.cfg).with_pruning(PruneMode::Distributed))
            .faults(ScheduledFault {
                device: 1,
                block_row: 6,
                phase: FaultPhase::Compute,
            })
            .recover(RecoveryPolicy::default())
            .run()
            .unwrap_or_else(|e| panic!("{}/rebalance+recover: failed: {e}", c.label));
        assert_eq!(report.best, want, "{}/rebalance+recover", c.label);
        assert_eq!(report.recovery.unwrap().recoveries, 1, "{}", c.label);
        assert!(report.rebalance.is_some(), "{}", c.label);
        // The dead device holds no columns in the final split.
        assert!(
            report.devices.iter().all(|d| d.device != 1),
            "{}: dead device still owns a slab",
            c.label
        );
    }
}

#[test]
fn rebalanced_des_mirror_is_structurally_sound() {
    // The DES twin of the rebalance axis: whatever the controller migrated,
    // the final slab set must still tile the columns exactly and the
    // accounting must stay internally consistent.
    for c in combos().into_iter().step_by(9) {
        let run = DesSim::new(c.a.len(), c.b.len(), &c.platform)
            .config(aggressive_rebalance(&c.cfg))
            .run();
        assert!(run.aborted.is_none(), "{}", c.label);
        let rb = run
            .report
            .rebalance
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no rebalance report", c.label));
        assert!(rb.evaluations > 0, "{}", c.label);
        assert_eq!(
            rb.migrations as usize,
            rb.applied_at_rows.len(),
            "{}",
            c.label
        );
        let mut next_col = 1;
        for d in &run.report.devices {
            assert_eq!(d.slab_j0, next_col, "{}", c.label);
            next_col += d.slab_width;
        }
        assert_eq!(next_col, c.b.len() + 1, "{}", c.label);
        assert!(run.report.sim_time.unwrap().as_nanos() > 0, "{}", c.label);
    }
}

#[test]
fn rebalanced_des_recovery_after_fault_is_structurally_sound() {
    // The DES twin of the rebalance × recovery row: the same fault in the
    // same rebalancing config must recover once, keep rebalancing, leave
    // the dead device without a slab, and still tile every column.
    for c in combos().into_iter().step_by(11) {
        let run = DesSim::new(c.a.len(), c.b.len(), &c.platform)
            .config(aggressive_rebalance(&c.cfg).with_pruning(PruneMode::Distributed))
            .faults(ScheduledFault {
                device: 1,
                block_row: 6,
                phase: FaultPhase::Compute,
            })
            .recover(RecoveryPolicy::default())
            .run();
        assert!(run.aborted.is_none(), "{}: {:?}", c.label, run.aborted);
        assert_eq!(
            run.report.recovery.as_ref().unwrap().recoveries,
            1,
            "{}",
            c.label
        );
        assert!(run.report.rebalance.is_some(), "{}", c.label);
        assert!(
            run.report.devices.iter().all(|d| d.device != 1),
            "{}: dead device still owns a slab",
            c.label
        );
        let mut next_col = 1;
        for d in &run.report.devices {
            assert_eq!(d.slab_j0, next_col, "{}", c.label);
            next_col += d.slab_width;
        }
        assert_eq!(next_col, c.b.len() + 1, "{}", c.label);
    }
}

#[test]
fn threaded_and_des_agree_on_the_partition() {
    // Both backends derive slabs from the same partitioner; their
    // per-device column assignments must be identical.
    for c in combos().into_iter().step_by(7) {
        let report = PipelineRun::new(c.a.codes(), c.b.codes(), &c.platform)
            .config(c.cfg.clone())
            .run()
            .unwrap();
        let sim = DesSim::new(c.a.len(), c.b.len(), &c.platform)
            .config(c.cfg.clone())
            .run();
        let threaded: Vec<_> = report
            .devices
            .iter()
            .map(|d| (d.device, d.slab_j0, d.slab_width))
            .collect();
        let des: Vec<_> = sim
            .report
            .devices
            .iter()
            .map(|d| (d.device, d.slab_j0, d.slab_width))
            .collect();
        assert_eq!(threaded, des, "{}", c.label);
    }
}
