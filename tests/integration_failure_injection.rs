//! Failure injection across the whole stack: a device failing anywhere in
//! the chain must surface as a clean error — never a deadlock, never a
//! silently wrong score.

use megasw::prelude::*;

#[path = "util/deadline.rs"]
mod deadline;
use deadline::with_deadline;

/// Scalar whole-sequence oracle via the kernel trait (the deprecated
/// `gotoh_best` free function is being phased out).
fn gotoh_best(a: &[u8], b: &[u8], scheme: &ScoreScheme) -> BestCell {
    kernel::scalar().best(a, b, scheme)
}

fn pair(len: usize, seed: u64) -> (DnaSeq, DnaSeq) {
    let a = ChromosomeGenerator::new(GenerateConfig::sized(len, seed)).generate();
    let (b, _) = DivergenceModel::test_scale(seed + 77).apply(&a);
    (a, b)
}

#[test]
fn every_device_and_phase_fails_cleanly() {
    let (a, b) = pair(2_000, 1);
    let cfg = RunConfig::paper_default()
        .with_block(64)
        .with_buffer_capacity(2);
    let rows = a.len().div_ceil(cfg.block_h);

    for device in 0..3 {
        for row in [0, 1, rows / 2, rows - 1] {
            let err = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
                .config(cfg.clone())
                .faults(ScheduledFault {
                    device,
                    block_row: row,
                    phase: FaultPhase::Compute,
                })
                .run()
                .expect_err("faulted run must not succeed");
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("device {device}")),
                "device {device} row {row}: {msg}"
            );
        }
    }
}

#[test]
fn fault_with_tiny_buffers_does_not_deadlock() {
    // Capacity-1 rings maximize blocking; the poison must still reach every
    // blocked neighbour. Run under a watchdog so a regression shows up as a
    // test failure rather than a hung suite.
    let (a, b) = pair(3_000, 2);
    let result = with_deadline(
        "faulted capacity-1 pipeline",
        std::time::Duration::from_secs(60),
        move || {
            let cfg = RunConfig::paper_default()
                .with_block(32)
                .with_buffer_capacity(1);
            PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
                .config(cfg.clone())
                .faults(ScheduledFault {
                    device: 1,
                    block_row: 40,
                    phase: FaultPhase::Compute,
                })
                .run()
        },
    );
    assert!(result.is_err());
}

#[test]
fn fault_on_nonexistent_device_is_harmless() {
    // A fault plan naming a device outside the chain never triggers.
    let (a, b) = pair(1_000, 3);
    let cfg = RunConfig::paper_default().with_block(64);
    let want = gotoh_best(a.codes(), b.codes(), &cfg.scheme);
    let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
        .config(cfg.clone())
        .faults(ScheduledFault {
            device: 99,
            block_row: 0,
            phase: FaultPhase::Compute,
        })
        .run()
        .unwrap();
    assert_eq!(report.best, want);
}

#[test]
fn fault_past_last_row_never_triggers() {
    let (a, b) = pair(1_000, 4);
    let cfg = RunConfig::paper_default().with_block(64);
    let rows = a.len().div_ceil(cfg.block_h);
    let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
        .config(cfg.clone())
        .faults(ScheduledFault {
            device: 0,
            block_row: rows + 10,
            phase: FaultPhase::Compute,
        })
        .run()
        .unwrap();
    assert_eq!(report.best, gotoh_best(a.codes(), b.codes(), &cfg.scheme));
}

#[test]
fn single_device_fault_reports_directly() {
    let (a, b) = pair(800, 5);
    let cfg = RunConfig::paper_default().with_block(64);
    let err = PipelineRun::new(a.codes(), b.codes(), &Platform::single(catalog::gtx680()))
        .config(cfg.clone())
        .faults(ScheduledFault {
            device: 0,
            block_row: 2,
            phase: FaultPhase::Compute,
        })
        .run()
        .unwrap_err();
    assert!(err.to_string().contains("device 0"));
}

#[test]
fn successive_runs_after_a_fault_are_unaffected() {
    // Faults poison per-run rings only; a fresh run must be clean.
    let (a, b) = pair(1_200, 6);
    let cfg = RunConfig::paper_default().with_block(64);
    let _ = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
        .config(cfg.clone())
        .faults(ScheduledFault {
            device: 1,
            block_row: 3,
            phase: FaultPhase::Compute,
        })
        .run();
    let clean = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
        .config(cfg.clone())
        .run()
        .unwrap();
    assert_eq!(clean.best, gotoh_best(a.codes(), b.codes(), &cfg.scheme));
}
