//! Multi-GPU alignment retrieval (CUDAlign stages 1–3 analogue).
//!
//! The paper's system computes stage 1 (best score + end point) on the
//! GPUs; the CUDAlign pipeline it belongs to then recovers the alignment:
//!
//! 1. **Stage 1** — [`crate::pipeline::PipelineRun`] (local semantics)
//!    over the whole matrix ⇒ score `S` and end point `(iₑ, jₑ)`.
//! 2. **Stage 2** — the *same multi-GPU pipeline* under anchored semantics
//!    over the **reversed prefixes** `rev(a[..iₑ])`, `rev(b[..jₑ])` ⇒ the
//!    start point `(iₛ, jₛ)` (the anchored maximum, mapped back). This is
//!    the step that genuinely needs the multi-GPU machinery again: the
//!    reverse matrix is as big as the prefix of the forward one.
//! 3. **Stage 3** — Myers–Miller on the bounded segment
//!    `a[iₛ..=iₑ] × b[jₛ..=jₑ]` (host-side, linear memory) ⇒ the op list.
//!    CUDAlign splits this across further GPU passes; for the simulated
//!    platform the host implementation from `megasw-sw` is the honest
//!    equivalent (the segment is tiny next to the full matrix).
//!
//! The result re-scores to exactly `S` (asserted), and the whole flow is
//! covered by tests against the single-threaded
//! [`megasw_sw::traceback::local_align`].

use crate::config::RunConfig;
use crate::pipeline::{PipelineError, PipelineRun, Semantics};
use megasw_gpusim::Platform;
use megasw_obs::{LiveTelemetry, ObsKind, Recorder};
use megasw_sw::traceback::{myers_miller, score_of_ops, LocalAlignment};
use std::sync::Arc;
use std::time::Duration;

/// Where each stage spent its wall-clock time.
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    pub stage1: Duration,
    pub stage2: Duration,
    pub stage3: Duration,
}

/// Retrieve the optimal local alignment using the multi-GPU pipeline for
/// the quadratic stages. See the module docs for the stage breakdown.
pub fn multigpu_local_align(
    a: &[u8],
    b: &[u8],
    platform: &Platform,
    config: &RunConfig,
) -> Result<(LocalAlignment, StageTimes), PipelineError> {
    multigpu_local_align_observed(a, b, platform, config, &Recorder::disabled())
}

/// [`multigpu_local_align`] with a span recorder attached: stages 1 and 2
/// contribute the pipeline's `Kernel`/ring spans, stage 3 a host-side
/// `Traceback` span.
pub fn multigpu_local_align_observed(
    a: &[u8],
    b: &[u8],
    platform: &Platform,
    config: &RunConfig,
    obs: &Recorder,
) -> Result<(LocalAlignment, StageTimes), PipelineError> {
    multigpu_local_align_live(a, b, platform, config, obs, None)
}

/// [`multigpu_local_align_observed`] with in-flight telemetry threaded
/// through both pipeline stages. Size the handle for `m × n` total cells:
/// stage 2 re-runs the pipeline over the reversed prefixes, so the live
/// cell count can exceed the forward matrix — the snapshot's
/// `fraction_done` clamps at 100% rather than overshooting.
pub fn multigpu_local_align_live(
    a: &[u8],
    b: &[u8],
    platform: &Platform,
    config: &RunConfig,
    obs: &Recorder,
    live: Option<&Arc<LiveTelemetry>>,
) -> Result<(LocalAlignment, StageTimes), PipelineError> {
    let mut times = StageTimes::default();
    let pipeline = |a: &[u8], b: &[u8], semantics: Semantics| {
        let mut run = PipelineRun::new(a, b, platform)
            .config(config.clone())
            .semantics(semantics)
            .observer(obs.clone());
        if let Some(live) = live {
            run = run.live(Arc::clone(live));
        }
        run.execute()
    };

    // Stage 1: forward local pipeline.
    let t0 = std::time::Instant::now();
    let stage1 = pipeline(a, b, Semantics::Local)?;
    times.stage1 = t0.elapsed();
    let best = stage1.best;
    if best.score <= 0 {
        return Ok((LocalAlignment::empty(), times));
    }
    let (ie, je) = (best.i, best.j);

    // Stage 2: reversed anchored pipeline over the prefixes.
    let t0 = std::time::Instant::now();
    let ar: Vec<u8> = a[..ie].iter().rev().copied().collect();
    let br: Vec<u8> = b[..je].iter().rev().copied().collect();
    let stage2 = pipeline(&ar, &br, Semantics::Anchored)?;
    times.stage2 = t0.elapsed();
    debug_assert_eq!(
        stage2.best.score, best.score,
        "anchored reverse pipeline must reproduce the stage-1 score"
    );
    let is = ie - stage2.best.i + 1;
    let js = je - stage2.best.j + 1;

    // Stage 3: Myers–Miller on the bounded segment — host work, so the
    // span lands on the host lane (no device).
    let t0 = std::time::Instant::now();
    let tb_start = obs.now_ns();
    let a_seg = &a[is - 1..ie];
    let b_seg = &b[js - 1..je];
    let ops = myers_miller(a_seg, b_seg, &config.scheme);
    obs.record_since(ObsKind::Traceback, None, None, tb_start);
    times.stage3 = t0.elapsed();
    debug_assert_eq!(
        score_of_ops(a_seg, b_seg, &ops, &config.scheme),
        Ok(best.score),
        "retrieved path must re-score to the stage-1 score"
    );

    Ok((
        LocalAlignment {
            score: best.score,
            start_i: is,
            start_j: js,
            end_i: ie,
            end_j: je,
            ops,
        },
        times,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use megasw_seq::{ChromosomeGenerator, DivergenceModel, GenerateConfig};
    use megasw_sw::traceback::local_align;

    fn pair(len: usize, seed: u64) -> (megasw_seq::DnaSeq, megasw_seq::DnaSeq) {
        let a = ChromosomeGenerator::new(GenerateConfig::uniform(len, seed)).generate();
        let (b, _) = DivergenceModel::test_scale(seed + 3).apply(&a);
        (a, b)
    }

    #[test]
    fn matches_host_local_align_on_similar_pairs() {
        for seed in [1u64, 2, 3] {
            let (a, b) = pair(2_000, seed);
            let cfg = RunConfig::paper_default().with_block(96);
            let (aln, times) =
                multigpu_local_align(a.codes(), b.codes(), &Platform::env2(), &cfg).unwrap();
            let want = local_align(a.codes(), b.codes(), &cfg.scheme);
            assert_eq!(aln.score, want.score, "seed {seed}");
            assert_eq!(
                (aln.start_i, aln.start_j, aln.end_i, aln.end_j),
                (want.start_i, want.start_j, want.end_i, want.end_j),
                "seed {seed}"
            );
            assert!(times.stage1 > Duration::ZERO);
            assert!(times.stage2 > Duration::ZERO);
        }
    }

    #[test]
    fn rescoring_holds_on_dissimilar_pairs() {
        let a = ChromosomeGenerator::new(GenerateConfig::uniform(1_200, 9)).generate();
        let b = ChromosomeGenerator::new(GenerateConfig::uniform(1_100, 10)).generate();
        let cfg = RunConfig::paper_default().with_block(64);
        let (aln, _) = multigpu_local_align(a.codes(), b.codes(), &Platform::env1(), &cfg).unwrap();
        if aln.score > 0 {
            let a_seg = &a.codes()[aln.start_i - 1..aln.end_i];
            let b_seg = &b.codes()[aln.start_j - 1..aln.end_j];
            assert_eq!(
                score_of_ops(a_seg, b_seg, &aln.ops, &cfg.scheme),
                Ok(aln.score)
            );
        }
    }

    #[test]
    fn empty_and_hopeless_inputs() {
        let cfg = RunConfig::paper_default().with_block(32);
        let (aln, _) = multigpu_local_align(&[], &[], &Platform::env1(), &cfg).unwrap();
        assert!(aln.is_empty());
        // All-N sequences can never score.
        let n = vec![4u8; 500];
        let (aln, _) = multigpu_local_align(&n, &n, &Platform::env2(), &cfg).unwrap();
        assert!(aln.is_empty());
    }

    #[test]
    fn anchored_pipeline_matches_host_anchored_scan() {
        use crate::pipeline::PipelineRun;
        use megasw_sw::traceback::anchored_best;
        for seed in [11u64, 12] {
            let (a, b) = pair(1_500, seed);
            let cfg = RunConfig::paper_default().with_block(64);
            let rep = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
                .config(cfg.clone())
                .semantics(Semantics::Anchored)
                .run()
                .unwrap();
            assert_eq!(
                rep.best,
                anchored_best(a.codes(), b.codes(), &cfg.scheme),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn anchored_pipeline_invariant_to_partitioning() {
        use crate::config::PartitionPolicy;
        use crate::pipeline::PipelineRun;
        use megasw_sw::traceback::anchored_best;
        let (a, b) = pair(1_000, 21);
        let want = anchored_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign());
        for policy in [
            PartitionPolicy::Equal,
            PartitionPolicy::Explicit(vec![1.0, 9.0, 3.0]),
        ] {
            let cfg = RunConfig::paper_default()
                .with_block(48)
                .with_partition(policy);
            let rep = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
                .config(cfg)
                .semantics(Semantics::Anchored)
                .run()
                .unwrap();
            assert_eq!(rep.best, want);
        }
    }

    #[test]
    fn observed_retrieval_emits_a_host_traceback_span() {
        use megasw_obs::ObsLevel;
        let (a, b) = pair(1_500, 31);
        let cfg = RunConfig::paper_default().with_block(64);
        let obs = Recorder::new(ObsLevel::Full);
        let (aln, _) =
            multigpu_local_align_observed(a.codes(), b.codes(), &Platform::env1(), &cfg, &obs)
                .unwrap();
        assert!(aln.score > 0);
        let spans = obs.spans();
        let tb: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == ObsKind::Traceback)
            .collect();
        assert_eq!(tb.len(), 1);
        assert_eq!(tb[0].device, None);
        // Stage-1 and stage-2 pipelines both contributed kernel spans.
        assert!(spans.iter().filter(|s| s.kind == ObsKind::Kernel).count() >= 2);
    }
}
