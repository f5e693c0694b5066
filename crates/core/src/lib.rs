//! # megasw — fine-grain parallel megabase Smith-Waterman on (simulated)
//! heterogeneous multi-GPU platforms
//!
//! `megasw` reproduces, in pure Rust, the system of *"Fine-grain parallel
//! megabase sequence comparison with multiple heterogeneous GPUs"* (PPoPP
//! 2014): the exact Smith-Waterman algorithm with affine gaps executed over
//! one huge DP matrix whose columns are spread across a chain of GPUs,
//! with border elements streamed to each right-hand neighbour through a
//! circular buffer that hides communication behind computation, and slab
//! widths sized to each GPU's compute power.
//!
//! Having no CUDA hardware, the workspace substitutes a **simulated GPU
//! platform** with two coupled backends (see `DESIGN.md`):
//!
//! * the **threaded runtime** executes the real kernels with real
//!   synchronization (one thread per device, real rings) and produces
//!   bit-exact Smith-Waterman results;
//! * the **discrete-event simulator** times the identical schedule on a
//!   calibrated 2012-era device catalog and produces the paper-comparable
//!   GCUPS picture.
//!
//! ## Quickstart
//!
//! ```
//! use megasw::prelude::*;
//!
//! // A synthetic homologous pair (ancestor + human–chimp-like divergence).
//! let human = ChromosomeGenerator::new(GenerateConfig::sized(20_000, 42)).generate();
//! let (chimp, _) = DivergenceModel::human_chimp(7).apply(&human);
//!
//! // Compare them on the paper's heterogeneous 3-GPU environment, with an
//! // observer collecting spans for a Chrome trace.
//! let platform = Platform::env2();
//! let config = RunConfig::paper_default().with_block(256);
//! let obs = Recorder::new(ObsLevel::Full);
//! let report = PipelineRun::new(human.codes(), chimp.codes(), &platform)
//!     .config(config.clone())
//!     .observer(obs.clone())
//!     .run()
//!     .unwrap();
//!
//! // The best cell is bit-identical to the sequential reference…
//! let oracle = kernel::scalar().best(human.codes(), chimp.codes(), &config.scheme);
//! assert_eq!(report.best, oracle);
//!
//! // …every device reports where its idle time went…
//! assert!(report.devices.iter().all(|d| d.stall.is_some()));
//!
//! // …the spans export as a chrome://tracing document…
//! let names: Vec<String> = platform.devices.iter().map(|d| d.name.clone()).collect();
//! let trace = chrome_trace(&obs.spans(), &names);
//! assert!(trace.contains("traceEvents"));
//!
//! // …and the same schedule can be timed on the simulated hardware.
//! let sim = DesSim::new(human.len(), chimp.len(), &platform).config(config).run();
//! assert!(sim.report.gcups_sim.unwrap() > 0.0);
//! ```
//!
//! The five crates re-exported here:
//!
//! | crate | role |
//! |---|---|
//! | [`seq`] | sequences: generation, divergence, FASTA, benchmark pairs |
//! | [`sw`] | DP kernels: reference, Gotoh, block kernel, SIMD wavefront + dispatch, pruning, traceback |
//! | [`gpusim`] | simulated hardware: device catalog, links, schedule engine |
//! | [`multigpu`] | the paper's system: partitioning, rings, pipeline, DES runs |

pub use megasw_gpusim as gpusim;
pub use megasw_multigpu as multigpu;
pub use megasw_obs as obs;
pub use megasw_seq as seq;
pub use megasw_sw as sw;

/// The commonly used names in one import.
pub mod prelude {
    pub use megasw_gpusim::{catalog, ClockDrift, DeviceSpec, LinkSpec, Platform, SimTime};
    pub use megasw_multigpu::autotune::{autotune, TuneResult};
    pub use megasw_multigpu::baseline::{cpu_parallel, cpu_serial};
    pub use megasw_multigpu::batch::{
        jobs_from_fasta_pair, jobs_from_manifest, BatchConfig, BatchFault, BatchJob, BatchPlan,
        BatchReport, BatchRun, BatchSim, BatchSimReport, BatchSpec,
    };
    pub use megasw_multigpu::checkpoint::{Checkpoint, CheckpointStore, RecoveryPolicy};
    pub use megasw_multigpu::desrun::DeviceLossEvent;
    pub use megasw_multigpu::desrun::{run_des, run_des_bulk, DesRun, DesSim};
    pub use megasw_multigpu::error::MegaswError;
    pub use megasw_multigpu::job::{JobKind, JobOutcome, JobReport, JobSpec};
    pub use megasw_multigpu::memory::{check_platform, plan_for, DeviceMemoryPlan};
    pub use megasw_multigpu::pipeline::{
        FaultPhase, FaultSchedule, PipelineRun, RunControl, ScheduledFault, Semantics,
    };
    pub use megasw_multigpu::service::{AlignService, JobState, JobStatus, ServiceConfig};
    pub use megasw_multigpu::stages::{
        multigpu_local_align, multigpu_local_align_live, multigpu_local_align_observed, StageTimes,
    };
    pub use megasw_multigpu::stats::{
        DeviceReport, PruningReport, RebalanceReport, RecoveryReport, StallAttribution,
        StallBreakdown,
    };
    pub use megasw_multigpu::{
        make_slabs, BorderMsg, CheckpointCadence, KernelPolicy, PartitionPolicy, PruneMode,
        RebalanceMode, RunConfig, RunReport, Slab,
    };
    pub use megasw_obs::{
        chrome_trace, http_delete, http_get, http_post, http_request, metrics_json, prometheus,
        render_progress_line, validate as validate_trace, DeviceSnapshot, FlightEvent, FlightKind,
        FlightRecorder, Handler, LiveSnapshot, LiveTelemetry, MetricsHub, MetricsRegistry,
        MetricsServer, ObsKind, ObsLevel, ObsSpan, ProgressSampler, Recorder, Request, Response,
        RingGauge, StallPhase,
    };
    pub use megasw_seq::{
        ChromosomeGenerator, ChromosomePair, DivergenceModel, DnaSeq, GenerateConfig, Nucleotide,
        PairCatalog, PairSpec,
    };
    pub use megasw_sw::kernel;
    pub use megasw_sw::render::render_alignment;
    pub use megasw_sw::traceback::{local_align, AlignOp, LocalAlignment};
    pub use megasw_sw::{
        BestCell, Kernel, KernelDispatch, KernelId, KernelSelection, Score, ScoreScheme,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_sufficient_for_the_headline_flow() {
        let human = ChromosomeGenerator::new(GenerateConfig::sized(5_000, 1)).generate();
        let (chimp, _) = DivergenceModel::test_scale(2).apply(&human);
        let config = RunConfig::paper_default().with_block(128);
        let report = PipelineRun::new(human.codes(), chimp.codes(), &Platform::env2())
            .config(config.clone())
            .run()
            .unwrap();
        assert_eq!(
            report.best,
            kernel::scalar().best(human.codes(), chimp.codes(), &config.scheme)
        );
        assert!(report.devices.iter().all(|d| d.stall.is_some()));
    }
}
