//! Run configuration: [`RunConfig`] geometry plus the typed [`KernelPolicy`]
//! bundle of run-shaping knobs (pruning, partitioning, checkpoint cadence).

use megasw_sw::{KernelDispatch, ScoreScheme};

/// How matrix columns are divided among devices.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionPolicy {
    /// Equal block-column counts (what you'd do if all GPUs were alike).
    Equal,
    /// Proportional to each device's calibrated compute power — the
    /// paper's strategy for heterogeneous platforms.
    Proportional,
    /// Explicit weights (one per device), mostly for tests and ablations.
    Explicit(Vec<f64>),
}

/// Block-pruning mode (CUDAlign 2.1 bound, see `megasw_sw::prune`).
///
/// Pruning only ever applies under **local** (Smith-Waterman) semantics;
/// anchored stages ignore this knob entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruneMode {
    /// Never skip a tile (the paper's multi-GPU baseline).
    #[default]
    Off,
    /// Each device prunes against its **own** best score only — no
    /// cross-device watermark traffic, weakest bound.
    Local,
    /// Devices fold neighbour watermarks (piggybacked on ring border
    /// messages) and a low-frequency shared global watermark into their
    /// pruning bound — the distributed protocol of DESIGN.md §10.
    Distributed,
}

impl PruneMode {
    /// Parse a CLI-style name: `off` | `local` | `distributed`.
    pub fn parse(s: &str) -> Result<PruneMode, String> {
        match s {
            "off" => Ok(PruneMode::Off),
            "local" => Ok(PruneMode::Local),
            "distributed" => Ok(PruneMode::Distributed),
            other => Err(format!(
                "unknown prune mode {other:?} (expected off|local|distributed)"
            )),
        }
    }

    /// True unless pruning is [`PruneMode::Off`].
    pub fn is_enabled(&self) -> bool {
        !matches!(self, PruneMode::Off)
    }
}

impl std::fmt::Display for PruneMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PruneMode::Off => "off",
            PruneMode::Local => "local",
            PruneMode::Distributed => "distributed",
        })
    }
}

/// Live slab rebalancing at checkpoint boundaries (DESIGN.md §13).
///
/// When on, the run is executed in **segments** of `window_waves`
/// checkpoint intervals. At every segment boundary the controller measures
/// each device's effective throughput (cells per busy nanosecond, net of
/// pruned tiles) over the segment just finished and predicts the makespan
/// of a re-split proportional to those rates; when the predicted
/// improvement exceeds `threshold`, block-columns migrate between devices
/// by handing off the checkpointed H/F border wave — no recomputation, so
/// scores stay bit-identical by construction.
///
/// Rebalancing rides the checkpoint machinery and therefore requires an
/// enabled [`CheckpointCadence`]; a run that asks for it with
/// checkpointing disabled is rejected as invalid.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RebalanceMode {
    /// Static slabs for the whole run (the paper's baseline).
    #[default]
    Off,
    /// Evaluate a re-split at every segment boundary.
    On {
        /// Hysteresis: minimum predicted relative makespan improvement
        /// (`0.05` = 5%) before a migration is applied. Guards against
        /// thrashing on measurement noise.
        threshold: f64,
        /// Sliding-window length in checkpoint intervals: how many
        /// checkpoint waves each segment spans before the controller
        /// re-evaluates.
        window_waves: usize,
    },
}

impl RebalanceMode {
    /// Default hysteresis threshold for `--rebalance on`.
    pub const DEFAULT_THRESHOLD: f64 = 0.05;
    /// Default sliding-window length in checkpoint intervals.
    pub const DEFAULT_WINDOW_WAVES: usize = 8;

    /// `on` with the default threshold and window.
    pub fn on() -> RebalanceMode {
        RebalanceMode::On {
            threshold: Self::DEFAULT_THRESHOLD,
            window_waves: Self::DEFAULT_WINDOW_WAVES,
        }
    }

    /// Parse a CLI-style spec: `off` | `on` | `on:<threshold>`.
    pub fn parse(s: &str) -> Result<RebalanceMode, String> {
        match s {
            "off" => Ok(RebalanceMode::Off),
            "on" => Ok(RebalanceMode::on()),
            other => match other.strip_prefix("on:") {
                Some(t) => {
                    let threshold: f64 = t
                        .parse()
                        .map_err(|_| format!("bad rebalance threshold {t:?}"))?;
                    if !threshold.is_finite() || threshold < 0.0 {
                        return Err(format!(
                            "rebalance threshold must be a finite fraction ≥ 0, got {t}"
                        ));
                    }
                    Ok(RebalanceMode::On {
                        threshold,
                        window_waves: Self::DEFAULT_WINDOW_WAVES,
                    })
                }
                None => Err(format!(
                    "unknown rebalance mode {other:?} (expected off|on|on:<threshold>)"
                )),
            },
        }
    }

    /// True unless rebalancing is [`RebalanceMode::Off`].
    pub fn is_enabled(&self) -> bool {
        !matches!(self, RebalanceMode::Off)
    }
}

impl std::fmt::Display for RebalanceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebalanceMode::Off => f.write_str("off"),
            RebalanceMode::On { threshold, .. } => write!(f, "on:{threshold}"),
        }
    }
}

/// How often workers deposit border checkpoints into the host-side
/// [`CheckpointStore`](crate::checkpoint::CheckpointStore).
///
/// The cadence only takes effect when a run is executed with a
/// [`RecoveryPolicy`](crate::checkpoint::RecoveryPolicy); without one, no
/// checkpoints are taken regardless of this setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointCadence {
    /// Never checkpoint. A run that requests recovery with this cadence is
    /// rejected as invalid.
    Disabled,
    /// Deposit one full-width border wave every `n` block-rows (`n ≥ 1`).
    EveryRows(usize),
}

impl CheckpointCadence {
    /// The block-row interval, or `None` when disabled.
    pub fn rows_interval(&self) -> Option<usize> {
        match self {
            CheckpointCadence::Disabled => None,
            CheckpointCadence::EveryRows(n) => Some(*n),
        }
    }
}

impl Default for CheckpointCadence {
    /// Every 8 block-rows — the knee of the EXPERIMENTS.md R1 sweep.
    fn default() -> Self {
        CheckpointCadence::EveryRows(8)
    }
}

/// The typed bundle of run-shaping knobs: what to skip, how to split, how
/// often to checkpoint. [`PipelineRun`](crate::PipelineRun) and
/// [`DesSim`](crate::DesSim) consume these knobs only through this struct
/// (via [`RunConfig::policy`]).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPolicy {
    /// Block-pruning mode.
    pub pruning: PruneMode,
    /// Column partitioning policy.
    pub partition: PartitionPolicy,
    /// Checkpoint cadence (effective only under a recovery policy).
    pub checkpoint: CheckpointCadence,
    /// Which DP engine executes tiles (scalar / SSE4.1 / AVX2 / AVX-512BW
    /// / auto).
    pub dispatch: KernelDispatch,
    /// Live slab rebalancing at checkpoint boundaries.
    pub rebalance: RebalanceMode,
}

impl KernelPolicy {
    /// Builder-style: set the pruning mode.
    pub fn with_pruning(mut self, p: PruneMode) -> KernelPolicy {
        self.pruning = p;
        self
    }

    /// Builder-style: set the kernel dispatch mode.
    pub fn with_dispatch(mut self, d: KernelDispatch) -> KernelPolicy {
        self.dispatch = d;
        self
    }

    /// Builder-style: set the partition policy.
    pub fn with_partition(mut self, p: PartitionPolicy) -> KernelPolicy {
        self.partition = p;
        self
    }

    /// Builder-style: set the checkpoint cadence.
    pub fn with_checkpoint(mut self, c: CheckpointCadence) -> KernelPolicy {
        self.checkpoint = c;
        self
    }

    /// Builder-style: set the rebalance mode.
    pub fn with_rebalance(mut self, r: RebalanceMode) -> KernelPolicy {
        self.rebalance = r;
        self
    }

    /// Validate field constraints.
    pub fn validate(&self) -> Result<(), String> {
        if let PartitionPolicy::Explicit(w) = &self.partition {
            if w.is_empty() {
                return Err("explicit weights must not be empty".into());
            }
            if w.iter().any(|x| !x.is_finite() || *x <= 0.0) {
                return Err("explicit weights must be positive and finite".into());
            }
        }
        if self.checkpoint == CheckpointCadence::EveryRows(0) {
            return Err("checkpoint cadence must be ≥ 1 block-row".into());
        }
        if let RebalanceMode::On {
            threshold,
            window_waves,
        } = self.rebalance
        {
            if !threshold.is_finite() || threshold < 0.0 {
                return Err("rebalance threshold must be a finite fraction ≥ 0".into());
            }
            if window_waves == 0 {
                return Err("rebalance window must be ≥ 1 checkpoint wave".into());
            }
            if self.checkpoint == CheckpointCadence::Disabled {
                return Err("rebalancing hands off checkpointed border waves; \
                     it requires an enabled checkpoint cadence"
                    .into());
            }
        }
        Ok(())
    }
}

impl Default for KernelPolicy {
    fn default() -> Self {
        KernelPolicy {
            pruning: PruneMode::Off,
            partition: PartitionPolicy::Proportional,
            checkpoint: CheckpointCadence::default(),
            dispatch: KernelDispatch::Auto,
            rebalance: RebalanceMode::Off,
        }
    }
}

/// Parameters of one multi-GPU run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Tile height in matrix rows. Communication granularity: one border
    /// segment of this height flows to the neighbour per block-row.
    pub block_h: usize,
    /// Tile width in matrix columns.
    pub block_w: usize,
    /// Circular-buffer capacity, in border segments. 1 ≈ synchronous
    /// hand-off; larger values decouple producer and consumer.
    pub buffer_capacity: usize,
    /// Run-shaping policy: pruning, partitioning, checkpoint cadence.
    pub policy: KernelPolicy,
    /// Scoring scheme.
    pub scheme: ScoreScheme,
}

impl RunConfig {
    /// Defaults used throughout the evaluation: 512×512 tiles, capacity-8
    /// rings, proportional partitioning, CUDAlign scoring.
    pub fn paper_default() -> RunConfig {
        RunConfig {
            block_h: 512,
            block_w: 512,
            buffer_capacity: 8,
            policy: KernelPolicy::default(),
            scheme: ScoreScheme::cudalign(),
        }
    }

    /// Small tiles for unit tests (forces many pipeline interactions on
    /// tiny inputs).
    pub fn test_default() -> RunConfig {
        RunConfig {
            block_h: 32,
            block_w: 32,
            buffer_capacity: 4,
            policy: KernelPolicy::default(),
            scheme: ScoreScheme::cudalign(),
        }
    }

    /// Validate field constraints.
    pub fn validate(&self) -> Result<(), String> {
        if self.block_h == 0 || self.block_w == 0 {
            return Err("block dimensions must be at least 1".into());
        }
        if self.buffer_capacity == 0 {
            return Err("buffer capacity must be at least 1".into());
        }
        self.policy.validate()?;
        self.scheme.validate().map_err(|e| e.to_string())
    }

    /// Builder-style: set the buffer capacity.
    pub fn with_buffer_capacity(mut self, cap: usize) -> RunConfig {
        self.buffer_capacity = cap;
        self
    }

    /// Builder-style: replace the whole kernel policy.
    pub fn with_policy(mut self, p: KernelPolicy) -> RunConfig {
        self.policy = p;
        self
    }

    /// Builder-style: set the partition policy.
    pub fn with_partition(mut self, p: PartitionPolicy) -> RunConfig {
        self.policy.partition = p;
        self
    }

    /// Builder-style: set the pruning mode.
    pub fn with_pruning(mut self, p: PruneMode) -> RunConfig {
        self.policy.pruning = p;
        self
    }

    /// Builder-style: set the checkpoint cadence.
    pub fn with_checkpoint(mut self, c: CheckpointCadence) -> RunConfig {
        self.policy.checkpoint = c;
        self
    }

    /// Builder-style: set the kernel dispatch mode.
    pub fn with_dispatch(mut self, d: KernelDispatch) -> RunConfig {
        self.policy.dispatch = d;
        self
    }

    /// Builder-style: set the rebalance mode.
    pub fn with_rebalance(mut self, r: RebalanceMode) -> RunConfig {
        self.policy.rebalance = r;
        self
    }

    /// Builder-style: set square tiles of the given side.
    pub fn with_block(mut self, side: usize) -> RunConfig {
        self.block_h = side;
        self.block_w = side;
        self
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(RunConfig::paper_default().validate().is_ok());
        assert!(RunConfig::test_default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(RunConfig::paper_default().with_block(0).validate().is_err());
        assert!(RunConfig::paper_default()
            .with_buffer_capacity(0)
            .validate()
            .is_err());
        assert!(RunConfig::paper_default()
            .with_partition(PartitionPolicy::Explicit(vec![]))
            .validate()
            .is_err());
        assert!(RunConfig::paper_default()
            .with_partition(PartitionPolicy::Explicit(vec![1.0, -2.0]))
            .validate()
            .is_err());
        assert!(RunConfig::paper_default()
            .with_partition(PartitionPolicy::Explicit(vec![f64::NAN]))
            .validate()
            .is_err());
    }

    #[test]
    fn builders_compose() {
        let c = RunConfig::paper_default()
            .with_block(128)
            .with_buffer_capacity(2)
            .with_partition(PartitionPolicy::Equal)
            .with_pruning(PruneMode::Distributed)
            .with_checkpoint(CheckpointCadence::EveryRows(4));
        assert_eq!(c.block_h, 128);
        assert_eq!(c.block_w, 128);
        assert_eq!(c.buffer_capacity, 2);
        assert_eq!(c.policy.partition, PartitionPolicy::Equal);
        assert_eq!(c.policy.pruning, PruneMode::Distributed);
        assert_eq!(c.policy.checkpoint, CheckpointCadence::EveryRows(4));
    }

    #[test]
    fn kernel_policy_builders_and_validation() {
        let p = KernelPolicy::default()
            .with_pruning(PruneMode::Local)
            .with_partition(PartitionPolicy::Equal)
            .with_checkpoint(CheckpointCadence::Disabled)
            .with_dispatch(KernelDispatch::ForceScalar);
        assert_eq!(p.pruning, PruneMode::Local);
        assert_eq!(p.partition, PartitionPolicy::Equal);
        assert_eq!(p.checkpoint.rows_interval(), None);
        assert_eq!(p.dispatch, KernelDispatch::ForceScalar);
        assert_eq!(KernelPolicy::default().dispatch, KernelDispatch::Auto);
        assert_eq!(
            RunConfig::paper_default()
                .with_dispatch(KernelDispatch::ForceScalar)
                .policy
                .dispatch,
            KernelDispatch::ForceScalar
        );
        assert!(p.validate().is_ok());
        assert!(RunConfig::paper_default()
            .with_checkpoint(CheckpointCadence::EveryRows(0))
            .validate()
            .is_err());
    }

    #[test]
    fn rebalance_mode_parses_and_displays() {
        assert_eq!(RebalanceMode::parse("off"), Ok(RebalanceMode::Off));
        assert_eq!(RebalanceMode::parse("on"), Ok(RebalanceMode::on()));
        assert_eq!(
            RebalanceMode::parse("on:0.2"),
            Ok(RebalanceMode::On {
                threshold: 0.2,
                window_waves: RebalanceMode::DEFAULT_WINDOW_WAVES,
            })
        );
        assert!(RebalanceMode::parse("on:").is_err());
        assert!(RebalanceMode::parse("on:-1").is_err());
        assert!(RebalanceMode::parse("sometimes").is_err());
        assert_eq!(RebalanceMode::on().to_string(), "on:0.05");
        assert_eq!(RebalanceMode::Off.to_string(), "off");
        assert!(RebalanceMode::on().is_enabled());
        assert!(!RebalanceMode::default().is_enabled());
    }

    #[test]
    fn rebalance_requires_checkpointing() {
        // Rebalance on + default cadence: fine.
        assert!(RunConfig::paper_default()
            .with_rebalance(RebalanceMode::on())
            .validate()
            .is_ok());
        // Rebalance on + disabled cadence: rejected.
        assert!(RunConfig::paper_default()
            .with_rebalance(RebalanceMode::on())
            .with_checkpoint(CheckpointCadence::Disabled)
            .validate()
            .is_err());
        // Zero-wave window is meaningless.
        assert!(RunConfig::paper_default()
            .with_rebalance(RebalanceMode::On {
                threshold: 0.05,
                window_waves: 0,
            })
            .validate()
            .is_err());
        // Disabled cadence without rebalance stays valid.
        assert!(RunConfig::paper_default()
            .with_checkpoint(CheckpointCadence::Disabled)
            .validate()
            .is_ok());
    }

    #[test]
    fn prune_mode_parses_and_displays() {
        for m in [PruneMode::Off, PruneMode::Local, PruneMode::Distributed] {
            assert_eq!(PruneMode::parse(&m.to_string()), Ok(m));
        }
        assert!(PruneMode::parse("sometimes").is_err());
        assert!(!PruneMode::Off.is_enabled());
        assert!(PruneMode::Distributed.is_enabled());
    }
}
