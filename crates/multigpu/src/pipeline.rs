//! The threaded multi-GPU pipeline.
//!
//! One OS thread plays each device of the platform chain. Thread `g`
//! computes its column slab block-row by block-row with the real
//! [`megasw_sw::block`] kernel; after finishing block-row `r` it pushes the
//! slab's right border (one [`ColBorder`] of that row's height) into the
//! circular buffer toward thread `g + 1`, which pops exactly one border
//! before starting its own block-row `r`. The result is the paper's
//! fine-grain wavefront across devices: all GPUs cooperate on the same
//! matrix, offset by one block-row per chain position, with communication
//! overlapping computation whenever the ring has slack.
//!
//! The run is **bit-exact**: every border value equals the sequential
//! matrix's value, so the merged best cell is identical to the reference
//! (integration tests sweep partitions, block sizes and capacities to prove
//! it).
//!
//! ## Entry point
//!
//! [`PipelineRun`] is the single builder-style entry:
//!
//! ```
//! use megasw_multigpu::pipeline::{PipelineRun, Semantics};
//! use megasw_multigpu::config::RunConfig;
//! use megasw_gpusim::Platform;
//!
//! let (a, b) = (vec![0u8, 1, 2, 3], vec![0u8, 1, 2, 3]);
//! let report = PipelineRun::new(&a, &b, &Platform::env1())
//!     .config(RunConfig::test_default())
//!     .semantics(Semantics::Local)
//!     .run()
//!     .unwrap();
//! assert!(report.best.score > 0);
//! ```
//!
//! ## Distributed block pruning
//!
//! With [`PruneMode::Local`](crate::config::PruneMode) or
//! [`PruneMode::Distributed`](crate::config::PruneMode) on
//! `config.policy.pruning`, each worker tests every tile against the
//! CUDAlign pruning bound (`megasw_sw::prune`) and skips tiles that cannot
//! beat its **watermark** — the highest score it knows about. In
//! `Distributed` mode the watermark additionally folds in (a) the
//! neighbour's watermark piggybacked on every popped
//! [`BorderMsg`](crate::circbuf::BorderMsg) and (b) a shared global
//! watermark atomic read and published once per block-row, which carries
//! best scores between non-adjacent devices. Skipped tiles emit the same
//! zero/−∞ substitute borders the sequential pruned executor uses, so the
//! final best cell stays **bit-identical** to the unpruned run; the
//! skipped-work accounting lands in [`RunReport::pruning`]
//! (see DESIGN.md §10). Pruning applies to [`Semantics::Local`] only;
//! anchored runs ignore the knob.
//!
//! ## Observability
//!
//! Every run computes a wall-clock [`StallBreakdown`] per device (fill,
//! border-wait, drain — the same accounting the simulator reports), exposed
//! via [`DeviceReport::stall`]. Attaching a
//! [`Recorder`](megasw_obs::Recorder) with [`PipelineRun::observer`]
//! additionally captures typed spans — `Kernel` per block-row, `RingPush` /
//! `RingPopWait` around the border ring — for Chrome-trace export.
//!
//! Attaching a [`LiveTelemetry`](megasw_obs::LiveTelemetry) handle with
//! [`PipelineRun::live`] exposes the run **while it executes**: every
//! worker bumps the handle's relaxed atomic counters once per block-row
//! (cells, rows, kernel busy time) and the border rings keep its occupancy
//! gauges current, so a sampler thread can render live progress and GCUPS
//! without perturbing the workers. Live device indices follow **chain
//! position** (slab order), matching `RunReport::devices`.

use crate::balance;
use crate::checkpoint::{
    recovery_interval, Checkpoint, CheckpointStore, RecoveryPolicy, SlabTally, WorkCounts,
};
use crate::circbuf::{BorderMsg, CircularBuffer, RingError, RingStats};
use crate::config::{PruneMode, RebalanceMode, RunConfig};
use crate::error::MegaswError;
use crate::partition::{make_slabs, survivor_slabs, Slab};
use crate::stats::{
    DeviceReport, PhaseClocks, PruningReport, RebalanceReport, RecoveryReport, RunReport,
    StallAttribution, StallBreakdown,
};
use megasw_gpusim::Platform;
use megasw_obs::{
    FlightEvent, FlightKind, FlightRecorder, LiveTelemetry, ObsKind, ObsSpan, Recorder, StallPhase,
};
use megasw_sw::block::{skip_block, BlockInput};
use megasw_sw::border::{ColBorder, RowBorder};
use megasw_sw::cell::{BestCell, Score};
use megasw_sw::kernel::{self, Kernel, KernelSelection, PathCounts};
use megasw_sw::prune::{prune_bound, restore_corner, tile_is_prunable};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicI32, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Matrix semantics a pipeline run computes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// Smith-Waterman local alignment (zero floor, zero boundaries).
    Local,
    /// Anchored ("prefix-global") alignment: every path starts at the
    /// matrix origin; gap-cost boundaries, no zero floor. Used by stage 2
    /// to locate alignment start points (see [`crate::stages`]).
    Anchored,
}

/// Pipeline failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// A device failed mid-run (only via fault injection in this simulator;
    /// a real deployment would map CUDA errors here).
    DeviceFault { device: usize, block_row: usize },
    /// A neighbour's failure surfaced through the ring.
    RingPoisoned { device: usize },
    /// A worker observed [`RunControl::cancel`] (attached via
    /// [`PipelineRun::control`]) at the top of a block-row and stopped
    /// cooperatively. Not a fault: nothing is blacklisted, the platform
    /// stays reusable and the queue owner may resubmit.
    Cancelled,
}

/// Cooperative control of one running job: cancel it, or park it in place
/// and later resume it exactly where it stopped.
///
/// Workers poll the control only where they already could stop: at the
/// top of every block-row in the pipeline and between pairs in the batch
/// engine. An idle control costs one relaxed load per poll. A parked
/// worker blocks on a mutex and condvar (the flag is re-checked under the
/// lock, so a resume is never lost); its ring neighbours block in their
/// ring waits. Nothing spins and nothing is recomputed, so a parked and
/// resumed run is bit-identical to an uninterrupted one. Parked time is in
/// no measured phase, so it lands in `other` in the run's
/// [`StallAttribution`](crate::stats::StallAttribution). Cancelling wakes
/// parked workers, which then stop with [`PipelineError::Cancelled`].
#[derive(Debug, Default)]
pub struct RunControl {
    /// [`CANCEL`] and [`PARK`] bits: the workers' fast path. They publish
    /// no other data (the park state itself lives under `parked`), so
    /// relaxed ordering suffices.
    flags: AtomicU8,
    /// Whether the run is parked; written only with `flags` updated under
    /// the same lock.
    parked: Mutex<bool>,
    wake: Condvar,
}

const CANCEL: u8 = 1;
const PARK: u8 = 2;

impl RunControl {
    pub fn new() -> RunControl {
        RunControl::default()
    }

    /// Request cancellation; wakes a parked run. Irreversible.
    pub fn cancel(&self) {
        self.flags.fetch_or(CANCEL, Ordering::Relaxed);
        // Taking the lock orders the flag before any parked worker's
        // re-check, so the notification cannot be missed.
        let _guard = self.parked.lock().expect("run control lock poisoned");
        self.wake.notify_all();
    }

    /// Park the run: every worker blocks at its next poll point until
    /// [`RunControl::resume`] or [`RunControl::cancel`]. Returns at once;
    /// work already past its poll point finishes first.
    pub fn park(&self) {
        let mut parked = self.parked.lock().expect("run control lock poisoned");
        *parked = true;
        self.flags.fetch_or(PARK, Ordering::Relaxed);
    }

    /// Resume a parked run where it stopped.
    pub fn resume(&self) {
        let mut parked = self.parked.lock().expect("run control lock poisoned");
        *parked = false;
        self.flags.fetch_and(!PARK, Ordering::Relaxed);
        self.wake.notify_all();
    }

    pub fn is_cancelled(&self) -> bool {
        self.flags.load(Ordering::Relaxed) & CANCEL != 0
    }

    pub fn is_parked(&self) -> bool {
        self.flags.load(Ordering::Relaxed) & PARK != 0
    }

    /// A poll point: `Ok` to go on (after waiting out a park), `Err` once
    /// cancelled.
    pub(crate) fn poll(&self) -> Result<(), PipelineError> {
        if self.flags.load(Ordering::Relaxed) == 0 {
            return Ok(());
        }
        self.poll_slow()
    }

    #[cold]
    fn poll_slow(&self) -> Result<(), PipelineError> {
        if !self.is_cancelled() {
            let parked = self.parked.lock().expect("run control lock poisoned");
            let _parked = self
                .wake
                .wait_while(parked, |parked| *parked && !self.is_cancelled())
                .expect("run control lock poisoned");
        }
        if self.is_cancelled() {
            Err(PipelineError::Cancelled)
        } else {
            Ok(())
        }
    }
}

/// A poll point for an optional control: no control costs one branch.
pub(crate) fn poll(control: Option<&RunControl>) -> Result<(), PipelineError> {
    control.map_or(Ok(()), RunControl::poll)
}

/// `true` once a control is present and cancelled.
pub(crate) fn cancelled(control: Option<&RunControl>) -> bool {
    control.is_some_and(RunControl::is_cancelled)
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PipelineError::DeviceFault { device, block_row } => {
                write!(f, "device {device} failed at block-row {block_row}")
            }
            PipelineError::RingPoisoned { device } => {
                write!(f, "device {device} observed a poisoned ring")
            }
            PipelineError::Cancelled => write!(f, "run cancelled at a block-row boundary"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Which point of a worker's per-block-row loop a fault fires at.
///
/// The four phases bracket the row's dataflow: waiting for the left
/// neighbour's border (`RingPop`), the DP kernel itself (`Compute`),
/// handing the right border to the ring (`RingPush`), and the border's bus
/// transfer to the neighbour (`Transfer`). Every phase check fires
/// unconditionally at its point in the loop, so a fault on a slab with no
/// ring on that side still kills the device deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultPhase {
    /// While waiting on the incoming border ring, before the pop.
    RingPop,
    /// Just before launching the block-row's kernels.
    #[default]
    Compute,
    /// Just before pushing the outgoing border.
    RingPush,
    /// After the push, while the border is in flight to the neighbour.
    Transfer,
}

impl FaultPhase {
    /// Canonical lowercase name, matching the CLI / repro-string syntax.
    pub fn name(self) -> &'static str {
        match self {
            FaultPhase::RingPop => "ring-pop",
            FaultPhase::Compute => "compute",
            FaultPhase::RingPush => "ring-push",
            FaultPhase::Transfer => "transfer",
        }
    }
}

impl FromStr for FaultPhase {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ring-pop" => Ok(FaultPhase::RingPop),
            "compute" => Ok(FaultPhase::Compute),
            "ring-push" => Ok(FaultPhase::RingPush),
            "transfer" => Ok(FaultPhase::Transfer),
            other => Err(format!(
                "unknown fault phase `{other}` (expected ring-pop|compute|ring-push|transfer)"
            )),
        }
    }
}

impl std::fmt::Display for FaultPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled device failure: `device` dies at `block_row`, in `phase`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduledFault {
    /// Platform index of the device that fails.
    pub device: usize,
    /// Block-row at which it fails.
    pub block_row: usize,
    /// Where in the row's dataflow it fails.
    pub phase: FaultPhase,
}

impl FromStr for ScheduledFault {
    type Err = String;

    /// Parse `DEV:ROW[:PHASE]` (phase defaults to `compute`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        let device = parts
            .next()
            .filter(|p| !p.is_empty())
            .ok_or_else(|| format!("empty fault spec in `{s}`"))?
            .parse::<usize>()
            .map_err(|e| format!("bad device in fault `{s}`: {e}"))?;
        let block_row = parts
            .next()
            .ok_or_else(|| format!("fault `{s}` needs DEV:ROW[:PHASE]"))?
            .parse::<usize>()
            .map_err(|e| format!("bad block-row in fault `{s}`: {e}"))?;
        let phase = match parts.next() {
            Some(p) => p.parse::<FaultPhase>()?,
            None => FaultPhase::Compute,
        };
        if parts.next().is_some() {
            return Err(format!("trailing garbage in fault `{s}`"));
        }
        Ok(ScheduledFault {
            device,
            block_row,
            phase,
        })
    }
}

impl std::fmt::Display for ScheduledFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.device, self.block_row, self.phase)
    }
}

/// A deterministic multi-fault schedule: every entry fires exactly when
/// its (device, block-row, phase) point is reached — same schedule, same
/// outcome, every run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    pub faults: Vec<ScheduledFault>,
}

impl FaultSchedule {
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Does a fault fire for `device` at `block_row` in `phase`?
    pub(crate) fn fires(&self, device: usize, block_row: usize, phase: FaultPhase) -> bool {
        self.faults
            .iter()
            .any(|f| f.device == device && f.block_row == block_row && f.phase == phase)
    }
}

impl From<ScheduledFault> for FaultSchedule {
    fn from(fault: ScheduledFault) -> FaultSchedule {
        FaultSchedule {
            faults: vec![fault],
        }
    }
}

impl From<Vec<ScheduledFault>> for FaultSchedule {
    fn from(faults: Vec<ScheduledFault>) -> FaultSchedule {
        FaultSchedule { faults }
    }
}

impl FromStr for FaultSchedule {
    type Err = String;

    /// Parse a comma-separated list of `DEV:ROW[:PHASE]` specs.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let faults = s
            .split(',')
            .filter(|part| !part.trim().is_empty())
            .map(|part| part.trim().parse::<ScheduledFault>())
            .collect::<Result<Vec<_>, _>>()?;
        if faults.is_empty() {
            return Err("empty fault schedule".to_string());
        }
        Ok(FaultSchedule { faults })
    }
}

impl std::fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

/// Builder for one threaded pipeline run — the single entry point to the
/// threaded backend. All run-shaping knobs (pruning, partitioning,
/// checkpoint cadence) arrive through the
/// [`KernelPolicy`](crate::config::KernelPolicy) on the attached
/// [`RunConfig`].
#[derive(Debug, Clone)]
pub struct PipelineRun<'a> {
    a: &'a [u8],
    b: &'a [u8],
    platform: &'a Platform,
    config: RunConfig,
    semantics: Semantics,
    faults: FaultSchedule,
    recovery: Option<RecoveryPolicy>,
    observer: Recorder,
    live: Option<Arc<LiveTelemetry>>,
    flight: Option<Arc<FlightRecorder>>,
    flight_dump: Option<PathBuf>,
    control: Option<Arc<RunControl>>,
}

impl<'a> PipelineRun<'a> {
    /// Start configuring a run of `a × b` on `platform`. Defaults:
    /// [`RunConfig::paper_default`], [`Semantics::Local`], no faults, no
    /// observer.
    pub fn new(a: &'a [u8], b: &'a [u8], platform: &'a Platform) -> PipelineRun<'a> {
        PipelineRun {
            a,
            b,
            platform,
            config: RunConfig::paper_default(),
            semantics: Semantics::Local,
            faults: FaultSchedule::default(),
            recovery: None,
            observer: Recorder::disabled(),
            live: None,
            flight: None,
            flight_dump: None,
            control: None,
        }
    }

    /// Block geometry, ring capacity, partition policy and score scheme.
    pub fn config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Local (default) or anchored matrix semantics.
    pub fn semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Inject a deterministic fault schedule (resilience testing). Accepts
    /// a single [`ScheduledFault`], or a whole [`FaultSchedule`] /
    /// `Vec<ScheduledFault>`.
    pub fn faults(mut self, faults: impl Into<FaultSchedule>) -> Self {
        self.faults = faults.into();
        self
    }

    /// Enable fault-tolerant execution: on a device failure, blacklist the
    /// device, repartition its columns across the survivors, rewind to the
    /// newest complete checkpoint wave and resume. The final score and
    /// best-cell are bit-identical to a fault-free run; the accounting
    /// lands in [`RunReport::recovery`].
    pub fn recover(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Attach a span recorder. Clone the recorder before attaching and read
    /// the spans from your clone after `run()` returns.
    pub fn observer(mut self, observer: Recorder) -> Self {
        self.observer = observer;
        self
    }

    /// Attach in-flight telemetry: workers update the handle's atomic
    /// counters once per block-row and the rings keep its occupancy gauges
    /// current. Keep a clone to sample from another thread while the run
    /// executes (see [`megasw_obs::ProgressSampler`]).
    pub fn live(mut self, live: Arc<LiveTelemetry>) -> Self {
        self.live = Some(live);
        self
    }

    /// Attach a flight recorder: each worker appends one structured event
    /// per step (row start, ring pop, compute, checkpoint, ring push,
    /// prune skip, fault) to its own lock-free ring. Keep a clone to dump
    /// the rings yourself, or set [`PipelineRun::flight_dump_path`] to
    /// have `run()` dump them as JSONL automatically. Lanes follow chain
    /// position, like live-telemetry device indices.
    pub fn flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Dump the attached flight recorder's rings to `path` as JSONL when
    /// `run()` finishes — always on a failed run (the black-box read-out),
    /// and also on success so `--flight-dump` doubles as an on-demand
    /// dump. No-op unless a recorder is attached via
    /// [`PipelineRun::flight`].
    pub fn flight_dump_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.flight_dump = Some(path.into());
        self
    }

    /// Attach a [`RunControl`] to cancel or park the run from another
    /// thread. Every worker polls it at the top of every block-row (one
    /// relaxed load while idle). On [`RunControl::park`] each worker
    /// blocks before its next row until [`RunControl::resume`], and the
    /// run then continues where it stopped, bit-identically. On
    /// [`RunControl::cancel`] the first worker to observe it stops before
    /// that row (waking from a park if parked), poisons its rings like a
    /// faulted worker so its neighbours stop too, and the run returns
    /// [`PipelineError::Cancelled`]. A control never changes the driver:
    /// the run takes the same route as a run without one.
    pub fn control(mut self, control: Arc<RunControl>) -> Self {
        self.control = Some(control);
        self
    }

    /// Execute the run.
    pub fn run(self) -> Result<RunReport, MegaswError> {
        let result = self.execute().map_err(MegaswError::from);
        if let (Some(fr), Some(path)) = (&self.flight, &self.flight_dump) {
            // Best-effort: a failing dump must not mask the run's result.
            let _ = fr.dump_to(path);
        }
        result
    }

    /// The threaded backend's one driver: a loop over checkpoint-bounded
    /// attempts. A plain run — no recovery policy, rebalance off — is a
    /// single attempt spanning the whole matrix with no checkpoint store.
    ///
    /// Each attempt executes the pipeline from `start_row` up to `stop_row`
    /// over the current slab set; when a recovery policy is attached or
    /// rebalance is on, the workers deposit border checkpoints on the
    /// cadence of `config.policy.checkpoint`.
    ///
    /// **Recovery** (when a policy is attached): on a device fault the failed
    /// device is blacklisted, its columns are repartitioned across the
    /// survivors ([`survivor_slabs`]: measured throughput for
    /// `Proportional`, calibrated once per run and cached), the run rewinds
    /// to the newest complete checkpoint wave and resumes from its
    /// reassembled border. Gives up — surfacing the original fault — when
    /// the failure budget is exhausted or no survivor remains. Without a
    /// policy a fault fails the run fast.
    ///
    /// **Rebalance** (when `config.policy.rebalance` is on): the run is cut
    /// into segments of `window_waves × checkpoint-interval` block-rows;
    /// every segment boundary lands on the checkpoint cadence, so the
    /// boundary wave is complete the moment the workers join. At each
    /// boundary the shared controller ([`balance::plan_rebalance`])
    /// weighs each device's *effective* throughput over the segment
    /// (covered cells — pruned tiles count at their skip cost — per busy
    /// nanosecond) and, when the predicted makespan improvement clears the
    /// hysteresis threshold, migrates block-columns by resuming every
    /// worker from the boundary checkpoint's full-width H/F border wave
    /// under new slab geometry. No block-row is recomputed, and because the
    /// checkpointed lanes are exact, scores stay **bit-identical** to a
    /// static split.
    ///
    /// Both mechanisms compose: a fault mid-segment takes the recovery path,
    /// and later boundaries keep rebalancing the survivors.
    pub(crate) fn execute(&self) -> Result<RunReport, PipelineError> {
        let config = &self.config;
        config.validate().map_err(PipelineError::InvalidConfig)?;
        let kernel =
            kernel::select(config.policy.dispatch).map_err(PipelineError::InvalidConfig)?;
        let rebalance = config.policy.rebalance;
        // Checkpoints exist only to recover from or to hand off at.
        let interval = if self.recovery.is_some() || rebalance.is_enabled() {
            Some(recovery_interval(config).map_err(PipelineError::InvalidConfig)?)
        } else {
            None
        };
        let (m, n) = (self.a.len(), self.b.len());
        let rows = m.div_ceil(config.block_h);
        let ctx = RunCtx {
            a: self.a,
            b: self.b,
            platform: self.platform,
            config,
            kernel,
            faults: &self.faults,
            semantics: self.semantics,
            prune_mode: effective_prune_mode(config, self.semantics),
            rows,
            obs: &self.observer,
            live: self.live.as_ref(),
            flight: self.flight.as_ref(),
            control: self.control.as_deref(),
        };
        let mut st = Progress {
            slabs: make_slabs(n, config.block_w, self.platform, &config.policy.partition),
            start_row: 0,
            resume: None,
            recovery: self.recovery.map(|_| RecoveryReport::default()),
            rebalance: rebalance.is_enabled().then(RebalanceReport::default),
        };
        if m == 0 || st.slabs.is_empty() {
            return Ok(empty_report(&ctx, st));
        }

        // Segment length in block-rows: a multiple of the checkpoint
        // interval, so every boundary wave is deposited by the regular
        // cadence check. Without rebalance one segment spans the matrix.
        let (seg_rows, threshold) = match (rebalance, interval) {
            (
                RebalanceMode::On {
                    threshold,
                    window_waves,
                },
                Some(iv),
            ) => ((iv * window_waves).min(rows), threshold),
            _ => (rows, f64::INFINITY),
        };
        let store = interval.map(|_| CheckpointStore::new(n));
        // Calibrated per-device weights for `Proportional` repartitioning:
        // probed at most once per run, then reused by every recovery.
        let mut calibrated: Option<Vec<f64>> = None;
        // Each device's partial over the segments completed so far, by
        // platform index. A failed attempt's clocks are never carried: lost
        // work lands in `other`.
        let mut carried: Vec<Option<DevicePartial>> = Vec::new();
        let run_start_ns = ctx.obs.now_ns();

        loop {
            // Workers poll the control at every block-row; checking here too
            // skips spawning an attempt that would stop at its first row.
            if cancelled(ctx.control) {
                return Err(PipelineError::Cancelled);
            }
            // Smallest segment boundary strictly past `start_row` (a resumed
            // attempt may start mid-segment after a fault rewind), clamped to
            // the matrix.
            let stop_row = ((st.start_row / seg_rows + 1) * seg_rows).min(rows);
            let ckpt = store.as_ref().zip(interval).map(|(store, interval)| {
                let geoms: Vec<(usize, usize)> = st.slabs.iter().map(|s| (s.j0, s.width)).collect();
                let (base_best, base_counts) = st
                    .resume
                    .as_ref()
                    .map_or((BestCell::ZERO, WorkCounts::default()), |c| {
                        (c.best, c.counts)
                    });
                CkptCtx {
                    store,
                    attempt: store.begin_attempt(st.start_row, base_best, base_counts, &geoms),
                    interval,
                }
            });
            let outcome = run_attempt(
                &ctx,
                &Segment {
                    slabs: &st.slabs,
                    start_row: st.start_row,
                    stop_row,
                    resume: st.resume.as_ref(),
                    ckpt,
                },
            );
            let mut partials = match collect_attempt(outcome.results) {
                Ok(partials) => partials,
                Err(failure) => {
                    self.handle_failure(&ctx, &mut st, store.as_ref(), &mut calibrated, failure)?;
                    continue;
                }
            };
            // This segment's own effective throughput per device, read
            // before the earlier segments' clocks are folded in.
            let rates: Vec<f64> = if stop_row < rows {
                partials
                    .iter()
                    .map(|p| p.cells as f64 / p.clocks.busy_ns.max(1) as f64)
                    .collect()
            } else {
                Vec::new()
            };
            for (slab, p) in st.slabs.iter().zip(partials.iter_mut()) {
                if let Some(earlier) = carried.get_mut(slab.device).and_then(Option::take) {
                    p.carry(&earlier);
                }
            }
            if stop_row >= rows {
                if let (Some(rec), Some(store)) = (st.recovery.as_mut(), &store) {
                    rec.checkpoints_taken = store.checkpoints_taken();
                }
                let wall_ns = ctx.obs.now_ns().saturating_sub(run_start_ns);
                return Ok(assemble_report(
                    &ctx,
                    st,
                    &partials,
                    &outcome.ring_stats,
                    wall_ns,
                    run_start_ns,
                ));
            }
            carried.resize_with(self.platform.len(), || None);
            for (slab, p) in st.slabs.iter().zip(partials) {
                carried[slab.device] = Some(p);
            }
            rebalance_at_boundary(&ctx, &mut st, stop_row, &rates, threshold);
            // Every worker deposited wave `stop_row` (a cadence multiple
            // below `rows`) and then joined, so the newest complete
            // checkpoint *is* the boundary — resuming from it recomputes
            // nothing.
            let ck = store
                .as_ref()
                .and_then(CheckpointStore::newest_complete)
                .expect("completed segment deposited its boundary wave");
            debug_assert_eq!(ck.wave, stop_row, "segment hand-off must be rewind-free");
            st.start_row = stop_row;
            st.resume = Some(ck);
        }
    }

    /// Handle a failed attempt: recover from a device fault when a policy
    /// is attached and its budget allows — blacklist the device, split its
    /// columns across the survivors, rewind `st` to the newest complete
    /// checkpoint wave — or surface the attempt's root-cause error.
    fn handle_failure(
        &self,
        ctx: &RunCtx<'_>,
        st: &mut Progress,
        store: Option<&CheckpointStore>,
        calibrated: &mut Option<Vec<f64>>,
        failure: Failure,
    ) -> Result<(), PipelineError> {
        let (Some(policy), Some(rec), Some(store)) = (self.recovery, st.recovery.as_mut(), store)
        else {
            return Err(failure.error);
        };
        let PipelineError::DeviceFault { device, block_row } = failure.error else {
            return Err(failure.error);
        };
        if rec.recoveries as usize >= policy.max_device_failures {
            return Err(failure.error);
        }
        let rec_start_ns = ctx.obs.now_ns();
        // The failed devices are the blacklist.
        rec.failed_devices.push(device);
        let survivors = survivor_slabs(
            ctx.b.len(),
            ctx.config.block_w,
            ctx.platform,
            &ctx.config.policy.partition,
            &rec.failed_devices,
            calibrated,
        );
        if survivors.is_empty() {
            return Err(failure.error);
        }
        let ck = store.newest_complete();
        let new_start = ck.as_ref().map_or(0, |c| c.wave);
        // Work lost to the rewind: everything this attempt computed beyond
        // what the checkpoint wave preserves.
        let preserved = ctx
            .cells_at(new_start)
            .saturating_sub(ctx.cells_at(st.start_row));
        rec.rewound_cells += failure.cells.saturating_sub(preserved);
        rec.recoveries += 1;
        rec.resumed_from_rows.push(new_start);
        if let Some(live) = ctx.live {
            live.on_recovery();
        }
        ctx.obs.record_since(
            ObsKind::Recovery,
            Some(device as u32),
            Some(block_row as u32),
            rec_start_ns,
        );
        st.slabs = survivors;
        st.start_row = new_start;
        st.resume = ck;
        Ok(())
    }
}

/// The rebalance evaluation at a segment boundary: count it, and apply the
/// shared controller's migration (if any) to `st.slabs`, logging a flight
/// event per lane with its new width.
fn rebalance_at_boundary(
    ctx: &RunCtx<'_>,
    st: &mut Progress,
    stop_row: usize,
    rates: &[f64],
    threshold: f64,
) {
    let report = st
        .rebalance
        .as_mut()
        .expect("segment boundaries exist only when rebalancing");
    let rb_start_ns = ctx.obs.now_ns();
    report.evaluations += 1;
    let n = ctx.b.len();
    if let Some((slabs, moved)) =
        balance::plan_rebalance(n, ctx.config.block_w, &st.slabs, rates, threshold)
    {
        report.migrations += 1;
        report.moved_columns += moved as u64;
        report.applied_at_rows.push(stop_row);
        st.slabs = slabs;
        // Workers have joined, so the coordinator is the sole writer on
        // every flight lane here.
        if let Some(fr) = ctx.flight {
            for (s_idx, slab) in st.slabs.iter().enumerate() {
                fr.record(
                    s_idx,
                    FlightEvent {
                        kind: FlightKind::Rebalance,
                        device: slab.device as u32,
                        row: stop_row as u64,
                        t_ns: ctx.obs.now_ns(),
                        dur_ns: 0,
                        aux: slab.width as u64,
                    },
                );
            }
        }
    }
    ctx.obs
        .record_since(ObsKind::Rebalance, None, Some(stop_row as u32), rb_start_ns);
}

struct DevicePartial {
    best: BestCell,
    /// Matrix cells this worker *covered* (computed or skipped): its slab
    /// width times the rows it executed. This is what the coverage
    /// invariant in `assemble_report` sums.
    cells: u128,
    /// Pruning, rescue and kernel-path counts over the rows it executed
    /// (`cells_skipped` is a subset of `cells`).
    counts: WorkCounts,
    /// The worker's final pruning watermark (0 when pruning is off).
    watermark: Score,
    bytes_sent: u64,
    /// Kernel-activity envelope in recorder time, for stall accounting.
    first_kernel_start_ns: u64,
    last_kernel_end_ns: u64,
    /// Phase clocks for [`StallAttribution`].
    clocks: PhaseClocks,
}

impl DevicePartial {
    /// Fold the phase clocks of the same device's `earlier` completed
    /// segment into this one, so a segmented run's report attributes the
    /// device's whole makespan rather than its last segment only. Cells
    /// and work counts stay per-attempt: `assemble_report` takes the rows
    /// above the final attempt's start from its resume checkpoint, which
    /// holds the counts of every earlier segment and, after a fault
    /// rewind, of the rows the checkpoint kept.
    fn carry(&mut self, earlier: &DevicePartial) {
        if earlier.clocks.busy_ns > 0 {
            self.first_kernel_start_ns = earlier.first_kernel_start_ns;
        }
        self.clocks += earlier.clocks;
    }
}

/// The pruning mode a run actually executes under: the configured mode for
/// local semantics, forced [`PruneMode::Off`] for anchored runs (pruning's
/// safety argument needs the zero floor; see `megasw_sw::prune`).
fn effective_prune_mode(config: &RunConfig, semantics: Semantics) -> PruneMode {
    match semantics {
        Semantics::Local => config.policy.pruning,
        Semantics::Anchored => PruneMode::Off,
    }
}

/// What every attempt and every worker of one run reads: the inputs, the
/// resolved engine and the attached sinks. Built once per run.
struct RunCtx<'e> {
    a: &'e [u8],
    b: &'e [u8],
    platform: &'e Platform,
    config: &'e RunConfig,
    /// The DP engine resolved from `config.policy.dispatch`, once, up
    /// front — workers never probe CPU features themselves.
    kernel: &'static dyn Kernel,
    faults: &'e FaultSchedule,
    semantics: Semantics,
    prune_mode: PruneMode,
    /// Block-rows of the whole matrix.
    rows: usize,
    obs: &'e Recorder,
    live: Option<&'e Arc<LiveTelemetry>>,
    flight: Option<&'e Arc<FlightRecorder>>,
    /// Cancel/park control, polled by every worker per row.
    control: Option<&'e RunControl>,
}

impl RunCtx<'_> {
    fn selection(&self) -> KernelSelection {
        KernelSelection {
            dispatch: self.config.policy.dispatch,
            resolved: self.kernel.id(),
        }
    }

    /// Cells in rows < `row` over the full width — the work a checkpoint
    /// at wave `row` preserves.
    fn cells_at(&self, row: usize) -> u128 {
        ((row * self.config.block_h).min(self.a.len()) as u128) * self.b.len() as u128
    }
}

/// What the driver carries from one attempt to the next.
struct Progress {
    slabs: Vec<Slab>,
    /// First block-row of the next attempt.
    start_row: usize,
    /// Checkpoint the next attempt resumes from (tops are sliced out of
    /// its lanes); `None` at the matrix edge.
    resume: Option<Checkpoint>,
    /// `Some` when a recovery policy is attached.
    recovery: Option<RecoveryReport>,
    /// `Some` when rebalance is on.
    rebalance: Option<RebalanceReport>,
}

/// One attempt: block-rows `start_row..stop_row` over `slabs`.
struct Segment<'e> {
    slabs: &'e [Slab],
    start_row: usize,
    /// Block-row to stop before: `rows` for a run-to-completion attempt, a
    /// checkpoint-cadence multiple for a rebalance segment.
    stop_row: usize,
    resume: Option<&'e Checkpoint>,
    /// Where workers deposit checkpoints, when the run keeps a store.
    ckpt: Option<CkptCtx<'e>>,
}

#[derive(Clone, Copy)]
struct CkptCtx<'e> {
    store: &'e CheckpointStore,
    attempt: usize,
    interval: usize,
}

/// A worker's or a whole attempt's failure, carrying the cells computed
/// before it (by the worker, or by all of the attempt's workers) so the
/// rewind accounting stays exact.
struct Failure {
    error: PipelineError,
    cells: u128,
}

struct AttemptOutcome {
    results: Vec<Result<DevicePartial, Failure>>,
    ring_stats: Vec<RingStats>,
}

/// Spawn one worker per slab and run the segment's block-rows. Rings are
/// per-attempt; a failed worker poisons its neighbours' rings so the
/// failure propagates instead of deadlocking.
fn run_attempt(ctx: &RunCtx<'_>, seg: &Segment<'_>) -> AttemptOutcome {
    let rings: Vec<CircularBuffer<BorderMsg>> = (0..seg.slabs.len().saturating_sub(1))
        .map(|_| CircularBuffer::with_capacity(ctx.config.buffer_capacity))
        .collect();

    // The low-frequency side channel of distributed pruning: every worker
    // publishes its watermark here once per block-row and folds it back in
    // once per block-row, carrying best scores between *non-adjacent*
    // devices (ring piggybacking only reaches the right-hand neighbour).
    // Seeded from the resume checkpoint so pruning composes with recovery.
    let global_watermark = AtomicI32::new(seg.resume.map_or(0, |ck| ck.watermark));

    if let Some(live) = ctx.live {
        for (s_idx, ring) in rings.iter().enumerate() {
            if let Some(gauge) = live.ring_gauge(s_idx) {
                ring.attach_occupancy_gauge(gauge);
            }
        }
        for s_idx in 0..seg.slabs.len() {
            live.set_rows_total(s_idx, ctx.rows as u64);
        }
    }

    let results: Vec<Result<DevicePartial, Failure>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(seg.slabs.len());
        for s_idx in 0..seg.slabs.len() {
            let ring_in = s_idx.checked_sub(1).map(|i| &rings[i]);
            let ring_out = rings.get(s_idx);
            let global_watermark = &global_watermark;
            handles.push(scope.spawn(move || {
                let result = device_worker(ctx, seg, s_idx, ring_in, ring_out, global_watermark);
                if result.is_err() {
                    // Wake neighbours so the failure propagates instead of
                    // deadlocking the chain.
                    if let Some(r) = ring_in {
                        r.poison();
                    }
                    if let Some(r) = ring_out {
                        r.poison();
                    }
                }
                result
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    AttemptOutcome {
        results,
        ring_stats: rings.iter().map(|r| r.stats()).collect(),
    }
}

/// Split an attempt's worker results into success or a root-cause failure.
/// Root causes rank `DeviceFault` (first in chain order) over `Cancelled`
/// over the secondary `RingPoisoned` observations: a cancelled worker
/// poisons its neighbours' rings, and their poison must not hide the
/// cancel. The failure carries the attempt's total computed cells for the
/// rewind accounting.
fn collect_attempt(
    results: Vec<Result<DevicePartial, Failure>>,
) -> Result<Vec<DevicePartial>, Failure> {
    let mut cells: u128 = 0;
    let mut fault: Option<PipelineError> = None;
    let mut cancel: Option<PipelineError> = None;
    let mut poison: Option<PipelineError> = None;
    let mut partials = Vec::with_capacity(results.len());
    let mut failed = false;
    for r in results {
        match r {
            Ok(part) => {
                cells += part.cells;
                partials.push(part);
            }
            Err(w) => {
                failed = true;
                cells += w.cells;
                match w.error {
                    e @ PipelineError::DeviceFault { .. } => {
                        fault.get_or_insert(e);
                    }
                    e @ PipelineError::Cancelled => {
                        cancel.get_or_insert(e);
                    }
                    e => {
                        poison.get_or_insert(e);
                    }
                }
            }
        }
    }
    if !failed {
        return Ok(partials);
    }
    Err(Failure {
        error: fault
            .or(cancel)
            .or(poison)
            .expect("failed attempt carries an error"),
        cells,
    })
}
/// Build the final [`RunReport`] from the last (successful) attempt, whose
/// partials already carry the phase clocks of earlier completed segments.
/// The resumed-from checkpoint in `st` supplies the best cell and cells
/// already established above the attempt; a plain run has none.
fn assemble_report(
    ctx: &RunCtx<'_>,
    st: Progress,
    partials: &[DevicePartial],
    ring_stats: &[RingStats],
    wall_ns: u64,
    run_start_ns: u64,
) -> RunReport {
    let base_best = st.resume.as_ref().map_or(BestCell::ZERO, |c| c.best);
    let best = partials.iter().fold(base_best, |acc, p| acc.merge(p.best));
    // Whole-run counts: the rows above the final attempt's start come from
    // the checkpoint it resumed from, each row counted once.
    let counts = st
        .resume
        .as_ref()
        .map_or(WorkCounts::default(), |c| c.counts)
        + partials.iter().map(|p| p.counts).sum();
    let total_cells = ctx.a.len() as u128 * ctx.b.len() as u128;
    debug_assert_eq!(
        ctx.cells_at(st.start_row) + partials.iter().map(|p| p.cells).sum::<u128>(),
        total_cells,
        "checkpointed rows plus the final attempt must cover the matrix exactly"
    );
    let pruning = ctx.prune_mode.is_enabled().then(|| PruningReport {
        mode: ctx.prune_mode,
        tiles_pruned: counts.tiles_pruned,
        tiles_total: counts.tiles_total,
        cells_skipped: counts.cells_skipped,
        // Worst final watermark lag across workers: how far the slowest
        // watermark trailed the run's true best. Always ≥ 0 — a watermark
        // only ever folds actually-observed scores.
        watermark_lag: partials
            .iter()
            .map(|p| best.score as i64 - p.watermark as i64)
            .max()
            .unwrap_or(0),
    });
    let wall = Duration::from_nanos(wall_ns);

    let devices = st
        .slabs
        .iter()
        .zip(partials)
        .enumerate()
        .map(|(s_idx, (slab, p))| {
            // Shift the envelope to the run's own epoch; the identity
            // startup + input + drain == wall − busy holds exactly for
            // single-attempt runs (recovered runs fold lost attempts into
            // `startup`).
            let stall = StallBreakdown::from_envelope(
                wall_ns,
                p.first_kernel_start_ns.saturating_sub(run_start_ns),
                p.last_kernel_end_ns.saturating_sub(run_start_ns),
                p.clocks.busy_ns,
            );
            DeviceReport {
                device: slab.device,
                name: ctx.platform.devices[slab.device].name.clone(),
                slab_j0: slab.j0,
                slab_width: slab.width,
                cells: p.cells,
                bytes_sent: p.bytes_sent,
                ring_out: ring_stats.get(s_idx).copied(),
                wall_busy: Some(Duration::from_nanos(p.clocks.busy_ns)),
                sim_busy: None,
                sim_utilization: None,
                stall: Some(stall),
                // Phase attribution over the whole run's makespan. A
                // segmented run's partials carry the clocks of every
                // completed segment; the lost attempts of a recovered run
                // land in `other`.
                attribution: Some(StallAttribution::from_measured(wall_ns, &p.clocks)),
            }
        })
        .collect();

    let secs = wall.as_secs_f64();
    RunReport {
        best,
        total_cells,
        wall_time: Some(wall),
        gcups_wall: Some(RunReport::gcups(total_cells, secs)),
        sim_time: None,
        gcups_sim: None,
        devices,
        pruning,
        recovery: st.recovery,
        rebalance: st.rebalance,
        kernel: ctx.selection(),
        kernel_paths: counts.kernel_paths,
    }
}

/// The per-device loop.
///
/// Each block-row starts with a poll of the [`RunControl`]: a park blocks
/// the worker there until resumed, a cancel ends it with
/// [`PipelineError::Cancelled`] before the row, and the attempt poisons
/// its rings exactly as for a fault. Then the
/// phases run in dataflow order — `RingPop` fault check,
/// pop, `Compute` fault check, kernels, checkpoint deposit, `RingPush`
/// fault check, push, `Transfer` fault check — so a scheduled fault kills
/// the device at a well-defined point regardless of ring topology.
fn device_worker(
    ctx: &RunCtx<'_>,
    seg: &Segment<'_>,
    s_idx: usize,
    ring_in: Option<&CircularBuffer<BorderMsg>>,
    ring_out: Option<&CircularBuffer<BorderMsg>>,
    global_watermark: &AtomicI32,
) -> Result<DevicePartial, Failure> {
    let (a, b, config, obs) = (ctx.a, ctx.b, ctx.config, ctx.obs);
    let slab = seg.slabs[s_idx];
    let m = a.len();
    let n = b.len();
    let block_h = config.block_h;
    let block_w = config.block_w;
    let lane = slab.device as u32;
    let prune_mode = ctx.prune_mode;

    // Tile columns of this slab.
    let mut cols: Vec<(usize, usize)> = Vec::new(); // (j0, width)
    let mut j = slab.j0;
    while j < slab.j_end() {
        let w = block_w.min(slab.j_end() - j);
        cols.push((j, w));
        j += w;
    }

    // Top borders: analytic at the matrix edge, or sliced out of the
    // checkpoint's exact full-width H/F lanes when resuming mid-matrix.
    let mut tops: Vec<RowBorder> = match seg.resume {
        None => cols
            .iter()
            .map(|&(jc0, w)| match ctx.semantics {
                Semantics::Local => RowBorder::zero(w),
                Semantics::Anchored => RowBorder::anchored(w, jc0, &config.scheme),
            })
            .collect(),
        Some(ck) => cols
            .iter()
            .map(|&(jc0, w)| RowBorder {
                h: ck.h[jc0 - 1..=jc0 - 1 + w].to_vec(),
                f: ck.f[jc0 - 1..=jc0 - 1 + w].to_vec(),
            })
            .collect(),
    };
    let mut best = BestCell::ZERO;
    let mut cells: u128 = 0;
    let mut cells_skipped: u128 = 0;
    let mut tiles_pruned: u64 = 0;
    let mut tiles_total: u64 = 0;
    let mut bytes_sent: u64 = 0;
    let mut first_kernel_start_ns: Option<u64> = None;
    let mut last_kernel_end_ns: u64 = 0;
    // Fine-grained phase clocks (StallAttribution). Rescue time is read
    // from the kernel crate's thread-local counters — this worker owns its
    // thread, so the deltas are exactly its own rescues.
    let mut clocks = PhaseClocks::default();
    let rescue_ns_base = kernel::simd_rescue_ns_thread();
    let paths_base = kernel::path_counts();
    let counts = |tiles_pruned, tiles_total, cells_skipped| WorkCounts {
        tiles_pruned,
        tiles_total,
        cells_skipped,
        kernel_paths: kernel::path_counts() - paths_base,
    };
    // One flight-recorder append per step; ~70 ns each, only when a
    // recorder is attached.
    let fly = |kind: FlightKind, row: u64, t_ns: u64, dur_ns: u64, aux: u64| {
        if let Some(fr) = ctx.flight {
            fr.record(
                s_idx,
                FlightEvent {
                    kind,
                    device: lane,
                    row,
                    t_ns,
                    dur_ns,
                    aux,
                },
            );
        }
    };

    // The pruning watermark: the highest score this worker *knows about*.
    // It only ever grows (fold is max) and only ever folds scores that some
    // worker actually observed in a DP cell, so it never exceeds the true
    // global best — the strict bound comparison below therefore preserves
    // the unpruned run's best cell bit-for-bit. Seeded from the resume
    // checkpoint so a recovered attempt keeps the failed attempt's
    // knowledge.
    let mut watermark: Score = match prune_mode {
        PruneMode::Off => 0,
        PruneMode::Local | PruneMode::Distributed => seg.resume.map_or(0, |ck| ck.watermark),
    };

    // Fault events carry aux 0 = injected device fault, 1 = poisoned ring
    // observed from a dead neighbour.
    let die = |cells: u128, r: usize| {
        fly(FlightKind::Fault, r as u64, obs.now_ns(), 0, 0);
        Failure {
            error: PipelineError::DeviceFault {
                device: slab.device,
                block_row: r,
            },
            cells,
        }
    };
    let poisoned = |cells: u128, r: usize| {
        fly(FlightKind::Fault, r as u64, obs.now_ns(), 0, 1);
        Failure {
            error: PipelineError::RingPoisoned {
                device: slab.device,
            },
            cells,
        }
    };

    // Per-lane checkpoint scratch: the H/F lanes are assembled here and
    // handed to the store as slices, so deposits reuse one allocation
    // across every block-row instead of building a fresh Vec pair each
    // time (the churn showed up as other/wait_input in the attribution).
    let mut ck_h: Vec<Score> = Vec::new();
    let mut ck_f: Vec<Score> = Vec::new();

    for r in seg.start_row..seg.stop_row {
        let i0 = r * block_h + 1;
        let i1 = ((r + 1) * block_h).min(m) + 1;
        let height = i1 - i0;
        let row = r as u32;
        if let Err(error) = poll(ctx.control) {
            return Err(Failure { error, cells });
        }
        fly(FlightKind::RowStart, r as u64, obs.now_ns(), 0, 0);

        if ctx.faults.fires(slab.device, r, FaultPhase::RingPop) {
            return Err(die(cells, r));
        }

        // Under distributed pruning, fold the shared global watermark once
        // per block-row — a low-frequency side channel that lets knowledge
        // from non-adjacent devices tighten this worker's bound.
        if prune_mode == PruneMode::Distributed {
            watermark = watermark.max(global_watermark.load(Ordering::Relaxed));
        }

        let mut left: ColBorder = match ring_in {
            None => match ctx.semantics {
                Semantics::Local => ColBorder::zero(height),
                Semantics::Anchored => ColBorder::anchored(height, i0, &config.scheme),
            },
            Some(ring) => {
                let wait_start = obs.now_ns();
                let popped = ring.pop();
                let wait_end = obs.now_ns().max(wait_start);
                obs.record_since(ObsKind::RingPopWait, Some(lane), Some(row), wait_start);
                clocks.wait_input_ns += wait_end - wait_start;
                if let Some(live) = ctx.live {
                    live.on_phase_ns(s_idx, StallPhase::WaitInput, wait_end - wait_start);
                }
                fly(
                    FlightKind::RingPop,
                    r as u64,
                    wait_end,
                    wait_end - wait_start,
                    0,
                );
                match popped {
                    Ok(Some(msg)) => {
                        let BorderMsg {
                            border,
                            watermark: their_mark,
                        } = msg;
                        debug_assert_eq!(border.height(), height, "border height mismatch");
                        // Fold the left neighbour's piggybacked watermark:
                        // free knowledge riding the border hand-off.
                        if prune_mode == PruneMode::Distributed {
                            watermark = watermark.max(their_mark);
                        }
                        border
                    }
                    // Closed-early and poisoned both mean a neighbour died.
                    Ok(None) | Err(RingError::Closed) | Err(RingError::Poisoned) => {
                        return Err(poisoned(cells, r));
                    }
                }
            }
        };

        if ctx.faults.fires(slab.device, r, FaultPhase::Compute) {
            return Err(die(cells, r));
        }

        let kernel_start = obs.now_ns();
        for (c, &(jc0, wc)) in cols.iter().enumerate() {
            let covered = height as u128 * wc as u128;
            tiles_total += 1;
            if prune_mode.is_enabled() {
                let incoming_max = tops[c].max_h().max(left.max_h());
                let bound = prune_bound(incoming_max, m, n, i0, jc0, &config.scheme);
                if tile_is_prunable(bound, watermark) {
                    // Skip the tile: emit the substitute zero/−∞ borders
                    // sw::prune defines. Downstream DP over those borders
                    // can only underestimate — safe under local semantics.
                    // The skip happens inside the kernel timing window, so
                    // its clock is carved out of busy_ns by the
                    // attribution, not added on top.
                    let skip_start = obs.now_ns();
                    let out = skip_block(height, wc);
                    let skip_ns = obs.now_ns().max(skip_start) - skip_start;
                    clocks.prune_skip_ns += skip_ns;
                    if let Some(live) = ctx.live {
                        live.on_phase_ns(s_idx, StallPhase::PruneSkip, skip_ns);
                    }
                    fly(
                        FlightKind::PruneSkip,
                        r as u64,
                        skip_start,
                        skip_ns,
                        jc0 as u64,
                    );
                    tops[c] = out.bottom;
                    left = out.right;
                    tiles_pruned += 1;
                    cells_skipped += covered;
                    cells += covered; // covered, not computed: coverage accounting
                    continue;
                }
                // Borders from pruned neighbours may disagree at the shared
                // corner; restore it to the max (exact when either path
                // survived) before handing both to the kernel.
                restore_corner(&mut tops[c], &mut left);
            }
            let input = BlockInput {
                a_rows: &a[i0 - 1..i1 - 1],
                b_cols: &b[jc0 - 1..jc0 - 1 + wc],
                top: &tops[c],
                left: &left,
                row_offset: i0,
                col_offset: jc0,
            };
            let out = match ctx.semantics {
                Semantics::Local => ctx.kernel.block(input, &config.scheme),
                Semantics::Anchored => ctx.kernel.block_anchored(input, &config.scheme),
            };
            best = best.merge(out.best);
            cells += out.cells as u128;
            tops[c] = out.bottom;
            left = out.right;
        }
        if prune_mode.is_enabled() {
            watermark = watermark.max(best.score);
        }
        let kernel_end = obs.now_ns().max(kernel_start);
        obs.record(ObsSpan {
            kind: ObsKind::Kernel,
            device: Some(lane),
            block_row: Some(row),
            start_ns: kernel_start,
            end_ns: kernel_end,
        });
        first_kernel_start_ns.get_or_insert(kernel_start);
        last_kernel_end_ns = kernel_end;
        clocks.busy_ns += kernel_end - kernel_start;
        fly(
            FlightKind::Compute,
            r as u64,
            kernel_end,
            kernel_end - kernel_start,
            cols.len() as u64,
        );
        if let Some(live) = ctx.live {
            live.on_row_done(
                s_idx,
                (height as u64) * (slab.width as u64),
                kernel_end - kernel_start,
            );
            if prune_mode.is_enabled() {
                live.on_prune_update(
                    s_idx,
                    watermark,
                    tiles_pruned,
                    u64::try_from(cells_skipped).unwrap_or(u64::MAX),
                );
            }
        }

        // Publish this worker's watermark for non-adjacent devices.
        if prune_mode == PruneMode::Distributed {
            global_watermark.fetch_max(watermark, Ordering::Relaxed);
        }

        // Deposit a checkpoint as soon as the wave's kernels are done, so
        // a later push/transfer fault on this very row still benefits.
        if let Some(ck) = seg.ckpt {
            let wave = r + 1;
            if wave % ck.interval == 0 && wave < ctx.rows {
                let ckpt_start = obs.now_ns();
                ck_h.clear();
                ck_f.clear();
                ck_h.push(tops[0].h[0]);
                ck_f.push(tops[0].f[0]);
                for t in &tops {
                    ck_h.extend_from_slice(&t.h[1..]);
                    ck_f.extend_from_slice(&t.f[1..]);
                }
                let tally = SlabTally {
                    best,
                    watermark,
                    counts: counts(tiles_pruned, tiles_total, cells_skipped),
                };
                ck.store
                    .record(ck.attempt, wave, s_idx, (&ck_h, &ck_f), tally);
                let ckpt_ns = obs.now_ns().max(ckpt_start) - ckpt_start;
                clocks.checkpoint_ns += ckpt_ns;
                if let Some(live) = ctx.live {
                    live.on_phase_ns(s_idx, StallPhase::Checkpoint, ckpt_ns);
                }
                fly(
                    FlightKind::Checkpoint,
                    r as u64,
                    ckpt_start,
                    ckpt_ns,
                    wave as u64,
                );
            }
        }

        if ctx.faults.fires(slab.device, r, FaultPhase::RingPush) {
            return Err(die(cells, r));
        }

        if let Some(ring) = ring_out {
            bytes_sent += left.transfer_bytes() as u64;
            let push_start = obs.now_ns();
            // The watermark piggybacks on the border hand-off: zero extra
            // messages, and the right neighbour folds it before its next row.
            let pushed = ring.push(BorderMsg {
                border: left,
                watermark,
            });
            let push_end = obs.now_ns().max(push_start);
            obs.record_since(ObsKind::RingPush, Some(lane), Some(row), push_start);
            clocks.wait_output_ns += push_end - push_start;
            if let Some(live) = ctx.live {
                live.on_phase_ns(s_idx, StallPhase::WaitOutput, push_end - push_start);
            }
            fly(
                FlightKind::RingPush,
                r as u64,
                push_end,
                push_end - push_start,
                0,
            );
            if pushed.is_err() {
                return Err(poisoned(cells, r));
            }
        }

        if ctx.faults.fires(slab.device, r, FaultPhase::Transfer) {
            return Err(die(cells, r));
        }
    }

    if let Some(ring) = ring_out {
        ring.close();
    }

    Ok(DevicePartial {
        best,
        cells,
        counts: counts(tiles_pruned, tiles_total, cells_skipped),
        watermark,
        bytes_sent,
        first_kernel_start_ns: first_kernel_start_ns.unwrap_or(0),
        last_kernel_end_ns,
        clocks: PhaseClocks {
            simd_rescue_ns: kernel::simd_rescue_ns_thread().saturating_sub(rescue_ns_base),
            ..clocks
        },
    })
}

/// The report of a run with no cells to compute (an empty sequence, or no
/// slab to place).
fn empty_report(ctx: &RunCtx<'_>, st: Progress) -> RunReport {
    RunReport {
        best: BestCell::ZERO,
        total_cells: ctx.a.len() as u128 * ctx.b.len() as u128,
        wall_time: Some(std::time::Duration::ZERO),
        gcups_wall: Some(0.0),
        sim_time: None,
        gcups_sim: None,
        devices: st
            .slabs
            .iter()
            .map(|slab| DeviceReport {
                device: slab.device,
                name: ctx.platform.devices[slab.device].name.clone(),
                slab_j0: slab.j0,
                slab_width: slab.width,
                cells: 0,
                bytes_sent: 0,
                ring_out: None,
                wall_busy: None,
                sim_busy: None,
                sim_utilization: None,
                stall: None,
                attribution: None,
            })
            .collect(),
        pruning: ctx.prune_mode.is_enabled().then_some(PruningReport {
            mode: ctx.prune_mode,
            tiles_pruned: 0,
            tiles_total: 0,
            cells_skipped: 0,
            watermark_lag: 0,
        }),
        recovery: st.recovery,
        rebalance: st.rebalance,
        kernel: ctx.selection(),
        kernel_paths: PathCounts::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CheckpointCadence, PruneMode};
    use megasw_gpusim::{catalog, Platform};
    use megasw_obs::ObsLevel;
    use megasw_seq::{ChromosomeGenerator, DivergenceModel, GenerateConfig};
    /// Scalar whole-sequence oracle via the kernel trait (the deprecated
    /// `gotoh_best` free function is being phased out).
    fn rolling_best(a: &[u8], b: &[u8], scheme: &megasw_sw::ScoreScheme) -> BestCell {
        megasw_sw::kernel::scalar().best(a, b, scheme)
    }

    fn pair(len: usize, seed: u64) -> (megasw_seq::DnaSeq, megasw_seq::DnaSeq) {
        let a = ChromosomeGenerator::new(GenerateConfig::uniform(len, seed)).generate();
        let (b, _) = DivergenceModel::test_scale(seed + 1000).apply(&a);
        (a, b)
    }

    /// A 99%-identity pair (substitutions only): the regime where block
    /// pruning pays — the diagonal score grows steadily and prunes the
    /// off-diagonal bulk.
    fn similar_pair(len: usize, seed: u64) -> (megasw_seq::DnaSeq, megasw_seq::DnaSeq) {
        let a = ChromosomeGenerator::new(GenerateConfig::uniform(len, seed)).generate();
        let (b, _) = DivergenceModel::snp_only(seed + 1000, 0.01).apply(&a);
        (a, b)
    }

    fn run_local(a: &[u8], b: &[u8], platform: &Platform, cfg: RunConfig) -> RunReport {
        PipelineRun::new(a, b, platform).config(cfg).run().unwrap()
    }

    #[test]
    fn two_gpu_run_matches_reference() {
        let (a, b) = pair(2_000, 1);
        let report = run_local(
            a.codes(),
            b.codes(),
            &Platform::env1(),
            RunConfig::test_default(),
        );
        assert_eq!(
            report.best,
            rolling_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign())
        );
        assert_eq!(report.devices.len(), 2);
        assert!(report.gcups_wall.unwrap() > 0.0);
        assert!(report.total_bytes_transferred() > 0);
    }

    #[test]
    fn three_heterogeneous_gpus_match_reference() {
        let (a, b) = pair(3_000, 2);
        let report = run_local(
            a.codes(),
            b.codes(),
            &Platform::env2(),
            RunConfig::test_default(),
        );
        assert_eq!(
            report.best,
            rolling_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign())
        );
        // Proportional split: Titan slab wider than K20 slab.
        assert!(report.devices[0].slab_width > report.devices[2].slab_width);
    }

    #[test]
    fn single_device_platform_works() {
        let (a, b) = pair(1_000, 3);
        let report = run_local(
            a.codes(),
            b.codes(),
            &Platform::single(catalog::gtx680()),
            RunConfig::test_default(),
        );
        assert_eq!(
            report.best,
            rolling_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign())
        );
        assert_eq!(report.devices.len(), 1);
        assert_eq!(report.total_bytes_transferred(), 0);
    }

    #[test]
    fn capacity_one_ring_still_correct() {
        let (a, b) = pair(1_500, 4);
        let cfg = RunConfig::test_default().with_buffer_capacity(1);
        let report = run_local(a.codes(), b.codes(), &Platform::env2(), cfg.clone());
        assert_eq!(report.best, rolling_best(a.codes(), b.codes(), &cfg.scheme));
    }

    #[test]
    fn many_devices_on_small_matrix() {
        // 8 devices, matrix narrower than 8 block columns: devices dropped.
        let (a, b) = pair(200, 5);
        let p = Platform::homogeneous(catalog::m2090(), 8);
        let cfg = RunConfig::test_default(); // 32-wide blocks → ≤ 7 bcols
        let report = run_local(a.codes(), b.codes(), &p, cfg.clone());
        assert_eq!(report.best, rolling_best(a.codes(), b.codes(), &cfg.scheme));
        let bcols = b.len().div_ceil(cfg.block_w);
        assert_eq!(report.devices.len(), bcols.min(8));
    }

    #[test]
    fn empty_sequences() {
        let p = Platform::env1();
        let cfg = RunConfig::test_default();
        let r1 = run_local(&[], &[], &p, cfg.clone());
        assert_eq!(r1.best, BestCell::ZERO);
        let (a, _) = pair(100, 6);
        let r2 = run_local(a.codes(), &[], &p, cfg.clone());
        assert_eq!(r2.best, BestCell::ZERO);
        let r3 = run_local(&[], a.codes(), &p, cfg);
        assert_eq!(r3.best, BestCell::ZERO);
    }

    #[test]
    fn builder_rejects_invalid_config_with_megasw_error() {
        let (a, b) = pair(100, 7);
        let bad = RunConfig::test_default().with_buffer_capacity(0);
        let err = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(bad)
            .run()
            .unwrap_err();
        assert!(matches!(
            err.as_pipeline(),
            Some(PipelineError::InvalidConfig(_))
        ));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn fault_in_middle_device_propagates_cleanly() {
        let (a, b) = pair(2_000, 8);
        let fault = ScheduledFault {
            device: 1,
            block_row: 5,
            phase: FaultPhase::Compute,
        };
        let err = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(RunConfig::test_default())
            .faults(fault)
            .run()
            .unwrap_err();
        assert_eq!(
            err.as_pipeline(),
            Some(&PipelineError::DeviceFault {
                device: 1,
                block_row: 5
            })
        );
    }

    #[test]
    fn fault_in_first_device_at_row_zero() {
        let (a, b) = pair(1_000, 9);
        let err = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default())
            .faults(ScheduledFault {
                device: 0,
                block_row: 0,
                phase: FaultPhase::Compute,
            })
            .run()
            .unwrap_err();
        assert!(matches!(
            err.as_pipeline(),
            Some(PipelineError::DeviceFault { device: 0, .. })
        ));
    }

    #[test]
    fn ring_stats_show_flow() {
        let (a, b) = pair(2_000, 10);
        let cfg = RunConfig::test_default().with_buffer_capacity(2);
        let report = run_local(a.codes(), b.codes(), &Platform::env1(), cfg.clone());
        let ring = report.devices[0].ring_out.as_ref().unwrap();
        let rows = 2_000usize.div_ceil(cfg.block_h) as u64;
        assert_eq!(ring.pushed, rows);
        assert_eq!(ring.popped, rows);
        assert!(ring.max_occupancy <= 2);
    }

    #[test]
    fn pruning_is_bit_identical_across_geometries() {
        // The heart of the pruning contract: skipping tiles with substitute
        // borders must not perturb the best cell — on every platform shape,
        // at every pruning level, against the sequential reference.
        let (a, b) = similar_pair(1_500, 11);
        let truth = rolling_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign());
        for platform in [
            Platform::single(catalog::gtx680()),
            Platform::env1(),
            Platform::env2(),
            Platform::homogeneous(catalog::m2090(), 4),
        ] {
            let off = run_local(
                a.codes(),
                b.codes(),
                &platform,
                RunConfig::test_default().with_pruning(PruneMode::Off),
            );
            assert_eq!(off.best, truth);
            assert!(off.pruning.is_none(), "Off emits no pruning report");
            for mode in [PruneMode::Local, PruneMode::Distributed] {
                let pruned = run_local(
                    a.codes(),
                    b.codes(),
                    &platform,
                    RunConfig::test_default().with_pruning(mode),
                );
                assert_eq!(pruned.best, truth, "{mode} on {platform:?}");
                assert_eq!(pruned.total_cells, off.total_cells);
                let pr = pruned.pruning.expect("enabled modes report pruning");
                assert_eq!(pr.mode, mode);
                assert!(pr.tiles_total > 0);
                assert!(pr.watermark_lag >= 0, "watermark never exceeds true best");
            }
        }
    }

    #[test]
    fn distributed_pruning_skips_cells_on_high_identity_pairs() {
        // Acceptance check: on a 99%-identity pair the distributed watermark
        // prunes a substantial share of the off-diagonal matrix.
        let (a, b) = similar_pair(4_000, 30);
        let report = run_local(
            a.codes(),
            b.codes(),
            &Platform::env2(),
            RunConfig::test_default().with_pruning(PruneMode::Distributed),
        );
        assert_eq!(
            report.best,
            rolling_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign())
        );
        let pr = report.pruning.unwrap();
        assert!(pr.tiles_pruned > 0, "high-identity run must prune tiles");
        assert!(
            pr.cells_skipped * 5 >= report.total_cells,
            "expected ≥ 20% of cells skipped, got {} of {}",
            pr.cells_skipped,
            report.total_cells
        );
        // Covered-cell accounting holds even with skips.
        let covered: u128 = report.devices.iter().map(|d| d.cells).sum();
        assert_eq!(covered, report.total_cells);
    }

    #[test]
    fn anchored_semantics_force_pruning_off() {
        // Score underestimation is only safe under Local semantics; anchored
        // runs must silently disable pruning rather than corrupt stage 2.
        let (a, b) = similar_pair(1_000, 31);
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default().with_pruning(PruneMode::Distributed))
            .semantics(Semantics::Anchored)
            .run()
            .unwrap();
        assert!(report.pruning.is_none());
    }

    #[test]
    fn pruning_composes_with_recovery_bit_identically() {
        let (a, b) = similar_pair(2_000, 32);
        let cfg = RunConfig::test_default()
            .with_pruning(PruneMode::Distributed)
            .with_checkpoint(CheckpointCadence::EveryRows(4));
        let clean = run_local(a.codes(), b.codes(), &Platform::env2(), cfg.clone());
        let recovered = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(cfg)
            .faults(ScheduledFault {
                device: 1,
                block_row: 10,
                phase: FaultPhase::Compute,
            })
            .recover(RecoveryPolicy::default())
            .run()
            .unwrap();
        assert_eq!(recovered.best, clean.best);
        assert_eq!(recovered.total_cells, clean.total_cells);
        assert_eq!(recovered.recovery.unwrap().recoveries, 1);
        let pr = recovered
            .pruning
            .expect("pruned recovery run reports pruning");
        assert!(pr.watermark_lag >= 0);
    }

    #[test]
    fn threaded_stall_breakdown_sums_to_wall_minus_busy() {
        let (a, b) = pair(3_000, 12);
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(RunConfig::test_default())
            .run()
            .unwrap();
        let wall_ns = report.wall_time.unwrap().as_nanos() as u64;
        assert_eq!(report.devices.len(), 3);
        for d in &report.devices {
            let bd = d.stall.expect("threaded runs report stalls");
            let busy_ns = d.wall_busy.unwrap().as_nanos() as u64;
            assert_eq!(
                bd.total().as_nanos(),
                wall_ns - busy_ns,
                "device {}: {bd}",
                d.device
            );
        }
    }

    #[test]
    fn threaded_attribution_sums_to_makespan_and_matches_live() {
        let (a, b) = pair(3_000, 12);
        let total = (a.codes().len() * b.codes().len()) as u64;
        let live = LiveTelemetry::new(3, total);
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(RunConfig::test_default())
            .live(Arc::clone(&live))
            .run()
            .unwrap();
        let wall_ns = report.wall_time.unwrap().as_nanos() as u64;
        assert_eq!(report.devices.len(), 3);
        let s = live.snapshot();
        for (i, d) in report.devices.iter().enumerate() {
            let attr = d.attribution.expect("threaded runs attribute phases");
            // The defining identity: phases sum to the makespan exactly.
            assert_eq!(attr.total_ns(), wall_ns, "device {}: {attr}", d.device);
            assert!(attr.compute_ns > 0, "device {} computed", d.device);
            // No checkpointing, no pruning, scalar-or-clean dispatch in
            // this config: those phases stay zero.
            assert_eq!(attr.checkpoint_ns, 0);
            assert_eq!(attr.prune_skip_ns, 0);
            // The live handle saw the same phase clocks the report did.
            assert_eq!(s.devices[i].wait_input_ns, attr.wait_input_ns);
            assert_eq!(s.devices[i].wait_output_ns, attr.wait_output_ns);
        }
        // Chain consumers pop borders; some wait time must have been
        // attributed somewhere downstream of device 0.
        assert!(report.devices[1..].iter().all(
            |d| d.attribution.unwrap().wait_input_ns > 0 || d.attribution.unwrap().other_ns > 0
        ));
    }

    #[test]
    fn attribution_covers_checkpoint_and_prune_phases() {
        // A recovered, pruned run exercises the checkpoint and prune-skip
        // clocks; the sum-to-makespan identity must survive both.
        let (a, b) = pair(3_000, 77);
        let cfg = RunConfig::test_default()
            .with_pruning(PruneMode::Distributed)
            .with_checkpoint(CheckpointCadence::EveryRows(4));
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(cfg)
            .faults(ScheduledFault {
                device: 1,
                block_row: 12,
                phase: FaultPhase::Compute,
            })
            .recover(RecoveryPolicy::default())
            .run()
            .unwrap();
        assert_eq!(report.recovery.as_ref().unwrap().recoveries, 1);
        let wall_ns = report.wall_time.unwrap().as_nanos() as u64;
        let mut checkpointed = 0u64;
        for d in &report.devices {
            let attr = d.attribution.unwrap();
            assert_eq!(attr.total_ns(), wall_ns, "device {}: {attr}", d.device);
            checkpointed += attr.checkpoint_ns;
        }
        assert!(checkpointed > 0, "checkpoint deposits take measurable time");
        assert!(
            report.pruning.unwrap().tiles_pruned == 0
                || report
                    .devices
                    .iter()
                    .any(|d| d.attribution.unwrap().prune_skip_ns > 0
                        || d.attribution.unwrap().compute_ns > 0)
        );
    }

    #[test]
    fn flight_recorder_black_boxes_a_fault() {
        let (a, b) = pair(2_000, 21);
        let flight = megasw_obs::FlightRecorder::new(2, 64);
        let dir = std::env::temp_dir().join(format!("megasw-flight-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let dump = dir.join("fault.jsonl");
        let err = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default())
            .faults(ScheduledFault {
                device: 0,
                block_row: 3,
                phase: FaultPhase::Compute,
            })
            .flight(Arc::clone(&flight))
            .flight_dump_path(&dump)
            .run()
            .unwrap_err();
        assert!(matches!(
            err.as_pipeline(),
            Some(PipelineError::DeviceFault { device: 0, .. })
        ));
        // Lane 0's ring replays the last moments and ends at the fault.
        let events = flight.events(0);
        let last = events.last().expect("lane 0 recorded events");
        assert_eq!(last.kind, megasw_obs::FlightKind::Fault);
        assert_eq!(last.row, 3);
        assert!(events
            .iter()
            .any(|e| e.kind == megasw_obs::FlightKind::Compute));
        // Lane 1 observed the poisoned ring (fault with aux 1).
        assert!(flight
            .events(1)
            .iter()
            .any(|e| e.kind == megasw_obs::FlightKind::Fault && e.aux == 1));
        // The builder dumped the black box as JSONL automatically.
        let text = std::fs::read_to_string(&dump).expect("dump file written on fault");
        assert!(text.contains("\"fault\""), "{text}");
        for line in text.lines() {
            megasw_obs::json::parse(line).expect("dump lines are valid JSON");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_recorder_wraps_and_survives_a_clean_run() {
        let (a, b) = pair(2_000, 22);
        let flight = megasw_obs::FlightRecorder::new(2, 8);
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default())
            .flight(Arc::clone(&flight))
            .run()
            .unwrap();
        assert!(report.best.score > 0);
        // Capacity 8: the ring holds only the tail of the run, and every
        // retained event is well-formed.
        for lane in 0..2 {
            let events = flight.events(lane);
            assert!(!events.is_empty() && events.len() <= 8, "lane {lane}");
            assert!(events
                .iter()
                .all(|e| e.kind != megasw_obs::FlightKind::Fault));
        }
    }

    #[test]
    fn observer_collects_kernel_and_ring_spans() {
        let (a, b) = pair(2_000, 13);
        let obs = Recorder::new(ObsLevel::Full);
        let cfg = RunConfig::test_default();
        let rows = 2_000usize.div_ceil(cfg.block_h);
        PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(cfg)
            .observer(obs.clone())
            .run()
            .unwrap();
        let spans = obs.spans();
        let kernels = spans.iter().filter(|s| s.kind == ObsKind::Kernel).count();
        // Two devices, one kernel span per device per block-row.
        assert_eq!(kernels, 2 * rows);
        assert!(spans.iter().any(|s| s.kind == ObsKind::RingPush));
        assert!(spans.iter().any(|s| s.kind == ObsKind::RingPopWait));
        // Device attribution covers both lanes.
        assert!(spans.iter().any(|s| s.device == Some(0)));
        assert!(spans.iter().any(|s| s.device == Some(1)));
        // Kernel spans on the consumer lane carry block-row attribution.
        assert!(spans
            .iter()
            .filter(|s| s.device == Some(1) && s.kind == ObsKind::Kernel)
            .all(|s| s.block_row.is_some()));
    }

    #[test]
    fn live_telemetry_reports_exact_totals() {
        let (a, b) = pair(2_000, 15);
        let cfg = RunConfig::test_default();
        let rows = 2_000usize.div_ceil(cfg.block_h) as u64;
        let total = (a.codes().len() * b.codes().len()) as u64;
        let live = LiveTelemetry::new(2, total);
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(cfg)
            .live(Arc::clone(&live))
            .run()
            .unwrap();
        let s = live.snapshot();
        assert_eq!(s.cells_done() as u128, report.total_cells);
        assert!((s.fraction_done() - 1.0).abs() < 1e-12);
        for d in &s.devices {
            assert_eq!(d.rows_total, rows);
            assert_eq!(d.rows_done, rows);
            assert_eq!(d.ring_occupancy, 0, "rings drain by the end");
            assert!(d.busy_ns > 0);
        }
    }

    #[test]
    fn live_handle_sized_for_platform_tolerates_dropped_slabs() {
        // 8-device platform, matrix too narrow for 8 slabs: the extra live
        // slots just stay at zero.
        let (a, b) = pair(200, 16);
        let p = Platform::homogeneous(catalog::m2090(), 8);
        let cfg = RunConfig::test_default();
        let total = (a.codes().len() * b.codes().len()) as u64;
        let live = LiveTelemetry::new(8, total);
        PipelineRun::new(a.codes(), b.codes(), &p)
            .config(cfg)
            .live(Arc::clone(&live))
            .run()
            .unwrap();
        let s = live.snapshot();
        assert_eq!(s.cells_done(), total);
        assert!(s.devices.iter().any(|d| d.rows_total == 0));
        assert!((s.fraction_done() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fault_schedule_parses_and_round_trips() {
        let s: FaultSchedule = "1:5,2:9:ring-push".parse().unwrap();
        assert_eq!(
            s.faults,
            vec![
                ScheduledFault {
                    device: 1,
                    block_row: 5,
                    phase: FaultPhase::Compute,
                },
                ScheduledFault {
                    device: 2,
                    block_row: 9,
                    phase: FaultPhase::RingPush,
                },
            ]
        );
        // Display always writes the explicit three-part form.
        assert_eq!(s.to_string(), "1:5:compute,2:9:ring-push");
        assert_eq!(s.to_string().parse::<FaultSchedule>().unwrap(), s);
        assert!("x:1".parse::<FaultSchedule>().is_err());
        assert!("1:2:warp".parse::<FaultSchedule>().is_err());
        assert!("".parse::<FaultSchedule>().is_err());
        assert!("1:2:compute:extra".parse::<FaultSchedule>().is_err());
    }

    #[test]
    fn recovery_is_bit_identical_to_fault_free_run() {
        let (a, b) = pair(2_000, 20);
        let cfg = RunConfig::test_default();
        let clean = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(cfg.clone())
            .run()
            .unwrap();
        let recovered = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(cfg)
            .faults(ScheduledFault {
                device: 1,
                block_row: 5,
                phase: FaultPhase::Compute,
            })
            .recover(RecoveryPolicy::default())
            .run()
            .unwrap();
        assert_eq!(recovered.best, clean.best);
        assert_eq!(recovered.total_cells, clean.total_cells);
        let rec = recovered.recovery.expect("recovering runs report recovery");
        assert_eq!(rec.recoveries, 1);
        assert_eq!(rec.failed_devices, vec![1]);
        assert!(rec.checkpoints_taken > 0);
        assert!(rec.rewound_cells > 0);
        assert!(rec.rewound_cells <= recovered.total_cells);
        // The failed device holds no slab in the final report.
        assert!(recovered.devices.iter().all(|d| d.device != 1));
        // Fault-free runs don't grow a recovery report unless asked.
        assert!(clean.recovery.is_none());
    }

    #[test]
    fn recovery_is_bit_identical_in_every_fault_phase() {
        let (a, b) = pair(1_500, 21);
        let cfg = RunConfig::test_default();
        let clean = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(cfg.clone())
            .run()
            .unwrap();
        for phase in [
            FaultPhase::RingPop,
            FaultPhase::Compute,
            FaultPhase::RingPush,
            FaultPhase::Transfer,
        ] {
            let recovered = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
                .config(cfg.clone())
                .faults(ScheduledFault {
                    device: 1,
                    block_row: 7,
                    phase,
                })
                .recover(RecoveryPolicy::default())
                .run()
                .unwrap();
            assert_eq!(recovered.best, clean.best, "phase {phase}");
            assert_eq!(recovered.recovery.unwrap().recoveries, 1, "phase {phase}");
        }
    }

    #[test]
    fn recovery_survives_multiple_faults_and_anchored_semantics() {
        let (a, b) = pair(2_000, 22);
        let cfg = RunConfig::test_default();
        for semantics in [Semantics::Local, Semantics::Anchored] {
            let clean = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
                .config(cfg.clone())
                .semantics(semantics)
                .run()
                .unwrap();
            let recovered = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
                .config(cfg.clone().with_checkpoint(CheckpointCadence::EveryRows(4)))
                .semantics(semantics)
                .faults("1:5,2:20:transfer".parse::<FaultSchedule>().unwrap())
                .recover(RecoveryPolicy {
                    max_device_failures: 2,
                })
                .run()
                .unwrap();
            assert_eq!(recovered.best, clean.best, "{semantics:?}");
            let rec = recovered.recovery.unwrap();
            assert_eq!(rec.recoveries, 2);
            assert_eq!(rec.failed_devices, vec![1, 2]);
            // Only device 0 survives.
            assert_eq!(recovered.devices.len(), 1);
            assert_eq!(recovered.devices[0].device, 0);
        }
    }

    #[test]
    fn recovery_from_fault_at_row_zero_restarts_from_scratch() {
        let (a, b) = pair(1_000, 23);
        let clean = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default())
            .run()
            .unwrap();
        let recovered = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default())
            .faults(ScheduledFault {
                device: 0,
                block_row: 0,
                phase: FaultPhase::Compute,
            })
            .recover(RecoveryPolicy::default())
            .run()
            .unwrap();
        assert_eq!(recovered.best, clean.best);
        let rec = recovered.recovery.unwrap();
        assert_eq!(rec.resumed_from_rows, vec![0]);
    }

    #[test]
    fn recovery_budget_exhaustion_surfaces_the_fault() {
        let (a, b) = pair(1_500, 24);
        let err = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(RunConfig::test_default().with_checkpoint(CheckpointCadence::EveryRows(8)))
            .faults(ScheduledFault {
                device: 1,
                block_row: 5,
                phase: FaultPhase::Compute,
            })
            .recover(RecoveryPolicy {
                max_device_failures: 0,
            })
            .run()
            .unwrap_err();
        assert_eq!(
            err.as_pipeline(),
            Some(&PipelineError::DeviceFault {
                device: 1,
                block_row: 5
            })
        );
    }

    #[test]
    fn recovery_rejects_bad_checkpoint_cadence() {
        let (a, b) = pair(500, 25);
        // A zero-row interval never validates, recovery or not.
        let err = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default().with_checkpoint(CheckpointCadence::EveryRows(0)))
            .run()
            .unwrap_err();
        assert!(matches!(
            err.as_pipeline(),
            Some(PipelineError::InvalidConfig(_))
        ));
        // Recovery needs checkpoints: a disabled cadence is rejected.
        let err = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default().with_checkpoint(CheckpointCadence::Disabled))
            .recover(RecoveryPolicy::default())
            .run()
            .unwrap_err();
        assert!(matches!(
            err.as_pipeline(),
            Some(PipelineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn recovery_rewind_accounting_matches_checkpoint_interval() {
        // Fault at block-row 10 with interval 4: every slab checkpointed
        // wave 8 before row 10 started (the wavefront skew is ≤ chain
        // depth, but the store only serves *complete* waves — so we assert
        // the resume row is a multiple of 4 no later than the fault row).
        let (a, b) = pair(2_000, 26);
        let recovered = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default().with_checkpoint(CheckpointCadence::EveryRows(4)))
            .faults(ScheduledFault {
                device: 1,
                block_row: 10,
                phase: FaultPhase::Compute,
            })
            .recover(RecoveryPolicy {
                max_device_failures: 1,
            })
            .run()
            .unwrap();
        let rec = recovered.recovery.unwrap();
        let resumed = rec.resumed_from_rows[0];
        assert_eq!(resumed % 4, 0);
        assert!(resumed <= 10, "resume row {resumed} past the fault row");
        assert!(resumed > 0, "a wave before row 10 must be complete");
    }

    #[test]
    fn rebalance_stays_bit_identical_and_reports_evaluations() {
        use crate::config::RebalanceMode;
        let (a, b) = pair(3_000, 40);
        let truth = rolling_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign());
        let cfg = RunConfig::test_default()
            .with_checkpoint(CheckpointCadence::EveryRows(2))
            .with_rebalance(RebalanceMode::On {
                threshold: 0.0,
                window_waves: 2,
            });
        let report = run_local(a.codes(), b.codes(), &Platform::env2(), cfg);
        assert_eq!(report.best, truth, "rebalance must not perturb the score");
        let rb = report.rebalance.expect("enabled rebalance reports");
        assert!(rb.evaluations > 0, "segment boundaries were evaluated");
        assert_eq!(rb.migrations as usize, rb.applied_at_rows.len());
        // Coverage accounting: checkpointed base + final segment == total.
        assert_eq!(report.total_cells, 3_000u128 * b.len() as u128);
        // Off runs don't grow a rebalance report.
        let off = run_local(
            a.codes(),
            b.codes(),
            &Platform::env2(),
            RunConfig::test_default(),
        );
        assert!(off.rebalance.is_none());
    }

    #[test]
    fn rebalance_composes_with_pruning_and_recovery_bit_identically() {
        use crate::config::RebalanceMode;
        let (a, b) = similar_pair(2_000, 41);
        let truth = rolling_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign());
        let cfg = RunConfig::test_default()
            .with_pruning(PruneMode::Distributed)
            .with_checkpoint(CheckpointCadence::EveryRows(2))
            .with_rebalance(RebalanceMode::On {
                threshold: 0.0,
                window_waves: 2,
            });
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(cfg)
            .faults(ScheduledFault {
                device: 1,
                block_row: 9,
                phase: FaultPhase::Compute,
            })
            .recover(RecoveryPolicy::default())
            .run()
            .unwrap();
        assert_eq!(report.best, truth);
        assert_eq!(report.recovery.as_ref().unwrap().recoveries, 1);
        let rb = report.rebalance.expect("rebalance report present");
        assert!(rb.evaluations > 0);
        // The failed device holds no slab after recovery, and later
        // rebalances never resurrect it.
        assert!(report.devices.iter().all(|d| d.device != 1));
    }

    #[test]
    fn rebalance_migration_shifts_columns_and_records_flight_events() {
        use crate::config::{PartitionPolicy, RebalanceMode};
        let (a, b) = pair(3_000, 42);
        let truth = rolling_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign());
        // Start from a deliberately lopsided split on a homogeneous pair of
        // devices: measured throughput is ~equal, so the first boundary
        // must migrate columns toward the starved device.
        let cfg = RunConfig::test_default()
            .with_partition(PartitionPolicy::Explicit(vec![9.0, 1.0]))
            .with_checkpoint(CheckpointCadence::EveryRows(2))
            .with_rebalance(RebalanceMode::On {
                threshold: 0.0,
                window_waves: 2,
            });
        let flight = megasw_obs::FlightRecorder::new(2, 256);
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(cfg)
            .flight(Arc::clone(&flight))
            .run()
            .unwrap();
        assert_eq!(report.best, truth);
        let rb = report.rebalance.expect("rebalance report present");
        assert!(rb.migrations > 0, "lopsided split must trigger a migration");
        assert!(rb.moved_columns > 0);
        assert!(rb.applied_at_rows.iter().all(|&r| r % 2 == 0));
        // Every migration logged a flight event carrying the new width.
        let rebalances: Vec<_> = (0..2)
            .flat_map(|lane| flight.events(lane))
            .filter(|e| e.kind == megasw_obs::FlightKind::Rebalance)
            .collect();
        assert!(!rebalances.is_empty());
        assert!(rebalances.iter().all(|e| e.aux > 0 && e.dur_ns == 0));
    }

    /// The deterministic part of a report: everything but the clocks.
    fn assert_same_result(got: &RunReport, want: &RunReport) {
        assert_eq!(got.best, want.best);
        assert_eq!(got.total_cells, want.total_cells);
        assert_eq!(got.pruning, want.pruning);
        assert_eq!(got.devices.len(), want.devices.len());
        for (g, w) in got.devices.iter().zip(&want.devices) {
            assert_eq!(
                (g.device, g.slab_j0, g.slab_width, g.cells, g.bytes_sent),
                (w.device, w.slab_j0, w.slab_width, w.cells, w.bytes_sent)
            );
        }
    }

    /// Block until the live cell count holds still for 10 ms: every worker
    /// has reached its poll point (or a ring wait behind a parked
    /// neighbour). Returns the settled count.
    fn settled_cells(live: &LiveTelemetry) -> u64 {
        let mut last = live.snapshot().cells_done();
        loop {
            std::thread::sleep(Duration::from_millis(10));
            let now = live.snapshot().cells_done();
            if now == last {
                return now;
            }
            last = now;
        }
    }

    /// Run with a [`RunControl`] that a watcher thread drives once the live
    /// telemetry shows `trigger` of the matrix done: `watch` gets the
    /// control and the telemetry and returns whether it acted before the
    /// run finished.
    fn run_with_watcher(
        a: &[u8],
        b: &[u8],
        platform: &Platform,
        cfg: &RunConfig,
        recovery: Option<RecoveryPolicy>,
        trigger: u64,
        watch: impl FnOnce(&RunControl, &LiveTelemetry) + Send,
    ) -> (Result<RunReport, MegaswError>, bool) {
        let total = (a.len() * b.len()) as u64;
        let live = LiveTelemetry::new(platform.len(), total);
        let control = Arc::new(RunControl::new());
        let finished = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let watcher = s.spawn(|| {
                while !finished.load(Ordering::SeqCst) {
                    if live.snapshot().cells_done() >= total / trigger {
                        watch(&control, &live);
                        return true;
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
                false
            });
            let mut run = PipelineRun::new(a, b, platform)
                .config(cfg.clone())
                .live(Arc::clone(&live))
                .control(Arc::clone(&control));
            if let Some(policy) = recovery {
                run = run.recover(policy);
            }
            let result = run.run();
            finished.store(true, Ordering::SeqCst);
            (result, watcher.join().expect("watcher panicked"))
        })
    }

    #[test]
    fn token_set_mid_run_cancels_every_route_and_leaves_the_platform_reusable() {
        let (a, _) = pair(24_000, 60);
        let (b, _) = pair(2_000, 61);
        let (a, b) = (a.codes(), b.codes());
        let cfg = RunConfig::test_default().with_block(128);
        let platforms = [
            Platform::single(catalog::gtx680()),
            Platform::env1(),
            Platform::env2(),
        ];
        for platform in &platforms {
            let clean = run_local(a, b, platform, cfg.clone());
            for recovery in [None, Some(RecoveryPolicy::default())] {
                // Cancel a running run, and cancel a parked one: a parked
                // worker must wake and report Cancelled, never the
                // neighbours' RingPoisoned.
                for park_first in [false, true] {
                    let label = format!(
                        "{} devices, recovery {recovery:?}, parked {park_first}",
                        platform.len()
                    );
                    let (result, acted) =
                        run_with_watcher(a, b, platform, &cfg, recovery, 8, |ctl, live| {
                            if park_first {
                                ctl.park();
                                settled_cells(live);
                            }
                            ctl.cancel();
                        });
                    assert!(acted, "{label}: run finished before the watcher acted");
                    match result {
                        Err(MegaswError::Pipeline(PipelineError::Cancelled)) => {}
                        other => panic!("{label}: expected Cancelled, got {other:?}"),
                    }
                }
                let mut rerun = PipelineRun::new(a, b, platform).config(cfg.clone());
                if let Some(policy) = recovery {
                    rerun = rerun.recover(policy);
                }
                let rerun = rerun.run().unwrap();
                assert_same_result(&rerun, &clean);
            }
        }
    }

    #[test]
    fn parked_run_freezes_then_resumes_bit_identically_on_every_route() {
        use crate::config::RebalanceMode;
        let (a, _) = pair(16_000, 64);
        let (b, _) = pair(2_000, 65);
        let (a, b) = (a.codes(), b.codes());
        let base = RunConfig::test_default()
            .with_block(128)
            .with_checkpoint(CheckpointCadence::EveryRows(4));
        let rebalanced = base.clone().with_rebalance(RebalanceMode::On {
            threshold: 0.0,
            window_waves: 2,
        });
        let routes = [
            ("plain", base.clone(), None),
            ("recovery", base.clone(), Some(RecoveryPolicy::default())),
            ("rebalance", rebalanced, None),
        ];
        let platforms = [
            Platform::single(catalog::gtx680()),
            Platform::env1(),
            Platform::env2(),
        ];
        for platform in &platforms {
            for (route, cfg, recovery) in &routes {
                let label = format!("{} devices, {route}", platform.len());
                let mut clean = PipelineRun::new(a, b, platform).config(cfg.clone());
                if let Some(policy) = recovery {
                    clean = clean.recover(*policy);
                }
                let clean = clean.run().unwrap();
                let (result, acted) =
                    run_with_watcher(a, b, platform, cfg, *recovery, 4, |ctl, live| {
                        ctl.park();
                        let frozen = settled_cells(live);
                        std::thread::sleep(Duration::from_millis(50));
                        assert_eq!(
                            live.snapshot().cells_done(),
                            frozen,
                            "{label}: cells advanced while parked"
                        );
                        assert!(ctl.is_parked());
                        ctl.resume();
                    });
                assert!(acted, "{label}: run finished before the park");
                let parked = result.unwrap_or_else(|e| panic!("{label}: {e}"));
                if parked.rebalance.is_some() {
                    // Migrations follow measured rates, so the slab
                    // geometry is timing-dependent; the result is not.
                    assert_eq!(parked.best, clean.best, "{label}");
                    assert_eq!(parked.total_cells, clean.total_cells, "{label}");
                } else {
                    assert_same_result(&parked, &clean);
                }
                assert_eq!(parked.rebalance.is_some(), clean.rebalance.is_some());
                assert_eq!(parked.recovery.is_some(), clean.recovery.is_some());
            }
        }
    }

    #[test]
    fn park_resume_storm_never_loses_a_wakeup() {
        // Tiny forced-scalar tiles over three devices: many poll points
        // per millisecond, so park and resume race the workers' fast-path
        // loads and lock acquisitions. After every resume each worker must
        // finish another row: a lost wake-up stalls it, and the deadline
        // turns the stall into a failure instead of a hang.
        let (a, _) = pair(80_000, 66);
        let (b, _) = pair(900, 67);
        let (a, b) = (a.codes().to_vec(), b.codes().to_vec());
        let cfg =
            RunConfig::test_default().with_dispatch(megasw_sw::kernel::KernelDispatch::ForceScalar);
        let clean = run_local(&a, &b, &Platform::env2(), cfg.clone());
        let control = Arc::new(RunControl::new());
        let live = LiveTelemetry::new(3, (a.len() * b.len()) as u64);
        let run = {
            let (control, live) = (Arc::clone(&control), Arc::clone(&live));
            std::thread::spawn(move || {
                PipelineRun::new(&a, &b, &Platform::env2())
                    .config(cfg)
                    .live(live)
                    .control(control)
                    .run()
            })
        };
        let rows = || -> Vec<u64> {
            live.snapshot()
                .devices
                .iter()
                .map(|d| d.rows_done)
                .collect()
        };
        let mut rng = 0x9E37_79B9_u32;
        for cycle in 0..500 {
            assert!(
                !run.is_finished(),
                "the run must outlast all 500 park/resume cycles (ended at {cycle})"
            );
            control.park();
            rng ^= rng << 13;
            rng ^= rng >> 17;
            rng ^= rng << 5;
            for _ in 0..rng % 512 {
                std::hint::spin_loop();
            }
            let before = rows();
            control.resume();
            let deadline = std::time::Instant::now() + Duration::from_secs(20);
            while rows().iter().zip(&before).any(|(now, then)| now <= then) {
                assert!(
                    std::time::Instant::now() < deadline,
                    "cycle {cycle}: a worker never woke from its park (lost wake-up)"
                );
                std::thread::yield_now();
            }
        }
        let report = run.join().expect("run panicked").unwrap();
        assert_same_result(&report, &clean);
    }

    #[test]
    fn never_set_token_runs_the_plain_driver() {
        let (a, b) = pair(3_000, 62);
        let platform = Platform::env2();
        // A cadence alone checkpoints nothing: without recovery or
        // rebalance the run is one attempt with no checkpoint store.
        let every_row = RunConfig::test_default().with_checkpoint(CheckpointCadence::EveryRows(1));
        let plain_flight = FlightRecorder::new(platform.len(), 4096);
        let plain = PipelineRun::new(a.codes(), b.codes(), &platform)
            .config(every_row)
            .flight(Arc::clone(&plain_flight))
            .run()
            .unwrap();
        assert!(plain.recovery.is_none() && plain.rebalance.is_none());
        assert!((0..platform.len())
            .flat_map(|lane| plain_flight.events(lane))
            .all(|e| e.kind != FlightKind::Checkpoint && e.kind != FlightKind::Rebalance));
        let flight = FlightRecorder::new(platform.len(), 4096);
        let controlled = PipelineRun::new(a.codes(), b.codes(), &platform)
            .config(RunConfig::test_default())
            .flight(Arc::clone(&flight))
            .control(Arc::new(RunControl::new()))
            .run()
            .unwrap();
        assert_same_result(&controlled, &plain);
        assert!(controlled.recovery.is_none() && controlled.rebalance.is_none());
        let events: Vec<_> = (0..platform.len())
            .flat_map(|lane| flight.events(lane))
            .collect();
        assert!(events.iter().any(|e| e.kind == FlightKind::Compute));
        assert!(
            events.iter().all(|e| e.kind != FlightKind::Checkpoint),
            "a control must not route the run through checkpointed segments"
        );
    }

    #[test]
    fn segmented_run_attributes_every_segment() {
        use crate::config::RebalanceMode;
        // Long enough (~24 segments, ~0.2 s on two cores beside the suite)
        // that the compute share below averages over the scheduling of
        // concurrent tests instead of hanging on one of them: at 4 kbp a
        // side the run took ~20 ms and read ~50% compute whenever another
        // multi-threaded test overlapped it.
        let (a, b) = pair(12_288, 63);
        let cfg = RunConfig::test_default()
            .with_checkpoint(CheckpointCadence::EveryRows(8))
            .with_rebalance(RebalanceMode::On {
                threshold: 0.0,
                window_waves: 2,
            });
        let total = (a.codes().len() * b.codes().len()) as u64;
        let live = LiveTelemetry::new(2, total);
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(cfg)
            .live(Arc::clone(&live))
            .run()
            .unwrap();
        let rb = report.rebalance.as_ref().expect("rebalance report present");
        assert!(rb.evaluations + 1 >= 4, "{} segments", rb.evaluations + 1);
        let wall_ns = report.wall_time.unwrap().as_nanos() as u64;
        let s = live.snapshot();
        for (i, d) in report.devices.iter().enumerate() {
            let attr = d.attribution.expect("threaded runs attribute phases");
            assert_eq!(attr.total_ns(), wall_ns, "device {}: {attr}", d.device);
            assert!(
                2 * attr.compute_ns >= wall_ns,
                "device {} computed only {} of {wall_ns} ns: {attr}",
                d.device,
                attr.compute_ns
            );
            // The live handle accumulates over every segment; the report
            // now does too.
            assert_eq!(s.devices[i].wait_input_ns, attr.wait_input_ns);
            assert_eq!(s.devices[i].wait_output_ns, attr.wait_output_ns);
            assert_eq!(s.devices[i].checkpoint_ns, attr.checkpoint_ns);
        }
    }

    #[test]
    fn disabled_observer_records_nothing_but_stalls_still_computed() {
        let (a, b) = pair(1_000, 14);
        let obs = Recorder::disabled();
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default())
            .observer(obs.clone())
            .run()
            .unwrap();
        assert!(obs.is_empty());
        assert!(report.devices.iter().all(|d| d.stall.is_some()));
    }
}
