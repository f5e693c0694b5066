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

use crate::checkpoint::{Checkpoint, CheckpointStore, RecoveryPolicy};
use crate::circbuf::{BorderMsg, CircularBuffer, RingError, RingStats};
use crate::config::{PruneMode, RebalanceMode, RunConfig};
use crate::error::MegaswError;
use crate::partition::{make_slabs, make_slabs_excluding_with_weights, resplit_slabs, Slab};
use crate::stats::{
    DeviceReport, PruningReport, RebalanceReport, RecoveryReport, RunReport, StallAttribution,
    StallBreakdown,
};
use megasw_gpusim::Platform;
use megasw_obs::{
    FlightEvent, FlightKind, FlightRecorder, LiveTelemetry, ObsKind, ObsSpan, Recorder, StallPhase,
};
use megasw_sw::block::{skip_block, BlockInput};
use megasw_sw::border::{ColBorder, RowBorder};
use megasw_sw::cell::{BestCell, Score};
use megasw_sw::kernel::{self, Kernel, KernelSelection};
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

/// Deterministic fault injection for resilience tests: the given device
/// fails just before computing the given block-row.
///
/// This is the original single-fault form, kept for source compatibility;
/// it converts into a one-entry [`FaultSchedule`] with
/// [`FaultPhase::Compute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    pub device: usize,
    pub fail_at_block_row: usize,
}

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
    /// Just before launching the block-row's kernels (the [`FaultPlan`]
    /// semantics).
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

impl From<FaultPlan> for FaultSchedule {
    fn from(plan: FaultPlan) -> FaultSchedule {
        FaultSchedule {
            faults: vec![ScheduledFault {
                device: plan.device,
                block_row: plan.fail_at_block_row,
                phase: FaultPhase::Compute,
            }],
        }
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
    /// a single [`FaultPlan`] (legacy), a [`ScheduledFault`], or a whole
    /// [`FaultSchedule`] / `Vec<ScheduledFault>`.
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
        let flight = self.flight.clone();
        let dump = self.flight_dump.clone();
        let result = match self.recovery {
            None => run_pipeline_live(
                self.a,
                self.b,
                self.platform,
                &self.config,
                &self.faults,
                self.semantics,
                &self.observer,
                self.live.as_ref(),
                self.flight.as_ref(),
                self.control.as_deref(),
            )
            .map_err(MegaswError::from),
            Some(policy) => run_pipeline_segmented(
                self.a,
                self.b,
                self.platform,
                &self.config,
                &self.faults,
                Some(policy),
                self.semantics,
                &self.observer,
                self.live.as_ref(),
                self.flight.as_ref(),
                self.control.as_deref(),
            )
            .map_err(MegaswError::from),
        };
        if let (Some(fr), Some(path)) = (&flight, &dump) {
            // Best-effort: a failing dump must not mask the run's result.
            let _ = fr.dump_to(path);
        }
        result
    }
}

struct DevicePartial {
    best: BestCell,
    /// Matrix cells this worker *covered* (computed or skipped): its slab
    /// width times the rows it executed. This is what the coverage
    /// invariant in `assemble_report` sums.
    cells: u128,
    /// Cells inside tiles the pruning bound skipped (subset of `cells`).
    cells_skipped: u128,
    tiles_pruned: u64,
    tiles_total: u64,
    /// The worker's final pruning watermark (0 when pruning is off).
    watermark: Score,
    bytes_sent: u64,
    /// Kernel-activity envelope in recorder time, for stall accounting.
    first_kernel_start_ns: u64,
    last_kernel_end_ns: u64,
    busy_ns: u64,
    /// Fine-grained phase clocks for [`StallAttribution`].
    wait_input_ns: u64,
    wait_output_ns: u64,
    checkpoint_ns: u64,
    prune_skip_ns: u64,
    simd_rescue_ns: u64,
    /// SIMD→scalar rescues this worker's thread triggered.
    simd_rescues: u64,
}

impl DevicePartial {
    /// Fold the phase clocks of the same device's `earlier` completed
    /// segment into this one, so a segmented run's report attributes the
    /// device's whole makespan rather than its last segment only. Cells
    /// and pruning counts stay per-attempt: the coverage identity in
    /// `assemble_report` counts earlier segments through the checkpoint.
    fn carry(&mut self, earlier: &DevicePartial) {
        if earlier.busy_ns > 0 {
            self.first_kernel_start_ns = earlier.first_kernel_start_ns;
        }
        self.busy_ns += earlier.busy_ns;
        self.wait_input_ns += earlier.wait_input_ns;
        self.wait_output_ns += earlier.wait_output_ns;
        self.checkpoint_ns += earlier.checkpoint_ns;
        self.prune_skip_ns += earlier.prune_skip_ns;
        self.simd_rescue_ns += earlier.simd_rescue_ns;
    }
}

/// The engine behind the builder, with optional in-flight telemetry. Live
/// device indices are chain positions (slab
/// order); indices past the handle's capacity are silently dropped by the
/// handle itself, so a handle sized for the platform also works when slabs
/// are dropped on small matrices.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_pipeline_live(
    a: &[u8],
    b: &[u8],
    platform: &Platform,
    config: &RunConfig,
    faults: &FaultSchedule,
    semantics: Semantics,
    obs: &Recorder,
    live: Option<&Arc<LiveTelemetry>>,
    flight: Option<&Arc<FlightRecorder>>,
    control: Option<&RunControl>,
) -> Result<RunReport, PipelineError> {
    config.validate().map_err(PipelineError::InvalidConfig)?;
    // Rebalance-enabled runs execute in checkpoint-bounded segments; the
    // segmented driver owns that loop (with no recovery policy attached a
    // fault still fails fast). This keeps every entry point — the builder
    // and the stage-1/stage-2 drivers in `stages` — on one code path.
    if config.policy.rebalance.is_enabled() {
        return run_pipeline_segmented(
            a, b, platform, config, faults, None, semantics, obs, live, flight, control,
        );
    }
    if cancelled(control) {
        return Err(PipelineError::Cancelled);
    }
    let kernel = kernel::select(config.policy.dispatch).map_err(PipelineError::InvalidConfig)?;
    let selection = KernelSelection {
        dispatch: config.policy.dispatch,
        resolved: kernel.id(),
    };
    let m = a.len();
    let n = b.len();
    let slabs = make_slabs(n, config.block_w, platform, &config.policy.partition);
    let prune_mode = effective_prune_mode(config, semantics);

    if m == 0 || slabs.is_empty() {
        return Ok(empty_report(
            m, n, platform, &slabs, prune_mode, None, None, selection,
        ));
    }

    let rows = m.div_ceil(config.block_h);
    // All stall accounting is relative to this instant, on the recorder's
    // clock, so spans and the stall envelope share one timebase.
    let run_start_ns = obs.now_ns();
    let outcome = run_attempt(AttemptParams {
        a,
        b,
        slabs: &slabs,
        rows,
        start_row: 0,
        stop_row: rows,
        config,
        kernel,
        faults,
        semantics,
        obs,
        live,
        flight,
        resume: None,
        ckpt: None,
        control,
    });
    let wall_ns = obs.now_ns().saturating_sub(run_start_ns);
    let partials = collect_attempt(outcome.results).map_err(|f| f.error)?;
    Ok(assemble_report(
        m,
        n,
        platform,
        &slabs,
        &partials,
        &outcome.ring_stats,
        wall_ns,
        run_start_ns,
        BestCell::ZERO,
        0,
        prune_mode,
        None,
        None,
        selection,
    ))
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

/// The segmented driver behind [`PipelineRun::recover`] and
/// [`RebalanceMode::On`] — fault recovery and live rebalancing are the same
/// loop over checkpoint-bounded attempts.
///
/// Each attempt executes the pipeline from `start_row` up to `stop_row`
/// over the current slab set while the workers deposit border checkpoints
/// on the cadence of `config.policy.checkpoint`.
///
/// **Recovery** (when a policy is attached): on a device fault the failed
/// device is blacklisted, its columns are repartitioned across the
/// survivors ([`make_slabs_excluding_with_weights`] — measured throughput
/// for `Proportional`, calibrated once per run and cached), the run rewinds
/// to the newest complete checkpoint wave and resumes from its reassembled
/// border. Gives up — surfacing the original fault — when the failure
/// budget is exhausted or no survivor remains.
///
/// **Rebalance** (when `config.policy.rebalance` is on): the run is cut
/// into segments of `window_waves × checkpoint-interval` block-rows; every
/// segment boundary lands on the checkpoint cadence, so the boundary wave
/// is complete the moment the workers join. The controller measures each
/// device's *effective* throughput over the segment (covered cells — pruned
/// tiles count at their skip cost — per busy nanosecond), predicts the
/// remaining makespan under the current widths vs. a proportional re-split,
/// and when the predicted improvement clears the hysteresis threshold it
/// migrates block-columns by resuming every worker from the boundary
/// checkpoint's full-width H/F border wave under new slab geometry. No
/// block-row is recomputed — the rewind is zero by construction — and
/// because the checkpointed lanes are exact, scores stay **bit-identical**
/// to a static split.
///
/// Both mechanisms compose: a fault mid-segment takes the recovery path,
/// and later boundaries keep rebalancing the survivors.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_pipeline_segmented(
    a: &[u8],
    b: &[u8],
    platform: &Platform,
    config: &RunConfig,
    faults: &FaultSchedule,
    recovery: Option<RecoveryPolicy>,
    semantics: Semantics,
    obs: &Recorder,
    live: Option<&Arc<LiveTelemetry>>,
    flight: Option<&Arc<FlightRecorder>>,
    control: Option<&RunControl>,
) -> Result<RunReport, PipelineError> {
    config.validate().map_err(PipelineError::InvalidConfig)?;
    let kernel = kernel::select(config.policy.dispatch).map_err(PipelineError::InvalidConfig)?;
    let selection = KernelSelection {
        dispatch: config.policy.dispatch,
        resolved: kernel.id(),
    };
    let Some(interval) = config.policy.checkpoint.rows_interval() else {
        return Err(PipelineError::InvalidConfig(
            "recovery requires a checkpoint cadence (policy.checkpoint must not be Disabled)"
                .to_string(),
        ));
    };
    let m = a.len();
    let n = b.len();
    let mut slabs = make_slabs(n, config.block_w, platform, &config.policy.partition);
    let prune_mode = effective_prune_mode(config, semantics);
    let rb_mode = config.policy.rebalance;
    if m == 0 || slabs.is_empty() {
        return Ok(empty_report(
            m,
            n,
            platform,
            &slabs,
            prune_mode,
            recovery.map(|_| RecoveryReport::default()),
            rb_mode.is_enabled().then(RebalanceReport::default),
            selection,
        ));
    }

    let rows = m.div_ceil(config.block_h);
    let block_h = config.block_h;
    // Cells in rows < `row` over the full width — the work a checkpoint at
    // wave `row` preserves.
    let cells_at = |row: usize| ((row * block_h).min(m) as u128) * n as u128;
    // Segment length in block-rows: a multiple of the checkpoint interval,
    // so every boundary wave is deposited by the regular cadence check.
    // `Off` runs one segment spanning the whole matrix.
    let (rb_threshold, seg_rows) = match rb_mode {
        RebalanceMode::Off => (f64::INFINITY, rows),
        RebalanceMode::On {
            threshold,
            window_waves,
        } => (threshold, (interval * window_waves).min(rows)),
    };

    let store = CheckpointStore::new(n);
    let mut blacklist: Vec<usize> = Vec::new();
    let mut start_row = 0usize;
    let mut resume: Option<Checkpoint> = None;
    let mut recovery_report = RecoveryReport::default();
    let mut rebalance_report = RebalanceReport::default();
    let mut failures = 0usize;
    // Calibrated per-device weights for `Proportional` repartitioning:
    // probed at most once per run, then reused by every recovery
    // (re-probing on each attempt was measurable overhead on fault-dense
    // schedules).
    let mut calibrated: Option<Vec<f64>> = None;
    // Each device's phase clocks over the segments completed so far, by
    // platform index. A failed attempt's clocks are never carried: lost
    // work lands in `other`.
    let mut carried: Vec<Option<DevicePartial>> = (0..platform.len()).map(|_| None).collect();
    let run_start_ns = obs.now_ns();

    loop {
        // Workers poll the control at every block-row; checking here too
        // skips spawning an attempt that would stop at its first row.
        if cancelled(control) {
            return Err(PipelineError::Cancelled);
        }
        // Smallest segment boundary strictly past `start_row` (a resumed
        // attempt may start mid-segment after a fault rewind), clamped to
        // the matrix.
        let stop_row = ((start_row / seg_rows + 1) * seg_rows).min(rows);
        let geoms: Vec<(usize, usize)> = slabs.iter().map(|s| (s.j0, s.width)).collect();
        let base_best = resume.as_ref().map_or(BestCell::ZERO, |c| c.best);
        let attempt = store.begin_attempt(start_row, base_best, &geoms);
        let outcome = run_attempt(AttemptParams {
            a,
            b,
            slabs: &slabs,
            rows,
            start_row,
            stop_row,
            config,
            kernel,
            faults,
            semantics,
            obs,
            live,
            flight,
            resume: resume.as_ref(),
            ckpt: Some(CkptCtx {
                store: &store,
                attempt,
                interval,
            }),
            control,
        });
        match collect_attempt(outcome.results) {
            Ok(mut partials) => {
                // This segment's own effective throughput per device, read
                // before the earlier segments' clocks are folded in.
                let rates: Vec<f64> = partials
                    .iter()
                    .map(|p| p.cells as f64 / p.busy_ns.max(1) as f64)
                    .collect();
                for (slab, p) in slabs.iter().zip(partials.iter_mut()) {
                    if let Some(earlier) = carried[slab.device].take() {
                        p.carry(&earlier);
                    }
                }
                if stop_row >= rows {
                    let wall_ns = obs.now_ns().saturating_sub(run_start_ns);
                    recovery_report.checkpoints_taken = store.checkpoints_taken();
                    return Ok(assemble_report(
                        m,
                        n,
                        platform,
                        &slabs,
                        &partials,
                        &outcome.ring_stats,
                        wall_ns,
                        run_start_ns,
                        base_best,
                        cells_at(start_row),
                        prune_mode,
                        recovery.map(|_| recovery_report),
                        rb_mode.is_enabled().then_some(rebalance_report),
                        selection,
                    ));
                }
                for (slab, p) in slabs.iter().zip(partials) {
                    carried[slab.device] = Some(p);
                }

                // Segment boundary: every worker deposited wave `stop_row`
                // (a cadence multiple below `rows`) and then joined, so the
                // newest complete checkpoint *is* the boundary — resuming
                // from it recomputes nothing.
                let rb_start_ns = obs.now_ns();
                rebalance_report.evaluations += 1;
                // Predicted time to finish the remaining rows (common
                // factors dropped): the laggard under current widths vs. a
                // split proportional to measured throughput.
                let t_static = slabs
                    .iter()
                    .zip(&rates)
                    .map(|(s, &r)| s.width as f64 / r)
                    .fold(0.0_f64, f64::max);
                let t_balanced = n as f64 / rates.iter().sum::<f64>();
                let improvement = 1.0 - t_balanced / t_static;
                if improvement >= rb_threshold {
                    let devices: Vec<usize> = slabs.iter().map(|s| s.device).collect();
                    let new_slabs = resplit_slabs(n, config.block_w, &devices, &rates);
                    // Columns changing hands: half the total width delta
                    // (every column lost by one device is gained by
                    // another).
                    let moved = new_slabs
                        .iter()
                        .map(|ns| {
                            let old = slabs
                                .iter()
                                .find(|s| s.device == ns.device)
                                .map_or(0, |s| s.width);
                            ns.width.abs_diff(old)
                        })
                        .sum::<usize>()
                        / 2;
                    if moved > 0 {
                        rebalance_report.migrations += 1;
                        rebalance_report.moved_columns += moved as u64;
                        rebalance_report.applied_at_rows.push(stop_row);
                        slabs = new_slabs;
                        // Workers have joined, so the coordinator is the
                        // sole writer on every flight lane here.
                        if let Some(fr) = flight {
                            for (s_idx, slab) in slabs.iter().enumerate() {
                                fr.record(
                                    s_idx,
                                    FlightEvent {
                                        kind: FlightKind::Rebalance,
                                        device: slab.device as u32,
                                        row: stop_row as u64,
                                        t_ns: obs.now_ns(),
                                        dur_ns: 0,
                                        aux: slab.width as u64,
                                    },
                                );
                            }
                        }
                    }
                }
                obs.record_since(ObsKind::Rebalance, None, Some(stop_row as u32), rb_start_ns);
                let ck = store
                    .newest_complete()
                    .expect("completed segment deposited its boundary wave");
                debug_assert_eq!(ck.wave, stop_row, "segment hand-off must be rewind-free");
                start_row = stop_row;
                resume = Some(ck);
            }
            Err(failure) => {
                // Only device faults are recoverable, and only when a
                // recovery policy is attached; rebalance-only runs keep
                // fail-fast fault semantics.
                let Some(policy) = recovery else {
                    return Err(failure.error);
                };
                let PipelineError::DeviceFault { device, block_row } = failure.error else {
                    return Err(failure.error);
                };
                failures += 1;
                if failures > policy.max_device_failures {
                    return Err(failure.error);
                }
                let rec_start_ns = obs.now_ns();
                blacklist.push(device);
                let measured = match &config.policy.partition {
                    crate::config::PartitionPolicy::Proportional => Some(
                        calibrated
                            .get_or_insert_with(|| crate::balance::default_weights(platform))
                            .as_slice(),
                    ),
                    _ => None,
                };
                let survivors = make_slabs_excluding_with_weights(
                    n,
                    config.block_w,
                    platform,
                    &config.policy.partition,
                    &blacklist,
                    measured,
                );
                if survivors.is_empty() {
                    return Err(failure.error);
                }
                let ck = store.newest_complete();
                let new_start = ck.as_ref().map_or(0, |c| c.wave);
                // Work lost to the rewind: everything this attempt computed
                // beyond what the checkpoint wave preserves.
                let preserved = cells_at(new_start).saturating_sub(cells_at(start_row));
                recovery_report.rewound_cells += failure.cells.saturating_sub(preserved);
                recovery_report.recoveries += 1;
                recovery_report.failed_devices.push(device);
                recovery_report.resumed_from_rows.push(new_start);
                if let Some(live) = live {
                    live.on_recovery();
                }
                obs.record_since(
                    ObsKind::Recovery,
                    Some(device as u32),
                    Some(block_row as u32),
                    rec_start_ns,
                );
                slabs = survivors;
                start_row = new_start;
                resume = ck;
            }
        }
    }
}

/// Everything one attempt needs; bundled so the recovery driver and the
/// fail-fast path share the exact same execution code.
struct AttemptParams<'e> {
    a: &'e [u8],
    b: &'e [u8],
    slabs: &'e [Slab],
    rows: usize,
    start_row: usize,
    /// Block-row to stop before: `rows` for a run-to-completion attempt, a
    /// checkpoint-cadence multiple for a rebalance segment.
    stop_row: usize,
    config: &'e RunConfig,
    /// The DP engine resolved from `config.policy.dispatch`, once, up
    /// front — workers never probe CPU features themselves.
    kernel: &'static dyn Kernel,
    faults: &'e FaultSchedule,
    semantics: Semantics,
    obs: &'e Recorder,
    live: Option<&'e Arc<LiveTelemetry>>,
    flight: Option<&'e Arc<FlightRecorder>>,
    /// Checkpoint to resume from (tops are sliced out of its lanes).
    resume: Option<&'e Checkpoint>,
    /// Where workers deposit checkpoints, when recovery is enabled.
    ckpt: Option<CkptCtx<'e>>,
    /// Cancel/park control, polled by every worker per row.
    control: Option<&'e RunControl>,
}

#[derive(Clone, Copy)]
struct CkptCtx<'e> {
    store: &'e CheckpointStore,
    attempt: usize,
    interval: usize,
}

/// A worker's failure, carrying how many cells it computed before dying so
/// the rewind accounting stays exact.
struct WorkerFailure {
    error: PipelineError,
    cells: u128,
}

/// An attempt's failure: the root-cause error plus the cells the whole
/// attempt computed (all workers, finished or not).
struct AttemptFailure {
    error: PipelineError,
    cells: u128,
}

struct AttemptOutcome {
    results: Vec<Result<DevicePartial, WorkerFailure>>,
    ring_stats: Vec<RingStats>,
}

/// Spawn one worker per slab and run block-rows `start_row..rows` over the
/// given slab set. Rings are per-attempt; a failed worker poisons its
/// neighbours' rings so the failure propagates instead of deadlocking.
fn run_attempt(p: AttemptParams<'_>) -> AttemptOutcome {
    let rings: Vec<CircularBuffer<BorderMsg>> = (0..p.slabs.len().saturating_sub(1))
        .map(|_| CircularBuffer::with_capacity(p.config.buffer_capacity))
        .collect();

    // The low-frequency side channel of distributed pruning: every worker
    // publishes its watermark here once per block-row and folds it back in
    // once per block-row, carrying best scores between *non-adjacent*
    // devices (ring piggybacking only reaches the right-hand neighbour).
    // Seeded from the resume checkpoint so pruning composes with recovery.
    let global_watermark = AtomicI32::new(p.resume.map_or(0, |ck| ck.watermark));

    if let Some(live) = p.live {
        for (s_idx, ring) in rings.iter().enumerate() {
            if let Some(gauge) = live.ring_gauge(s_idx) {
                ring.attach_occupancy_gauge(gauge);
            }
        }
        for s_idx in 0..p.slabs.len() {
            live.set_rows_total(s_idx, p.rows as u64);
        }
    }

    let results: Vec<Result<DevicePartial, WorkerFailure>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p.slabs.len());
        for (s_idx, slab) in p.slabs.iter().enumerate() {
            let ring_in = if s_idx > 0 {
                Some(&rings[s_idx - 1])
            } else {
                None
            };
            let ring_out = rings.get(s_idx);
            let p = &p;
            let global_watermark = &global_watermark;
            handles.push(scope.spawn(move || {
                let result = device_worker(WorkerParams {
                    a: p.a,
                    b: p.b,
                    slab: *slab,
                    s_idx,
                    rows: p.rows,
                    start_row: p.start_row,
                    stop_row: p.stop_row,
                    config: p.config,
                    kernel: p.kernel,
                    ring_in,
                    ring_out,
                    faults: p.faults,
                    semantics: p.semantics,
                    obs: p.obs,
                    live: p.live,
                    flight: p.flight,
                    resume: p.resume,
                    ckpt: p.ckpt,
                    control: p.control,
                    global_watermark,
                });
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
    results: Vec<Result<DevicePartial, WorkerFailure>>,
) -> Result<Vec<DevicePartial>, AttemptFailure> {
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
    Err(AttemptFailure {
        error: fault
            .or(cancel)
            .or(poison)
            .expect("failed attempt carries an error"),
        cells,
    })
}

/// Build the final [`RunReport`] from the last (successful) attempt, whose
/// partials already carry the phase clocks of earlier completed segments.
/// `base_best` / `base_cells` are what the resumed-from checkpoint already
/// established; zero for single-attempt runs.
#[allow(clippy::too_many_arguments)]
fn assemble_report(
    m: usize,
    n: usize,
    platform: &Platform,
    slabs: &[Slab],
    partials: &[DevicePartial],
    ring_stats: &[RingStats],
    wall_ns: u64,
    run_start_ns: u64,
    base_best: BestCell,
    base_cells: u128,
    prune_mode: PruneMode,
    recovery: Option<RecoveryReport>,
    rebalance: Option<RebalanceReport>,
    kernel: KernelSelection,
) -> RunReport {
    let best = partials.iter().fold(base_best, |acc, p| acc.merge(p.best));
    let total_cells = m as u128 * n as u128;
    debug_assert_eq!(
        base_cells + partials.iter().map(|p| p.cells).sum::<u128>(),
        total_cells,
        "checkpointed rows plus the final attempt must cover the matrix exactly"
    );
    let pruning = prune_mode.is_enabled().then(|| PruningReport {
        mode: prune_mode,
        tiles_pruned: partials.iter().map(|p| p.tiles_pruned).sum(),
        tiles_total: partials.iter().map(|p| p.tiles_total).sum(),
        cells_skipped: partials.iter().map(|p| p.cells_skipped).sum(),
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

    let devices = slabs
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
                p.busy_ns,
            );
            // Phase attribution over the whole run's makespan. A segmented
            // run's partials carry the clocks of every completed segment;
            // the lost attempts of a recovered run land in `other`.
            let attribution = StallAttribution::from_measured(
                wall_ns,
                p.busy_ns,
                p.wait_input_ns,
                p.wait_output_ns,
                p.checkpoint_ns,
                p.prune_skip_ns,
                p.simd_rescue_ns,
            );
            DeviceReport {
                device: slab.device,
                name: platform.devices[slab.device].name.clone(),
                slab_j0: slab.j0,
                slab_width: slab.width,
                cells: p.cells,
                bytes_sent: p.bytes_sent,
                ring_out: ring_stats.get(s_idx).copied(),
                wall_busy: Some(Duration::from_nanos(p.busy_ns)),
                sim_busy: None,
                sim_utilization: None,
                stall: Some(stall),
                attribution: Some(attribution),
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
        recovery,
        rebalance,
        kernel,
        simd_rescues: partials.iter().map(|p| p.simd_rescues).sum(),
    }
}

/// One worker's slice of an [`AttemptParams`].
struct WorkerParams<'e> {
    a: &'e [u8],
    b: &'e [u8],
    slab: Slab,
    s_idx: usize,
    rows: usize,
    start_row: usize,
    /// Exclusive upper bound of this attempt's block-rows (a segment
    /// boundary, or `rows` when the attempt runs to completion).
    stop_row: usize,
    config: &'e RunConfig,
    kernel: &'static dyn Kernel,
    ring_in: Option<&'e CircularBuffer<BorderMsg>>,
    ring_out: Option<&'e CircularBuffer<BorderMsg>>,
    faults: &'e FaultSchedule,
    semantics: Semantics,
    obs: &'e Recorder,
    live: Option<&'e Arc<LiveTelemetry>>,
    flight: Option<&'e Arc<FlightRecorder>>,
    resume: Option<&'e Checkpoint>,
    ckpt: Option<CkptCtx<'e>>,
    control: Option<&'e RunControl>,
    /// Shared watermark for non-adjacent devices (distributed pruning).
    global_watermark: &'e AtomicI32,
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
fn device_worker(p: WorkerParams<'_>) -> Result<DevicePartial, WorkerFailure> {
    let WorkerParams {
        a,
        b,
        slab,
        s_idx,
        rows,
        start_row,
        stop_row,
        config,
        kernel,
        ring_in,
        ring_out,
        faults,
        semantics,
        obs,
        live,
        flight,
        resume,
        ckpt,
        control,
        global_watermark,
    } = p;
    let m = a.len();
    let n = b.len();
    let block_h = config.block_h;
    let block_w = config.block_w;
    let lane = slab.device as u32;
    let prune_mode = effective_prune_mode(config, semantics);

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
    let mut tops: Vec<RowBorder> = match resume {
        None => cols
            .iter()
            .map(|&(jc0, w)| match semantics {
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
    let mut busy_ns: u64 = 0;
    // Fine-grained phase clocks (StallAttribution). Rescue time is read
    // from the kernel crate's thread-local counters — this worker owns its
    // thread, so the deltas are exactly its own rescues.
    let mut wait_input_ns: u64 = 0;
    let mut wait_output_ns: u64 = 0;
    let mut checkpoint_ns: u64 = 0;
    let mut prune_skip_ns: u64 = 0;
    let rescues_base = kernel::simd_rescues_thread();
    let rescue_ns_base = kernel::simd_rescue_ns_thread();
    // One flight-recorder append per step; ~70 ns each, only when a
    // recorder is attached.
    let fly = |kind: FlightKind, row: u64, t_ns: u64, dur_ns: u64, aux: u64| {
        if let Some(fr) = flight {
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
        PruneMode::Local | PruneMode::Distributed => resume.map_or(0, |ck| ck.watermark),
    };

    // Fault events carry aux 0 = injected device fault, 1 = poisoned ring
    // observed from a dead neighbour.
    let die = |cells: u128, r: usize| {
        fly(FlightKind::Fault, r as u64, obs.now_ns(), 0, 0);
        WorkerFailure {
            error: PipelineError::DeviceFault {
                device: slab.device,
                block_row: r,
            },
            cells,
        }
    };
    let poisoned = |cells: u128, r: usize| {
        fly(FlightKind::Fault, r as u64, obs.now_ns(), 0, 1);
        WorkerFailure {
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

    for r in start_row..stop_row {
        let i0 = r * block_h + 1;
        let i1 = ((r + 1) * block_h).min(m) + 1;
        let height = i1 - i0;
        let row = r as u32;
        if let Err(error) = poll(control) {
            return Err(WorkerFailure { error, cells });
        }
        fly(FlightKind::RowStart, r as u64, obs.now_ns(), 0, 0);

        if faults.fires(slab.device, r, FaultPhase::RingPop) {
            return Err(die(cells, r));
        }

        // Under distributed pruning, fold the shared global watermark once
        // per block-row — a low-frequency side channel that lets knowledge
        // from non-adjacent devices tighten this worker's bound.
        if prune_mode == PruneMode::Distributed {
            watermark = watermark.max(global_watermark.load(Ordering::Relaxed));
        }

        let mut left: ColBorder = match ring_in {
            None => match semantics {
                Semantics::Local => ColBorder::zero(height),
                Semantics::Anchored => ColBorder::anchored(height, i0, &config.scheme),
            },
            Some(ring) => {
                let wait_start = obs.now_ns();
                let popped = ring.pop();
                let wait_end = obs.now_ns().max(wait_start);
                obs.record_since(ObsKind::RingPopWait, Some(lane), Some(row), wait_start);
                wait_input_ns += wait_end - wait_start;
                if let Some(live) = live {
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

        if faults.fires(slab.device, r, FaultPhase::Compute) {
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
                    prune_skip_ns += skip_ns;
                    if let Some(live) = live {
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
            let out = match semantics {
                Semantics::Local => kernel.block(input, &config.scheme),
                Semantics::Anchored => kernel.block_anchored(input, &config.scheme),
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
        busy_ns += kernel_end - kernel_start;
        fly(
            FlightKind::Compute,
            r as u64,
            kernel_end,
            kernel_end - kernel_start,
            cols.len() as u64,
        );
        if let Some(live) = live {
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
        if let Some(ck) = ckpt {
            let wave = r + 1;
            if wave % ck.interval == 0 && wave < rows {
                let ckpt_start = obs.now_ns();
                ck_h.clear();
                ck_f.clear();
                ck_h.push(tops[0].h[0]);
                ck_f.push(tops[0].f[0]);
                for t in &tops {
                    ck_h.extend_from_slice(&t.h[1..]);
                    ck_f.extend_from_slice(&t.f[1..]);
                }
                ck.store
                    .record(ck.attempt, wave, s_idx, &ck_h, &ck_f, best, watermark);
                let ckpt_ns = obs.now_ns().max(ckpt_start) - ckpt_start;
                checkpoint_ns += ckpt_ns;
                if let Some(live) = live {
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

        if faults.fires(slab.device, r, FaultPhase::RingPush) {
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
            wait_output_ns += push_end - push_start;
            if let Some(live) = live {
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

        if faults.fires(slab.device, r, FaultPhase::Transfer) {
            return Err(die(cells, r));
        }
    }

    if let Some(ring) = ring_out {
        ring.close();
    }

    Ok(DevicePartial {
        best,
        cells,
        cells_skipped,
        tiles_pruned,
        tiles_total,
        watermark,
        bytes_sent,
        first_kernel_start_ns: first_kernel_start_ns.unwrap_or(0),
        last_kernel_end_ns,
        busy_ns,
        wait_input_ns,
        wait_output_ns,
        checkpoint_ns,
        prune_skip_ns,
        simd_rescue_ns: kernel::simd_rescue_ns_thread().saturating_sub(rescue_ns_base),
        simd_rescues: kernel::simd_rescues_thread().saturating_sub(rescues_base),
    })
}

#[allow(clippy::too_many_arguments)]
fn empty_report(
    m: usize,
    n: usize,
    platform: &Platform,
    slabs: &[Slab],
    prune_mode: PruneMode,
    recovery: Option<RecoveryReport>,
    rebalance: Option<RebalanceReport>,
    kernel: KernelSelection,
) -> RunReport {
    RunReport {
        best: BestCell::ZERO,
        total_cells: m as u128 * n as u128,
        wall_time: Some(std::time::Duration::ZERO),
        gcups_wall: Some(0.0),
        sim_time: None,
        gcups_sim: None,
        devices: slabs
            .iter()
            .map(|slab| DeviceReport {
                device: slab.device,
                name: platform.devices[slab.device].name.clone(),
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
        pruning: prune_mode.is_enabled().then_some(PruningReport {
            mode: prune_mode,
            tiles_pruned: 0,
            tiles_total: 0,
            cells_skipped: 0,
            watermark_lag: 0,
        }),
        recovery,
        rebalance,
        kernel,
        simd_rescues: 0,
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
        let fault = FaultPlan {
            device: 1,
            fail_at_block_row: 5,
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
            .faults(FaultPlan {
                device: 0,
                fail_at_block_row: 0,
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
            .faults(FaultPlan {
                device: 1,
                fail_at_block_row: 10,
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
            .faults(FaultPlan {
                device: 1,
                fail_at_block_row: 12,
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
            .faults(FaultPlan {
                device: 0,
                fail_at_block_row: 3,
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
        // Legacy FaultPlan converts to a compute-phase fault.
        let from_plan = FaultSchedule::from(FaultPlan {
            device: 1,
            fail_at_block_row: 5,
        });
        assert_eq!(from_plan.faults[0].phase, FaultPhase::Compute);
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
            .faults(FaultPlan {
                device: 1,
                fail_at_block_row: 5,
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
            .faults(FaultPlan {
                device: 0,
                fail_at_block_row: 0,
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
            .faults(FaultPlan {
                device: 1,
                fail_at_block_row: 5,
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
            .faults(FaultPlan {
                device: 1,
                fail_at_block_row: 10,
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
            .faults(FaultPlan {
                device: 1,
                fail_at_block_row: 9,
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
        let plain = run_local(a.codes(), b.codes(), &platform, RunConfig::test_default());
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
        let (a, b) = pair(4_096, 63);
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
