//! Discrete-event execution of the pipeline schedule.
//!
//! This module hands the *exact same* block-level dataflow that
//! [`crate::pipeline`] executes on CPU threads to the deterministic
//! schedule engine in `megasw-gpusim`, with durations taken from the
//! calibrated device and link models. The output is the paper-comparable
//! performance picture: simulated GCUPS, per-device utilization and the
//! sensitivity to circular-buffer capacity.
//!
//! ## Task graph
//!
//! For slab `s` and block-row `r`:
//!
//! * `K[s][r]` — a kernel launch on device `s`'s compute stream covering
//!   the whole block-row (parallel width = the slab's tile columns).
//!   Depends on `T[s−1][r]` (its left border arriving); FIFO ordering
//!   supplies the `K[s][r−1]` dependency.
//! * `T[s][r]` — the border transfer on the link between `s` and `s + 1`.
//!   Depends on `K[s][r]` (the border exists) and, for **backpressure**, on
//!   `K[s+1][r − capacity]` (a ring slot is free only once the consumer has
//!   retired an older border). This models the circular buffer one row
//!   conservatively (slot freed at the consuming kernel's *finish*), which
//!   slightly understates tiny capacities and leaves the ≥ 2 shape intact.
//!
//! ## Bulk-synchronous variant
//!
//! [`run_des_bulk`] removes the fine-grain pipelining: device `s + 1` may
//! start only after device `s` has finished its whole slab and shipped the
//! entire border column in one transfer. This is the non-overlapped
//! baseline the overlap-ablation figure contrasts against.

use crate::balance::plan_rebalance;
use crate::checkpoint::{recovery_interval, RecoveryPolicy};
use crate::config::{PruneMode, RebalanceMode, RunConfig};
use crate::partition::{make_slabs, survivor_slabs, Slab};
use crate::pipeline::{FaultPhase, FaultSchedule, PipelineError};
use crate::stats::{
    DeviceReport, PhaseClocks, PruningReport, RebalanceReport, RecoveryReport, RunReport,
    StallAttribution,
};
use megasw_gpusim::{
    ClockDrift, KernelModel, Platform, ResourceId, Schedule, SimTime, SpanKind, TaskId,
};
use megasw_obs::{LiveTelemetry, ObsKind, ObsSpan, Recorder, StallPhase};
use std::sync::Arc;

// The stall accounting moved to `stats` so both backends share one type;
// re-exported here for the old import path.
pub use crate::stats::StallBreakdown;

/// Border payload in bytes for a segment of the given height: `H` and `E`
/// lanes, `(height + 1)` entries each, 4 bytes per entry (mirrors
/// [`megasw_sw::border::ColBorder::transfer_bytes`]).
fn border_bytes(height: usize) -> u64 {
    2 * (height as u64 + 1) * 4
}

/// A device dropping out of the simulated chain (fault injection): which
/// device, at which block-row, and at which simulated instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceLossEvent {
    pub device: usize,
    pub block_row: usize,
    /// Simulated time of the loss, on the run's cumulative clock (offsets
    /// from earlier recovered attempts included).
    pub at: SimTime,
}

/// A completed simulation: the report plus the raw schedule for trace
/// analysis (Gantt rendering, span statistics), the per-device memory
/// verdict and the idle-time breakdown.
pub struct DesRun {
    pub report: RunReport,
    /// The final graph's schedule. Segmented and recovered runs rebuild the
    /// task graph per segment or attempt; earlier schedules are folded into
    /// the time offset and are not retained.
    pub schedule: Schedule,
    /// Per-slab memory footprints, or the first device that does not fit.
    pub memory: Result<Vec<crate::memory::DeviceMemoryPlan>, crate::memory::MemoryError>,
    /// Per-slab idle breakdown, in slab order (final graph).
    pub stalls: Vec<StallBreakdown>,
    /// Every injected device loss, in simulated-time order. Pair with
    /// [`megasw_gpusim::SpanKind::DeviceLoss`] when rendering Gantt charts.
    pub losses: Vec<DeviceLossEvent>,
    /// `Some` when the simulated run did not complete: a fault fired with
    /// recovery disabled, the failure budget was exhausted, or no survivor
    /// remained — the DES mirror of the threaded pipeline returning `Err`.
    pub aborted: Option<PipelineError>,
}

/// Builder for one discrete-event simulation — the simulated-time mirror of
/// [`crate::pipeline::PipelineRun`].
///
/// ```
/// use megasw_multigpu::desrun::DesSim;
/// use megasw_multigpu::config::RunConfig;
/// use megasw_gpusim::Platform;
///
/// let run = DesSim::new(1 << 20, 1 << 20, &Platform::env2())
///     .config(RunConfig::paper_default())
///     .run();
/// assert!(run.report.gcups_sim.unwrap() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct DesSim<'a> {
    m: usize,
    n: usize,
    platform: &'a Platform,
    config: RunConfig,
    bulk: bool,
    faults: FaultSchedule,
    recovery: Option<RecoveryPolicy>,
    observer: Recorder,
    live: Option<Arc<LiveTelemetry>>,
    identity: f64,
    drifts: Vec<ClockDrift>,
}

impl<'a> DesSim<'a> {
    /// Simulate an `m × n` matrix on `platform`. Defaults:
    /// [`RunConfig::paper_default`], fine-grain pipelining, no observer.
    pub fn new(m: usize, n: usize, platform: &'a Platform) -> DesSim<'a> {
        DesSim {
            m,
            n,
            platform,
            config: RunConfig::paper_default(),
            bulk: false,
            faults: FaultSchedule::default(),
            recovery: None,
            observer: Recorder::disabled(),
            live: None,
            identity: 0.25,
            drifts: Vec::new(),
        }
    }

    /// Block geometry, ring capacity, partition policy and score scheme.
    pub fn config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Simulate the bulk-synchronous (non-overlapped) baseline instead of
    /// the fine-grain pipeline.
    pub fn bulk(mut self, bulk: bool) -> Self {
        self.bulk = bulk;
        self
    }

    /// Inject a deterministic fault schedule, mirroring
    /// [`crate::pipeline::PipelineRun::faults`]. A `RingPop`/`Compute`
    /// fault fires at the simulated *start* of the victim kernel; a
    /// `RingPush`/`Transfer` fault at its *finish*. Fine-grain mode only —
    /// the bulk baseline ignores faults.
    pub fn faults(mut self, faults: impl Into<FaultSchedule>) -> Self {
        self.faults = faults.into();
        self
    }

    /// Enable simulated fault tolerance, mirroring
    /// [`crate::pipeline::PipelineRun::recover`]: on a device loss the
    /// schedule is rebuilt over the survivors from the newest complete
    /// checkpoint wave, and the lost attempt's simulated time is folded
    /// into the run's cumulative clock. The recovery pause itself is
    /// treated as free (host-side work, negligible next to the GPU
    /// timeline).
    pub fn recover(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Attach a span recorder; the simulator records `Kernel` and
    /// `BorderXfer` spans with **simulated-time** timestamps.
    pub fn observer(mut self, observer: Recorder) -> Self {
        self.observer = observer;
        self
    }

    /// Modeled sequence identity (fraction of matching bases along the main
    /// diagonal), in `[0, 1]`; drives the analytic pruning mirror when the
    /// config's [`PruneMode`] is enabled, and is ignored otherwise. The
    /// default (0.25) models unrelated DNA, where the diagonal score never
    /// grows and pruning finds nothing to skip.
    pub fn identity(mut self, q: f64) -> Self {
        self.identity = q.clamp(0.0, 1.0);
        self
    }

    /// Inject a deterministic clock-drift step: the device's effective
    /// clock is scaled by `drift.factor` from `drift.after_row` on (see
    /// [`ClockDrift`]). Models a board thermally throttling or a neighbour
    /// tenant stealing its PCIe/SM budget mid-run — the scenario the
    /// checkpoint-boundary rebalance controller exists for. Repeat to stack
    /// several drifts; factors multiply where they overlap.
    pub fn drift(mut self, drift: ClockDrift) -> Self {
        self.drifts.push(drift);
        self
    }

    /// Attach in-flight telemetry. Build the handle with
    /// [`LiveTelemetry::with_manual_clock`]: the simulator replays kernel
    /// completions in simulated-finish order, advancing the manual clock at
    /// each simulated-time boundary, so sampled GCUPS read in simulated
    /// seconds like the rest of the DES reporting. (The schedule solve
    /// itself is instantaneous; replay happens right after, which still
    /// exercises exactly the sampler/renderer path the threaded backend
    /// uses.)
    pub fn live(mut self, live: Arc<LiveTelemetry>) -> Self {
        self.live = Some(live);
        self
    }

    /// Execute the simulation.
    ///
    /// A configuration that [`RunConfig::validate`] rejects — or recovery
    /// without a checkpoint cadence — never reaches the simulator: the run
    /// comes back aborted with [`PipelineError::InvalidConfig`], as the
    /// threaded backend returns it.
    pub fn run(self) -> DesRun {
        let mode = if self.bulk {
            Mode::BulkSynchronous
        } else {
            Mode::FineGrain
        };
        let env = DesEnv {
            m: self.m,
            n: self.n,
            platform: self.platform,
            config: &self.config,
            mode,
            obs: &self.observer,
            live: self.live.as_ref(),
            // The bulk baseline never prunes: its whole-slab kernels have
            // no per-tile skip to model.
            prune_mode: if self.bulk {
                PruneMode::Off
            } else {
                self.config.policy.pruning
            },
            identity: self.identity,
            drifts: &self.drifts,
        };
        let mut st = Progress {
            slabs: Vec::new(),
            start_row: 0,
            offset: SimTime::ZERO,
            recovery: self.recovery.map(|_| RecoveryReport::default()),
            rebalance: (mode == Mode::FineGrain && self.config.policy.rebalance.is_enabled())
                .then(RebalanceReport::default),
            losses: Vec::new(),
            memory: Ok(Vec::new()),
        };
        let valid = self.config.validate().and_then(|()| match self.recovery {
            Some(_) => recovery_interval(&self.config).map(drop),
            None => Ok(()),
        });
        if let Err(msg) = valid {
            return stopped_run(
                &env,
                st,
                Schedule::new(),
                Some(PipelineError::InvalidConfig(msg)),
            );
        }
        st.slabs = make_slabs(
            self.n,
            self.config.block_w,
            self.platform,
            &self.config.policy.partition,
        );
        st.memory = crate::memory::check_platform(self.m, &st.slabs, self.platform, &self.config);
        if self.m == 0 || st.slabs.is_empty() {
            return stopped_run(&env, st, Schedule::new(), None);
        }
        // The bulk baseline is one fault-free segment.
        let no_faults = FaultSchedule::default();
        let faults = if self.bulk { &no_faults } else { &self.faults };
        simulate(&env, st, faults, self.recovery)
    }
}

/// Simulate the fine-grain pipeline for an `m × n` matrix on `platform`.
///
/// Pure timing — no DP cells are computed. Correctness of the schedule's
/// dataflow is established separately by the threaded runtime. Thin wrapper
/// over [`DesSim`].
pub fn run_des(m: usize, n: usize, platform: &Platform, config: &RunConfig) -> DesRun {
    DesSim::new(m, n, platform).config(config.clone()).run()
}

/// Simulate the bulk-synchronous (non-overlapped) baseline. Thin wrapper
/// over [`DesSim`] with `.bulk(true)`.
pub fn run_des_bulk(m: usize, n: usize, platform: &Platform, config: &RunConfig) -> DesRun {
    DesSim::new(m, n, platform)
        .config(config.clone())
        .bulk(true)
        .run()
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    FineGrain,
    BulkSynchronous,
}

/// The immutable context every simulated attempt shares.
struct DesEnv<'a> {
    m: usize,
    n: usize,
    platform: &'a Platform,
    config: &'a RunConfig,
    mode: Mode,
    obs: &'a Recorder,
    live: Option<&'a Arc<LiveTelemetry>>,
    /// Effective pruning mode ([`PruneMode::Off`] for the bulk baseline).
    prune_mode: PruneMode,
    /// Modeled sequence identity feeding the pruning mirror.
    identity: f64,
    /// Injected clock-drift steps; kernel durations are scaled by the
    /// product of every drift applying at (device, block-row).
    drifts: &'a [ClockDrift],
}

/// One slab-row's modeled pruning outcome.
#[derive(Debug, Default, Clone, Copy)]
struct RowPrune {
    pruned_tiles: u64,
    total_tiles: u64,
    /// Cells of tiles that still run (what the kernel duration models).
    computed_cells: u64,
    /// Cells covered by skipped tiles.
    skipped_cells: u64,
    /// Tile columns that still run (the kernel's parallel width).
    unpruned_blocks: u32,
}

/// Analytic mirror of the distributed pruning protocol for the timing-only
/// backend (DESIGN.md §10). The DES computes no DP cells, so it cannot
/// observe real scores; instead it models them: sequence identity `q` gives
/// an expected per-base score along the main diagonal
/// (`q·match + (1−q)·mismatch`, clamped at 0), the modeled best score grows
/// linearly along that diagonal, watermarks propagate with the protocol's
/// lag (own-slab observation immediately, the global side channel one
/// publish step late, in wavefront order), and a tile is pruned exactly
/// when the real bound test would prune it under those modeled scores.
/// Strictly inert at [`PruneMode::Off`]: `new` returns `None` and no
/// schedule duration changes.
struct PruneModel<'a> {
    m: usize,
    n: usize,
    block_h: usize,
    block_w: usize,
    match_score: f64,
    per_base: f64,
    mode: PruneMode,
    slabs: &'a [Slab],
    /// `published[t]`: modeled global watermark visible at wavefront step
    /// `t` (= slab index + block-row), already one publish step stale.
    published: Vec<f64>,
}

impl<'a> PruneModel<'a> {
    fn new(env: &DesEnv<'_>, slabs: &'a [Slab]) -> Option<PruneModel<'a>> {
        if !env.prune_mode.is_enabled() || env.m == 0 || slabs.is_empty() {
            return None;
        }
        let (m, n, config) = (env.m, env.n, env.config);
        let scheme = &config.scheme;
        let per_base = (env.identity * scheme.match_score as f64
            + (1.0 - env.identity) * scheme.mismatch_score as f64)
            .max(0.0);
        let rows = m.div_ceil(config.block_h);
        let steps = rows + slabs.len() + 1;
        let mut published = vec![0.0f64; steps];
        if env.prune_mode == PruneMode::Distributed {
            for r in 0..rows {
                let d = ((r + 1) * config.block_h).min(m).min(n);
                let owner = slabs
                    .iter()
                    .position(|s| d < s.j_end())
                    .unwrap_or(slabs.len() - 1);
                let t = owner + r + 1;
                if t < steps {
                    published[t] = published[t].max(per_base * d as f64);
                }
            }
            for t in 1..steps {
                published[t] = published[t].max(published[t - 1]);
            }
        }
        Some(PruneModel {
            m,
            n,
            block_h: config.block_h,
            block_w: config.block_w,
            match_score: scheme.match_score as f64,
            per_base,
            mode: env.prune_mode,
            slabs,
            published,
        })
    }

    /// The watermark slab `s` holds entering block-row `r`: what it has
    /// observed of the diagonal inside its own columns, plus (distributed
    /// mode) the stale global side channel.
    fn watermark(&self, s: usize, r: usize) -> f64 {
        let slab = &self.slabs[s];
        let dprev = (r * self.block_h).min(self.m).min(self.n);
        let own = if dprev >= slab.j0 {
            self.per_base * dprev.min(slab.j_end() - 1) as f64
        } else {
            0.0
        };
        if self.mode == PruneMode::Distributed {
            own.max(self.published[(s + r).min(self.published.len() - 1)])
        } else {
            own
        }
    }

    /// Modeled pruning outcome for slab `s`, block-row `r`, applying the
    /// real bound test tile by tile (incoming max modeled as 0 away from
    /// the diagonal band, unboundedly high inside it).
    fn row(&self, s: usize, r: usize) -> RowPrune {
        let slab = &self.slabs[s];
        let i0 = r * self.block_h + 1;
        let i1 = ((r + 1) * self.block_h).min(self.m);
        let height = (i1 + 1 - i0) as u64;
        let wm = self.watermark(s, r);
        let band_lo = i0.saturating_sub(self.block_h);
        let band_hi = i1 + self.block_h;
        let mut out = RowPrune::default();
        let mut j = slab.j0;
        while j < slab.j_end() {
            let w = self.block_w.min(slab.j_end() - j);
            out.total_tiles += 1;
            let near_diag = j <= band_hi && j + w > band_lo;
            let remaining = (self.m - (i0 - 1)).min(self.n - (j - 1)) as f64;
            if !near_diag && self.match_score * remaining < wm {
                out.pruned_tiles += 1;
                out.skipped_cells += height * w as u64;
            } else {
                out.unpruned_blocks += 1;
                out.computed_cells += height * w as u64;
            }
            j += w;
        }
        out
    }

    /// Run-level totals plus the modeled watermark lag.
    fn report(&self) -> PruningReport {
        let rows = self.m.div_ceil(self.block_h);
        let mut tiles_pruned = 0u64;
        let mut tiles_total = 0u64;
        let mut cells_skipped = 0u128;
        let mut min_wm = f64::INFINITY;
        for s in 0..self.slabs.len() {
            for r in 0..rows {
                let rp = self.row(s, r);
                tiles_pruned += rp.pruned_tiles;
                tiles_total += rp.total_tiles;
                cells_skipped += rp.skipped_cells as u128;
            }
            min_wm = min_wm.min(self.watermark(s, rows));
        }
        let best = self.per_base * self.m.min(self.n) as f64;
        PruningReport {
            mode: self.mode,
            tiles_pruned,
            tiles_total,
            cells_skipped,
            watermark_lag: (best - min_wm).max(0.0).round() as i64,
        }
    }
}

/// One attempt's scheduled task graph, before any reporting.
struct TaskGraph {
    schedule: Schedule,
    computes: Vec<ResourceId>,
    /// `kernel_tasks[s][r - start_row]` — kernels per slab, in row order.
    kernel_tasks: Vec<Vec<TaskId>>,
    transfer_tasks: Vec<Vec<TaskId>>,
    start_row: usize,
}

/// Build (and solve) the task graph for block-rows `start_row..end_row`
/// over the given slab set. Fault-free runs span `0..rows`; resumed
/// attempts start at the checkpoint wave; rebalance segments stop at the
/// next boundary.
fn build_task_graph(
    env: &DesEnv<'_>,
    slabs: &[Slab],
    start_row: usize,
    end_row: usize,
) -> TaskGraph {
    let (m, platform, config) = (env.m, env.platform, env.config);
    let mut schedule = Schedule::new();
    let nrows = end_row - start_row;
    let cap = config.buffer_capacity;

    let computes: Vec<_> = slabs
        .iter()
        .map(|s| schedule.add_resource(format!("gpu{} compute", s.device)))
        .collect();
    // Independent per-pair links, or one shared host bridge every border
    // transfer serializes through.
    let links: Vec<_> = if platform.bridge.is_some() {
        let shared = schedule.add_resource("host bridge");
        vec![shared; slabs.len().saturating_sub(1)]
    } else {
        (0..slabs.len().saturating_sub(1))
            .map(|i| {
                schedule.add_resource(format!("link {}→{}", slabs[i].device, slabs[i + 1].device))
            })
            .collect()
    };
    let models: Vec<KernelModel> = slabs
        .iter()
        .map(|s| KernelModel::new(platform.devices[s.device].clone()))
        .collect();

    // kernel_tasks[s][rel], transfer_tasks[s][rel] with rel = r − start_row
    let mut kernel_tasks: Vec<Vec<TaskId>> = vec![Vec::with_capacity(nrows); slabs.len()];
    let mut transfer_tasks: Vec<Vec<TaskId>> = vec![Vec::with_capacity(nrows); slabs.len()];

    let prune = PruneModel::new(env, slabs);

    match env.mode {
        Mode::FineGrain => {
            // Tasks are created along anti-diagonals of the (row, slab)
            // plane — the order in which they actually become ready. This
            // matters for FIFO resources shared by several slab pairs (the
            // host bridge): row-major creation would let a not-yet-ready
            // transfer from a deep pipeline stage block ready transfers
            // from earlier stages, which no real DMA arbiter does.
            // Per-resource orders for compute streams and per-pair links
            // are unchanged by this traversal.
            let g = slabs.len();
            for d in 0..nrows + g - 1 {
                // Kernels of this wavefront…
                for (s, slab) in slabs.iter().enumerate() {
                    let Some(rel) = d.checked_sub(s).filter(|rel| *rel < nrows) else {
                        continue;
                    };
                    let r = start_row + rel;
                    let height = row_height(m, config.block_h, r);
                    // A pruned tile costs no kernel time: the launch covers
                    // only the surviving tile columns.
                    let (blocks, cells) = match &prune {
                        Some(pm) => {
                            let rp = pm.row(s, r);
                            (rp.unpruned_blocks, rp.computed_cells)
                        }
                        None => (
                            slab.width.div_ceil(config.block_w) as u32,
                            height as u64 * slab.width as u64,
                        ),
                    };
                    let mut deps: Vec<TaskId> = Vec::with_capacity(1);
                    if s > 0 {
                        deps.push(transfer_tasks[s - 1][rel]);
                    }
                    let k = schedule.add_task(
                        computes[s],
                        &deps,
                        models[s].launch_time_scaled(
                            blocks,
                            cells,
                            drift_scale(env, slab.device, r),
                        ),
                        SpanKind::Kernel,
                        r as u64,
                    );
                    kernel_tasks[s].push(k);
                }
                // …then their outgoing transfers.
                for s in 0..g.saturating_sub(1) {
                    let Some(rel) = d.checked_sub(s).filter(|rel| *rel < nrows) else {
                        continue;
                    };
                    let r = start_row + rel;
                    let height = row_height(m, config.block_h, r);
                    let link = platform
                        .bridge
                        .unwrap_or_else(|| link_between_slabs(platform, slabs, s));
                    let mut tdeps = vec![kernel_tasks[s][rel]];
                    if rel >= cap {
                        // Backpressure: a ring slot frees once the consumer
                        // retires border rel − cap (rings are per-attempt,
                        // so the window is relative to the attempt start).
                        tdeps.push(kernel_tasks[s + 1][rel - cap]);
                    }
                    let t = schedule.add_task(
                        links[s],
                        &tdeps,
                        link.transfer_time(border_bytes(height)),
                        SpanKind::CopyOut,
                        r as u64,
                    );
                    transfer_tasks[s].push(t);
                }
            }
        }
        Mode::BulkSynchronous => {
            // Device s computes its whole slab as a dense run of kernels,
            // then ships the full border column in one transfer; device
            // s + 1 starts only after that arrives.
            debug_assert_eq!(start_row, 0, "bulk mode never resumes");
            let mut prev_arrival: Option<TaskId> = None;
            for (s, slab) in slabs.iter().enumerate() {
                let blocks = slab.width.div_ceil(config.block_w) as u32;
                let mut last_kernel = None;
                for r in 0..end_row {
                    let height = row_height(m, config.block_h, r);
                    let cells = height as u64 * slab.width as u64;
                    let deps: Vec<TaskId> = if r == 0 {
                        prev_arrival.into_iter().collect()
                    } else {
                        Vec::new()
                    };
                    let k = schedule.add_task(
                        computes[s],
                        &deps,
                        models[s].launch_time_scaled(
                            blocks,
                            cells,
                            drift_scale(env, slab.device, r),
                        ),
                        SpanKind::Kernel,
                        r as u64,
                    );
                    kernel_tasks[s].push(k);
                    last_kernel = Some(k);
                }
                if s + 1 < slabs.len() {
                    let link = platform
                        .bridge
                        .unwrap_or_else(|| link_between_slabs(platform, slabs, s));
                    let t = schedule.add_task(
                        links[s],
                        &[last_kernel.expect("rows >= 1")],
                        link.transfer_time(border_bytes(m)),
                        SpanKind::CopyOut,
                        0,
                    );
                    transfer_tasks[s].push(t);
                    prev_arrival = Some(t);
                }
            }
        }
    }

    TaskGraph {
        schedule,
        computes,
        kernel_tasks,
        transfer_tasks,
        start_row,
    }
}

/// Combined clock scale for `device` at block-row `r`: the product of
/// every injected drift step that applies (1.0 with none).
fn drift_scale(env: &DesEnv<'_>, device: usize, r: usize) -> f64 {
    env.drifts.iter().map(|d| d.scale_at(device, r)).product()
}

/// What the DES driver carries from one segment or attempt to the next:
/// the fields the threaded driver carries, plus the simulated clock.
struct Progress {
    slabs: Vec<Slab>,
    /// First block-row of the next graph.
    start_row: usize,
    /// Simulated time consumed by completed segments and lost attempts.
    offset: SimTime,
    /// `Some` when a recovery policy is attached.
    recovery: Option<RecoveryReport>,
    /// `Some` when rebalance is on (fine-grain mode only).
    rebalance: Option<RebalanceReport>,
    losses: Vec<DeviceLossEvent>,
    memory: Result<Vec<crate::memory::DeviceMemoryPlan>, crate::memory::MemoryError>,
}

/// The DES's one driver — the simulated-time twin of
/// [`crate::pipeline::PipelineRun`]'s loop over checkpoint-bounded
/// attempts. Each iteration:
///
/// 1. builds (and solves) the task graph from `start_row` to the next
///    segment boundary — `checkpoint interval × window_waves` block-rows
///    with rebalance on, the whole matrix otherwise;
/// 2. takes the earliest scheduled fault that applies to that graph and,
///    with a policy and budget, recovers: survivors repartition
///    ([`survivor_slabs`]) and the run rewinds to the newest complete
///    checkpoint wave — with every slab's checkpoint deposited at its
///    kernel's simulated finish, a wave is complete once min-over-slabs of
///    consecutively finished kernels reaches it. The lost attempt's time
///    up to the fault joins the cumulative offset; the recovery pause
///    itself is free. Otherwise the run aborts at the fault instant;
/// 3. finishes, if the boundary is the last row;
/// 4. otherwise runs the shared rebalance evaluation
///    ([`plan_rebalance`]) on each device's effective throughput over the
///    segment (covered cells, net of pruned tiles, per busy simulated
///    nanosecond). The hand-off is rewind-free: the next graph starts at
///    the boundary wave over the new slabs, exactly as the threaded
///    workers resume from the boundary checkpoint's full-width wave.
///
/// Rebalance and faults compose as they do in the threaded driver.
fn simulate(
    env: &DesEnv<'_>,
    mut st: Progress,
    faults: &FaultSchedule,
    policy: Option<RecoveryPolicy>,
) -> DesRun {
    let (m, n, config) = (env.m, env.n, env.config);
    let rows = m.div_ceil(config.block_h);
    // Validation guarantees a cadence whenever recovery or rebalance is on.
    let ck_rows = config
        .policy
        .checkpoint
        .rows_interval()
        .unwrap_or(usize::MAX);
    let (seg_rows, threshold) = match config.policy.rebalance {
        RebalanceMode::On {
            threshold,
            window_waves,
        } if st.rebalance.is_some() => ((ck_rows * window_waves).min(rows), threshold),
        _ => (rows, f64::INFINITY),
    };
    // Probed once, reused across every repartition of this run.
    let mut calibrated: Option<Vec<f64>> = None;

    loop {
        let stop_row = ((st.start_row / seg_rows + 1) * seg_rows).min(rows);
        let graph = build_task_graph(env, &st.slabs, st.start_row, stop_row);
        let blacklist = st
            .recovery
            .as_ref()
            .map_or(&[][..], |r| &r.failed_devices[..]);
        if let Some(fault) =
            earliest_fault(&graph, &st.slabs, faults, st.start_row, stop_row, blacklist)
        {
            match lose_device(env, &mut st, &graph, fault, policy, &mut calibrated) {
                Ok(()) => continue,
                Err(error) => return stopped_run(env, st, graph.schedule, Some(error)),
            }
        }
        if let Some(rec) = st.recovery.as_mut() {
            rec.checkpoints_taken +=
                deposited_waves(env, st.start_row, stop_row) * st.slabs.len() as u64;
        }
        if stop_row >= rows {
            return finalize(env, st, graph);
        }

        let makespan = graph.schedule.makespan();
        let rb = st
            .rebalance
            .as_mut()
            .expect("segment boundaries exist only when rebalancing");
        rb.evaluations += 1;
        // Effective throughput over the segment. The graph already priced
        // pruned tiles at zero kernel time, so covered cells must likewise
        // exclude them or a heavily-pruned slab would look faster than its
        // silicon.
        let prune = PruneModel::new(env, &st.slabs);
        let rates: Vec<f64> = st
            .slabs
            .iter()
            .enumerate()
            .map(|(s, slab)| {
                let cells: u64 = (st.start_row..stop_row)
                    .map(|r| match &prune {
                        Some(pm) => pm.row(s, r).computed_cells,
                        None => row_height(m, config.block_h, r) as u64 * slab.width as u64,
                    })
                    .sum();
                let busy = graph.schedule.busy_of(graph.computes[s]).as_nanos().max(1);
                cells as f64 / busy as f64
            })
            .collect();
        if let Some((slabs, moved)) =
            plan_rebalance(n, config.block_w, &st.slabs, &rates, threshold)
        {
            rb.migrations += 1;
            rb.moved_columns += moved as u64;
            rb.applied_at_rows.push(stop_row);
            if env.obs.is_enabled() {
                let at = (st.offset + makespan).as_nanos();
                env.obs.record(ObsSpan {
                    kind: ObsKind::Rebalance,
                    device: None,
                    block_row: Some(stop_row as u32),
                    start_ns: at,
                    end_ns: at,
                });
            }
            st.slabs = slabs;
        }
        st.offset += makespan;
        st.start_row = stop_row;
    }
}

/// A device loss at `fault` = (device, block-row, instant in `graph`):
/// record it, advance the clock to it, count the checkpoints the graph's
/// slabs deposited before it, and — with a policy and budget left and a
/// survivor to take the columns — rewind `st` to the newest complete wave
/// over the survivors. Otherwise return the fault that aborts the run.
fn lose_device(
    env: &DesEnv<'_>,
    st: &mut Progress,
    graph: &TaskGraph,
    (device, block_row, t_fail): (usize, usize, SimTime),
    policy: Option<RecoveryPolicy>,
    calibrated: &mut Option<Vec<f64>>,
) -> Result<(), PipelineError> {
    let (m, config) = (env.m, env.config);
    let rows = m.div_ceil(config.block_h);
    st.losses.push(DeviceLossEvent {
        device,
        block_row,
        at: st.offset + t_fail,
    });
    st.offset += t_fail;

    // Checkpoints this attempt deposited before the fault: one per slab per
    // cadence wave its kernels retired by t_fail. Also the rewind frontier:
    // a wave is complete once *every* slab has deposited it.
    let mut frontier = rows;
    let mut attempt_cells: u128 = 0;
    for (slab, tasks) in st.slabs.iter().zip(&graph.kernel_tasks) {
        let done = tasks
            .iter()
            .take_while(|&&k| graph.schedule.finish_of(k) <= t_fail)
            .count();
        for r in st.start_row..st.start_row + done {
            attempt_cells += row_height(m, config.block_h, r) as u128 * slab.width as u128;
        }
        if let Some(rec) = st.recovery.as_mut() {
            rec.checkpoints_taken += deposited_waves(env, st.start_row, st.start_row + done);
        }
        frontier = frontier.min(st.start_row + done);
    }

    let error = PipelineError::DeviceFault { device, block_row };
    // Without a policy: the fail-fast mirror of the threaded pipeline.
    let (Some(policy), Some(rec)) = (policy, st.recovery.as_mut()) else {
        return Err(error);
    };
    if rec.recoveries as usize >= policy.max_device_failures {
        return Err(error);
    }
    // The failed devices are the blacklist.
    rec.failed_devices.push(device);
    let survivors = survivor_slabs(
        env.n,
        config.block_w,
        env.platform,
        &config.policy.partition,
        &rec.failed_devices,
        calibrated,
    );
    if survivors.is_empty() {
        return Err(error);
    }
    // Newest complete wave: the largest interval multiple the frontier
    // covers (capped below `rows` — the threaded workers never deposit the
    // final border), never older than where this graph started.
    let ck_rows = recovery_interval(config).expect("validated before the run");
    let mut wave = (frontier / ck_rows) * ck_rows;
    if wave >= rows {
        wave = ((rows - 1) / ck_rows) * ck_rows;
    }
    let new_start = wave.max(st.start_row);
    let cells_at = |row: usize| ((row * config.block_h).min(m) as u128) * env.n as u128;
    let preserved = cells_at(new_start).saturating_sub(cells_at(st.start_row));
    rec.rewound_cells += attempt_cells.saturating_sub(preserved);
    rec.recoveries += 1;
    rec.resumed_from_rows.push(new_start);
    if let Some(live) = env.live {
        live.on_recovery();
    }
    if env.obs.is_enabled() {
        let at = st.offset.as_nanos();
        env.obs.record(ObsSpan {
            kind: ObsKind::Recovery,
            device: Some(device as u32),
            block_row: Some(block_row as u32),
            start_ns: at,
            end_ns: at,
        });
    }
    st.slabs = survivors;
    st.start_row = new_start;
    Ok(())
}

/// Checkpoint waves in `lo + 1..=hi` that every slab deposits, as the
/// threaded workers do: cadence multiples below the last row, in
/// fine-grain runs with a cadence.
fn deposited_waves(env: &DesEnv<'_>, lo: usize, hi: usize) -> u64 {
    let rows = env.m.div_ceil(env.config.block_h);
    match (env.mode, env.config.policy.checkpoint.rows_interval()) {
        (Mode::FineGrain, Some(iv)) => {
            (lo + 1..=hi).filter(|w| w % iv == 0 && *w < rows).count() as u64
        }
        _ => 0,
    }
}

/// The earliest scheduled fault that applies to this graph: its device
/// still holds a slab (and is not blacklisted) and its block-row is inside
/// the graph's `start_row..stop_row`. `RingPop`/`Compute` faults fire at
/// the victim kernel's simulated start, `RingPush`/`Transfer` at its
/// finish.
fn earliest_fault(
    graph: &TaskGraph,
    slabs: &[Slab],
    faults: &FaultSchedule,
    start_row: usize,
    stop_row: usize,
    blacklist: &[usize],
) -> Option<(usize, usize, SimTime)> {
    let mut best: Option<(SimTime, usize, usize)> = None;
    for f in &faults.faults {
        if blacklist.contains(&f.device) || f.block_row < start_row || f.block_row >= stop_row {
            continue;
        }
        let Some(s) = slabs.iter().position(|sl| sl.device == f.device) else {
            continue;
        };
        let k = graph.kernel_tasks[s][f.block_row - start_row];
        let t = match f.phase {
            FaultPhase::RingPop | FaultPhase::Compute => graph.schedule.start_of(k),
            FaultPhase::RingPush | FaultPhase::Transfer => graph.schedule.finish_of(k),
        };
        if best.is_none_or(|(bt, _, _)| t < bt) {
            best = Some((t, f.device, f.block_row));
        }
    }
    best.map(|(t, d, r)| (d, r, t))
}

/// A run with no final schedule to report: an empty matrix (complete, no
/// work) or an aborted run (`aborted` is `Some`: an invalid config, a fault
/// without recovery, an exhausted budget or no survivor left), whose
/// simulated time stops at the fault instant. No per-device reporting —
/// the threaded mirror reports no work or returns `Err` here.
fn stopped_run(
    env: &DesEnv<'_>,
    st: Progress,
    schedule: Schedule,
    aborted: Option<PipelineError>,
) -> DesRun {
    let complete = aborted.is_none();
    DesRun {
        report: RunReport {
            best: megasw_sw::BestCell::ZERO,
            total_cells: env.m as u128 * env.n as u128,
            wall_time: None,
            gcups_wall: None,
            sim_time: Some(st.offset),
            gcups_sim: complete.then_some(0.0),
            devices: Vec::new(),
            pruning: (complete && env.prune_mode.is_enabled()).then_some(PruningReport {
                mode: env.prune_mode,
                tiles_pruned: 0,
                tiles_total: 0,
                cells_skipped: 0,
                watermark_lag: 0,
            }),
            recovery: st.recovery,
            rebalance: st.rebalance,
            kernel: megasw_sw::KernelSelection::modeled(env.config.policy.dispatch),
            kernel_paths: Default::default(),
        },
        schedule,
        memory: st.memory,
        stalls: Vec::new(),
        losses: st.losses,
        aborted,
    }
}

/// Turn the final solved graph into the [`DesRun`]: live replay,
/// span export, stall breakdowns and the report. `st.offset` is the
/// simulated time consumed by earlier segments and lost attempts;
/// live/span timelines cover the final graph only, shifted by that offset.
fn finalize(env: &DesEnv<'_>, st: Progress, graph: TaskGraph) -> DesRun {
    let (m, n, platform, config) = (env.m, env.n, env.platform, env.config);
    let TaskGraph {
        schedule,
        computes,
        kernel_tasks,
        transfer_tasks,
        start_row,
    } = graph;
    let total_cells = m as u128 * n as u128;
    let rows = m.div_ceil(config.block_h);
    let slabs = &st.slabs[..];
    let makespan = schedule.makespan();
    let sim_time = st.offset + makespan;
    let secs = sim_time.as_secs_f64();
    let off_ns = st.offset.as_nanos();
    let prune_model = PruneModel::new(env, slabs);
    let pruning = prune_model.as_ref().map(|pm| pm.report());

    // Drive the live handle at simulated-time boundaries: every kernel
    // completion, in simulated-finish order, advances the manual clock and
    // books the row it retired.
    if let Some(live) = env.live {
        for (s_idx, tasks) in kernel_tasks.iter().enumerate() {
            live.set_rows_total(s_idx, tasks.len() as u64);
        }
        let mut completions: Vec<(u64, usize, u64, u64)> = Vec::new();
        for (s_idx, (slab, tasks)) in slabs.iter().zip(&kernel_tasks).enumerate() {
            for (rel, &k) in tasks.iter().enumerate() {
                let start = schedule.start_of(k).as_nanos();
                let finish = schedule.finish_of(k).as_nanos();
                let cells =
                    row_height(m, config.block_h, start_row + rel) as u64 * slab.width as u64;
                completions.push((off_ns + finish, s_idx, cells, finish.saturating_sub(start)));
            }
        }
        completions.sort_unstable();
        for (finish_ns, s_idx, cells, dur_ns) in completions {
            live.set_now_ns(finish_ns);
            live.on_row_done(s_idx, cells, dur_ns);
        }
        // Mirror the threaded workers' per-device pruning telemetry with
        // the modeled final values.
        if let Some(pm) = &prune_model {
            for s_idx in 0..slabs.len() {
                let (mut tiles, mut skipped) = (0u64, 0u64);
                for r in 0..rows {
                    let rp = pm.row(s_idx, r);
                    tiles += rp.pruned_tiles;
                    skipped += rp.skipped_cells;
                }
                live.on_prune_update(s_idx, pm.watermark(s_idx, rows) as i32, tiles, skipped);
            }
        }
        live.set_now_ns(sim_time.as_nanos());
    }

    // Span export: simulated-time Kernel and BorderXfer spans, one per
    // scheduled task, attributed to the owning device and block-row.
    if env.obs.is_enabled() {
        for (s, slab) in slabs.iter().enumerate() {
            let dev = slab.device as u32;
            for (rel, &k) in kernel_tasks[s].iter().enumerate() {
                env.obs.record(ObsSpan {
                    kind: ObsKind::Kernel,
                    device: Some(dev),
                    block_row: Some((start_row + rel) as u32),
                    start_ns: off_ns + schedule.start_of(k).as_nanos(),
                    end_ns: off_ns + schedule.finish_of(k).as_nanos(),
                });
            }
            for (rel, &t) in transfer_tasks[s].iter().enumerate() {
                env.obs.record(ObsSpan {
                    kind: ObsKind::BorderXfer,
                    device: Some(dev),
                    block_row: Some((start_row + rel) as u32),
                    start_ns: off_ns + schedule.start_of(t).as_nanos(),
                    end_ns: off_ns + schedule.finish_of(t).as_nanos(),
                });
            }
        }
    }

    // Idle breakdown per device: fill before the first kernel, gaps
    // between kernels (waiting for the left neighbour's borders), and
    // drain after the last.
    let stalls: Vec<StallBreakdown> = kernel_tasks
        .iter()
        .map(|tasks| {
            let mut bd = StallBreakdown::default();
            if let (Some(&first), Some(&last)) = (tasks.first(), tasks.last()) {
                bd.startup = schedule.start_of(first);
                bd.drain = makespan.saturating_sub(schedule.finish_of(last));
                for pair in tasks.windows(2) {
                    bd.input_stalls += schedule
                        .start_of(pair[1])
                        .saturating_sub(schedule.finish_of(pair[0]));
                }
            }
            bd
        })
        .collect();
    // Mirror the threaded workers' live phase attribution: simulated
    // border waits are the DES's only measured stall phase.
    if let Some(live) = env.live {
        for (s_idx, bd) in stalls.iter().enumerate() {
            live.on_phase_ns(s_idx, StallPhase::WaitInput, bd.input_stalls.as_nanos());
        }
    }
    // Rows the final graph actually covered (all of them, unsegmented and
    // fault-free).
    let height_covered = m - (start_row * config.block_h).min(m);
    let devices = slabs
        .iter()
        .enumerate()
        .map(|(s, slab)| {
            let busy = schedule.busy_of(computes[s]);
            let sent = if s + 1 < slabs.len() {
                match env.mode {
                    Mode::FineGrain => (start_row..rows)
                        .map(|r| border_bytes(row_height(m, config.block_h, r)))
                        .sum(),
                    Mode::BulkSynchronous => border_bytes(m),
                }
            } else {
                0
            };
            // The DES's attribution mirror: simulated kernel busy time is
            // `compute`, inter-kernel gaps are `wait_input`, and the
            // unmeasured remainder (startup + drain + lost attempts'
            // offset) lands in `other` — the same sum-to-makespan identity
            // as the threaded backend, over `sim_time` as the makespan.
            let clocks = PhaseClocks {
                busy_ns: busy.as_nanos(),
                wait_input_ns: stalls[s].input_stalls.as_nanos(),
                ..PhaseClocks::default()
            };
            let attribution = StallAttribution::from_measured(sim_time.as_nanos(), &clocks);
            DeviceReport {
                device: slab.device,
                name: platform.devices[slab.device].name.clone(),
                slab_j0: slab.j0,
                slab_width: slab.width,
                cells: height_covered as u128 * slab.width as u128,
                bytes_sent: sent,
                ring_out: None,
                wall_busy: None,
                sim_busy: Some(busy),
                sim_utilization: Some(schedule.utilization(computes[s])),
                stall: Some(stalls[s]),
                attribution: Some(attribution),
            }
        })
        .collect();

    let report = RunReport {
        best: megasw_sw::BestCell::ZERO, // timing-only run
        total_cells,
        wall_time: None,
        gcups_wall: None,
        sim_time: Some(sim_time),
        gcups_sim: Some(RunReport::gcups(total_cells, secs)),
        devices,
        pruning,
        recovery: st.recovery,
        rebalance: st.rebalance,
        kernel: megasw_sw::KernelSelection::modeled(config.policy.dispatch),
        kernel_paths: Default::default(),
    };
    DesRun {
        report,
        schedule,
        memory: st.memory,
        stalls,
        losses: st.losses,
        aborted: None,
    }
}

/// The pipe between the devices owning slabs `s` and `s + 1`: the slower of
/// the two boards' links (a staged copy traverses both).
fn link_between_slabs(platform: &Platform, slabs: &[Slab], s: usize) -> megasw_gpusim::LinkSpec {
    let a = platform.devices[slabs[s].device].link;
    let b = platform.devices[slabs[s + 1].device].link;
    if a.bandwidth_bytes_per_sec <= b.bandwidth_bytes_per_sec {
        a
    } else {
        b
    }
}

fn row_height(m: usize, block_h: usize, r: usize) -> usize {
    let i0 = r * block_h;
    let i1 = ((r + 1) * block_h).min(m);
    i1 - i0
}

/// Convenience sweep used by the scaling figure: simulated GCUPS for
/// 1..=max devices of `platform`.
pub fn gcups_versus_devices(
    m: usize,
    n: usize,
    platform: &Platform,
    config: &RunConfig,
) -> Vec<(usize, f64)> {
    (1..=platform.len())
        .map(|g| {
            let sub = platform.take(g);
            let run = run_des(m, n, &sub, config);
            (g, run.report.gcups_sim.unwrap_or(0.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionPolicy;
    use megasw_gpusim::catalog;

    const MBP: usize = 1_000_000;

    fn cfg() -> RunConfig {
        RunConfig::paper_default()
    }

    #[test]
    fn single_device_approaches_its_peak_on_megabase_input() {
        let p = Platform::single(catalog::gtx680());
        let run = run_des(4 * MBP, 4 * MBP, &p, &cfg());
        let gcups = run.report.gcups_sim.unwrap();
        assert!(gcups > 0.93 * 50.0, "gcups = {gcups}");
        assert!(gcups <= 50.0);
    }

    #[test]
    fn two_homogeneous_devices_scale_nearly_linearly() {
        let p = Platform::env1();
        let one = run_des(4 * MBP, 4 * MBP, &p.take(1), &cfg())
            .report
            .gcups_sim
            .unwrap();
        let two = run_des(4 * MBP, 4 * MBP, &p, &cfg())
            .report
            .gcups_sim
            .unwrap();
        let speedup = two / one;
        assert!(speedup > 1.85, "speedup = {speedup}");
        assert!(speedup <= 2.02);
    }

    #[test]
    fn env2_reaches_paper_scale_gcups() {
        // The headline: three heterogeneous GPUs around 140 GCUPS.
        let p = Platform::env2();
        let run = run_des(8 * MBP, 8 * MBP, &p, &cfg());
        let gcups = run.report.gcups_sim.unwrap();
        assert!(
            (135.0..147.0).contains(&gcups),
            "expected ≈140 GCUPS (paper: 140.36), got {gcups}"
        );
    }

    #[test]
    fn proportional_beats_equal_on_heterogeneous_platform() {
        let p = Platform::env2();
        let prop = run_des(4 * MBP, 4 * MBP, &p, &cfg())
            .report
            .gcups_sim
            .unwrap();
        let equal = run_des(
            4 * MBP,
            4 * MBP,
            &p,
            &cfg().with_partition(PartitionPolicy::Equal),
        )
        .report
        .gcups_sim
        .unwrap();
        assert!(prop > 1.15 * equal, "proportional {prop} vs equal {equal}");
    }

    #[test]
    fn bigger_buffers_help_until_the_knee() {
        let p = Platform::env1();
        let g1 = run_des(2 * MBP, 2 * MBP, &p, &cfg().with_buffer_capacity(1))
            .report
            .gcups_sim
            .unwrap();
        let g8 = run_des(2 * MBP, 2 * MBP, &p, &cfg().with_buffer_capacity(8))
            .report
            .gcups_sim
            .unwrap();
        let g64 = run_des(2 * MBP, 2 * MBP, &p, &cfg().with_buffer_capacity(64))
            .report
            .gcups_sim
            .unwrap();
        assert!(g8 >= g1, "capacity 8 ({g8}) >= capacity 1 ({g1})");
        // Past the knee, returns vanish.
        assert!((g64 - g8).abs() / g8 < 0.02, "g8 = {g8}, g64 = {g64}");
    }

    #[test]
    fn fine_grain_overlap_beats_bulk_synchronous() {
        let p = Platform::env2();
        let fine = run_des(2 * MBP, 2 * MBP, &p, &cfg())
            .report
            .gcups_sim
            .unwrap();
        let bulk = run_des_bulk(2 * MBP, 2 * MBP, &p, &cfg())
            .report
            .gcups_sim
            .unwrap();
        // Bulk-synchronous devices run one after another: no multi-GPU gain.
        assert!(fine > 2.0 * bulk, "fine {fine} vs bulk {bulk}");
    }

    #[test]
    fn small_matrices_pipeline_poorly() {
        // Pipeline fill/drain and narrow slabs (too few tile columns to
        // feed every SM) dominate short matrices: efficiency grows with
        // size — the paper's motivation for megabase inputs.
        let p = Platform::env2();
        let small = run_des(8_192, 8_192, &p, &cfg()).report.gcups_sim.unwrap();
        let large = run_des(4 * MBP, 4 * MBP, &p, &cfg())
            .report
            .gcups_sim
            .unwrap();
        assert!(large > 1.2 * small, "large {large} vs small {small}");
    }

    #[test]
    fn utilization_reported_per_device() {
        let p = Platform::env2();
        let run = run_des(MBP, MBP, &p, &cfg());
        assert_eq!(run.report.devices.len(), 3);
        for d in &run.report.devices {
            let u = d.sim_utilization.unwrap();
            assert!((0.0..=1.0).contains(&u), "utilization {u}");
        }
        // Proportional split keeps every device mostly busy.
        assert!(run
            .report
            .devices
            .iter()
            .all(|d| d.sim_utilization.unwrap() > 0.6));
    }

    #[test]
    fn shared_bridge_bottlenecks_fine_grain_many_gpu_runs() {
        use megasw_gpusim::LinkSpec;
        // Fine granularity + 8 GPUs: with independent links the pipeline
        // scales; with everything behind one slow bridge the transfers
        // serialize and throughput collapses toward the bridge's capacity.
        let fine = RunConfig {
            block_h: 8,
            ..cfg()
        };
        let free = Platform::homogeneous(catalog::gtx680(), 8);
        let bridged = free.clone().with_bridge(LinkSpec::slow_for_tests());
        let g_free = run_des(MBP, MBP, &free, &fine).report.gcups_sim.unwrap();
        let g_bridged = run_des(MBP, MBP, &bridged, &fine).report.gcups_sim.unwrap();
        assert!(
            g_free > 1.5 * g_bridged,
            "free {g_free} vs bridged {g_bridged}"
        );
        // At coarse granularity (the paper default) transfers are rare and
        // even the slow shared bridge costs almost nothing.
        let coarse = cfg();
        let g_coarse_free = run_des(MBP, MBP, &free, &coarse).report.gcups_sim.unwrap();
        let g_coarse_bridged = run_des(MBP, MBP, &bridged, &coarse)
            .report
            .gcups_sim
            .unwrap();
        assert!(
            g_coarse_bridged > 0.95 * g_coarse_free,
            "coarse: bridged {g_coarse_bridged} vs free {g_coarse_free}"
        );
    }

    #[test]
    fn stall_breakdown_accounts_for_all_idle_time() {
        let p = Platform::env2();
        let run = run_des(MBP, MBP, &p, &cfg());
        let makespan = run.report.sim_time.unwrap();
        for (d, bd) in run.report.devices.iter().zip(&run.stalls) {
            let idle = makespan.saturating_sub(d.sim_busy.unwrap());
            assert_eq!(bd.total(), idle, "device {}", d.device);
        }
    }

    #[test]
    fn equal_split_shows_up_as_drain_idle_on_the_fast_board() {
        // Titan finishes its (undersized) equal slab early and drains;
        // proportional splitting removes that idle.
        let p = Platform::env2();
        let equal = run_des(
            2 * MBP,
            2 * MBP,
            &p,
            &cfg().with_partition(PartitionPolicy::Equal),
        );
        let prop = run_des(2 * MBP, 2 * MBP, &p, &cfg());
        let titan_equal_drain = equal.stalls[0].drain.as_nanos();
        let titan_prop_drain = prop.stalls[0].drain.as_nanos();
        assert!(
            titan_equal_drain > 10 + titan_prop_drain * 4,
            "equal {titan_equal_drain}ns vs proportional {titan_prop_drain}ns"
        );
    }

    #[test]
    fn later_devices_pay_pipeline_startup() {
        let p = Platform::homogeneous(catalog::gtx680(), 4);
        let run = run_des(MBP, MBP, &p, &cfg());
        for pair in run.stalls.windows(2) {
            assert!(pair[1].startup >= pair[0].startup, "{:?}", run.stalls);
        }
        assert_eq!(run.stalls[0].startup, SimTime::ZERO);
        assert!(run.stalls[3].startup > SimTime::ZERO);
    }

    #[test]
    fn determinism() {
        let p = Platform::env2();
        let a = run_des(MBP, MBP, &p, &cfg()).report.sim_time;
        let b = run_des(MBP, MBP, &p, &cfg()).report.sim_time;
        assert_eq!(a, b);
    }

    #[test]
    fn empty_matrix() {
        let run = run_des(0, 100, &Platform::env1(), &cfg());
        assert_eq!(run.report.sim_time, Some(SimTime::ZERO));
    }

    #[test]
    fn des_sim_builder_matches_wrapper_and_records_spans() {
        use megasw_obs::ObsLevel;
        let p = Platform::env2();
        let obs = Recorder::new(ObsLevel::Full);
        let run = DesSim::new(200_000, 200_000, &p)
            .config(cfg())
            .observer(obs.clone())
            .run();
        let wrapper = run_des(200_000, 200_000, &p, &cfg());
        assert_eq!(run.report.sim_time, wrapper.report.sim_time);

        let spans = obs.spans();
        assert!(spans.iter().any(|s| s.kind == ObsKind::Kernel));
        assert!(spans.iter().any(|s| s.kind == ObsKind::BorderXfer));
        // All three devices appear, timestamps are simulated time.
        for d in 0..3u32 {
            assert!(spans.iter().any(|s| s.device == Some(d)), "device {d}");
        }
        let max_end = spans.iter().map(|s| s.end_ns).max().unwrap();
        assert_eq!(max_end, run.report.sim_time.unwrap().as_nanos());
        // DeviceReport carries the same stall breakdowns as DesRun.stalls.
        for (d, bd) in run.report.devices.iter().zip(&run.stalls) {
            assert_eq!(d.stall, Some(*bd));
        }
    }

    #[test]
    fn des_attribution_sums_to_sim_time_and_mirrors_stalls() {
        let p = Platform::env2();
        let run = run_des(MBP, MBP, &p, &cfg());
        let sim_ns = run.report.sim_time.unwrap().as_nanos();
        for (d, bd) in run.report.devices.iter().zip(&run.stalls) {
            let attr = d.attribution.expect("DES runs attribute phases");
            assert_eq!(attr.total_ns(), sim_ns, "device {}: {attr}", d.device);
            assert_eq!(attr.compute_ns, d.sim_busy.unwrap().as_nanos());
            assert_eq!(attr.wait_input_ns, bd.input_stalls.as_nanos());
            // The twin models no checkpoint/prune/rescue clocks; everything
            // else (startup + drain) lands in `other`.
            assert_eq!(attr.checkpoint_ns, 0);
            assert_eq!(attr.prune_skip_ns, 0);
            assert_eq!(attr.simd_rescue_ns, 0);
            assert_eq!(
                attr.other_ns,
                (bd.startup + bd.drain).as_nanos(),
                "device {}",
                d.device
            );
        }
        assert_eq!(run.report.kernel_paths.rescued, 0);
    }

    #[test]
    fn des_live_telemetry_uses_simulated_time() {
        let p = Platform::env2();
        let m = 200_000usize;
        let n = 200_000usize;
        let live = LiveTelemetry::with_manual_clock(p.len(), (m * n) as u64);
        let run = DesSim::new(m, n, &p)
            .config(cfg())
            .live(Arc::clone(&live))
            .run();
        let s = live.snapshot();
        // The manual clock ends exactly at the simulated makespan, so the
        // live cumulative GCUPS equals the report's simulated GCUPS.
        assert_eq!(s.now_ns, run.report.sim_time.unwrap().as_nanos());
        assert_eq!(s.cells_done() as u128, run.report.total_cells);
        assert!((s.fraction_done() - 1.0).abs() < 1e-12);
        let gcups = run.report.gcups_sim.unwrap();
        assert!(
            (s.gcups_cumulative() - gcups).abs() / gcups < 1e-6,
            "live {} vs report {gcups}",
            s.gcups_cumulative()
        );
        // Every device booked all of its rows.
        for d in &s.devices {
            assert!(d.rows_total > 0);
            assert_eq!(d.rows_done, d.rows_total);
            assert!(d.busy_ns > 0);
        }
    }

    #[test]
    fn bulk_builder_matches_wrapper() {
        let p = Platform::env1();
        let a = DesSim::new(500_000, 500_000, &p)
            .config(cfg())
            .bulk(true)
            .run();
        let b = run_des_bulk(500_000, 500_000, &p, &cfg());
        assert_eq!(a.report.sim_time, b.report.sim_time);
        assert!(a.report.devices.iter().all(|d| d.stall.is_some()));
    }

    #[test]
    fn des_fault_without_recovery_aborts_at_the_fault_instant() {
        use crate::pipeline::ScheduledFault;
        let p = Platform::env2();
        let run = DesSim::new(MBP, MBP, &p)
            .config(cfg())
            .faults(ScheduledFault {
                device: 1,
                block_row: 100,
                phase: FaultPhase::Compute,
            })
            .run();
        assert_eq!(
            run.aborted,
            Some(PipelineError::DeviceFault {
                device: 1,
                block_row: 100
            })
        );
        assert_eq!(run.losses.len(), 1);
        assert_eq!(run.losses[0].device, 1);
        assert_eq!(run.losses[0].block_row, 100);
        // Aborted mid-matrix: strictly before the fault-free makespan.
        let clean = run_des(MBP, MBP, &p, &cfg()).report.sim_time.unwrap();
        assert!(run.report.sim_time.unwrap() < clean);
        assert!(run.report.recovery.is_none());
    }

    #[test]
    fn des_recovery_completes_with_accounting_and_slower_clock() {
        use crate::pipeline::ScheduledFault;
        let p = Platform::env2();
        let clean = run_des(MBP, MBP, &p, &cfg());
        let run = DesSim::new(MBP, MBP, &p)
            .config(cfg())
            .faults(ScheduledFault {
                device: 1,
                block_row: 100,
                phase: FaultPhase::Compute,
            })
            .recover(RecoveryPolicy::default())
            .run();
        assert!(run.aborted.is_none());
        let rec = run.report.recovery.as_ref().unwrap();
        assert_eq!(rec.recoveries, 1);
        assert_eq!(rec.failed_devices, vec![1]);
        assert!(rec.checkpoints_taken > 0);
        assert!(rec.rewound_cells > 0);
        assert_eq!(rec.resumed_from_rows[0] % 8, 0);
        // Two survivors, original device indices.
        let devs: Vec<usize> = run.report.devices.iter().map(|d| d.device).collect();
        assert_eq!(devs, vec![0, 2]);
        // Losing a device and rewinding costs simulated time.
        assert!(run.report.sim_time.unwrap() > clean.report.sim_time.unwrap());
        assert!(run.report.gcups_sim.unwrap() < clean.report.gcups_sim.unwrap());
    }

    #[test]
    fn des_recovery_is_deterministic() {
        use crate::pipeline::FaultSchedule;
        let p = Platform::env2();
        let go = || {
            DesSim::new(MBP, MBP, &p)
                .config(cfg().with_checkpoint(crate::config::CheckpointCadence::EveryRows(16)))
                .faults("1:100,2:300:ring-push".parse::<FaultSchedule>().unwrap())
                .recover(RecoveryPolicy {
                    max_device_failures: 2,
                })
                .run()
        };
        let a = go();
        let b = go();
        assert_eq!(a.report.sim_time, b.report.sim_time);
        assert_eq!(a.report.recovery, b.report.recovery);
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.report.recovery.as_ref().unwrap().recoveries, 2);
        assert_eq!(a.report.devices.len(), 1);
    }

    #[test]
    fn des_recovery_budget_exhaustion_aborts_with_partial_accounting() {
        use crate::pipeline::FaultSchedule;
        let p = Platform::env2();
        let run = DesSim::new(MBP, MBP, &p)
            .config(cfg())
            .faults("1:100,2:300".parse::<FaultSchedule>().unwrap())
            .recover(RecoveryPolicy {
                max_device_failures: 1,
            })
            .run();
        assert_eq!(
            run.aborted,
            Some(PipelineError::DeviceFault {
                device: 2,
                block_row: 300
            })
        );
        let rec = run.report.recovery.as_ref().unwrap();
        assert_eq!(rec.recoveries, 1);
        assert_eq!(run.losses.len(), 2);
        // Losses carry the cumulative clock: strictly increasing instants.
        assert!(run.losses[0].at < run.losses[1].at);
    }

    #[test]
    fn des_recovery_rejects_disabled_checkpoint_cadence() {
        use crate::config::CheckpointCadence;
        use crate::pipeline::ScheduledFault;
        let p = Platform::env2();
        let run = DesSim::new(MBP, MBP, &p)
            .config(cfg().with_checkpoint(CheckpointCadence::Disabled))
            .faults(ScheduledFault {
                device: 1,
                block_row: 100,
                phase: FaultPhase::Compute,
            })
            .recover(RecoveryPolicy::default())
            .run();
        assert!(matches!(run.aborted, Some(PipelineError::InvalidConfig(_))));
    }

    #[test]
    fn des_returns_what_validate_rejects_as_an_aborted_run() {
        use crate::config::CheckpointCadence;
        let p = Platform::env2();
        let no_cadence = cfg()
            .with_checkpoint(CheckpointCadence::Disabled)
            .with_rebalance(RebalanceMode::on());
        for config in [no_cadence, cfg().with_block(0)] {
            let err = config.validate().unwrap_err();
            let run = DesSim::new(MBP, MBP, &p).config(config).run();
            assert_eq!(run.aborted, Some(PipelineError::InvalidConfig(err)));
            assert!(run.report.devices.is_empty());
            assert_eq!(run.report.sim_time, Some(SimTime::ZERO));
        }
    }

    #[test]
    fn des_pruning_mirror_speeds_up_high_identity_runs() {
        let p = Platform::env2();
        let clean = run_des(MBP, MBP, &p, &cfg());
        assert!(clean.report.pruning.is_none());
        let pruned = DesSim::new(MBP, MBP, &p)
            .config(cfg().with_pruning(PruneMode::Distributed))
            .identity(0.99)
            .run();
        let pr = pruned.report.pruning.as_ref().unwrap();
        assert_eq!(pr.mode, PruneMode::Distributed);
        assert!(pr.tiles_pruned > 0, "{pr:?}");
        assert!(pr.tiles_pruned < pr.tiles_total);
        assert!(
            pr.cells_skipped >= pruned.report.total_cells / 5,
            "expected ≥ 20% cells skipped, got {} of {}",
            pr.cells_skipped,
            pruned.report.total_cells
        );
        // Skipped tiles cost no kernel time: the simulated clock shrinks
        // and the effective GCUPS (over all m·n cells) rises.
        assert!(pruned.report.sim_time.unwrap() < clean.report.sim_time.unwrap());
        assert!(pruned.report.gcups_sim.unwrap() > clean.report.gcups_sim.unwrap());
        // Rebalancing it: a slab whose whole segment was pruned measures a
        // zero rate, which the controller must take without panicking.
        let rebalanced =
            DesSim::new(MBP, MBP, &p)
                .config(cfg().with_pruning(PruneMode::Distributed).with_rebalance(
                    RebalanceMode::On {
                        threshold: 0.0,
                        window_waves: RebalanceMode::DEFAULT_WINDOW_WAVES,
                    },
                ))
                .identity(0.99)
                .run();
        assert!(rebalanced.aborted.is_none());
        assert!(rebalanced.report.rebalance.unwrap().migrations > 0);
    }

    #[test]
    fn des_pruned_fraction_grows_with_identity() {
        let p = Platform::env2();
        let frac = |q: f64| {
            DesSim::new(MBP, MBP, &p)
                .config(cfg().with_pruning(PruneMode::Distributed))
                .identity(q)
                .run()
                .report
                .pruning
                .unwrap()
                .pruned_fraction()
        };
        let (low, mid, high) = (frac(0.25), (frac(0.80)), frac(0.99));
        // Unrelated DNA has a non-growing diagonal score: nothing to prune.
        assert_eq!(low, 0.0);
        assert!(mid > 0.0);
        assert!(high >= mid, "high {high} vs mid {mid}");
    }

    #[test]
    fn des_distributed_watermark_prunes_at_least_as_much_as_local() {
        let p = Platform::env2();
        let go = |mode: PruneMode| {
            DesSim::new(MBP, MBP, &p)
                .config(cfg().with_pruning(mode))
                .identity(0.95)
                .run()
                .report
                .pruning
                .unwrap()
        };
        let local = go(PruneMode::Local);
        let dist = go(PruneMode::Distributed);
        assert!(
            dist.tiles_pruned >= local.tiles_pruned,
            "distributed {} vs local {}",
            dist.tiles_pruned,
            local.tiles_pruned
        );
        // The global side channel keeps laggard devices better informed.
        assert!(dist.watermark_lag <= local.watermark_lag);
    }

    #[test]
    fn des_pruning_composes_with_recovery() {
        use crate::pipeline::ScheduledFault;
        let p = Platform::env2();
        let run = DesSim::new(MBP, MBP, &p)
            .config(cfg().with_pruning(PruneMode::Distributed))
            .identity(0.99)
            .faults(ScheduledFault {
                device: 1,
                block_row: 100,
                phase: FaultPhase::Compute,
            })
            .recover(RecoveryPolicy::default())
            .run();
        assert!(run.aborted.is_none());
        assert_eq!(run.report.recovery.as_ref().unwrap().recoveries, 1);
        assert!(run.report.pruning.as_ref().unwrap().tiles_pruned > 0);
    }

    #[test]
    fn sweep_is_monotone_for_homogeneous_platform() {
        let p = Platform::homogeneous(catalog::m2090(), 4);
        let sweep = gcups_versus_devices(2 * MBP, 2 * MBP, &p, &cfg());
        assert_eq!(sweep.len(), 4);
        for w in sweep.windows(2) {
            assert!(w[1].1 > w[0].1, "sweep not monotone: {sweep:?}");
        }
    }

    #[test]
    fn drift_slows_makespan_and_applies_only_after_its_row() {
        // Halving one of two homogeneous devices' clock (factor 0.5) from
        // row 0 nearly doubles the pipeline makespan; halving it only from
        // the midpoint lands in between.
        let p = Platform::env1();
        let rows = MBP.div_ceil(cfg().block_h);
        let sim = |after_row: usize| {
            DesSim::new(MBP, MBP, &p)
                .drift(ClockDrift {
                    device: 1,
                    after_row,
                    factor: 0.5,
                })
                .run()
                .report
                .sim_time
                .unwrap()
                .as_secs_f64()
        };
        let plain = DesSim::new(MBP, MBP, &p)
            .run()
            .report
            .sim_time
            .unwrap()
            .as_secs_f64();
        let half = sim(rows / 2);
        let full = sim(0);
        assert!(full > 1.6 * plain, "full-run drift {full} vs plain {plain}");
        assert!(
            half > 1.15 * plain && half < full,
            "mid-run drift {half} should sit between plain {plain} and full {full}"
        );
    }

    #[test]
    fn stacked_drifts_multiply() {
        let p = Platform::env1();
        let once = DesSim::new(MBP, MBP, &p)
            .drift(ClockDrift {
                device: 0,
                after_row: 0,
                factor: 0.5,
            })
            .run()
            .report
            .sim_time
            .unwrap();
        let twice = DesSim::new(MBP, MBP, &p)
            .drift(ClockDrift {
                device: 0,
                after_row: 0,
                factor: 0.5,
            })
            .drift(ClockDrift {
                device: 0,
                after_row: 0,
                factor: 0.5,
            })
            .run()
            .report
            .sim_time
            .unwrap();
        assert!(twice > once, "stacked drift {twice:?} vs single {once:?}");
    }

    #[test]
    fn des_rebalance_reports_and_stays_quiet_when_balanced() {
        // Homogeneous platform, no drift: the controller evaluates at every
        // boundary but never finds a split worth the hysteresis threshold,
        // and the segment barriers cost almost nothing.
        let p = Platform::env1();
        let seg = DesSim::new(MBP, MBP, &p)
            .config(cfg().with_rebalance(RebalanceMode::on()))
            .run();
        let rb = seg.report.rebalance.as_ref().expect("rebalance report");
        assert!(rb.evaluations > 0);
        assert_eq!(rb.migrations, 0, "balanced run migrated: {rb:?}");
        assert_eq!(rb.moved_columns, 0);
        assert!(rb.applied_at_rows.is_empty());
        let static_t = DesSim::new(MBP, MBP, &p)
            .run()
            .report
            .sim_time
            .unwrap()
            .as_secs_f64();
        let seg_t = seg.report.sim_time.unwrap().as_secs_f64();
        assert!(
            seg_t <= 1.10 * static_t,
            "segment barriers too costly: {seg_t} vs {static_t}"
        );
        // Off keeps the field absent.
        let off = DesSim::new(MBP, MBP, &p).run();
        assert!(off.report.rebalance.is_none());
    }

    #[test]
    fn rebalance_recoups_midrun_drift_on_env2() {
        // The acceptance scenario: env2's Titan (the biggest proportional
        // share) halves its clock mid-run. Static slabs ride the throttled
        // board to the end; the rebalance controller shifts columns to the
        // healthy boards at the next boundaries and recovers ≥ 15% of the
        // makespan.
        let p = Platform::env2();
        let rows = MBP.div_ceil(cfg().block_h);
        let drift = ClockDrift {
            device: 0,
            after_row: rows / 2,
            factor: 0.5,
        };
        let run = |rb: RebalanceMode| {
            DesSim::new(MBP, MBP, &p)
                .config(cfg().with_rebalance(rb))
                .drift(drift)
                .run()
        };
        let fixed = run(RebalanceMode::Off);
        let moved = run(RebalanceMode::on());
        assert!(fixed.report.rebalance.is_none());
        let st = fixed.report.sim_time.unwrap().as_secs_f64();
        let dy = moved.report.sim_time.unwrap().as_secs_f64();
        let improvement = 1.0 - dy / st;
        assert!(
            improvement >= 0.15,
            "rebalance recovered only {:.1}% (static {st}s, rebalanced {dy}s)",
            improvement * 100.0
        );
        let rb = moved.report.rebalance.as_ref().unwrap();
        assert!(rb.migrations >= 1, "no migration applied: {rb:?}");
        assert!(rb.moved_columns > 0);
        assert_eq!(rb.migrations as usize, rb.applied_at_rows.len());
        // Every applied row is a checkpoint-cadence boundary, so the
        // threaded twin could hand off from a full-width border wave there.
        let iv = cfg().policy.checkpoint.rows_interval().unwrap();
        for &row in &rb.applied_at_rows {
            assert_eq!(row % iv, 0, "migration off-boundary at {row}");
        }
    }
}
