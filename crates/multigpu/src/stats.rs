//! Run reports and unified stall accounting.
//!
//! Both backends produce the same [`RunReport`]: the threaded pipeline
//! fills the wall-clock side (`wall_time`, `gcups_wall`, per-device
//! `wall_busy` + `stall`), the discrete-event simulator fills the simulated
//! side (`sim_time`, `gcups_sim`, `sim_busy` + `stall`). The
//! [`StallBreakdown`] is shared: its fields are nanoseconds ([`SimTime`]),
//! and for every device the identity
//! `startup + input_stalls + drain == total_time − busy_time`
//! holds by construction on either backend.

use crate::circbuf::RingStats;
use crate::config::PruneMode;
use megasw_gpusim::SimTime;
use megasw_obs::{MetricsRegistry, ObsSpan};
use megasw_sw::kernel::PathCounts;
use megasw_sw::{BestCell, KernelSelection};
use std::time::Duration;

/// Where one device's idle time went. Works in nanoseconds, so it applies
/// to both the simulated and the wall-clock backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallBreakdown {
    /// Idle before the first kernel (pipeline fill).
    pub startup: SimTime,
    /// Idle between kernels waiting for the left neighbour's borders.
    pub input_stalls: SimTime,
    /// Idle after the last kernel (pipeline drain).
    pub drain: SimTime,
}

impl StallBreakdown {
    /// Total idle time.
    pub fn total(&self) -> SimTime {
        self.startup + self.input_stalls + self.drain
    }

    /// Build the breakdown from one device's kernel-activity envelope:
    /// the run's total duration, the first kernel's start, the last
    /// kernel's end, and the summed kernel busy time (all nanoseconds since
    /// the same epoch). By construction
    /// `total() == total_ns − busy_ns` whenever
    /// `first_start ≤ last_end ≤ total_ns` and `busy ≤ last_end − first_start`.
    pub fn from_envelope(
        total_ns: u64,
        first_start_ns: u64,
        last_end_ns: u64,
        busy_ns: u64,
    ) -> Self {
        StallBreakdown {
            startup: SimTime(first_start_ns),
            input_stalls: SimTime(
                (last_end_ns.saturating_sub(first_start_ns)).saturating_sub(busy_ns),
            ),
            drain: SimTime(total_ns.saturating_sub(last_end_ns)),
        }
    }
}

impl std::fmt::Display for StallBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "startup {} + input {} + drain {} = {}",
            self.startup,
            self.input_stalls,
            self.drain,
            self.total()
        )
    }
}

/// Fine-grained per-device wall-clock attribution: where every nanosecond
/// of a device's makespan went. Complements the coarse [`StallBreakdown`]
/// envelope (which only splits *idle* time) with measured phases, and is
/// produced by both backends.
///
/// The defining property: the seven fields **sum to the device's makespan
/// exactly** — [`StallAttribution::from_measured`] computes `other_ns` as
/// the unattributed remainder, so nothing is double-counted and nothing
/// is lost. `prune_skip_ns` and `simd_rescue_ns` are carved *out of* the
/// coarse busy time (they happen inside the per-tile timing window), so
/// `compute_ns` here is strictly "productive full-tile kernel time".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallAttribution {
    /// Productive kernel time: full tiles computed, minus the rescue and
    /// prune-skip slices below.
    pub compute_ns: u64,
    /// Blocked popping border columns from the predecessor ring.
    pub wait_input_ns: u64,
    /// Blocked pushing border columns to the successor ring.
    pub wait_output_ns: u64,
    /// Depositing checkpoint waves into the host-side store.
    pub checkpoint_ns: u64,
    /// Inside the prune-skip fast path (degenerate tiles).
    pub prune_skip_ns: u64,
    /// Re-running tiles on the scalar kernel after a SIMD rescue.
    pub simd_rescue_ns: u64,
    /// Everything unmeasured: thread startup, drain, row bookkeeping.
    pub other_ns: u64,
}

/// One device's measured phase clocks, in nanoseconds: what
/// [`StallAttribution::from_measured`] splits a makespan by. Clocks of
/// consecutive segments of the same device add up with `+=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseClocks {
    /// Coarse per-tile kernel time (the number behind
    /// `DeviceReport::wall_busy` / `sim_busy`); contains the prune-skip
    /// and rescue slices.
    pub busy_ns: u64,
    pub wait_input_ns: u64,
    pub wait_output_ns: u64,
    pub checkpoint_ns: u64,
    pub prune_skip_ns: u64,
    pub simd_rescue_ns: u64,
}

impl std::ops::AddAssign for PhaseClocks {
    fn add_assign(&mut self, other: PhaseClocks) {
        self.busy_ns += other.busy_ns;
        self.wait_input_ns += other.wait_input_ns;
        self.wait_output_ns += other.wait_output_ns;
        self.checkpoint_ns += other.checkpoint_ns;
        self.prune_skip_ns += other.prune_skip_ns;
        self.simd_rescue_ns += other.simd_rescue_ns;
    }
}

impl StallAttribution {
    /// Build from a device's measured phase clocks. `busy_ns` *contains*
    /// the prune-skip and rescue slices; they are subtracted out so the
    /// seven phases stay disjoint. `other_ns` picks up the remainder,
    /// making [`StallAttribution::total_ns`] equal `wall_ns` by
    /// construction (all subtraction saturates, so clock jitter can
    /// shrink `other_ns` to zero but never underflow).
    pub fn from_measured(wall_ns: u64, clocks: &PhaseClocks) -> Self {
        let compute_ns = clocks
            .busy_ns
            .saturating_sub(clocks.prune_skip_ns)
            .saturating_sub(clocks.simd_rescue_ns);
        let measured = compute_ns
            + clocks.wait_input_ns
            + clocks.wait_output_ns
            + clocks.checkpoint_ns
            + clocks.prune_skip_ns
            + clocks.simd_rescue_ns;
        StallAttribution {
            compute_ns,
            wait_input_ns: clocks.wait_input_ns,
            wait_output_ns: clocks.wait_output_ns,
            checkpoint_ns: clocks.checkpoint_ns,
            prune_skip_ns: clocks.prune_skip_ns,
            simd_rescue_ns: clocks.simd_rescue_ns,
            other_ns: wall_ns.saturating_sub(measured),
        }
    }

    /// Sum of all seven phases — the device's makespan when built via
    /// [`StallAttribution::from_measured`] with consistent clocks.
    pub fn total_ns(&self) -> u64 {
        self.compute_ns
            + self.wait_input_ns
            + self.wait_output_ns
            + self.checkpoint_ns
            + self.prune_skip_ns
            + self.simd_rescue_ns
            + self.other_ns
    }

    /// The non-compute share of the makespan, in `[0, 1]`.
    pub fn stall_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            (total - self.compute_ns) as f64 / total as f64
        }
    }

    /// `(name, nanoseconds)` pairs for all seven phases, in display
    /// order. Names are stable wire identifiers (`compute`,
    /// `wait_input`, …) shared by metrics, JSON and the trace exporter.
    pub fn phases(&self) -> [(&'static str, u64); 7] {
        [
            ("compute", self.compute_ns),
            ("wait_input", self.wait_input_ns),
            ("wait_output", self.wait_output_ns),
            ("checkpoint", self.checkpoint_ns),
            ("prune_skip", self.prune_skip_ns),
            ("simd_rescue", self.simd_rescue_ns),
            ("other", self.other_ns),
        ]
    }
}

impl std::fmt::Display for StallAttribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.total_ns().max(1);
        let mut first = true;
        for (name, ns) in self.phases() {
            if ns == 0 && name != "compute" {
                continue;
            }
            if !first {
                write!(f, " | ")?;
            }
            first = false;
            write!(f, "{name} {:.1}%", 100.0 * ns as f64 / total as f64)?;
        }
        Ok(())
    }
}

/// Per-device section of a [`RunReport`].
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// Index in the platform chain.
    pub device: usize,
    /// Board name.
    pub name: String,
    /// First matrix column of this device's slab (1-based).
    pub slab_j0: usize,
    /// Slab width in columns.
    pub slab_width: usize,
    /// DP cells this device computed in the run's final attempt (after a
    /// recovery or a rebalance, the rows since the checkpoint it resumed
    /// from). The threaded backend's `assemble_report` relies on this: the
    /// checkpointed rows' cells plus every device's `cells` cover `m · n`
    /// exactly. [`RunReport::total_cells`] is the whole-run figure.
    pub cells: u128,
    /// Bytes this device sent to its right-hand neighbour in the final
    /// attempt, like [`DeviceReport::cells`].
    pub bytes_sent: u64,
    /// Outgoing-ring statistics (None for the last device).
    pub ring_out: Option<RingStats>,
    /// Wall-clock time this device's worker spent inside kernels (None for
    /// simulated runs).
    pub wall_busy: Option<Duration>,
    /// Simulated busy time on the compute stream (None for wall-clock runs).
    pub sim_busy: Option<SimTime>,
    /// Simulated utilization: busy / makespan.
    pub sim_utilization: Option<f64>,
    /// Idle-time breakdown (both backends fill this).
    pub stall: Option<StallBreakdown>,
    /// Fine-grained phase attribution whose phases sum to this device's
    /// makespan (both backends fill this; the DES maps its simulated
    /// stalls onto the same phases).
    pub attribution: Option<StallAttribution>,
}

/// Fault-recovery accounting for one run (present whenever the run was
/// executed with a [`RecoveryPolicy`](crate::checkpoint::RecoveryPolicy),
/// even if no fault fired — all-zero in that case).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Completed recoveries: device blacklisted, columns repartitioned,
    /// run resumed from a checkpoint wave.
    pub recoveries: u64,
    /// DP cells whose work was lost to rewinds (computed in a failed
    /// attempt but not covered by the checkpoint resumed from).
    pub rewound_cells: u128,
    /// Border-segment checkpoints deposited in the host-side store.
    pub checkpoints_taken: u64,
    /// Platform indices of the devices that failed, in failure order.
    pub failed_devices: Vec<usize>,
    /// Block-row each recovery resumed from, in failure order.
    pub resumed_from_rows: Vec<usize>,
}

/// Checkpoint-boundary rebalance accounting for one run (present whenever
/// the run executed with
/// [`RebalanceMode::On`](crate::config::RebalanceMode) — all-zero when the
/// controller never found a migration worth applying).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RebalanceReport {
    /// Applied migrations: segment boundaries where the controller changed
    /// at least one slab width and handed off the border wave.
    pub migrations: u64,
    /// Total block-columns moved between devices across all migrations
    /// (sum over migrations of half the total absolute width change,
    /// in matrix columns).
    pub moved_columns: u64,
    /// Segment boundaries at which the controller evaluated a re-split
    /// (applied or not).
    pub evaluations: u64,
    /// Block-row of each applied migration, in order.
    pub applied_at_rows: Vec<usize>,
}

/// Block-pruning accounting for one run (present whenever the run executed
/// with [`PruneMode::Local`] or [`PruneMode::Distributed`]; `None` when
/// pruning was off or forced off by anchored semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PruningReport {
    /// The mode the run actually executed with.
    pub mode: PruneMode,
    /// Tiles skipped via the pruning bound.
    pub tiles_pruned: u64,
    /// Tiles considered (pruned + computed) across all devices.
    pub tiles_total: u64,
    /// DP cells covered by skipped tiles (never computed).
    pub cells_skipped: u128,
    /// How far the slowest device's final watermark lagged the true best
    /// score (`best.score − min worker watermark`); 0 means every device
    /// finished fully informed.
    pub watermark_lag: i64,
}

impl PruningReport {
    /// Fraction of tiles skipped (0 when no tiles were considered).
    pub fn pruned_fraction(&self) -> f64 {
        if self.tiles_total == 0 {
            0.0
        } else {
            self.tiles_pruned as f64 / self.tiles_total as f64
        }
    }
}

/// The result of one multi-GPU run (threaded, simulated, or both).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Best Smith-Waterman cell (score + end position), bit-identical to
    /// the sequential reference.
    pub best: BestCell,
    /// Total DP cells (`m · n`).
    pub total_cells: u128,
    /// Wall-clock duration of the threaded run (None for pure simulation).
    pub wall_time: Option<Duration>,
    /// Wall-clock GCUPS of the threaded run on this host's CPU.
    pub gcups_wall: Option<f64>,
    /// Simulated makespan (None for pure threaded runs).
    pub sim_time: Option<SimTime>,
    /// Simulated GCUPS — the paper-comparable number.
    pub gcups_sim: Option<f64>,
    /// Per-device details, in chain order. After a recovery these describe
    /// the final (surviving) chain and the cells each survivor computed in
    /// the final attempt.
    pub devices: Vec<DeviceReport>,
    /// Block-pruning accounting; `None` unless the run executed with
    /// pruning enabled.
    pub pruning: Option<PruningReport>,
    /// Fault-recovery accounting; `None` unless the run was executed with
    /// a recovery policy.
    pub recovery: Option<RecoveryReport>,
    /// Checkpoint-boundary rebalance accounting; `None` unless the run was
    /// executed with rebalancing enabled.
    pub rebalance: Option<RebalanceReport>,
    /// Which DP engine the run was dispatched to: the requested
    /// [`KernelDispatch`](megasw_sw::KernelDispatch) plus the engine that
    /// actually executed tiles (threaded backend) or was modeled (DES
    /// backend).
    pub kernel: KernelSelection,
    /// Tiles per vector-kernel dispatch path (all 0 on the scalar engine
    /// and for simulated runs); `rescued` counts the SIMD→scalar rescue
    /// re-runs. Like the pruning counts, these cover the whole matrix
    /// once, across rebalance segments and fault rewinds.
    pub kernel_paths: PathCounts,
}

impl RunReport {
    /// GCUPS from a cell count and duration (0 for zero durations).
    pub fn gcups(cells: u128, seconds: f64) -> f64 {
        if seconds <= 0.0 {
            0.0
        } else {
            cells as f64 / seconds / 1e9
        }
    }

    /// Pipeline efficiency versus an aggregate peak: `gcups_sim / peak`.
    pub fn sim_efficiency(&self, aggregate_peak_gcups: f64) -> Option<f64> {
        self.gcups_sim.map(|g| g / aggregate_peak_gcups)
    }

    /// Total bytes moved between devices.
    pub fn total_bytes_transferred(&self) -> u64 {
        self.devices.iter().map(|d| d.bytes_sent).sum()
    }

    /// Build the per-run metrics registry: GCUPS, transfer and ring
    /// counters, occupancy and utilization histograms, and the summed
    /// stall accounting.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.describe("cells.total", "Total DP cells in the comparison matrix");
        m.describe(
            "kernel.simd_rescues",
            "Tiles re-run on the scalar kernel after a SIMD saturation rescue",
        );
        m.describe(
            "kernel.tiles_wide",
            "Tiles the vector engine's full-width wave computed",
        );
        m.describe(
            "kernel.tiles_half",
            "Tiles the AVX-512BW engine ran on the 16-lane AVX2 wave",
        );
        m.describe(
            "kernel.tiles_scalar",
            "Tiles too small for any vector wave, run on the scalar kernel",
        );
        m.describe(
            "stall.startup_ns",
            "Idle nanoseconds before each device's first kernel (pipeline fill)",
        );
        m.describe(
            "stall.input_ns",
            "Idle nanoseconds between kernels waiting on the left neighbour",
        );
        m.describe(
            "stall.drain_ns",
            "Idle nanoseconds after each device's last kernel (pipeline drain)",
        );
        m.incr(
            "cells.total",
            u64::try_from(self.total_cells).unwrap_or(u64::MAX),
        );
        m.incr("bytes.transferred", self.total_bytes_transferred());
        let paths = &self.kernel_paths;
        m.incr("kernel.simd_rescues", paths.rescued);
        m.incr("kernel.tiles_wide", paths.wide);
        m.incr("kernel.tiles_half", paths.half);
        m.incr("kernel.tiles_scalar", paths.scalar);
        if let Some(g) = self.gcups_wall {
            m.observe("gcups.wall", g);
        }
        if let Some(g) = self.gcups_sim {
            m.observe("gcups.sim", g);
        }
        if let Some(pr) = &self.pruning {
            m.incr("pruning.tiles_pruned", pr.tiles_pruned);
            m.incr("pruning.tiles_total", pr.tiles_total);
            m.incr(
                "pruning.cells_skipped",
                u64::try_from(pr.cells_skipped).unwrap_or(u64::MAX),
            );
            m.incr(
                "pruning.watermark_lag",
                u64::try_from(pr.watermark_lag.max(0)).unwrap_or(u64::MAX),
            );
            m.observe("pruning.pruned_fraction", pr.pruned_fraction());
        }
        if let Some(rec) = &self.recovery {
            m.incr("recoveries_total", rec.recoveries);
            m.incr(
                "rewound_cells",
                u64::try_from(rec.rewound_cells).unwrap_or(u64::MAX),
            );
            m.incr("checkpoints_taken", rec.checkpoints_taken);
        }
        if let Some(rb) = &self.rebalance {
            m.describe(
                "rebalance.migrations_total",
                "Applied slab migrations at checkpoint boundaries",
            );
            m.describe(
                "rebalance.moved_columns",
                "Matrix columns moved between devices by rebalance migrations",
            );
            m.describe(
                "rebalance.evaluations",
                "Segment boundaries where a re-split was evaluated",
            );
            m.incr("rebalance.migrations_total", rb.migrations);
            m.incr("rebalance.moved_columns", rb.moved_columns);
            m.incr("rebalance.evaluations", rb.evaluations);
        }
        for d in &self.devices {
            m.observe(
                "device.cells_fraction",
                d.cells as f64 / self.total_cells.max(1) as f64,
            );
            if let Some(u) = d.sim_utilization {
                m.observe("device.utilization", u);
            }
            if let Some(rs) = &d.ring_out {
                m.incr("ring.pushed", rs.pushed);
                m.incr("ring.popped", rs.popped);
                m.incr("ring.producer_blocks", rs.producer_blocks);
                m.incr("ring.consumer_blocks", rs.consumer_blocks);
                m.incr("ring.producer_wait_ns", rs.producer_wait.as_nanos() as u64);
                m.incr("ring.consumer_wait_ns", rs.consumer_wait.as_nanos() as u64);
                m.observe("ring.max_occupancy", rs.max_occupancy as f64);
            }
            if let Some(bd) = &d.stall {
                m.incr("stall.startup_ns", bd.startup.as_nanos());
                m.incr("stall.input_ns", bd.input_stalls.as_nanos());
                m.incr("stall.drain_ns", bd.drain.as_nanos());
            }
            if let Some(attr) = &d.attribution {
                for (phase, ns) in attr.phases() {
                    // Per-device counters plus the run-wide aggregate,
                    // under a shared `attr.` prefix so a dashboard can
                    // stack them.
                    m.incr(&format!("attr.d{}.{phase}_ns", d.device), ns);
                    m.incr(&format!("attr.{phase}_ns"), ns);
                }
                m.observe("attr.stall_fraction", attr.stall_fraction());
            }
        }
        if self.devices.iter().any(|d| d.attribution.is_some()) {
            m.describe(
                "attr.compute_ns",
                "Productive kernel nanoseconds across devices (full tiles, \
                 rescue and prune-skip carved out)",
            );
            m.describe(
                "attr.wait_input_ns",
                "Nanoseconds blocked popping border columns from the predecessor ring",
            );
            m.describe(
                "attr.wait_output_ns",
                "Nanoseconds blocked pushing border columns to the successor ring",
            );
            m.describe(
                "attr.checkpoint_ns",
                "Nanoseconds depositing checkpoint waves",
            );
            m.describe(
                "attr.prune_skip_ns",
                "Nanoseconds in the prune-skip fast path",
            );
            m.describe(
                "attr.simd_rescue_ns",
                "Nanoseconds re-running tiles on the scalar kernel after SIMD rescues",
            );
            m.describe(
                "attr.other_ns",
                "Unattributed nanoseconds (startup, drain, row bookkeeping)",
            );
        }
        m
    }

    /// [`RunReport::metrics`] plus one `span.<kind>.duration_ns` histogram
    /// per span kind observed by a recorder — this is where the percentile
    /// story earns its keep: p99 kernel duration and p99 ring-pop wait are
    /// the tail-latency numbers a min/max/mean summary hides.
    pub fn metrics_with_spans(&self, spans: &[ObsSpan]) -> MetricsRegistry {
        let mut m = self.metrics();
        for span in spans {
            m.observe(
                &format!("span.{}.duration_ns", span.kind.name()),
                span.end_ns.saturating_sub(span.start_ns) as f64,
            );
        }
        m
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "best score {} at ({}, {}) over {} cells [kernel {}]",
            self.best.score, self.best.i, self.best.j, self.total_cells, self.kernel
        )?;
        if let (Some(t), Some(g)) = (self.sim_time, self.gcups_sim) {
            writeln!(f, "  simulated: {t}  ({g:.2} GCUPS)")?;
        }
        if let (Some(t), Some(g)) = (self.wall_time, self.gcups_wall) {
            writeln!(f, "  wall:      {t:.3?}  ({g:.3} GCUPS on host CPU)")?;
        }
        if let Some(pr) = &self.pruning {
            writeln!(
                f,
                "  pruning:   {} — {}/{} tiles pruned ({:.1}%), {} cells skipped, watermark lag {}",
                pr.mode,
                pr.tiles_pruned,
                pr.tiles_total,
                100.0 * pr.pruned_fraction(),
                pr.cells_skipped,
                pr.watermark_lag
            )?;
        }
        if let Some(rec) = &self.recovery {
            writeln!(
                f,
                "  recovery:  {} recoveries, {} cells rewound, {} checkpoints (failed devices {:?}, resumed from rows {:?})",
                rec.recoveries,
                rec.rewound_cells,
                rec.checkpoints_taken,
                rec.failed_devices,
                rec.resumed_from_rows
            )?;
        }
        if let Some(rb) = &self.rebalance {
            writeln!(
                f,
                "  rebalance: {} migrations, {} columns moved, {} evaluations (applied at rows {:?})",
                rb.migrations, rb.moved_columns, rb.evaluations, rb.applied_at_rows
            )?;
        }
        for d in &self.devices {
            write!(
                f,
                "  gpu{} {:<22} cols {:>9}..{:<9} ({:>5.1}%)",
                d.device,
                d.name,
                d.slab_j0,
                d.slab_j0 + d.slab_width,
                100.0 * d.cells as f64 / self.total_cells.max(1) as f64
            )?;
            if let Some(u) = d.sim_utilization {
                write!(f, "  util {:>5.1}%", u * 100.0)?;
            }
            if let Some(rs) = &d.ring_out {
                write!(
                    f,
                    "  ring: {} sent, max occ {}, blocked {}p/{}c",
                    rs.pushed, rs.max_occupancy, rs.producer_blocks, rs.consumer_blocks
                )?;
            }
            if let Some(bd) = &d.stall {
                write!(f, "  stall: {bd}")?;
            }
            writeln!(f)?;
            if let Some(attr) = &d.attribution {
                writeln!(f, "       attribution: {attr}")?;
            }
        }
        let p = &self.kernel_paths;
        if *p != PathCounts::default() {
            writeln!(
                f,
                "  kernel paths: {} wide, {} half, {} scalar; simd rescues: {}",
                p.wide, p.half, p.scalar, p.rescued
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcups_math() {
        assert_eq!(RunReport::gcups(2_000_000_000, 2.0), 1.0);
        assert_eq!(RunReport::gcups(1_000, 0.0), 0.0);
    }

    #[test]
    fn stall_envelope_identity() {
        // total 100, kernels within [10, 80], busy 50 → idle = 50.
        let bd = StallBreakdown::from_envelope(100, 10, 80, 50);
        assert_eq!(bd.startup, SimTime(10));
        assert_eq!(bd.input_stalls, SimTime(20));
        assert_eq!(bd.drain, SimTime(20));
        assert_eq!(bd.total(), SimTime(100 - 50));
    }

    #[test]
    fn stall_envelope_saturates_instead_of_underflowing() {
        let bd = StallBreakdown::from_envelope(50, 10, 60, 100);
        assert_eq!(bd.input_stalls, SimTime::ZERO);
        assert_eq!(bd.drain, SimTime::ZERO);
    }

    fn clocks() -> PhaseClocks {
        PhaseClocks {
            busy_ns: 5_000_000,
            wait_input_ns: 2_000_000,
            wait_output_ns: 500_000,
            checkpoint_ns: 200_000,
            prune_skip_ns: 100_000,
            simd_rescue_ns: 50_000,
        }
    }

    fn report() -> RunReport {
        RunReport {
            best: BestCell::new(42, 7, 9),
            total_cells: 1_000_000,
            wall_time: Some(Duration::from_millis(10)),
            gcups_wall: Some(0.1),
            sim_time: Some(SimTime::from_millis(2)),
            gcups_sim: Some(0.5),
            devices: vec![DeviceReport {
                device: 0,
                name: "TestBoard".into(),
                slab_j0: 1,
                slab_width: 1_000,
                cells: 1_000_000,
                bytes_sent: 512,
                ring_out: Some(RingStats {
                    pushed: 3,
                    popped: 3,
                    max_occupancy: 2,
                    producer_blocks: 1,
                    consumer_blocks: 0,
                    producer_wait: Duration::from_micros(5),
                    consumer_wait: Duration::ZERO,
                }),
                wall_busy: Some(Duration::from_millis(7)),
                sim_busy: Some(SimTime::from_millis(1)),
                sim_utilization: Some(0.5),
                stall: Some(StallBreakdown::from_envelope(
                    10_000_000, 1_000_000, 8_000_000, 5_000_000,
                )),
                attribution: Some(StallAttribution::from_measured(10_000_000, &clocks())),
            }],
            pruning: Some(PruningReport {
                mode: PruneMode::Distributed,
                tiles_pruned: 25,
                tiles_total: 100,
                cells_skipped: 250_000,
                watermark_lag: 3,
            }),
            recovery: Some(RecoveryReport {
                recoveries: 1,
                rewound_cells: 12_345,
                checkpoints_taken: 4,
                failed_devices: vec![1],
                resumed_from_rows: vec![8],
            }),
            rebalance: Some(RebalanceReport {
                migrations: 2,
                moved_columns: 96,
                evaluations: 5,
                applied_at_rows: vec![16, 48],
            }),
            kernel: KernelSelection::default(),
            kernel_paths: PathCounts {
                wide: 40,
                half: 7,
                scalar: 3,
                rescued: 2,
            },
        }
    }

    #[test]
    fn attribution_phases_sum_to_the_makespan() {
        let attr = StallAttribution::from_measured(10_000_000, &clocks());
        // prune_skip + simd_rescue are carved out of busy.
        assert_eq!(attr.compute_ns, 5_000_000 - 100_000 - 50_000);
        assert_eq!(attr.total_ns(), 10_000_000);
        let expected_stall = 10_000_000 - attr.compute_ns;
        assert!(
            (attr.stall_fraction() - expected_stall as f64 / 10_000_000.0).abs() < 1e-12,
            "{}",
            attr.stall_fraction()
        );
        // Over-measured phases saturate instead of underflowing; the sum
        // then equals the measured time, never less than the phases.
        let noisy = StallAttribution::from_measured(
            100,
            &PhaseClocks {
                busy_ns: 300,
                wait_input_ns: 50,
                ..PhaseClocks::default()
            },
        );
        assert_eq!(noisy.other_ns, 0);
        assert_eq!(noisy.total_ns(), 350);
    }

    #[test]
    fn attribution_metrics_have_per_device_and_aggregate_series() {
        let m = report().metrics();
        let attr = report().devices[0].attribution.unwrap();
        assert_eq!(m.counter("attr.d0.compute_ns"), Some(attr.compute_ns));
        assert_eq!(m.counter("attr.d0.wait_input_ns"), Some(2_000_000));
        assert_eq!(m.counter("attr.wait_input_ns"), Some(2_000_000));
        assert_eq!(m.counter("attr.simd_rescue_ns"), Some(50_000));
        assert_eq!(m.counter("attr.other_ns"), Some(attr.other_ns));
        assert_eq!(m.counter("kernel.simd_rescues"), Some(2));
        assert_eq!(m.counter("kernel.tiles_wide"), Some(40));
        assert_eq!(m.counter("kernel.tiles_half"), Some(7));
        assert_eq!(m.counter("kernel.tiles_scalar"), Some(3));
        for family in ["simd_rescues", "tiles_wide", "tiles_half", "tiles_scalar"] {
            assert!(m.help(&format!("kernel.{family}")).is_some(), "{family}");
        }
        assert!(m.help("attr.compute_ns").is_some());
        assert_eq!(m.histogram("attr.stall_fraction").unwrap().count, 1);
        // The aggregate phase counters sum to the summed makespans.
        let agg: u64 = attr
            .phases()
            .iter()
            .map(|(p, _)| m.counter(&format!("attr.{p}_ns")).unwrap())
            .sum();
        assert_eq!(agg, attr.total_ns());
        // Attribution-free reports emit no attr series.
        let mut bare = report();
        bare.devices[0].attribution = None;
        assert_eq!(bare.metrics().counter("attr.compute_ns"), None);
    }

    #[test]
    fn efficiency_and_totals() {
        let r = report();
        assert!((r.sim_efficiency(1.0).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(r.total_bytes_transferred(), 512);
    }

    #[test]
    fn display_contains_key_facts() {
        let text = report().to_string();
        assert!(text.contains("best score 42"));
        assert!(text.contains("[kernel auto("));
        assert!(text.contains("GCUPS"));
        assert!(text.contains("TestBoard"));
        assert!(text.contains("stall:"));
        assert!(text.contains("attribution: compute"));
        assert!(text.contains("simd rescues: 2"));
        assert!(text.contains("kernel paths: 40 wide, 7 half, 3 scalar"));
        assert!(text.contains("recovery:  1 recoveries"));
        assert!(text.contains("12345 cells rewound"));
        assert!(text.contains("pruning:   distributed — 25/100 tiles pruned (25.0%)"));
        // A pruning-free run prints no pruning line at all.
        let mut bare = report();
        bare.pruning = None;
        assert!(!bare.to_string().contains("pruning:"));
        // Nor does a run no vector engine touched print path counts.
        bare.kernel_paths = PathCounts::default();
        assert!(!bare.to_string().contains("kernel paths"));
    }

    #[test]
    fn rebalance_metrics_and_display() {
        let r = report();
        let m = r.metrics();
        assert_eq!(m.counter("rebalance.migrations_total"), Some(2));
        assert_eq!(m.counter("rebalance.moved_columns"), Some(96));
        assert_eq!(m.counter("rebalance.evaluations"), Some(5));
        assert!(m.help("rebalance.migrations_total").is_some());
        let text = r.to_string();
        assert!(text.contains("rebalance: 2 migrations, 96 columns moved, 5 evaluations"));
        assert!(text.contains("applied at rows [16, 48]"));
        // Rebalance off → no counters, no display line.
        let mut bare = report();
        bare.rebalance = None;
        assert_eq!(bare.metrics().counter("rebalance.migrations_total"), None);
        assert!(!bare.to_string().contains("rebalance:"));
    }

    #[test]
    fn pruning_metrics_and_fraction() {
        let r = report();
        let pr = r.pruning.as_ref().unwrap();
        assert!((pr.pruned_fraction() - 0.25).abs() < 1e-12);
        let m = r.metrics();
        assert_eq!(m.counter("pruning.tiles_pruned"), Some(25));
        assert_eq!(m.counter("pruning.tiles_total"), Some(100));
        assert_eq!(m.counter("pruning.cells_skipped"), Some(250_000));
        assert_eq!(m.counter("pruning.watermark_lag"), Some(3));
        assert_eq!(m.histogram("pruning.pruned_fraction").unwrap().count, 1);
        // Pruning off → no pruning metrics.
        let mut bare = report();
        bare.pruning = None;
        assert_eq!(bare.metrics().counter("pruning.tiles_pruned"), None);
        // Zero tiles_total does not divide by zero.
        let zero = PruningReport {
            mode: PruneMode::Local,
            tiles_pruned: 0,
            tiles_total: 0,
            cells_skipped: 0,
            watermark_lag: 0,
        };
        assert_eq!(zero.pruned_fraction(), 0.0);
    }

    #[test]
    fn metrics_with_spans_adds_duration_histograms() {
        use megasw_obs::ObsKind;
        let spans: Vec<ObsSpan> = (0..10)
            .map(|i| ObsSpan {
                kind: if i % 2 == 0 {
                    ObsKind::Kernel
                } else {
                    ObsKind::RingPopWait
                },
                device: Some(0),
                block_row: Some(i as u32),
                start_ns: i * 100,
                end_ns: i * 100 + 50 + i,
            })
            .collect();
        let m = report().metrics_with_spans(&spans);
        let k = m.histogram("span.kernel.duration_ns").unwrap();
        assert_eq!(k.count, 5);
        assert!(k.p99() >= k.p50());
        let w = m.histogram("span.ring_pop_wait.duration_ns").unwrap();
        assert_eq!(w.count, 5);
        // The base metrics are still present.
        assert_eq!(m.counter("bytes.transferred"), Some(512));
    }

    #[test]
    fn metrics_cover_gcups_rings_and_stalls() {
        let m = report().metrics();
        assert_eq!(m.counter("bytes.transferred"), Some(512));
        assert_eq!(m.counter("recoveries_total"), Some(1));
        assert_eq!(m.counter("rewound_cells"), Some(12_345));
        assert_eq!(m.counter("checkpoints_taken"), Some(4));
        // A policy-free run emits no recovery counters at all.
        let mut bare = report();
        bare.recovery = None;
        assert_eq!(bare.metrics().counter("recoveries_total"), None);
        assert_eq!(m.counter("ring.pushed"), Some(3));
        assert_eq!(m.counter("ring.producer_wait_ns"), Some(5_000));
        assert_eq!(m.counter("stall.startup_ns"), Some(1_000_000));
        assert_eq!(m.histogram("gcups.wall").unwrap().count, 1);
        assert_eq!(m.histogram("ring.max_occupancy").unwrap().max, 2.0);
        assert_eq!(m.histogram("device.utilization").unwrap().count, 1);
    }
}
