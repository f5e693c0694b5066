//! Host-side checkpoint store and the recovery policy.
//!
//! Fault tolerance in the pipeline rests on one structural fact of the
//! block decomposition (see `sw::border`): the full-width bottom
//! [`RowBorder`](megasw_sw::border::RowBorder) of block-row `W − 1` — the
//! H and F lanes along matrix row `W · block_h` — together with the best
//! cell observed in rows `< W · block_h`, completely determines every DP
//! value in rows `≥ W · block_h`. We call that pair a **checkpoint wave**
//! `W`. Devices deposit their slab's segment of the bottom border here on
//! the configured [`CheckpointCadence`](crate::config::CheckpointCadence);
//! when a device dies, the coordinator rewinds to the newest wave to which
//! *every* slab of some attempt has contributed, reassembles the full-width
//! border from the segments, and restarts the survivors from it. Because
//! the DP is deterministic and the checkpointed lanes are exact (not
//! summaries), the resumed run is bit-identical to a fault-free run.
//!
//! Each segment also carries the depositing worker's **pruning watermark**
//! (DESIGN.md §10), so a resumed attempt can seed its workers with the
//! best-score knowledge the failed attempt had already propagated — pruning
//! composes with recovery instead of restarting cold — and its running
//! [`WorkCounts`], so a run that resumes from a wave (after a rebalance
//! boundary or a fault rewind) still reports counts over the whole matrix,
//! each row counted once.
//!
//! The store is deliberately dumb: a mutex around per-attempt logs. It is
//! written once per device per checkpoint wave — far off the per-block hot
//! path — so contention is irrelevant. It holds only what
//! [`CheckpointStore::newest_complete`] can still return: when a wave
//! completes, every older wave of every attempt is dropped, so a long
//! recovering run keeps one full-width wave plus the partial waves in
//! flight instead of every wave it ever took.

use megasw_sw::kernel::PathCounts;
use megasw_sw::{BestCell, Score};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Knobs for the recovery driver. The checkpoint *cadence* lives on
/// [`KernelPolicy`](crate::config::KernelPolicy); this policy only bounds
/// how many failures a run tolerates before surfacing the fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Give up (surface the original fault) after this many device
    /// failures in one run.
    pub max_device_failures: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            max_device_failures: 1,
        }
    }
}

/// The checkpoint interval, in block-rows, that a recovering run needs on
/// top of [`RunConfig::validate`](crate::config::RunConfig::validate):
/// without a cadence there is no wave to rewind to.
pub(crate) fn recovery_interval(config: &crate::config::RunConfig) -> Result<usize, String> {
    config.policy.checkpoint.rows_interval().ok_or_else(|| {
        "recovery requires a checkpoint cadence (policy.checkpoint must not be Disabled)"
            .to_string()
    })
}

/// Per-tile work counters a run reports as whole-run totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Tiles skipped via the pruning bound.
    pub tiles_pruned: u64,
    /// Tiles considered (pruned + computed).
    pub tiles_total: u64,
    /// DP cells covered by skipped tiles.
    pub cells_skipped: u128,
    /// Tiles per kernel dispatch path (`rescued` counts the SIMD→scalar
    /// rescue re-runs).
    pub kernel_paths: PathCounts,
}

impl std::ops::Add for WorkCounts {
    type Output = WorkCounts;
    fn add(self, o: WorkCounts) -> WorkCounts {
        WorkCounts {
            tiles_pruned: self.tiles_pruned + o.tiles_pruned,
            tiles_total: self.tiles_total + o.tiles_total,
            cells_skipped: self.cells_skipped + o.cells_skipped,
            kernel_paths: self.kernel_paths + o.kernel_paths,
        }
    }
}

impl std::iter::Sum for WorkCounts {
    fn sum<I: Iterator<Item = WorkCounts>>(iter: I) -> WorkCounts {
        iter.fold(WorkCounts::default(), |acc, c| acc + c)
    }
}

/// What a slab deposits with its border lanes: the best cell its device
/// has seen since its attempt started, its pruning watermark at deposit
/// time, and its work counters since its attempt started.
#[derive(Debug, Clone, Copy)]
pub struct SlabTally {
    pub best: BestCell,
    pub watermark: Score,
    pub counts: WorkCounts,
}

/// One slab's contribution to a checkpoint wave: its segment of the bottom
/// border (H and F lanes, `width + 1` entries including the shared corner)
/// plus its [`SlabTally`].
#[derive(Debug, Clone)]
struct SlabCkpt {
    h: Vec<Score>,
    f: Vec<Score>,
    tally: SlabTally,
}

/// The geometry a slab occupied when its attempt started; `j0` is the
/// 1-based first column, so the slab's border segment covers global border
/// indices `j0 − 1 ..= j0 − 1 + width`.
#[derive(Debug, Clone, Copy)]
struct SlabGeom {
    j0: usize,
    width: usize,
}

/// One attempt's checkpoint log. A wave is complete when every slab of
/// *this* attempt has contributed its segment.
#[derive(Debug)]
struct AttemptLog {
    /// Block-row the attempt started from (0 for the first attempt).
    start_row: usize,
    /// Best cell already established before this attempt began (merged
    /// from the checkpoint the attempt resumed from).
    base_best: BestCell,
    /// Work counted over the rows above `start_row`.
    base_counts: WorkCounts,
    slabs: Vec<SlabGeom>,
    /// wave → per-slab contributions (indexed like `slabs`).
    waves: BTreeMap<usize, Vec<Option<SlabCkpt>>>,
}

/// A fully assembled, consistent checkpoint: the newest complete wave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The wave index: the resumed attempt starts at block-row `wave`.
    pub wave: usize,
    /// Full-width H lane of the border row, `n + 1` entries.
    pub h: Vec<Score>,
    /// Full-width F lane of the border row, `n + 1` entries.
    pub f: Vec<Score>,
    /// Best cell over all rows above the border.
    pub best: BestCell,
    /// Highest pruning watermark any depositing worker held at this wave.
    /// Every watermark value was once an actually-observed cell score, so
    /// it never exceeds the true global best and is safe to seed resumed
    /// workers with (see DESIGN.md §10).
    pub watermark: Score,
    /// Work counted over all rows above the border.
    pub counts: WorkCounts,
}

/// Host-side store of border checkpoints, shared by the coordinator and
/// every worker of a recovering run.
#[derive(Debug)]
pub struct CheckpointStore {
    /// Full matrix width (columns of `b`); assembled lanes are `n + 1` long.
    n: usize,
    inner: Mutex<StoreInner>,
}

#[derive(Debug, Default)]
struct StoreInner {
    attempts: Vec<AttemptLog>,
    taken: u64,
}

impl CheckpointStore {
    /// An empty store for a matrix with `n` columns.
    pub fn new(n: usize) -> CheckpointStore {
        CheckpointStore {
            n,
            inner: Mutex::new(StoreInner::default()),
        }
    }

    /// Open the log for a new attempt covering `slabs` (as `(j0, width)`
    /// pairs in chain order) from `start_row`, with `base_best` already
    /// established and `base_counts` already counted above the resume
    /// border. Returns the attempt id to pass to [`CheckpointStore::record`].
    pub fn begin_attempt(
        &self,
        start_row: usize,
        base_best: BestCell,
        base_counts: WorkCounts,
        slabs: &[(usize, usize)],
    ) -> usize {
        let mut inner = self.inner.lock().unwrap();
        inner.attempts.push(AttemptLog {
            start_row,
            base_best,
            base_counts,
            slabs: slabs
                .iter()
                .map(|&(j0, width)| SlabGeom { j0, width })
                .collect(),
            waves: BTreeMap::new(),
        });
        inner.attempts.len() - 1
    }

    /// Deposit slab `slab_idx`'s segment for `wave`: the `(H, F)` lanes of
    /// its bottom border (`width + 1` entries each) and its [`SlabTally`]
    /// (watermark 0 when pruning is off).
    ///
    /// Takes slices and copies under the store lock, so workers can reuse
    /// one per-lane scratch buffer across block-rows instead of allocating
    /// a fresh `Vec` pair per deposit.
    pub fn record(
        &self,
        attempt: usize,
        wave: usize,
        slab_idx: usize,
        (h, f): (&[Score], &[Score]),
        tally: SlabTally,
    ) {
        let mut inner = self.inner.lock().unwrap();
        inner.taken += 1;
        let log = &mut inner.attempts[attempt];
        debug_assert!(wave > log.start_row, "wave {wave} not past the start row");
        debug_assert_eq!(h.len(), log.slabs[slab_idx].width + 1);
        let n_slabs = log.slabs.len();
        let entry = log.waves.entry(wave).or_insert_with(|| vec![None; n_slabs]);
        entry[slab_idx] = Some(SlabCkpt {
            h: h.to_vec(),
            f: f.to_vec(),
            tally,
        });
        if entry.iter().all(Option::is_some) {
            // `newest_complete` can never serve a wave older than this
            // one again, whichever attempt holds it.
            for log in &mut inner.attempts {
                log.waves = log.waves.split_off(&wave);
            }
        }
    }

    /// `(attempt, wave)` of every wave the store still holds, complete or
    /// not, in attempt then wave order.
    #[cfg(test)]
    fn held_waves(&self) -> Vec<(usize, usize)> {
        let inner = self.inner.lock().unwrap();
        inner
            .attempts
            .iter()
            .enumerate()
            .flat_map(|(a, log)| log.waves.keys().map(move |&w| (a, w)))
            .collect()
    }

    /// Total segments deposited across the run (the `checkpoints_taken`
    /// counter).
    pub fn checkpoints_taken(&self) -> u64 {
        self.inner.lock().unwrap().taken
    }

    /// Assemble the newest *complete* wave across all attempts: the
    /// largest wave for which some attempt holds a segment from every one
    /// of its slabs. All attempts compute the same deterministic DP, so
    /// segments from any attempt are bit-identical and the newest complete
    /// wave — whichever attempt produced it — is globally valid.
    pub fn newest_complete(&self) -> Option<Checkpoint> {
        let inner = self.inner.lock().unwrap();
        let mut best_wave: Option<(usize, usize)> = None; // (wave, attempt)
        for (a_idx, log) in inner.attempts.iter().enumerate() {
            for (&wave, segs) in log.waves.iter().rev() {
                if segs.iter().all(Option::is_some) {
                    if best_wave.is_none_or(|(w, _)| wave > w) {
                        best_wave = Some((wave, a_idx));
                    }
                    break; // newest complete wave of this attempt found
                }
            }
        }
        let (wave, a_idx) = best_wave?;
        let log = &inner.attempts[a_idx];
        let segs = &log.waves[&wave];
        let mut h = vec![0; self.n + 1];
        let mut f = vec![0; self.n + 1];
        let mut best = log.base_best;
        let mut watermark = log.base_best.score;
        let mut counts = log.base_counts;
        for (geom, seg) in log.slabs.iter().zip(segs.iter()) {
            let seg = seg.as_ref().expect("complete wave has every segment");
            // Slab segments overlap at shared corners; both writers hold
            // the same value, so last-write-wins is harmless.
            h[geom.j0 - 1..=geom.j0 - 1 + geom.width].copy_from_slice(&seg.h);
            f[geom.j0 - 1..=geom.j0 - 1 + geom.width].copy_from_slice(&seg.f);
            best = best.merge(seg.tally.best);
            watermark = watermark.max(seg.tally.watermark);
            counts = counts + seg.tally.counts;
        }
        Some(Checkpoint {
            wave,
            h,
            f,
            best,
            watermark,
            counts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(width: usize, fill: Score) -> (Vec<Score>, Vec<Score>) {
        (vec![fill; width + 1], vec![fill - 1; width + 1])
    }

    fn tally(best: BestCell, watermark: Score) -> SlabTally {
        SlabTally {
            best,
            watermark,
            counts: WorkCounts::default(),
        }
    }

    fn counts(tiles_total: u64, tiles_pruned: u64) -> WorkCounts {
        WorkCounts {
            tiles_pruned,
            tiles_total,
            cells_skipped: u128::from(tiles_pruned) * 100,
            kernel_paths: PathCounts {
                wide: tiles_total - tiles_pruned - tiles_total / 4,
                rescued: tiles_total / 4,
                ..PathCounts::default()
            },
        }
    }

    #[test]
    fn assembled_counts_add_the_base_and_every_segment() {
        // A resumed attempt's wave counts the rows above its own start
        // (the base) plus what each of its slabs deposited since.
        let store = CheckpointStore::new(8);
        let a = store.begin_attempt(2, BestCell::ZERO, counts(10, 3), &[(1, 4), (5, 4)]);
        let (h, f) = seg(4, 1);
        for (slab, c) in [(0, counts(6, 1)), (1, counts(8, 2))] {
            let tally = SlabTally {
                counts: c,
                ..tally(BestCell::ZERO, 0)
            };
            store.record(a, 4, slab, (&h, &f), tally);
        }
        let ck = store.newest_complete().unwrap();
        assert_eq!(ck.counts, counts(10, 3) + counts(6, 1) + counts(8, 2));
        assert_eq!(ck.counts.tiles_total, 24);
        assert_eq!(ck.counts.kernel_paths.wide, 13);
        assert_eq!(ck.counts.kernel_paths.rescued, 5);
    }

    #[test]
    fn empty_store_has_no_checkpoint() {
        let store = CheckpointStore::new(100);
        assert!(store.newest_complete().is_none());
        assert_eq!(store.checkpoints_taken(), 0);
    }

    #[test]
    fn incomplete_wave_is_not_served() {
        let store = CheckpointStore::new(10);
        let a = store.begin_attempt(0, BestCell::ZERO, WorkCounts::default(), &[(1, 6), (7, 4)]);
        let (h, f) = seg(6, 5);
        store.record(a, 4, 0, (&h, &f), tally(BestCell::ZERO, 0));
        assert!(store.newest_complete().is_none());
    }

    #[test]
    fn complete_wave_assembles_full_width_lanes() {
        let store = CheckpointStore::new(10);
        let a = store.begin_attempt(0, BestCell::ZERO, WorkCounts::default(), &[(1, 6), (7, 4)]);
        let (h0, f0) = seg(6, 5);
        let (h1, f1) = seg(4, 9);
        store.record(a, 4, 0, (&h0, &f0), tally(BestCell::new(3, 2, 2), 3));
        store.record(a, 4, 1, (&h1, &f1), tally(BestCell::new(7, 3, 8), 7));
        let ck = store.newest_complete().unwrap();
        assert_eq!(ck.wave, 4);
        assert_eq!(ck.h.len(), 11);
        // Index 6 is the shared corner: slab 1's copy lands last.
        assert_eq!(ck.h[0..6], [5; 6]);
        assert_eq!(ck.h[6..11], [9; 5]);
        assert_eq!(ck.best, BestCell::new(7, 3, 8));
        // The assembled watermark is the max over segment watermarks.
        assert_eq!(ck.watermark, 7);
        assert_eq!(store.checkpoints_taken(), 2);
    }

    #[test]
    fn newest_complete_wave_wins_across_attempts() {
        let store = CheckpointStore::new(8);
        let a0 = store.begin_attempt(0, BestCell::ZERO, WorkCounts::default(), &[(1, 4), (5, 4)]);
        let (h, f) = seg(4, 1);
        store.record(a0, 2, 0, (&h, &f), tally(BestCell::ZERO, 0));
        store.record(a0, 2, 1, (&h, &f), tally(BestCell::ZERO, 0));
        // Attempt 0 also has a newer but incomplete wave.
        store.record(a0, 4, 0, (&h, &f), tally(BestCell::ZERO, 0));
        // A second attempt (one surviving slab) completes wave 6.
        let a1 = store.begin_attempt(2, BestCell::new(9, 1, 1), WorkCounts::default(), &[(1, 8)]);
        let (h8, f8) = seg(8, 2);
        store.record(a1, 6, 0, (&h8, &f8), tally(BestCell::ZERO, 4));
        let ck = store.newest_complete().unwrap();
        assert_eq!(ck.wave, 6);
        assert_eq!(ck.h, vec![2; 9]);
        // base_best of the serving attempt is folded in.
        assert_eq!(ck.best, BestCell::new(9, 1, 1));
        // The watermark floor is the serving attempt's base best score.
        assert_eq!(ck.watermark, 9);
    }

    #[test]
    fn completed_wave_drops_every_older_wave_in_every_attempt() {
        let store = CheckpointStore::new(8);
        let (h, f) = seg(4, 1);
        let a0 = store.begin_attempt(0, BestCell::ZERO, WorkCounts::default(), &[(1, 4), (5, 4)]);
        store.record(a0, 2, 0, (&h, &f), tally(BestCell::ZERO, 0));
        store.record(a0, 2, 1, (&h, &f), tally(BestCell::ZERO, 0));
        store.record(a0, 4, 0, (&h, &f), tally(BestCell::ZERO, 0));
        // Wave 2 is the newest complete; partial wave 4 rides along.
        assert_eq!(store.held_waves(), vec![(0, 2), (0, 4)]);
        store.record(a0, 4, 1, (&h, &f), tally(BestCell::ZERO, 0));
        store.record(a0, 6, 1, (&h, &f), tally(BestCell::ZERO, 0));
        assert_eq!(store.held_waves(), vec![(0, 4), (0, 6)]);
        // A resumed attempt completing a newer wave also drops attempt 0's
        // older waves, complete (4) and partial (6) alike.
        let a1 = store.begin_attempt(4, BestCell::ZERO, WorkCounts::default(), &[(1, 8)]);
        let (h8, f8) = seg(8, 2);
        store.record(a1, 8, 0, (&h8, &f8), tally(BestCell::new(5, 1, 1), 0));
        assert_eq!(store.held_waves(), vec![(1, 8)]);
        let ck = store.newest_complete().unwrap();
        assert_eq!(ck.wave, 8);
        assert_eq!(ck.h, vec![2; 9]);
        assert_eq!(ck.best, BestCell::new(5, 1, 1));
        // Every deposit still counts, kept or dropped.
        assert_eq!(store.checkpoints_taken(), 6);
    }
}
