//! Static load-balance calibration.
//!
//! The paper sizes each device's slab proportionally to its compute power,
//! measured once before the run. Here the "measurement" is a micro-run of
//! the kernel timing model on a representative block-row (rather than
//! reading `peak_gcups()` off the spec sheet) — the distinction matters
//! because short slabs run below peak on wide devices, so calibrated
//! weights can differ from nameplate ratios, exactly as on real hardware.

use crate::partition::{resplit_slabs, Slab};
use megasw_gpusim::{KernelModel, Platform};

/// Calibrated relative weights, one per device (arbitrary scale).
///
/// `probe_cells` is the size of the timing probe (a representative
/// block-row's cell count); `probe_blocks` its parallel width in tiles.
pub fn calibrate_weights(platform: &Platform, probe_blocks: u32, probe_cells: u64) -> Vec<f64> {
    platform
        .devices
        .iter()
        .map(|d| {
            let model = KernelModel::new(d.clone());
            let t = model.launch_time(probe_blocks, probe_cells).as_secs_f64();
            if t <= 0.0 {
                1.0
            } else {
                probe_cells as f64 / t
            }
        })
        .collect()
}

/// Default probe: a 512-row block-row of a 64-tile slab (≈ 16.8M cells).
pub fn default_weights(platform: &Platform) -> Vec<f64> {
    calibrate_weights(platform, 64, 64 * 512 * 512)
}

/// The theoretical best-case GCUPS of a proportionally balanced pipeline:
/// the aggregate of the per-device sustained rates on probe-shaped rows.
pub fn balanced_peak_gcups(platform: &Platform) -> f64 {
    default_weights(platform).iter().sum::<f64>() / 1e9
}

/// The checkpoint-boundary rebalance decision both backends share
/// (DESIGN.md §13). `rates` is each slab's measured effective throughput
/// (covered cells per busy nanosecond), parallel to `slabs`. The predicted
/// remaining makespan under the current widths, `max(width / rate)`, is
/// weighed against a split proportional to the rates, `n / Σ rate`; when
/// the relative improvement clears `threshold`, the columns are re-split
/// by the rates. A zero rate (a DES segment whose tiles were all pruned)
/// counts as the smallest positive one, so its slab keeps one block.
/// Returns the new slabs and the number of columns that change hands, or
/// `None` when the improvement falls short or the re-split moves nothing.
pub fn plan_rebalance(
    n: usize,
    block_w: usize,
    slabs: &[Slab],
    rates: &[f64],
    threshold: f64,
) -> Option<(Vec<Slab>, usize)> {
    let positive = |x: f64| x.max(f64::MIN_POSITIVE);
    let rates: Vec<f64> = rates.iter().map(|&r| positive(r)).collect();
    let t_static = slabs
        .iter()
        .zip(&rates)
        .map(|(s, &r)| s.width as f64 / r)
        .fold(0.0_f64, f64::max);
    let t_balanced = n as f64 / positive(rates.iter().sum());
    let improvement = 1.0 - t_balanced / positive(t_static);
    if improvement >= threshold {
        let devices: Vec<usize> = slabs.iter().map(|s| s.device).collect();
        let new_slabs = resplit_slabs(n, block_w, &devices, &rates);
        // Widths sum to `n` on both sides, so half the total absolute delta
        // is exactly the columns that changed hands.
        let moved = new_slabs
            .iter()
            .map(|ns| {
                let old = slabs.iter().find(|s| s.device == ns.device);
                ns.width.abs_diff(old.map_or(0, |s| s.width))
            })
            .sum::<usize>()
            / 2;
        if moved > 0 {
            return Some((new_slabs, moved));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use megasw_gpusim::catalog;

    #[test]
    fn weights_order_matches_device_power() {
        let p = Platform::env2(); // Titan > 680 > K20
        let w = default_weights(&p);
        assert_eq!(w.len(), 3);
        assert!(w[0] > w[1]);
        assert!(w[1] > w[2]);
    }

    #[test]
    fn homogeneous_weights_are_equal() {
        let p = Platform::homogeneous(catalog::gtx680(), 3);
        let w = default_weights(&p);
        assert!((w[0] - w[1]).abs() / w[0] < 1e-9);
        assert!((w[1] - w[2]).abs() / w[1] < 1e-9);
    }

    #[test]
    fn calibrated_weights_sit_below_nameplate_peak() {
        let p = Platform::single(catalog::gtx_titan());
        let w = default_weights(&p);
        let sustained_gcups = w[0] / 1e9;
        let peak = p.devices[0].peak_gcups();
        assert!(sustained_gcups < peak);
        assert!(sustained_gcups > 0.9 * peak, "{sustained_gcups} vs {peak}");
    }

    #[test]
    fn narrow_probes_penalize_wide_devices() {
        // With a 4-tile probe, a 16-SM board runs at 1/4 duty while an
        // 8-SM board runs at 1/2: calibration must see that.
        let p = Platform::custom("t", vec![catalog::gtx580(), catalog::gtx680()]);
        let wide = calibrate_weights(&p, 64, 64 * 512 * 512);
        let narrow = calibrate_weights(&p, 4, 4 * 512 * 512);
        let wide_ratio = wide[0] / wide[1];
        let narrow_ratio = narrow[0] / narrow[1];
        assert!(
            narrow_ratio < wide_ratio,
            "narrow {narrow_ratio} vs wide {wide_ratio}"
        );
    }

    fn two_slabs(w0: usize, w1: usize) -> Vec<Slab> {
        vec![
            Slab {
                device: 0,
                j0: 1,
                width: w0,
            },
            Slab {
                device: 1,
                j0: 1 + w0,
                width: w1,
            },
        ]
    }

    #[test]
    fn rebalance_below_the_threshold_keeps_the_split() {
        // 600/400 columns at rates 3:2 finish together: no improvement.
        let slabs = two_slabs(600, 400);
        assert_eq!(plan_rebalance(1000, 100, &slabs, &[3.0, 2.0], 0.0), None);
        // 500/500 at 3:2 predicts 1 − (1000/5)/(500/2) = 20% improvement:
        // a 25% hysteresis keeps the split, a 19% one re-splits.
        let even = two_slabs(500, 500);
        assert_eq!(plan_rebalance(1000, 100, &even, &[3.0, 2.0], 0.25), None);
        assert!(plan_rebalance(1000, 100, &even, &[3.0, 2.0], 0.19).is_some());
    }

    #[test]
    fn rebalance_that_moves_no_column_is_no_migration() {
        // A hair of imbalance clears a zero threshold, but on a 100-column
        // grid the re-split lands on the same 600/400 widths.
        let slabs = two_slabs(600, 400);
        assert_eq!(plan_rebalance(1000, 100, &slabs, &[3.0, 2.0001], 0.0), None);
    }

    #[test]
    fn rebalance_counts_the_columns_that_change_hands() {
        let even = two_slabs(500, 500);
        let (new, moved) = plan_rebalance(1000, 100, &even, &[3.0, 2.0], 0.0).unwrap();
        assert_eq!(new, two_slabs(600, 400));
        assert_eq!(moved, 100);
        let (new, moved) = plan_rebalance(1000, 100, &even, &[1.0, 4.0], 0.0).unwrap();
        // One block each up front, the other eight split 1.6 : 6.4, the
        // last block to the larger remainder: 3 : 7 blocks.
        assert_eq!(new, two_slabs(300, 700));
        assert_eq!(moved, 200);
        // A zero-rate slab keeps one block instead of failing the re-split.
        let (new, moved) = plan_rebalance(1000, 100, &even, &[1.0, 0.0], 0.0).unwrap();
        assert_eq!(new, two_slabs(900, 100));
        assert_eq!(moved, 400);
    }

    #[test]
    fn balanced_peak_below_aggregate_peak() {
        let p = Platform::env2();
        let balanced = balanced_peak_gcups(&p);
        assert!(balanced < p.aggregate_peak_gcups());
        assert!(balanced > 0.9 * p.aggregate_peak_gcups());
    }
}
