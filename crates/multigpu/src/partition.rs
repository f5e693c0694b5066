//! Column-wise matrix partitioning.
//!
//! The matrix's columns are divided into one contiguous vertical slab per
//! device, in **block-column units** so slab boundaries coincide with the
//! global tile grid. Weights come from the partition policy: equal, or
//! proportional to device compute power (largest-remainder rounding keeps
//! the result deterministic and exactly proportional up to one block).

use crate::config::PartitionPolicy;
use megasw_gpusim::Platform;

/// One device's share of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slab {
    /// Index of the owning device in the platform chain.
    pub device: usize,
    /// First matrix column (1-based DP coordinate).
    pub j0: usize,
    /// Width in matrix columns.
    pub width: usize,
}

impl Slab {
    /// One-past-the-last matrix column.
    pub fn j_end(&self) -> usize {
        self.j0 + self.width
    }
}

/// Allocate `total` indivisible units according to `weights` using the
/// largest-remainder method, guaranteeing at least one unit per recipient
/// when `total ≥ weights.len()`.
///
/// Deterministic: remainder ties break to the lower index.
pub fn largest_remainder(total: usize, weights: &[f64]) -> Vec<usize> {
    assert!(!weights.is_empty(), "weights must not be empty");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w > 0.0),
        "weights must be positive"
    );
    let g = weights.len();
    if total == 0 {
        return vec![0; g];
    }
    if total <= g {
        // Degenerate: hand single units to the heaviest recipients.
        let mut order: Vec<usize> = (0..g).collect();
        order.sort_by(|&x, &y| weights[y].partial_cmp(&weights[x]).unwrap().then(x.cmp(&y)));
        let mut out = vec![0; g];
        for &i in order.iter().take(total) {
            out[i] = 1;
        }
        return out;
    }

    let sum: f64 = weights.iter().sum();
    // Reserve one unit each, distribute the rest proportionally.
    let spare = total - g;
    let exact: Vec<f64> = weights.iter().map(|w| spare as f64 * w / sum).collect();
    let mut out: Vec<usize> = exact.iter().map(|x| 1 + x.floor() as usize).collect();
    let assigned: usize = out.iter().sum();
    let mut leftover = total - assigned;

    let mut order: Vec<usize> = (0..g).collect();
    order.sort_by(|&x, &y| {
        let rx = exact[x] - exact[x].floor();
        let ry = exact[y] - exact[y].floor();
        ry.partial_cmp(&rx).unwrap().then(x.cmp(&y))
    });
    let mut k = 0;
    while leftover > 0 {
        out[order[k % g]] += 1;
        leftover -= 1;
        k += 1;
    }
    out
}

/// Compute each device's slab for a matrix with `n` columns tiled at
/// `block_w`, under the given policy.
///
/// Devices that would receive zero columns (more devices than block
/// columns) are dropped from the returned list — the run simply uses fewer
/// GPUs, mirroring what the real system would do.
///
/// ```
/// use megasw_gpusim::Platform;
/// use megasw_multigpu::{make_slabs, PartitionPolicy};
///
/// let slabs = make_slabs(100_000, 512, &Platform::env2(), &PartitionPolicy::Proportional);
/// assert_eq!(slabs.len(), 3);
/// // Slabs tile the columns contiguously…
/// assert_eq!(slabs[0].j0, 1);
/// assert_eq!(slabs.last().unwrap().j_end(), 100_001);
/// // …and the fastest board (GTX Titan) gets the widest slab.
/// assert!(slabs[0].width > slabs[2].width);
/// ```
pub fn make_slabs(
    n: usize,
    block_w: usize,
    platform: &Platform,
    policy: &PartitionPolicy,
) -> Vec<Slab> {
    assert!(block_w >= 1);
    if n == 0 || platform.is_empty() {
        return Vec::new();
    }
    let total_bcols = n.div_ceil(block_w);
    let g = platform.len().min(total_bcols);

    let weights: Vec<f64> = match policy {
        PartitionPolicy::Equal => vec![1.0; g],
        PartitionPolicy::Proportional => platform.devices[..g]
            .iter()
            .map(|d| d.peak_cells_per_sec())
            .collect(),
        PartitionPolicy::Explicit(w) => {
            assert!(
                w.len() >= g,
                "explicit weights ({}) must cover every device used ({g})",
                w.len()
            );
            w[..g].to_vec()
        }
    };

    let bcols = largest_remainder(total_bcols, &weights);
    let mut slabs = Vec::with_capacity(g);
    let mut next_bcol = 0usize;
    for (device, &bc) in bcols.iter().enumerate() {
        if bc == 0 {
            continue;
        }
        let j0 = next_bcol * block_w + 1;
        let j_end = ((next_bcol + bc) * block_w).min(n) + 1;
        slabs.push(Slab {
            device,
            j0,
            width: j_end - j0,
        });
        next_bcol += bc;
    }
    slabs
}

/// Re-split `n` columns (tiled at `block_w`) across `devices` — platform
/// indices in chain order — proportionally to `weights` (parallel to
/// `devices`), with the same largest-remainder determinism as
/// [`make_slabs`]. Devices that would receive zero block-columns are
/// dropped, exactly like the initial split.
///
/// This is the shared primitive behind fault-time survivor repartitioning
/// and the checkpoint-boundary rebalance controller: both hand it the
/// devices that continue and the weights they should continue at.
pub fn resplit_slabs(n: usize, block_w: usize, devices: &[usize], weights: &[f64]) -> Vec<Slab> {
    assert!(block_w >= 1);
    assert_eq!(devices.len(), weights.len(), "one weight per device");
    if n == 0 || devices.is_empty() {
        return Vec::new();
    }
    let total_bcols = n.div_ceil(block_w);
    let g = devices.len().min(total_bcols);

    let bcols = largest_remainder(total_bcols, &weights[..g]);
    let mut slabs = Vec::with_capacity(g);
    let mut next_bcol = 0usize;
    for (slot, &bc) in bcols.iter().enumerate() {
        if bc == 0 {
            continue;
        }
        let j0 = next_bcol * block_w + 1;
        let j_end = ((next_bcol + bc) * block_w).min(n) + 1;
        slabs.push(Slab {
            device: devices[slot],
            j0,
            width: j_end - j0,
        });
        next_bcol += bc;
    }
    slabs
}

/// [`make_slabs`] over the surviving devices only: every device whose
/// platform index appears in `exclude` (the coordinator's blacklist) is
/// removed from the chain before partitioning, and the survivors keep
/// their **original platform indices** so fault plans, device reports and
/// catalog lookups stay stable across recoveries.
///
/// Weights follow the policy, restricted to the survivors. `Proportional`
/// uses the *measured* per-device throughput from
/// [`crate::balance::default_weights`] — after a failure the coordinator
/// redistributes by what each survivor actually delivers, not by its
/// nameplate peak. Returns an empty list when no survivor remains.
pub fn make_slabs_excluding(
    n: usize,
    block_w: usize,
    platform: &Platform,
    policy: &PartitionPolicy,
    exclude: &[usize],
) -> Vec<Slab> {
    survivor_slabs(n, block_w, platform, policy, exclude, &mut None)
}

/// [`make_slabs_excluding`] with the calibrated weights supplied by the
/// caller, so a run that repartitions repeatedly (multiple recoveries,
/// rebalance evaluations) probes [`crate::balance::default_weights`] once
/// and reuses the result. `measured` must cover every platform device when
/// the policy is `Proportional`; it is ignored otherwise.
pub fn make_slabs_excluding_with_weights(
    n: usize,
    block_w: usize,
    platform: &Platform,
    policy: &PartitionPolicy,
    exclude: &[usize],
    measured: Option<&[f64]>,
) -> Vec<Slab> {
    assert!(block_w >= 1);
    let survivors: Vec<usize> = (0..platform.len())
        .filter(|d| !exclude.contains(d))
        .collect();
    if n == 0 || survivors.is_empty() {
        return Vec::new();
    }

    let weights: Vec<f64> = match policy {
        PartitionPolicy::Equal => vec![1.0; survivors.len()],
        PartitionPolicy::Proportional => {
            let measured = measured.expect("proportional repartition needs calibrated weights");
            assert!(
                measured.len() >= platform.len(),
                "calibrated weights ({}) must cover every platform device ({})",
                measured.len(),
                platform.len()
            );
            survivors.iter().map(|&d| measured[d]).collect()
        }
        PartitionPolicy::Explicit(w) => {
            assert!(
                w.len() >= platform.len(),
                "explicit weights ({}) must cover every platform device ({})",
                w.len(),
                platform.len()
            );
            survivors.iter().map(|&d| w[d]).collect()
        }
    };

    resplit_slabs(n, block_w, &survivors, &weights)
}

/// The survivor repartition after a device loss, shared by both backends:
/// [`make_slabs_excluding_with_weights`] over the `blacklist`, with the
/// calibrated `Proportional` weights probed on first use and cached in
/// `calibrated` for every later repartition of the same run.
pub(crate) fn survivor_slabs(
    n: usize,
    block_w: usize,
    platform: &Platform,
    policy: &PartitionPolicy,
    blacklist: &[usize],
    calibrated: &mut Option<Vec<f64>>,
) -> Vec<Slab> {
    let measured = match policy {
        PartitionPolicy::Proportional => Some(
            calibrated
                .get_or_insert_with(|| crate::balance::default_weights(platform))
                .as_slice(),
        ),
        _ => None,
    };
    make_slabs_excluding_with_weights(n, block_w, platform, policy, blacklist, measured)
}

#[cfg(test)]
mod tests {
    use super::*;
    use megasw_gpusim::{catalog, Platform};

    #[test]
    fn largest_remainder_sums_and_floors() {
        let out = largest_remainder(100, &[1.0, 1.0, 1.0]);
        assert_eq!(out.iter().sum::<usize>(), 100);
        assert_eq!(out, vec![34, 33, 33]);

        let out = largest_remainder(10, &[3.0, 1.0]);
        assert_eq!(out.iter().sum::<usize>(), 10);
        assert!(out[0] > out[1]);
    }

    #[test]
    fn largest_remainder_guarantees_minimum_one() {
        // Tiny weight still receives its reserved unit.
        let out = largest_remainder(10, &[1000.0, 0.001]);
        assert_eq!(out.iter().sum::<usize>(), 10);
        assert!(out[1] >= 1);
    }

    #[test]
    fn largest_remainder_degenerate_totals() {
        assert_eq!(largest_remainder(0, &[1.0, 2.0]), vec![0, 0]);
        // One unit goes to the heaviest.
        assert_eq!(largest_remainder(1, &[1.0, 2.0]), vec![0, 1]);
        assert_eq!(largest_remainder(2, &[1.0, 2.0]), vec![1, 1]);
    }

    #[test]
    fn largest_remainder_proportionality() {
        let weights = [65.0, 50.0, 45.0];
        let out = largest_remainder(1_000, &weights);
        assert_eq!(out.iter().sum::<usize>(), 1_000);
        let sum: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let exact = 1_000.0 * w / sum;
            assert!(
                (out[i] as f64 - exact).abs() <= 2.0,
                "device {i}: {} vs exact {exact}",
                out[i]
            );
        }
    }

    #[test]
    fn slabs_tile_matrix_exactly() {
        let p = Platform::env2();
        for n in [1usize, 31, 32, 33, 1000, 4097] {
            for policy in [PartitionPolicy::Equal, PartitionPolicy::Proportional] {
                let slabs = make_slabs(n, 32, &p, &policy);
                assert!(!slabs.is_empty());
                assert_eq!(slabs[0].j0, 1);
                for w in slabs.windows(2) {
                    assert_eq!(w[0].j_end(), w[1].j0, "slabs must be contiguous");
                }
                assert_eq!(slabs.last().unwrap().j_end(), n + 1);
                let total: usize = slabs.iter().map(|s| s.width).sum();
                assert_eq!(total, n);
            }
        }
    }

    #[test]
    fn proportional_gives_faster_device_more_columns() {
        let p = Platform::env2(); // Titan (65) + K20 (45) + GTX 580 (33)
        let slabs = make_slabs(160_000, 512, &p, &PartitionPolicy::Proportional);
        assert_eq!(slabs.len(), 3);
        assert!(slabs[0].width > slabs[1].width);
        assert!(slabs[1].width > slabs[2].width);
        // Ratios within a block of exact proportionality.
        let exact0 = 160_000.0 * 65.0 / 143.0;
        assert!((slabs[0].width as f64 - exact0).abs() < 2.0 * 512.0);
    }

    #[test]
    fn equal_split_on_heterogeneous_platform_is_uniform() {
        let p = Platform::env2();
        let slabs = make_slabs(3 * 512 * 10, 512, &p, &PartitionPolicy::Equal);
        assert_eq!(slabs.len(), 3);
        assert!(slabs.iter().all(|s| s.width == 512 * 10));
    }

    #[test]
    fn more_devices_than_block_columns_drops_devices() {
        let p = Platform::homogeneous(catalog::gtx680(), 8);
        let slabs = make_slabs(100, 64, &p, &PartitionPolicy::Equal);
        // Two block columns only → two devices used.
        assert_eq!(slabs.len(), 2);
        assert_eq!(slabs.iter().map(|s| s.width).sum::<usize>(), 100);
    }

    #[test]
    fn empty_inputs() {
        let p = Platform::env1();
        assert!(make_slabs(0, 32, &p, &PartitionPolicy::Equal).is_empty());
    }

    #[test]
    fn explicit_weights_respected() {
        let p = Platform::env1();
        let slabs = make_slabs(1_000, 10, &p, &PartitionPolicy::Explicit(vec![3.0, 1.0]));
        assert_eq!(slabs.len(), 2);
        assert_eq!(slabs[0].width, 750);
        assert_eq!(slabs[1].width, 250);
    }

    #[test]
    fn excluding_keeps_original_device_indices_and_tiles_exactly() {
        let p = Platform::env2();
        let slabs = make_slabs_excluding(4_000, 32, &p, &PartitionPolicy::Proportional, &[1]);
        assert_eq!(slabs.len(), 2);
        assert_eq!(slabs[0].device, 0);
        assert_eq!(slabs[1].device, 2);
        assert_eq!(slabs[0].j0, 1);
        assert_eq!(slabs[0].j_end(), slabs[1].j0);
        assert_eq!(slabs.last().unwrap().j_end(), 4_001);
        assert_eq!(slabs.iter().map(|s| s.width).sum::<usize>(), 4_000);
    }

    #[test]
    fn excluding_nothing_covers_every_device() {
        let p = Platform::env2();
        let slabs = make_slabs_excluding(4_000, 32, &p, &PartitionPolicy::Equal, &[]);
        assert_eq!(slabs.len(), 3);
        assert_eq!(
            slabs.iter().map(|s| s.device).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn excluding_everyone_leaves_no_slabs() {
        let p = Platform::env1();
        assert!(make_slabs_excluding(1_000, 32, &p, &PartitionPolicy::Equal, &[0, 1]).is_empty());
    }

    /// Shared invariant check: slabs are contiguous from column 1, cover
    /// every column exactly once, and widths sum to `n`.
    fn assert_exact_cover(slabs: &[Slab], n: usize) {
        assert!(!slabs.is_empty());
        assert_eq!(slabs[0].j0, 1);
        for w in slabs.windows(2) {
            assert_eq!(w[0].j_end(), w[1].j0, "slabs must be contiguous");
        }
        assert_eq!(slabs.last().unwrap().j_end(), n + 1);
        assert_eq!(slabs.iter().map(|s| s.width).sum::<usize>(), n);
    }

    #[test]
    fn resplit_covers_all_columns_exactly_once() {
        for n in [1usize, 31, 32, 33, 1000, 4097] {
            for weights in [vec![1.0, 1.0, 1.0], vec![65.0, 50.0, 45.0], vec![0.1, 9.9]] {
                let devices: Vec<usize> = (0..weights.len()).collect();
                let slabs = resplit_slabs(n, 32, &devices, &weights);
                assert_exact_cover(&slabs, n);
            }
        }
    }

    #[test]
    fn resplit_is_deterministic_under_permuted_equal_weights() {
        // Equal weights in any device order must yield the same widths in
        // chain position order: remainder ties break by index, never by
        // float comparison quirks.
        let n = 3 * 32 * 7 + 5;
        let base = resplit_slabs(n, 32, &[0, 1, 2], &[1.0, 1.0, 1.0]);
        for devices in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]] {
            let slabs = resplit_slabs(n, 32, &devices, &[1.0, 1.0, 1.0]);
            assert_exact_cover(&slabs, n);
            let widths: Vec<usize> = slabs.iter().map(|s| s.width).collect();
            let base_widths: Vec<usize> = base.iter().map(|s| s.width).collect();
            assert_eq!(widths, base_widths, "devices {devices:?}");
            assert_eq!(
                slabs.iter().map(|s| s.device).collect::<Vec<_>>(),
                devices.to_vec()
            );
        }
    }

    #[test]
    fn resplit_drops_devices_beyond_the_block_columns() {
        let slabs = resplit_slabs(100, 64, &[0, 1, 2, 3], &[1.0; 4]);
        assert_eq!(slabs.len(), 2);
        assert_exact_cover(&slabs, 100);
        assert!(resplit_slabs(0, 64, &[0, 1], &[1.0; 2]).is_empty());
        assert!(resplit_slabs(100, 64, &[], &[]).is_empty());
    }

    #[test]
    fn resplit_matches_the_initial_split_on_identical_weights() {
        // The rebalance controller's no-drift case: re-splitting with the
        // same weights the initial partition used must reproduce it
        // exactly, so a rebalance evaluation under steady state migrates
        // nothing.
        let p = Platform::env2();
        let n = 160_000;
        let weights: Vec<f64> = p.devices.iter().map(|d| d.peak_cells_per_sec()).collect();
        let initial = make_slabs(n, 512, &p, &PartitionPolicy::Proportional);
        let resplit = resplit_slabs(n, 512, &[0, 1, 2], &weights);
        assert_eq!(initial, resplit);
    }

    #[test]
    fn excluding_with_cached_weights_matches_the_probing_path() {
        let p = Platform::env2();
        let cached = crate::balance::default_weights(&p);
        for exclude in [vec![], vec![0], vec![1], vec![2], vec![0, 2]] {
            let probed =
                make_slabs_excluding(4_000, 32, &p, &PartitionPolicy::Proportional, &exclude);
            let reused = make_slabs_excluding_with_weights(
                4_000,
                32,
                &p,
                &PartitionPolicy::Proportional,
                &exclude,
                Some(&cached),
            );
            assert_eq!(probed, reused, "exclude {exclude:?}");
            if !probed.is_empty() {
                assert_exact_cover(&probed, 4_000);
            }
        }
    }

    #[test]
    fn every_split_api_covers_columns_exactly_once() {
        let p = Platform::env2();
        for n in [1usize, 33, 4097] {
            for policy in [PartitionPolicy::Equal, PartitionPolicy::Proportional] {
                assert_exact_cover(&make_slabs(n, 32, &p, &policy), n);
                assert_exact_cover(&make_slabs_excluding(n, 32, &p, &policy, &[1]), n);
            }
        }
    }

    #[test]
    fn excluding_with_explicit_weights_indexes_by_platform_device() {
        let p = Platform::env2();
        // Device 0 excluded: survivors 1 and 2 split by weights 3:1.
        let slabs = make_slabs_excluding(
            1_000,
            10,
            &p,
            &PartitionPolicy::Explicit(vec![99.0, 3.0, 1.0]),
            &[0],
        );
        assert_eq!(slabs.len(), 2);
        assert_eq!(slabs[0].device, 1);
        assert_eq!(slabs[1].device, 2);
        assert_eq!(slabs[0].width, 750);
        assert_eq!(slabs[1].width, 250);
    }
}
