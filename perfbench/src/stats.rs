//! The benchmark's own statistics: medians, quartiles, the tail rule and
//! failure accounting. Kept apart from the workloads so the rules are
//! unit-tested on fixed inputs.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here equal the ones an external check computes.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// A tail latency: the highest order statistic with at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Percentile of `value` in the sample, `100 · rank / samples`.
    pub percentile: f64,
    pub samples: usize,
}

/// Samples a tail value must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The tail rule: of `N` samples sorted ascending, the value at rank
/// `N − 10` (1-based) is the highest with ten samples beyond it. `None`
/// when the run has too few samples (`N ≤ 10`).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

/// Operation accounting: every attempted operation ends in exactly one of
/// ok, failed (the program returned an error), refused (the network
/// surface turned it away) or wrong (a result that differs from the
/// reference).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub ok: u64,
    pub failed: u64,
    pub refused: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn attempted(&self) -> u64 {
        self.ok + self.not_ok()
    }

    /// Operations that did not produce a correct result.
    pub fn not_ok(&self) -> u64 {
        self.failed + self.refused + self.wrong
    }

    /// Failed, refused or wrong operations over operations attempted; 0
    /// when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.not_ok() as f64 / n as f64,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert!(close(q1, 1.0) && close(q3, 3.0), "{q1} {q3}");
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        let (q1, q3) = quartiles(&[7.0, 5.0]).unwrap();
        assert!(close(q1, 4.5) && close(q3, 7.5), "{q1} {q3}");
        assert_eq!(quartiles(&[1.0]), None);
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
        assert!(close(spread(&v).unwrap(), 5.5 / 5.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(
            tail(&[1.0; 10]),
            None,
            "ten samples leave none for the tail"
        );
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!((t.value, t.samples), (1.0, 11));
        assert!(close(t.percentile, 100.0 / 11.0));

        // 1000 samples: rank 990 is p99, and exactly ten values exceed it.
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.reverse();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 990.0);
        assert!(close(t.percentile, 99.0));
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn error_rate_counts_failures_refusals_and_wrong_scores() {
        let t = Tally {
            ok: 96,
            failed: 1,
            refused: 2,
            wrong: 1,
        };
        assert_eq!(t.attempted(), 100);
        assert_eq!(t.not_ok(), 4);
        assert!(close(t.error_rate(), 0.04));
        let clean = Tally {
            ok: 5,
            ..Tally::default()
        };
        assert_eq!((clean.attempted(), clean.error_rate()), (5, 0.0));
        assert_eq!(Tally::default().error_rate(), 0.0, "nothing attempted");
    }
}
