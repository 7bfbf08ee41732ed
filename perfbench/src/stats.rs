//! The benchmark's own arithmetic: order statistics over repeated
//! measurements, the failed-op accounting, histogram percentiles, and
//! per-unit normalisation. Kept free of I/O so the tests below pin it.

use cx_obs::LogHistogram;

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles with the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so a spread printed here matches the one computed over result files.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median: the spread measure
/// the benchmark's bounds are stated in.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// What one replay returned, reduced to the facts the correctness check
/// needs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Ops in the generated input.
    pub expected: u64,
    /// Ops the run reports as completed (`RunStats::ops_total`).
    pub completed: u64,
    /// Completed ops the engines applied.
    pub applied: u64,
    /// Completed ops answered with a file-system error such as EEXIST
    /// (`OpOutcome::Failed`). A correct answer, not a benchmark failure.
    pub fs_failed: u64,
    /// Ops that never finished (`RunStats::ops_stuck`).
    pub stuck: u64,
    /// `GlobalView` atomicity violations found after the run.
    pub violations: u64,
    /// The replay panicked or did not return in time.
    pub crashed: bool,
}

impl ReplayOutcome {
    /// A replay that panicked or hung: every op it was given failed.
    pub fn crashed(expected: u64) -> Self {
        Self {
            expected,
            crashed: true,
            ..Self::default()
        }
    }

    /// Ops of this replay that count as failed. A violation or a crash
    /// fails the whole replay; otherwise lost ops (fewer completions than
    /// inputs) and stuck ops fail individually. File-system errors do not
    /// count: they are the right answer to the input.
    pub fn failed_ops(&self) -> u64 {
        if self.crashed || self.violations > 0 {
            return self.expected;
        }
        let lost = self.expected.saturating_sub(self.completed);
        (lost + self.stuck).min(self.expected)
    }

    /// Every check the benchmark makes on a replay's output.
    pub fn is_correct(&self) -> bool {
        !self.crashed
            && self.violations == 0
            && self.completed == self.expected
            && self.applied + self.fs_failed == self.completed
            && self.stuck == 0
    }
}

/// Failed ops out of attempted ops over a set of replays.
pub fn error_share(outcomes: &[ReplayOutcome]) -> f64 {
    let attempted: u64 = outcomes.iter().map(|o| o.expected).sum();
    let failed: u64 = outcomes.iter().map(ReplayOutcome::failed_ops).sum();
    per_unit(failed as f64, attempted)
}

/// `total / units`, or 0 when nothing was counted.
pub fn per_unit(total: f64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        total / units as f64
    }
}

/// Nanoseconds per unit of work from a duration in seconds.
pub fn ns_per(secs: f64, units: u64) -> f64 {
    per_unit(secs * 1e9, units)
}

/// Percentile `p` (0–100, the scale `LogHistogram::percentile` takes) of
/// a log-bucketed histogram, linearly interpolated inside the bucket that
/// holds the rank. `LogHistogram::percentile` returns the bucket's upper
/// bound, a step function that reads the same for most inputs; the
/// interpolated value moves with the distribution. Uses only the public
/// percentile and bucket functions.
pub fn interpolated_percentile(h: &LogHistogram, p: f64) -> f64 {
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile takes 0-100, got {p}"
    );
    if h.count == 0 {
        return 0.0;
    }
    let n = h.count;
    // The value at rank r (1-based), as the histogram reports it: the
    // upper bound of r's bucket (capped at the maximum).
    let at_rank = |r: u64| h.percentile(100.0 * (r as f64 - 0.5) / n as f64);
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as u64;
    let hi = at_rank(rank);
    let bucket = cx_obs::hist::bucket_of(hi);
    // Ranks [first, last] share the bucket; both found by bisection
    // (bucket index is monotone in rank).
    let first = partition_point(1, rank, |r| cx_obs::hist::bucket_of(at_rank(r)) < bucket);
    let last = partition_point(rank, n + 1, |r| {
        cx_obs::hist::bucket_of(at_rank(r)) <= bucket
    }) - 1;
    // Lowest value in the bucket, again by bisection over values.
    let lo = partition_point(h.min.min(hi), hi + 1, |v| {
        cx_obs::hist::bucket_of(v) < bucket
    })
    .max(h.min);
    let top = hi.min(h.max);
    if top <= lo {
        return top as f64;
    }
    let frac = (rank - first) as f64 + 0.5;
    let width = (last - first + 1) as f64;
    lo as f64 + (top - lo) as f64 * (frac / width)
}

/// Smallest `x` in `[lo, hi)` with `!pred(x)`, for `pred` true on a
/// prefix of the range; `hi` when `pred` holds everywhere.
fn partition_point(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let share = iqr_share(&v).expect("ten values");
        assert!((share - 5.5 / 5.5).abs() < 1e-12);
    }

    fn clean(expected: u64) -> ReplayOutcome {
        ReplayOutcome {
            expected,
            completed: expected,
            applied: expected - 7,
            fs_failed: 7,
            ..ReplayOutcome::default()
        }
    }

    #[test]
    fn fs_errors_are_correct_answers_not_failures() {
        let o = clean(100);
        assert!(o.is_correct());
        assert_eq!(o.failed_ops(), 0);
        assert_eq!(error_share(&[o]), 0.0);
    }

    #[test]
    fn lost_and_stuck_ops_fail_individually() {
        let lost = ReplayOutcome {
            completed: 90,
            applied: 83,
            ..clean(100)
        };
        assert!(!lost.is_correct());
        assert_eq!(lost.failed_ops(), 10);
        let stuck = ReplayOutcome {
            stuck: 3,
            ..clean(100)
        };
        assert!(!stuck.is_correct());
        assert_eq!(stuck.failed_ops(), 3);
        assert_eq!(error_share(&[lost, stuck]), 13.0 / 200.0);
    }

    #[test]
    fn a_violation_or_crash_fails_the_whole_replay() {
        let broken = ReplayOutcome {
            violations: 1,
            ..clean(100)
        };
        assert!(!broken.is_correct());
        assert_eq!(broken.failed_ops(), 100);
        let crashed = ReplayOutcome::crashed(50);
        assert!(!crashed.is_correct());
        assert_eq!(error_share(&[broken, crashed, clean(50)]), 150.0 / 200.0);
    }

    #[test]
    fn accounting_must_close() {
        let open = ReplayOutcome {
            applied: 90,
            ..clean(100)
        };
        assert!(!open.is_correct(), "applied + fs_failed != completed");
        assert_eq!(open.failed_ops(), 0, "nothing lost, so nothing failed");
    }

    #[test]
    fn percentile_takes_zero_to_hundred() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        // The trap: 0.99 is read as the 0.99th percentile, near the
        // bottom of the distribution, not as the tail.
        assert!(h.percentile(0.99) < 11_000);
        assert!(h.percentile(99.0) > 950_000);
        let p99 = interpolated_percentile(&h, 99.0);
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.031, "{p99}");
        let p50 = interpolated_percentile(&h, 50.0);
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.031, "{p50}");
    }

    #[test]
    #[should_panic(expected = "percentile takes 0-100")]
    fn fractional_scale_is_rejected() {
        interpolated_percentile(&LogHistogram::new(), 101.0);
    }

    #[test]
    fn interpolation_moves_inside_a_bucket() {
        // Two distributions whose p50 falls in the same bucket at a
        // different depth: the bucket bound reads the same, the
        // interpolated value does not.
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in 0..1_000u64 {
            a.record(100_400 + v);
            b.record(if v < 300 { 50_000 } else { 100_400 + v });
        }
        // A shared maximum, so the bucket bound is not capped differently.
        a.record(500_000);
        b.record(500_000);
        assert_eq!(a.percentile(50.0), b.percentile(50.0));
        let (ia, ib) = (
            interpolated_percentile(&a, 50.0),
            interpolated_percentile(&b, 50.0),
        );
        assert!(ib < ia, "{ib} vs {ia}");
        for v in [ia, ib] {
            assert!((100_352.0..=a.percentile(50.0) as f64).contains(&v), "{v}");
        }
    }

    #[test]
    fn single_value_histogram() {
        let mut h = LogHistogram::new();
        h.record(42);
        assert_eq!(interpolated_percentile(&h, 50.0), 42.0);
        assert_eq!(interpolated_percentile(&LogHistogram::new(), 50.0), 0.0);
    }

    #[test]
    fn per_op_normalisation() {
        assert_eq!(per_unit(10.0, 4), 2.5);
        assert_eq!(per_unit(10.0, 0), 0.0);
        assert_eq!(ns_per(0.5, 1_000), 500_000.0);
    }
}
