//! Order statistics, failure counting and baseline comparison.
//!
//! Every timing the benchmark reports is a median over the instances of a
//! run, given with its sample count; the quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), so a spread
//! computed here matches one computed from the printed values.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`. A single value is its own quartiles;
/// an empty slice has none.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let len = data.len();
    match len {
        0 => None,
        1 => Some([data[0]; 3]),
        _ => {
            let m = len + 1;
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..4usize) {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// a metric's bound is judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// The percentiles a tail figure is drawn from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it, with its nearest-rank value: `(percentile, value)`.
/// `None` when even the median has fewer than ten samples above it.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let rank = rank.clamp(1, n.max(1));
        (n >= rank + 10).then(|| (p, data[rank - 1]))
    })
}

/// A timing summary as the benchmark prints it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// First and third quartile.
    pub q1: f64,
    pub q3: f64,
    /// Highest percentile with at least ten samples beyond it, if any.
    pub tail: Option<(f64, f64)>,
    /// Number of samples.
    pub count: usize,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let [q1, _, q3] = quartiles(values)?;
        Some(Summary {
            median: median(values)?,
            q1,
            q3,
            tail: tail_percentile(values),
            count: values.len(),
        })
    }

    /// One-line rendering: `median (q1..q3, n=count[, pXX=value])`.
    pub fn render(&self, unit: &str) -> String {
        let tail = self
            .tail
            .map(|(p, v)| format!(", p{p}={v:.4}"))
            .unwrap_or_default();
        format!(
            "{:.4} {unit} (q1 {:.4} .. q3 {:.4}, n={}{tail})",
            self.median, self.q1, self.q3, self.count
        )
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    data
}

/// Attempts and failures of the operations a workload is made of (rounds
/// or crafting calls). A failure is never dropped: it stays in the share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts `units` attempted operations, all failed when `ok` is false.
    pub fn record(&mut self, units: u64, ok: bool) {
        self.attempted += units;
        if !ok {
            self.failed += units;
        }
    }

    /// Failed operations over attempted ones (0 when nothing was tried).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a candidate's median compares with a baseline's.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Worse than the baseline by more than the bound (`worse_by` is the
    /// share of the baseline median).
    Regressed { worse_by: f64 },
    /// Within the bound (`worse_by` may be negative: an improvement).
    Within { worse_by: f64 },
    /// One side has no samples, or the baseline median is 0.
    Unresolved,
}

/// Compares the medians of two sets of runs of one metric: a candidate is
/// a regression when its median is worse than the baseline's by more than
/// `bound` (a share of the baseline median).
pub fn compare(better: Better, bound: f64, baseline: &[f64], candidate: &[f64]) -> Verdict {
    let (Some(base), Some(cand)) = (median(baseline), median(candidate)) else {
        return Verdict::Unresolved;
    };
    if base == 0.0 {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (cand - base) / base.abs(),
        Better::Higher => (base - cand) / base.abs(),
    };
    if worse_by > bound {
        Verdict::Regressed { worse_by }
    } else {
        Verdict::Within { worse_by }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 3, 9, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 9.0, 7.0]), Some([2.0, 5.0, 8.0]));
        assert_eq!(quartiles(&[4.0]), Some([4.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&ten).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let few: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&few), None);
        // 20 samples: the median (rank 10) has 10 beyond it, p75 only 5.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty), Some((50.0, 10.0)));
        // 1000 samples: p99 (rank 990) has 10 beyond it, p99.9 only 1.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99.0, 990.0)));
    }

    #[test]
    fn summary_reports_sample_count() {
        let s = Summary::of(&[2.0, 1.0, 3.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.median, 2.0);
        assert!(s.render("ms").contains("n=3"));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tally_counts_every_failure() {
        let mut tally = Tally::default();
        tally.record(3, true);
        tally.record(2, false);
        tally.record(1, true);
        assert_eq!(
            tally,
            Tally {
                attempted: 6,
                failed: 2
            }
        );
        assert!((tally.failed_share() - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    #[test]
    fn doctored_candidate_is_reported_as_a_regression() {
        let baseline = [10.0, 10.2, 9.9, 10.1, 10.0];
        // Throughput cut by 30%: a regression under a 10% bound.
        let slower: Vec<f64> = baseline.iter().map(|v| v * 0.7).collect();
        match compare(Better::Higher, 0.1, &baseline, &slower) {
            Verdict::Regressed { worse_by } => assert!((worse_by - 0.3).abs() < 1e-9),
            other => panic!("expected a regression, got {other:?}"),
        }
        // A 5% slip stays within the bound; an improvement is negative.
        assert!(matches!(
            compare(Better::Higher, 0.1, &baseline, &[9.5; 5]),
            Verdict::Within { .. }
        ));
        let faster_setup = compare(Better::Lower, 0.25, &[2.0; 3], &[1.0; 3]);
        assert_eq!(faster_setup, Verdict::Within { worse_by: -0.5 });
        // Set-up time up by 40% against a 25% bound regresses.
        assert!(matches!(
            compare(Better::Lower, 0.25, &[2.0; 3], &[2.8; 3]),
            Verdict::Regressed { .. }
        ));
        assert_eq!(
            compare(Better::Lower, 0.1, &[], &[1.0]),
            Verdict::Unresolved
        );
    }
}
