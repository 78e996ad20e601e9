//! The benchmark's own arithmetic: order statistics over timing samples
//! and the failure accounting behind `attempted`, `failed` and
//! `failed_ratio`.

/// Timing samples of one quantity, kept in arrival order.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median: the middle sample, or the mean of the two middle
    /// samples for an even count. `NaN` when empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        let n = v.len();
        match n {
            0 => f64::NAN,
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The nearest-rank `p`-th percentile (`0 < p ≤ 100`): the smallest
    /// sample with at least `p`% of the samples at or below it.
    pub fn percentile(&self, p: f64) -> Percentile {
        let v = self.sorted();
        percentile_of_sorted(&v, p)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// A percentile together with the sample count it was read from, so a
/// p99 over twelve samples (which is simply the maximum) is never mistaken
/// for a p99 over thousands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    /// Samples strictly above the reported value's rank.
    pub beyond: usize,
}

fn percentile_of_sorted(sorted: &[f64], p: f64) -> Percentile {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    let n = sorted.len();
    if n == 0 {
        return Percentile {
            value: f64::NAN,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    Percentile {
        value: sorted[idx],
        samples: n,
        beyond: n - 1 - idx,
    }
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with a full (untruncated) result.
    Done,
    /// The program reported an error.
    Failed,
    /// Not admitted (overloaded, shed, quota, deadline).
    Refused,
    /// Completed, but with a deadline- or budget-cut partial result.
    Truncated,
    /// Cancelled or drained before completion.
    Cancelled,
}

/// Counts outcomes. Everything but [`Outcome::Done`] counts as failed:
/// a refused or truncated job did not give its caller what was asked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub done: u64,
    pub failed: u64,
    pub refused: u64,
    pub truncated: u64,
    pub cancelled: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Done => self.done += 1,
            Outcome::Failed => self.failed += 1,
            Outcome::Refused => self.refused += 1,
            Outcome::Truncated => self.truncated += 1,
            Outcome::Cancelled => self.cancelled += 1,
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.done += other.done;
        self.failed += other.failed;
        self.refused += other.refused;
        self.truncated += other.truncated;
        self.cancelled += other.cancelled;
    }

    pub fn attempted(&self) -> u64 {
        self.done + self.failed_total()
    }

    pub fn failed_total(&self) -> u64 {
        self.failed + self.refused + self.truncated + self.cancelled
    }

    /// `(failed + refused + truncated + cancelled) ÷ attempted`; 0 when
    /// nothing was attempted.
    pub fn failed_ratio(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed_total() as f64 / n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(samples([3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(samples([4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        assert!(Samples::default().median().is_nan());
    }

    #[test]
    fn p99_over_a_thousand_samples_leaves_ten_beyond() {
        let s = samples((1..=1000).rev().map(f64::from));
        let p = s.percentile(99.0);
        assert_eq!(p.value, 990.0);
        assert_eq!(p.samples, 1000);
        assert_eq!(p.beyond, 10);
        let p50 = s.percentile(50.0);
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
    }

    #[test]
    fn p99_over_few_samples_is_the_maximum_and_says_so() {
        let s = samples([5.0, 1.0, 9.0, 2.0]);
        let p = s.percentile(99.0);
        assert_eq!(p.value, 9.0);
        assert_eq!((p.samples, p.beyond), (4, 0));
        assert_eq!(samples([7.0]).percentile(1.0).value, 7.0);
        assert_eq!(Samples::default().percentile(50.0).samples, 0);
    }

    #[test]
    fn every_non_done_outcome_counts_as_failed() {
        let mut t = Tally::default();
        for o in [
            Outcome::Done,
            Outcome::Done,
            Outcome::Done,
            Outcome::Done,
            Outcome::Failed,
            Outcome::Refused,
            Outcome::Truncated,
            Outcome::Cancelled,
        ] {
            t.record(o);
        }
        assert_eq!(t.attempted(), 8);
        assert_eq!(t.failed_total(), 4);
        assert_eq!(t.failed_ratio(), 0.5);

        let mut refused_only = Tally::default();
        refused_only.record(Outcome::Refused);
        assert_eq!(refused_only.failed_ratio(), 1.0);

        let mut merged = Tally::default();
        merged.merge(t);
        merged.merge(refused_only);
        assert_eq!((merged.attempted(), merged.failed_total()), (9, 5));
        assert_eq!(Tally::default().failed_ratio(), 0.0);
    }
}
