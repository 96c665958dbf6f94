//! Sample statistics with the sample-count rule: a tail percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, and
//! every figure carries the `n` it was computed from.

/// Samples that must rank above a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A set of measurements (milliseconds, seconds, counts — the caller
/// knows the unit).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn from_vec(values: Vec<f64>) -> Self {
        let mut s = Self {
            values,
            sorted: false,
        };
        s.sort();
        s
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The median (mean of the two middle values for even `n`); `None`
    /// when empty.
    pub fn median(&mut self) -> Option<f64> {
        self.sort();
        let n = self.values.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(self.values[n / 2]),
            _ => Some((self.values[n / 2 - 1] + self.values[n / 2]) / 2.0),
        }
    }

    /// Nearest-rank percentile `p` (0 < p < 100), or `None` when fewer
    /// than [`MIN_BEYOND`] samples rank above it. The rank is
    /// `ceil(p/100 * n)`, so `n - rank` samples lie beyond the value.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
        self.sort();
        let n = self.values.len();
        let rank = nearest_rank(p, n)?;
        if n - rank < MIN_BEYOND {
            return None;
        }
        Some(self.values[rank - 1])
    }

    pub fn max(&mut self) -> Option<f64> {
        self.sort();
        self.values.last().copied()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps e.g. 0.99 * 1000 from rounding up to 991.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// The smallest sample count at which percentile `p` is reportable.
pub fn min_samples_for(p: f64) -> usize {
    (1..10_000_000)
        .find(|&n| nearest_rank(p, n).is_some_and(|r| n - r >= MIN_BEYOND))
        .expect("every percentile below 100 becomes reportable")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::from_vec((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(ramp(999).percentile(99.0), None);
        assert_eq!(ramp(1000).percentile(99.0), Some(990.0));
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(90.0), 100);
        assert_eq!(min_samples_for(95.0), 200);
    }

    #[test]
    fn reported_percentile_has_at_least_ten_larger_samples() {
        for n in [1, 9, 10, 20, 99, 100, 101, 250, 1000, 1234] {
            let mut s = ramp(n);
            for p in [50.0, 75.0, 90.0, 95.0, 99.0] {
                if let Some(v) = s.percentile(p) {
                    let beyond = (1..=n).filter(|&i| i as f64 > v).count();
                    assert!(
                        beyond >= MIN_BEYOND,
                        "p{p} of n={n} reported with {beyond} beyond"
                    );
                } else {
                    assert!(n < min_samples_for(p), "p{p} of n={n} withheld");
                }
            }
        }
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(ramp(3).median(), Some(2.0));
        assert_eq!(ramp(4).median(), Some(2.5));
        assert_eq!(Samples::new().median(), None);
        let mut s = Samples::new();
        s.push(5.0);
        s.push(1.0);
        s.push(3.0);
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.max(), Some(5.0));
    }
}
