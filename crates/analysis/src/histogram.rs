//! Fixed-bin histograms.

/// A histogram over a fixed range with equally sized bins.
///
/// Used for reporting distributions (per-node contact counts, estimate spreads
/// across nodes) in the benchmark output.
///
/// # Example
///
/// ```
/// use gossip_analysis::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
/// for v in [0.5, 1.5, 2.5, 2.6, 9.9, 42.0] {
///     h.add(v);
/// }
/// assert_eq!(h.count(), 6);
/// assert_eq!(h.bin_counts()[1], 2); // 2.5 and 2.6 fall in [2, 4)
/// assert_eq!(h.overflow(), 1);       // 42.0 is out of range
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal bins.
    ///
    /// Returns `None` when the range is empty/invalid or `bins` is zero.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Option<Self> {
        if lo >= hi || bins == 0 || !lo.is_finite() || !hi.is_finite() {
            return None;
        }
        Some(Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        })
    }

    /// Adds one observation.
    pub fn add(&mut self, value: f64) {
        if value < self.lo {
            self.underflow += 1;
        } else if value >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((value - self.lo) / width) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total number of observations added (including out-of-range ones).
    pub fn count(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// The per-bin counts.
    pub fn bin_counts(&self) -> &[u64] {
        &self.bins
    }

    /// Observations at or above the upper bound of the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The `(low, high)` bounds of bin `idx`.
    fn bin_bounds(&self, idx: usize) -> (f64, f64) {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        (
            self.lo + idx as f64 * width,
            self.lo + (idx + 1) as f64 * width,
        )
    }

    /// Renders the histogram as a simple text block (one line per bin with a
    /// proportional bar), handy for benchmark logs.
    pub fn to_text(&self) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (idx, &count) in self.bins.iter().enumerate() {
            let (lo, hi) = self.bin_bounds(idx);
            let bar_len = (count * 40 / max) as usize;
            out.push_str(&format!(
                "[{lo:>10.3}, {hi:>10.3}) {count:>8} {}\n",
                "#".repeat(bar_len)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Histogram::new(1.0, 1.0, 4).is_none());
        assert!(Histogram::new(2.0, 1.0, 4).is_none());
        assert!(Histogram::new(0.0, 1.0, 0).is_none());
        assert!(Histogram::new(f64::NAN, 1.0, 3).is_none());
        assert!(Histogram::new(0.0, f64::INFINITY, 3).is_none());
    }

    #[test]
    fn values_land_in_the_right_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        for v in 0..10 {
            h.add(v as f64 + 0.5);
        }
        assert!(h.bin_counts().iter().all(|&c| c == 1));
        assert_eq!(h.underflow, 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.count(), 10);
    }

    #[test]
    fn out_of_range_values_are_tracked_separately() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.add(-0.1);
        h.add(1.0);
        h.add(5.0);
        h.add(0.25);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn bin_bounds_partition_the_range() {
        let h = Histogram::new(0.0, 8.0, 4).unwrap();
        assert_eq!(h.bin_bounds(0), (0.0, 2.0));
        assert_eq!(h.bin_bounds(3), (6.0, 8.0));
    }

    #[test]
    fn text_rendering_contains_every_bin() {
        let mut h = Histogram::new(0.0, 4.0, 4).unwrap();
        h.add(0.5);
        h.add(0.6);
        h.add(3.5);
        let text = h.to_text();
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains('#'));
    }
}
