//! Named (x, y) data series for experiment output.

/// A named series of `(x, y)` points with optional per-point spread (error
/// bars), mirroring what the paper plots: e.g. "getPair_seq, 20-reg. random"
/// as a function of network size, or the size estimate with min/max bars in
/// Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    name: String,
    points: Vec<SeriesPoint>,
}

/// A single point of a [`Series`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Abscissa (network size, cycle number, …).
    pub x: f64,
    /// Ordinate (variance reduction, size estimate, …).
    pub y: f64,
    /// Lower error-bar bound (defaults to `y`).
    pub y_low: f64,
    /// Upper error-bar bound (defaults to `y`).
    pub y_high: f64,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Appends a point without error bars.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(SeriesPoint {
            x,
            y,
            y_low: y,
            y_high: y,
        });
    }

    /// Appends a point with an error-bar range.
    pub fn push_with_range(&mut self, x: f64, y: f64, y_low: f64, y_high: f64) {
        self.points.push(SeriesPoint {
            x,
            y,
            y_low,
            y_high,
        });
    }

    /// The points of the series.
    pub fn points(&self) -> &[SeriesPoint] {
        &self.points
    }

    /// Renders the series as a gnuplot-style data block:
    /// `# name` followed by `x y y_low y_high` lines.
    pub fn to_data_block(&self) -> String {
        let mut out = format!("# {}\n", self.name);
        for p in &self.points {
            out.push_str(&format!(
                "{:.6} {:.6} {:.6} {:.6}\n",
                p.x, p.y, p.y_low, p.y_high
            ));
        }
        out
    }

    /// Renders the series as CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("x,y,y_low,y_high\n");
        for p in &self.points {
            out.push_str(&format!("{},{},{},{}\n", p.x, p.y, p.y_low, p.y_high));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_accessors() {
        let mut s = Series::new("getPair_rand, complete");
        assert!(s.is_empty());
        s.push(100.0, 0.37);
        s.push_with_range(1_000.0, 0.365, 0.36, 0.37);
        assert_eq!(s.len(), 2);
        assert_eq!(s.name(), "getPair_rand, complete");
        assert_eq!(s.points()[0].y_low, 0.37);
        assert_eq!(s.points()[1].y_low, 0.36);
    }

    #[test]
    fn data_block_format() {
        let mut s = Series::new("estimate");
        s.push_with_range(30.0, 100_000.0, 98_000.0, 102_000.0);
        let block = s.to_data_block();
        assert!(block.starts_with("# estimate\n"));
        assert!(block.contains("30.000000 100000.000000 98000.000000 102000.000000"));
    }

    #[test]
    fn csv_format() {
        let mut s = Series::new("x");
        s.push(1.0, 2.0);
        let csv = s.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("x,y,y_low,y_high"));
        assert!(csv.contains("1,2,2,2"));
    }
}
