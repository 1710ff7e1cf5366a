//! Aligned-text and CSV tables for experiment reports.

/// A simple rectangular table with a header row.
///
/// The examples print every paper table and figure as one of these; its
/// CSV form is the artifact the sweeps record.
///
/// # Example
///
/// ```
/// use gossip_analysis::Table;
///
/// let mut table = Table::new(vec!["selector", "rate"]);
/// table.add_row(vec!["getPair_pm".into(), "0.250".into()]);
/// table.add_row(vec!["getPair_rand".into(), "0.368".into()]);
/// assert!(table.to_string().contains("getPair_pm"));
/// assert_eq!(table.to_csv().lines().count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        Table {
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated, so the table always stays
    /// rectangular.
    pub fn add_row(&mut self, row: Vec<String>) {
        let mut row = row;
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Appends every row of `other` to this table, returning `false` (and
    /// appending nothing) when the headers differ. Sweep harnesses use this
    /// to stack several measured curves — e.g. the fault lab's link-failure,
    /// loss and injection curves — into one CSV artifact.
    pub fn append(&mut self, other: &Table) -> bool {
        if self.headers != other.headers {
            return false;
        }
        self.rows.extend(other.rows.iter().cloned());
        true
    }

    /// Writes the CSV rendering to `path`, creating or truncating the file —
    /// the artifact the sweep examples record.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_csv<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }

    /// Renders the table as CSV (headers + rows). Cells containing commas are
    /// quoted.
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    /// Displays the table as column-aligned plain text (the header row, a
    /// rule, then one line per row), so the examples can `println!("{table}")`
    /// directly.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i] + 2))
                .collect::<String>()
                .trim_end()
                .to_string()
        };
        writeln!(f, "{}", render_row(&self.headers))?;
        let rule = widths
            .iter()
            .map(|w| w + 2)
            .sum::<usize>()
            .saturating_sub(2);
        writeln!(f, "{}", "-".repeat(rule))?;
        for row in &self.rows {
            writeln!(f, "{}", render_row(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["selector", "measured", "paper"]);
        t.add_row(vec!["getPair_pm".into(), "0.2498".into(), "0.25".into()]);
        t.add_row(vec![
            "getPair_rand".into(),
            "0.3702".into(),
            "0.3679".into(),
        ]);
        t
    }

    #[test]
    fn append_stacks_rows_only_for_matching_headers() {
        let mut base = sample();
        let more = {
            let mut t = Table::new(vec!["selector", "measured", "paper"]);
            t.add_row(vec!["getPair_seq".into(), "0.3030".into(), "0.3033".into()]);
            t
        };
        assert!(base.append(&more));
        assert_eq!(base.rows.len(), 3);
        assert!(base.to_csv().contains("getPair_seq,0.3030,0.3033"));

        let mismatched = Table::new(vec!["other", "headers"]);
        assert!(!base.append(&mismatched));
        assert_eq!(base.rows.len(), 3, "a rejected append must change nothing");
    }

    #[test]
    fn rows_are_normalised_to_header_width() {
        let mut t = Table::new(vec!["a", "b"]);
        t.add_row(vec!["1".into()]);
        t.add_row(vec!["1".into(), "2".into(), "3".into()]);
        assert_eq!(t.rows.len(), 2);
        for line in t.to_csv().lines().skip(1) {
            assert_eq!(line.split(',').count(), 2);
        }
    }

    #[test]
    fn aligned_text_rendering() {
        let text = sample().to_string();
        assert!(text.contains("selector"));
        assert!(text.lines().count() >= 4);
        // Columns aligned: every data line starts with the selector name.
        assert!(text.lines().nth(2).unwrap().starts_with("getPair_pm"));
    }

    #[test]
    fn csv_rendering_quotes_commas() {
        let mut t = Table::new(vec!["name", "value"]);
        t.add_row(vec!["a,b".into(), "1".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\",1"));
    }

    #[test]
    fn write_csv_round_trips_through_the_filesystem() {
        let table = sample();
        let path = std::env::temp_dir().join(format!(
            "gossip-analysis-write-csv-{}.csv",
            std::process::id()
        ));
        table.write_csv(&path).expect("temp dir is writable");
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, table.to_csv());
        assert_eq!(written.lines().count(), 3);
        std::fs::remove_file(&path).ok();
    }
}
