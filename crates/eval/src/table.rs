//! Plain-text result tables for the experiment harness.

/// A fixed-width text table with a header row.
///
/// # Examples
///
/// ```
/// use lr_eval::TextTable;
///
/// let mut t = TextTable::new(&["Model", "mAP (%)", "P95 (ms)"]);
/// t.add_row_owned(vec!["LiteReconfig".into(), "45.4".into(), "32.2".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("LiteReconfig"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new(header: &[&str]) -> Self {
        assert!(!header.is_empty(), "table needs at least one column");
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of owned strings.
    pub fn add_row_owned(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns and a separator line.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:width$}", cell, width = widths[c]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as comma-separated values (for downstream plotting).
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|s| escape(s))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|s| escape(s)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(&["a", "bbbb"]);
        t.add_row_owned(vec!["xxxx".into(), "y".into()]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        // Second column starts at the same offset in header and row.
        let h = lines[0].find("bbbb").unwrap();
        let r = lines[2].find('y').unwrap();
        assert_eq!(h, r);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = TextTable::new(&["name", "value"]);
        t.add_row_owned(vec!["a,b".into(), "1".into()]);
        assert!(t.render_csv().contains("\"a,b\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.add_row_owned(vec!["only-one".into()]);
    }
}
