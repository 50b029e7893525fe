//! Plain-text table and CSV rendering for the experiment binaries.

/// A simple column-aligned table that can also render itself as CSV.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must have as many cells as there are headers).
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Render as an aligned plain-text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let header_line: Vec<String> = self
            .headers
            .iter()
            .zip(widths.iter())
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        out.push_str(&header_line.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header_line.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (header row first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Print both renderings to stdout (the format every report binary uses).
    pub fn print(&self) {
        println!("{}", self.to_text());
        println!("--- CSV ---");
        println!("{}", self.to_csv());
    }
}

/// Format a float with three significant decimals for table cells.
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a float with one decimal for table cells.
pub fn fmt1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_text_and_csv() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.add_row(vec!["alpha".into(), "1.5".into()]);
        t.add_row(vec!["b".into(), "22".into()]);
        let text = t.to_text();
        assert!(text.contains("== Demo =="));
        assert!(text.contains("alpha"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().next().unwrap(), "name,value");
    }

    #[test]
    #[should_panic(expected = "row has 1 cells")]
    fn row_length_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.add_row(vec!["only-one".into()]);
    }

    #[test]
    fn float_formatters() {
        assert_eq!(fmt3(1.23456), "1.235");
        assert_eq!(fmt1(88.88), "88.9");
    }
}
