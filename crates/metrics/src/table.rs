//! Plain-text table rendering for the experiment harness, so each
//! reproduction prints rows shaped like the paper's tables.

/// A fixed-column text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; panics if the arity differs from the header.
    pub fn row<S: ToString>(&mut self, cells: &[S]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity mismatch in table '{}'",
            self.title
        );
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with `digits` decimals, trimming noise.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["Name", "Value"]);
        t.row(&["short", "1"]);
        t.row(&["a-much-longer-name", "22.5"]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, two rows.
        assert_eq!(lines.len(), 5);
        // Columns align: "Value" starts at the same offset in all rows.
        let col = lines[1].find("Value").unwrap();
        assert_eq!(&lines[4][col..col + 4], "22.5");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("Demo", &["A", "B"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(10.0, 0), "10");
    }
}
