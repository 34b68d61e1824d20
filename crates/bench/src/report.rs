//! Minimal table reporting (markdown and CSV) for experiment binaries.

use std::fmt::Write as _;

/// A simple column-aligned table.
///
/// # Example
///
/// ```
/// use maxk_bench::Table;
///
/// let mut t = Table::new(vec!["dataset", "speedup"]);
/// t.row(vec!["Reddit".into(), format!("{:.2}x", 3.22)]);
/// let md = t.to_markdown();
/// assert!(md.contains("| Reddit"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders GitHub-flavoured markdown with aligned columns.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            out.push('|');
            for (w, cell) in widths.iter().zip(cells) {
                let _ = write!(out, " {cell:<w$} |");
            }
            out.push('\n');
        };
        emit(&mut out, &self.headers);
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{}|", "-".repeat(w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Renders CSV (no quoting; cells must not contain commas).
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

    /// Prints the markdown rendering to stdout.
    pub fn print(&self) {
        print!("{}", self.to_markdown());
    }
}

/// Formats a speedup ratio the way the paper does (`3.22x`).
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats seconds as adaptive ms/us.
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.2}s")
    } else if seconds >= 1e-3 {
        format!("{:.2}ms", seconds * 1e3)
    } else {
        format!("{:.1}us", seconds * 1e6)
    }
}

/// Formats bytes as adaptive KB/MB/GB.
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= 1e9 {
        format!("{:.2}GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2}MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.2}KB", b / 1e3)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_is_aligned() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["xx".into(), "1".into()]);
        let md = t.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[1].starts_with("|--"));
    }

    #[test]
    fn csv_round_trip_shape() {
        let mut t = Table::new(vec!["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["3".into(), "4".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "x,y\n1,2\n3,4\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["only"]);
        t.row(vec!["a".into(), "b".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_speedup(3.216), "3.22x");
        assert_eq!(fmt_time(0.0123), "12.30ms");
        assert_eq!(fmt_time(2.5), "2.50s");
        assert_eq!(fmt_time(5e-5), "50.0us");
        assert_eq!(fmt_bytes(138_050_000_000), "138.05GB");
        assert_eq!(fmt_bytes(512), "512B");
    }
}
