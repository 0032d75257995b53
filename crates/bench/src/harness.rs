//! Experiment plumbing: configuration and result tables.

use std::fmt;

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Queries per data point in a series (the paper uses 500).
    pub queries: usize,
    /// Multiplier on dataset cardinalities (1.0 = paper scale).
    pub scale: f64,
    /// Workload seed.
    pub seed: u64,
}

impl ExpConfig {
    /// Full paper-scale configuration.
    pub fn paper() -> Self {
        ExpConfig {
            queries: 500,
            scale: 1.0,
            seed: 2003,
        }
    }

    /// ~10× cheaper smoke-run configuration.
    pub fn quick() -> Self {
        ExpConfig {
            queries: 100,
            scale: 0.1,
            seed: 2003,
        }
    }

    /// The paper's uniform-data cardinality sweep (10k…1000k), scaled.
    /// Clamping at small scales can collide values; duplicates are
    /// removed so sweeps stay strictly increasing.
    pub fn cardinalities(&self) -> Vec<usize> {
        let mut v: Vec<usize> = [10_000, 30_000, 100_000, 300_000, 1_000_000]
            .into_iter()
            .map(|n| ((n as f64 * self.scale) as usize).max(1_000))
            .collect();
        v.dedup();
        v
    }

    /// The paper's k sweep.
    pub fn ks(&self) -> Vec<usize> {
        vec![1, 3, 10, 30, 100]
    }

    /// The paper's window-size sweep as fractions of the universe
    /// (0.01%…10%).
    pub fn window_fractions(&self) -> Vec<f64> {
        vec![0.0001, 0.001, 0.01, 0.1]
    }

    /// The paper's absolute window areas for real datasets, in km²
    /// (100…10,000).
    pub fn window_km2(&self) -> Vec<f64> {
        vec![100.0, 300.0, 1_000.0, 3_000.0, 10_000.0]
    }

    /// Cardinality of the GR-like dataset (23,268 at full scale).
    pub fn gr_n(&self) -> usize {
        ((23_268.0 * self.scale) as usize).max(2_000)
    }

    /// Cardinality of the NA-like dataset (569,120 at full scale).
    pub fn na_n(&self) -> usize {
        ((569_120.0 * self.scale) as usize).max(10_000)
    }
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// A result table: header row plus numeric rows, printable as both an
/// aligned table and CSV.
#[derive(Debug, Clone)]
pub struct Table {
    /// Figure id, e.g. `"fig22a"`.
    pub id: String,
    /// What the paper's figure shows.
    pub caption: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<f64>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, caption: &str, columns: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            caption: caption.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the column count).
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "row/column mismatch");
        self.rows.push(row);
    }

    /// Column index by name (panics when absent — tables are
    /// harness-internal).
    pub fn col(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column {name} in {}", self.id))
    }

    /// The values of one column.
    pub fn column(&self, name: &str) -> Vec<f64> {
        let i = self.col(name);
        self.rows.iter().map(|r| r[i]).collect()
    }

    /// Renders as CSV (for plotting).
    pub fn to_csv(&self) -> String {
        let mut s = self.columns.join(",");
        s.push('\n');
        for r in &self.rows {
            s.push_str(
                &r.iter()
                    .map(|v| format_num(*v))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            s.push('\n');
        }
        s
    }
}

/// Compact numeric formatting: scientific for very small/large values,
/// plain otherwise.
pub fn format_num(v: f64) -> String {
    // Formatting dispatch, exact zero only
    if v == 0.0 {
        "0".into()
    } else if v.abs() < 1e-3 || v.abs() >= 1e7 {
        format!("{v:.3e}")
    // fract() is exact for integers
    } else if v.fract() == 0.0 && v.abs() < 1e7 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {}", self.id, self.caption)?;
        let cells: Vec<Vec<String>> = std::iter::once(self.columns.clone())
            .chain(
                self.rows
                    .iter()
                    .map(|r| r.iter().map(|v| format_num(*v)).collect()),
            )
            .collect();
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|c| cells.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        for (i, row) in cells.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}"))
                .collect();
            writeln!(f, "  {}", line.join("  "))?;
            if i == 0 {
                writeln!(
                    f,
                    "  {}",
                    widths
                        .iter()
                        .map(|w| "-".repeat(*w))
                        .collect::<Vec<_>>()
                        .join("  ")
                )?;
            }
        }
        Ok(())
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("figX", "test", &["n", "actual", "estimated"]);
        t.push(vec![10_000.0, 1.3e-4, 1.28e-4]);
        t.push(vec![100_000.0, 1.3e-5, 1.28e-5]);
        assert_eq!(t.column("n"), vec![10_000.0, 100_000.0]);
        let csv = t.to_csv();
        assert!(csv.starts_with("n,actual,estimated\n"));
        assert_eq!(csv.lines().count(), 3);
        let shown = format!("{t}");
        assert!(shown.contains("figX"));
        assert!(shown.contains("estimated"));
    }

    #[test]
    #[should_panic]
    fn row_length_checked() {
        let mut t = Table::new("x", "c", &["a", "b"]);
        t.push(vec![1.0]);
    }

    #[test]
    fn config_scaling() {
        let q = ExpConfig::quick();
        assert!(q.cardinalities()[4] <= 100_000);
        assert!(q.gr_n() >= 2_000);
        let p = ExpConfig::paper();
        assert_eq!(p.cardinalities()[4], 1_000_000);
        assert_eq!(p.na_n(), 569_120);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_num(0.0), "0");
        assert_eq!(format_num(42.0), "42");
        assert_eq!(format_num(0.12345), "0.1235");
        assert!(format_num(1.3e-6).contains('e'));
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn mean_basic() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
