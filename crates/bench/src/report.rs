//! Table formatting and machine-readable result output.

use pgxd_runtime::telemetry::export::json::Value;
use std::fmt::Write as _;
use std::path::Path;

/// A generic results table: row labels × column labels, `Option<f64>`
/// cells (`None` prints as `n/a`, matching Table 3's convention).
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title (e.g. "Table 3 — TWT-S").
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row labels.
    pub rows: Vec<String>,
    /// `cells[r][c]`.
    pub cells: Vec<Vec<Option<f64>>>,
    /// Unit note printed under the table.
    pub unit: String,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, columns: Vec<String>, unit: &str) -> Self {
        Table {
            title: title.to_string(),
            columns,
            rows: Vec::new(),
            cells: Vec::new(),
            unit: unit.to_string(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, label: &str, cells: Vec<Option<f64>>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(label.to_string());
        self.cells.push(cells);
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let mut label_w = self.rows.iter().map(|r| r.len()).max().unwrap_or(0);
        label_w = label_w.max(4);
        let col_w: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(c, h)| {
                let max_cell = self
                    .cells
                    .iter()
                    .map(|row| fmt_cell(row[c]).len())
                    .max()
                    .unwrap_or(0);
                h.len().max(max_cell).max(6)
            })
            .collect();

        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let _ = write!(out, "{:label_w$}", "");
        for (h, w) in self.columns.iter().zip(&col_w) {
            let _ = write!(out, "  {h:>w$}");
        }
        let _ = writeln!(out);
        for (label, row) in self.rows.iter().zip(&self.cells) {
            let _ = write!(out, "{label:<label_w$}");
            for (cell, w) in row.iter().zip(&col_w) {
                let _ = write!(out, "  {:>w$}", fmt_cell(*cell));
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "({})", self.unit);
        out
    }

    /// Serializes the table into the runtime's JSON value model.
    pub fn to_json(&self) -> Value {
        let cell = |c: Option<f64>| c.map(Value::from).unwrap_or(Value::Null);
        Value::obj(vec![
            ("title", self.title.as_str().into()),
            (
                "columns",
                Value::Arr(self.columns.iter().map(|c| c.as_str().into()).collect()),
            ),
            (
                "rows",
                Value::Arr(self.rows.iter().map(|r| r.as_str().into()).collect()),
            ),
            (
                "cells",
                Value::Arr(
                    self.cells
                        .iter()
                        .map(|row| Value::Arr(row.iter().map(|c| cell(*c)).collect()))
                        .collect(),
                ),
            ),
            ("unit", self.unit.as_str().into()),
        ])
    }

    /// Writes the table as JSON under `dir/<slug>.json` and returns the
    /// path. Errors are reported, not fatal (benches still print).
    pub fn save_json(&self, dir: &Path, slug: &str) -> Option<std::path::PathBuf> {
        std::fs::create_dir_all(dir).ok()?;
        let path = dir.join(format!("{slug}.json"));
        std::fs::write(&path, self.to_json().to_pretty()).ok()?;
        Some(path)
    }
}

/// Builds the per-phase breakdown table ("which phase spent its time
/// where") from a cluster's telemetry report JSON, for embedding in bench
/// output. Returns `None` when the report carries no phase trace.
pub fn phase_table(report: &Value) -> Option<Table> {
    let phases = report.get("phases")?.as_arr()?;
    if phases.is_empty() {
        return None;
    }
    let machines = report.get("machines")?.as_arr()?;
    // Per phase, per machine: wall time = max worker (end - start) from the
    // trace summary the exporter embeds under "phase_wall_s".
    let mut t = Table::new(
        "Telemetry — per-phase wall time",
        machines
            .iter()
            .map(|m| {
                m.get("machine")
                    .and_then(Value::as_u64)
                    .map(|id| format!("m{id}"))
                    .unwrap_or_else(|| "m?".to_string())
            })
            .collect(),
        "seconds per phase, per machine",
    );
    for (i, p) in phases.iter().enumerate() {
        let label = p.as_str().unwrap_or("phase");
        let cells: Vec<Option<f64>> = machines
            .iter()
            .map(|m| {
                m.get("phase_wall_s")
                    .and_then(Value::as_arr)
                    .and_then(|w| w.get(i))
                    .and_then(Value::as_f64)
            })
            .collect();
        t.push_row(&format!("{}:{label}", i + 1), cells);
    }
    Some(t)
}

/// Formats seconds compactly: 3 significant-ish digits like the paper.
pub fn fmt_cell(v: Option<f64>) -> String {
    match v {
        None => "n/a".to_string(),
        Some(0.0) => "0".to_string(),
        Some(x) => {
            let ax = x.abs();
            if ax >= 100.0 {
                format!("{x:.0}")
            } else if ax >= 10.0 {
                format!("{x:.1}")
            } else if ax >= 1.0 {
                format!("{x:.2}")
            } else if ax >= 0.001 {
                format!("{x:.4}")
            } else {
                format!("{x:.2e}")
            }
        }
    }
}

/// Default output directory for JSON results.
pub fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("results")
}

/// Prints each table to stdout and saves it under [`results_dir`] as
/// `<slug>.json` (`<slug>_<i>.json` when there are several).
pub fn emit(tables: &[Table], slug: &str) {
    let dir = results_dir();
    for (i, t) in tables.iter().enumerate() {
        println!("{}", t.render());
        let name = if tables.len() == 1 {
            slug.to_string()
        } else {
            format!("{slug}_{i}")
        };
        if let Some(p) = t.save_json(&dir, &name) {
            eprintln!("[saved {}]", p.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_basic() {
        let mut t = Table::new("Demo", vec!["a".into(), "b".into()], "seconds");
        t.push_row("r1", vec![Some(1.234), None]);
        t.push_row("row2", vec![Some(123.4), Some(0.00042)]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("n/a"));
        assert!(s.contains("1.23"));
        assert!(s.contains("123"));
        assert!(s.contains("row2"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", vec!["a".into()], "s");
        t.push_row("r", vec![Some(1.0), Some(2.0)]);
    }

    #[test]
    fn cell_formatting() {
        assert_eq!(fmt_cell(None), "n/a");
        assert_eq!(fmt_cell(Some(0.0)), "0");
        assert_eq!(fmt_cell(Some(1234.0)), "1234");
        assert_eq!(fmt_cell(Some(56.78)), "56.8");
        assert_eq!(fmt_cell(Some(3.456)), "3.46");
        assert_eq!(fmt_cell(Some(0.0123)), "0.0123");
        assert!(fmt_cell(Some(1e-6)).contains('e'));
    }

    #[test]
    fn json_roundtrip() {
        let dir = std::env::temp_dir().join("pgxd-report-test");
        let mut t = Table::new("J", vec!["c".into()], "s");
        t.push_row("r", vec![Some(2.0)]);
        let p = t.save_json(&dir, "demo").unwrap();
        let s = std::fs::read_to_string(p).unwrap();
        assert!(s.contains("\"title\": \"J\""));
    }
}
