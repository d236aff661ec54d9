//! Result records: paper-format text tables plus JSON for EXPERIMENTS.md.
//!
//! A row is either a completed (method, dataset) cell with its metrics or
//! a **failed** cell carrying the panic/error reason. Failed cells render
//! as `FAILED(<reason>)` in the text table, serialize alongside completed
//! rows in the JSON record, and drive the binary's exit status (see
//! [`run_status`]) — one bad cell no longer erases its siblings' results.

use pnr_metrics::{format_prf_row, PrfReport, PrfRow};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One labelled result row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultRow {
    /// Row label (classifier, possibly suffixed with a configuration).
    pub label: String,
    /// Recall in \[0,1\] (0 for failed cells).
    pub recall: f64,
    /// Precision in \[0,1\] (0 for failed cells).
    pub precision: f64,
    /// F-measure in \[0,1\] (0 for failed cells).
    pub f: f64,
    /// Failure reason when the cell's job panicked or errored; `None` for
    /// a completed cell. Absent in JSON written before this field existed.
    #[serde(default)]
    pub error: Option<String>,
}

impl ResultRow {
    /// Builds a completed row from a report.
    pub fn new(label: impl Into<String>, rep: PrfReport) -> Self {
        ResultRow {
            label: label.into(),
            recall: rep.recall,
            precision: rep.precision,
            f: rep.f,
            error: None,
        }
    }

    /// Builds a failed row carrying the failure reason.
    pub fn failed(label: impl Into<String>, reason: impl Into<String>) -> Self {
        ResultRow {
            label: label.into(),
            recall: 0.0,
            precision: 0.0,
            f: 0.0,
            error: Some(reason.into()),
        }
    }

    /// True when the cell failed instead of completing.
    pub fn is_failed(&self) -> bool {
        self.error.is_some()
    }

    /// The metrics as a [`PrfReport`] (zeros for failed cells).
    pub fn report(&self) -> PrfReport {
        PrfReport {
            recall: self.recall,
            precision: self.precision,
            f: self.f,
        }
    }

    fn to_prf_row(&self) -> PrfRow {
        PrfRow::new(self.label.clone(), self.report())
    }
}

/// One experiment (one table section): a title and its rows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Experiment id, e.g. `"table1/nsyn3"`.
    pub id: String,
    /// Free-form description (dataset parameters, scale, seed).
    pub description: String,
    /// The rows.
    pub rows: Vec<ResultRow>,
}

impl ExperimentResult {
    /// Creates an empty experiment record.
    pub fn new(id: impl Into<String>, description: impl Into<String>) -> Self {
        ExperimentResult {
            id: id.into(),
            description: description.into(),
            rows: Vec::new(),
        }
    }

    /// Adds a completed row.
    pub fn push(&mut self, label: impl Into<String>, rep: PrfReport) {
        self.rows.push(ResultRow::new(label, rep));
    }

    /// Adds a pre-built row (completed or failed).
    pub fn push_row(&mut self, row: ResultRow) {
        self.rows.push(row);
    }

    /// Adds a failed row.
    pub fn push_failed(&mut self, label: impl Into<String>, reason: impl Into<String>) {
        self.rows.push(ResultRow::failed(label, reason));
    }

    /// True when any row in this experiment failed.
    pub fn any_failed(&self) -> bool {
        self.rows.iter().any(ResultRow::is_failed)
    }
}

/// Renders an experiment in the paper's row format; failed cells print as
/// `FAILED(<reason>)` and are excluded from the best-F marker.
pub fn format_experiment(exp: &ExperimentResult) -> String {
    let mut out = format!(
        "== {} ==\n{}\n{:<12} {:>6} {:>6}  {:>6}\n",
        exp.id, exp.description, "model", "Rec", "Prec", "F"
    );
    let best = exp
        .rows
        .iter()
        .filter(|r| !r.is_failed())
        .map(|r| r.f)
        .fold(f64::NEG_INFINITY, f64::max);
    let completed = exp.rows.iter().filter(|r| !r.is_failed()).count();
    for row in &exp.rows {
        match &row.error {
            Some(reason) => out.push_str(&format!("{:<12} FAILED({reason})", row.label)),
            None => {
                out.push_str(&format_prf_row(&row.to_prf_row()));
                if completed > 1 && (row.f - best).abs() < 1e-12 {
                    out.push_str(" *");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Prints an experiment in the paper's row format.
pub fn print_experiment(exp: &ExperimentResult) {
    print!("{}", format_experiment(exp));
    println!();
}

/// Process exit code for a completed run: `0` when every cell completed,
/// `1` when any cell failed — reported only after every other cell ran,
/// so one pathological fit cannot erase its siblings' results.
pub fn run_status(experiments: &[ExperimentResult]) -> i32 {
    let failed: usize = experiments
        .iter()
        .map(|e| e.rows.iter().filter(|r| r.is_failed()).count())
        .sum();
    if failed > 0 {
        eprintln!("{failed} cell(s) FAILED; see the table output above");
        1
    } else {
        0
    }
}

/// Writes experiments as pretty JSON under `dir` (created if needed), one
/// file per invocation: `<name>.json`.
pub fn write_json(
    dir: impl AsRef<Path>,
    name: &str,
    experiments: &[ExperimentResult],
) -> std::io::Result<std::path::PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(experiments).expect("serializable results");
    std::fs::write(&path, json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(f: f64) -> PrfReport {
        PrfReport {
            recall: f,
            precision: f,
            f,
        }
    }

    #[test]
    fn experiment_accumulates_rows() {
        let mut e = ExperimentResult::new("t", "demo");
        e.push("A", rep(0.5));
        e.push("B", rep(0.9));
        assert_eq!(e.rows.len(), 2);
        assert_eq!(e.rows[1].label, "B");
    }

    #[test]
    fn json_round_trip_via_file() {
        let mut e = ExperimentResult::new("table9/demo", "tiny");
        e.push("PNrule", rep(0.75));
        let dir = std::env::temp_dir().join("pnr_experiments_test");
        let path = write_json(&dir, "unit", &[e]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back: Vec<ExperimentResult> = serde_json::from_str(&text).unwrap();
        assert_eq!(back[0].id, "table9/demo");
        assert_eq!(back[0].rows[0].f, 0.75);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn failed_rows_render_and_round_trip() {
        let mut e = ExperimentResult::new("table9/demo", "tiny");
        e.push("RIPPER", rep(0.8));
        e.push_failed("PNrule", "panicked: boom");
        assert!(e.any_failed());
        let text = format_experiment(&e);
        assert!(text.contains("FAILED(panicked: boom)"), "{text}");
        assert!(text.contains("RIPPER"), "{text}");

        let json = serde_json::to_string(&e.rows).unwrap();
        let back: Vec<ResultRow> = serde_json::from_str(&json).unwrap();
        assert_eq!(back[1].error.as_deref(), Some("panicked: boom"));
        assert!(!back[0].is_failed());
    }

    #[test]
    fn rows_without_error_field_deserialize() {
        // JSON written before the `error` field existed must still load.
        let legacy = r#"{"label":"PNrule","recall":0.9,"precision":0.8,"f":0.85}"#;
        let row: ResultRow = serde_json::from_str(legacy).unwrap();
        assert_eq!(row.label, "PNrule");
        assert!(row.error.is_none());
        assert!(!row.is_failed());
    }

    #[test]
    fn run_status_reflects_failures() {
        let mut ok = ExperimentResult::new("a", "");
        ok.push("X", rep(0.5));
        assert_eq!(run_status(&[ok.clone()]), 0);
        let mut bad = ExperimentResult::new("b", "");
        bad.push_failed("Y", "panicked");
        assert_eq!(run_status(&[ok, bad]), 1);
        assert_eq!(run_status(&[]), 0);
    }

    #[test]
    fn best_marker_skips_failed_cells() {
        let mut e = ExperimentResult::new("t", "");
        e.push("A", rep(0.5));
        e.push("B", rep(0.9));
        e.push_failed("C", "oom");
        let text = format_experiment(&e);
        // the best-F star goes to B, and C's zero metrics don't get one
        for line in text.lines() {
            if line.starts_with("B") {
                assert!(line.ends_with('*'), "{line}");
            }
            if line.starts_with("C") {
                assert!(line.contains("FAILED"), "{line}");
                assert!(!line.ends_with('*'), "{line}");
            }
        }
    }
}
