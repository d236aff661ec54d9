//! Per-cell NDJSON telemetry export, written next to the checkpoint
//! store under `<out_dir>/telemetry/` and keyed by the same FNV-1a cell
//! fingerprint as [`crate::checkpoint`] — a cell's result and its trace
//! share a file stem across the two directories.
//!
//! Each `<fingerprint>.ndjson` file starts with one meta line naming the
//! cell (experiment, method, scale, seed, fingerprint), followed by the
//! recording sink's counter and span records. Files are written
//! atomically ([`pnr_data::write_atomic`]); IO problems are reported to
//! stderr and never fail the run — telemetry is observation, not a
//! correctness requirement.

use crate::checkpoint::CellKey;
use pnr_telemetry::RecordingSink;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// The first line of every cell telemetry file: which cell this trace
/// belongs to, in the checkpoint store's own vocabulary.
#[derive(Debug, Serialize)]
struct CellMeta {
    record: String,
    experiment: String,
    method: String,
    scale: f64,
    seed: u64,
    fingerprint: String,
}

/// The telemetry file path for one cell:
/// `<out_dir>/telemetry/<fingerprint>.ndjson`.
pub fn telemetry_path(out_dir: impl AsRef<Path>, key: &CellKey) -> PathBuf {
    out_dir
        .as_ref()
        .join("telemetry")
        .join(format!("{:016x}.ndjson", key.fingerprint()))
}

/// Writes one cell's recorded telemetry as NDJSON, atomically. Errors go
/// to stderr; like a failed checkpoint write, they never fail the run.
pub fn write_cell(out_dir: impl AsRef<Path>, key: &CellKey, sink: &RecordingSink) {
    let meta = CellMeta {
        record: "cell".to_owned(),
        experiment: key.experiment.clone(),
        method: key.method.clone(),
        scale: key.scale,
        seed: key.seed,
        fingerprint: format!("{:016x}", key.fingerprint()),
    };
    let meta_line = match serde_json::to_string(&meta) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("telemetry meta serialization failed: {e}");
            return;
        }
    };
    let mut text = meta_line;
    text.push('\n');
    for line in sink.ndjson_lines() {
        text.push_str(&line);
        text.push('\n');
    }
    let path = telemetry_path(out_dir, key);
    if let Err(e) = pnr_data::write_atomic(&path, text.as_bytes()) {
        eprintln!("telemetry write failed for {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_telemetry::{Counter, SpanKind, TelemetrySink};

    fn key() -> CellKey {
        CellKey {
            experiment: "unit/telemetry".to_string(),
            method: "PNrule".to_string(),
            scale: 0.25,
            seed: 7,
        }
    }

    #[test]
    fn path_is_keyed_by_the_checkpoint_fingerprint() {
        let k = key();
        let path = telemetry_path("results", &k);
        assert_eq!(
            path,
            PathBuf::from("results")
                .join("telemetry")
                .join(format!("{:016x}.ndjson", k.fingerprint()))
        );
    }

    #[test]
    fn write_cell_emits_meta_then_records() {
        let dir = std::env::temp_dir().join(format!("pnr_tel_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let sink = RecordingSink::new();
        sink.add(Counter::ConditionsEvaluated, 42);
        sink.span_open(SpanKind::Fit, "fit");
        sink.span_close(SpanKind::Fit, 123);
        let k = key();
        write_cell(&dir, &k, &sink);
        let text = std::fs::read_to_string(telemetry_path(&dir, &k)).expect("file written");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "meta + counter + span: {lines:?}");
        assert!(
            lines[0].contains("\"record\":\"cell\"")
                && lines[0].contains("\"experiment\":\"unit/telemetry\"")
                && lines[0].contains(&format!("{:016x}", k.fingerprint())),
            "{}",
            lines[0]
        );
        assert!(
            lines.iter().any(|l| l.contains("conditions_evaluated")),
            "{text}"
        );
        assert!(
            lines.iter().any(|l| l.contains("\"kind\":\"fit\"")),
            "{text}"
        );
        // every line is standalone JSON
        for line in &lines {
            serde_json::parse(line).expect("valid JSON line");
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
