//! Cell-level checkpoint/resume for the experiment pipeline.
//!
//! Every completed (experiment, method, scale, seed) cell is persisted as
//! one small JSON file under `<out_dir>/checkpoints/`, written atomically
//! ([`pnr_data::write_atomic`]) the moment the cell finishes. On restart
//! with `--resume` (the default) completed cells are loaded instead of
//! re-run, so a `kill -9` mid-table loses at most the cells that were in
//! flight.
//!
//! Files are keyed by an FNV-1a fingerprint of the cell inputs; the full
//! canonical key is stored inside the file and verified on load, so a
//! fingerprint collision or a stale file from a different configuration
//! falls back to re-running the cell rather than serving wrong results.
//! Failed cells are never checkpointed — a resumed run retries them.

use crate::report::ResultRow;
use pnr_data::fingerprint::fnv1a_64;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Identity of one experiment cell. `scale` participates via its exact
/// bit pattern, so `0.1 + 0.2`-style near-misses never alias.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellKey {
    /// Experiment id, e.g. `"table1/nsyn3"` — identifies the dataset.
    pub experiment: String,
    /// Method label within the experiment, e.g. `"PNrule"`.
    pub method: String,
    /// Dataset scale factor.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl CellKey {
    /// Canonical string the fingerprint is computed over. The unit
    /// separator keeps `("a", "bc")` distinct from `("ab", "c")`.
    fn canonical(&self) -> String {
        format!(
            "{}\u{1f}{}\u{1f}{:016x}\u{1f}{}",
            self.experiment,
            self.method,
            self.scale.to_bits(),
            self.seed
        )
    }

    /// FNV-1a 64-bit fingerprint of the canonical key. Both the
    /// checkpoint store and the per-cell telemetry export
    /// ([`crate::telemetry_out`]) name their files by this value, so a
    /// cell's result and its trace sit side by side under the same key.
    pub fn fingerprint(&self) -> u64 {
        fnv1a_64(self.canonical().as_bytes())
    }
}

/// One persisted cell: the key it was computed for plus its result row.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CellRecord {
    key: CellKey,
    row: ResultRow,
}

/// A directory-backed checkpoint store. A disabled store loads nothing
/// and writes nothing, so `--no-resume` runs leave no trace and tests
/// cannot be polluted by earlier results.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    dir: PathBuf,
    enabled: bool,
}

impl Checkpoint {
    /// A store under `<out_dir>/checkpoints`. With `enabled` false, both
    /// [`load`](Self::load) and [`store`](Self::store) are no-ops.
    pub fn new(out_dir: impl AsRef<Path>, enabled: bool) -> Self {
        Checkpoint {
            dir: out_dir.as_ref().join("checkpoints"),
            enabled,
        }
    }

    /// The cell's file path.
    fn path_for(&self, key: &CellKey) -> PathBuf {
        self.dir.join(format!("{:016x}.json", key.fingerprint()))
    }

    /// Loads a completed cell, or `None` when absent, unreadable, stale
    /// (stored key differs — fingerprint collision or format drift), or a
    /// failed row slipped in. Any problem means "re-run the cell", never
    /// an error.
    pub fn load(&self, key: &CellKey) -> Option<ResultRow> {
        if !self.enabled {
            return None;
        }
        let text = std::fs::read_to_string(self.path_for(key)).ok()?;
        let record: CellRecord = serde_json::from_str(&text).ok()?;
        if record.key != *key || record.row.is_failed() {
            return None;
        }
        Some(record.row)
    }

    /// Persists a completed cell atomically. Failed rows are not stored —
    /// a resumed run should retry them. IO problems are reported to stderr
    /// but never fail the run: a checkpoint is an optimisation, not a
    /// correctness requirement.
    pub fn store(&self, key: &CellKey, row: &ResultRow) {
        if !self.enabled || row.is_failed() {
            return;
        }
        let record = CellRecord {
            key: key.clone(),
            row: row.clone(),
        };
        let json = match serde_json::to_string_pretty(&record) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("checkpoint serialization failed: {e}");
                return;
            }
        };
        let path = self.path_for(key);
        if let Err(e) = pnr_data::write_atomic(&path, json.as_bytes()) {
            eprintln!("checkpoint write failed for {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_metrics::PrfReport;

    fn key(exp: &str, method: &str) -> CellKey {
        CellKey {
            experiment: exp.to_string(),
            method: method.to_string(),
            scale: 0.25,
            seed: 42,
        }
    }

    fn row(label: &str, f: f64) -> ResultRow {
        ResultRow::new(
            label,
            PrfReport {
                recall: f,
                precision: f,
                f,
            },
        )
    }

    fn temp_store(name: &str) -> (Checkpoint, PathBuf) {
        let dir = std::env::temp_dir().join(format!("pnr_ckpt_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        (Checkpoint::new(&dir, true), dir)
    }

    #[test]
    fn store_then_load_round_trips() {
        let (ckpt, dir) = temp_store("round");
        let k = key("table1/nsyn1", "PNrule");
        assert!(ckpt.load(&k).is_none(), "empty store has nothing");
        ckpt.store(&k, &row("PNrule", 0.9));
        let back = ckpt.load(&k).expect("stored cell loads");
        assert_eq!(back.label, "PNrule");
        assert_eq!(back.f, 0.9);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let (ckpt, dir) = temp_store("alias");
        ckpt.store(&key("table1/nsyn1", "PNrule"), &row("PNrule", 0.9));
        assert!(ckpt.load(&key("table1/nsyn1", "RIPPER")).is_none());
        assert!(ckpt.load(&key("table1/nsyn2", "PNrule")).is_none());
        let mut other_scale = key("table1/nsyn1", "PNrule");
        other_scale.scale = 0.5;
        assert!(ckpt.load(&other_scale).is_none());
        let mut other_seed = key("table1/nsyn1", "PNrule");
        other_seed.seed = 7;
        assert!(ckpt.load(&other_seed).is_none());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn stale_or_corrupt_files_fall_back_to_rerun() {
        let (ckpt, dir) = temp_store("stale");
        let k = key("table2/x", "PNrule");
        ckpt.store(&k, &row("PNrule", 0.8));
        // Corrupt the file in place: load must return None, not error.
        let path = ckpt.path_for(&k);
        std::fs::write(&path, "{not json").unwrap();
        assert!(ckpt.load(&k).is_none());
        // A record whose stored key differs (simulated collision) is
        // also rejected.
        let other = key("tableX/other", "RIPPER");
        let record = CellRecord {
            key: other,
            row: row("RIPPER", 0.7),
        };
        std::fs::write(&path, serde_json::to_string(&record).unwrap()).unwrap();
        assert!(ckpt.load(&k).is_none());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn disabled_store_neither_loads_nor_writes() {
        let dir = std::env::temp_dir().join(format!("pnr_ckpt_off_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let on = Checkpoint::new(&dir, true);
        let off = Checkpoint::new(&dir, false);
        let k = key("table3/y", "RIPPER");
        on.store(&k, &row("RIPPER", 0.6));
        assert!(off.load(&k).is_none(), "disabled store must not load");
        let k2 = key("table3/z", "PNrule");
        off.store(&k2, &row("PNrule", 0.5));
        assert!(on.load(&k2).is_none(), "disabled store must not write");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn failed_rows_are_never_checkpointed() {
        let (ckpt, dir) = temp_store("failed");
        let k = key("table4/q", "PNrule");
        ckpt.store(&k, &ResultRow::failed("PNrule", "panicked"));
        assert!(ckpt.load(&k).is_none());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fingerprint_is_stable_and_key_sensitive() {
        let a = key("e", "m").fingerprint();
        assert_eq!(a, key("e", "m").fingerprint(), "deterministic");
        assert_ne!(a, key("e", "n").fingerprint());
        // separator discipline: ("ab","c") vs ("a","bc")
        let k1 = CellKey {
            experiment: "ab".into(),
            method: "c".into(),
            scale: 1.0,
            seed: 1,
        };
        let k2 = CellKey {
            experiment: "a".into(),
            method: "bc".into(),
            scale: 1.0,
            seed: 1,
        };
        assert_ne!(k1.fingerprint(), k2.fingerprint());
    }

    #[test]
    fn fingerprint_is_pinned_so_existing_files_still_resolve() {
        // Checkpoint and telemetry files on disk are named by this value;
        // changing it orphans every saved cell.
        assert_eq!(
            key("table1/nsyn1", "PNrule").fingerprint(),
            0x8508_d310_ef86_f8e8
        );
    }
}
