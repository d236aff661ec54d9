//! Fixtures and the overwrite guard shared by the two baseline writers,
//! `search_baseline` and `train_baseline`. Each writes one committed file
//! at the workspace root, `BENCH_search.json` or `BENCH_train.json`, and
//! runs from there with `cargo run --release -p pnr-bench --bin <name>`.
//! The end-to-end and per-layer benchmark of fits and the daemon is the
//! separate `pnrbench/` package (`python3 pnrbench/run.py`).

use pnr_data::Dataset;
use pnr_synth::numeric::NumericModelConfig;
use pnr_synth::SynthScale;
use std::path::Path;

/// Whether a baseline writer may overwrite the committed baseline file.
///
/// A baseline regenerated on a *less* parallel machine silently erases the
/// multi-core measurements (and their speedup claims) with strictly less
/// informative numbers — the 1-core-clobbers-8-core failure mode. The
/// writer must refuse unless the current machine is at least as parallel
/// as the recorded one, or the user explicitly passes `--force`.
/// `existing_parallelism` is `None` when there is no baseline on disk (or
/// it carries no reading), which always allows the write.
pub fn overwrite_allowed(existing_parallelism: Option<u64>, current: u64, force: bool) -> bool {
    force || existing_parallelism.is_none_or(|previous| current >= previous)
}

/// The `detected_parallelism` recorded in an existing baseline JSON file,
/// or `None` when the file is absent, unparseable, or lacks the field —
/// all of which mean "nothing worth protecting".
pub fn recorded_parallelism(path: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    match serde_json::parse(&text).ok()?.get("detected_parallelism")? {
        serde_json::Value::U64(n) => Some(*n),
        _ => None,
    }
}

/// A small nsyn3-model dataset (benchmark workhorse).
pub fn nsyn3_dataset(n_records: usize) -> Dataset {
    let cfg = NumericModelConfig::nsyn(3);
    let scale = SynthScale {
        n_records,
        target_frac: 0.01,
    };
    pnr_synth::numeric::generate(&cfg, &scale, 42)
}

/// Target flags for the synthetic target class.
pub fn target_flags(data: &Dataset, class: &str) -> Vec<bool> {
    let code = data.class_code(class).expect("class exists");
    (0..data.n_rows()).map(|r| data.label(r) == code).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn less_parallel_machine_cannot_clobber_the_baseline() {
        assert!(!overwrite_allowed(Some(8), 1, false), "1 core vs 8: refuse");
        assert!(!overwrite_allowed(Some(8), 7, false));
    }

    #[test]
    fn equal_or_more_parallel_machine_may_overwrite() {
        assert!(overwrite_allowed(Some(8), 8, false));
        assert!(overwrite_allowed(Some(8), 16, false));
        assert!(overwrite_allowed(None, 1, false), "no baseline: allow");
    }

    #[test]
    fn force_overrides_the_guard() {
        assert!(overwrite_allowed(Some(64), 1, true));
    }

    #[test]
    fn recorded_parallelism_reads_the_field_and_tolerates_garbage() {
        let dir = std::env::temp_dir().join(format!("pnr_bench_guard_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        std::fs::write(&good, r#"{"bench": "x", "detected_parallelism": 8}"#).unwrap();
        assert_eq!(recorded_parallelism(&good), Some(8));
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{not json").unwrap();
        assert_eq!(recorded_parallelism(&bad), None);
        let missing_field = dir.join("missing.json");
        std::fs::write(&missing_field, r#"{"bench": "x"}"#).unwrap();
        assert_eq!(recorded_parallelism(&missing_field), None);
        assert_eq!(recorded_parallelism(&dir.join("absent.json")), None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fixtures_build() {
        let d = nsyn3_dataset(2_000);
        assert_eq!(d.n_rows(), 2_000);
        let flags = target_flags(&d, "C");
        assert_eq!(flags.iter().filter(|&&f| f).count(), 20);
    }
}
