//! Every workload at `--smoke` scale, untraced and traced: each run must
//! pass its gates and print every metric `BENCHMARK.json` names, with
//! that metric's unit and a finite value.

use serde::Content;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bench() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_pnr-bench"))
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
}

/// Builds `pnr-serve` next to `pnr-bench`, in the same profile, as
/// `run.py` does for release builds.
fn build_daemon() {
    let profile_dir = bench().parent().expect("binary has a directory");
    let target_dir = profile_dir.parent().expect("profile dir has a parent");
    let mut cmd = Command::new(env!("CARGO"));
    cmd.args([
        "build",
        "--offline",
        "--quiet",
        "-p",
        "pnr-serve",
        "--bin",
        "pnr-serve",
    ])
    .arg("--manifest-path")
    .arg(repo_root().join("Cargo.toml"))
    .arg("--target-dir")
    .arg(target_dir);
    if profile_dir.file_name().is_some_and(|n| n == "release") {
        cmd.arg("--release");
    }
    assert!(
        cmd.status().expect("run cargo").success(),
        "pnr-serve build"
    );
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let v = serde_json::parse(&text).unwrap();
    let field = |m: &Content, k: &str| match m.get(k) {
        Some(Content::Str(s)) => s.clone(),
        other => panic!("{section} entry without a string {k}: {other:?}"),
    };
    v.get(section)
        .and_then(Content::as_seq)
        .unwrap_or_else(|| panic!("no {section} list"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Runs every workload once and checks each result line.
fn run_all(trace: bool, section: &str, work: &PathBuf) {
    let mut cmd = Command::new(bench());
    cmd.args(["run", "all", "--smoke", "--seconds", "1", "--seed", "3"])
        .current_dir(work);
    if trace {
        cmd.arg("--trace");
    }
    let out = cmd.output().expect("run pnr-bench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "pnr-bench failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results: Vec<Content> = stdout
        .lines()
        .map(|l| serde_json::parse(l).expect("every stdout line is JSON"))
        .filter(|v| v.get("metrics").is_some())
        .collect();
    assert_eq!(results.len(), 5, "one result per workload:\n{stdout}");
    let expected = declared(section);
    for result in &results {
        assert_eq!(result.get("correct"), Some(&Content::Bool(true)));
        let metrics = result.get("metrics").and_then(Content::as_map).unwrap();
        assert_eq!(metrics.len(), expected.len(), "{result:?}");
        for (name, unit) in &expected {
            let m = result
                .get("metrics")
                .and_then(|ms| ms.get(name))
                .unwrap_or_else(|| panic!("metric {name} missing from {result:?}"));
            assert_eq!(m.get("unit"), Some(&Content::Str(unit.clone())), "{name}");
            let value = m.get("value").and_then(Content::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name}: {m:?}");
        }
    }
}

#[test]
fn every_workload_prints_every_declared_metric() {
    build_daemon();
    let work = bench().parent().unwrap().join("smoke-work");
    std::fs::create_dir_all(&work).unwrap();
    run_all(false, "end_to_end", &work);
    run_all(true, "per_layer", &work);
}
