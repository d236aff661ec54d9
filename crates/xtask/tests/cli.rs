//! End-to-end exit-code contract of the `xtask` binary:
//! 0 = clean tree, 1 = findings, 2 = usage error.

use std::path::{Path, PathBuf};
use std::process::Command;

fn xtask() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
}

/// Builds a throwaway workspace-shaped tree under `CARGO_TARGET_TMPDIR`.
fn scratch_tree(name: &str, source: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src = root.join("crates/data/src");
    std::fs::create_dir_all(&src).expect("mkdir scratch tree");
    std::fs::write(src.join("lib.rs"), source).expect("write scratch lib.rs");
    root
}

#[test]
fn clean_tree_exits_zero() {
    let root = scratch_tree("xtask-clean", "pub fn ok(w: f64) -> bool { w > 0.0 }\n");
    let status = xtask()
        .args(["lint", root.to_str().unwrap()])
        .status()
        .expect("run xtask");
    assert_eq!(status.code(), Some(0));
}

#[test]
fn findings_exit_one_and_print_diagnostics() {
    let root = scratch_tree(
        "xtask-dirty",
        "pub fn bad(w: f64) -> bool { w == 0.0 }\npub fn also(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let out = xtask()
        .args(["lint", root.to_str().unwrap()])
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/data/src/lib.rs:1: [float-eq]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("crates/data/src/lib.rs:2: [lib-unwrap]"),
        "{stdout}"
    );
}

#[test]
fn json_mode_prints_one_flat_object_per_finding() {
    let root = scratch_tree("xtask-json", "pub fn bad(w: f64) -> bool { w == 0.0 }\n");
    let out = xtask()
        .args(["lint", "--json", root.to_str().unwrap()])
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "{stdout}");
    let line = lines[0];
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    assert!(line.contains("\"rule\":\"float-eq\""), "{line}");
    assert!(
        line.contains("\"path\":\"crates/data/src/lib.rs\""),
        "{line}"
    );
    assert!(line.contains("\"line\":1"), "{line}");
    assert!(
        line.contains("\"snippet\":\"pub fn bad(w: f64) -> bool { w == 0.0 }\""),
        "{line}"
    );
}

#[test]
fn scopes_reports_a_crate_missing_from_the_roster() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("xtask-scopes-unknown");
    let src = root.join("crates/mystery/src");
    std::fs::create_dir_all(&src).expect("mkdir scratch tree");
    std::fs::write(src.join("lib.rs"), "pub fn f() {}\n").expect("write scratch lib.rs");
    let out = xtask()
        .args(["scopes", root.to_str().unwrap()])
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mystery"), "{stdout}");
}

#[test]
fn scopes_pass_is_clean_on_the_real_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let out = xtask()
        .args(["scopes", root.to_str().unwrap()])
        .output()
        .expect("run xtask");
    assert_eq!(
        out.status.code(),
        Some(0),
        "scope drift:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn determinism_rejects_tiny_row_counts_as_usage_error() {
    let out = xtask()
        .args(["determinism", "10"])
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("rows must be"), "{stderr}");
}

#[test]
fn determinism_sweep_exits_zero_and_reports_each_distinct_fit() {
    let out = xtask()
        .args(["determinism", "300"])
        .output()
        .expect("run xtask");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}\n{stderr}");
    // Worker caps {1, 2, max}: max is a third distinct cap only on a host
    // with more than two hardware threads.
    let available = std::thread::available_parallelism().map_or(2, |p| p.get());
    let fits = 3 * if available > 2 { 3 } else { 2 };
    assert!(
        stderr.contains(&format!("all {fits} fits bit-identical")),
        "{stderr}"
    );
    assert_eq!(
        stdout.lines().filter(|l| l.contains("workers=")).count(),
        fits,
        "{stdout}"
    );
}

#[test]
fn unknown_command_exits_two() {
    let status = xtask().arg("frobnicate").status().expect("run xtask");
    assert_eq!(status.code(), Some(2));
}

#[test]
fn missing_command_exits_two() {
    let status = xtask().status().expect("run xtask");
    assert_eq!(status.code(), Some(2));
}

#[test]
fn real_workspace_is_clean() {
    // CARGO_MANIFEST_DIR = crates/xtask → repo root is two levels up
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let out = xtask()
        .args(["lint", root.to_str().unwrap()])
        .output()
        .expect("run xtask");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace lint not clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
