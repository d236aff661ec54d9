//! `cargo xtask` — the repo's static-analysis suite and reproducibility
//! harness.
//!
//! Three subcommands:
//!
//! * `lint [--json] [root]` — walks every workspace crate's `src/` tree
//!   (plus the facade's root `src/`), runs the token-level lints from
//!   [`lints`] with per-crate rule scopes, and prints one
//!   `path:line: [rule] message` diagnostic per finding (or one JSON
//!   object per line under `--json`).
//! * `scopes [root]` — the cross-file scope-drift pass: fails when a
//!   crate is missing from the lint-scope roster, a roster entry or
//!   serving-path file no longer exists, or a source file escapes every
//!   lint scope (see [`scopes`]).
//! * `determinism [rows]` — the dynamic counterpart: fits a small kddsim
//!   workload under permuted row insertion orders × the distinct thread
//!   counts of {1, 2, max} and asserts every `ModelArtifact` is
//!   bit-identical by FNV-1a checksum (see [`determinism`]).
//!
//! Exit status everywhere: 0 clean, 1 findings/violations, 2 usage/IO
//! error.
//!
//! Rule scopes (see DESIGN.md "Static analysis & invariants"):
//! - `float-eq`    — every crate (including `xtask` itself, so no file
//!   escapes all scopes)
//! - `lib-unwrap`  — pnr-data, pnr-rules, pnr-core, pnr-telemetry (the
//!   library core plus the always-on observation layer), plus the
//!   serving-path modules outside those crates (see `SERVING_PATH_FILES`)
//! - `nondet-iter` — the learner path: data, rules, core, ripper, c45,
//!   plus telemetry (deterministic export order) and the serving-path
//!   modules (deterministic record order)
//! - `lossy-cast`  — row/code arithmetic: data, metrics, rules, core,
//!   ripper, c45
//! - `nondet-merge` — the crates that may spawn worker threads on the
//!   learner path: data, rules, core
//! - `unordered-float-sum` — every learner whose statistics are float
//!   reductions: data, rules, core, ripper, c45
//! - `telemetry-ungated` — the hot-path crates carrying PR 4's
//!   zero-overhead guarantee: rules, core
//!
//! `tests/`, `benches/`, `examples/`, `fixtures/`, `vendor/` and `target/`
//! are never walked; `#[cfg(test)]` items inside `src/` are exempted per
//! rule by the lint layer.

mod determinism;
mod lexer;
mod lints;
mod scopes;

#[cfg(test)]
mod fixture_tests;

use lints::Finding;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Every crate directory expected under `crates/`, i.e. the lint-scope
/// roster. `cargo xtask scopes` fails when a directory on disk is missing
/// here (a new crate would silently escape the scoped lints) or when an
/// entry no longer exists on disk (stale roster).
const KNOWN_CRATES: [&str; 14] = [
    "bench",
    "c45",
    "core",
    "data",
    "experiments",
    "kddsim",
    "metrics",
    "ripper",
    "rules",
    "sentinel",
    "serve",
    "synth",
    "telemetry",
    "xtask",
];
/// Crates whose non-test code must not panic via `.unwrap()`/`.expect()`.
/// `serve` is here because the daemon sits behind a panic boundary that
/// must never be the *normal* error path, and `sentinel` because the
/// monitor must outlive the daemon failures it supervises.
const LIB_UNWRAP_CRATES: [&str; 6] = ["data", "rules", "core", "telemetry", "serve", "sentinel"];
/// Crates on the learner path where iteration order feeds rule ordering,
/// plus telemetry and serving, whose export/report order must be
/// deterministic.
const NONDET_ITER_CRATES: [&str; 8] = [
    "data",
    "rules",
    "core",
    "ripper",
    "c45",
    "telemetry",
    "serve",
    "sentinel",
];
/// Crates doing row-index/code arithmetic.
const LOSSY_CAST_CRATES: [&str; 6] = ["data", "metrics", "rules", "core", "ripper", "c45"];
/// Crates that may spawn worker threads on the learner path; every
/// `thread::scope`/`spawn` site there must name its deterministic merge
/// key in a `// det:merge(<ordering>)` directive.
const NONDET_MERGE_CRATES: [&str; 3] = ["data", "rules", "core"];
/// Crates whose model-visible statistics are float reductions; float
/// sums there must go through `pnr_data::weights::ordered_sum` (or carry
/// an order justification).
const FLOAT_SUM_CRATES: [&str; 5] = ["data", "rules", "core", "ripper", "c45"];
/// Hot-path crates carrying the zero-overhead telemetry guarantee:
/// every sink call must sit behind an `enabled()` gate.
const TELEMETRY_GATE_CRATES: [&str; 2] = ["rules", "core"];
/// Serving-path modules outside the library crates. They sit between a
/// saved artifact and a caller's data stream, so they carry the core's
/// no-panic and deterministic-iteration discipline even though their
/// host crates (experiments, kddsim) do not as a whole.
const SERVING_PATH_FILES: [&str; 5] = [
    "crates/experiments/src/artifact_out.rs",
    "crates/experiments/src/bin/kdd_csv.rs",
    "crates/experiments/src/bin/predict.rs",
    "crates/kddsim/src/faults.rs",
    "crates/kddsim/src/schema.rs",
];

/// The rules that apply to one repo-relative `.rs` path; empty = skip file.
fn rules_for(rel: &str) -> Vec<&'static str> {
    let rel = rel.replace('\\', "/");
    if !rel.ends_with(".rs") {
        return Vec::new();
    }
    // the facade crate's src/ at the repo root
    if let Some(rest) = rel.strip_prefix("src/") {
        if !rest.contains('/') || rest.starts_with("bin/") {
            return vec!["float-eq"];
        }
    }
    let Some(rest) = rel.strip_prefix("crates/") else {
        return Vec::new();
    };
    let Some((krate, tail)) = rest.split_once('/') else {
        return Vec::new();
    };
    if !tail.starts_with("src/") {
        return Vec::new(); // tests/, benches/, fixtures/, examples/
    }
    let mut rules = vec!["float-eq"];
    if LIB_UNWRAP_CRATES.contains(&krate) {
        rules.push("lib-unwrap");
    }
    if NONDET_ITER_CRATES.contains(&krate) {
        rules.push("nondet-iter");
    }
    if LOSSY_CAST_CRATES.contains(&krate) {
        rules.push("lossy-cast");
    }
    if NONDET_MERGE_CRATES.contains(&krate) {
        rules.push("nondet-merge");
    }
    if FLOAT_SUM_CRATES.contains(&krate) {
        rules.push("unordered-float-sum");
    }
    if TELEMETRY_GATE_CRATES.contains(&krate) {
        rules.push("telemetry-ungated");
    }
    if SERVING_PATH_FILES.contains(&rel.as_str()) {
        rules.push("lib-unwrap");
        rules.push("nondet-iter");
    }
    rules
}

/// Recursively collects `.rs` files under `dir`, skipping directories the
/// lints never apply to.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    const SKIP_DIRS: [&str; 6] = [
        "target", "vendor", "fixtures", "tests", "benches", "examples",
    ];
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`; returns all findings.
fn run_lints(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        let rules = rules_for(&rel);
        if rules.is_empty() {
            continue;
        }
        let source = std::fs::read_to_string(&path)?;
        findings.extend(lints::lint_file(&rel, &source, &rules));
    }
    Ok(findings)
}

/// The workspace root: two levels up from this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Escapes `s` for embedding inside a JSON string literal. Hand-rolled so
/// the lint path stays dependency-free (the `--json` contract is one
/// flat object per line; nothing here needs serde).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One finding as a single-line JSON object (the `--json` output format).
fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"snippet\":\"{}\"}}",
        json_escape(f.rule),
        json_escape(&f.file),
        f.line,
        json_escape(&f.snippet)
    )
}

fn usage() -> ExitCode {
    eprintln!("usage: cargo xtask lint [--json] [workspace-root]");
    eprintln!("       cargo xtask scopes [workspace-root]");
    eprintln!("       cargo xtask determinism [rows]");
    eprintln!("rules: {}", lints::ALL_RULES.join(", "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let json = args.iter().skip(1).any(|a| a == "--json");
            let root = match args.iter().skip(1).find(|a| !a.starts_with("--")) {
                Some(p) => PathBuf::from(p),
                None => workspace_root(),
            };
            match run_lints(&root) {
                Ok(findings) if findings.is_empty() => {
                    eprintln!("xtask lint: clean");
                    ExitCode::SUCCESS
                }
                Ok(findings) => {
                    for f in &findings {
                        if json {
                            println!("{}", finding_json(f));
                        } else {
                            println!("{f}");
                        }
                    }
                    eprintln!("xtask lint: {} finding(s)", findings.len());
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("xtask lint: IO error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("scopes") => {
            let root = match args.get(1) {
                Some(p) => PathBuf::from(p),
                None => workspace_root(),
            };
            match scopes::check(&root) {
                Ok(problems) if problems.is_empty() => {
                    eprintln!("xtask scopes: every source file is covered");
                    ExitCode::SUCCESS
                }
                Ok(problems) => {
                    for p in &problems {
                        println!("{p}");
                    }
                    eprintln!("xtask scopes: {} problem(s)", problems.len());
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("xtask scopes: IO error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("determinism") => {
            let rows = match args.get(1) {
                None => determinism::DEFAULT_ROWS,
                Some(raw) => match raw.parse::<usize>() {
                    Ok(n) if n >= 50 => n,
                    _ => {
                        eprintln!("xtask determinism: rows must be an integer >= 50, got `{raw}`");
                        return ExitCode::from(2);
                    }
                },
            };
            match determinism::run(rows) {
                Ok(report) => {
                    print!("{report}");
                    if report.is_deterministic() {
                        eprintln!(
                            "xtask determinism: all {} fits bit-identical",
                            report.runs()
                        );
                        ExitCode::SUCCESS
                    } else {
                        eprintln!("xtask determinism: checksum divergence");
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("xtask determinism: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_mapping_per_crate() {
        assert_eq!(
            rules_for("crates/data/src/weights.rs"),
            [
                "float-eq",
                "lib-unwrap",
                "nondet-iter",
                "lossy-cast",
                "nondet-merge",
                "unordered-float-sum"
            ]
        );
        assert_eq!(
            rules_for("crates/metrics/src/binary.rs"),
            ["float-eq", "lossy-cast"]
        );
        assert_eq!(
            rules_for("crates/ripper/src/prune.rs"),
            [
                "float-eq",
                "nondet-iter",
                "lossy-cast",
                "unordered-float-sum"
            ]
        );
        assert_eq!(
            rules_for("crates/telemetry/src/lib.rs"),
            ["float-eq", "lib-unwrap", "nondet-iter"]
        );
        assert_eq!(rules_for("crates/synth/src/peaks.rs"), ["float-eq"]);
        assert_eq!(rules_for("src/lib.rs"), ["float-eq"]);
        // The scoring daemon (library, both binaries) answers untrusted
        // network traffic: it carries the no-panic and deterministic-
        // iteration discipline, but not the learner-only float/merge
        // rules.
        for serve in [
            "crates/serve/src/daemon.rs",
            "crates/serve/src/pool.rs",
            "crates/serve/src/bin/pnr_serve.rs",
            "crates/serve/src/bin/pnr_loadgen.rs",
        ] {
            assert_eq!(
                rules_for(serve),
                ["float-eq", "lib-unwrap", "nondet-iter"],
                "{serve}"
            );
        }
        // The drift sentinel is a supervisor: it must not panic while
        // the thing it supervises is failing, and its verdicts and wire
        // output must be deterministic.
        for sentinel in [
            "crates/sentinel/src/detect.rs",
            "crates/sentinel/src/supervisor.rs",
            "crates/sentinel/src/bin/pnr_sentinel.rs",
        ] {
            assert_eq!(
                rules_for(sentinel),
                ["float-eq", "lib-unwrap", "nondet-iter"],
                "{sentinel}"
            );
        }
    }

    #[test]
    fn serving_path_files_get_the_core_discipline() {
        for rel in SERVING_PATH_FILES {
            assert_eq!(
                rules_for(rel),
                ["float-eq", "lib-unwrap", "nondet-iter"],
                "{rel}"
            );
        }
        // the rest of their host crates keeps its lighter scope
        assert_eq!(rules_for("crates/experiments/src/methods.rs"), ["float-eq"]);
        assert_eq!(rules_for("crates/kddsim/src/subclass.rs"), ["float-eq"]);
    }

    #[test]
    fn out_of_scope_paths_get_no_rules() {
        assert!(rules_for("crates/xtask/fixtures/bad/float_eq.rs").is_empty());
        assert!(rules_for("crates/rules/tests/audit_corruption.rs").is_empty());
        assert!(rules_for("crates/bench/benches/search.rs").is_empty());
        assert!(rules_for("vendor/rand/src/lib.rs").is_empty());
        assert!(rules_for("crates/data/src/notes.md").is_empty());
    }

    #[test]
    fn every_crate_source_file_gets_at_least_float_eq() {
        // `cargo xtask scopes` relies on this floor: no `src/` file may
        // escape every lint scope, xtask's own sources included.
        assert_eq!(rules_for("crates/xtask/src/main.rs"), ["float-eq"]);
        assert_eq!(
            rules_for("crates/bench/src/bin/search_baseline.rs"),
            ["float-eq"]
        );
    }

    #[test]
    fn json_escaping_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("tab\there"), "tab\\there");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn finding_json_is_one_flat_object() {
        let f = Finding {
            file: "crates/data/src/lib.rs".to_string(),
            line: 3,
            rule: "float-eq",
            msg: "irrelevant for json".to_string(),
            snippet: "x == 0.0".to_string(),
        };
        assert_eq!(
            finding_json(&f),
            "{\"rule\":\"float-eq\",\"path\":\"crates/data/src/lib.rs\",\
             \"line\":3,\"snippet\":\"x == 0.0\"}"
        );
    }

    #[test]
    fn workspace_lint_is_clean() {
        let findings = run_lints(&workspace_root()).expect("workspace walk");
        assert!(
            findings.is_empty(),
            "workspace has lint findings:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
