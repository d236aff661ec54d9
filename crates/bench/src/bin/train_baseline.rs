//! Emits `BENCH_train.json` — a committed wall-clock baseline of the full
//! out-of-core training pipeline: kddsim rows are stream-generated to CSV
//! without ever materializing the dataset, read back through the streaming
//! CSV reader (one line of text at a time), and a complete P/N fit is
//! timed per condition-search worker setting.
//!
//! Run from the workspace root:
//!
//! ```text
//! cargo run --release -p pnr-bench --bin train_baseline
//! ```
//!
//! Before anything is timed, every fit of the worker sweep passes a
//! **bit-identity gate**: its rendered [`ModelArtifact`] (checksum line
//! included) must be byte-identical to the inline fit's
//! (`search_workers: Some(1)`). The threaded search scores per-attribute
//! statistics in attribute order, so every worker setting agrees bitwise
//! (see the `threaded_search_is_bit_identical_to_inline` property in
//! `pnr-rules`); a gate failure aborts the run — timings of a wrong
//! computation are worthless.
//!
//! Like `search_baseline`, regenerating from a machine less parallel than
//! the committed baseline's is refused unless `--force` is passed, and
//! `detected_parallelism` is recorded so the sweep is read in context (on
//! one core the sweep measures thread overhead, not speedup — the `note`
//! field says so rather than implying a win).
//!
//! `--smoke` runs the CI-scale drill instead: stream 10 million kddsim
//! rows through the CSV reader (bounded generation and parse memory)
//! and drive a wall-clock-budgeted P/N fit over them, proving the
//! out-of-core path works at paper scale without a bench-length run. No
//! baseline file is written.

use pnr_core::{FitBudget, ModelArtifact, PnruleLearner, PnruleParams};
use pnr_data::{read_csv_with_report, CsvOptions, Dataset};
use pnr_kddsim::MixStream;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Rows for the committed baseline measurement.
const BENCH_ROWS: usize = 1_000_000;
/// Rows for the `--smoke` out-of-core drill.
const SMOKE_ROWS: usize = 10_000_000;
/// Generation chunk size (rows held in memory at once while streaming).
const CHUNK_ROWS: usize = 65_536;
/// Wall-clock budget for the smoke fit: enough to grow real rules at 10M
/// rows, bounded enough for CI.
const SMOKE_FIT_SECS: f64 = 120.0;
/// The rare class both modes fit (probe: 0.83% of the train mix).
const TARGET: &str = "probe";

/// Stream-generates `n` kddsim train-mix rows straight to a CSV file,
/// holding at most `CHUNK_ROWS` rows in memory, and returns the attribute
/// types, so the load needs no inference pass.
fn stream_to_csv(n: usize, seed: u64, path: &PathBuf) -> CsvOptions {
    let mut stream = MixStream::train(n, seed);
    let mut file = std::io::BufWriter::new(std::fs::File::create(path).expect("create csv"));
    let mut types = None;
    while let Some(chunk) = stream.next_chunk(CHUNK_ROWS) {
        if types.is_none() {
            file.write_all(pnr_data::write_csv_header_string(&chunk, ',').as_bytes())
                .expect("write header");
            types = Some(
                (0..chunk.n_attrs())
                    .map(|a| chunk.schema().attr(a).ty)
                    .collect::<Vec<_>>(),
            );
        }
        file.write_all(pnr_data::write_csv_rows_string(&chunk, ',').as_bytes())
            .expect("write rows");
    }
    file.flush().expect("flush csv");
    CsvOptions {
        types,
        ..CsvOptions::default()
    }
}

/// Fits the target class and renders the model artifact (checksum line
/// first — the gate compares the full rendering, which the checksum
/// covers). The artifact is rendered with the default params regardless
/// of which worker setting produced the fit: the params block records the
/// setting as plain configuration, so leaving it in would make every
/// sweep point trivially differ; rendering canonically means the only
/// varying inputs are the fitted model and report — exactly what the
/// bit-identity gate must compare.
fn fit_artifact(data: &Dataset, params: &PnruleParams) -> String {
    let code = data.class_code(TARGET).expect("target class present");
    let learner = PnruleLearner::new(params.clone());
    let (model, report) = learner.fit_with_report(data, code);
    ModelArtifact::new(
        model,
        PnruleParams::default(),
        report,
        data.schema().clone(),
    )
    .expect("artifact validates")
    .to_file_string()
    .expect("artifact renders")
}

fn run_smoke() {
    let path = std::env::temp_dir().join(format!("pnr_train_smoke_{}.csv", std::process::id()));
    eprintln!(
        "smoke: streaming {SMOKE_ROWS} kddsim rows to {}",
        path.display()
    );
    let t = Instant::now();
    let opts = stream_to_csv(SMOKE_ROWS, 42, &path);
    let gen_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (data, report) = read_csv_with_report(&path, &opts).expect("csv load");
    let load_secs = t.elapsed().as_secs_f64();
    assert_eq!(data.n_rows(), SMOKE_ROWS, "every streamed row must load");
    assert_eq!(report.n_skipped(), 0, "generated rows are clean");
    eprintln!(
        "smoke: generated in {gen_secs:.1}s, loaded {} rows in {load_secs:.1}s \
         ({:.0} rows/s)",
        data.n_rows(),
        data.n_rows() as f64 / load_secs,
    );

    let params = PnruleParams {
        budget: FitBudget {
            wall_clock_secs: Some(SMOKE_FIT_SECS),
            ..FitBudget::default()
        },
        ..Default::default()
    };
    let code = data.class_code(TARGET).expect("target class present");
    let t = Instant::now();
    let (model, fit_report) = PnruleLearner::new(params).fit_with_report(&data, code);
    let fit_secs = t.elapsed().as_secs_f64();
    // The budget may truncate the fit; truncated or not, the model must be
    // a valid, scoreable P/N classifier over the full out-of-core dataset.
    for row in (0..data.n_rows()).step_by(SMOKE_ROWS / 1000) {
        let (score, _) = model.score_with_trace(&data, row);
        assert!(score.is_finite());
    }
    eprintln!(
        "smoke: fit {} P-rules / {} N-rules in {fit_secs:.1}s \
         (p_stop {:?}, n_stop {:?}, budget_exhausted {})",
        model.p_rules.len(),
        model.n_rules.len(),
        fit_report.p_stop_reason,
        fit_report.n_stop_reason,
        fit_report.budget_exhausted(),
    );
    std::fs::remove_file(path).ok();
    println!("train smoke OK: {SMOKE_ROWS} rows streamed, loaded and fit end to end");
}

fn main() {
    let force = std::env::args().any(|a| a == "--force");
    if std::env::args().any(|a| a == "--smoke") {
        run_smoke();
        return;
    }

    // Guard first (shared with search_baseline): refuse to clobber a
    // more-parallel machine's baseline before spending minutes measuring.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let out = std::path::Path::new("BENCH_train.json");
    let recorded = pnr_bench::recorded_parallelism(out);
    if !pnr_bench::overwrite_allowed(recorded, cores as u64, force) {
        eprintln!(
            "refusing to overwrite {}: it was recorded with detected_parallelism {} \
             but this machine has {}; regenerating here would erase the multi-core \
             measurements. Pass --force to overwrite anyway.",
            out.display(),
            recorded.unwrap_or(0),
            cores,
        );
        std::process::exit(1);
    }

    let path = std::env::temp_dir().join(format!("pnr_train_bench_{}.csv", std::process::id()));
    let t = Instant::now();
    let opts = stream_to_csv(BENCH_ROWS, 42, &path);
    let gen_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (data, _) = read_csv_with_report(&path, &opts).expect("csv load");
    let load_secs = t.elapsed().as_secs_f64();
    std::fs::remove_file(&path).ok();
    assert_eq!(data.n_rows(), BENCH_ROWS);

    // The reference every worker setting must reproduce: the inline fit.
    // One untimed warm-up pass first (it also produces the gate artifact),
    // then best-of-2 — the same protocol every sweep point gets, so the
    // reference is not penalized for paging in the freshly loaded columns.
    let inline_params = PnruleParams {
        search_workers: Some(1),
        ..Default::default()
    };
    let reference = fit_artifact(&data, &inline_params);
    let mut reference_secs = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        let _ = fit_artifact(&data, &inline_params);
        reference_secs = reference_secs.min(t.elapsed().as_secs_f64());
    }
    eprintln!(
        "inline fit (search_workers: 1): {reference_secs:.2}s ({:.0} rows/s)",
        BENCH_ROWS as f64 / reference_secs,
    );

    let mut sweep = Vec::new();
    for (label, search_workers) in [("2", Some(2)), ("null", None)] {
        let params = PnruleParams {
            search_workers,
            ..Default::default()
        };
        // Bit-identity gate BEFORE timing: a fast wrong answer is not a
        // benchmark result.
        let gate = fit_artifact(&data, &params);
        assert_eq!(
            gate, reference,
            "search_workers {label} produced a different model artifact than \
             the inline fit — refusing to time a non-identical computation"
        );
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let t = Instant::now();
            let _ = fit_artifact(&data, &params);
            best = best.min(t.elapsed().as_secs_f64());
        }
        let rows_per_sec = BENCH_ROWS as f64 / best;
        eprintln!("search_workers {label}: best {best:.2}s ({rows_per_sec:.0} rows/s)");
        sweep.push(format!(
            r#"{{"search_workers": {label}, "fit_secs": {best:.3}, "rows_per_sec": {rows_per_sec:.0}}}"#
        ));
    }

    let note = if cores >= 2 {
        "sweep timed with real parallelism; compare rows_per_sec across worker settings".to_string()
    } else {
        format!(
            "detected parallelism is {cores}: the worker sweep measures thread \
             overhead, not speedup, so no speedup is claimed"
        )
    };
    let json = serde_json::to_string_pretty(
        &serde_json::parse(&format!(
            r#"{{
  "bench": "train_full_fit",
  "dataset": "kddsim-train",
  "rows": {BENCH_ROWS},
  "attrs": {attrs},
  "target": "{TARGET}",
  "detected_parallelism": {cores},
  "chunk_rows": {CHUNK_ROWS},
  "stream_generate_secs": {gen_secs:.3},
  "chunked_load_secs": {load_secs:.3},
  "load_rows_per_sec": {load_rps:.0},
  "bit_identity_gate": "every artifact of the worker sweep byte-identical to the inline fit",
  "inline_fit_secs": {reference_secs:.3},
  "inline_rows_per_sec": {inline_rps:.0},
  "worker_sweep": [{sweep}],
  "note": "{note}"
}}"#,
            attrs = data.n_attrs(),
            load_rps = BENCH_ROWS as f64 / load_secs,
            inline_rps = BENCH_ROWS as f64 / reference_secs,
            sweep = sweep.join(", "),
        ))
        .expect("baseline JSON is well-formed"),
    )
    .expect("serialize");
    std::fs::write(out, json + "\n").expect("write BENCH_train.json");
    println!(
        "BENCH_train.json written: load {:.0} rows/s, inline fit {:.0} rows/s, \
         sweep over search_workers [2, null] all bit-identical",
        BENCH_ROWS as f64 / load_secs,
        BENCH_ROWS as f64 / reference_secs,
    );
}
