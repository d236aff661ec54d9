//! Scores a CSV of new records against a saved model artifact.
//!
//! ```text
//! predict --model <file.artifact> --input <file.csv>
//!         [--unknown condition-false|abstain|reject]
//!         [--missing reject|default]
//!         [--out <file.ndjson>] [--describe] [--verify-only]
//! ```
//!
//! The input CSV is reconciled against the artifact's stored schema **by
//! column name**: column order is free, extra columns (including a
//! trailing `class` column) are ignored, and missing columns follow
//! `--missing`. The input is read through [`pnr_data::LineReader`], the
//! line reader of every `read_csv*` load: the header is the first line
//! that is not blank, and a record's `row` counts the lines after it. A
//! data line that is not UTF-8 is quarantined as a structural error,
//! while a header that is not UTF-8 stops the run.
//! Per-record output is NDJSON — one
//! `{"row":…,"score":…,"decision":…}` object per scored record, one
//! `{"row":…,"error":…}` object per quarantined/rejected record — to
//! `--out` or stdout; the serving report (telemetry counters plus
//! decision totals) always goes to stderr so it never mixes with the
//! stream.
//!
//! Exit codes follow the serving-binary convention (`pnr_core::exit`):
//! 0 success, 1 the artifact or input could not be used (corruption
//! surfaces here as a `ChecksumMismatch: …` line on stderr), 2 bad
//! invocation. Artifact loads retry transient I/O failures with bounded
//! exponential backoff before giving up.

use pnr_core::{MissingColumnPolicy, RecordError, ServingModel, UnknownPolicy};
use pnr_data::LineReader;
use pnr_telemetry::{Counter, RecordingSink, TelemetrySink};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Arc;

const USAGE: &str = "usage: predict --model <file.artifact> --input <file.csv> \
[--unknown condition-false|abstain|reject] [--missing reject|default] \
[--out <file.ndjson>] [--describe] [--verify-only]";

fn bail(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!("{USAGE}");
    std::process::exit(pnr_core::exit::USAGE);
}

/// Failure after a well-formed invocation (unusable artifact or input):
/// print the typed error and exit 1, never panic.
fn fail(problem: impl std::fmt::Display) -> ! {
    eprintln!("error: {problem}");
    std::process::exit(pnr_core::exit::DATA_FAILURE);
}

/// The next non-blank line of `input` with its 1-based line number, or
/// `None` at the end of the input; a read error stops the run.
fn next_line<'a>(
    input: &'a mut LineReader<impl BufRead>,
    path: &str,
) -> Option<(usize, Result<&'a str, std::str::Utf8Error>)> {
    input
        .next_line()
        .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")))
}

struct Options {
    model: String,
    input: Option<String>,
    unknown: UnknownPolicy,
    missing: MissingColumnPolicy,
    out: Option<String>,
    describe: bool,
    verify_only: bool,
}

fn parse_args() -> Options {
    let mut model = None;
    let mut input = None;
    let mut unknown = UnknownPolicy::default();
    let mut missing = MissingColumnPolicy::default();
    let mut out = None;
    let mut describe = false;
    let mut verify_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| bail(&format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--model" => model = Some(value("--model")),
            "--input" => input = Some(value("--input")),
            "--unknown" => {
                let raw = value("--unknown");
                unknown = UnknownPolicy::parse(&raw).unwrap_or_else(|| {
                    bail(&format!(
                        "--unknown takes condition-false, abstain or reject; got {raw:?}"
                    ))
                });
            }
            "--missing" => {
                let raw = value("--missing");
                missing = MissingColumnPolicy::parse(&raw).unwrap_or_else(|| {
                    bail(&format!("--missing takes reject or default; got {raw:?}"))
                });
            }
            "--out" => out = Some(value("--out")),
            "--describe" => describe = true,
            "--verify-only" => verify_only = true,
            other => bail(&format!("unknown argument {other}")),
        }
    }
    let model = model.unwrap_or_else(|| bail("--model is required"));
    if input.is_none() && !verify_only && !describe {
        bail("--input is required unless --verify-only or --describe is given");
    }
    Options {
        model,
        input,
        unknown,
        missing,
        out,
        describe,
        verify_only,
    }
}

fn main() {
    let opts = parse_args();
    let artifact =
        match pnr_core::load_with_retry(Path::new(&opts.model), &pnr_core::Backoff::default()) {
            Ok(a) => a,
            Err(e) => fail(e),
        };
    eprintln!(
        "loaded artifact: format v{}, target class `{}`, {} P-rules, {} N-rules, \
         schema fingerprint {:016x}",
        pnr_core::FORMAT_VERSION,
        artifact.target_class(),
        artifact.model.p_rules.len(),
        artifact.model.n_rules.len(),
        artifact.schema_fingerprint()
    );
    if opts.describe {
        print!("{}", artifact.model.describe(&artifact.schema));
    }
    if opts.verify_only || opts.input.is_none() {
        return;
    }

    let input_path = opts.input.as_deref().unwrap_or_else(|| bail("--input"));
    let mut input = match std::fs::File::open(input_path) {
        Ok(f) => LineReader::new(BufReader::new(f)),
        Err(e) => fail(format!("cannot read {input_path}: {e}")),
    };
    let recorder = Arc::new(RecordingSink::new());
    let serving = ServingModel::new(artifact)
        .with_unknown_policy(opts.unknown)
        .with_missing_policy(opts.missing)
        .with_sink(recorder.clone() as Arc<dyn TelemetrySink>);

    // The header is the first line that is not blank, as for every
    // `read_csv*` load.
    let (header_line, header): (usize, Vec<String>) = match next_line(&mut input, input_path) {
        Some((n, Ok(h))) => (n, h.split(',').map(|f| f.trim().to_owned()).collect()),
        Some((_, Err(e))) => fail(format!("{input_path}: header is not valid UTF-8: {e}")),
        None => fail(format!("{input_path} has no header row")),
    };
    let map = match serving.reconcile_header(&header) {
        Ok(m) => m,
        Err(e) => fail(e),
    };
    eprintln!(
        "reconciled header: {} columns ({} missing, {} extra), \
         unknown-policy {}, missing-policy {}",
        header.len(),
        map.n_missing(),
        map.n_extra(),
        opts.unknown.name(),
        opts.missing.name(),
    );

    let mut sink: Box<dyn Write> = match &opts.out {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Box::new(std::io::BufWriter::new(f)),
            Err(e) => fail(format!("cannot create {path}: {e}")),
        },
        None => Box::new(std::io::BufWriter::new(std::io::stdout())),
    };
    let (mut n_records, mut n_positive, mut n_abstained, mut n_errors) = (0u64, 0u64, 0u64, 0u64);
    // Row `i` is the `i`-th line after the header, blank lines included.
    while let Some((n, line)) = next_line(&mut input, input_path) {
        let i = n - header_line - 1;
        let scored = match line {
            Ok(line) => {
                let fields: Vec<&str> = line.split(',').map(str::trim).collect();
                serving.score_fields(&fields, &map)
            }
            Err(e) => {
                serving.record_structural_quarantine();
                Err(RecordError::Structural {
                    detail: format!("line is not valid UTF-8: {e}"),
                })
            }
        };
        n_records += 1;
        let written = match scored {
            Ok(rec) => {
                if rec.decision {
                    n_positive += 1;
                }
                if rec.abstained {
                    n_abstained += 1;
                }
                writeln!(
                    sink,
                    "{{\"row\":{i},\"score\":{},\"decision\":{},\"abstained\":{},\
                     \"unknown_values\":{},\"p_rule\":{},\"n_rule\":{}}}",
                    rec.score,
                    rec.decision,
                    rec.abstained,
                    rec.unknown_values,
                    rec.trace
                        .p_rule
                        .map_or("null".to_string(), |p| p.to_string()),
                    rec.trace
                        .n_rule
                        .map_or("null".to_string(), |n| n.to_string()),
                )
            }
            Err(e) => {
                n_errors += 1;
                let mut error = String::new();
                serde_json::write_escaped(&e.to_string(), &mut error);
                writeln!(
                    sink,
                    "{{\"row\":{i},\"error\":{error},\"kind\":\"{}\"}}",
                    e.kind()
                )
            }
        };
        if let Err(e) = written {
            fail(format!("cannot write output: {e}"));
        }
    }
    if let Err(e) = sink.flush() {
        fail(format!("cannot write output: {e}"));
    }
    eprintln!(
        "serving report: {n_records} record(s): rows_scored={} rows_quarantined={} \
         unseen_category_hits={} nan_numeric_hits={} \
         | {n_positive} positive, {n_abstained} abstained, {n_errors} not scored",
        recorder.value(Counter::RowsScored),
        recorder.value(Counter::RowsQuarantined),
        recorder.value(Counter::UnseenCategoryHits),
        recorder.value(Counter::NanNumericHits),
    );
}
