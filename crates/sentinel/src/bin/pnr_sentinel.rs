//! `pnr-sentinel` — drift monitor + refit supervisor for `pnr-serve`.
//!
//! ```text
//! pnr-sentinel --model <artifact> (--addr <host:port> | --addr-file <path>)
//!              [--target-class dos] [--poll-ms 500] [--max-polls 60]
//!              [--window-rows 2000] [--seed 7]
//!              [--schedule step:K|ramp:S:E|recur:P|none]
//!              [--out-dir .] [--max-attempts 3] [--recall-tolerance 0.05]
//!              [--min-window-rows 50] [--corrupt-artifacts]
//! ```
//!
//! Polls the daemon's `stats` every `--poll-ms`, differences successive
//! snapshots into per-window rates, and runs the drift detector. On a
//! `refit` verdict it draws a labeled refit window from the same
//! deterministic [`DriftStream`](pnr_kddsim::DriftStream) the load
//! generator replays (`--seed`/`--schedule` must match), advanced to the
//! daemon's current row position, and hands it to the refit supervisor:
//! budgeted fit, held-back validation, lineage stamp,
//! hot-swap publish with bounded seeded-jitter retry, degraded-mode
//! fallback after `--max-attempts` failures.
//!
//! `--corrupt-artifacts` deliberately corrupts every candidate before
//! publication — the CI rollback drill: the daemon must reject each one
//! and keep serving last-known-good.
//!
//! Emits NDJSON on stdout: one `{"record":"drift",...}` per poll and one
//! `{"record":"refit",...}` per refit episode.
//!
//! Exit codes: 0 on a completed watch, 1 for environment failures,
//! 2 for usage errors.

use pnr_core::retry::Backoff;
use pnr_sentinel::{
    supervise_refit, DaemonClient, DetectorConfig, DriftDetector, DriftVerdict, RefitOutcome,
    SupervisorConfig, WindowDelta,
};
use pnr_serve::protocol::{object_line, Mode};
use pnr_telemetry::{Counter, RecordingSink, TelemetrySink};
use serde::Content;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: pnr-sentinel --model <artifact> \
(--addr <host:port> | --addr-file <path>) [--target-class C] [--poll-ms N] \
[--max-polls N] [--window-rows N] [--seed N] \
[--schedule step:K|ramp:S:E|recur:P|none] [--out-dir D] [--max-attempts N] \
[--recall-tolerance p] [--min-window-rows N] [--corrupt-artifacts]";

fn bail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(pnr_core::exit::USAGE as u8)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(pnr_core::exit::DATA_FAILURE as u8)
}

struct Options {
    model: Option<PathBuf>,
    addr: Option<String>,
    addr_file: Option<PathBuf>,
    target_class: String,
    poll_ms: u64,
    max_polls: u32,
    window_rows: usize,
    seed: u64,
    schedule: Option<pnr_kddsim::DriftSchedule>,
    out_dir: PathBuf,
    max_attempts: u32,
    recall_tolerance: f64,
    min_window_rows: u64,
    corrupt_artifacts: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        model: None,
        addr: None,
        addr_file: None,
        target_class: "dos".to_string(),
        poll_ms: 500,
        max_polls: 60,
        window_rows: 2_000,
        seed: 7,
        schedule: None,
        out_dir: PathBuf::from("."),
        max_attempts: 3,
        recall_tolerance: 0.05,
        min_window_rows: 50,
        corrupt_artifacts: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--model" => match args.next() {
                Some(v) => o.model = Some(PathBuf::from(v)),
                None => return Err("--model needs a path".to_string()),
            },
            "--addr" => match args.next() {
                Some(v) => o.addr = Some(v),
                None => return Err("--addr needs host:port".to_string()),
            },
            "--addr-file" => match args.next() {
                Some(v) => o.addr_file = Some(PathBuf::from(v)),
                None => return Err("--addr-file needs a path".to_string()),
            },
            "--target-class" => match args.next() {
                Some(v) => o.target_class = v,
                None => return Err("--target-class needs a class name".to_string()),
            },
            "--poll-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 => o.poll_ms = n,
                _ => return Err("--poll-ms needs a positive integer".to_string()),
            },
            "--max-polls" => match args.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) if n > 0 => o.max_polls = n,
                _ => return Err("--max-polls needs a positive integer".to_string()),
            },
            "--window-rows" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => o.window_rows = n,
                _ => return Err("--window-rows needs a positive integer".to_string()),
            },
            "--seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => o.seed = n,
                None => return Err("--seed needs an integer".to_string()),
            },
            "--schedule" => match args
                .next()
                .as_deref()
                .and_then(pnr_kddsim::DriftSchedule::parse)
            {
                Some(s) => o.schedule = Some(s),
                None => {
                    return Err("--schedule must be step:K, ramp:S:E, recur:P or none".to_string())
                }
            },
            "--out-dir" => match args.next() {
                Some(v) => o.out_dir = PathBuf::from(v),
                None => return Err("--out-dir needs a directory".to_string()),
            },
            "--max-attempts" => match args.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) if n > 0 => o.max_attempts = n,
                _ => return Err("--max-attempts needs a positive integer".to_string()),
            },
            "--recall-tolerance" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(p) if (0.0..=1.0).contains(&p) => o.recall_tolerance = p,
                _ => return Err("--recall-tolerance needs a number in [0,1]".to_string()),
            },
            "--min-window-rows" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => o.min_window_rows = n,
                None => return Err("--min-window-rows needs an integer".to_string()),
            },
            "--corrupt-artifacts" => o.corrupt_artifacts = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.model.is_none() {
        return Err("--model is required".to_string());
    }
    if o.addr.is_none() && o.addr_file.is_none() {
        return Err("one of --addr or --addr-file is required".to_string());
    }
    Ok(o)
}

/// Resolves the daemon address, waiting (bounded) for an addr file the
/// daemon has not written yet.
fn resolve_addr(o: &Options) -> Result<String, String> {
    if let Some(addr) = &o.addr {
        return Ok(addr.clone());
    }
    let path = o.addr_file.as_ref().ok_or("no address source")?;
    pnr_serve::read_addr_file(path)
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => return bail(&e),
    };
    match watch(&opts) {
        Ok(()) => ExitCode::from(pnr_core::exit::OK as u8),
        Err(e) => fail(&e),
    }
}

fn watch(opts: &Options) -> Result<(), String> {
    let model = opts.model.as_ref().ok_or("--model is required")?;
    let addr = resolve_addr(opts)?;
    let backoff = Backoff::new(10, Duration::from_millis(100), Duration::from_secs(2))
        .with_jitter_seed(opts.seed);
    let mut client = DaemonClient::connect(&addr, &backoff)?;
    let sink: Arc<dyn TelemetrySink> = Arc::new(RecordingSink::new());
    let mut detector = DriftDetector::new(DetectorConfig {
        min_window_rows: opts.min_window_rows,
        ..DetectorConfig::default()
    });
    let mut sup_config = SupervisorConfig::new(&opts.out_dir);
    sup_config.backoff = Backoff::new(
        opts.max_attempts,
        Duration::from_millis(100),
        Duration::from_secs(2),
    )
    .with_jitter_seed(opts.seed ^ 0x5e47_14e1);
    sup_config.refit.recall_tolerance = opts.recall_tolerance;
    sup_config.corrupt_artifacts = opts.corrupt_artifacts;

    // the labeled window source: same seed + schedule as the loadgen's
    // traffic stream, so window rows mirror what the daemon is seeing
    let schedule = opts
        .schedule
        .clone()
        .unwrap_or(pnr_kddsim::DriftSchedule::Constant(pnr_kddsim::train_mix()));
    let mut stream = pnr_kddsim::DriftStream::new(opts.seed, schedule);

    let mut lkg = model.clone();
    let mut previous = client.stats()?;
    let mut window_id = 0u64;
    for poll in 0..opts.max_polls {
        std::thread::sleep(Duration::from_millis(opts.poll_ms));
        let snapshot = client.stats()?;
        let delta = WindowDelta::between(&previous, &snapshot);
        let verdict = detector.observe(&delta, &sink);
        println!("{}", drift_record(poll, &delta, verdict, snapshot.mode));
        previous = snapshot;
        if verdict != DriftVerdict::Refit {
            continue;
        }
        window_id += 1;
        // march the stream up to the daemon's position so the refit
        // window reflects post-shift traffic, then draw the window
        let served =
            usize::try_from(previous.counters.get(Counter::RowsScored)).unwrap_or(usize::MAX);
        if served > stream.position() + opts.window_rows {
            stream.skip(served - stream.position() - opts.window_rows);
        }
        let window = stream.next_chunk(opts.window_rows);
        let outcome = supervise_refit(
            &window,
            &opts.target_class,
            &lkg,
            window_id,
            &mut client,
            &sup_config,
            &sink,
        )?;
        println!("{}", refit_record(window_id, &outcome));
        if let RefitOutcome::Published { path, .. } = outcome {
            lkg = path;
        }
    }
    Ok(())
}

/// The NDJSON record for one poll.
fn drift_record(poll: u32, delta: &WindowDelta, verdict: DriftVerdict, mode: Mode) -> String {
    object_line([
        ("record", Content::Str("drift".to_string())),
        ("poll", Content::U64(u64::from(poll))),
        ("rows", Content::U64(delta.rows)),
        ("positive_rate", Content::F64(delta.positive_rate())),
        ("quarantine_rate", Content::F64(delta.quarantine_rate())),
        ("verdict", Content::Str(verdict.name().to_string())),
        ("mode", Content::Str(mode.name().to_string())),
    ])
}

/// The NDJSON record for one refit episode.
fn refit_record(window_id: u64, outcome: &RefitOutcome) -> String {
    match outcome {
        RefitOutcome::Published {
            path,
            epoch,
            parent_checksum,
            eval,
            attempts,
        } => object_line([
            ("record", Content::Str("refit".to_string())),
            ("outcome", Content::Str("published".to_string())),
            ("window_id", Content::U64(window_id)),
            ("parent_checksum", Content::Str(parent_checksum.clone())),
            ("epoch", Content::U64(*epoch)),
            ("attempts", Content::U64(u64::from(*attempts))),
            ("candidate_recall", Content::F64(eval.candidate_recall)),
            ("baseline_recall", Content::F64(eval.baseline_recall)),
            ("path", Content::Str(path.display().to_string())),
        ]),
        RefitOutcome::Degraded {
            attempts,
            last_error,
        } => object_line([
            ("record", Content::Str("refit".to_string())),
            ("outcome", Content::Str("degraded".to_string())),
            ("window_id", Content::U64(window_id)),
            ("attempts", Content::U64(u64::from(*attempts))),
            ("last_error", Content::Str(last_error.clone())),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_stay_valid_json_for_any_path_or_error() {
        let eval = pnr_core::RefitEval {
            candidate_recall: 0.9,
            baseline_recall: 0.5,
            train_rows: 10,
            holdout_rows: 5,
            holdout_targets: 2,
        };
        let path = PathBuf::from("out \"dir\"\\win\\refit-w1-a1.artifact");
        let published = RefitOutcome::Published {
            path: path.clone(),
            epoch: 2,
            parent_checksum: "1122334455667788".to_string(),
            eval,
            attempts: 1,
        };
        let line = refit_record(1, &published);
        assert!(
            line.starts_with("{\"record\":\"refit\",\"outcome\":\"published\","),
            "{line}"
        );
        assert!(line.contains("\"parent_checksum\":\""), "{line}");
        let v = serde_json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(
            v.get("path"),
            Some(&Content::Str(path.display().to_string()))
        );

        let degraded = RefitOutcome::Degraded {
            attempts: 3,
            last_error: "attempt 3: \"swap_failed\"\n".to_string(),
        };
        assert!(serde_json::parse(&refit_record(2, &degraded)).is_ok());

        let delta = WindowDelta {
            rows: 10,
            positives: 3,
            quarantined: 0,
            score_mean: None,
        };
        let line = drift_record(4, &delta, DriftVerdict::Warn, Mode::Degraded);
        assert!(line.contains("\"mode\":\"degraded\""), "{line}");
        assert!(serde_json::parse(&line).is_ok(), "{line}");
    }
}
