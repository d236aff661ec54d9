//! `pnr-loadgen` — traffic driver and artifact trainer for `pnr-serve`.
//!
//! ```text
//! pnr-loadgen train --out <artifact> [--rows 2000] [--seed 7]
//! pnr-loadgen run --addr <host:port> [--requests 100] [--batch 16]
//!             [--qps 200] [--seed 7] [--malformed-rate p] [--drift-rate p]
//!             [--mix-schedule step:K|ramp:S:E|recur:P|none]
//!             [--deadline-ms N] [--swap <artifact>] [--panic-mid-run]
//!             [--shutdown]
//! ```
//!
//! `train` fits the same tiny dos-vs-rest KDD-simulation model the test
//! suites use and saves it as an artifact, so a daemon can be stood up
//! without a separate training pipeline.
//!
//! `run` opens one connection, declares the KDD header, and drives
//! paced `score` batches built from the shared [`FaultInjector`] traffic
//! source (`--malformed-rate` / `--drift-rate` match `kdd_csv` exactly).
//! `--mix-schedule` replaces the recycled training rows with a
//! [`DriftStream`](pnr_kddsim::DriftStream): a scheduled mid-run class-
//! mix shift — a step at row K, a linear ramp over rows S..E, or a
//! recurring cycle — reproducible from `--seed` alone, so the drift
//! sentinel's detection lag can be measured against a known shift row.
//! Half-way through it can hot-swap the daemon (`--swap`) and/or inject
//! a worker panic (`--panic-mid-run`). It reports client-side latency
//! percentiles, a traffic census, and the daemon's own `stats` reply as
//! NDJSON on stdout; `--shutdown` ends with a graceful drain request.
//!
//! Exit codes: 0 on a completed run, 1 for connection/model failures,
//! 2 for usage errors.

use pnr_data::LineReader;
use pnr_kddsim::{row_fields, FaultInjector, ATTR_NAMES};
use pnr_serve::protocol::{fields, object_line};
use pnr_serve::{LatencyHistogram, Request};
use serde::Content;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: pnr-loadgen train --out <artifact> [--rows N] [--seed N]\n\
       pnr-loadgen run (--addr <host:port> | --addr-file <path>) [--requests N] \
[--batch N] [--qps N] [--seed N] [--malformed-rate p] [--drift-rate p] \
[--mix-schedule step:K|ramp:S:E|recur:P|none] [--deadline-ms N] \
[--swap <artifact>] [--panic-mid-run] [--shutdown]";

fn bail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(pnr_core::exit::USAGE as u8)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(pnr_core::exit::DATA_FAILURE as u8)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("train") => train(args),
        Some("run") => run(args),
        _ => bail("first argument must be `train` or `run`"),
    }
}

fn train(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut out: Option<PathBuf> = None;
    let mut rows = 2_000usize;
    let mut seed = 7u64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(v) => out = Some(PathBuf::from(v)),
                None => return bail("--out needs a path"),
            },
            "--rows" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => rows = n,
                _ => return bail("--rows needs a positive integer"),
            },
            "--seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => seed = n,
                None => return bail("--seed needs an integer"),
            },
            other => return bail(&format!("unknown train argument {other:?}")),
        }
    }
    let Some(out) = out else {
        return bail("train requires --out");
    };
    let data = pnr_kddsim::generate_train(rows, seed);
    let Some(target) = data.class_code("dos") else {
        return fail("generated dataset has no `dos` class");
    };
    let params = pnr_core::PnruleParams::default();
    let (model, report) =
        pnr_core::PnruleLearner::new(params.clone()).fit_with_report(&data, target);
    let artifact = match pnr_core::ModelArtifact::new(model, params, report, data.schema().clone())
    {
        Ok(a) => a,
        Err(e) => return fail(&format!("cannot build artifact: {e}")),
    };
    if let Err(e) = artifact.save(&out) {
        return fail(&format!("cannot save artifact: {e}"));
    }
    eprintln!(
        "trained target `dos` on {rows} rows (seed {seed}); wrote {}",
        out.display()
    );
    ExitCode::from(pnr_core::exit::OK as u8)
}

struct RunOptions {
    addr: String,
    addr_file: Option<String>,
    requests: usize,
    batch: usize,
    qps: f64,
    seed: u64,
    malformed_rate: f64,
    drift_rate: f64,
    schedule: Option<pnr_kddsim::DriftSchedule>,
    deadline_ms: Option<u64>,
    swap: Option<String>,
    panic_mid_run: bool,
    shutdown: bool,
}

/// Tallies of the typed responses a run received.
#[derive(Default)]
struct RunReport {
    score_ok: u64,
    rows_scored: u64,
    row_errors: u64,
    shed: u64,
    deadline_exceeded: u64,
    worker_panic: u64,
    swap_ok: u64,
    swap_failed: u64,
    other_errors: u64,
    stats_line: Option<String>,
}

fn run(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut opts = RunOptions {
        addr: String::new(),
        addr_file: None,
        requests: 100,
        batch: 16,
        qps: 200.0,
        seed: 7,
        malformed_rate: 0.0,
        drift_rate: 0.0,
        schedule: None,
        deadline_ms: None,
        swap: None,
        panic_mid_run: false,
        shutdown: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(v) => opts.addr = v,
                None => return bail("--addr needs host:port"),
            },
            "--addr-file" => match args.next() {
                Some(v) => opts.addr_file = Some(v),
                None => return bail("--addr-file needs a path"),
            },
            "--requests" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => opts.requests = n,
                _ => return bail("--requests needs a positive integer"),
            },
            "--batch" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => opts.batch = n,
                _ => return bail("--batch needs a positive integer"),
            },
            "--qps" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(q) if q > 0.0 => opts.qps = q,
                _ => return bail("--qps needs a positive number"),
            },
            "--seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => opts.seed = n,
                None => return bail("--seed needs an integer"),
            },
            "--malformed-rate" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(p) => opts.malformed_rate = p,
                None => return bail("--malformed-rate needs a number"),
            },
            "--drift-rate" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(p) => opts.drift_rate = p,
                None => return bail("--drift-rate needs a number"),
            },
            "--mix-schedule" => match args
                .next()
                .as_deref()
                .and_then(pnr_kddsim::DriftSchedule::parse)
            {
                Some(s) => opts.schedule = Some(s),
                None => return bail("--mix-schedule must be step:K, ramp:S:E, recur:P or none"),
            },
            "--deadline-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => opts.deadline_ms = Some(n),
                None => return bail("--deadline-ms needs a non-negative integer"),
            },
            "--swap" => match args.next() {
                Some(v) => opts.swap = Some(v),
                None => return bail("--swap needs an artifact path"),
            },
            "--panic-mid-run" => opts.panic_mid_run = true,
            "--shutdown" => opts.shutdown = true,
            other => return bail(&format!("unknown run argument {other:?}")),
        }
    }
    if opts.addr.is_empty() {
        // a daemon started with --addr-file on port 0 publishes its bound
        // address there; wait for it so launch order does not matter
        let Some(path) = &opts.addr_file else {
            return bail("run requires --addr or --addr-file");
        };
        match pnr_serve::read_addr_file(Path::new(path)) {
            Ok(addr) => opts.addr = addr,
            Err(e) => return fail(&e),
        }
    }
    // validate rates before touching the network
    let injector = match FaultInjector::new(opts.seed, opts.malformed_rate, opts.drift_rate) {
        Ok(i) => i,
        Err(e) => return bail(&e),
    };
    match drive(&opts, injector) {
        Ok(()) => ExitCode::from(pnr_core::exit::OK as u8),
        Err(e) => fail(&e),
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn drive(opts: &RunOptions, mut injector: FaultInjector) -> Result<(), String> {
    let stream =
        TcpStream::connect(&opts.addr).map_err(|e| format!("cannot connect {}: {e}", opts.addr))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| format!("cannot set read timeout: {e}"))?;
    let mut write_half = stream
        .try_clone()
        .map_err(|e| format!("cannot clone stream: {e}"))?;
    let mut lines = LineReader::new(BufReader::new(stream));

    // handshake: declare the KDD header, lockstep
    let hello = Request::Hello {
        columns: ATTR_NAMES.iter().map(|c| c.to_string()).collect(),
    };
    writeln!(write_half, "{}", hello.to_line()).map_err(|e| format!("hello write failed: {e}"))?;
    let reply = read_reply(&mut lines, Instant::now() + Duration::from_secs(10))?
        .ok_or("daemon closed the connection during hello")?;
    let parsed = serde_json::parse(&reply).map_err(|e| format!("bad hello reply: {e}"))?;
    if parsed.get("ok") != Some(&Content::Bool(true)) {
        return Err(format!("hello rejected: {reply}"));
    }

    // traffic source shared with kdd_csv: generated rows + fault injector
    let data = pnr_kddsim::generate_train(2_000, opts.seed);
    let numeric: Vec<usize> = (0..data.schema().n_attrs())
        .filter(|&i| data.schema().attr(i).is_numeric())
        .collect();
    let categorical: Vec<usize> = (0..data.schema().n_attrs())
        .filter(|&i| !data.schema().attr(i).is_numeric())
        .collect();

    let send_times: Arc<Mutex<Vec<Option<Instant>>>> =
        Arc::new(Mutex::new(vec![None; opts.requests]));
    let hist = Arc::new(LatencyHistogram::new());
    let sent = Arc::new(AtomicU64::new(0));

    // Sender paces writes on its own thread so the reader below can keep
    // draining responses — in-flight depth is bounded by the daemon's
    // queue, not by lockstep round trips.
    let sender = {
        let send_times = send_times.clone();
        let sent = sent.clone();
        let requests = opts.requests;
        let batch = opts.batch;
        let gap = Duration::from_secs_f64(1.0 / opts.qps);
        let deadline_ms = opts.deadline_ms;
        let swap = opts.swap.clone();
        let panic_mid_run = opts.panic_mid_run;
        let shutdown = opts.shutdown;
        let schedule = opts.schedule.clone();
        let seed = opts.seed;
        let n_rows = data.n_rows();
        std::thread::spawn(move || -> (pnr_kddsim::FaultCensus, Result<(), String>) {
            // with a schedule the rows come from a DriftStream whose mix
            // evolves with the row index; without one, the static
            // training rows are recycled as before
            let mut stream = schedule.map(|s| pnr_kddsim::DriftStream::new(seed, s));
            let start = Instant::now();
            let halfway = requests / 2;
            for i in 0..requests {
                let target = start + gap.mul_f64(i as f64);
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                let rows: Vec<Vec<String>> = match stream.as_mut() {
                    Some(stream) => {
                        let chunk = stream.next_chunk(batch);
                        (0..chunk.n_rows())
                            .map(|r| {
                                let mut fields = row_fields(&chunk, r);
                                injector.inject(&mut fields, &numeric, &categorical);
                                fields
                            })
                            .collect()
                    }
                    None => (0..batch)
                        .map(|j| {
                            let mut fields = row_fields(&data, (i * batch + j) % n_rows);
                            injector.inject(&mut fields, &numeric, &categorical);
                            fields
                        })
                        .collect(),
                };
                let line = Request::Score {
                    id: format!("r{i}"),
                    rows,
                    deadline_ms,
                }
                .to_line();
                lock(&send_times)[i] = Some(Instant::now());
                if let Err(e) = writeln!(write_half, "{line}") {
                    return (*injector.census(), Err(format!("write failed: {e}")));
                }
                sent.fetch_add(1, Ordering::SeqCst);
                if i == halfway {
                    if let Some(path) = &swap {
                        let swap_line = Request::Swap { path: path.clone() }.to_line();
                        if let Err(e) = writeln!(write_half, "{swap_line}") {
                            return (*injector.census(), Err(format!("swap write failed: {e}")));
                        }
                    }
                    if panic_mid_run
                        && writeln!(write_half, "{}", Request::Panic.to_line()).is_err()
                    {
                        return (*injector.census(), Err("panic write failed".to_string()));
                    }
                }
            }
            if writeln!(write_half, "{}", Request::Stats.to_line()).is_err() {
                return (*injector.census(), Err("stats write failed".to_string()));
            }
            if shutdown && writeln!(write_half, "{}", Request::Shutdown.to_line()).is_err() {
                return (*injector.census(), Err("shutdown write failed".to_string()));
            }
            (*injector.census(), Ok(()))
        })
    };

    // every score gets exactly one reply; plus swap, panic, stats, shutdown
    let expected = opts.requests
        + usize::from(opts.swap.is_some())
        + usize::from(opts.panic_mid_run)
        + 1
        + usize::from(opts.shutdown);
    let mut report = RunReport::default();
    let wall_deadline = Instant::now() + Duration::from_secs(120);
    let mut received = 0usize;
    while received < expected {
        match read_reply(&mut lines, wall_deadline)? {
            Some(line) => {
                received += 1;
                tally(&line, &mut report, &send_times, &hist);
            }
            None => break, // EOF: daemon drained or connection lost
        }
    }
    let (census, send_result) = sender.join().unwrap_or_else(|_| {
        (
            pnr_kddsim::FaultCensus::default(),
            Err("sender thread panicked".to_string()),
        )
    });
    send_result?;
    if received < expected {
        return Err(format!(
            "connection closed after {received}/{expected} replies"
        ));
    }

    // the run report, NDJSON on stdout
    println!(
        "{{\"record\":\"loadgen\",\"requests\":{},\"score_ok\":{},\"rows_scored\":{},\
         \"row_errors\":{},\"shed\":{},\"deadline_exceeded\":{},\"worker_panic\":{},\
         \"swap_ok\":{},\"swap_failed\":{},\"other_errors\":{}}}",
        opts.requests,
        report.score_ok,
        report.rows_scored,
        report.row_errors,
        report.shed,
        report.deadline_exceeded,
        report.worker_panic,
        report.swap_ok,
        report.swap_failed,
        report.other_errors,
    );
    println!(
        "{{\"record\":\"traffic\",\"clean\":{},\"truncated\":{},\"unparsable\":{},\
         \"unseen\":{},\"non_finite\":{}}}",
        census.clean_rows,
        census.truncated_rows,
        census.unparsable_numerics,
        census.unseen_categories,
        census.non_finite_numerics,
    );
    let latency = [("record", "latency"), ("kind", "client_request")]
        .map(|(k, v)| (k.to_string(), Content::Str(v.to_string())));
    let summary = fields(&hist.summary());
    println!("{}", object_line(latency.into_iter().chain(summary)));
    if let Some(stats) = &report.stats_line {
        println!("{stats}");
    }
    eprintln!("{}", census.summary());
    Ok(())
}

/// Reads one complete response line, tolerating read timeouts (the
/// reader keeps a line a timeout cut, even inside a character).
/// `Ok(None)` on EOF; a line that is not UTF-8 is an error.
fn read_reply(
    lines: &mut LineReader<BufReader<TcpStream>>,
    deadline: Instant,
) -> Result<Option<String>, String> {
    loop {
        match lines.next_line() {
            Ok(None) => return Ok(None),
            Ok(Some((_, Ok(line)))) => return Ok(Some(line.trim().to_string())),
            Ok(Some((_, Err(e)))) => return Err(format!("reply line is not UTF-8: {e}")),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if Instant::now() > deadline {
                    return Err("timed out waiting for daemon replies".to_string());
                }
            }
            Err(e) => return Err(format!("read failed: {e}")),
        }
    }
}

fn tally(
    line: &str,
    report: &mut RunReport,
    send_times: &Mutex<Vec<Option<Instant>>>,
    hist: &LatencyHistogram,
) {
    let Ok(v) = serde_json::parse(line) else {
        report.other_errors += 1;
        return;
    };
    // client-side latency: match the echoed id back to its send time
    if let Some(Content::Str(id)) = v.get("id") {
        if let Some(k) = id.strip_prefix('r').and_then(|k| k.parse::<usize>().ok()) {
            let mut times = lock(send_times);
            if let Some(t0) = times.get_mut(k).and_then(Option::take) {
                hist.record_ns(t0.elapsed().as_nanos() as u64);
            }
        }
    }
    if v.get("ok") == Some(&Content::Bool(true)) {
        match v.get("reply") {
            Some(Content::Str(r)) if r == "score" => {
                report.score_ok += 1;
                if let Some(Content::U64(n)) = v.get("scored") {
                    report.rows_scored += n;
                }
                if let Some(Content::U64(n)) = v.get("errors") {
                    report.row_errors += n;
                }
            }
            Some(Content::Str(r)) if r == "swap" => report.swap_ok += 1,
            Some(Content::Str(r)) if r == "stats" => report.stats_line = Some(line.to_string()),
            _ => {}
        }
        return;
    }
    match v.get("error") {
        Some(Content::Str(e)) if e == "worker_panic" => report.worker_panic += 1,
        Some(Content::Str(e)) if e == "deadline_exceeded" => report.deadline_exceeded += 1,
        Some(Content::Str(e)) if e == "queue_full" || e == "shed" || e == "shutting_down" => {
            report.shed += 1
        }
        Some(Content::Str(e)) if e == "swap_failed" => report.swap_failed += 1,
        _ => report.other_errors += 1,
    }
}
