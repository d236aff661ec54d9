//! Fault-injection integration suite for the scoring daemon: hot-swap
//! under sustained load, worker panics, corrupt swaps, backpressure,
//! deadlines, graceful drain, kill -9 recovery, and the serving-binary
//! exit-code convention — all driven over the real TCP protocol against
//! real `pnr-serve` / `pnr-loadgen` processes.

use pnr_serve::protocol::{Mode, Request, Stats};
use pnr_telemetry::Counter;
use serde::Content;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pnr_daemon_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Trains a tiny dos-vs-rest artifact (the same model every CLI test
/// uses) and saves it under `dir`.
fn make_artifact(dir: &Path, name: &str, seed: u64) -> PathBuf {
    let train = pnr_kddsim::generate_train(800, seed);
    let target = train.class_code("dos").unwrap();
    let params = pnr_core::PnruleParams::default();
    let (model, report) =
        pnr_core::PnruleLearner::new(params.clone()).fit_with_report(&train, target);
    let artifact =
        pnr_core::ModelArtifact::new(model, params, report, train.schema().clone()).unwrap();
    let path = dir.join(name);
    artifact.save(&path).unwrap();
    path
}

struct Daemon {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts `pnr-serve` with `args` and waits for its listening line.
    fn start(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pnr-serve"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        let addr = line
            .trim()
            .strip_prefix("pnr-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
            .to_string();
        Daemon {
            child,
            addr,
            stdout,
        }
    }

    /// Waits for exit and returns (exit code, remaining stdout).
    fn wait(mut self) -> (Option<i32>, String) {
        let status = self.child.wait().unwrap();
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.stdout, &mut rest).unwrap();
        (status.code(), rest)
    }

    fn kill9(mut self) {
        self.child.kill().unwrap(); // SIGKILL on unix
        self.child.wait().unwrap();
    }
}

/// A test that fails before its daemon exits must not leave the process
/// running. After `wait` or `kill9` the child is reaped, and `kill` on a
/// reaped child sends no signal.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
    }

    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        assert!(!line.is_empty(), "daemon closed the connection");
        line.trim().to_string()
    }

    fn recv(&mut self) -> Content {
        let line = self.recv_line();
        serde_json::parse(&line).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
    }

    fn request(&mut self, line: &str) -> Content {
        self.send(line);
        self.recv()
    }

    /// Sends `stats` and decodes the reply.
    fn stats(&mut self) -> Stats {
        self.send(&Request::Stats.to_line());
        let line = self.recv_line();
        Stats::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"))
    }

    /// Declares the KDD header; returns the hello reply.
    fn hello(&mut self) -> Content {
        let columns: Vec<String> = pnr_kddsim::ATTR_NAMES
            .iter()
            .map(|c| format!("\"{c}\""))
            .collect();
        let reply = self.request(&format!(
            "{{\"cmd\":\"hello\",\"columns\":[{}]}}",
            columns.join(",")
        ));
        assert!(is_ok(&reply), "{reply:?}");
        reply
    }

    /// Builds a `score` line with `batch` clean rows from `data`.
    fn score_line(data: &pnr_data::Dataset, id: usize, batch: usize) -> String {
        let rows: Vec<String> = (0..batch)
            .map(|j| {
                let fields = pnr_kddsim::row_fields(data, (id * batch + j) % data.n_rows());
                let quoted: Vec<String> = fields.iter().map(|f| format!("\"{f}\"")).collect();
                format!("[{}]", quoted.join(","))
            })
            .collect();
        format!(
            "{{\"cmd\":\"score\",\"id\":\"r{id}\",\"rows\":[{}]}}",
            rows.join(",")
        )
    }
}

fn is_ok(v: &Content) -> bool {
    v.get("ok") == Some(&Content::Bool(true))
}

fn ju64(v: &Content, key: &str) -> u64 {
    match v.get(key) {
        Some(Content::U64(n)) => *n,
        other => panic!("no u64 {key}: {other:?}"),
    }
}

fn jstr<'a>(v: &'a Content, key: &str) -> &'a str {
    match v.get(key) {
        Some(Content::Str(s)) => s,
        other => panic!("no string {key}: {other:?}"),
    }
}

#[test]
fn hot_swap_under_load_drops_and_misroutes_nothing() {
    let dir = temp_dir("swapload");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let a2 = make_artifact(&dir, "a2.artifact", 11);
    let daemon = Daemon::start(&["--model", a1.to_str().unwrap(), "--workers", "4"]);
    let data = pnr_kddsim::generate_train(400, 3);

    let mut client = Client::connect(&daemon.addr);
    client.hello();

    // a second connection swaps the model 3 times while traffic runs;
    // swaps fire at fixed request milestones so the interleaving is
    // deterministic regardless of machine speed
    let mut ctl = Client::connect(&daemon.addr);
    let swaps = [(50usize, &a2), (100, &a1), (150, &a2)];

    const REQUESTS: usize = 200;
    const BATCH: usize = 4;
    let mut epochs_seen = [0u64; 8];
    for i in 0..REQUESTS {
        if let Some(pos) = swaps.iter().position(|(at, _)| *at == i) {
            let reply = ctl.request(&format!(
                "{{\"cmd\":\"swap\",\"path\":\"{}\"}}",
                swaps[pos].1.display()
            ));
            assert!(is_ok(&reply), "swap {pos}: {reply:?}");
            assert_eq!(ju64(&reply, "epoch"), pos as u64 + 2);
        }
        let reply = client.request(&Client::score_line(&data, i, BATCH));
        assert!(is_ok(&reply), "request {i}: {reply:?}");
        assert_eq!(jstr(&reply, "id"), format!("r{i}"), "no misrouted reply");
        // zero dropped or misrouted records: every row of every batch
        // scores cleanly against whichever epoch served it
        assert_eq!(
            ju64(&reply, "scored"),
            BATCH as u64,
            "request {i}: {reply:?}"
        );
        assert_eq!(ju64(&reply, "errors"), 0, "request {i}: {reply:?}");
        let epoch = ju64(&reply, "epoch") as usize;
        assert!((1..=4).contains(&epoch), "request {i}: epoch {epoch}");
        epochs_seen[epoch] += 1;
    }
    assert!(
        epochs_seen[1] > 0 && epochs_seen.iter().skip(2).sum::<u64>() > 0,
        "traffic spanned the swaps: {epochs_seen:?}"
    );

    // per-epoch accounting: every request landed in exactly one epoch
    let stats = client.stats();
    assert_eq!(stats.counters.get(Counter::RequestsServed), REQUESTS as u64);
    assert_eq!(stats.counters.get(Counter::RequestsShed), 0);
    assert_eq!(stats.counters.get(Counter::WorkerPanics), 0);
    assert_eq!(stats.counters.get(Counter::ModelSwaps), 3);
    assert_eq!(stats.counters.get(Counter::SwapFailures), 0);
    assert_eq!(stats.epochs.len(), 4, "one entry per published epoch");
    let total: u64 = stats.epochs.iter().map(|e| e.served).sum();
    assert_eq!(total, REQUESTS as u64, "per-epoch counts sum to the total");
    for (slot, e) in stats.epochs.iter().enumerate() {
        assert_eq!(e.epoch, slot as u64 + 1);
        assert_eq!(e.served, epochs_seen[slot + 1], "epoch {}", slot + 1);
    }

    let reply = client.request("{\"cmd\":\"shutdown\"}");
    assert!(is_ok(&reply), "{reply:?}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_worker_panic_is_isolated_and_service_continues() {
    let dir = temp_dir("panic");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--workers",
        "2",
        "--enable-fault-injection",
    ]);
    let data = pnr_kddsim::generate_train(100, 3);
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    let reply = client.request(&Client::score_line(&data, 0, 4));
    assert!(is_ok(&reply), "{reply:?}");

    let reply = client.request("{\"cmd\":\"panic\"}");
    assert!(!is_ok(&reply));
    assert_eq!(jstr(&reply, "error"), "worker_panic");
    assert!(
        jstr(&reply, "detail").contains("injected fault"),
        "panic message captured: {reply:?}"
    );

    // the worker that caught the panic keeps serving
    for i in 1..10 {
        let reply = client.request(&Client::score_line(&data, i, 4));
        assert!(is_ok(&reply), "after panic, request {i}: {reply:?}");
    }
    let stats = client.stats();
    assert_eq!(stats.counters.get(Counter::WorkerPanics), 1);
    assert_eq!(stats.workers, 2, "pool capacity kept");
    // the panicked request still counts as answered
    assert_eq!(stats.counters.get(Counter::RequestsServed), 11);

    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_corrupt_swap_is_a_logged_no_op_with_zero_failed_requests() {
    let dir = temp_dir("corrupt");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    // two corruption shapes: truncated garbage and a flipped checksum
    let garbage = dir.join("garbage.artifact");
    std::fs::write(&garbage, "pnrule-artifact v9999 {").unwrap();
    let flipped = dir.join("flipped.artifact");
    let mut bytes = std::fs::read(&a1).unwrap();
    let last = bytes.len() - 2;
    bytes[last] = bytes[last].wrapping_add(1);
    std::fs::write(&flipped, &bytes).unwrap();

    let daemon = Daemon::start(&["--model", a1.to_str().unwrap()]);
    let data = pnr_kddsim::generate_train(100, 3);
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    for (k, bad) in [&garbage, &flipped, Path::new("/nonexistent/x.artifact")]
        .iter()
        .enumerate()
    {
        // traffic flows before, through, and after the failed swap
        let reply = client.request(&Client::score_line(&data, k, 4));
        assert!(is_ok(&reply), "{reply:?}");
        assert_eq!(ju64(&reply, "epoch"), 1, "old model keeps serving");

        let reply = client.request(&format!(
            "{{\"cmd\":\"swap\",\"path\":\"{}\"}}",
            bad.display()
        ));
        assert!(!is_ok(&reply), "corrupt swap {k} must fail: {reply:?}");
        assert_eq!(jstr(&reply, "error"), "swap_failed");

        let reply = client.request(&Client::score_line(&data, 100 + k, 4));
        assert!(is_ok(&reply), "{reply:?}");
        assert_eq!(ju64(&reply, "scored"), 4);
        assert_eq!(ju64(&reply, "errors"), 0, "zero failed requests");
    }

    let stats = client.stats();
    assert_eq!(stats.epoch, 1, "no epoch was published");
    assert_eq!(stats.counters.get(Counter::SwapFailures), 3);
    assert_eq!(stats.counters.get(Counter::ModelSwaps), 0);
    assert_eq!(stats.counters.get(Counter::WorkerPanics), 0);
    assert_eq!(stats.counters.get(Counter::RequestsShed), 0);

    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_sheds_with_typed_rejections_and_exact_accounting() {
    let dir = temp_dir("overload");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--workers",
        "1",
        "--queue-capacity",
        "2",
        "--shed",
        "reject",
        "--enable-fault-injection",
    ]);
    let data = pnr_kddsim::generate_train(100, 3);
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    // occupy the only worker, then fill the queue, then overflow it
    client.send("{\"cmd\":\"stall\",\"ms\":1000}");
    std::thread::sleep(Duration::from_millis(200)); // worker surely busy
    for i in 0..2 {
        client.send(&Client::score_line(&data, i, 2));
    }
    client.send(&Client::score_line(&data, 2, 2));

    let mut score_ok = 0;
    let mut stall_ok = 0;
    let mut rejected = Vec::new();
    for _ in 0..4 {
        let reply = client.recv();
        if is_ok(&reply) {
            match jstr(&reply, "reply") {
                "score" => score_ok += 1,
                "stall" => stall_ok += 1,
                other => panic!("unexpected reply {other}"),
            }
        } else {
            assert_eq!(jstr(&reply, "error"), "queue_full");
            assert!(
                ju64(&reply, "retry_after_ms") > 0,
                "rejection tells the client when to retry: {reply:?}"
            );
            rejected.push(jstr(&reply, "id").to_string());
        }
    }
    assert_eq!(stall_ok, 1);
    assert_eq!(score_ok, 2, "queued work survives the overload");
    assert_eq!(rejected, ["r2"], "exactly the overflow request was shed");

    // served + shed == submitted
    let stats = client.stats();
    assert_eq!(stats.counters.get(Counter::RequestsServed), 3);
    assert_eq!(stats.counters.get(Counter::RequestsShed), 1);

    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drop_oldest_policy_evicts_the_oldest_queued_request() {
    let dir = temp_dir("dropoldest");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--workers",
        "1",
        "--queue-capacity",
        "2",
        "--shed",
        "drop-oldest",
        "--enable-fault-injection",
    ]);
    let data = pnr_kddsim::generate_train(100, 3);
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    client.send("{\"cmd\":\"stall\",\"ms\":1000}");
    std::thread::sleep(Duration::from_millis(200));
    for i in 0..3 {
        client.send(&Client::score_line(&data, i, 2));
    }

    let mut score_ok = Vec::new();
    let mut shed = Vec::new();
    for _ in 0..4 {
        let reply = client.recv();
        if is_ok(&reply) {
            if jstr(&reply, "reply") == "score" {
                score_ok.push(jstr(&reply, "id").to_string());
            }
        } else {
            assert_eq!(jstr(&reply, "error"), "shed");
            shed.push(jstr(&reply, "id").to_string());
        }
    }
    assert_eq!(shed, ["r0"], "the oldest queued request was evicted");
    score_ok.sort();
    assert_eq!(score_ok, ["r1", "r2"], "the newest requests survived");

    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deadlines_expire_with_a_typed_response() {
    let dir = temp_dir("deadline");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--workers",
        "1",
        "--enable-fault-injection",
    ]);
    let data = pnr_kddsim::generate_train(100, 3);
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    client.send("{\"cmd\":\"stall\",\"ms\":600}");
    std::thread::sleep(Duration::from_millis(100));
    // queued behind a 600ms stall with a 100ms budget: must expire
    let line = Client::score_line(&data, 0, 2).replace("\"rows\"", "\"deadline_ms\":100,\"rows\"");
    client.send(&line);

    let stall = client.recv();
    assert!(is_ok(&stall), "{stall:?}");
    let reply = client.recv();
    assert!(!is_ok(&reply), "{reply:?}");
    assert_eq!(jstr(&reply, "error"), "deadline_exceeded");
    assert_eq!(jstr(&reply, "id"), "r0");

    // deadline_exceeded flows through telemetry
    let stats = client.stats();
    assert_eq!(stats.counters.get(Counter::DeadlineExceeded), 1);
    assert_eq!(
        stats.counters.get(Counter::RequestsServed),
        2,
        "still answered"
    );

    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill9_restart_resumes_the_last_swapped_model() {
    let dir = temp_dir("kill9");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let a2 = make_artifact(&dir, "a2.artifact", 11);
    let state = dir.join("active.state");

    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--state",
        state.to_str().unwrap(),
    ]);
    let mut client = Client::connect(&daemon.addr);
    let reply = client.request(&format!(
        "{{\"cmd\":\"swap\",\"path\":\"{}\"}}",
        a2.display()
    ));
    assert!(is_ok(&reply), "{reply:?}");
    assert_eq!(
        std::fs::read_to_string(&state).unwrap().trim(),
        a2.to_str().unwrap(),
        "state file tracks the activated artifact"
    );
    daemon.kill9();

    // restart with the STALE --model: the state file must win
    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--state",
        state.to_str().unwrap(),
    ]);
    let mut client = Client::connect(&daemon.addr);
    client.hello();
    let stats = client.stats();
    assert_eq!(
        stats.epochs[0].source,
        a2.to_str().unwrap(),
        "restart resumed the swapped-in artifact, not the stale --model"
    );
    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graceful_drain_answers_the_backlog_and_flushes_telemetry() {
    let dir = temp_dir("drain");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--workers",
        "1",
        "--enable-fault-injection",
    ]);
    let data = pnr_kddsim::generate_train(100, 3);
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    // build a backlog behind a stall, then ask for shutdown immediately
    client.send("{\"cmd\":\"stall\",\"ms\":400}");
    std::thread::sleep(Duration::from_millis(100));
    for i in 0..3 {
        client.send(&Client::score_line(&data, i, 2));
    }
    client.send("{\"cmd\":\"shutdown\"}");

    // every queued job is still answered during the drain
    let mut score_ok = 0;
    let mut saw_shutdown = false;
    for _ in 0..5 {
        let reply = client.recv();
        if is_ok(&reply) {
            match jstr(&reply, "reply") {
                "score" => score_ok += 1,
                "shutdown" => saw_shutdown = true,
                _ => {}
            }
        }
    }
    assert_eq!(score_ok, 3, "backlog drained, not dropped");
    assert!(saw_shutdown);

    let (code, rest) = daemon.wait();
    assert_eq!(code, Some(0), "graceful drain exits 0");
    // the drain's last words are the final `stats` record
    let last = rest.lines().last().unwrap_or_default();
    let stats = Stats::parse(last).unwrap_or_else(|e| panic!("{e}: {rest}"));
    assert_eq!(stats.counters.get(Counter::RequestsServed), 4);
    assert!(stats.request_latency.count > 0, "{last}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn requests_after_shutdown_are_refused_with_a_typed_error() {
    let dir = temp_dir("afterdrain");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&["--model", a1.to_str().unwrap()]);
    let data = pnr_kddsim::generate_train(100, 3);
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    let reply = client.request("{\"cmd\":\"shutdown\"}");
    assert!(is_ok(&reply), "{reply:?}");
    let reply = client.request(&Client::score_line(&data, 0, 2));
    assert!(!is_ok(&reply), "{reply:?}");
    assert_eq!(jstr(&reply, "error"), "shutting_down");

    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loadgen_drives_hostile_traffic_swap_and_panic_end_to_end() {
    let dir = temp_dir("loadgen");
    // exercise the loadgen trainer too
    let a1 = dir.join("a1.artifact");
    let out = Command::new(env!("CARGO_BIN_EXE_pnr-loadgen"))
        .args(["train", "--out", a1.to_str().unwrap(), "--rows", "800"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let a2 = make_artifact(&dir, "a2.artifact", 11);

    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--workers",
        "2",
        "--enable-fault-injection",
    ]);
    let out = Command::new(env!("CARGO_BIN_EXE_pnr-loadgen"))
        .args([
            "run",
            "--addr",
            &daemon.addr,
            "--requests",
            "60",
            "--batch",
            "4",
            "--qps",
            "500",
            "--malformed-rate",
            "0.15",
            "--drift-rate",
            "0.15",
            "--swap",
            a2.to_str().unwrap(),
            "--panic-mid-run",
            "--shutdown",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}\n{stdout}");

    let report = stdout
        .lines()
        .find(|l| l.contains("\"record\":\"loadgen\""))
        .unwrap_or_else(|| panic!("no loadgen record in {stdout}"));
    let report = serde_json::parse(report).unwrap();
    assert_eq!(ju64(&report, "score_ok"), 60, "{stdout}");
    assert_eq!(ju64(&report, "worker_panic"), 1);
    assert_eq!(ju64(&report, "swap_ok"), 1);
    assert!(ju64(&report, "row_errors") > 0, "hostile rows surfaced");
    assert!(stdout.contains("\"record\":\"traffic\""), "{stdout}");
    assert!(stdout.contains("\"kind\":\"client_request\""), "{stdout}");
    assert!(stderr.contains("fault census:"), "{stderr}");

    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0), "loadgen --shutdown drained the daemon");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serving_binaries_pin_the_exit_code_convention() {
    // usage errors: 2
    for args in [
        &[][..],
        &["--shed", "sometimes"][..],
        &["--model"][..],
        &["--workers", "0"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pnr-serve"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: pnr-serve"),
            "{args:?}"
        );
    }
    for args in [
        &[][..],
        &["run"][..],
        &["train"][..],
        &["run", "--addr", "x", "--malformed-rate", "1.5"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pnr-loadgen"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }

    // data/model failures: 1, with a typed artifact error on stderr
    let out = Command::new(env!("CARGO_BIN_EXE_pnr-serve"))
        .args(["--model", "/nonexistent/x.artifact"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error:"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = Command::new(env!("CARGO_BIN_EXE_pnr-loadgen"))
        .args(["run", "--addr", "127.0.0.1:1", "--requests", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

/// The live half of the stats contract the sentinel builds on (the
/// protocol's golden test pins the encoding): window deltas are exact,
/// every scored row lands in one score bin, the sketches have their
/// fixed shapes and counters never decrease between polls.
#[test]
fn stats_window_deltas_are_exact_and_counters_are_monotone() {
    let dir = temp_dir("statschema");
    let model = make_artifact(&dir, "m.artifact", 23);
    let daemon = Daemon::start(&["--model", model.to_str().unwrap()]);
    let data = pnr_kddsim::generate_train(200, 5);

    let mut client = Client::connect(&daemon.addr);
    client.hello();
    let mut ctl = Client::connect(&daemon.addr);

    let stats = ctl.stats();
    assert_eq!(stats.mode, Mode::Normal);
    assert_eq!(stats.degraded_reason, None);
    assert_eq!(stats.lineage, None, "boot has no lineage");
    assert!(!stats.active_checksum.is_empty());
    assert!(!stats.epochs.is_empty());
    // sketch shapes: 20 score bins, 32 p-first buckets plus a none count
    assert_eq!(stats.score_hist.len(), 20);
    assert_eq!(stats.p_first_match.bins.len(), 32);

    // window boundaries: the counter delta between two polls is exactly
    // the traffic sent between them, and counters never decrease
    const REQUESTS: usize = 10;
    const BATCH: usize = 20;
    for i in 0..REQUESTS {
        let reply = client.request(&Client::score_line(&data, i, BATCH));
        assert!(is_ok(&reply), "{reply:?}");
    }
    let after = ctl.stats();
    let rows_scored = after.counters.get(Counter::RowsScored);
    assert_eq!(
        rows_scored - stats.counters.get(Counter::RowsScored),
        (REQUESTS * BATCH) as u64,
        "rows_scored window delta"
    );
    assert_eq!(
        after.score_hist.iter().sum::<u64>(),
        rows_scored,
        "every scored row lands in exactly one score bin"
    );
    assert!(
        after.counters.get(Counter::RequestsServed) > stats.counters.get(Counter::RequestsServed)
    );
    for c in Counter::ALL {
        assert!(
            after.counters.get(c) >= stats.counters.get(c),
            "counter {} regressed between polls",
            c.name()
        );
    }

    let reply = ctl.request(&Request::Shutdown.to_line());
    assert!(is_ok(&reply), "{reply:?}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_deeply_nested_line_is_a_bad_request_and_the_daemon_keeps_serving() {
    let dir = temp_dir("nested");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&["--model", a1.to_str().unwrap()]);
    let mut client = Client::connect(&daemon.addr);

    // one 10 KB line of brackets: without the parser's nesting cap its
    // recursion overflows the connection thread's stack and aborts the
    // daemon
    let line = format!("{{\"cmd\":\"score\",\"rows\":{}", "[".repeat(10_000));
    let reply = client.request(&line);
    assert!(!is_ok(&reply), "{reply:?}");
    assert_eq!(jstr(&reply, "error"), "bad_request");

    let stats = client.stats();
    assert_eq!(stats.counters.get(Counter::RequestsServed), 0);
    client.send(&Request::Shutdown.to_line());
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0), "the daemon drains normally afterwards");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_line_split_inside_a_character_is_answered() {
    let dir = temp_dir("split_char");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&["--model", a1.to_str().unwrap()]);
    let mut client = Client::connect(&daemon.addr);

    // the daemon's reads time out every 100 ms, so the pause ends one
    // read between the two bytes of `é`
    let line = "{\"cmd\":\"degrade\",\"on\":true,\"reason\":\"café drift\"}\n".as_bytes();
    let split = line.iter().position(|&b| b == 0xC3).unwrap() + 1;
    client.writer.write_all(&line[..split]).unwrap();
    std::thread::sleep(Duration::from_millis(350));
    client.writer.write_all(&line[split..]).unwrap();
    let reply = client.recv();
    assert!(is_ok(&reply), "{reply:?}");
    let stats = client.stats();
    assert_eq!(stats.mode, Mode::Degraded);
    assert_eq!(stats.degraded_reason.as_deref(), Some("café drift"));

    client.send(&Request::Shutdown.to_line());
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_line_that_is_not_utf8_is_a_bad_request_and_the_connection_stays_open() {
    let dir = temp_dir("not_utf8");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&["--model", a1.to_str().unwrap()]);
    let mut client = Client::connect(&daemon.addr);

    client
        .writer
        .write_all(b"{\"cmd\":\"stats\xff\"}\n")
        .unwrap();
    let reply = client.recv();
    assert!(!is_ok(&reply), "{reply:?}");
    assert_eq!(jstr(&reply, "error"), "bad_request");
    // the next request on the same connection is answered
    assert_eq!(client.stats().counters.get(Counter::RequestsServed), 0);

    client.send(&Request::Shutdown.to_line());
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_hello_naming_a_column_twice_is_a_schema_mismatch() {
    let dir = temp_dir("hello_twice");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&["--model", a1.to_str().unwrap()]);
    let mut client = Client::connect(&daemon.addr);

    // the KDD header with its first column named again at the end
    let mut columns: Vec<String> = pnr_kddsim::ATTR_NAMES
        .iter()
        .map(|c| c.to_string())
        .collect();
    columns.push(columns[0].clone());
    let twice = format!("`{}`", columns[0]);
    let reply = client.request(&Request::Hello { columns }.to_line());
    assert!(!is_ok(&reply), "{reply:?}");
    assert_eq!(jstr(&reply, "error"), "schema_mismatch");
    assert!(jstr(&reply, "detail").contains(&twice), "{reply:?}");
    // the connection stays open for a hello that reconciles
    client.hello();

    client.send(&Request::Shutdown.to_line());
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_pipelined_burst_is_answered_once_per_id_with_in_process_scores() {
    let dir = temp_dir("pipelined");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--workers",
        "2",
        "--queue-capacity",
        "512",
    ]);
    let data = pnr_kddsim::generate_train(400, 3);
    let serving = pnr_core::ServingModel::new(pnr_core::ModelArtifact::load(&a1).unwrap());
    let map = serving.reconcile_header(pnr_kddsim::ATTR_NAMES).unwrap();
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    // 300 single-row requests and four 32-row ones, all in one write;
    // the queue holds them all, so none can be shed
    let batches: Vec<usize> = [vec![1; 300], vec![32; 4]].concat();
    let mut burst = String::new();
    for (id, &batch) in batches.iter().enumerate() {
        burst.push_str(&Client::score_line(&data, id, batch));
        burst.push('\n');
    }
    client.writer.write_all(burst.as_bytes()).unwrap();

    let mut replies = vec![None; batches.len()];
    for _ in 0..batches.len() {
        let reply = client.recv();
        assert!(is_ok(&reply), "{reply:?}");
        let id: usize = jstr(&reply, "id")[1..].parse().unwrap();
        assert!(replies[id].is_none(), "r{id} answered twice");
        replies[id] = Some(reply);
    }
    for (id, reply) in replies.iter().enumerate() {
        let reply = reply.as_ref().unwrap();
        let results = reply.get("results").and_then(Content::as_seq).unwrap();
        assert_eq!(results.len(), batches[id], "r{id}");
        for (j, result) in results.iter().enumerate() {
            let row = (id * batches[id] + j) % data.n_rows();
            let want = serving
                .score_fields(&pnr_kddsim::row_fields(&data, row), &map)
                .unwrap();
            let score = result.get("score").and_then(Content::as_f64).unwrap();
            assert_eq!(score.to_bits(), want.score.to_bits(), "r{id} row {j}");
            assert_eq!(
                result.get("decision"),
                Some(&Content::Bool(want.decision)),
                "r{id} row {j}"
            );
        }
    }

    let stats = client.stats();
    assert_eq!(
        stats.counters.get(Counter::RequestsServed),
        batches.len() as u64
    );
    assert_eq!(stats.counters.get(Counter::RequestsShed), 0);

    client.send(&Request::Shutdown.to_line());
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_pipelined_burst_over_capacity_sheds_with_typed_rejections_and_exact_accounting() {
    let dir = temp_dir("pipelined_shed");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--workers",
        "1",
        "--queue-capacity",
        "2",
        "--shed",
        "reject",
        "--enable-fault-injection",
    ]);
    let data = pnr_kddsim::generate_train(100, 3);
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    // hold the only worker, then send 20 requests in one write
    client.send("{\"cmd\":\"stall\",\"ms\":1000}");
    let mut burst = String::new();
    for id in 0..20 {
        burst.push_str(&Client::score_line(&data, id, 1));
        burst.push('\n');
    }
    client.writer.write_all(burst.as_bytes()).unwrap();

    let mut answered = [false; 20];
    let (mut stall_ok, mut score_ok, mut rejected) = (0, 0, 0);
    for _ in 0..21 {
        let reply = client.recv();
        if is_ok(&reply) && jstr(&reply, "reply") == "stall" {
            stall_ok += 1;
            continue;
        }
        if is_ok(&reply) {
            assert_eq!(jstr(&reply, "reply"), "score", "{reply:?}");
            score_ok += 1;
        } else {
            assert_eq!(jstr(&reply, "error"), "queue_full", "{reply:?}");
            rejected += 1;
        }
        let id: usize = jstr(&reply, "id")[1..].parse().unwrap();
        assert!(!answered[id], "r{id} answered twice");
        answered[id] = true;
    }
    assert_eq!(stall_ok, 1);
    assert!(rejected > 0, "a queue of 2 cannot hold a burst of 20");

    // served + shed == submissions
    let stats = client.stats();
    assert_eq!(stats.counters.get(Counter::RequestsServed), 1 + score_ok);
    assert_eq!(stats.counters.get(Counter::RequestsShed), rejected);
    assert_eq!(score_ok + rejected, 20);

    client.send(&Request::Shutdown.to_line());
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}
