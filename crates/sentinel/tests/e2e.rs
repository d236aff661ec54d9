//! End-to-end drift scenario: a real `pnr-serve` daemon (in-process, on
//! a real TCP socket), drifting traffic from a scheduled [`DriftStream`],
//! the sentinel's detector watching real stats deltas, and the refit
//! supervisor publishing through the daemon's lineage-checked hot-swap.
//!
//! Two scenarios anchor the robustness contract:
//!
//! * a step attack-mix shift is detected within a bounded number of
//!   windows, the refit publishes with lineage pointing at the prior
//!   checksum, and no record is dropped anywhere along the way;
//! * a deliberately corrupted refit never replaces last-known-good — the
//!   daemon enters *explicit* degraded mode, visible in `stats` and in
//!   every response envelope, and a later good refit clears it.

use pnr_sentinel::{
    supervise_refit, DaemonClient, DetectorConfig, DriftDetector, DriftVerdict, RefitOutcome,
    SupervisorConfig, WindowDelta,
};
use pnr_serve::protocol::{Mode, Stats};
use pnr_telemetry::TelemetrySink;
use serde::Content;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pnr_sentinel_e2e_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Trains the dos-vs-rest baseline on the pre-shift mix and saves it.
fn make_baseline(dir: &Path, seed: u64) -> (PathBuf, String) {
    let train = pnr_kddsim::generate_train(1500, seed);
    let target = train.class_code("dos").unwrap();
    let params = pnr_core::PnruleParams::default();
    let (model, report) =
        pnr_core::PnruleLearner::new(params.clone()).fit_with_report(&train, target);
    let artifact =
        pnr_core::ModelArtifact::new(model, params, report, train.schema().clone()).unwrap();
    let checksum = artifact.checksum().unwrap();
    let path = dir.join("baseline.artifact");
    artifact.save(&path).unwrap();
    (path, checksum)
}

/// Runs the daemon library in a thread; returns (join handle, bound addr).
/// The thread returns the daemon's final `stats` record.
fn start_daemon(
    model: &Path,
    dir: &Path,
) -> (std::thread::JoinHandle<Result<String, String>>, String) {
    let addr_file = dir.join("daemon.addr");
    let config = pnr_serve::DaemonConfig {
        workers: 2,
        addr_file: Some(addr_file.clone()),
        ..pnr_serve::DaemonConfig::default()
    };
    let model = model.to_path_buf();
    let handle = std::thread::spawn(move || pnr_serve::run(&model, config));
    let mut addr = String::new();
    for _ in 0..400 {
        if let Ok(s) = std::fs::read_to_string(&addr_file) {
            if !s.trim().is_empty() {
                addr = s.trim().to_string();
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(!addr.is_empty(), "daemon never wrote its address file");
    (handle, addr)
}

/// Minimal scoring client (the data plane; the sentinel's [`DaemonClient`]
/// is the control plane).
struct Traffic {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    sent_rows: u64,
    acked_rows: u64,
    next_id: usize,
}

impl Traffic {
    fn connect(addr: &str) -> Traffic {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut t = Traffic {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
            sent_rows: 0,
            acked_rows: 0,
            next_id: 0,
        };
        let columns: Vec<String> = pnr_kddsim::ATTR_NAMES
            .iter()
            .map(|c| format!("\"{c}\""))
            .collect();
        let hello = t.request(&format!(
            "{{\"cmd\":\"hello\",\"columns\":[{}]}}",
            columns.join(",")
        ));
        assert_eq!(hello.get("ok"), Some(&Content::Bool(true)), "{hello:?}");
        t
    }

    fn request(&mut self, line: &str) -> Content {
        writeln!(self.writer, "{line}").unwrap();
        let mut buf = String::new();
        self.reader.read_line(&mut buf).unwrap();
        assert!(!buf.is_empty(), "daemon closed the connection");
        serde_json::parse(buf.trim()).unwrap_or_else(|e| panic!("bad reply {buf:?}: {e}"))
    }

    /// Scores every row of `data`; asserts each reply is an accounted-for
    /// `ok` and returns the `degraded` flag seen on the last reply.
    fn score_all(&mut self, data: &pnr_data::Dataset) -> bool {
        const BATCH: usize = 50;
        let mut degraded = false;
        let mut row = 0;
        while row < data.n_rows() {
            let batch = BATCH.min(data.n_rows() - row);
            let rows: Vec<String> = (0..batch)
                .map(|j| {
                    let fields = pnr_kddsim::row_fields(data, row + j);
                    let quoted: Vec<String> = fields.iter().map(|f| format!("\"{f}\"")).collect();
                    format!("[{}]", quoted.join(","))
                })
                .collect();
            let id = self.next_id;
            self.next_id += 1;
            let reply = self.request(&format!(
                "{{\"cmd\":\"score\",\"id\":\"t{id}\",\"rows\":[{}]}}",
                rows.join(",")
            ));
            assert_eq!(reply.get("ok"), Some(&Content::Bool(true)), "{reply:?}");
            let scored = match reply.get("scored") {
                Some(Content::U64(n)) => *n,
                other => panic!("no scored count: {other:?}"),
            };
            let errors = match reply.get("errors") {
                Some(Content::U64(n)) => *n,
                other => panic!("no errors count: {other:?}"),
            };
            // the zero-dropped-records invariant: every submitted row is
            // accounted for as scored or as an explicit per-row error
            assert_eq!(scored + errors, batch as u64, "{reply:?}");
            degraded = match reply.get("degraded") {
                Some(Content::Bool(b)) => *b,
                other => panic!("no degraded flag in score reply: {other:?}"),
            };
            self.sent_rows += batch as u64;
            self.acked_rows += scored + errors;
            row += batch;
        }
        degraded
    }
}

fn fast_supervisor(dir: &Path) -> SupervisorConfig {
    let mut cfg = SupervisorConfig::new(dir.join("refits"));
    cfg.backoff = pnr_core::Backoff::new(3, Duration::from_millis(1), Duration::from_millis(2))
        .with_jitter_seed(7);
    cfg
}

fn sink() -> Arc<dyn TelemetrySink> {
    Arc::new(pnr_telemetry::RecordingSink::new())
}

#[test]
fn step_drift_is_detected_and_refit_publishes_with_lineage() {
    const WINDOW: usize = 400;
    const SHIFT_ROW: usize = 2000; // drift onset: start of window 5
    let dir = temp_dir("happy");
    let (baseline, boot_checksum) = make_baseline(&dir, 21);
    let (daemon, addr) = start_daemon(&baseline, &dir);

    let backoff = pnr_core::Backoff::new(10, Duration::from_millis(50), Duration::from_secs(1));
    let mut ctl = DaemonClient::connect(&addr, &backoff).unwrap();
    let mut traffic = Traffic::connect(&addr);

    let schedule = pnr_kddsim::DriftSchedule::parse(&format!("step:{SHIFT_ROW}")).unwrap();
    assert_eq!(schedule.shift_row(), Some(SHIFT_ROW));
    let mut stream = pnr_kddsim::DriftStream::new(33, schedule);

    let mut detector = DriftDetector::new(DetectorConfig {
        min_window_rows: 50,
        ..DetectorConfig::default()
    });
    let s = sink();
    let mut previous = ctl.stats().unwrap();
    assert_eq!(previous.active_checksum, boot_checksum);
    assert_eq!(previous.mode, Mode::Normal);

    // stream windows through the daemon until the detector fires
    let mut refit_window = None;
    for w in 0..30usize {
        let chunk = stream.next_chunk(WINDOW);
        let degraded = traffic.score_all(&chunk);
        assert!(!degraded, "window {w}: daemon degraded without cause");
        let snapshot = ctl.stats().unwrap();
        let delta = WindowDelta::between(&previous, &snapshot);
        previous = snapshot;
        assert_eq!(delta.rows + delta.quarantined, WINDOW as u64, "window {w}");
        if detector.observe(&delta, &s) == DriftVerdict::Refit {
            let lag = (stream.position().saturating_sub(SHIFT_ROW)) / WINDOW;
            // detection lag: windows from drift onset to the verdict
            assert!(lag >= 1, "refit cannot precede the shift");
            assert!(lag <= 20, "detection lag of {lag} windows is too slow");
            refit_window = Some(stream.next_chunk(2000));
            break;
        }
    }
    let refit_window = refit_window.expect("the step shift must reach a Refit verdict");

    // supervise the refit through the real daemon
    let outcome = supervise_refit(
        &refit_window,
        "dos",
        &baseline,
        1,
        &mut ctl,
        &fast_supervisor(&dir),
        &s,
    )
    .unwrap();
    let published_path = match outcome {
        RefitOutcome::Published {
            parent_checksum,
            epoch,
            path,
            attempts,
            ..
        } => {
            assert_eq!(parent_checksum, boot_checksum, "lineage → prior checksum");
            assert_eq!(epoch, 2);
            assert_eq!(attempts, 1);
            path
        }
        other => panic!("expected Published, got {other:?}"),
    };

    // recovery is externally observable: new checksum active, lineage
    // recorded, mode normal, and post-swap traffic still flows un-degraded
    let stats = ctl.stats().unwrap();
    assert_eq!(stats.mode, Mode::Normal);
    assert_ne!(stats.active_checksum, boot_checksum);
    let lineage = stats.lineage.expect("swapped epoch carries lineage");
    assert_eq!(lineage.parent_checksum, boot_checksum);
    assert_eq!(lineage.window_id, 1);
    assert_eq!(lineage.verdict, "refit");
    let saved = pnr_core::load_with_retry(&published_path, &pnr_core::Backoff::default()).unwrap();
    assert_eq!(saved.checksum().unwrap(), stats.active_checksum);

    let degraded = traffic.score_all(&stream.next_chunk(WINDOW));
    assert!(!degraded);
    assert_eq!(
        traffic.sent_rows, traffic.acked_rows,
        "zero dropped records"
    );

    ctl.shutdown().unwrap();
    let last = Stats::parse(&daemon.join().unwrap().unwrap()).unwrap();
    assert_eq!(last.active_checksum, stats.active_checksum);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_refit_keeps_last_known_good_and_degraded_mode_is_visible() {
    let dir = temp_dir("degraded");
    let (baseline, boot_checksum) = make_baseline(&dir, 41);
    let (daemon, addr) = start_daemon(&baseline, &dir);

    let backoff = pnr_core::Backoff::new(10, Duration::from_millis(50), Duration::from_secs(1));
    let mut ctl = DaemonClient::connect(&addr, &backoff).unwrap();
    let mut traffic = Traffic::connect(&addr);
    let s = sink();

    // every candidate is deliberately corrupted: the publish must fail,
    // last-known-good must keep serving, and the daemon must degrade
    let window = pnr_kddsim::generate_test(2000, 42);
    let mut cfg = fast_supervisor(&dir);
    cfg.corrupt_artifacts = true;
    cfg.backoff.attempts = 2;
    let outcome = supervise_refit(&window, "dos", &baseline, 1, &mut ctl, &cfg, &s).unwrap();
    match outcome {
        RefitOutcome::Degraded {
            attempts,
            last_error,
        } => {
            assert_eq!(attempts, 2);
            assert!(last_error.contains("swap_failed"), "{last_error}");
        }
        other => panic!("expected Degraded, got {other:?}"),
    }

    // degraded is explicit in stats and in every response envelope,
    // while the last-known-good model keeps serving every record
    let stats = ctl.stats().unwrap();
    assert_eq!(stats.mode, Mode::Degraded);
    assert_eq!(stats.active_checksum, boot_checksum, "LKG still serving");
    assert!(
        stats
            .degraded_reason
            .as_deref()
            .unwrap_or("")
            .contains("window 1"),
        "{:?}",
        stats.degraded_reason
    );
    let degraded = traffic.score_all(&pnr_kddsim::generate_train(200, 43));
    assert!(degraded, "score replies must carry degraded=true");
    assert_eq!(
        traffic.sent_rows, traffic.acked_rows,
        "zero dropped records"
    );

    // a later good refit publishes and clears degraded mode
    cfg.corrupt_artifacts = false;
    let outcome = supervise_refit(&window, "dos", &baseline, 2, &mut ctl, &cfg, &s).unwrap();
    assert!(
        matches!(outcome, RefitOutcome::Published { .. }),
        "{outcome:?}"
    );
    let stats = ctl.stats().unwrap();
    assert_eq!(stats.mode, Mode::Normal);
    assert_eq!(stats.degraded_reason, None);
    let degraded = traffic.score_all(&pnr_kddsim::generate_train(100, 44));
    assert!(!degraded, "recovery must clear the envelope flag");

    ctl.shutdown().unwrap();
    let last = Stats::parse(&daemon.join().unwrap().unwrap()).unwrap();
    assert_eq!(last.active_checksum, stats.active_checksum);
    let _ = std::fs::remove_dir_all(&dir);
}
