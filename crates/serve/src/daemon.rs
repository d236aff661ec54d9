//! The scoring daemon: accept loop, admission control, hot-swap and
//! graceful drain.
//!
//! Life of a request: a connection thread reads one NDJSON line through
//! [`LineReader`], which hands over complete, non-blank lines and keeps
//! a line that a read timeout cut; a line that is not UTF-8 is answered
//! `bad_request`. The thread decodes the line in one pass
//! ([`parse_request`]), builds a `ScoreJob` against the *currently
//! active* model epoch (capturing the epoch's `Arc` and the connection's
//! column map for that epoch, so a concurrent swap can never mismatch a
//! map with a model), and pushes it into the bounded queue. A pool
//! worker pops it, scores it under the panic boundary, writing each
//! row's result into a [`ScoreReply`] as it goes, and answers through
//! the connection's writer channel.
//! Both hand-offs carry a batch when requests arrive pipelined: the
//! connection thread admits every complete line already in its read
//! buffer before it yields to the workers (only while more jobs are
//! queued than there are workers) and reads the socket again, and the
//! writer thread sends every reply waiting in its channel with one flush.
//! Every submitted job is answered exactly once — served, shed, deadline
//! -expired or panicked — which is what the fault suite's
//! `served + shed == submitted` assertions rest on.
//!
//! Hot-swap runs entirely off the hot path: the connection thread that
//! received `swap` loads and validates the artifact (with bounded retry
//! on transient I/O) while workers keep scoring the old epoch; only a
//! fully validated model is published, atomically, as epoch N+1. A
//! corrupt artifact is a logged no-op: `swap_failures` ticks, the reply
//! is a typed `swap_failed`, and the old epoch keeps serving.
//!
//! Graceful drain (`shutdown`): the accept loop stops, queued jobs are
//! finished and answered, workers exit, and [`run`] returns the final
//! `stats` record, which `pnr-serve` prints as its last stdout line
//! before it exits 0. For ungraceful exits (`kill -9`), the state file
//! (see [`crate::state`]) remembers the last *activated* artifact so a
//! restart resumes it.

use crate::pool::WorkerPool;
use crate::protocol::{
    err_line, ok_line, parse_request, Counters, EpochInfo, Mode, Request, ScoreReply, Stats,
    SwapReply,
};
use crate::queue::{BoundedQueue, PushError, PushOutcome, ShedPolicy};
use crate::sink::ServeSink;
use crate::state;
use pnr_core::{
    load_with_retry, Backoff, ColumnMap, MissingColumnPolicy, ModelArtifact, ServingModel,
    UnknownPolicy,
};
use pnr_data::LineReader;
use pnr_telemetry::{Counter, Span, SpanKind, TelemetrySink};
use serde::Content;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How often blocking reads and the accept loop wake up to check the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(100);

/// Rows scored between deadline re-checks inside one batch.
const DEADLINE_CHECK_EVERY: usize = 32;

/// Daemon configuration (the CLI maps flags onto this 1:1).
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks a free port (printed on stdout).
    pub addr: String,
    /// Worker threads scoring requests.
    pub workers: usize,
    /// Bounded queue capacity.
    pub queue_capacity: usize,
    /// What to do with submissions beyond capacity.
    pub shed: ShedPolicy,
    /// Default per-request deadline applied when a `score` carries none.
    pub default_deadline_ms: Option<u64>,
    /// Unknown-value policy for the served models.
    pub unknown: UnknownPolicy,
    /// Missing-column policy for the served models.
    pub missing: MissingColumnPolicy,
    /// State file remembering the active artifact across restarts.
    pub state_path: Option<PathBuf>,
    /// Enables the `panic` / `stall` fault-injection commands.
    pub fault_injection: bool,
    /// When set, the bound address is written here after listen succeeds,
    /// so supervisors (tests, the drift sentinel, CI) can discover a
    /// port-0 daemon without scraping stdout.
    pub addr_file: Option<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            shed: ShedPolicy::default(),
            default_deadline_ms: None,
            unknown: UnknownPolicy::default(),
            missing: MissingColumnPolicy::default(),
            state_path: None,
            fault_injection: false,
            addr_file: None,
        }
    }
}

/// Degraded-mode flag plus its operator-readable reason. Set by the
/// drift sentinel (`degrade` command) when drift is critical and refits
/// keep failing; cleared by a successful swap or an explicit
/// `{"cmd":"degrade","on":false}`. Workers read only the atomic flag,
/// so the hot path never takes the reason lock.
#[derive(Debug, Default)]
struct DegradedState {
    on: AtomicBool,
    reason: Mutex<String>,
}

impl DegradedState {
    /// Enters degraded mode; returns `true` on the transition (off → on)
    /// so the caller ticks `degraded_entries` exactly once per entry.
    fn set(&self, reason: &str) -> bool {
        *self.reason.lock().unwrap_or_else(PoisonError::into_inner) = reason.to_string();
        !self.on.swap(true, Ordering::SeqCst)
    }

    fn clear(&self) {
        self.on.store(false, Ordering::SeqCst);
    }

    fn is_on(&self) -> bool {
        self.on.load(Ordering::SeqCst)
    }

    /// The reason while degraded, `None` otherwise. The flag is read
    /// once, so a concurrent `degrade` cannot pair `normal` with a
    /// reason.
    fn current(&self) -> Option<String> {
        self.is_on().then(|| {
            self.reason
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
        })
    }
}

/// One published model generation. Jobs capture the `Arc`, so an epoch
/// stays alive (and its `served` counter consistent) until its last
/// in-flight request finishes, no matter how many swaps landed since.
#[derive(Debug)]
struct EpochModel {
    epoch: u64,
    serving: ServingModel,
    /// Requests served, shared with the epoch's [`EpochRecord`].
    served: Arc<AtomicU64>,
    /// Artifact envelope checksum — the identity swap lineage checks
    /// compare against.
    checksum: String,
    /// Lineage the artifact carried (refit candidates name their parent).
    lineage: Option<pnr_core::ArtifactLineage>,
}

impl EpochModel {
    /// The history entry for this epoch, loaded from `source`.
    fn record(&self, source: &Path) -> EpochRecord {
        EpochRecord {
            epoch: self.epoch,
            source: source.display().to_string(),
            checksum: self.checksum.clone(),
            served: self.served.clone(),
        }
    }
}

/// What `stats` reports of one published epoch. The history keeps only
/// this, not the model, so a replaced model is freed when its last
/// in-flight job finishes.
#[derive(Debug)]
struct EpochRecord {
    epoch: u64,
    source: String,
    checksum: String,
    served: Arc<AtomicU64>,
}

/// What a queued job does when a worker picks it up.
#[derive(Debug)]
enum JobKind {
    /// Score the rows.
    Score,
    /// Panic inside the worker (fault injection).
    Panic,
    /// Sleep this many milliseconds, then reply (fault injection; used to
    /// hold workers busy so backpressure and deadline paths are testable
    /// deterministically).
    Stall(u64),
}

/// One queued unit of work plus everything needed to answer it.
#[derive(Debug)]
struct ScoreJob {
    id: String,
    kind: JobKind,
    rows: Vec<Vec<String>>,
    deadline: Option<Instant>,
    model: Arc<EpochModel>,
    map: Option<Arc<ColumnMap>>,
    respond: mpsc::Sender<String>,
}

/// State shared by the accept loop, connection threads and workers.
struct Shared {
    config: DaemonConfig,
    active: Mutex<Arc<EpochModel>>,
    history: Mutex<Vec<EpochRecord>>,
    sink: Arc<ServeSink>,
    queue: Arc<BoundedQueue<ScoreJob>>,
    /// Jobs admitted but not yet answered. Zero means fully drained.
    pending: Arc<AtomicU64>,
    shutdown: AtomicBool,
    degraded: Arc<DegradedState>,
    pool: WorkerPool,
}

impl Shared {
    fn active(&self) -> Arc<EpochModel> {
        self.active
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// What `stats` reports of every epoch published so far, oldest first.
    fn history(&self) -> Vec<EpochInfo> {
        let history = self.history.lock().unwrap_or_else(PoisonError::into_inner);
        history
            .iter()
            .map(|e| EpochInfo {
                epoch: e.epoch,
                served: e.served.load(Ordering::Relaxed),
                source: e.source.clone(),
                checksum: e.checksum.clone(),
            })
            .collect()
    }
}

/// Sends `line` as the job's single response and marks it drained.
fn answer(respond: &mpsc::Sender<String>, pending: &AtomicU64, line: String) {
    // a send error means the client hung up; the job is still drained
    let _ = respond.send(line);
    pending.fetch_sub(1, Ordering::SeqCst);
}

fn build_serving(
    artifact: ModelArtifact,
    config: &DaemonConfig,
    sink: Arc<ServeSink>,
) -> ServingModel {
    ServingModel::new(artifact)
        .with_unknown_policy(config.unknown)
        .with_missing_policy(config.missing)
        .with_sink(sink)
}

/// Worker-side execution of one job. Runs under the pool's panic
/// boundary; anything that escapes here is converted into a typed
/// `worker_panic` response by the pool's `on_panic` callback.
fn execute(job: &ScoreJob, sink: &ServeSink, pending: &AtomicU64, degraded: &DegradedState) {
    match job.kind {
        JobKind::Panic => panic!("injected fault: worker panic requested by client"),
        JobKind::Stall(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            if deadline_expired(job, 0, sink, pending) {
                return;
            }
            sink.add(Counter::RequestsServed, 1);
            job.model.served.fetch_add(1, Ordering::Relaxed);
            answer(
                &job.respond,
                pending,
                ok_line(
                    "stall",
                    vec![
                        ("id", Content::Str(job.id.clone())),
                        ("epoch", Content::U64(job.model.epoch)),
                        ("degraded", Content::Bool(degraded.is_on())),
                    ],
                ),
            );
        }
        JobKind::Score => execute_score(job, sink, pending, degraded),
    }
}

/// True (and answers the job) when its deadline has expired.
fn deadline_expired(
    job: &ScoreJob,
    rows_done: usize,
    sink: &ServeSink,
    pending: &AtomicU64,
) -> bool {
    let Some(deadline) = job.deadline else {
        return false;
    };
    if Instant::now() <= deadline {
        return false;
    }
    sink.add(Counter::DeadlineExceeded, 1);
    sink.add(Counter::RequestsServed, 1);
    answer(
        &job.respond,
        pending,
        err_line(
            "deadline_exceeded",
            "wall-clock deadline expired before the batch finished",
            vec![
                ("id", Content::Str(job.id.clone())),
                ("epoch", Content::U64(job.model.epoch)),
                ("rows_done", Content::U64(rows_done as u64)),
            ],
        ),
    );
    true
}

fn execute_score(job: &ScoreJob, sink: &ServeSink, pending: &AtomicU64, degraded: &DegradedState) {
    let Some(map) = job.map.as_deref() else {
        // admission guarantees a map for Score jobs; never panic if not
        answer(
            &job.respond,
            pending,
            err_line(
                "no_hello",
                "score admitted without a column map",
                Vec::new(),
            ),
        );
        return;
    };
    if deadline_expired(job, 0, sink, pending) {
        return;
    }
    // the span covers the whole batch; a mid-batch deadline return still
    // closes it, so even timed-out requests contribute a latency sample
    let _span = Span::enter(sink, SpanKind::ServeRequest, "");
    let mut reply = ScoreReply::with_capacity(job.rows.len());
    for (i, row) in job.rows.iter().enumerate() {
        if i > 0 && i % DEADLINE_CHECK_EVERY == 0 && deadline_expired(job, i, sink, pending) {
            return;
        }
        row_result(&job.model.serving, row, map, sink, &mut reply);
    }
    finish_score(job, sink, pending, degraded, reply);
}

fn finish_score(
    job: &ScoreJob,
    sink: &ServeSink,
    pending: &AtomicU64,
    degraded: &DegradedState,
    reply: ScoreReply,
) {
    sink.add(Counter::RequestsServed, 1);
    job.model.served.fetch_add(1, Ordering::Relaxed);
    answer(
        &job.respond,
        pending,
        reply.finish(&job.id, job.model.epoch, degraded.is_on()),
    );
}

/// Scores one row and appends its result to `reply`.
fn row_result(
    serving: &ServingModel,
    row: &[String],
    map: &ColumnMap,
    sink: &ServeSink,
    reply: &mut ScoreReply,
) {
    let result = serving.score_fields(row, map);
    if let Ok(rec) = &result {
        sink.record_score(rec.score, rec.decision, rec.trace.p_rule);
    }
    reply.push(&result);
}

/// Per-connection state: the declared header and its reconciliation
/// against the epoch it was built for.
struct ConnState {
    header: Option<Vec<String>>,
    map: Option<Arc<ColumnMap>>,
    map_epoch: u64,
}

/// A connection's writer loop: writes each reply as one line, in the
/// order received. After each reply it takes every reply already waiting
/// in the channel too, then flushes once, so a burst leaves in one write
/// (or one per full buffer). It ends when the channel closes or a write
/// fails.
fn write_replies(rx: mpsc::Receiver<String>, out: impl Write) {
    let mut out = BufWriter::new(out);
    while let Ok(first) = rx.recv() {
        for line in std::iter::once(first).chain(rx.try_iter()) {
            if writeln!(out, "{line}").is_err() {
                return;
            }
        }
        if out.flush().is_err() {
            return;
        }
    }
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<String>();
    // Single writer thread per connection: worker responses and control
    // replies funnel through one channel, so wire writes never interleave.
    let writer = std::thread::spawn(move || write_replies(rx, write_half));
    let mut lines = LineReader::new(BufReader::new(stream));
    let mut conn = ConnState {
        header: None,
        map: None,
        map_epoch: 0,
    };
    loop {
        // A queued job holds its rows as owned strings, about 6x their
        // bytes on the wire. While the backlog exceeds the workers, give
        // them the CPU before the next socket read, so later requests
        // wait in the socket buffer rather than in the queue. Lines
        // already in the read buffer are admitted first: holding them
        // back would leave nothing in the socket, and the yield then
        // comes once per buffer, not once per job. Yielding never
        // blocks, so admission and shedding are unchanged.
        if !lines.get_ref().buffer().contains(&b'\n') && shared.queue.len() > shared.pool.workers()
        {
            std::thread::yield_now();
        }
        match lines.next_line() {
            Ok(None) => break,
            Ok(Some((_, Ok(line)))) => handle_line(line.trim(), &mut conn, &tx, &shared),
            Ok(Some((_, Err(e)))) => {
                let detail = format!("request line is not UTF-8: {e}");
                let _ = tx.send(err_line("bad_request", &detail, Vec::new()));
            }
            // A read timeout leaves a partial line in the reader; check
            // for drain.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    drop(tx);
    let _ = writer.join();
}

fn handle_line(line: &str, conn: &mut ConnState, tx: &mpsc::Sender<String>, shared: &Arc<Shared>) {
    let send = |line: String| {
        let _ = tx.send(line);
    };
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(reason) => {
            send(err_line("bad_request", &reason, Vec::new()));
            return;
        }
    };
    match request {
        Request::Hello { columns } => {
            let active = shared.active();
            match active.serving.reconcile_header(&columns) {
                Ok(map) => {
                    send(ok_line(
                        "hello",
                        vec![
                            ("epoch", Content::U64(active.epoch)),
                            ("missing", Content::U64(map.n_missing() as u64)),
                            ("extra", Content::U64(map.n_extra() as u64)),
                        ],
                    ));
                    conn.header = Some(columns);
                    conn.map = Some(Arc::new(map));
                    conn.map_epoch = active.epoch;
                }
                Err(e) => send(err_line("schema_mismatch", &e.to_string(), Vec::new())),
            }
        }
        Request::Score {
            id,
            rows,
            deadline_ms,
        } => submit(JobKind::Score, id, rows, deadline_ms, conn, tx, shared),
        Request::Panic => {
            if !shared.config.fault_injection {
                send(err_line(
                    "fault_injection_disabled",
                    "start the daemon with --enable-fault-injection",
                    Vec::new(),
                ));
            } else {
                submit(
                    JobKind::Panic,
                    "panic".to_string(),
                    Vec::new(),
                    None,
                    conn,
                    tx,
                    shared,
                );
            }
        }
        Request::Stall { ms } => {
            if !shared.config.fault_injection {
                send(err_line(
                    "fault_injection_disabled",
                    "start the daemon with --enable-fault-injection",
                    Vec::new(),
                ));
            } else {
                submit(
                    JobKind::Stall(ms),
                    format!("stall-{ms}"),
                    Vec::new(),
                    None,
                    conn,
                    tx,
                    shared,
                );
            }
        }
        Request::Swap { path } => handle_swap(&path, tx, shared),
        Request::Stats => send(stats_line(shared)),
        Request::Degrade { on, reason } => {
            if on {
                if shared.degraded.set(&reason) {
                    shared.sink.add(Counter::DegradedEntries, 1);
                    eprintln!("degraded mode entered: {reason}");
                }
            } else {
                shared.degraded.clear();
                eprintln!("degraded mode cleared");
            }
            send(ok_line(
                "degrade",
                vec![("degraded", Content::Bool(shared.degraded.is_on()))],
            ));
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            send(ok_line(
                "shutdown",
                vec![(
                    "pending",
                    Content::U64(shared.pending.load(Ordering::SeqCst)),
                )],
            ));
        }
    }
}

/// Admission control: captures the active epoch + column map, applies
/// backpressure, and enqueues. It never waits: the connection loop in
/// `handle_connection` yields to the workers before its next socket
/// read.
fn submit(
    kind: JobKind,
    id: String,
    rows: Vec<Vec<String>>,
    deadline_ms: Option<u64>,
    conn: &mut ConnState,
    tx: &mpsc::Sender<String>,
    shared: &Arc<Shared>,
) {
    let send = |line: String| {
        let _ = tx.send(line);
    };
    let sink = &shared.sink;
    if shared.shutdown.load(Ordering::SeqCst) {
        sink.add(Counter::RequestsShed, 1);
        send(err_line(
            "shutting_down",
            "daemon is draining; no new work admitted",
            vec![("id", Content::Str(id))],
        ));
        return;
    }
    let active = shared.active();
    let map = match kind {
        JobKind::Score => {
            let Some(header) = conn.header.as_ref() else {
                send(err_line(
                    "no_hello",
                    "send a `hello` with your column header before scoring",
                    vec![("id", Content::Str(id))],
                ));
                return;
            };
            // the map must match the epoch the job will score against
            if conn.map_epoch != active.epoch || conn.map.is_none() {
                match active.serving.reconcile_header(header) {
                    Ok(map) => {
                        conn.map = Some(Arc::new(map));
                        conn.map_epoch = active.epoch;
                    }
                    Err(e) => {
                        send(err_line(
                            "schema_mismatch",
                            &format!("header no longer reconciles after swap: {e}"),
                            vec![("id", Content::Str(id))],
                        ));
                        return;
                    }
                }
            }
            conn.map.clone()
        }
        JobKind::Panic | JobKind::Stall(_) => None,
    };
    let deadline = deadline_ms
        .or(shared.config.default_deadline_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let job = ScoreJob {
        id: id.clone(),
        kind,
        rows,
        deadline,
        model: active,
        map,
        respond: tx.clone(),
    };
    shared.pending.fetch_add(1, Ordering::SeqCst);
    match shared.queue.push(job) {
        Ok(PushOutcome::Enqueued) => {}
        Ok(PushOutcome::DroppedOldest(evicted)) => {
            sink.add(Counter::RequestsShed, 1);
            let ScoreJob { id, respond, .. } = evicted;
            answer(
                &respond,
                &shared.pending,
                err_line(
                    "shed",
                    "evicted by drop-oldest backpressure",
                    vec![("id", Content::Str(id))],
                ),
            );
        }
        Err(PushError::Full) => {
            sink.add(Counter::RequestsShed, 1);
            shared.pending.fetch_sub(1, Ordering::SeqCst);
            send(err_line(
                "queue_full",
                &format!("{} job(s) queued at capacity", shared.queue.capacity()),
                vec![
                    ("id", Content::Str(id)),
                    ("retry_after_ms", Content::U64(50)),
                ],
            ));
        }
        Err(PushError::Closed) => {
            sink.add(Counter::RequestsShed, 1);
            shared.pending.fetch_sub(1, Ordering::SeqCst);
            send(err_line(
                "shutting_down",
                "daemon is draining; no new work admitted",
                vec![("id", Content::Str(id))],
            ));
        }
    }
}

/// Hot-swap: validate off the hot path, publish atomically, persist the
/// state file. Failure of any validation step is a logged no-op.
fn handle_swap(path: &str, tx: &mpsc::Sender<String>, shared: &Arc<Shared>) {
    let send = |line: String| {
        let _ = tx.send(line);
    };
    let sink = shared.sink.clone();
    let span = Span::enter(sink.as_ref(), SpanKind::ServeSwap, "");
    let loaded = load_with_retry(Path::new(path), &Backoff::default());
    match loaded {
        Ok(artifact) => {
            let checksum = match artifact.checksum() {
                Ok(c) => c,
                Err(e) => {
                    sink.add(Counter::SwapFailures, 1);
                    drop(span);
                    eprintln!("swap rejected ({path}): {e}; current model keeps serving");
                    send(err_line("swap_failed", &e.to_string(), Vec::new()));
                    return;
                }
            };
            let lineage = artifact.lineage.clone();
            let target = artifact.target_class().to_string();
            let fingerprint = artifact.schema_fingerprint();
            let serving = build_serving(artifact, &shared.config, sink.clone());
            // Publish under the active lock so the lineage check and the
            // epoch bump are one atomic decision: a candidate that names a
            // parent must name the model it is actually replacing.
            let published = {
                let mut active = shared.active.lock().unwrap_or_else(PoisonError::into_inner);
                match &lineage {
                    Some(lin) if lin.parent_checksum != active.checksum => {
                        Err((lin.parent_checksum.clone(), active.checksum.clone()))
                    }
                    _ => {
                        let fresh = Arc::new(EpochModel {
                            epoch: active.epoch + 1,
                            serving,
                            served: Arc::default(),
                            checksum: checksum.clone(),
                            lineage,
                        });
                        *active = fresh.clone();
                        Ok(fresh)
                    }
                }
            };
            match published {
                Ok(fresh) => {
                    shared
                        .history
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(fresh.record(Path::new(path)));
                    sink.add(Counter::ModelSwaps, 1);
                    // a freshly validated model supersedes degraded mode
                    shared.degraded.clear();
                    if let Some(state_path) = &shared.config.state_path {
                        if let Err(e) = state::persist_active(state_path, Path::new(path)) {
                            eprintln!(
                                "warn: epoch {} activated but state file write failed: {e}",
                                fresh.epoch
                            );
                        }
                    }
                    drop(span);
                    eprintln!("swap: epoch {} now serving {path}", fresh.epoch);
                    let reply = SwapReply {
                        epoch: fresh.epoch,
                        target_class: target,
                        schema_fingerprint: format!("{fingerprint:016x}"),
                        checksum,
                        parent_checksum: fresh.lineage.as_ref().map(|l| l.parent_checksum.clone()),
                    };
                    send(reply.to_line());
                }
                Err((want, have)) => {
                    sink.add(Counter::SwapFailures, 1);
                    drop(span);
                    eprintln!(
                        "swap rejected ({path}): lineage parent {want} is not the active \
                         model {have}; current model keeps serving"
                    );
                    send(err_line(
                        "lineage_mismatch",
                        &format!("candidate's parent checksum {want} != active model {have}"),
                        vec![
                            ("parent_checksum", Content::Str(want)),
                            ("active_checksum", Content::Str(have)),
                        ],
                    ));
                }
            }
        }
        Err(e) => {
            sink.add(Counter::SwapFailures, 1);
            drop(span);
            // the pinned "corrupt artifact mid-swap is a logged no-op"
            eprintln!("swap rejected ({path}): {e}; current model keeps serving");
            send(err_line("swap_failed", &e.to_string(), Vec::new()));
        }
    }
}

fn stats_line(shared: &Shared) -> String {
    let sink = &shared.sink;
    let active = shared.active();
    let degraded_reason = shared.degraded.current();
    let stats = Stats {
        epoch: active.epoch,
        mode: match degraded_reason {
            Some(_) => Mode::Degraded,
            None => Mode::Normal,
        },
        degraded_reason,
        active_checksum: active.checksum.clone(),
        lineage: active.lineage.clone(),
        queue_len: shared.queue.len() as u64,
        queue_capacity: shared.queue.capacity() as u64,
        shed_policy: shared.queue.policy().name().to_string(),
        workers: shared.pool.workers() as u64,
        workers_alive: shared.pool.alive() as u64,
        worker_respawns: shared.pool.respawns(),
        pending: shared.pending.load(Ordering::SeqCst),
        counters: Counters::from_fn(|c| sink.value(c)),
        epochs: shared.history(),
        score_hist: sink.score_hist().to_vec(),
        p_first_match: sink.p_first_match(),
        request_latency: sink.request_latency().summary(),
        swap_latency: sink.swap_latency().summary(),
    };
    stats.to_line()
}

/// Loads the boot model and starts the worker pool: everything the
/// daemon shares before it binds its listener.
fn start(model_arg: &Path, config: DaemonConfig) -> Result<Arc<Shared>, String> {
    // The state file is the memory that survives kill -9: when present,
    // it names the last artifact a swap activated and wins over --model.
    let (model_path, from_state) = match &config.state_path {
        Some(sp) => match state::read_active(sp) {
            Ok(Some(p)) => (p, true),
            Ok(None) => (model_arg.to_path_buf(), false),
            Err(e) => return Err(format!("cannot read state file: {e}")),
        },
        None => (model_arg.to_path_buf(), false),
    };
    let artifact = load_with_retry(&model_path, &Backoff::default()).map_err(|e| e.to_string())?;
    let checksum = artifact.checksum().map_err(|e| e.to_string())?;
    let lineage = artifact.lineage.clone();
    let sink = Arc::new(ServeSink::new());
    let serving = build_serving(artifact, &config, sink.clone());
    eprintln!(
        "active artifact: {} ({}), target `{}`",
        model_path.display(),
        if from_state {
            "resumed from state file"
        } else {
            "from --model"
        },
        serving.artifact().target_class(),
    );
    if let Some(sp) = &config.state_path {
        state::persist_active(sp, &model_path)
            .map_err(|e| format!("cannot write state file: {e}"))?;
    }
    let first = Arc::new(EpochModel {
        epoch: 1,
        serving,
        served: Arc::default(),
        checksum,
        lineage,
    });
    let queue = Arc::new(BoundedQueue::new(config.queue_capacity, config.shed));
    let pending = Arc::new(AtomicU64::new(0));
    let degraded = Arc::new(DegradedState::default());
    let pool = {
        let (sink, pending, degraded) = (sink.clone(), pending.clone(), degraded.clone());
        let (panic_sink, panic_pending) = (sink.clone(), pending.clone());
        WorkerPool::spawn(
            config.workers,
            queue.clone(),
            move |job: &ScoreJob| execute(job, &sink, &pending, &degraded),
            move |job: ScoreJob, msg: String| {
                panic_sink.add(Counter::WorkerPanics, 1);
                panic_sink.add(Counter::RequestsServed, 1);
                answer(
                    &job.respond,
                    &panic_pending,
                    err_line(
                        "worker_panic",
                        &msg,
                        vec![
                            ("id", Content::Str(job.id)),
                            ("epoch", Content::U64(job.model.epoch)),
                        ],
                    ),
                );
            },
        )
    };
    Ok(Arc::new(Shared {
        config,
        history: Mutex::new(vec![first.record(&model_path)]),
        active: Mutex::new(first),
        sink,
        queue,
        pending,
        shutdown: AtomicBool::new(false),
        degraded,
        pool,
    }))
}

/// Runs the daemon to completion. Returns the final `stats` record after
/// a graceful drain (the `pnr-serve` binary prints it as its last stdout
/// line and exits 0), or an error message for startup failures the CLI
/// maps to exit code 1.
pub fn run(model_arg: &Path, config: DaemonConfig) -> Result<String, String> {
    let shared = start(model_arg, config)?;
    let listener = TcpListener::bind(&shared.config.addr)
        .map_err(|e| format!("cannot bind {}: {e}", shared.config.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    println!("pnr-serve listening on {local}");
    let _ = std::io::stdout().flush();
    if let Some(addr_file) = &shared.config.addr_file {
        std::fs::write(addr_file, format!("{local}\n"))
            .map_err(|e| format!("cannot write addr file {}: {e}", addr_file.display()))?;
    }
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot configure listener: {e}"))?;

    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = shared.clone();
                std::thread::spawn(move || handle_connection(stream, shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                eprintln!("warn: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }

    // Drain: stop admitting (submit() refuses under the shutdown flag),
    // let workers finish the backlog, then close the queue so they exit.
    let pending = &shared.pending;
    eprintln!(
        "shutdown: draining {} pending job(s)",
        pending.load(Ordering::SeqCst)
    );
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    while pending.load(Ordering::SeqCst) > 0 && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    shared.queue.close();
    while shared.pool.alive() > 0 && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let leftover = pending.load(Ordering::SeqCst);
    if leftover > 0 {
        eprintln!("warn: {leftover} job(s) unanswered at drain deadline");
    }

    // Final telemetry: the last `stats` record is the daemon's last words.
    let last = stats_line(&shared);
    let sink = &shared.sink;
    eprintln!(
        "drained: requests_served={} requests_shed={} worker_panics={} model_swaps={}",
        sink.value(Counter::RequestsServed),
        sink.value(Counter::RequestsShed),
        sink.value(Counter::WorkerPanics),
        sink.value(Counter::ModelSwaps),
    );
    Ok(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fits a small dos-vs-rest model on kddsim rows and saves it.
    fn save_artifact(dir: &Path, name: &str, seed: u64) -> PathBuf {
        let train = pnr_kddsim::generate_train(800, seed);
        let target = train.class_code("dos").unwrap();
        let params = pnr_core::PnruleParams::default();
        let (model, report) =
            pnr_core::PnruleLearner::new(params.clone()).fit_with_report(&train, target);
        let artifact = ModelArtifact::new(model, params, report, train.schema().clone()).unwrap();
        let path = dir.join(name);
        artifact.save(&path).unwrap();
        path
    }

    #[test]
    fn a_replaced_model_is_freed_when_its_last_job_ends() {
        let dir = std::env::temp_dir().join(format!("pnr_serve_history_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a1 = save_artifact(&dir, "a1.artifact", 7);
        let a2 = save_artifact(&dir, "a2.artifact", 11);
        let config = DaemonConfig {
            workers: 1,
            ..DaemonConfig::default()
        };
        let shared = start(&a1, config).unwrap();
        // An in-flight job holds its epoch's model, as a `ScoreJob` does.
        let in_flight = shared.active();
        in_flight.served.fetch_add(3, Ordering::Relaxed);
        let replaced = Arc::downgrade(&in_flight);

        let (tx, rx) = mpsc::channel();
        handle_swap(&a2.display().to_string(), &tx, &shared);
        let reply = rx.recv().unwrap();
        assert!(reply.contains("\"reply\":\"swap\""), "{reply}");
        assert!(replaced.upgrade().is_some(), "the job still holds epoch 1");
        drop(in_flight);
        assert!(
            replaced.upgrade().is_none(),
            "the epoch history keeps a replaced model alive"
        );

        // The history still reports both epochs, with what each served.
        let epochs: Vec<(u64, u64)> = shared
            .history()
            .iter()
            .map(|e| (e.epoch, e.served))
            .collect();
        assert_eq!(epochs, [(1, 3), (2, 0)]);
        shared.queue.close();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Keeps the bytes of every `write` call it receives, one entry each.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<Vec<u8>>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn replies_waiting_in_the_channel_leave_in_one_write_in_order() {
        let (tx, rx) = mpsc::channel();
        let replies: Vec<String> = (0..20).map(|i| format!("{{\"id\":\"r{i}\"}}")).collect();
        for reply in &replies {
            tx.send(reply.clone()).unwrap();
        }
        drop(tx);
        let mut out = Recorder::default();
        write_replies(rx, &mut out);
        assert_eq!(out.writes.len(), 1, "one write for the whole burst");
        let want: String = replies.iter().map(|r| format!("{r}\n")).collect();
        assert_eq!(String::from_utf8(out.writes.concat()).unwrap(), want);
    }

    #[test]
    fn a_failing_write_ends_the_writer_without_a_panic() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (tx, rx) = mpsc::channel();
        for i in 0..3 {
            tx.send(format!("r{i}")).unwrap();
        }
        // The sender stays open, so only the write error can end the loop.
        let (done_tx, done_rx) = mpsc::channel();
        let writer = std::thread::spawn(move || {
            write_replies(rx, Broken);
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(10)).is_ok(),
            "the writer neither stopped nor returned"
        );
        writer.join().unwrap();
        drop(tx);
    }
}
