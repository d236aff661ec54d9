//! Fit/predict observability for the PNrule workspace.
//!
//! The learner crates accept one [`Arc<dyn TelemetrySink>`] and report two
//! kinds of signal through it:
//!
//! - **Phase spans** ([`SpanKind`]) — wall-clock timed sections opened and
//!   closed in strict stack (LIFO) order on the thread driving the fit:
//!   the whole fit, the P-phase, each P-rule growth, the N-phase, each
//!   N-rule growth, the ScoreMatrix build, each auto-tune grid cell, and
//!   a coarse span around each baseline (RIPPER/C4.5) fit.
//! - **Monotonic counters** ([`Counter`]) — totals that only ever grow:
//!   candidate conditions evaluated, candidate charges mirrored against
//!   the rules crate's `BudgetTracker`, `ViewIndex` warm projection hits
//!   vs cold builds, MDL-pruned N-rules, rows swept by the ScoreMatrix
//!   `first_match` pass, the serving layer's row accounting (rows
//!   scored vs quarantined, unseen-category and non-finite-numeric hits),
//!   and the scoring daemon's robustness accounting (requests served vs
//!   shed, deadline aborts, caught worker panics, model swaps vs rejected
//!   swaps).
//!
//! Two sinks are provided. [`NoopSink`] is the default everywhere: it
//! reports `enabled() == false`, so instrumented code skips label
//! formatting and never calls `Instant::now` — zero overhead on the hot
//! path. [`RecordingSink`] accumulates counters in fixed atomics and span
//! events in a mutex-guarded vector, and can export everything as NDJSON
//! (one JSON object per line; see [`RecordingSink::ndjson_lines`]).
//!
//! # Determinism
//!
//! Telemetry is strictly write-only for the learners: nothing ever reads
//! a counter or a span back into a learning decision, so a fit produces a
//! bit-identical model whether the sink records or not. Counters are
//! plain atomic additions and therefore order-independent under the
//! parallel condition search; spans are emitted only from the single
//! thread driving the fit, so their nesting is always well-formed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Number of distinct [`Counter`]s (size of the recording array).
pub const N_COUNTERS: usize = 26;

/// Monotonic counter identities. Stored in a fixed array indexed by the
/// enum discriminant — deliberately not a hash map, so iteration order
/// (and thus NDJSON output order) is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Counter {
    /// Candidate conditions scored by the condition search (charged or
    /// not — this counts evaluation work, budget or no budget).
    ConditionsEvaluated,
    /// Candidates charged against a live `BudgetTracker`. Mirrors the
    /// tracker's own total exactly while the budget is un-exhausted;
    /// after exhaustion the tracker stops accepting charges and this
    /// counter stops with it.
    CandidateCharges,
    /// Numeric-attribute searches that found their sorted projection
    /// already materialised in the `ViewIndex`.
    ViewWarmHits,
    /// Numeric-attribute searches that had to build (or inherit-filter)
    /// a projection cold.
    ViewColdBuilds,
    /// N-rules discarded by MDL truncation.
    MdlPrunes,
    /// Rows swept by a `ScoreMatrix::build` `first_match` pass.
    FirstMatchRows,
    /// Records the serving layer scored successfully, abstentions
    /// included.
    RowsScored,
    /// Records the serving layer refused to score: structurally malformed
    /// rows quarantined by the CSV stream plus records rejected under
    /// `UnknownPolicy::Reject`.
    RowsQuarantined,
    /// Serve-time categorical values absent from the training dictionary.
    UnseenCategoryHits,
    /// Serve-time numeric values that were NaN or infinite.
    NanNumericHits,
    /// Scoring requests the daemon answered (success or typed per-record
    /// error — everything except a shed request).
    RequestsServed,
    /// Scoring requests rejected or dropped by queue backpressure before
    /// any scoring ran.
    RequestsShed,
    /// Requests (or request remainders) aborted because their wall-clock
    /// deadline expired before or during scoring.
    DeadlineExceeded,
    /// Worker panics caught by the daemon's isolation boundary; each one
    /// produced a typed error response, and the worker served on.
    WorkerPanics,
    /// Model hot-swaps that validated and published a new serving epoch.
    ModelSwaps,
    /// Hot-swap attempts rejected during off-path validation (corrupt
    /// artifact, bad schema, unreadable file); the old epoch kept serving.
    SwapFailures,
    /// Condition searches that took the threaded (one task per
    /// attribute) path. Inline scans — too small or capped at one worker —
    /// don't tick this.
    ParallelSearchCalls,
    /// Worker threads spawned across all threaded searches; divided by
    /// `ParallelSearchCalls` this is the mean effective worker count, so
    /// sweeps read the real policy outcome instead of guessing.
    SearchWorkerThreads,
    /// Records the serving layer decided positive (target-class hits).
    /// Together with `RowsScored` this gives the per-window hit rate the
    /// drift detector monitors.
    DecisionPositives,
    /// Serving-stat windows the drift detector evaluated.
    DriftChecks,
    /// Windows whose drift verdict was `warn`.
    DriftWarnings,
    /// Windows whose drift verdict was `refit` (a refit was signalled).
    DriftRefitsSignalled,
    /// Windowed refit attempts started by the supervisor.
    RefitAttempts,
    /// Refit candidates that validated and were published via hot-swap.
    RefitPublishes,
    /// Refit attempts rolled back (fit failure, validation-recall
    /// regression, or publish failure); last-known-good kept serving.
    RefitRollbacks,
    /// Times serving entered the explicit degraded state.
    DegradedEntries,
}

impl Counter {
    /// All counters, in array/export order.
    pub const ALL: [Counter; N_COUNTERS] = [
        Counter::ConditionsEvaluated,
        Counter::CandidateCharges,
        Counter::ViewWarmHits,
        Counter::ViewColdBuilds,
        Counter::MdlPrunes,
        Counter::FirstMatchRows,
        Counter::RowsScored,
        Counter::RowsQuarantined,
        Counter::UnseenCategoryHits,
        Counter::NanNumericHits,
        Counter::RequestsServed,
        Counter::RequestsShed,
        Counter::DeadlineExceeded,
        Counter::WorkerPanics,
        Counter::ModelSwaps,
        Counter::SwapFailures,
        Counter::ParallelSearchCalls,
        Counter::SearchWorkerThreads,
        Counter::DecisionPositives,
        Counter::DriftChecks,
        Counter::DriftWarnings,
        Counter::DriftRefitsSignalled,
        Counter::RefitAttempts,
        Counter::RefitPublishes,
        Counter::RefitRollbacks,
        Counter::DegradedEntries,
    ];

    /// Stable snake_case name used in NDJSON lines and rendered tables.
    pub fn name(self) -> &'static str {
        match self {
            Counter::ConditionsEvaluated => "conditions_evaluated",
            Counter::CandidateCharges => "candidate_charges",
            Counter::ViewWarmHits => "view_warm_hits",
            Counter::ViewColdBuilds => "view_cold_builds",
            Counter::MdlPrunes => "mdl_prunes",
            Counter::FirstMatchRows => "first_match_rows",
            Counter::RowsScored => "rows_scored",
            Counter::RowsQuarantined => "rows_quarantined",
            Counter::UnseenCategoryHits => "unseen_category_hits",
            Counter::NanNumericHits => "nan_numeric_hits",
            Counter::RequestsServed => "requests_served",
            Counter::RequestsShed => "requests_shed",
            Counter::DeadlineExceeded => "deadline_exceeded",
            Counter::WorkerPanics => "worker_panics",
            Counter::ModelSwaps => "model_swaps",
            Counter::SwapFailures => "swap_failures",
            Counter::ParallelSearchCalls => "parallel_search_calls",
            Counter::SearchWorkerThreads => "search_worker_threads",
            Counter::DecisionPositives => "decision_positives",
            Counter::DriftChecks => "drift_checks",
            Counter::DriftWarnings => "drift_warnings",
            Counter::DriftRefitsSignalled => "drift_refits_signalled",
            Counter::RefitAttempts => "refit_attempts",
            Counter::RefitPublishes => "refit_publishes",
            Counter::RefitRollbacks => "refit_rollbacks",
            Counter::DegradedEntries => "degraded_entries",
        }
    }

    /// Index into the recording array.
    fn index(self) -> usize {
        self as usize
    }
}

/// Span identities, from coarsest to finest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// One whole `PnruleLearner` fit.
    Fit,
    /// The P-phase covering loop.
    PPhase,
    /// One P-rule growth (child of [`PPhase`](SpanKind::PPhase)).
    PRuleGrow,
    /// The N-phase covering loop.
    NPhase,
    /// One N-rule growth (child of [`NPhase`](SpanKind::NPhase)).
    NRuleGrow,
    /// One `ScoreMatrix::build`.
    ScoreMatrix,
    /// One auto-tune grid cell (wraps a whole nested fit).
    TuneCell,
    /// One baseline (RIPPER / C4.5) fit, coarse — no interior spans.
    BaselineFit,
    /// One scoring request handled by a serving-daemon worker (queue wait
    /// excluded; the span covers reconciliation + rule evaluation).
    ServeRequest,
    /// One hot-swap: artifact load + validation + epoch publication.
    ServeSwap,
    /// One drift-detector window evaluation.
    DriftCheck,
    /// One windowed refit fit (through the checkpointed pipeline).
    RefitFit,
    /// One candidate validation against the held-back slice.
    RefitValidate,
    /// One candidate publication (artifact save + hot-swap).
    RefitPublish,
}

impl SpanKind {
    /// Stable snake_case name used in NDJSON lines and rendered tables.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Fit => "fit",
            SpanKind::PPhase => "p_phase",
            SpanKind::PRuleGrow => "p_rule_grow",
            SpanKind::NPhase => "n_phase",
            SpanKind::NRuleGrow => "n_rule_grow",
            SpanKind::ScoreMatrix => "score_matrix",
            SpanKind::TuneCell => "tune_cell",
            SpanKind::BaselineFit => "baseline_fit",
            SpanKind::ServeRequest => "serve_request",
            SpanKind::ServeSwap => "serve_swap",
            SpanKind::DriftCheck => "drift_check",
            SpanKind::RefitFit => "refit_fit",
            SpanKind::RefitValidate => "refit_validate",
            SpanKind::RefitPublish => "refit_publish",
        }
    }

    /// True for the two mutually exclusive learner phases whose spans
    /// must never nest inside each other.
    fn is_exclusive_phase(self) -> bool {
        matches!(self, SpanKind::PPhase | SpanKind::NPhase)
    }
}

/// A telemetry receiver. Implementations must be cheap to call and must
/// never panic: the learners treat the sink as infallible.
///
/// The `enabled` flag is a *hint* for callers to skip work (label
/// formatting, `Instant::now`) before calling in; a disabled sink's
/// methods are still safe to call and simply do nothing.
pub trait TelemetrySink: Send + Sync + std::fmt::Debug {
    /// Whether this sink records anything. `false` lets callers skip all
    /// telemetry work on the hot path.
    fn enabled(&self) -> bool;
    /// Adds `n` to a monotonic counter.
    fn add(&self, counter: Counter, n: u64);
    /// Opens a span. Every open is matched by exactly one
    /// [`span_close`](Self::span_close) of the same kind, in LIFO order.
    fn span_open(&self, kind: SpanKind, label: &str);
    /// Closes the innermost open span of `kind` with its wall time.
    fn span_close(&self, kind: SpanKind, wall_ns: u64);
}

/// The zero-overhead default sink: records nothing, reports disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }
    fn add(&self, _counter: Counter, _n: u64) {}
    fn span_open(&self, _kind: SpanKind, _label: &str) {}
    fn span_close(&self, _kind: SpanKind, _wall_ns: u64) {}
}

/// The shared no-op sink every options struct defaults to. One static
/// allocation for the whole process; cloning is a refcount bump.
pub fn noop() -> Arc<dyn TelemetrySink> {
    static NOOP: OnceLock<Arc<NoopSink>> = OnceLock::new();
    NOOP.get_or_init(|| Arc::new(NoopSink)).clone()
}

/// RAII span guard: opens on [`Span::enter`], closes (with elapsed wall
/// time) on drop. Against a disabled sink it is fully inert — no
/// `span_open` call and no `Instant::now`.
#[must_use = "a span closes when dropped; binding it to `_` closes it immediately"]
pub struct Span<'a> {
    sink: &'a dyn TelemetrySink,
    kind: SpanKind,
    start: Option<Instant>,
}

impl<'a> Span<'a> {
    /// Opens a span on `sink`. The label is only forwarded (and should
    /// only be formatted by the caller) when the sink is enabled.
    pub fn enter(sink: &'a dyn TelemetrySink, kind: SpanKind, label: &str) -> Span<'a> {
        if !sink.enabled() {
            return Span {
                sink,
                kind,
                start: None,
            };
        }
        sink.span_open(kind, label);
        Span {
            sink,
            kind,
            start: Some(Instant::now()),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.sink.span_close(self.kind, ns);
        }
    }
}

/// One raw span event as the sink received it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanEvent {
    /// A span opened.
    Open {
        /// Span identity.
        kind: SpanKind,
        /// Caller-supplied label, e.g. `"p0"` or `"rp=0.95 rn=0.90"`.
        label: String,
    },
    /// The innermost open span of `kind` closed.
    Close {
        /// Span identity.
        kind: SpanKind,
        /// Elapsed wall time in nanoseconds.
        wall_ns: u64,
    },
}

/// A matched open/close pair, produced by
/// [`RecordingSink::completed_spans`]. `depth` is the nesting depth at
/// open time (0 = top level).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CompletedSpan {
    /// Span identity.
    pub kind: SpanKind,
    /// Caller-supplied label.
    pub label: String,
    /// Elapsed wall time in nanoseconds.
    pub wall_ns: u64,
    /// Nesting depth at open time (0 = top level).
    pub depth: usize,
}

/// An in-memory recording sink: fixed atomic counters plus an ordered
/// span-event log. Safe to share across the search's worker threads
/// (counters are atomics; the event vector is mutex-guarded and survives
/// a poisoned lock, since the data is diagnostics — never load-bearing).
#[derive(Debug, Default)]
pub struct RecordingSink {
    counters: [AtomicU64; N_COUNTERS],
    events: Mutex<Vec<SpanEvent>>,
}

impl RecordingSink {
    /// An empty recording sink.
    pub fn new() -> Self {
        RecordingSink::default()
    }

    fn lock_events(&self) -> MutexGuard<'_, Vec<SpanEvent>> {
        // Telemetry must never panic the learner: a poisoned lock just
        // means a panicking thread held it; the event log is still valid.
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current value of one counter.
    pub fn value(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// All counters with their current values, in [`Counter::ALL`] order.
    pub fn counter_values(&self) -> [(Counter, u64); N_COUNTERS] {
        Counter::ALL.map(|c| (c, self.value(c)))
    }

    /// A snapshot of the raw event log, in arrival order.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.lock_events().clone()
    }

    /// Matches opens to closes and returns completed spans in close
    /// order. Unmatched events (see
    /// [`nesting_error`](Self::nesting_error)) are skipped rather than
    /// invented.
    pub fn completed_spans(&self) -> Vec<CompletedSpan> {
        let events = self.events();
        let mut stack: Vec<(SpanKind, String)> = Vec::new();
        let mut out = Vec::new();
        for ev in events {
            match ev {
                SpanEvent::Open { kind, label } => stack.push((kind, label)),
                SpanEvent::Close { kind, wall_ns } => {
                    if let Some((open_kind, label)) = stack.pop() {
                        if open_kind == kind {
                            out.push(CompletedSpan {
                                kind,
                                label,
                                wall_ns,
                                depth: stack.len(),
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Validates span discipline: every close matches the innermost open
    /// of the same kind, every open is eventually closed, and the two
    /// exclusive learner phases (P-phase, N-phase) never nest inside one
    /// another. Returns `None` when well-formed, else a description of
    /// the first violation.
    pub fn nesting_error(&self) -> Option<String> {
        let events = self.events();
        let mut stack: Vec<SpanKind> = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            match ev {
                SpanEvent::Open { kind, .. } => {
                    if kind.is_exclusive_phase() && stack.iter().any(|k| k.is_exclusive_phase()) {
                        return Some(format!(
                            "event {i}: {} opened while another learner phase is open",
                            kind.name()
                        ));
                    }
                    stack.push(*kind);
                }
                SpanEvent::Close { kind, .. } => match stack.pop() {
                    None => {
                        return Some(format!(
                            "event {i}: close of {} with no open span",
                            kind.name()
                        ))
                    }
                    Some(open) if open != *kind => {
                        return Some(format!(
                            "event {i}: close of {} but innermost open is {}",
                            kind.name(),
                            open.name()
                        ))
                    }
                    Some(_) => {}
                },
            }
        }
        if stack.is_empty() {
            None
        } else {
            Some(format!(
                "{} span(s) still open at end of recording",
                stack.len()
            ))
        }
    }

    /// Serializes the recording as NDJSON lines (no trailing newlines):
    /// first one `{"record":"counter",...}` line per counter in
    /// [`Counter::ALL`] order, then one `{"record":"span",...}` line per
    /// completed span in close order. Callers writing a file prepend
    /// their own metadata line(s).
    pub fn ndjson_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (counter, value) in self.counter_values() {
            let line = CounterLine {
                record: "counter".to_owned(),
                name: counter.name().to_owned(),
                value,
            };
            if let Ok(json) = serde_json::to_string(&line) {
                lines.push(json);
            }
        }
        for span in self.completed_spans() {
            let line = SpanLine {
                record: "span".to_owned(),
                kind: span.kind.name().to_owned(),
                label: span.label,
                depth: span.depth,
                wall_ns: span.wall_ns,
            };
            if let Ok(json) = serde_json::to_string(&line) {
                lines.push(json);
            }
        }
        lines
    }
}

impl TelemetrySink for RecordingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    fn span_open(&self, kind: SpanKind, label: &str) {
        self.lock_events().push(SpanEvent::Open {
            kind,
            label: label.to_owned(),
        });
    }

    fn span_close(&self, kind: SpanKind, wall_ns: u64) {
        self.lock_events().push(SpanEvent::Close { kind, wall_ns });
    }
}

/// NDJSON schema for one counter line.
#[derive(Debug, Serialize)]
struct CounterLine {
    record: String,
    name: String,
    value: u64,
}

/// NDJSON schema for one completed-span line.
#[derive(Debug, Serialize)]
struct SpanLine {
    record: String,
    kind: String,
    label: String,
    depth: usize,
    wall_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_disabled_and_inert() {
        let sink = NoopSink;
        assert!(!sink.enabled());
        sink.add(Counter::MdlPrunes, 5);
        sink.span_open(SpanKind::Fit, "x");
        sink.span_close(SpanKind::Fit, 1);
        // the shared handle reports disabled too
        assert!(!noop().enabled());
    }

    #[test]
    fn span_guard_skips_disabled_sinks() {
        let sink = NoopSink;
        let span = Span::enter(&sink, SpanKind::Fit, "x");
        assert!(span.start.is_none(), "disabled sink must not start a clock");
        drop(span);
    }

    #[test]
    fn counters_accumulate_per_identity() {
        let sink = RecordingSink::new();
        sink.add(Counter::ConditionsEvaluated, 3);
        sink.add(Counter::ConditionsEvaluated, 4);
        sink.add(Counter::MdlPrunes, 1);
        assert_eq!(sink.value(Counter::ConditionsEvaluated), 7);
        assert_eq!(sink.value(Counter::MdlPrunes), 1);
        assert_eq!(sink.value(Counter::CandidateCharges), 0);
        let values = sink.counter_values();
        assert_eq!(values.len(), N_COUNTERS);
        assert_eq!(values[0], (Counter::ConditionsEvaluated, 7));
    }

    #[test]
    fn spans_nest_and_complete_in_close_order() {
        let sink = RecordingSink::new();
        {
            let _fit = Span::enter(&sink, SpanKind::Fit, "fit");
            {
                let _p = Span::enter(&sink, SpanKind::PPhase, "p");
                let _grow = Span::enter(&sink, SpanKind::PRuleGrow, "p0");
            }
            let _n = Span::enter(&sink, SpanKind::NPhase, "n");
        }
        assert_eq!(sink.nesting_error(), None);
        let spans = sink.completed_spans();
        let kinds: Vec<SpanKind> = spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                SpanKind::PRuleGrow,
                SpanKind::PPhase,
                SpanKind::NPhase,
                SpanKind::Fit
            ]
        );
        assert_eq!(spans[0].depth, 2);
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[2].depth, 1);
        assert_eq!(spans[3].depth, 0);
        assert_eq!(spans[0].label, "p0");
    }

    #[test]
    fn nesting_errors_are_reported() {
        let dangling = RecordingSink::new();
        dangling.span_open(SpanKind::Fit, "f");
        assert!(dangling.nesting_error().is_some(), "unclosed span");

        let orphan = RecordingSink::new();
        orphan.span_close(SpanKind::Fit, 1);
        assert!(orphan.nesting_error().is_some(), "close without open");

        let crossed = RecordingSink::new();
        crossed.span_open(SpanKind::PPhase, "p");
        crossed.span_close(SpanKind::NPhase, 1);
        assert!(crossed.nesting_error().is_some(), "kind mismatch");

        let interleaved = RecordingSink::new();
        interleaved.span_open(SpanKind::PPhase, "p");
        interleaved.span_open(SpanKind::NPhase, "n");
        assert!(
            interleaved.nesting_error().is_some(),
            "learner phases must not nest"
        );
    }

    #[test]
    fn ndjson_lines_cover_counters_then_spans() {
        let sink = RecordingSink::new();
        sink.add(Counter::CandidateCharges, 42);
        {
            let _fit = Span::enter(&sink, SpanKind::Fit, "cell \"a\"");
        }
        let lines = sink.ndjson_lines();
        assert_eq!(lines.len(), N_COUNTERS + 1);
        assert!(lines[0].contains("\"record\":\"counter\""));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"candidate_charges\"") && l.contains("42")));
        let span_line = lines.last().map(String::as_str).unwrap_or("");
        assert!(span_line.contains("\"record\":\"span\""));
        assert!(span_line.contains("\"fit\""));
        // labels are JSON-escaped, so every line parses back
        for line in &lines {
            assert!(serde_json::parse(line).is_ok(), "unparseable line: {line}");
        }
    }

    #[test]
    fn counter_names_are_unique_and_stable() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_COUNTERS);
    }
}
