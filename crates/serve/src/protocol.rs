//! The daemon's NDJSON wire protocol.
//!
//! One JSON object per line in each direction. Requests carry a `cmd`
//! discriminator; responses always carry `"ok"` plus either a `reply`
//! echo of the command (success) or a machine-readable `error` kind and
//! a human-readable `detail` (failure). Typed error kinds are the
//! protocol's contract with load-shedding and fault-injection tests:
//!
//! | kind                 | meaning                                            |
//! |----------------------|----------------------------------------------------|
//! | `bad_request`        | unparseable line or malformed command              |
//! | `no_hello`           | `score` before a `hello` established a column map  |
//! | `queue_full`         | backpressure rejection; carries `retry_after_ms`   |
//! | `shed`               | job evicted by the drop-oldest policy              |
//! | `shutting_down`      | daemon is draining; no new work admitted           |
//! | `deadline_exceeded`  | per-request wall-clock deadline expired            |
//! | `worker_panic`       | the scoring worker panicked; worker was respawned  |
//! | `swap_failed`        | hot-swap validation failed; old model still active |
//! | `lineage_mismatch`   | swap candidate's parent checksum is not the active model; old model still active |
//! | `schema_mismatch`    | connection header irreconcilable with the model    |
//! | `fault_injection_disabled` | `panic`/`stall` without the daemon flag      |
//!
//! Rows in `score` are sequences of CSV-style fields; numbers are
//! accepted and rendered through Rust's float formatting so a client can
//! send either `"2.5"` or `2.5`.
//!
//! Every message a client encodes or decodes field by field is typed here
//! once, encoder next to decoder: [`Request`] ([`Request::to_line`] and
//! [`parse_request`]), the [`Stats`] and [`SwapReply`] replies
//! ([`Stats::to_line`]/[`Stats::parse`], [`SwapReply::to_line`]/
//! [`decode_reply`]) and the `error`/`detail` of an [`ErrorReply`]. The
//! daemon, `pnr-loadgen` and `pnr-sentinel` all go through these types,
//! so a new field is added in one place. `score` replies keep a
//! hand-built encoder because it runs on the worker hot path.

use pnr_core::ArtifactLineage;
use pnr_telemetry::{Counter, N_COUNTERS};
use serde::{Content, DeError, Deserialize, Serialize};
use std::fmt;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Declares the connection's column header; builds the column map.
    Hello {
        /// Incoming column names, in field order.
        columns: Vec<String>,
    },
    /// Scores a batch of rows.
    Score {
        /// Client-chosen id echoed in the response.
        id: String,
        /// Rows as CSV-style field vectors.
        rows: Vec<Vec<String>>,
        /// Optional wall-clock deadline for the whole batch.
        deadline_ms: Option<u64>,
    },
    /// Hot-swaps the served model to the artifact at `path`.
    Swap {
        /// Artifact path, validated off the hot path.
        path: String,
    },
    /// Reports counters, per-epoch serve counts and latency percentiles.
    Stats,
    /// Enters (`on: true`) or leaves degraded mode. Sent by the drift
    /// sentinel when refits keep failing; the flag is echoed in every
    /// subsequent response envelope and in `stats`.
    Degrade {
        /// `true` to enter degraded mode, `false` to clear it.
        on: bool,
        /// Operator-readable reason, surfaced in `stats`.
        reason: String,
    },
    /// Graceful drain: stop admitting, finish the backlog, flush
    /// telemetry, exit 0.
    Shutdown,
    /// Fault injection: enqueue a job that panics in the worker.
    Panic,
    /// Fault injection: enqueue a job that sleeps `ms` before replying.
    Stall {
        /// Sleep duration in milliseconds.
        ms: u64,
    },
}

impl Request {
    /// Encodes the request as one wire line: the inverse of
    /// [`parse_request`].
    pub fn to_line(&self) -> String {
        let text = |s: &str| Content::Str(s.to_string());
        let texts = |fields: &[String]| Content::Seq(fields.iter().map(|f| text(f)).collect());
        let (cmd, fields) = match self {
            Request::Hello { columns } => ("hello", vec![("columns", texts(columns))]),
            Request::Score {
                id,
                rows,
                deadline_ms,
            } => {
                let rows = Content::Seq(rows.iter().map(|r| texts(r)).collect());
                let mut fields = vec![("id", text(id)), ("rows", rows)];
                fields.extend(deadline_ms.map(|ms| ("deadline_ms", Content::U64(ms))));
                ("score", fields)
            }
            Request::Swap { path } => ("swap", vec![("path", text(path))]),
            Request::Stats => ("stats", Vec::new()),
            Request::Degrade { on, reason } => (
                "degrade",
                vec![("on", Content::Bool(*on)), ("reason", text(reason))],
            ),
            Request::Shutdown => ("shutdown", Vec::new()),
            Request::Panic => ("panic", Vec::new()),
            Request::Stall { ms } => ("stall", vec![("ms", Content::U64(*ms))]),
        };
        object_line(std::iter::once(("cmd", text(cmd))).chain(fields))
    }
}

/// Parses one request line. `Err` carries a human-readable reason the
/// daemon wraps in a `bad_request` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut value = serde_json::parse(line).map_err(|e| format!("unparseable JSON: {e}"))?;
    let cmd = match take(&mut value, "cmd") {
        Some(Content::Str(s)) => s,
        _ => return Err("missing string field `cmd`".to_string()),
    };
    match cmd.as_str() {
        "hello" => {
            let Some(Content::Seq(columns)) = take(&mut value, "columns") else {
                return Err("`hello` needs a `columns` array".to_string());
            };
            let columns = columns
                .into_iter()
                .map(scalar_to_string)
                .collect::<Result<Vec<String>, String>>()?;
            if columns.is_empty() {
                return Err("`columns` must not be empty".to_string());
            }
            Ok(Request::Hello { columns })
        }
        "score" => {
            let id = take(&mut value, "id").map(scalar_to_string).transpose()?;
            let Some(Content::Seq(rows)) = take(&mut value, "rows") else {
                return Err("`score` needs a `rows` array".to_string());
            };
            let rows = rows
                .into_iter()
                .map(|row| match row {
                    Content::Seq(fields) => fields.into_iter().map(scalar_to_string).collect(),
                    _ => Err("each row must be an array of fields".to_string()),
                })
                .collect::<Result<Vec<Vec<String>>, String>>()?;
            let deadline_ms = match value.get("deadline_ms") {
                None | Some(Content::Null) => None,
                Some(v) => Some(as_u64(v).ok_or("`deadline_ms` must be a non-negative integer")?),
            };
            Ok(Request::Score {
                id: id.unwrap_or_default(),
                rows,
                deadline_ms,
            })
        }
        "swap" => match take(&mut value, "path") {
            Some(Content::Str(path)) if !path.is_empty() => Ok(Request::Swap { path }),
            _ => Err("`swap` needs a non-empty string `path`".to_string()),
        },
        "stats" => Ok(Request::Stats),
        "degrade" => {
            let on = match value.get("on") {
                Some(Content::Bool(b)) => *b,
                _ => return Err("`degrade` needs a boolean `on`".to_string()),
            };
            let reason = match take(&mut value, "reason") {
                None | Some(Content::Null) => String::new(),
                Some(Content::Str(s)) => s,
                _ => return Err("`reason` must be a string".to_string()),
            };
            Ok(Request::Degrade { on, reason })
        }
        "shutdown" => Ok(Request::Shutdown),
        "panic" => Ok(Request::Panic),
        "stall" => {
            let ms = value
                .get("ms")
                .and_then(as_u64)
                .ok_or("`stall` needs a non-negative integer `ms`")?;
            Ok(Request::Stall { ms })
        }
        other => Err(format!("unknown cmd {other:?}")),
    }
}

/// Moves the value of the first `key` out of a parsed object, leaving
/// `null`, so decoded text moves into the [`Request`] instead of being
/// copied.
fn take(value: &mut Content, key: &str) -> Option<Content> {
    match value {
        Content::Map(entries) => entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| std::mem::replace(v, Content::Null)),
        _ => None,
    }
}

/// Renders a JSON scalar as a CSV-style field string.
fn scalar_to_string(v: Content) -> Result<String, String> {
    match v {
        Content::Str(s) => Ok(s),
        Content::U64(n) => Ok(n.to_string()),
        Content::I64(n) => Ok(n.to_string()),
        Content::F64(x) => Ok(x.to_string()),
        Content::Bool(b) => Ok(b.to_string()),
        Content::Null => Ok(String::new()),
        _ => Err("fields must be scalars".to_string()),
    }
}

fn as_u64(v: &Content) -> Option<u64> {
    match *v {
        Content::U64(n) => Some(n),
        Content::I64(n) => u64::try_from(n).ok(),
        _ => None,
    }
}

/// Builds a success response line: `{"ok":true,"reply":<reply>,...}`.
pub fn ok_line(reply: &str, extra: Vec<(&str, Content)>) -> String {
    let mut entries = vec![
        ("ok".to_string(), Content::Bool(true)),
        ("reply".to_string(), Content::Str(reply.to_string())),
    ];
    entries.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    render(Content::Map(entries))
}

/// Builds a typed error response line:
/// `{"ok":false,"error":<kind>,"detail":<detail>,...}`.
pub fn err_line(kind: &str, detail: &str, extra: Vec<(&str, Content)>) -> String {
    let mut entries = vec![
        ("ok".to_string(), Content::Bool(false)),
        ("error".to_string(), Content::Str(kind.to_string())),
        ("detail".to_string(), Content::Str(detail.to_string())),
    ];
    entries.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    render(Content::Map(entries))
}

/// Renders a content tree to one line of JSON. Serialization of a content
/// tree cannot fail; the fallback keeps the signature infallible without
/// a panic path.
pub fn render(content: Content) -> String {
    serde_json::to_string(&content)
        .unwrap_or_else(|_| "{\"ok\":false,\"error\":\"internal\"}".to_string())
}

/// Renders `(key, value)` entries as one JSON object line.
pub fn object_line<K: Into<String>>(entries: impl IntoIterator<Item = (K, Content)>) -> String {
    render(Content::Map(
        entries.into_iter().map(|(k, v)| (k.into(), v)).collect(),
    ))
}

/// The `(key, value)` entries of a value that serializes to a JSON
/// object; empty for any other value.
pub fn fields(value: &impl Serialize) -> Vec<(String, Content)> {
    match value.serialize() {
        Content::Map(entries) => entries,
        _ => Vec::new(),
    }
}

/// A success reply line: `{"ok":true,"reply":<reply>}` followed by the
/// fields of `body`.
fn reply_line(reply: &str, body: &impl Serialize) -> String {
    let head = [
        ("ok".to_string(), Content::Bool(true)),
        ("reply".to_string(), Content::Str(reply.to_string())),
    ];
    object_line(head.into_iter().chain(fields(body)))
}

/// Decodes one reply line to a `reply` command: `Ok(Ok(body))` for a
/// success reply, `Ok(Err(error))` for a typed error reply, and `Err`
/// for a line that is neither.
pub fn decode_reply<T: Deserialize>(
    line: &str,
    reply: &str,
) -> Result<Result<T, ErrorReply>, String> {
    let v = serde_json::parse(line).map_err(|e| format!("unparseable `{reply}` reply: {e}"))?;
    match v.get("ok") {
        Some(Content::Bool(true)) => match v.get("reply") {
            Some(Content::Str(r)) if r == reply => T::deserialize(&v)
                .map(Ok)
                .map_err(|e| format!("bad `{reply}` reply: {e}")),
            _ => Err(format!("not a `{reply}` reply: {line}")),
        },
        Some(Content::Bool(false)) => ErrorReply::deserialize(&v)
            .map(Err)
            .map_err(|e| format!("bad error reply: {e}")),
        _ => Err(format!("reply lacks a boolean `ok`: {line}")),
    }
}

/// The `error` kind and `detail` every failure reply carries.
#[derive(Debug, Clone, PartialEq, Eq, Deserialize)]
pub struct ErrorReply {
    /// Machine-readable kind (see the table at the top of this module).
    pub error: String,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.error, self.detail)
    }
}

/// The reply to a successful `swap`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwapReply {
    /// The epoch now serving the new artifact.
    pub epoch: u64,
    /// Target class of the new model.
    pub target_class: String,
    /// Schema fingerprint, 16 lowercase hex digits.
    pub schema_fingerprint: String,
    /// Envelope checksum of the new artifact.
    pub checksum: String,
    /// Parent checksum from the artifact's lineage, if it carried one.
    pub parent_checksum: Option<String>,
}

impl SwapReply {
    /// Encodes the reply as one wire line.
    pub fn to_line(&self) -> String {
        reply_line("swap", self)
    }
}

/// The daemon's `stats` reply: cumulative counters, the serving
/// distribution sketches the drift sentinel differences, the active
/// model's identity and the queue and pool gauges. Fields are in wire
/// order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Stats {
    /// Active model epoch (1 is the boot model).
    pub epoch: u64,
    /// Normal or explicitly degraded serving.
    pub mode: Mode,
    /// Operator-readable reason while degraded, `None` otherwise.
    pub degraded_reason: Option<String>,
    /// Envelope checksum of the active artifact.
    pub active_checksum: String,
    /// Lineage the active artifact carried (refit candidates name the
    /// model they replaced).
    pub lineage: Option<ArtifactLineage>,
    /// Jobs currently queued.
    pub queue_len: u64,
    /// Bounded queue capacity.
    pub queue_capacity: u64,
    /// Shed policy name.
    pub shed_policy: String,
    /// Worker threads in the pool.
    pub workers: u64,
    /// Worker threads currently alive.
    pub workers_alive: u64,
    /// Workers respawned after a caught panic.
    pub worker_respawns: u64,
    /// Jobs admitted but not yet answered.
    pub pending: u64,
    /// Cumulative telemetry counters (monotone across polls of one
    /// daemon).
    pub counters: Counters,
    /// Epoch history, oldest first.
    pub epochs: Vec<EpochInfo>,
    /// Cumulative score histogram: equal bins over `[0, 1]`.
    pub score_hist: Vec<u64>,
    /// Cumulative P-rule first-match histogram.
    pub p_first_match: PFirstMatch,
    /// `serve_request` span latency.
    pub request_latency: LatencySummary,
    /// `serve_swap` span latency.
    pub swap_latency: LatencySummary,
}

impl Stats {
    /// Encodes the reply as one wire line.
    pub fn to_line(&self) -> String {
        reply_line("stats", self)
    }

    /// Decodes one `stats` reply line. Every field must be present with
    /// its type, and latencies must be finite; `Err` names the first
    /// violation.
    pub fn parse(line: &str) -> Result<Stats, String> {
        let stats: Stats =
            decode_reply(line, "stats")?.map_err(|e| format!("stats refused: {e}"))?;
        let ms =
            [&stats.request_latency, &stats.swap_latency].map(|l| [l.p50_ms, l.p95_ms, l.p99_ms]);
        match ms.iter().flatten().flatten().all(|ms| ms.is_finite()) {
            true => Ok(stats),
            false => Err("non-finite latency in `stats` reply".to_string()),
        }
    }
}

/// Serving mode, rendered as `"normal"` or `"degraded"`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Mode {
    /// Serving normally.
    #[default]
    Normal,
    /// Explicit degraded mode, entered by a `degrade` request.
    Degraded,
}

impl Mode {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Normal => "normal",
            Mode::Degraded => "degraded",
        }
    }
}

impl Serialize for Mode {
    fn serialize(&self) -> Content {
        Content::Str(self.name().to_string())
    }
}

impl Deserialize for Mode {
    fn deserialize(content: &Content) -> Result<Self, DeError> {
        let name = String::deserialize(content)?;
        [Mode::Normal, Mode::Degraded]
            .into_iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| DeError::new(format!("unknown mode {name:?}")))
    }
}

/// Every telemetry counter's value, keyed by [`Counter`] and rendered as
/// one object in [`Counter::ALL`] order under each counter's name. A
/// decode requires every counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters([u64; N_COUNTERS]);

impl Counters {
    /// Reads every counter's value from `value`.
    pub fn from_fn(mut value: impl FnMut(Counter) -> u64) -> Counters {
        let mut counters = Counters::default();
        for c in Counter::ALL {
            counters.0[c as usize] = value(c);
        }
        counters
    }

    /// One counter's value.
    pub fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize]
    }
}

impl Serialize for Counters {
    fn serialize(&self) -> Content {
        Content::Map(
            Counter::ALL
                .iter()
                .map(|&c| (c.name().to_string(), Content::U64(self.get(c))))
                .collect(),
        )
    }
}

impl Deserialize for Counters {
    fn deserialize(content: &Content) -> Result<Self, DeError> {
        let mut counters = Counters::default();
        for c in Counter::ALL {
            let value = content
                .get(c.name())
                .ok_or_else(|| DeError::new(format!("missing counter `{}`", c.name())))?;
            counters.0[c as usize] = u64::deserialize(value)?;
        }
        Ok(counters)
    }
}

/// One entry of the daemon's epoch history.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochInfo {
    /// Epoch number (1 is the boot model).
    pub epoch: u64,
    /// Requests served by this epoch.
    pub served: u64,
    /// Artifact path the epoch was loaded from.
    pub source: String,
    /// Artifact envelope checksum.
    pub checksum: String,
}

/// The P-rule first-match histogram: rows by the rank of the first
/// P-rule that matched them.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PFirstMatch {
    /// Rows per rank; the last bucket pools every higher rank.
    pub bins: Vec<u64>,
    /// Rows no P-rule matched.
    pub none: u64,
}

/// A latency histogram's sample count and percentiles in milliseconds
/// (bucket upper bounds; `None` with no samples).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median.
    pub p50_ms: Option<f64>,
    /// 95th percentile.
    pub p95_ms: Option<f64>,
    /// 99th percentile.
    pub p99_ms: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_hello_score_and_control_commands() {
        assert_eq!(
            parse_request("{\"cmd\":\"hello\",\"columns\":[\"a\",\"b\"]}").unwrap(),
            Request::Hello {
                columns: vec!["a".to_string(), "b".to_string()]
            }
        );
        let score =
            parse_request("{\"cmd\":\"score\",\"id\":7,\"rows\":[[\"1.5\",\"tcp\"],[2,\"udp\"]]}")
                .unwrap();
        match score {
            Request::Score {
                id,
                rows,
                deadline_ms,
            } => {
                assert_eq!(id, "7");
                assert_eq!(rows, vec![vec!["1.5", "tcp"], vec!["2", "udp"]]);
                assert_eq!(deadline_ms, None);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_request("{\"cmd\":\"swap\",\"path\":\"m.artifact\"}").unwrap(),
            Request::Swap {
                path: "m.artifact".to_string()
            }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"stats\"}").unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request("{\"cmd\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_request("{\"cmd\":\"panic\"}").unwrap(),
            Request::Panic
        );
        assert_eq!(
            parse_request("{\"cmd\":\"stall\",\"ms\":250}").unwrap(),
            Request::Stall { ms: 250 }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"degrade\",\"on\":true,\"reason\":\"drift\"}").unwrap(),
            Request::Degrade {
                on: true,
                reason: "drift".to_string()
            }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"degrade\",\"on\":false}").unwrap(),
            Request::Degrade {
                on: false,
                reason: String::new()
            }
        );
    }

    #[test]
    fn score_accepts_deadline_and_numeric_fields() {
        let req = parse_request(
            "{\"cmd\":\"score\",\"id\":\"x\",\"rows\":[[1,2.5,\"tcp\"]],\"deadline_ms\":100}",
        )
        .unwrap();
        match req {
            Request::Score {
                rows, deadline_ms, ..
            } => {
                assert_eq!(rows, vec![vec!["1", "2.5", "tcp"]]);
                assert_eq!(deadline_ms, Some(100));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn score_fields_decode_surrogate_pair_escapes() {
        // how Python's `json.dumps` sends U+1F600 by default
        let line = r#"{"cmd":"score","id":"py","rows":[["tcp","\ud83d\ude00x",null]]}"#;
        assert_eq!(
            parse_request(line).unwrap(),
            Request::Score {
                id: "py".to_string(),
                rows: vec![vec![
                    "tcp".to_string(),
                    "\u{1F600}x".to_string(),
                    String::new()
                ]],
                deadline_ms: None,
            }
        );
    }

    #[test]
    fn malformed_lines_are_typed_errors_not_panics() {
        for bad in [
            "not json",
            "{}",
            "{\"cmd\":\"nope\"}",
            "{\"cmd\":\"hello\"}",
            "{\"cmd\":\"hello\",\"columns\":[]}",
            "{\"cmd\":\"score\",\"rows\":\"x\"}",
            "{\"cmd\":\"score\",\"rows\":[\"not-a-row\"]}",
            "{\"cmd\":\"score\",\"rows\":[],\"deadline_ms\":-3}",
            "{\"cmd\":\"swap\"}",
            "{\"cmd\":\"stall\"}",
            "{\"cmd\":\"degrade\"}",
            "{\"cmd\":\"degrade\",\"on\":\"yes\"}",
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn response_lines_are_parseable_json() {
        let ok = ok_line("score", vec![("epoch", Content::U64(3))]);
        let parsed = serde_json::parse(&ok).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Content::Bool(true)));
        assert_eq!(parsed.get("epoch"), Some(&Content::U64(3)));

        let err = err_line(
            "queue_full",
            "82 jobs queued",
            vec![("retry_after_ms", Content::U64(50))],
        );
        let parsed = serde_json::parse(&err).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Content::Bool(false)));
        assert_eq!(
            parsed.get("error"),
            Some(&Content::Str("queue_full".to_string()))
        );
        assert_eq!(parsed.get("retry_after_ms"), Some(&Content::U64(50)));
    }

    /// A `stats` reply captured from a daemon after hostile traffic, one
    /// hot-swap and one worker panic.
    const DAEMON_STATS: &str = concat!(
        "{\"ok\":true,\"reply\":\"stats\",\"epoch\":2,\"mode\":\"normal\",",
        "\"degraded_reason\":null,\"active_checksum\":\"9fa70c57bf7ba8e7\",\"lineage\":null,",
        "\"queue_len\":0,\"queue_capacity\":64,\"shed_policy\":\"reject\",\"workers\":2,",
        "\"workers_alive\":2,\"worker_respawns\":1,\"pending\":1,",
        "\"counters\":{\"conditions_evaluated\":0,\"candidate_charges\":0,",
        "\"view_warm_hits\":0,\"view_cold_builds\":0,\"mdl_prunes\":0,",
        "\"first_match_rows\":0,\"rows_scored\":141,\"rows_quarantined\":19,",
        "\"unseen_category_hits\":0,\"nan_numeric_hits\":0,\"requests_served\":21,",
        "\"requests_shed\":0,\"deadline_exceeded\":0,\"worker_panics\":1,\"model_swaps\":1,",
        "\"swap_failures\":0,\"parallel_search_calls\":0,\"search_worker_threads\":0,",
        "\"decision_positives\":0,\"drift_checks\":0,\"drift_warnings\":0,",
        "\"drift_refits_signalled\":0,\"refit_attempts\":0,\"refit_publishes\":0,",
        "\"refit_rollbacks\":0,\"degraded_entries\":0},",
        "\"epochs\":[{\"epoch\":1,\"served\":11,\"source\":\"a1.artifact\",",
        "\"checksum\":\"18aaf1c4cf2d911c\"},{\"epoch\":2,\"served\":9,",
        "\"source\":\"a2.artifact\",\"checksum\":\"9fa70c57bf7ba8e7\"}],",
        "\"score_hist\":[141,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],",
        "\"p_first_match\":{\"bins\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,",
        "0,0,0,0,0,0,0,0],\"none\":141},",
        "\"request_latency\":{\"count\":19,\"p50_ms\":0.065536,\"p95_ms\":0.131072,",
        "\"p99_ms\":0.131072},",
        "\"swap_latency\":{\"count\":1,\"p50_ms\":0.524288,\"p95_ms\":0.524288,",
        "\"p99_ms\":0.524288}}"
    );

    /// A `stats` reply captured from a degraded daemon that has scored
    /// nothing yet: a quoted reason and empty latency histograms.
    const DEGRADED_STATS: &str = concat!(
        "{\"ok\":true,\"reply\":\"stats\",\"epoch\":2,\"mode\":\"degraded\",",
        "\"degraded_reason\":\"drift: \\\"quoted\\\"\",\"active_checksum\":\"9fa70c57bf7ba8e7\",",
        "\"lineage\":null,\"queue_len\":0,\"queue_capacity\":64,\"shed_policy\":\"reject\",",
        "\"workers\":2,\"workers_alive\":2,\"worker_respawns\":0,\"pending\":0,",
        "\"counters\":{\"conditions_evaluated\":0,\"candidate_charges\":0,",
        "\"view_warm_hits\":0,\"view_cold_builds\":0,\"mdl_prunes\":0,",
        "\"first_match_rows\":0,\"rows_scored\":0,\"rows_quarantined\":0,",
        "\"unseen_category_hits\":0,\"nan_numeric_hits\":0,\"requests_served\":0,",
        "\"requests_shed\":0,\"deadline_exceeded\":0,\"worker_panics\":0,\"model_swaps\":1,",
        "\"swap_failures\":1,\"parallel_search_calls\":0,\"search_worker_threads\":0,",
        "\"decision_positives\":0,\"drift_checks\":0,\"drift_warnings\":0,",
        "\"drift_refits_signalled\":0,\"refit_attempts\":0,\"refit_publishes\":0,",
        "\"refit_rollbacks\":0,\"degraded_entries\":1},",
        "\"epochs\":[{\"epoch\":1,\"served\":0,\"source\":\"a1.artifact\",",
        "\"checksum\":\"18aaf1c4cf2d911c\"},{\"epoch\":2,\"served\":0,",
        "\"source\":\"a2.artifact\",\"checksum\":\"9fa70c57bf7ba8e7\"}],",
        "\"score_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],",
        "\"p_first_match\":{\"bins\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,",
        "0,0,0,0,0,0,0,0],\"none\":0},",
        "\"request_latency\":{\"count\":0,\"p50_ms\":null,\"p95_ms\":null,\"p99_ms\":null},",
        "\"swap_latency\":{\"count\":2,\"p50_ms\":0.032768,\"p95_ms\":0.524288,",
        "\"p99_ms\":0.524288}}"
    );

    /// The drift sentinel's fixture: degraded, lineaged, every counter.
    fn sample_line() -> String {
        concat!(
            "{\"ok\":true,\"reply\":\"stats\",\"epoch\":2,",
            "\"mode\":\"degraded\",\"degraded_reason\":\"drift: refits exhausted\",",
            "\"active_checksum\":\"00deadbeef00aa11\",",
            "\"lineage\":{\"parent_checksum\":\"1122334455667788\",",
            "\"window_id\":4,\"verdict\":\"refit\"},",
            "\"queue_len\":1,\"queue_capacity\":64,\"shed_policy\":\"reject\",",
            "\"workers\":4,\"workers_alive\":4,\"worker_respawns\":0,\"pending\":2,",
            "\"counters\":{\"conditions_evaluated\":0,\"candidate_charges\":0,",
            "\"view_warm_hits\":0,\"view_cold_builds\":0,\"mdl_prunes\":0,",
            "\"first_match_rows\":0,\"rows_scored\":100,\"rows_quarantined\":3,",
            "\"unseen_category_hits\":0,\"nan_numeric_hits\":0,\"requests_served\":0,",
            "\"requests_shed\":0,\"deadline_exceeded\":0,\"worker_panics\":0,",
            "\"model_swaps\":0,\"swap_failures\":0,\"parallel_search_calls\":0,",
            "\"search_worker_threads\":0,\"decision_positives\":7,\"drift_checks\":0,",
            "\"drift_warnings\":0,\"drift_refits_signalled\":0,\"refit_attempts\":0,",
            "\"refit_publishes\":0,\"refit_rollbacks\":0,\"degraded_entries\":0},",
            "\"epochs\":[{\"epoch\":1,\"served\":10,\"source\":\"m.artifact\",",
            "\"checksum\":\"1122334455667788\"},",
            "{\"epoch\":2,\"served\":5,\"source\":\"refit.artifact\",",
            "\"checksum\":\"00deadbeef00aa11\"}],",
            "\"score_hist\":[5,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,95],",
            "\"p_first_match\":{\"bins\":[90,10],\"none\":0},",
            "\"request_latency\":{\"count\":10,\"p50_ms\":1.0,\"p95_ms\":2.0,",
            "\"p99_ms\":3.0},",
            "\"swap_latency\":{\"count\":1,\"p50_ms\":5.0,\"p95_ms\":5.0,",
            "\"p99_ms\":5.0}}"
        )
        .to_string()
    }

    #[test]
    fn stats_lines_decode_and_re_encode_byte_for_byte() {
        for line in [DAEMON_STATS, DEGRADED_STATS, &sample_line()] {
            let stats = Stats::parse(line).unwrap();
            assert_eq!(stats.to_line(), line);
        }

        let s = Stats::parse(DAEMON_STATS).unwrap();
        assert_eq!(s.mode, Mode::Normal);
        assert_eq!(s.degraded_reason, None);
        assert_eq!(s.lineage, None);
        assert_eq!(s.counters.get(Counter::RowsScored), 141);
        assert_eq!(s.counters.get(Counter::WorkerPanics), 1);
        assert_eq!(s.p_first_match.bins.len(), 32);
        assert_eq!(s.p_first_match.none, 141);
        assert_eq!(s.request_latency.count, 19);

        let d = Stats::parse(DEGRADED_STATS).unwrap();
        assert_eq!(d.degraded_reason.as_deref(), Some("drift: \"quoted\""));
        assert_eq!(d.request_latency.p50_ms, None);

        let s = Stats::parse(&sample_line()).unwrap();
        assert_eq!(s.epoch, 2);
        assert_eq!(s.mode, Mode::Degraded);
        assert_eq!(
            s.degraded_reason.as_deref(),
            Some("drift: refits exhausted")
        );
        assert_eq!(s.active_checksum, "00deadbeef00aa11");
        let lin = s.lineage.as_ref().unwrap();
        assert_eq!(lin.parent_checksum, "1122334455667788");
        assert_eq!(lin.window_id, 4);
        assert_eq!(lin.verdict, "refit");
        assert_eq!(s.counters.get(Counter::RowsScored), 100);
        assert_eq!(s.counters.get(Counter::DecisionPositives), 7);
        assert_eq!(s.counters.get(Counter::RowsQuarantined), 3);
        assert_eq!(s.score_hist.len(), 20);
        assert_eq!(s.score_hist[19], 95);
        assert_eq!(s.p_first_match.bins, vec![90, 10]);
        assert_eq!(s.epochs.len(), 2);
        // the lineage of epoch 2 points at epoch 1's checksum
        assert_eq!(lin.parent_checksum, s.epochs[0].checksum);
    }

    #[test]
    fn stats_schema_violations_are_errors_not_defaults() {
        // every load-bearing field, removed or mistyped, must fail loudly
        for (from, to) in [
            ("\"reply\":\"stats\"", "\"reply\":\"score\""),
            ("\"mode\":\"degraded\"", "\"mode\":\"panicking\""),
            (
                "\"active_checksum\":\"00deadbeef00aa11\"",
                "\"active_checksum\":17",
            ),
            ("\"counters\":{", "\"kounters\":{"),
            ("\"score_hist\":[", "\"score_hist\":\"x\",\"old\":["),
            ("\"p_first_match\":{", "\"p_first\":{"),
            ("\"epochs\":[", "\"epochs\":7,\"old\":["),
            ("\"rows_scored\":100,", ""),
            ("\"request_latency\":", "\"request_latency_ms\":"),
            ("\"queue_capacity\":64", "\"queue_capacity\":\"64\""),
            ("\"p50_ms\":1.0", "\"p50_ms\":1e999"),
        ] {
            let line = sample_line().replace(from, to);
            assert_ne!(line, sample_line(), "fixture lacks {from}");
            assert!(Stats::parse(&line).is_err(), "accepted: {to}");
        }
        assert!(Stats::parse("not json").is_err());
        assert!(Stats::parse("{\"ok\":false,\"error\":\"x\",\"detail\":\"y\"}").is_err());
    }

    #[test]
    fn requests_encode_to_the_lines_clients_send() {
        let hello = Request::Hello {
            columns: pnr_kddsim::ATTR_NAMES
                .iter()
                .map(|c| c.to_string())
                .collect(),
        };
        assert_eq!(
            hello.to_line(),
            concat!(
                "{\"cmd\":\"hello\",\"columns\":[\"protocol_type\",\"service\",\"flag\",",
                "\"duration\",\"src_bytes\",\"dst_bytes\",\"wrong_fragment\",\"hot\",",
                "\"num_failed_logins\",\"logged_in\",\"count\",\"srv_count\",",
                "\"serror_rate\",\"rerror_rate\",\"same_srv_rate\",\"diff_srv_rate\"]}"
            )
        );
        let score = concat!(
            "{\"cmd\":\"score\",\"id\":\"r0\",\"rows\":[[\"tcp\",\"http\",\"SF\",",
            "\"2.669808132502269\",\"906.7316929395671\",\"1606.15495120537\",\"0\",\"0\",",
            "\"0\",\"1\",\"7.094861245387956\",\"21.75166556452646\",\"0.04711416548951578\",",
            "\"0.00975518310418282\",\"0.9846722892614547\",\"0.0679876211910017\"],",
            "[\"tcp\",\"http\",\"SF\",\"0.5516992979566337\",\"319.5354593957407\",",
            "\"486.395858088552\",\"0\",\"0\",\"0\",\"1\",\"27.02598551941258\",",
            "\"21.546697991587642\",\"0.030014769405561595\",\"0.025566727182760363\",",
            "\"0.9037838484537063\",\"0.005504066232676963\"]],\"deadline_ms\":250}"
        );
        assert_eq!(parse_request(score).unwrap().to_line(), score);
        let no_deadline = Request::Score {
            id: "r7".to_string(),
            rows: vec![vec!["tcp".to_string(), String::new()]],
            deadline_ms: None,
        };
        assert_eq!(
            no_deadline.to_line(),
            "{\"cmd\":\"score\",\"id\":\"r7\",\"rows\":[[\"tcp\",\"\"]]}"
        );
        for (request, line) in [
            (
                Request::Swap {
                    path: "a2.artifact".to_string(),
                },
                "{\"cmd\":\"swap\",\"path\":\"a2.artifact\"}",
            ),
            (Request::Panic, "{\"cmd\":\"panic\"}"),
            (Request::Stats, "{\"cmd\":\"stats\"}"),
            (Request::Shutdown, "{\"cmd\":\"shutdown\"}"),
            (Request::Stall { ms: 250 }, "{\"cmd\":\"stall\",\"ms\":250}"),
            (
                Request::Degrade {
                    on: true,
                    reason: "drift window 1: \"x\"".to_string(),
                },
                "{\"cmd\":\"degrade\",\"on\":true,\"reason\":\"drift window 1: \\\"x\\\"\"}",
            ),
        ] {
            assert_eq!(request.to_line(), line);
            assert_eq!(parse_request(line).unwrap(), request);
        }
    }

    #[test]
    fn swap_replies_decode_to_the_reply_or_its_error() {
        let line = concat!(
            "{\"ok\":true,\"reply\":\"swap\",\"epoch\":2,\"target_class\":\"dos\",",
            "\"schema_fingerprint\":\"45e1fe8046df9455\",\"checksum\":\"9fa70c57bf7ba8e7\",",
            "\"parent_checksum\":null}"
        );
        let swapped = decode_reply::<SwapReply>(line, "swap").unwrap().unwrap();
        assert_eq!(swapped.epoch, 2);
        assert_eq!(swapped.to_line(), line);

        let rejected = err_line(
            "swap_failed",
            "Io: No such file or directory (os error 2)",
            Vec::new(),
        );
        assert_eq!(
            decode_reply::<SwapReply>(&rejected, "swap").unwrap(),
            Err(ErrorReply {
                error: "swap_failed".to_string(),
                detail: "Io: No such file or directory (os error 2)".to_string(),
            })
        );
        let degraded = ok_line("degrade", vec![("degraded", Content::Bool(true))]);
        assert!(decode_reply::<SwapReply>(&degraded, "swap").is_err());
        assert!(decode_reply::<SwapReply>("{\"reply\":\"swap\"}", "swap").is_err());
    }
}
