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
//! so a new field is added in one place.
//!
//! The two halves of a `score` round trip build no `Content` tree.
//! [`parse_request`] walks the line once with [`serde_json::Reader`],
//! which shares [`serde_json::parse`]'s lexer, so both accept exactly
//! the same lines. `rows` and `columns` decode straight into their field
//! strings; a field that is not a string, and every other value, is read
//! whole as a `Content`, which is a leaf in a well-formed request.
//! [`ScoreReply`] writes a `score` reply row by row as the worker scores
//! it, byte for byte the line `ok_line("score", …)` would render, with
//! `serde_json`'s string escaping and float formatting.

use pnr_core::{ArtifactLineage, RecordError, ScoredRecord};
use pnr_telemetry::{Counter, N_COUNTERS};
use serde::{Content, DeError, Deserialize, Serialize};
use serde_json::Reader;
use std::fmt::{self, Write};

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

/// Parses one request line in one pass, building no `Content` tree.
/// `Err` carries a human-readable reason the daemon wraps in a
/// `bad_request` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    RequestFields::read(line)
        .map_err(|e| format!("unparseable JSON: {e}"))?
        .into_request()
}

const NO_COLUMNS: &str = "`hello` needs a `columns` array";
const NO_ROWS: &str = "`score` needs a `rows` array";

/// What one pass over a request line found: the first value under each
/// key some command reads. `columns` and `rows` are decoded as they are
/// read, or to the reason they cannot be, which matters only if the
/// line's `cmd` reads them; the other values are kept as the `Content`
/// [`serde_json::parse`] builds for them.
#[derive(Default)]
struct RequestFields {
    cmd: Option<Content>,
    id: Option<Content>,
    deadline_ms: Option<Content>,
    path: Option<Content>,
    on: Option<Content>,
    reason: Option<Content>,
    ms: Option<Content>,
    columns: Option<Result<Vec<String>, String>>,
    rows: Option<Result<Vec<Vec<String>>, String>>,
}

impl RequestFields {
    /// Reads the whole line, so a syntax error anywhere in it fails the
    /// request, as [`serde_json::parse`] would.
    fn read(line: &str) -> serde_json::Result<RequestFields> {
        let mut r = Reader::new(line);
        let mut f = RequestFields::default();
        if r.object()? {
            while let Some(key) = r.next_key()? {
                match key.as_str() {
                    "columns" if f.columns.is_none() => {
                        f.columns = Some(field_array(&mut r, 0, NO_COLUMNS)?);
                    }
                    "rows" if f.rows.is_none() => f.rows = Some(rows(&mut r)?),
                    key => {
                        let value = r.value()?;
                        if let Some(slot) = f.slot(key) {
                            slot.get_or_insert(value);
                        }
                    }
                }
            }
        } else {
            r.value()?;
        }
        r.finish()?;
        Ok(f)
    }

    fn slot(&mut self, key: &str) -> Option<&mut Option<Content>> {
        Some(match key {
            "cmd" => &mut self.cmd,
            "id" => &mut self.id,
            "deadline_ms" => &mut self.deadline_ms,
            "path" => &mut self.path,
            "on" => &mut self.on,
            "reason" => &mut self.reason,
            "ms" => &mut self.ms,
            _ => return None,
        })
    }

    fn into_request(self) -> Result<Request, String> {
        let Some(Content::Str(cmd)) = self.cmd else {
            return Err("missing string field `cmd`".to_string());
        };
        match cmd.as_str() {
            "hello" => {
                let columns = self
                    .columns
                    .unwrap_or_else(|| Err(NO_COLUMNS.to_string()))?;
                if columns.is_empty() {
                    return Err("`columns` must not be empty".to_string());
                }
                Ok(Request::Hello { columns })
            }
            "score" => {
                let id = self.id.map(scalar_to_string).transpose()?;
                let rows = self.rows.unwrap_or_else(|| Err(NO_ROWS.to_string()))?;
                let deadline_ms = match self.deadline_ms {
                    None | Some(Content::Null) => None,
                    Some(v) => {
                        Some(as_u64(&v).ok_or("`deadline_ms` must be a non-negative integer")?)
                    }
                };
                Ok(Request::Score {
                    id: id.unwrap_or_default(),
                    rows,
                    deadline_ms,
                })
            }
            "swap" => match self.path {
                Some(Content::Str(path)) if !path.is_empty() => Ok(Request::Swap { path }),
                _ => Err("`swap` needs a non-empty string `path`".to_string()),
            },
            "stats" => Ok(Request::Stats),
            "degrade" => {
                let Some(Content::Bool(on)) = self.on else {
                    return Err("`degrade` needs a boolean `on`".to_string());
                };
                let reason = match self.reason {
                    None | Some(Content::Null) => String::new(),
                    Some(Content::Str(s)) => s,
                    _ => return Err("`reason` must be a string".to_string()),
                };
                Ok(Request::Degrade { on, reason })
            }
            "shutdown" => Ok(Request::Shutdown),
            "panic" => Ok(Request::Panic),
            "stall" => {
                let ms = self
                    .ms
                    .as_ref()
                    .and_then(as_u64)
                    .ok_or("`stall` needs a non-negative integer `ms`")?;
                Ok(Request::Stall { ms })
            }
            other => Err(format!("unknown cmd {other:?}")),
        }
    }
}

/// Reads an array of fields, each rendered by [`scalar_to_string`], with
/// room for `width` of them; any other value is read past and is
/// `not_array`.
fn field_array(
    r: &mut Reader,
    width: usize,
    not_array: &str,
) -> serde_json::Result<Result<Vec<String>, String>> {
    if !r.array()? {
        r.value()?;
        return Ok(Err(not_array.to_string()));
    }
    let (mut fields, mut wrong) = (Vec::with_capacity(width), None);
    while r.next_element()? {
        // a field is nearly always a string, which `Reader::string` reads
        // without `Reader::value`'s dispatch and `Content`
        let field = match r.string()? {
            Some(s) => Ok(s),
            None => scalar_to_string(r.value()?),
        };
        match field {
            Ok(field) => fields.push(field),
            Err(e) => {
                wrong.get_or_insert(e);
            }
        }
    }
    Ok(wrong.map_or(Ok(fields), Err))
}

/// Reads the `rows` of a `score`; the first malformed row or field is
/// the error.
fn rows(r: &mut Reader) -> serde_json::Result<Result<Vec<Vec<String>>, String>> {
    if !r.array()? {
        r.value()?;
        return Ok(Err(NO_ROWS.to_string()));
    }
    let (mut rows, mut wrong) = (Vec::<Vec<String>>::new(), None);
    while r.next_element()? {
        // a batch's rows are usually as wide as each other
        let width = rows.last().map_or(0, Vec::len);
        match field_array(r, width, "each row must be an array of fields")? {
            Ok(row) => rows.push(row),
            Err(e) => {
                wrong.get_or_insert(e);
            }
        }
    }
    Ok(wrong.map_or(Ok(rows), Err))
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

/// About the bytes one row's result takes in a `score` reply (a scored
/// row's is 80–100): the reply's starting capacity per row.
const RESULT_BYTES: usize = 96;

/// The most bytes a `score` reply's envelope takes besides its `id` and
/// results.
const ENVELOPE_BYTES: usize = 160;

/// A `score` reply, written as the worker scores each row.
/// [`ScoreReply::push`] appends one row's result and
/// [`ScoreReply::finish`] writes the envelope around them. The line is
/// byte for byte what `ok_line("score", …)` renders for the same values,
/// without a `Content` per row; string escaping and float formatting are
/// `serde_json`'s.
#[derive(Debug, Default)]
pub struct ScoreReply {
    /// The `results` array written so far, without its brackets.
    results: String,
    scored: u64,
    errors: u64,
}

impl ScoreReply {
    /// An empty reply with room for about `rows` results.
    pub fn with_capacity(rows: usize) -> ScoreReply {
        ScoreReply {
            results: String::with_capacity(rows * RESULT_BYTES),
            ..ScoreReply::default()
        }
    }

    /// Appends one row's result: its score, or why it was quarantined.
    pub fn push(&mut self, result: &Result<ScoredRecord, RecordError>) {
        let out = &mut self.results;
        if !out.is_empty() {
            out.push(',');
        }
        // writing to a `String` cannot fail
        match result {
            Ok(rec) => {
                self.scored += 1;
                out.push_str("{\"score\":");
                serde_json::write_f64(rec.score, out);
                let _ = write!(
                    out,
                    ",\"decision\":{},\"abstained\":{},\"unknown_values\":{}}}",
                    rec.decision, rec.abstained, rec.unknown_values
                );
            }
            Err(e) => {
                self.errors += 1;
                out.push_str("{\"error\":");
                serde_json::write_escaped(&e.to_string(), out);
                let _ = write!(out, ",\"kind\":\"{}\"}}", e.kind());
            }
        }
    }

    /// The reply line, `{"ok":true,"reply":"score","id":…,"epoch":…,
    /// "degraded":…,"scored":…,"errors":…,"results":[…]}`.
    pub fn finish(self, id: &str, epoch: u64, degraded: bool) -> String {
        let mut line = String::with_capacity(ENVELOPE_BYTES + id.len() + self.results.len());
        line.push_str("{\"ok\":true,\"reply\":\"score\",\"id\":");
        serde_json::write_escaped(id, &mut line);
        let _ = write!(
            line,
            ",\"epoch\":{epoch},\"degraded\":{degraded},\"scored\":{},\"errors\":{},\"results\":[",
            self.scored, self.errors
        );
        line.push_str(&self.results);
        line.push_str("]}");
        line
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
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::common::{mutate, request, text};
    use super::*;
    use pnr_core::RuleTrace;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The decoder before the one-pass reader: the whole line becomes a
    /// `Content` tree, then each command takes its keys out of it. The
    /// reference `parse_request` must agree with on every line.
    fn tree_parse_request(line: &str) -> Result<Request, String> {
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
                    Some(v) => {
                        Some(as_u64(v).ok_or("`deadline_ms` must be a non-negative integer")?)
                    }
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
    /// `null`.
    fn take(value: &mut Content, key: &str) -> Option<Content> {
        match value {
            Content::Map(entries) => entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Content::Null)),
            _ => None,
        }
    }

    /// Every key some command reads.
    const KEYS: [&str; 9] = [
        "cmd",
        "columns",
        "id",
        "rows",
        "deadline_ms",
        "path",
        "on",
        "reason",
        "ms",
    ];

    fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
        items[rng.gen_range(0..items.len())]
    }

    fn ws(rng: &mut StdRng) -> &'static str {
        pick(rng, &["", "", " ", "\t", "\r\n", "  "])
    }

    /// `s` as a JSON string literal, each character written raw or
    /// escaped at random: `\uXXXX` in either case (a surrogate pair
    /// beyond U+FFFF) or its short escape. One literal in 64 also holds a
    /// broken escape, such as a lone surrogate.
    fn literal(rng: &mut StdRng, s: &str) -> String {
        const BROKEN: [&str; 7] = [
            "\\ud83d",
            "\\ude00",
            "\\ud83d\\u0041",
            "\\ude00\\ud83d",
            "\\x",
            "\\u12G4",
            "\\u+041",
        ];
        let n = s.chars().count();
        let broken_at = (rng.gen_range(0..64) == 0).then(|| rng.gen_range(0..=n));
        let mut out = String::from("\"");
        for (i, c) in s.chars().chain(std::iter::once('"')).enumerate() {
            if broken_at == Some(i) {
                out.push_str(pick(rng, &BROKEN));
            }
            if i == n {
                break;
            }
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                '\u{8}' => Some("\\b"),
                '\u{c}' => Some("\\f"),
                _ => None,
            };
            match (rng.gen_range(0..3u32), short) {
                (0, _) => {
                    for unit in c.encode_utf16(&mut [0; 2]) {
                        out.push_str(&match rng.gen() {
                            true => format!("\\u{unit:04x}"),
                            false => format!("\\u{unit:04X}"),
                        });
                    }
                }
                (1, Some(escape)) => out.push_str(escape),
                (_, Some(escape)) if matches!(c, '"' | '\\') => out.push_str(escape),
                _ => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// A scalar other than a string: integers, negative and exponent
    /// floats (some past `f64`'s range), booleans and `null`.
    fn other_scalar(rng: &mut StdRng) -> String {
        match rng.gen_range(0..6u32) {
            0 => rng.gen::<u64>().to_string(),
            1 => format!("-{}", rng.gen::<u16>()),
            2 => format!("-{}.{}", rng.gen::<u8>(), rng.gen::<u16>()),
            3 => format!(
                "{}{}.{}{}{}{}",
                pick(rng, &["", "-"]),
                rng.gen::<u8>(),
                rng.gen::<u8>(),
                pick(rng, &["e", "E"]),
                pick(rng, &["", "+", "-"]),
                rng.gen_range(0..400u32)
            ),
            4 => pick(rng, &["true", "false"]).to_string(),
            _ => "null".to_string(),
        }
    }

    /// `v`, a value from a canonical request line, as JSON text again:
    /// random whitespace and escapes, one value in 16 replaced by a value
    /// of any shape and one scalar in six by another scalar.
    fn render(rng: &mut StdRng, v: &Content) -> String {
        if rng.gen_range(0..16) == 0 {
            return any_value(rng, 2);
        }
        match v {
            Content::Seq(items) => {
                let items: Vec<String> = items.iter().map(|item| render(rng, item)).collect();
                let sep = format!("{},{}", ws(rng), ws(rng));
                format!("[{}{}{}]", ws(rng), items.join(&sep), ws(rng))
            }
            _ if rng.gen_range(0..6) == 0 => other_scalar(rng),
            Content::Str(s) => literal(rng, s),
            other => serde_json::to_string(other).unwrap(),
        }
    }

    /// A value of any shape, nested at most `depth` levels, or now and
    /// then an array nested around the 128-level cap.
    fn any_value(rng: &mut StdRng, depth: u32) -> String {
        match rng.gen_range(0..if depth == 0 { 2 } else { 5 }) {
            0 => other_scalar(rng),
            1 => {
                let s = text(rng);
                literal(rng, &s)
            }
            2 if rng.gen_range(0..16) == 0 => {
                let n = rng.gen_range(120..136);
                format!("{}{}", "[".repeat(n), "]".repeat(n))
            }
            2 | 3 => {
                let items: Vec<String> = (0..rng.gen_range(0..4))
                    .map(|_| any_value(rng, depth - 1))
                    .collect();
                format!("[{}{}]", ws(rng), items.join(","))
            }
            _ => {
                let entries: Vec<String> = (0..rng.gen_range(0..4))
                    .map(|_| {
                        let key = pick(rng, &KEYS);
                        let key = literal(rng, key);
                        format!("{key}{}:{}", ws(rng), any_value(rng, depth - 1))
                    })
                    .collect();
                format!("{{{}}}", entries.join(","))
            }
        }
    }

    /// A line carrying a random request: its keys shuffled among keys
    /// of other commands and duplicates (values of any shape) and unknown
    /// keys (nested values), with random whitespace, fields of every
    /// scalar type and random escapes; one line in four is then damaged.
    fn request_line(rng: &mut StdRng) -> String {
        let canonical = serde_json::parse(&request(rng).to_line()).unwrap();
        let mut entries: Vec<(String, String)> = canonical
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), render(rng, v)))
            .collect();
        for _ in 0..rng.gen_range(0..3) {
            // a key some command reads, or one this line already has
            let key = match rng.gen() {
                true => pick(rng, &KEYS).to_string(),
                false => entries[rng.gen_range(0..entries.len())].0.clone(),
            };
            entries.push((key, any_value(rng, 3)));
        }
        for _ in 0..rng.gen_range(0..3) {
            let key = pick(rng, &["x", "Cmd", "rows ", ""]).to_string();
            entries.push((key, any_value(rng, 3)));
        }
        for i in (1..entries.len()).rev() {
            entries.swap(i, rng.gen_range(0..=i));
        }
        let entries: Vec<String> = entries
            .iter()
            .map(|(k, v)| format!("{}{}:{}{v}", literal(rng, k), ws(rng), ws(rng)))
            .collect();
        let sep = format!("{},{}", ws(rng), ws(rng));
        let line = format!(
            "{}{{{}{}{}}}{}",
            ws(rng),
            ws(rng),
            entries.join(&sep),
            ws(rng),
            ws(rng)
        );
        match rng.gen_range(0..4) {
            0 => {
                let donor = request(rng).to_line();
                mutate(rng, &line, &donor)
            }
            _ => line,
        }
    }

    /// A score the encoder must render as `ok_line` does, or why a row
    /// was quarantined.
    fn record(rng: &mut StdRng) -> Result<ScoredRecord, RecordError> {
        const SCORES: [f64; 6] = [0.0, 1.0, 1e-7, 5e-324, f64::MIN_POSITIVE / 3.0, f64::NAN];
        match rng.gen_range(0..4u32) {
            0 => Err(RecordError::Structural { detail: text(rng) }),
            1 => Err(RecordError::UnknownRejected {
                unknown_values: rng.gen_range(0..1000),
            }),
            _ => Ok(ScoredRecord {
                score: match rng.gen() {
                    true => SCORES[rng.gen_range(0..SCORES.len())],
                    false => rng.gen(),
                },
                decision: rng.gen(),
                trace: RuleTrace {
                    p_rule: None,
                    n_rule: None,
                },
                abstained: rng.gen(),
                unknown_values: rng.gen_range(0..20),
            }),
        }
    }

    /// The `score` reply `ok_line` renders from a tree, as the worker
    /// built it before [`ScoreReply`].
    fn tree_score_line(
        id: &str,
        epoch: u64,
        degraded: bool,
        records: &[Result<ScoredRecord, RecordError>],
    ) -> String {
        let results = records
            .iter()
            .map(|r| match r {
                Ok(rec) => Content::Map(vec![
                    ("score".to_string(), Content::F64(rec.score)),
                    ("decision".to_string(), Content::Bool(rec.decision)),
                    ("abstained".to_string(), Content::Bool(rec.abstained)),
                    (
                        "unknown_values".to_string(),
                        Content::U64(rec.unknown_values as u64),
                    ),
                ]),
                Err(e) => {
                    let kind = match e {
                        RecordError::Structural { .. } => "structural",
                        RecordError::UnknownRejected { .. } => "unknown-rejected",
                    };
                    Content::Map(vec![
                        ("error".to_string(), Content::Str(e.to_string())),
                        ("kind".to_string(), Content::Str(kind.to_string())),
                    ])
                }
            })
            .collect();
        let scored = records.iter().filter(|r| r.is_ok()).count() as u64;
        ok_line(
            "score",
            vec![
                ("id", Content::Str(id.to_string())),
                ("epoch", Content::U64(epoch)),
                ("degraded", Content::Bool(degraded)),
                ("scored", Content::U64(scored)),
                ("errors", Content::U64(records.len() as u64 - scored)),
                ("results", Content::Seq(results)),
            ],
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn one_pass_decoder_agrees_with_the_tree_decoder(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let line = request_line(&mut rng);
            prop_assert_eq!(parse_request(&line), tree_parse_request(&line), "line {:?}", line);
        }

        #[test]
        fn score_reply_encoder_agrees_with_ok_line(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let records: Vec<_> = (0..rng.gen_range(0..6)).map(|_| record(&mut rng)).collect();
            let (id, epoch, degraded) = (text(&mut rng), rng.gen(), rng.gen());
            let mut reply = ScoreReply::with_capacity(records.len());
            for r in &records {
                reply.push(r);
            }
            prop_assert_eq!(
                reply.finish(&id, epoch, degraded),
                tree_score_line(&id, epoch, degraded, &records)
            );
        }
    }

    /// A `score` reply captured from the daemon before [`ScoreReply`]: one
    /// scored row and one quarantined row whose detail echoes a field
    /// holding `"` and `é`.
    const DAEMON_SCORE: &str = concat!(
        "{\"ok\":true,\"reply\":\"score\",\"id\":\"g\\\"1é\",\"epoch\":1,\"degraded\":false,",
        "\"scored\":1,\"errors\":1,\"results\":[{\"score\":0.9993654822335025,",
        "\"decision\":true,\"abstained\":false,\"unknown_values\":0},",
        "{\"error\":\"Structural: field `a\\\"é` of numeric attribute `duration` is not a ",
        "number\",\"kind\":\"structural\"}]}"
    );

    #[test]
    fn score_reply_reproduces_a_captured_daemon_reply() {
        let mut reply = ScoreReply::with_capacity(2);
        reply.push(&Ok(ScoredRecord {
            score: 0.9993654822335025,
            decision: true,
            trace: RuleTrace {
                p_rule: Some(0),
                n_rule: None,
            },
            abstained: false,
            unknown_values: 0,
        }));
        reply.push(&Err(RecordError::Structural {
            detail: "field `a\"é` of numeric attribute `duration` is not a number".to_string(),
        }));
        assert_eq!(reply.finish("g\"1é", 1, false), DAEMON_SCORE);
    }

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
