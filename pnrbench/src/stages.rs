//! Single-threaded replay of scoring requests through the public
//! functions each daemon stage calls, timed from here:
//!
//! | stage  | call                                                   |
//! |--------|--------------------------------------------------------|
//! | decode | `pnr_serve::parse_request` of the request line          |
//! | fields | `ServingModel::score_fields` minus `score_values`       |
//! | rules  | `ServingModel::score_values` on pre-reconciled values   |
//! | encode | `serde_json::to_string` of the reply tree               |
//!
//! No span is added inside the program; the daemon's own threads, queue,
//! channel and syscalls are what the client's latency holds beyond these.

use crate::stats::median;
use pnr_core::{ColumnMap, RecordError, ScoredRecord, ServingModel, ServingValue, UnknownKind};
use pnr_data::AttrType;
use pnr_serve::{parse_request, Request};
use serde::Content;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-stage cost of one replayed request mix.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCost {
    pub decode_us_per_row: f64,
    pub fields_us_per_row: f64,
    pub rules_ns_per_row: f64,
    pub encode_us_per_row: f64,
    /// One whole request handled in process — decode, score every row,
    /// build the reply tree, encode — per request.
    pub handle_us_per_request: f64,
    pub rows_per_request: f64,
}

/// The reply tree the daemon builds for a scored request: the same keys
/// in the same order as `ok_line("score", …)` in its worker.
pub fn reply_tree(id: &str, records: &[Result<ScoredRecord, RecordError>]) -> Content {
    let scored = records.iter().filter(|r| r.is_ok()).count() as u64;
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
            Err(e) => Content::Map(vec![
                ("error".to_string(), Content::Str(e.to_string())),
                (
                    "kind".to_string(),
                    Content::Str(
                        match e {
                            RecordError::Structural { .. } => "structural",
                            RecordError::UnknownRejected { .. } => "unknown-rejected",
                        }
                        .to_string(),
                    ),
                ),
            ]),
        })
        .collect();
    Content::Map(vec![
        ("ok".to_string(), Content::Bool(true)),
        ("reply".to_string(), Content::Str("score".to_string())),
        ("id".to_string(), Content::Str(id.to_string())),
        ("epoch".to_string(), Content::U64(1)),
        ("degraded".to_string(), Content::Bool(false)),
        ("scored".to_string(), Content::U64(scored)),
        (
            "errors".to_string(),
            Content::U64(records.len() as u64 - scored),
        ),
        ("results".to_string(), Content::Seq(results)),
    ])
}

/// Reconciles one row's fields into stored attribute order the way
/// `score_fields` does, so `score_values` can be timed on its own.
pub fn reconcile(serving: &ServingModel, columns: &[&str], fields: &[String]) -> Vec<ServingValue> {
    serving
        .artifact()
        .schema
        .attributes
        .iter()
        .map(|a| {
            let raw = columns
                .iter()
                .position(|c| *c == a.name)
                .and_then(|p| fields.get(p));
            match raw.map(|s| s.trim()) {
                None => ServingValue::Unknown(UnknownKind::MissingColumn),
                Some(raw) => match a.ty {
                    AttrType::Numeric => match raw.parse::<f64>() {
                        Ok(x) if x.is_finite() => ServingValue::Num(x),
                        _ => ServingValue::Unknown(UnknownKind::NonFinite),
                    },
                    AttrType::Categorical => match a.dict.code(raw) {
                        Some(code) => ServingValue::Code(code),
                        None => ServingValue::Unknown(UnknownKind::UnseenCategory),
                    },
                },
            }
        })
        .collect()
}

struct Prepared {
    request: String,
    rows: Vec<Vec<String>>,
    values: Vec<Vec<ServingValue>>,
    reply: Content,
}

/// Replays `(request line, reply line)` pairs pass after pass until both
/// `min_passes` and `min_time` are reached; each stage reports its median
/// pass. Fails if the pre-reconciled values do not score exactly as the
/// raw fields do (the split would then time a different computation).
pub fn replay(
    serving: &ServingModel,
    columns: &[&str],
    map: &ColumnMap,
    pairs: &[(String, String)],
    min_passes: usize,
    min_time: Duration,
) -> Result<StageCost, String> {
    let mut prepared = Vec::with_capacity(pairs.len());
    for (request, reply) in pairs {
        let Ok(Request::Score { rows, .. }) = parse_request(request) else {
            return Err(format!("replayed line is not a score request: {request}"));
        };
        let values: Vec<Vec<ServingValue>> = rows
            .iter()
            .map(|r| reconcile(serving, columns, r))
            .collect();
        for (row, v) in rows.iter().zip(&values) {
            let whole = serving.score_fields(row, map).map(|r| r.score.to_bits());
            let split = serving.score_values(v).map(|r| r.score.to_bits());
            if whole != split {
                return Err(format!(
                    "score_values disagrees with score_fields on {row:?}"
                ));
            }
        }
        let reply = serde_json::parse(reply).map_err(|e| format!("replayed reply: {e}"))?;
        prepared.push(Prepared {
            request: request.clone(),
            rows,
            values,
            reply,
        });
    }
    let n_rows: usize = prepared.iter().map(|p| p.rows.len()).sum();
    if n_rows == 0 {
        return Err("nothing to replay".to_string());
    }
    let (mut decode, mut fields, mut rules, mut encode, mut handle) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while decode.len() < min_passes || start.elapsed() < min_time {
        let t = Instant::now();
        for p in &prepared {
            black_box(parse_request(black_box(&p.request)).is_ok());
        }
        decode.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for p in &prepared {
            for row in &p.rows {
                black_box(serving.score_fields(black_box(row), map).is_ok());
            }
        }
        let whole = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for p in &prepared {
            for v in &p.values {
                black_box(serving.score_values(black_box(v)).is_ok());
            }
        }
        let values_only = t.elapsed().as_secs_f64();
        fields.push(whole - values_only);
        rules.push(values_only);

        let t = Instant::now();
        for p in &prepared {
            black_box(serde_json::to_string(black_box(&p.reply)).is_ok());
        }
        encode.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for p in &prepared {
            if let Ok(Request::Score { id, rows, .. }) = parse_request(&p.request) {
                let records: Vec<_> = rows.iter().map(|r| serving.score_fields(r, map)).collect();
                black_box(serde_json::to_string(&reply_tree(&id, &records)).is_ok());
            }
        }
        handle.push(t.elapsed().as_secs_f64());
    }
    let per_row = |v: &[f64], scale: f64| median(v) * scale / n_rows as f64;
    Ok(StageCost {
        decode_us_per_row: per_row(&decode, 1e6),
        fields_us_per_row: per_row(&fields, 1e6),
        rules_ns_per_row: per_row(&rules, 1e9),
        encode_us_per_row: per_row(&encode, 1e6),
        handle_us_per_request: median(&handle) * 1e6 / prepared.len() as f64,
        rows_per_request: n_rows as f64 / prepared.len() as f64,
    })
}
