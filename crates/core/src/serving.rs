//! Drift-tolerant scoring of new data against a saved model.
//!
//! Training assumes complete, clean records (the data layer rejects
//! missing and non-finite values outright). Serving cannot: data drifts
//! between train and score time — columns get reordered or renamed,
//! extra columns appear, category dictionaries grow, sensors emit NaN.
//! [`ServingModel`] reconciles incoming data against the artifact's
//! stored schema **by attribute name**, tolerating column reordering and
//! extra columns, and handles per-value drift through an explicit
//! [`UnknownPolicy`]:
//!
//! * [`UnknownPolicy::ConditionFalse`] (default) — an unknown value never
//!   satisfies a rule condition. This is the paper-consistent reading of
//!   rule matching: a condition only fires on values the training data
//!   vouched for, so a record with an unseen category simply falls
//!   through to less specific rules (or to the no-P-match score of 0).
//! * [`UnknownPolicy::Abstain`] — any unknown value makes the model
//!   decline to apply rules at all: the record gets the no-P-rule score
//!   with [`ScoredRecord::abstained`] set.
//! * [`UnknownPolicy::Reject`] — any unknown value is a typed per-record
//!   error; the record is quarantined, not scored.
//!
//! Rules are evaluated by the one interpreter the learner and the tests
//! use, through [`crate::PnruleModel::score_with_trace_lookup`]: each
//! reconciled value is looked up per condition, and an unknown value is a
//! `None` lookup, which never satisfies a condition.
//!
//! Every path reports to telemetry: `rows_scored`, `rows_quarantined`,
//! `unseen_category_hits` and `nan_numeric_hits` (the hit counters count
//! *values*, and are bumped for every fault in a record before the
//! policy decides its fate). Nothing in this module panics on any input.

use crate::artifact::{ArtifactError, ModelArtifact};
use crate::model::RuleTrace;
use pnr_data::{AttrType, Dataset};
use pnr_telemetry::{Counter, TelemetrySink};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// How the serving path treats an unknown value (unseen category,
/// non-finite numeric, defaulted missing column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnknownPolicy {
    /// Unknown values never match conditions; scoring proceeds (default).
    #[default]
    ConditionFalse,
    /// Records holding any unknown value get the no-P-rule score with an
    /// `abstained` trace flag instead of rule-derived scores.
    Abstain,
    /// Records holding any unknown value are rejected with a typed error.
    Reject,
}

impl UnknownPolicy {
    /// Parses the CLI spelling (`condition-false` | `abstain` | `reject`).
    pub fn parse(s: &str) -> Option<UnknownPolicy> {
        match s {
            "condition-false" => Some(UnknownPolicy::ConditionFalse),
            "abstain" => Some(UnknownPolicy::Abstain),
            "reject" => Some(UnknownPolicy::Reject),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            UnknownPolicy::ConditionFalse => "condition-false",
            UnknownPolicy::Abstain => "abstain",
            UnknownPolicy::Reject => "reject",
        }
    }
}

/// How reconciliation treats a stored attribute absent from the incoming
/// data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissingColumnPolicy {
    /// Reconciliation fails with
    /// [`ArtifactError::SchemaMismatch`] (default).
    #[default]
    Reject,
    /// The column is treated as all-unknown: every record behaves as if
    /// it held an unknown value there, routed through the
    /// [`UnknownPolicy`].
    Default,
}

impl MissingColumnPolicy {
    /// Parses the CLI spelling (`reject` | `default`).
    pub fn parse(s: &str) -> Option<MissingColumnPolicy> {
        match s {
            "reject" => Some(MissingColumnPolicy::Reject),
            "default" => Some(MissingColumnPolicy::Default),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            MissingColumnPolicy::Reject => "reject",
            MissingColumnPolicy::Default => "default",
        }
    }
}

/// Why a serving-time value is unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownKind {
    /// Categorical value absent from the training dictionary.
    UnseenCategory,
    /// Numeric value that parsed but is NaN or infinite.
    NonFinite,
    /// The attribute's column is missing from the incoming data and the
    /// missing-column policy defaults it.
    MissingColumn,
}

/// One reconciled attribute value, indexed by *stored* attribute order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServingValue {
    /// A finite numeric value.
    Num(f64),
    /// A categorical value as a *stored-dictionary* code.
    Code(u32),
    /// A value the trained model has no grounding for.
    Unknown(UnknownKind),
}

/// A scored record: the model's output plus serving-path provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredRecord {
    /// The model score (probability-like, in `[0, 1]`).
    pub score: f64,
    /// The thresholded binary decision.
    pub decision: bool,
    /// Which rules fired.
    pub trace: RuleTrace,
    /// True when [`UnknownPolicy::Abstain`] suppressed rule matching; the
    /// score is then the no-P-rule score.
    pub abstained: bool,
    /// Number of unknown values the record carried.
    pub unknown_values: usize,
}

/// Why one record could not be scored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The record is structurally unusable (wrong field count, an
    /// unparsable numeric field); quarantined like the CSV loader does.
    Structural {
        /// What exactly is wrong.
        detail: String,
    },
    /// The record carried unknown values and the policy is
    /// [`UnknownPolicy::Reject`].
    UnknownRejected {
        /// How many values were unknown.
        unknown_values: usize,
    },
}

impl RecordError {
    /// The quarantine kind written next to the error in `predict`'s
    /// NDJSON and the daemon's `score` replies: `"structural"` or
    /// `"unknown-rejected"`.
    pub fn kind(&self) -> &'static str {
        match self {
            RecordError::Structural { .. } => "structural",
            RecordError::UnknownRejected { .. } => "unknown-rejected",
        }
    }
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Structural { detail } => write!(f, "Structural: {detail}"),
            RecordError::UnknownRejected { unknown_values } => write!(
                f,
                "UnknownRejected: record holds {unknown_values} unknown value(s) \
                 and the unknown-policy is reject"
            ),
        }
    }
}

impl std::error::Error for RecordError {}

/// How incoming columns map onto the stored schema, built once per
/// stream from its header by [`ServingModel::reconcile_header`].
#[derive(Debug, Clone)]
pub struct ColumnMap {
    /// For each stored attribute: position in the incoming record
    /// (`None` = missing, defaulted per policy).
    positions: Vec<Option<usize>>,
    /// Field count of the incoming header; records must match it.
    incoming_width: usize,
}

impl ColumnMap {
    /// Stored attributes whose column is missing from the incoming data.
    pub fn n_missing(&self) -> usize {
        self.positions.iter().filter(|p| p.is_none()).count()
    }

    /// Incoming columns that map to no stored attribute (ignored).
    pub fn n_extra(&self) -> usize {
        self.incoming_width - (self.positions.len() - self.n_missing())
    }
}

/// How an incoming [`Dataset`]'s columns and dictionary codes map onto
/// the stored schema, built once by [`ServingModel::reconcile_dataset`].
#[derive(Debug, Clone)]
pub struct DatasetMap {
    /// For each stored attribute: the incoming attribute index (`None` =
    /// missing, defaulted per policy).
    attrs: Vec<Option<usize>>,
    /// For each stored attribute: incoming dictionary code → stored code
    /// (`None` entries are unseen categories). Empty for numeric or
    /// missing attributes.
    code_maps: Vec<Vec<Option<u32>>>,
}

/// Scores new data against a loaded [`ModelArtifact`], reconciling it
/// with the stored training schema by attribute name.
#[derive(Debug, Clone)]
pub struct ServingModel {
    artifact: ModelArtifact,
    unknown_policy: UnknownPolicy,
    missing_policy: MissingColumnPolicy,
    sink: Arc<dyn TelemetrySink>,
}

impl ServingModel {
    /// Wraps an artifact with the default policies (`ConditionFalse`
    /// unknowns, `Reject` missing columns) and no telemetry.
    pub fn new(artifact: ModelArtifact) -> Self {
        ServingModel {
            artifact,
            unknown_policy: UnknownPolicy::default(),
            missing_policy: MissingColumnPolicy::default(),
            sink: pnr_telemetry::noop(),
        }
    }

    /// Sets the unknown-value policy.
    pub fn with_unknown_policy(mut self, policy: UnknownPolicy) -> Self {
        self.unknown_policy = policy;
        self
    }

    /// Sets the missing-column policy.
    pub fn with_missing_policy(mut self, policy: MissingColumnPolicy) -> Self {
        self.missing_policy = policy;
        self
    }

    /// Routes serving counters to `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn TelemetrySink>) -> Self {
        self.sink = sink;
        self
    }

    /// The wrapped artifact.
    pub fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    /// The active unknown-value policy.
    pub fn unknown_policy(&self) -> UnknownPolicy {
        self.unknown_policy
    }

    /// Maps an incoming CSV header onto the stored schema by name.
    /// Column order is free and extra columns are ignored; a stored
    /// attribute absent from the header is an error under
    /// [`MissingColumnPolicy::Reject`] and an all-unknown column under
    /// [`MissingColumnPolicy::Default`]. A header naming any column twice
    /// is an error, as it is to the CSV loader.
    pub fn reconcile_header<S: AsRef<str>>(
        &self,
        header: &[S],
    ) -> Result<ColumnMap, ArtifactError> {
        let mut seen = BTreeSet::new();
        if let Some(name) = header.iter().map(AsRef::as_ref).find(|h| !seen.insert(*h)) {
            return Err(ArtifactError::SchemaMismatch {
                detail: format!("incoming header names column `{name}` twice"),
            });
        }
        let mut positions = Vec::with_capacity(self.artifact.schema.n_attrs());
        let mut missing = Vec::new();
        for a in &self.artifact.schema.attributes {
            let pos = header.iter().position(|h| h.as_ref() == a.name);
            if pos.is_none() {
                missing.push(a.name.clone());
            }
            positions.push(pos);
        }
        if !missing.is_empty() && self.missing_policy == MissingColumnPolicy::Reject {
            return Err(ArtifactError::SchemaMismatch {
                detail: format!(
                    "incoming data is missing stored column(s) [{}] and the \
                     missing-column policy is reject",
                    missing.join(", ")
                ),
            });
        }
        Ok(ColumnMap {
            positions,
            incoming_width: header.len(),
        })
    }

    /// Maps an incoming [`Dataset`] onto the stored schema by attribute
    /// name. Beyond presence, types must agree (a name bound to a
    /// different type is a [`ArtifactError::SchemaMismatch`]); for
    /// categorical attributes a code-translation table is built so the
    /// incoming dataset's interning order does not matter.
    pub fn reconcile_dataset(&self, data: &Dataset) -> Result<DatasetMap, ArtifactError> {
        let schema = data.schema();
        let stored = &self.artifact.schema;
        let mut attrs = Vec::with_capacity(stored.n_attrs());
        let mut code_maps = Vec::with_capacity(stored.n_attrs());
        let mut missing = Vec::new();
        for sa in &stored.attributes {
            let found = schema.attr_index(&sa.name);
            match found {
                None => {
                    missing.push(sa.name.clone());
                    attrs.push(None);
                    code_maps.push(Vec::new());
                }
                Some(ia) => {
                    let incoming = schema.attr(ia);
                    if incoming.ty != sa.ty {
                        return Err(ArtifactError::SchemaMismatch {
                            detail: format!(
                                "attribute `{}` is {} in the incoming data but was \
                                 trained as {}",
                                sa.name,
                                type_name(incoming.ty),
                                type_name(sa.ty)
                            ),
                        });
                    }
                    attrs.push(Some(ia));
                    if sa.ty == AttrType::Categorical {
                        let map: Vec<Option<u32>> = incoming
                            .dict
                            .iter()
                            .map(|(_, value)| sa.dict.code(value))
                            .collect();
                        code_maps.push(map);
                    } else {
                        code_maps.push(Vec::new());
                    }
                }
            }
        }
        if !missing.is_empty() && self.missing_policy == MissingColumnPolicy::Reject {
            return Err(ArtifactError::SchemaMismatch {
                detail: format!(
                    "incoming data is missing stored column(s) [{}] and the \
                     missing-column policy is reject",
                    missing.join(", ")
                ),
            });
        }
        Ok(DatasetMap { attrs, code_maps })
    }

    /// Bumps `c` by one when telemetry is recording. Every serving-path
    /// counter goes through here: the `enabled()` gate keeps the default
    /// no-op sink free of dispatch so an un-instrumented scorer pays
    /// nothing per record.
    fn count(&self, c: Counter) {
        if self.sink.enabled() {
            self.sink.add(c, 1);
        }
    }

    /// Scores one record whose values are already reconciled into stored
    /// attribute order. The core serving primitive; the `score_fields` /
    /// `score_dataset_row` fronts feed it.
    pub fn score_values(&self, values: &[ServingValue]) -> Result<ScoredRecord, RecordError> {
        if values.len() != self.artifact.schema.n_attrs() {
            self.count(Counter::RowsQuarantined);
            return Err(RecordError::Structural {
                detail: format!(
                    "expected {} reconciled values, got {}",
                    self.artifact.schema.n_attrs(),
                    values.len()
                ),
            });
        }
        // Detect and count every fault first, before the policy decides.
        let mut unknown_values = 0usize;
        for v in values {
            let kind = match *v {
                ServingValue::Unknown(kind) => Some(kind),
                ServingValue::Num(x) if !x.is_finite() => Some(UnknownKind::NonFinite),
                _ => None,
            };
            if let Some(kind) = kind {
                unknown_values += 1;
                match kind {
                    UnknownKind::UnseenCategory => {
                        self.count(Counter::UnseenCategoryHits);
                    }
                    UnknownKind::NonFinite => {
                        self.count(Counter::NanNumericHits);
                    }
                    UnknownKind::MissingColumn => {}
                }
            }
        }
        if unknown_values > 0 {
            match self.unknown_policy {
                UnknownPolicy::Reject => {
                    self.count(Counter::RowsQuarantined);
                    return Err(RecordError::UnknownRejected { unknown_values });
                }
                UnknownPolicy::Abstain => {
                    self.count(Counter::RowsScored);
                    return Ok(ScoredRecord {
                        score: 0.0,
                        decision: false,
                        trace: RuleTrace::default(),
                        abstained: true,
                        unknown_values,
                    });
                }
                UnknownPolicy::ConditionFalse => {}
            }
        }
        let num = |attr: usize| match values.get(attr) {
            Some(ServingValue::Num(x)) if x.is_finite() => Some(*x),
            _ => None,
        };
        let cat = |attr: usize| match values.get(attr) {
            Some(ServingValue::Code(c)) => Some(*c),
            _ => None,
        };
        let model = &self.artifact.model;
        let (score, trace) = model.score_with_trace_lookup(num, cat);
        self.count(Counter::RowsScored);
        Ok(ScoredRecord {
            score,
            decision: score > model.threshold,
            trace,
            abstained: false,
            unknown_values,
        })
    }

    /// Scores one raw CSV record (already split into fields) through a
    /// header-derived [`ColumnMap`]. Wrong field counts and unparsable
    /// numeric fields are structural errors (the CSV loader's quarantine
    /// semantics); parseable-but-non-finite numerics (`NaN`, `inf`) are
    /// *unknown values* routed through the [`UnknownPolicy`].
    pub fn score_fields<S: AsRef<str>>(
        &self,
        fields: &[S],
        map: &ColumnMap,
    ) -> Result<ScoredRecord, RecordError> {
        if fields.len() != map.incoming_width {
            self.count(Counter::RowsQuarantined);
            return Err(RecordError::Structural {
                detail: format!(
                    "expected {} field(s) per the header, got {}",
                    map.incoming_width,
                    fields.len()
                ),
            });
        }
        let mut values = Vec::with_capacity(self.artifact.schema.n_attrs());
        for (attr, pos) in map.positions.iter().enumerate() {
            let a = self.artifact.schema.attr(attr);
            let value = match pos.and_then(|p| fields.get(p)) {
                None => ServingValue::Unknown(UnknownKind::MissingColumn),
                Some(raw) => {
                    let raw = raw.as_ref().trim();
                    match a.ty {
                        AttrType::Numeric => match raw.parse::<f64>() {
                            Err(_) => {
                                self.count(Counter::RowsQuarantined);
                                return Err(RecordError::Structural {
                                    detail: format!(
                                        "field `{raw}` of numeric attribute `{}` is \
                                         not a number",
                                        a.name
                                    ),
                                });
                            }
                            Ok(x) if x.is_finite() => ServingValue::Num(x),
                            Ok(_) => ServingValue::Unknown(UnknownKind::NonFinite),
                        },
                        AttrType::Categorical => match a.dict.code(raw) {
                            Some(code) => ServingValue::Code(code),
                            None => ServingValue::Unknown(UnknownKind::UnseenCategory),
                        },
                    }
                }
            };
            values.push(value);
        }
        self.score_values(&values)
    }

    /// Scores one row of a reconciled [`Dataset`]. Dataset construction
    /// already rejects non-finite numerics, so the drift handled here is
    /// column/category drift via the [`DatasetMap`].
    pub fn score_dataset_row(
        &self,
        data: &Dataset,
        map: &DatasetMap,
        row: usize,
    ) -> Result<ScoredRecord, RecordError> {
        let stored = &self.artifact.schema;
        let mut values = Vec::with_capacity(stored.n_attrs());
        for (attr, ia) in map.attrs.iter().enumerate() {
            let value = match *ia {
                None => ServingValue::Unknown(UnknownKind::MissingColumn),
                Some(ia) => match stored.attr(attr).ty {
                    AttrType::Numeric => {
                        let x = data.num(ia, row);
                        if x.is_finite() {
                            ServingValue::Num(x)
                        } else {
                            ServingValue::Unknown(UnknownKind::NonFinite)
                        }
                    }
                    AttrType::Categorical => {
                        let incoming_code = data.cat(ia, row);
                        match map
                            .code_maps
                            .get(attr)
                            .and_then(|m| m.get(usize::try_from(incoming_code).ok()?))
                        {
                            Some(Some(stored_code)) => ServingValue::Code(*stored_code),
                            _ => ServingValue::Unknown(UnknownKind::UnseenCategory),
                        }
                    }
                },
            };
            values.push(value);
        }
        self.score_values(&values)
    }

    /// Notes one structurally quarantined record the caller filtered out
    /// before scoring (e.g. the CSV stream's own row quarantine), so the
    /// `rows_quarantined` counter covers the whole stream.
    pub fn record_structural_quarantine(&self) {
        self.count(Counter::RowsQuarantined);
    }
}

fn type_name(ty: AttrType) -> &'static str {
    match ty {
        AttrType::Numeric => "numeric",
        AttrType::Categorical => "categorical",
    }
}
