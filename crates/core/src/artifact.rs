//! Versioned, checksummed on-disk model artifacts.
//!
//! A [`ModelArtifact`] bundles everything needed to score new data long
//! after the training run is gone: the format version, the learner
//! parameters, the fit diagnostics, the trained model and a full schema
//! descriptor (attribute names, types and every categorical dictionary).
//! The file layout is a plain-text integrity envelope around a JSON
//! payload:
//!
//! ```text
//! <16 lowercase hex digits: FNV-1a 64 of everything after this line>\n
//! pnrule-artifact v<format version>\n
//! <compact JSON of the artifact body>
//! ```
//!
//! The checksum is verified *first* and covers the whole payload,
//! including the magic/version line — so flipping any single byte of a
//! saved artifact surfaces as [`ArtifactError::ChecksumMismatch`], never
//! as a panic, a JSON parse error or a silently different model.
//! [`ArtifactError::UnsupportedVersion`] is only reachable through an
//! intact file whose checksum verifies.
//!
//! Writes go through [`pnr_data::write_atomic`], so a crash mid-save
//! leaves either the old artifact or none at all.

use crate::learn::FitReport;
use crate::model::PnruleModel;
use crate::params::PnruleParams;
use pnr_data::fingerprint::fnv1a_64;
use pnr_data::{AttrType, Schema};
use pnr_rules::Condition;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// The artifact format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;

/// Magic prefix of the payload's first line.
const MAGIC: &str = "pnrule-artifact v";

/// Why an artifact failed to load. Display strings start with the variant
/// name so scripts can classify failures by grepping stderr.
#[derive(Debug)]
pub enum ArtifactError {
    /// The stored checksum does not match the payload (or the checksum
    /// line itself is damaged): the file was corrupted after writing.
    ChecksumMismatch,
    /// The file is intact but written by an unknown (newer) format
    /// version.
    UnsupportedVersion {
        /// The version the file declares.
        found: u32,
    },
    /// Incoming data cannot be reconciled against the stored schema.
    SchemaMismatch {
        /// Human-readable description of the incompatibility.
        detail: String,
    },
    /// The file is not a well-formed artifact (bad magic, invalid JSON,
    /// or internally inconsistent content).
    Malformed {
        /// What exactly is wrong.
        detail: String,
    },
    /// The model holds a non-finite numeric threshold (NaN or ±∞). JSON
    /// has no representation for these — serde renders them as `null` —
    /// so a saved artifact would silently fail to reload (or worse,
    /// change meaning); saving is refused instead.
    NonFiniteThreshold {
        /// Which rule list, `"P"` or `"N"`.
        list: &'static str,
        /// Rank of the offending rule.
        rule: usize,
    },
    /// The file could not be read or written.
    Io(io::Error),
    /// A bounded retry loop exhausted its attempts on transient I/O
    /// failures; `last` is the error of the final attempt.
    RetriesExhausted {
        /// How many attempts were made before giving up.
        attempts: u32,
        /// The error of the last attempt.
        last: Box<ArtifactError>,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::ChecksumMismatch => write!(
                f,
                "ChecksumMismatch: artifact checksum does not match its payload \
                 (the file was corrupted after writing)"
            ),
            ArtifactError::UnsupportedVersion { found } => write!(
                f,
                "UnsupportedVersion: artifact format v{found} is newer than the \
                 supported v{FORMAT_VERSION}"
            ),
            ArtifactError::SchemaMismatch { detail } => {
                write!(f, "SchemaMismatch: {detail}")
            }
            ArtifactError::Malformed { detail } => write!(f, "Malformed: {detail}"),
            ArtifactError::NonFiniteThreshold { list, rule } => write!(
                f,
                "NonFiniteThreshold: {list}-rule {rule} holds a NaN or infinite \
                 numeric threshold, which a JSON artifact cannot represent"
            ),
            ArtifactError::Io(e) => write!(f, "Io: {e}"),
            ArtifactError::RetriesExhausted { attempts, last } => write!(
                f,
                "RetriesExhausted: gave up after {attempts} attempt(s); last error: {last}"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            ArtifactError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// Provenance of a refit artifact: which artifact it was refit from,
/// which serving-stat window triggered the refit, and the drift verdict
/// that signalled it. Absent (`None`) on artifacts trained from scratch;
/// `#[serde(default)]` keeps every pre-lineage artifact loadable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtifactLineage {
    /// Envelope checksum (16 lowercase hex digits) of the parent artifact
    /// file this model was refit from. The daemon's hot-swap refuses a
    /// lineaged candidate whose parent is not the artifact it is serving.
    pub parent_checksum: String,
    /// Id of the drift window that triggered the refit.
    pub window_id: u64,
    /// The drift verdict that signalled the refit (normally `"refit"`).
    pub verdict: String,
}

/// The serialized body of an artifact (everything under the envelope).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ArtifactBody {
    params: PnruleParams,
    report: FitReport,
    model: PnruleModel,
    schema: Schema,
    /// Fingerprint of `schema` at save time; cross-checked on load so an
    /// internally inconsistent writer cannot slip through the envelope.
    schema_fingerprint: u64,
    /// Name of the target class (`schema.classes` code `model.target`),
    /// stored redundantly for human inspection of the raw file.
    target_class: String,
    /// Refit provenance; absent on from-scratch artifacts and on files
    /// written before lineage existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    lineage: Option<ArtifactLineage>,
}

/// A trained PNrule model plus everything needed to score new data
/// against it: learner parameters, fit diagnostics and the full training
/// schema.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    /// Learner parameters the model was trained with.
    pub params: PnruleParams,
    /// Diagnostics of the fit that produced the model.
    pub report: FitReport,
    /// The trained model.
    pub model: PnruleModel,
    /// The training schema: attribute names, types, category dictionaries
    /// and class labels. Serving-time reconciliation is driven by this.
    pub schema: Schema,
    /// Refit provenance (parent checksum, window id, verdict); `None` for
    /// models trained from scratch.
    pub lineage: Option<ArtifactLineage>,
}

impl ModelArtifact {
    /// Bundles a trained model with its provenance. The schema must be
    /// the one the model was trained against; this is checked (conditions
    /// must reference valid attributes and dictionary codes) so an
    /// artifact can never be *saved* in a state that would fail to load.
    pub fn new(
        model: PnruleModel,
        params: PnruleParams,
        report: FitReport,
        schema: Schema,
    ) -> Result<Self, ArtifactError> {
        let artifact = ModelArtifact {
            params,
            report,
            model,
            schema,
            lineage: None,
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// Attaches refit provenance (builder-style).
    pub fn with_lineage(mut self, lineage: ArtifactLineage) -> Self {
        self.lineage = Some(lineage);
        self
    }

    /// Name of the target class in the stored schema.
    pub fn target_class(&self) -> &str {
        self.schema.classes.name(self.model.target)
    }

    /// The envelope checksum (16 lowercase hex digits) this artifact
    /// would carry on disk — the digest a child refit records as its
    /// `parent_checksum`.
    pub fn checksum(&self) -> Result<String, ArtifactError> {
        let text = self.to_file_string()?;
        match text.split_once('\n') {
            Some((line, _)) => Ok(line.to_string()),
            None => Err(ArtifactError::Malformed {
                detail: "rendered artifact has no envelope line".to_string(),
            }),
        }
    }

    /// Fingerprint of the stored schema (see [`Schema::fingerprint`]).
    pub fn schema_fingerprint(&self) -> u64 {
        self.schema.fingerprint()
    }

    /// Checks internal consistency: the learner parameters must be in
    /// range, every rule condition must reference an in-range attribute
    /// of the right type (with an in-dictionary code for categorical
    /// equalities) and carry only finite numeric thresholds, the score
    /// matrix must be sized for the rule lists, and the target class must
    /// exist.
    fn validate(&self) -> Result<(), ArtifactError> {
        let malformed = |detail: String| ArtifactError::Malformed { detail };
        if let Some(problem) = self.params.validation_error() {
            return Err(malformed(format!("params: {problem}")));
        }
        let target = usize::try_from(self.model.target)
            .map_err(|_| malformed("target class code does not fit usize".to_string()))?;
        if target >= self.schema.n_classes() {
            return Err(malformed(format!(
                "target class code {target} out of range for {} classes",
                self.schema.n_classes()
            )));
        }
        for (list, rules) in [
            ("P", self.model.p_rules.rules()),
            ("N", self.model.n_rules.rules()),
        ] {
            for (ri, rule) in rules.iter().enumerate() {
                for cond in rule.conditions() {
                    let attr = cond.attr();
                    if attr >= self.schema.n_attrs() {
                        return Err(malformed(format!(
                            "{list}-rule {ri} references attribute {attr} but the \
                             schema has {} attributes",
                            self.schema.n_attrs()
                        )));
                    }
                    let a = self.schema.attr(attr);
                    match *cond {
                        Condition::CatEq { value, .. } => {
                            if a.ty != AttrType::Categorical {
                                return Err(malformed(format!(
                                    "{list}-rule {ri} tests category equality on \
                                     numeric attribute `{}`",
                                    a.name
                                )));
                            }
                            let code = usize::try_from(value).map_err(|_| {
                                malformed("dictionary code does not fit usize".to_string())
                            })?;
                            if code >= a.dict.len() {
                                return Err(malformed(format!(
                                    "{list}-rule {ri} references code {code} of \
                                     attribute `{}` but its dictionary has {} values",
                                    a.name,
                                    a.dict.len()
                                )));
                            }
                        }
                        Condition::NumLe { value, .. } | Condition::NumGt { value, .. } => {
                            if a.ty != AttrType::Numeric {
                                return Err(malformed(format!(
                                    "{list}-rule {ri} tests a numeric threshold on \
                                     categorical attribute `{}`",
                                    a.name
                                )));
                            }
                            if !value.is_finite() {
                                return Err(ArtifactError::NonFiniteThreshold { list, rule: ri });
                            }
                        }
                        Condition::NumRange { lo, hi, .. } => {
                            if a.ty != AttrType::Numeric {
                                return Err(malformed(format!(
                                    "{list}-rule {ri} tests a numeric threshold on \
                                     categorical attribute `{}`",
                                    a.name
                                )));
                            }
                            if !(lo.is_finite() && hi.is_finite()) {
                                return Err(ArtifactError::NonFiniteThreshold { list, rule: ri });
                            }
                        }
                    }
                }
            }
        }
        let sm = &self.model.score_matrix;
        if sm.n_p() != self.model.p_rules.len() || sm.n_n() != self.model.n_rules.len() {
            return Err(malformed(format!(
                "score matrix is {}x{} but the model has {} P-rules and {} N-rules",
                sm.n_p(),
                sm.n_n(),
                self.model.p_rules.len(),
                self.model.n_rules.len()
            )));
        }
        let cells = sm.n_p() * (sm.n_n() + 1);
        if sm.n_cells() != cells {
            return Err(malformed(format!(
                "score matrix holds {} cells but a {}x{} matrix has {cells}",
                sm.n_cells(),
                sm.n_p(),
                sm.n_n() + 1
            )));
        }
        Ok(())
    }

    /// Renders the artifact to its on-disk text form: checksum line,
    /// magic/version line, compact JSON body.
    ///
    /// Validates first — the fields are public, so an artifact assembled
    /// without [`Self::new`] could otherwise write a file that fails to
    /// load. In particular a non-finite numeric threshold is refused here
    /// ([`ArtifactError::NonFiniteThreshold`]) because JSON would render
    /// it as `null` and the round-trip would fail only at load time.
    pub fn to_file_string(&self) -> Result<String, ArtifactError> {
        self.validate()?;
        let body = ArtifactBody {
            params: self.params.clone(),
            report: self.report.clone(),
            model: self.model.clone(),
            schema: self.schema.clone(),
            schema_fingerprint: self.schema.fingerprint(),
            target_class: self.target_class().to_string(),
            lineage: self.lineage.clone(),
        };
        let json = serde_json::to_string(&body).map_err(|e| ArtifactError::Malformed {
            detail: format!("artifact body failed to serialize: {e}"),
        })?;
        let payload = format!("{MAGIC}{FORMAT_VERSION}\n{json}");
        Ok(format!("{:016x}\n{payload}", fnv1a_64(payload.as_bytes())))
    }

    /// Parses an artifact from raw file bytes. Corruption that breaks
    /// the UTF-8 encoding is still a checksum question, not an encoding
    /// question: the envelope is verified over the raw payload bytes, so
    /// a flipped high bit reports [`ArtifactError::ChecksumMismatch`]
    /// exactly like any other flipped bit.
    pub fn from_file_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        match std::str::from_utf8(bytes) {
            Ok(text) => Self::from_file_str(text),
            Err(_) => {
                if Self::envelope_verifies(bytes) {
                    // unreachable for files written by `save` (which only
                    // writes UTF-8), but classify it honestly
                    Err(ArtifactError::Malformed {
                        detail: "artifact payload is not valid UTF-8".to_string(),
                    })
                } else {
                    Err(ArtifactError::ChecksumMismatch)
                }
            }
        }
    }

    /// Whether `bytes` carry a well-formed checksum line whose value
    /// matches the digest of the remaining payload bytes.
    fn envelope_verifies(bytes: &[u8]) -> bool {
        let Some(pos) = bytes.iter().position(|&b| b == b'\n') else {
            return false;
        };
        let (line, payload) = (&bytes[..pos], &bytes[pos + 1..]);
        let strict_hex = line.len() == 16
            && line
                .iter()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(b));
        if !strict_hex {
            return false;
        }
        let Ok(line) = std::str::from_utf8(line) else {
            return false;
        };
        matches!(u64::from_str_radix(line, 16), Ok(v) if v == fnv1a_64(payload))
    }

    /// Parses an artifact from its on-disk text form. See the module docs
    /// for the exact error taxonomy; this never panics on any input.
    pub fn from_file_str(text: &str) -> Result<Self, ArtifactError> {
        let malformed = |detail: &str| ArtifactError::Malformed {
            detail: detail.to_string(),
        };
        if text.is_empty() {
            return Err(malformed("artifact file is empty"));
        }
        // 1. Integrity envelope: first line must be 16 hex digits whose
        //    value matches the digest of everything after the newline. A
        //    damaged checksum line is itself a checksum mismatch — the
        //    envelope cannot be verified.
        let (checksum_line, payload) = match text.split_once('\n') {
            Some(parts) => parts,
            None => return Err(ArtifactError::ChecksumMismatch),
        };
        let strict_hex = checksum_line.len() == 16
            && checksum_line
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
        let stored = match u64::from_str_radix(checksum_line, 16) {
            // require exactly the 16 lowercase digits we write, so a case
            // flip inside the checksum line cannot load silently
            Ok(v) if strict_hex => v,
            _ => return Err(ArtifactError::ChecksumMismatch),
        };
        if fnv1a_64(payload.as_bytes()) != stored {
            return Err(ArtifactError::ChecksumMismatch);
        }
        // 2. Magic and version: only reachable with a verified payload.
        let (header, json) = payload
            .split_once('\n')
            .ok_or_else(|| malformed("artifact payload has no body"))?;
        let version_str = header
            .strip_prefix(MAGIC)
            .ok_or_else(|| malformed("artifact payload does not start with the magic line"))?;
        let version: u32 = version_str
            .trim()
            .parse()
            .map_err(|_| malformed("artifact version is not a number"))?;
        if version != FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion { found: version });
        }
        // 3. Body.
        let mut body: ArtifactBody =
            serde_json::from_str(json).map_err(|e| ArtifactError::Malformed {
                detail: format!("artifact body is not valid JSON: {e}"),
            })?;
        body.schema.rebuild_indexes();
        if body.schema.fingerprint() != body.schema_fingerprint {
            return Err(malformed(
                "stored schema fingerprint does not match the stored schema",
            ));
        }
        let artifact = ModelArtifact {
            params: body.params,
            report: body.report,
            model: body.model,
            schema: body.schema,
            lineage: body.lineage,
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// Writes the artifact atomically ([`pnr_data::write_atomic`]).
    /// Readers never see a partially written file.
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        let text = self.to_file_string()?;
        pnr_data::write_atomic(path, text.as_bytes())?;
        Ok(())
    }

    /// Reads and verifies an artifact from disk.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let bytes = fs::read(path)?;
        Self::from_file_bytes(&bytes)
    }
}

/// Bounded exponential backoff over transient failures (see
/// [`load_with_retry`]). Delays are `base_delay * 2^i`, capped at
/// `max_delay`; the total attempt count is `attempts`. This is a thin
/// un-jittered view over [`crate::retry::Backoff`], kept for the
/// artifact API's stability; new callers wanting jitter should build a
/// `Backoff` directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (including the first); at least 1 is always made.
    pub attempts: u32,
    /// Delay before the first retry.
    pub base_delay: std::time::Duration,
    /// Upper bound on any single delay.
    pub max_delay: std::time::Duration,
}

impl Default for RetryPolicy {
    /// 4 attempts, 10 ms → 20 ms → 40 ms backoff (max 200 ms): long
    /// enough to ride out an editor/publisher replacing the file, short
    /// enough that a hot-swap control command stays interactive.
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_delay: std::time::Duration::from_millis(10),
            max_delay: std::time::Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// The equivalent (un-jittered) [`crate::retry::Backoff`] schedule.
    pub fn backoff(&self) -> crate::retry::Backoff {
        crate::retry::Backoff::new(self.attempts, self.base_delay, self.max_delay)
    }

    /// The delay before retry number `i` (0-based), with saturating
    /// exponential growth capped at `max_delay`.
    pub fn delay(&self, i: u32) -> std::time::Duration {
        self.backoff().delay(i)
    }
}

/// Whether an I/O failure is worth retrying: the classes of error that a
/// moment of contention can produce and a moment of patience can cure.
/// Anything else (not found, permission denied, corruption) is
/// deterministic and retried loading would only delay the real report.
pub fn is_transient_io(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Runs `op` under `policy`: transient failures (per `transient`) are
/// retried with exponential backoff through [`crate::retry::run`]; the
/// first non-transient failure is returned as-is; exhausting every
/// attempt on transient failures yields
/// [`ArtifactError::RetriesExhausted`] wrapping the last error.
pub fn retry_transient<T>(
    policy: &RetryPolicy,
    transient: impl FnMut(&ArtifactError) -> bool,
    mut op: impl FnMut() -> Result<T, ArtifactError>,
) -> Result<T, ArtifactError> {
    crate::retry::run(&policy.backoff(), transient, |_attempt| op()).map_err(|e| match e {
        crate::retry::RetryError::Fatal(e) => e,
        crate::retry::RetryError::Exhausted { attempts, last } => ArtifactError::RetriesExhausted {
            attempts,
            last: Box::new(last),
        },
    })
}

/// [`ModelArtifact::load`] with bounded retries over *transient* I/O
/// errors ([`is_transient_io`]): interrupted reads, timeouts and
/// would-block conditions back off exponentially per `policy`; a
/// deterministic failure (missing file, corruption, version skew) is
/// reported immediately. This is the load every long-running caller —
/// the serving daemon's hot-swap path and the `predict` binary — goes
/// through, so a busy filesystem cannot fail a swap that one more read
/// would have served.
pub fn load_with_retry(path: &Path, policy: &RetryPolicy) -> Result<ModelArtifact, ArtifactError> {
    retry_transient(
        policy,
        |e| matches!(e, ArtifactError::Io(io) if is_transient_io(io)),
        || ModelArtifact::load(path),
    )
}

/// Reads just the envelope checksum (the first line, 16 lowercase hex
/// digits) of an artifact file, verifying it against the payload first —
/// so the returned digest is a trustworthy identity, not whatever bytes
/// happened to head a corrupt file. This is how swap lineage is checked
/// without deserializing the whole parent artifact.
pub fn file_checksum(path: &Path) -> Result<String, ArtifactError> {
    let bytes = fs::read(path)?;
    if !ModelArtifact::envelope_verifies(&bytes) {
        return Err(ArtifactError::ChecksumMismatch);
    }
    // envelope_verifies guarantees a 16-byte ASCII-hex first line
    match bytes.split(|&b| b == b'\n').next() {
        Some(line) => Ok(String::from_utf8_lossy(line).into_owned()),
        None => Err(ArtifactError::ChecksumMismatch),
    }
}
