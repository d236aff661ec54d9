//! PNrule: two-phase rule induction for rare classes.
//!
//! This crate implements the SIGMOD 2001 paper's contribution: a binary
//! classifier that *separately conquers* recall and precision.
//!
//! * The **P-phase** ([`pphase`]) runs sequential covering over the whole
//!   training set, favouring rules with high support even at reduced
//!   accuracy, until a user-specified fraction `rp` of the target class is
//!   covered. These P-rules detect the *presence* of the target class.
//! * The **N-phase** ([`nphase`]) pools every record covered by the union
//!   of P-rules — true positives and false positives together — and learns
//!   rules for the *absence* of the target class on that pooled set,
//!   guarded by a lower recall limit `rn` and an MDL stopping criterion.
//!   Pooling is what defeats the *splintered false positives* problem.
//! * The **scoring mechanism** ([`scoring`]) estimates, for every
//!   (P-rule, N-rule) combination, the probability that a matching record
//!   is truly a target, and selectively neutralises an N-rule for a given
//!   P-rule when its effect on that P-rule is statistically insignificant.
//!
//! # Quickstart
//!
//! ```
//! use pnr_data::{DatasetBuilder, AttrType, Value};
//! use pnr_core::{PnruleLearner, PnruleParams};
//! use pnr_rules::BinaryClassifier;
//!
//! // target records hide at x ∈ (40, 60] but only when k = "ftp"
//! let mut b = DatasetBuilder::new();
//! b.add_attribute("x", AttrType::Numeric);
//! b.add_attribute("k", AttrType::Categorical);
//! for i in 0..400 {
//!     let x = (i % 100) as f64;
//!     let k = if i % 4 == 0 { "ftp" } else { "http" };
//!     let target = (40.0..60.0).contains(&x) && k == "ftp";
//!     b.push_row(&[Value::num(x), Value::cat(k)], if target { "rare" } else { "rest" }, 1.0)
//!         .unwrap();
//! }
//! let data = b.finish();
//! let target = data.class_code("rare").unwrap();
//! let model = PnruleLearner::new(PnruleParams::default()).fit(&data, target);
//! let correct = (0..data.n_rows())
//!     .filter(|&r| model.predict(&data, r) == (data.label(r) == target))
//!     .count();
//! assert!(correct as f64 / data.n_rows() as f64 > 0.95);
//! ```

pub mod artifact;
pub mod compiled;
pub mod exit;
pub mod grow;
pub mod learn;
pub mod model;
pub mod multiclass;
pub mod nphase;
pub mod panic_capture;
pub mod params;
pub mod pphase;
pub mod retry;
pub mod scoring;
pub mod serving;
pub mod tune;
pub mod windowed;

pub use artifact::{
    is_transient_io, load_with_retry, retry_transient, ArtifactError, ArtifactLineage,
    ModelArtifact, RetryPolicy, FORMAT_VERSION,
};
pub use compiled::{CompiledModel, CompiledScorer};
pub use grow::{grow_rule, GrowOptions, GrownRule, RecallGuard};
pub use learn::{FitReport, PnruleLearner};
pub use model::{PnruleModel, RuleTrace};
pub use multiclass::MultiClassPnrule;
pub use nphase::{learn_n_rules_with_sink, NPhaseResult, NRule, StopReason};
pub use params::PnruleParams;
pub use pnr_rules::{BudgetTracker, FitBudget};
pub use pphase::{learn_p_rules_with_sink, PPhaseResult, PRule};
pub use retry::{Backoff, RetryError};
pub use scoring::ScoreMatrix;
pub use serving::{
    ColumnMap, DatasetMap, MissingColumnPolicy, RecordError, ScoredRecord, ServingModel,
    ServingValue, UnknownKind, UnknownPolicy,
};
pub use tune::{fit_auto, prune_n_rules, AutoTuneOptions};
pub use windowed::{recall_on, refit_window, RefitError, RefitEval, RefitOptions};
