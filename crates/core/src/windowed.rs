//! Windowed refit: the core entry point the drift-refit loop calls.
//!
//! Given a labelled window of recent traffic and the currently-serving
//! (last-known-good) artifact, [`refit_window`] fits a candidate model on
//! the window — under whatever [`FitBudget`](pnr_rules::FitBudget) the
//! caller put in its params — then **validates** it: target-class recall
//! on a held-back slice of the window must not regress more than
//! `recall_tolerance` below the baseline artifact's recall on the same
//! slice. Only a validated candidate is returned; every failure mode
//! (no target rows, fit panic, recall regression) is a typed
//! [`RefitError`] so the supervisor can log it and keep the
//! last-known-good model serving.
//!
//! The split is deterministic: every `holdout_stride`-th row of the
//! window is held back for validation and never shown to the fit, so a
//! refit is reproducible from the window alone — no RNG, no wall clock.

use crate::artifact::{ArtifactError, ModelArtifact};
use crate::learn::PnruleLearner;
use crate::params::PnruleParams;
use crate::serving::ServingModel;
use pnr_data::{AttrType, Dataset, DatasetBuilder, Value};
use pnr_telemetry::{Span, SpanKind, TelemetrySink};
use std::fmt;
use std::sync::Arc;

/// How a windowed refit splits and judges its window.
#[derive(Debug, Clone)]
pub struct RefitOptions {
    /// Learner parameters for the candidate fit (including its
    /// `FitBudget`). Defaults to the baseline artifact's own params when
    /// `None`.
    pub params: Option<PnruleParams>,
    /// Every `holdout_stride`-th window row is held back for validation
    /// (never trained on). Must be ≥ 2.
    pub holdout_stride: usize,
    /// How far candidate recall may fall below baseline recall on the
    /// held-back slice before the candidate is rejected.
    pub recall_tolerance: f64,
    /// Minimum target-class rows the *training* slice must hold; a
    /// thinner window cannot support a rare-class fit.
    pub min_target_rows: usize,
}

impl Default for RefitOptions {
    fn default() -> Self {
        RefitOptions {
            params: None,
            holdout_stride: 5,
            recall_tolerance: 0.05,
            min_target_rows: 10,
        }
    }
}

/// Validation outcome of a refit candidate, reported alongside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefitEval {
    /// Candidate target-class recall on the held-back slice.
    pub candidate_recall: f64,
    /// Baseline (last-known-good) recall on the same slice.
    pub baseline_recall: f64,
    /// Rows the candidate trained on.
    pub train_rows: usize,
    /// Rows held back for validation.
    pub holdout_rows: usize,
    /// Target-class rows among the held-back slice.
    pub holdout_targets: usize,
}

/// Why a windowed refit produced no candidate. Display strings start
/// with the variant name (the workspace's grep-able convention).
#[derive(Debug)]
pub enum RefitError {
    /// The window's schema has no class of the requested name.
    TargetMissing {
        /// The class that was asked for.
        target: String,
    },
    /// The training slice holds too few target rows to fit from.
    TooFewTargetRows {
        /// Target rows present in the training slice.
        have: usize,
        /// The configured minimum.
        need: usize,
    },
    /// `holdout_stride` < 2 — no rows would be held back (or none
    /// trained on), so validation would be vacuous.
    BadHoldoutStride {
        /// The stride that was passed.
        stride: usize,
    },
    /// The fit panicked; the panic was contained here.
    FitPanicked {
        /// The panic payload, stringified.
        detail: String,
    },
    /// The candidate regressed target-class recall on the held-back
    /// slice beyond the configured tolerance.
    RecallRegression {
        /// Candidate recall on the holdout.
        candidate: f64,
        /// Baseline recall on the holdout.
        baseline: f64,
        /// The tolerance that was exceeded.
        tolerance: f64,
    },
    /// Artifact assembly or schema reconciliation failed.
    Artifact(ArtifactError),
}

impl fmt::Display for RefitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefitError::TargetMissing { target } => {
                write!(f, "TargetMissing: window has no class named `{target}`")
            }
            RefitError::TooFewTargetRows { have, need } => write!(
                f,
                "TooFewTargetRows: training slice holds {have} target row(s), need {need}"
            ),
            RefitError::BadHoldoutStride { stride } => write!(
                f,
                "BadHoldoutStride: holdout stride {stride} leaves nothing to train or validate on"
            ),
            RefitError::FitPanicked { detail } => write!(f, "FitPanicked: {detail}"),
            RefitError::RecallRegression {
                candidate,
                baseline,
                tolerance,
            } => write!(
                f,
                "RecallRegression: candidate recall {candidate:.4} vs baseline {baseline:.4} \
                 exceeds tolerance {tolerance:.4}"
            ),
            RefitError::Artifact(e) => write!(f, "Artifact: {e}"),
        }
    }
}

impl std::error::Error for RefitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RefitError::Artifact(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArtifactError> for RefitError {
    fn from(e: ArtifactError) -> Self {
        RefitError::Artifact(e)
    }
}

/// Copies the rows of `data` selected by `keep(row)` into a fresh
/// dataset with byte-identical schema (attribute order, dictionary
/// codes and class codes all pre-registered from the source), so rule
/// conditions learned on a slice are meaningful on the whole.
fn select_rows(data: &Dataset, mut keep: impl FnMut(usize) -> bool) -> Result<Dataset, RefitError> {
    let schema = data.schema();
    let mut b = DatasetBuilder::new();
    for a in &schema.attributes {
        b.add_attribute(a.name.clone(), a.ty);
    }
    for (ai, a) in schema.attributes.iter().enumerate() {
        if a.ty == AttrType::Categorical {
            for code in 0..a.dict.len() {
                let code = u32::try_from(code).map_err(|_| {
                    RefitError::Artifact(ArtifactError::Malformed {
                        detail: "dictionary code does not fit u32".to_string(),
                    })
                })?;
                b.add_cat_value(ai, a.dict.name(code));
            }
        }
    }
    for class in 0..schema.n_classes() {
        let class = u32::try_from(class).map_err(|_| {
            RefitError::Artifact(ArtifactError::Malformed {
                detail: "class code does not fit u32".to_string(),
            })
        })?;
        b.add_class(schema.classes.name(class));
    }
    let mut values = Vec::with_capacity(schema.n_attrs());
    for row in 0..data.n_rows() {
        if !keep(row) {
            continue;
        }
        values.clear();
        for (ai, a) in schema.attributes.iter().enumerate() {
            values.push(match a.ty {
                AttrType::Numeric => Value::num(data.num(ai, row)),
                AttrType::Categorical => Value::cat(data.cat_name(ai, row)),
            });
        }
        b.push_row(
            &values,
            schema.classes.name(data.label(row)),
            data.weight(row),
        )
        .map_err(|e| {
            RefitError::Artifact(ArtifactError::Malformed {
                detail: format!("window row {row} failed to copy: {e}"),
            })
        })?;
    }
    Ok(b.finish())
}

/// Target-class recall of `model` over every row of `data`: the fraction
/// of target-labelled rows the model decided positive. Rows the serving
/// layer refuses to score count as misses — a model that quarantines the
/// target class has not recalled it.
pub fn recall_on(model: &ServingModel, data: &Dataset, target: u32) -> Result<f64, ArtifactError> {
    let map = model.reconcile_dataset(data)?;
    let mut targets = 0usize;
    let mut hits = 0usize;
    for row in 0..data.n_rows() {
        if data.label(row) != target {
            continue;
        }
        targets += 1;
        if let Ok(rec) = model.score_dataset_row(data, &map, row) {
            if rec.decision {
                hits += 1;
            }
        }
    }
    if targets == 0 {
        return Ok(0.0);
    }
    let targets_f = u32::try_from(targets).map(f64::from).unwrap_or(f64::MAX);
    let hits_f = u32::try_from(hits).map(f64::from).unwrap_or(f64::MAX);
    Ok(hits_f / targets_f)
}

/// Fits a refit candidate on `window` and validates it against the
/// baseline. See the module docs for the contract; on success the
/// returned artifact carries **no lineage yet** — the caller stamps
/// lineage (parent checksum, window id, verdict) before saving, because
/// only the caller knows which on-disk file is the parent.
pub fn refit_window(
    window: &Dataset,
    target_class: &str,
    baseline: &ServingModel,
    opts: &RefitOptions,
    sink: &Arc<dyn TelemetrySink>,
) -> Result<(ModelArtifact, RefitEval), RefitError> {
    if opts.holdout_stride < 2 {
        return Err(RefitError::BadHoldoutStride {
            stride: opts.holdout_stride,
        });
    }
    let target = window
        .class_code(target_class)
        .ok_or_else(|| RefitError::TargetMissing {
            target: target_class.to_string(),
        })?;
    let stride = opts.holdout_stride;
    let is_holdout = |row: usize| row % stride == stride - 1;
    let train = select_rows(window, |r| !is_holdout(r))?;
    let holdout = select_rows(window, is_holdout)?;
    let train_targets = train.labels().iter().filter(|&&l| l == target).count();
    if train_targets < opts.min_target_rows {
        return Err(RefitError::TooFewTargetRows {
            have: train_targets,
            need: opts.min_target_rows,
        });
    }

    let params = opts
        .params
        .clone()
        .unwrap_or_else(|| baseline.artifact().params.clone());
    let fitted = {
        let _span = Span::enter(sink.as_ref(), SpanKind::RefitFit, target_class);
        // The learner is built inside the catch too: out-of-range params
        // panic in `PnruleLearner::new`, and that must stay a typed
        // `FitPanicked`, not take the caller down.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            PnruleLearner::new(params.clone())
                .with_sink(Arc::clone(sink))
                .fit_with_report(&train, target)
        }))
    };
    let (model, report) = match fitted {
        Ok(v) => v,
        Err(payload) => {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            return Err(RefitError::FitPanicked { detail });
        }
    };
    let candidate = ModelArtifact::new(model, params, report, window.schema().clone())?;

    let eval = {
        let _span = Span::enter(sink.as_ref(), SpanKind::RefitValidate, target_class);
        let candidate_serving = ServingModel::new(candidate.clone());
        let candidate_recall = recall_on(&candidate_serving, &holdout, target)?;
        let holdout_target_code = holdout.class_code(target_class).unwrap_or(target);
        let baseline_recall = recall_on(baseline, &holdout, holdout_target_code)?;
        RefitEval {
            candidate_recall,
            baseline_recall,
            train_rows: train.n_rows(),
            holdout_rows: holdout.n_rows(),
            holdout_targets: holdout
                .labels()
                .iter()
                .filter(|&&l| l == holdout_target_code)
                .count(),
        }
    };
    if eval.candidate_recall + opts.recall_tolerance < eval.baseline_recall {
        return Err(RefitError::RecallRegression {
            candidate: eval.candidate_recall,
            baseline: eval.baseline_recall,
            tolerance: opts.recall_tolerance,
        });
    }
    Ok((candidate, eval))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_data::{AttrType, DatasetBuilder, Value};

    /// A window where the target hides at x > 50 under k = "ftp".
    fn window(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("k", AttrType::Categorical);
        for i in 0..n {
            let x = f64::from(u32::try_from(i % 100).unwrap_or(0));
            let k = if i % 3 == 0 { "ftp" } else { "http" };
            let target = x > 50.0 && k == "ftp";
            b.push_row(
                &[Value::num(x), Value::cat(k)],
                if target { "rare" } else { "rest" },
                1.0,
            )
            .unwrap();
        }
        b.finish()
    }

    fn baseline_artifact(data: &Dataset) -> ModelArtifact {
        let target = data.class_code("rare").unwrap();
        let learner = PnruleLearner::new(PnruleParams::default());
        let (model, report) = learner.fit_with_report(data, target);
        ModelArtifact::new(
            model,
            PnruleParams::default(),
            report,
            data.schema().clone(),
        )
        .unwrap()
    }

    #[test]
    fn select_rows_preserves_schema_and_codes() {
        let data = window(90);
        let every_third = select_rows(&data, |r| r % 3 == 0).unwrap();
        assert_eq!(every_third.n_rows(), 30);
        assert_eq!(
            every_third.schema().fingerprint(),
            data.schema().fingerprint(),
            "pre-registered schema must be byte-identical to the source"
        );
        assert_eq!(every_third.label(0), data.label(0));
        assert_eq!(every_third.num(0, 1), data.num(0, 3));
    }

    #[test]
    fn refit_on_the_same_distribution_validates() {
        let data = window(600);
        let baseline = ServingModel::new(baseline_artifact(&data));
        let (candidate, eval) = refit_window(
            &data,
            "rare",
            &baseline,
            &RefitOptions::default(),
            &pnr_telemetry::noop(),
        )
        .unwrap();
        assert!(eval.candidate_recall >= eval.baseline_recall - 0.05);
        assert!(eval.holdout_rows > 0 && eval.train_rows > 0);
        assert_eq!(eval.holdout_rows + eval.train_rows, 600);
        assert!(candidate.lineage.is_none(), "lineage is the caller's job");
        assert_eq!(candidate.target_class(), "rare");
    }

    #[test]
    fn thin_windows_are_refused() {
        let data = window(90);
        let baseline = ServingModel::new(baseline_artifact(&data));
        let opts = RefitOptions {
            min_target_rows: 1000,
            ..RefitOptions::default()
        };
        let err =
            refit_window(&data, "rare", &baseline, &opts, &pnr_telemetry::noop()).unwrap_err();
        assert!(matches!(err, RefitError::TooFewTargetRows { .. }), "{err}");
    }

    #[test]
    fn missing_target_class_is_typed() {
        let data = window(60);
        let baseline = ServingModel::new(baseline_artifact(&data));
        let err = refit_window(
            &data,
            "no-such-class",
            &baseline,
            &RefitOptions::default(),
            &pnr_telemetry::noop(),
        )
        .unwrap_err();
        assert!(matches!(err, RefitError::TargetMissing { .. }), "{err}");
    }

    #[test]
    fn out_of_range_params_are_a_typed_failure() {
        let data = window(600);
        let baseline = ServingModel::new(baseline_artifact(&data));
        let opts = RefitOptions {
            params: Some(PnruleParams {
                rp: 1.5,
                ..PnruleParams::default()
            }),
            ..RefitOptions::default()
        };
        let err =
            refit_window(&data, "rare", &baseline, &opts, &pnr_telemetry::noop()).unwrap_err();
        assert!(matches!(err, RefitError::FitPanicked { .. }), "{err}");
    }

    #[test]
    fn bad_stride_is_refused() {
        let data = window(60);
        let baseline = ServingModel::new(baseline_artifact(&data));
        let err = refit_window(
            &data,
            "rare",
            &baseline,
            &RefitOptions {
                holdout_stride: 1,
                ..RefitOptions::default()
            },
            &pnr_telemetry::noop(),
        )
        .unwrap_err();
        assert!(matches!(err, RefitError::BadHoldoutStride { .. }), "{err}");
    }
}
