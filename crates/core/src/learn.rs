//! The end-to-end PNrule learner.

use crate::model::PnruleModel;
use crate::nphase::{learn_n_rules_with_sink, StopReason};
use crate::params::PnruleParams;
use crate::pphase::learn_p_rules_with_sink;
use crate::scoring::ScoreMatrix;
use pnr_data::{Dataset, RowSet};
use pnr_rules::{CovStats, RuleSet, TaskView};
use pnr_telemetry::{Span, SpanKind, TelemetrySink};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Diagnostics of one `fit`: what each phase did and why it stopped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FitReport {
    /// Recall the P-phase union achieved on the training data.
    pub p_covered_recall: f64,
    /// Discovery-time coverage of each P-rule.
    pub p_rule_stats: Vec<CovStats>,
    /// Size of the pooled set handed to the N-phase.
    pub pool_size: usize,
    /// False-positive weight in the pool.
    pub pool_fp_weight: f64,
    /// Discovery-time coverage of each N-rule (over the pooled N-task:
    /// `pos` = false positives removed, `neg()` = targets sacrificed).
    pub n_rule_stats: Vec<CovStats>,
    /// Retained recall after the N-phase.
    pub retained_recall: f64,
    /// Why the P-phase's covering loop stopped.
    pub p_stop_reason: StopReason,
    /// Why the N-phase's covering loop stopped.
    pub n_stop_reason: StopReason,
    /// Number of accepted N-rules the MDL truncation dropped afterwards.
    pub n_mdl_truncated: usize,
    /// Description length after each accepted N-rule (element 0 = empty
    /// N-theory).
    pub n_dl_trace: Vec<f64>,
    /// Candidate conditions charged against the fit's
    /// [`BudgetTracker`](pnr_rules::BudgetTracker) (`None` = the fit ran
    /// without a budget). While the budget never latches, this equals the
    /// `candidate_charges` telemetry counter exactly.
    pub candidates_charged: Option<u64>,
}

impl FitReport {
    /// True when either phase stopped because the training budget ran
    /// out; the returned model is a valid, scoreable truncation.
    pub fn budget_exhausted(&self) -> bool {
        self.p_stop_reason == StopReason::BudgetExhausted
            || self.n_stop_reason == StopReason::BudgetExhausted
    }
}

/// Learns a [`PnruleModel`] for one target class: P-phase, pooling, N-phase
/// and the scoring step, in that order (section 2.1).
#[derive(Debug, Clone)]
pub struct PnruleLearner {
    params: PnruleParams,
    sink: Arc<dyn TelemetrySink>,
}

impl Default for PnruleLearner {
    fn default() -> Self {
        PnruleLearner {
            params: PnruleParams::default(),
            sink: pnr_telemetry::noop(),
        }
    }
}

impl PnruleLearner {
    /// A learner with the given parameters.
    pub fn new(params: PnruleParams) -> Self {
        params.validate();
        PnruleLearner {
            params,
            sink: pnr_telemetry::noop(),
        }
    }

    /// Attaches a telemetry sink every fit reports spans and counters to.
    /// Write-only: the learned model is bit-identical whatever sink is
    /// attached.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn TelemetrySink>) -> Self {
        self.sink = sink;
        self
    }

    /// The learner's parameters.
    pub fn params(&self) -> &PnruleParams {
        &self.params
    }

    /// Fits a binary model distinguishing `target` from the rest of `data`.
    /// Record weights are honoured throughout, so stratified training is
    /// just a reweighted dataset.
    pub fn fit(&self, data: &Dataset, target: u32) -> PnruleModel {
        let is_pos: Vec<bool> = (0..data.n_rows())
            .map(|r| data.label(r) == target)
            .collect();
        self.fit_flags(data, target, &is_pos)
    }

    /// Fits with explicit target flags (for callers that need a synthetic
    /// labelling).
    pub fn fit_flags(&self, data: &Dataset, target: u32, is_pos: &[bool]) -> PnruleModel {
        self.fit_flags_with_report(data, target, is_pos).0
    }

    /// Like [`Self::fit`], also returning phase diagnostics.
    pub fn fit_with_report(&self, data: &Dataset, target: u32) -> (PnruleModel, FitReport) {
        let is_pos: Vec<bool> = (0..data.n_rows())
            .map(|r| data.label(r) == target)
            .collect();
        self.fit_flags_with_report(data, target, &is_pos)
    }

    /// The full pipeline with diagnostics: P-phase, pooling, N-phase and
    /// the ScoreMatrix, in that order.
    pub fn fit_flags_with_report(
        &self,
        data: &Dataset,
        target: u32,
        is_pos: &[bool],
    ) -> (PnruleModel, FitReport) {
        assert_eq!(is_pos.len(), data.n_rows());
        let params = &self.params;
        let sink = &self.sink;
        let _fit_span = Span::enter(sink.as_ref(), SpanKind::Fit, "fit");

        let weights = data.weights();
        let view = TaskView::full(data, is_pos, weights);
        let orig_pos_total = view.pos_weight();

        // One budget tracker spans the whole fit: P-phase rules and
        // candidates spend from the same pool the N-phase draws on.
        let budget = params.budget.start().map(Arc::new);

        // --- P-phase: presence rules, high support first. ---
        let p_result = learn_p_rules_with_sink(&view, params, budget.as_ref(), sink);
        let p_rules = RuleSet::from_rules(p_result.rules.iter().map(|p| p.rule.clone()).collect());

        // --- Pool every record the P-union covers. ---
        let pooled_rows: RowSet = (0..pnr_data::index::to_u32(data.n_rows(), "row count"))
            .filter(|&r| p_rules.any_match(data, r as usize))
            .collect();
        let covered_pos = pnr_data::ordered_sum(
            pooled_rows
                .iter()
                .filter(|&r| is_pos[r as usize])
                .map(|r| weights[r as usize]),
        );
        let pool_size = pooled_rows.len();
        let pool_total: f64 = pooled_rows.total_weight(weights);

        // --- N-phase: absence rules on the pooled false positives. ---
        let (n_rules, n_rule_stats, retained_recall, n_stop_reason, n_mdl_truncated, n_dl_trace) =
            if params.enable_n_phase && !p_rules.is_empty() {
                let flipped: Vec<bool> = is_pos.iter().map(|&p| !p).collect();
                let pooled = TaskView::over(data, pooled_rows, &flipped, weights);
                let n_result = learn_n_rules_with_sink(
                    &pooled,
                    orig_pos_total,
                    covered_pos,
                    params,
                    budget.as_ref(),
                    sink,
                );
                let stats = n_result.rules.iter().map(|n| n.stats).collect();
                (
                    RuleSet::from_rules(n_result.rules.into_iter().map(|n| n.rule).collect()),
                    stats,
                    n_result.retained_recall,
                    n_result.stop_reason,
                    n_result.mdl_truncated,
                    n_result.dl_trace,
                )
            } else {
                let achieved = if orig_pos_total > 0.0 {
                    covered_pos / orig_pos_total
                } else {
                    0.0
                };
                (
                    RuleSet::new(),
                    Vec::new(),
                    achieved,
                    StopReason::Exhausted,
                    0,
                    Vec::new(),
                )
            };

        // --- Scoring: judge every P×N combination on the training data. ---
        let score_matrix = ScoreMatrix::build_with_sink(
            data,
            is_pos,
            &p_rules,
            &n_rules,
            params.scoring_z_threshold,
            sink,
        );

        let report = FitReport {
            p_covered_recall: p_result.covered_recall,
            p_rule_stats: p_result.rules.iter().map(|p| p.stats).collect(),
            pool_size,
            pool_fp_weight: pool_total - covered_pos,
            n_rule_stats,
            retained_recall,
            p_stop_reason: p_result.stop_reason,
            n_stop_reason,
            n_mdl_truncated,
            n_dl_trace,
            candidates_charged: budget.as_ref().map(|t| t.candidates_charged()),
        };
        let model = PnruleModel {
            target,
            threshold: params.decision_threshold,
            p_rules,
            n_rules,
            score_matrix,
        };
        (model, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_data::{stratify_weights, AttrType, DatasetBuilder, Value};
    use pnr_metrics::BinaryConfusion;
    use pnr_rules::{evaluate_classifier, BinaryClassifier};

    /// The paper's motivating structure in miniature: the target's presence
    /// signature (x-band) is inherently impure — it also captures records
    /// whose absence signature (k = dos) must be learned separately.
    fn intrusion_like(n: usize) -> pnr_data::Dataset {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("k", AttrType::Categorical);
        b.add_class("r2l");
        b.add_class("rest");
        for i in 0..n {
            let x = (i % 50) as f64;
            // k varies across blocks of 50, independently of x
            let k = match (i / 50) % 5 {
                0 => "dos",
                1 => "web",
                _ => "ok",
            };
            let in_band = (20.0..24.0).contains(&x);
            let target = in_band && k != "dos";
            b.push_row(
                &[Value::num(x), Value::cat(k)],
                if target { "r2l" } else { "rest" },
                1.0,
            )
            .unwrap();
        }
        b.finish()
    }

    fn eval(model: &PnruleModel, data: &pnr_data::Dataset) -> BinaryConfusion {
        evaluate_classifier(model, data, model.target)
    }

    #[test]
    fn learns_presence_and_absence_signatures() {
        let data = intrusion_like(2000);
        let target = data.class_code("r2l").unwrap();
        let model = PnruleLearner::new(PnruleParams::default()).fit(&data, target);
        assert!(!model.p_rules.is_empty(), "needs at least one P-rule");
        assert!(
            !model.n_rules.is_empty(),
            "the dos exclusion needs an N-rule"
        );
        let cm = eval(&model, &data);
        assert!(cm.recall() > 0.9, "recall {}", cm.recall());
        assert!(cm.precision() > 0.9, "precision {}", cm.precision());
    }

    #[test]
    fn disabling_n_phase_costs_precision() {
        let data = intrusion_like(2000);
        let target = data.class_code("r2l").unwrap();
        let full = PnruleLearner::new(PnruleParams::default()).fit(&data, target);
        let ablated = PnruleLearner::new(PnruleParams {
            enable_n_phase: false,
            ..Default::default()
        })
        .fit(&data, target);
        assert!(ablated.n_rules.is_empty());
        let cm_full = eval(&full, &data);
        let cm_abl = eval(&ablated, &data);
        assert!(
            cm_full.precision() >= cm_abl.precision(),
            "full {} vs ablated {}",
            cm_full.precision(),
            cm_abl.precision()
        );
    }

    #[test]
    fn fit_on_weighted_data_matches_stratified_semantics() {
        let data = intrusion_like(1000);
        let target = data.class_code("r2l").unwrap();
        let w = stratify_weights(&data, target);
        let weighted = data.with_weights(w);
        let model = PnruleLearner::new(PnruleParams::default()).fit(&weighted, target);
        // stratification must not break learning on clean data
        let cm = eval(&model, &data);
        assert!(cm.f_measure() > 0.8, "F {}", cm.f_measure());
    }

    #[test]
    fn no_target_examples_yields_reject_all_model() {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_class("ghost");
        b.add_class("real");
        for i in 0..50 {
            b.push_row(&[Value::num(i as f64)], "real", 1.0).unwrap();
        }
        let data = b.finish();
        let model = PnruleLearner::default().fit(&data, 0);
        assert!(model.p_rules.is_empty());
        for row in 0..data.n_rows() {
            assert!(!model.predict(&data, row));
        }
    }

    #[test]
    fn fit_report_describes_the_phases() {
        let data = intrusion_like(2000);
        let target = data.class_code("r2l").unwrap();
        let (model, report) =
            PnruleLearner::new(PnruleParams::default()).fit_with_report(&data, target);
        assert_eq!(report.p_rule_stats.len(), model.p_rules.len());
        assert_eq!(report.n_rule_stats.len(), model.n_rules.len());
        assert!(
            report.p_covered_recall > 0.9,
            "P recall {}",
            report.p_covered_recall
        );
        assert!(report.pool_size > 0);
        assert!(
            report.pool_fp_weight > 0.0,
            "the dos overlap plants FPs in the pool"
        );
        assert!(report.retained_recall <= report.p_covered_recall + 1e-9);
    }

    #[test]
    fn generalisation_to_fresh_sample() {
        let train = intrusion_like(2000);
        let test = intrusion_like(500);
        let target = train.class_code("r2l").unwrap();
        let model = PnruleLearner::new(PnruleParams::default()).fit(&train, target);
        let cm = eval(&model, &test);
        assert!(cm.f_measure() > 0.9, "test F {}", cm.f_measure());
    }

    #[test]
    fn budgeted_fit_returns_scoreable_truncated_model() {
        use pnr_rules::FitBudget;
        let data = intrusion_like(2000);
        let target = data.class_code("r2l").unwrap();
        // A candidate budget far below what a full fit needs: the learner
        // must truncate gracefully, not hang or panic.
        let params = PnruleParams {
            budget: FitBudget {
                max_candidates: Some(50),
                ..FitBudget::default()
            },
            ..Default::default()
        };
        let (model, report) = PnruleLearner::new(params).fit_with_report(&data, target);
        assert!(
            report.budget_exhausted(),
            "p={:?} n={:?}",
            report.p_stop_reason,
            report.n_stop_reason
        );
        // The truncated model is still scoreable end to end.
        for row in 0..data.n_rows() {
            let _ = model.predict(&data, row);
        }
    }

    #[test]
    fn rule_budget_caps_total_rule_count() {
        use pnr_rules::FitBudget;
        let data = intrusion_like(2000);
        let target = data.class_code("r2l").unwrap();
        let params = PnruleParams {
            budget: FitBudget {
                max_rules: Some(1),
                ..FitBudget::default()
            },
            ..Default::default()
        };
        let (model, report) = PnruleLearner::new(params).fit_with_report(&data, target);
        assert!(model.p_rules.len() + model.n_rules.len() <= 1);
        assert!(report.budget_exhausted());
    }

    #[test]
    fn zero_wall_clock_stops_immediately_and_gracefully() {
        use pnr_rules::FitBudget;
        let data = intrusion_like(500);
        let target = data.class_code("r2l").unwrap();
        let params = PnruleParams {
            budget: FitBudget {
                wall_clock_secs: Some(0.0),
                ..FitBudget::default()
            },
            ..Default::default()
        };
        let (model, report) = PnruleLearner::new(params).fit_with_report(&data, target);
        assert_eq!(report.p_stop_reason, StopReason::BudgetExhausted);
        assert!(model.p_rules.is_empty());
        // An empty model predicts (rejects) without panicking.
        assert!(!model.predict(&data, 0));
    }

    #[test]
    fn unlimited_budget_matches_default_fit() {
        use pnr_rules::FitBudget;
        let data = intrusion_like(1000);
        let target = data.class_code("r2l").unwrap();
        let free = PnruleLearner::new(PnruleParams::default()).fit(&data, target);
        let generous = PnruleLearner::new(PnruleParams {
            budget: FitBudget {
                max_rules: Some(10_000),
                max_candidates: Some(1_000_000_000),
                wall_clock_secs: None,
            },
            ..Default::default()
        })
        .fit(&data, target);
        assert_eq!(free.p_rules.len(), generous.p_rules.len());
        assert_eq!(free.n_rules.len(), generous.n_rules.len());
        for row in 0..data.n_rows() {
            assert_eq!(free.predict(&data, row), generous.predict(&data, row));
        }
    }

    #[test]
    fn candidate_budget_stop_is_identical_across_workers() {
        use pnr_rules::FitBudget;
        use pnr_telemetry::{Counter, RecordingSink};
        // Unbudgeted, probe charges 378,288 candidates for its one P-rule
        // and r2l 2,295,413 for five P-rules and an N-rule; each limit
        // stops its fit partway through the P-phase. Wherever the budget
        // latches, every worker count must latch on the same candidate and
        // keep the same rules.
        let data = pnr_kddsim::generate_train(40_000, 7);
        for (class, limit) in [("probe", 189_000), ("r2l", 1_150_000)] {
            let target = data.class_code(class).unwrap();
            let mut fits = Vec::new();
            for search_workers in [Some(1), Some(2)] {
                let params = PnruleParams {
                    budget: FitBudget {
                        max_candidates: Some(limit),
                        ..FitBudget::default()
                    },
                    search_workers,
                    ..Default::default()
                };
                let recording = Arc::new(RecordingSink::new());
                let sink: Arc<dyn TelemetrySink> = recording.clone();
                let (model, report) = PnruleLearner::new(params)
                    .with_sink(sink)
                    .fit_with_report(&data, target);
                assert!(
                    report.budget_exhausted(),
                    "{class}: the limit must stop the fit"
                );
                if search_workers == Some(2) {
                    assert!(
                        recording.value(Counter::ParallelSearchCalls) > 0,
                        "{class}: two workers must run the threaded search"
                    );
                }
                fits.push((
                    serde_json::to_string(&model).unwrap(),
                    serde_json::to_string(&report).unwrap(),
                ));
            }
            assert_eq!(fits[1], fits[0], "{class}");
        }
    }

    #[test]
    fn fit_flags_allows_custom_targets() {
        let data = intrusion_like(500);
        // custom labelling independent of the class column: x < 25
        let flags: Vec<bool> = (0..data.n_rows()).map(|r| data.num(0, r) < 25.0).collect();
        let model = PnruleLearner::default().fit_flags(&data, 0, &flags);
        let correct = (0..data.n_rows())
            .filter(|&r| model.predict(&data, r) == flags[r])
            .count();
        assert!(
            correct as f64 > 0.95 * data.n_rows() as f64,
            "correct={correct}"
        );
    }
}
