//! The P-phase: high-support sequential covering for recall.
//!
//! P-rules detect the *presence* of the target class. Unlike classical
//! sequential covering, the grower favours support over accuracy (section
//! 2.1): "if a high accuracy rule cannot be found without sacrificing its
//! support, then we favor a rule that has higher support but lower
//! accuracy". Rules are added until a fraction `rp` of the target class is
//! covered; beyond that point a new rule must clear the `min_accuracy`
//! threshold to enter the model.

use crate::grow::{grow_rule, GrowOptions};
use crate::nphase::StopReason;
use crate::params::PnruleParams;
use pnr_rules::{BudgetTracker, CovStats, Rule, SearchOptions, TaskView};
use pnr_telemetry::{Span, SpanKind, TelemetrySink};
use std::sync::Arc;

/// One accepted P-rule with its discovery-time statistics.
#[derive(Debug, Clone)]
pub struct PRule {
    /// The rule.
    pub rule: Rule,
    /// Coverage over the remaining data at discovery time.
    pub stats: CovStats,
}

/// Outcome of the P-phase.
#[derive(Debug, Clone, Default)]
pub struct PPhaseResult {
    /// Accepted P-rules in rank (discovery) order.
    pub rules: Vec<PRule>,
    /// Fraction of the original target weight covered by the union.
    pub covered_recall: f64,
    /// Why the covering loop stopped adding rules.
    pub stop_reason: StopReason,
}

/// Runs the P-phase over `view` (normally the full training set),
/// charging against `budget` (`None` = unlimited) and reporting
/// phase/rule spans and search counters to `sink`.
///
/// The full learner shares one budget tracker across both phases. When
/// the budget runs out mid-phase the rules accepted so far are returned
/// with [`StopReason::BudgetExhausted`]. Telemetry is write-only: the
/// learned rules are identical whatever sink is attached.
pub fn learn_p_rules_with_sink(
    view: &TaskView<'_>,
    params: &PnruleParams,
    budget: Option<&Arc<BudgetTracker>>,
    sink: &Arc<dyn TelemetrySink>,
) -> PPhaseResult {
    let _phase_span = Span::enter(sink.as_ref(), SpanKind::PPhase, "p_phase");
    params.validate();
    let target_total = view.pos_weight();
    if target_total <= 0.0 {
        return PPhaseResult::default();
    }
    let min_support_weight = params.min_support_frac * target_total;

    let opts = GrowOptions {
        metric: params.metric,
        max_len: params.max_p_rule_len,
        min_improvement: params.min_improvement,
        recall_guard: None,
        search: SearchOptions {
            use_ranges: params.use_ranges,
            min_support_weight,
            context: None,
            budget: budget.cloned(),
            sink: sink.clone(),
            max_workers: params.search_workers,
        },
    };
    let mut result = PPhaseResult::default();
    let mut remaining = view.clone();
    let mut covered_pos = 0.0;

    loop {
        if result.rules.len() >= params.max_p_rules {
            result.stop_reason = StopReason::RuleCap;
            break;
        }
        if remaining.pos_weight() <= 0.0 {
            result.stop_reason = StopReason::Exhausted;
            break;
        }
        if budget.is_some_and(|b| b.is_exhausted() || !b.check_deadline()) {
            result.stop_reason = StopReason::BudgetExhausted;
            break;
        }
        let grown = {
            // Label formatting is gated so the disabled path allocates
            // nothing per rule.
            let label = if sink.enabled() {
                format!("p{}", result.rules.len())
            } else {
                String::new()
            };
            let _grow_span = Span::enter(sink.as_ref(), SpanKind::PRuleGrow, &label);
            grow_rule(&remaining, &opts)
        };
        let Some(grown) = grown else {
            // The candidate budget may have fired inside the search, in
            // which case "no rule" means "no budget", not "no signal".
            result.stop_reason = if budget.is_some_and(|b| b.is_exhausted()) {
                StopReason::BudgetExhausted
            } else {
                StopReason::NoRuleGrown
            };
            break;
        };
        if grown.stats.pos <= 0.0 {
            // A rule that covers no remaining target weight adds nothing.
            result.stop_reason = StopReason::NoRuleGrown;
            break;
        }
        // A useful P-rule must beat the remaining prior — otherwise the
        // phase has run out of signal and would start adding noise.
        if grown.stats.accuracy() <= remaining.prior() {
            result.stop_reason = StopReason::LowAccuracy;
            break;
        }
        let recall_so_far = covered_pos / target_total;
        if recall_so_far >= params.rp && grown.stats.accuracy() < params.min_accuracy {
            // Desired coverage reached; only high-accuracy rules may enter.
            result.stop_reason = StopReason::CoverageReached;
            break;
        }
        let covered_rows = remaining.rows_matching_rule(&grown.rule);
        covered_pos += grown.stats.pos; // lint:allow(unordered-float-sum) — sequential rule-order accumulation
        result.rules.push(PRule {
            rule: grown.rule,
            stats: grown.stats,
        });
        remaining = remaining.without(&covered_rows);
        if budget.is_some_and(|b| !b.charge_rule()) {
            // The rule that crossed the limit is valid and kept; the
            // phase just must not start another.
            result.stop_reason = StopReason::BudgetExhausted;
            break;
        }
    }

    result.covered_recall = covered_pos / target_total;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_data::{AttrType, Dataset, DatasetBuilder, Value};

    /// The phase with no budget and no telemetry.
    fn learn(view: &TaskView<'_>, params: &PnruleParams) -> PPhaseResult {
        learn_p_rules_with_sink(view, params, None, &pnr_telemetry::noop())
    }

    /// Two disjoint target signatures on one attribute, plus noise rows.
    fn two_peak_data() -> (Dataset, Vec<bool>) {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_class("pos");
        b.add_class("neg");
        for i in 0..1000 {
            let x = (i % 100) as f64;
            let target = (10.0..12.0).contains(&x) || (50.0..52.0).contains(&x);
            b.push_row(&[Value::num(x)], if target { "pos" } else { "neg" }, 1.0)
                .unwrap();
        }
        let d = b.finish();
        let is_pos: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
        (d, is_pos)
    }

    #[test]
    fn covers_both_disjoint_signatures() {
        let (d, is_pos) = two_peak_data();
        let v = TaskView::full(&d, &is_pos, d.weights());
        let params = PnruleParams {
            min_support_frac: 0.0,
            ..Default::default()
        };
        let res = learn(&v, &params);
        assert!(res.covered_recall >= 0.95, "recall {}", res.covered_recall);
        assert!(res.rules.len() >= 2, "two peaks need at least two rules");
    }

    #[test]
    fn empty_target_yields_no_rules() {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_class("pos");
        b.add_class("neg");
        for i in 0..10 {
            b.push_row(&[Value::num(i as f64)], "neg", 1.0).unwrap();
        }
        let d = b.finish();
        let is_pos = vec![false; d.n_rows()];
        let v = TaskView::full(&d, &is_pos, d.weights());
        let res = learn(&v, &PnruleParams::default());
        assert!(res.rules.is_empty());
        assert_eq!(res.covered_recall, 0.0);
    }

    #[test]
    fn max_p_rules_caps_rule_count() {
        let (d, is_pos) = two_peak_data();
        let v = TaskView::full(&d, &is_pos, d.weights());
        let params = PnruleParams {
            max_p_rules: 1,
            min_support_frac: 0.0,
            ..Default::default()
        };
        let res = learn(&v, &params);
        assert_eq!(res.rules.len(), 1);
    }

    #[test]
    fn p1_restriction_produces_single_condition_rules() {
        let (d, is_pos) = two_peak_data();
        let v = TaskView::full(&d, &is_pos, d.weights());
        let params = PnruleParams {
            max_p_rule_len: Some(1),
            min_support_frac: 0.0,
            ..Default::default()
        };
        let res = learn(&v, &params);
        assert!(!res.rules.is_empty());
        for p in &res.rules {
            assert_eq!(p.rule.len(), 1);
        }
    }

    #[test]
    fn support_floor_blocks_tiny_rules() {
        // Each pure peak covers 20 rows (half the 40 positives). A floor of
        // 60% of the target weight (= 24) forbids those pure rules, so every
        // accepted rule must be wider (and hence impure); with a loose floor
        // the pure 20-row peaks are admissible.
        let (d, is_pos) = two_peak_data();
        let v = TaskView::full(&d, &is_pos, d.weights());
        let loose = learn(
            &v,
            &PnruleParams {
                min_support_frac: 0.05,
                ..Default::default()
            },
        );
        let tight = learn(
            &v,
            &PnruleParams {
                min_support_frac: 0.6,
                ..Default::default()
            },
        );
        assert!(
            loose.rules.iter().any(|p| p.stats.total < 24.0),
            "loose finds pure peaks"
        );
        for p in &tight.rules {
            assert!(
                p.stats.total >= 24.0 - 1e-9,
                "support {} under floor",
                p.stats.total
            );
        }
    }

    #[test]
    fn rules_are_ranked_by_discovery_order() {
        let (d, is_pos) = two_peak_data();
        let v = TaskView::full(&d, &is_pos, d.weights());
        let res = learn(
            &v,
            &PnruleParams {
                min_support_frac: 0.0,
                ..Default::default()
            },
        );
        // Later rules are discovered on smaller remainders, so their
        // discovery-time positive coverage must not increase.
        for w in res.rules.windows(2) {
            assert!(w[0].stats.pos >= w[1].stats.pos - 1e-9);
        }
    }
}
