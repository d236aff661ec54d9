//! The N-phase: collective false-positive removal for precision.
//!
//! Before this phase starts, *all* records covered by the union of P-rules
//! — true positives and false positives alike — are pooled (section 2.1).
//! The N-task then flips the target: its positive class is "false positive
//! of the P-union", and sequential covering learns N-rules that detect the
//! *absence* of the original target class. Pooling is the antidote to the
//! splintered-false-positives problem: every P-rule's mistakes contribute
//! evidence to the same learner.
//!
//! Two guards shape the phase:
//! * the **lower recall limit `rn`** forces a too-greedy N-rule to keep
//!   refining rather than sacrifice retained recall (see
//!   [`crate::grow::RecallGuard`]);
//! * an **MDL stopping rule**: N-rules are added until the rule set's
//!   description length exceeds the minimum seen so far by
//!   `mdl_slack_bits` (the RIPPER convention, cited as \[5\] by the paper).

use crate::grow::{grow_rule, GrowOptions, RecallGuard};
use crate::params::PnruleParams;
use pnr_data::weights::approx;
use pnr_rules::mdl::{count_possible_conditions, total_dl};
use pnr_rules::{BudgetTracker, CovStats, Rule, TaskView};
use pnr_telemetry::{Counter, Span, SpanKind, TelemetrySink};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One accepted N-rule with its discovery-time statistics over the N-view
/// (`stats.pos` = false-positive weight removed, `stats.neg()` =
/// original-target weight sacrificed).
#[derive(Debug, Clone)]
pub struct NRule {
    /// The rule.
    pub rule: Rule,
    /// Coverage over the remaining pooled view at discovery time.
    pub stats: CovStats,
}

/// Why a covering phase stopped adding rules (diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StopReason {
    /// No positive weight left to cover.
    #[default]
    Exhausted,
    /// The grower produced no rule.
    NoRuleGrown,
    /// The best grown rule's accuracy did not beat the remaining prior.
    LowAccuracy,
    /// Accepting the rule would violate the recall floor `rn`.
    RecallFloor,
    /// The MDL stopping criterion fired.
    MdlStop,
    /// The hard rule-count cap was reached.
    RuleCap,
    /// The desired coverage (`rp`) was reached and the next rule fell
    /// short of the accuracy gate (P-phase only).
    CoverageReached,
    /// The training budget ran out (rule, candidate, or wall-clock limit
    /// of [`FitBudget`](pnr_rules::FitBudget)); the rules accepted before
    /// the stop form a valid truncated model.
    BudgetExhausted,
}

/// Outcome of the N-phase.
#[derive(Debug, Clone, Default)]
pub struct NPhaseResult {
    /// Accepted N-rules in rank (discovery) order.
    pub rules: Vec<NRule>,
    /// Retained recall of the original target class (w.r.t. the whole
    /// training set) after all N-rules are applied.
    pub retained_recall: f64,
    /// Why the covering loop stopped adding rules. MDL truncation can
    /// *additionally* drop accepted rules afterwards — see
    /// [`mdl_truncated`](Self::mdl_truncated); the reason only reads
    /// [`MdlStop`](StopReason::MdlStop) when the loop itself ran to
    /// exhaustion, so a `RuleCap`/`LowAccuracy`/`RecallFloor` stop is not
    /// silently rewritten.
    pub stop_reason: StopReason,
    /// Number of accepted rules the MDL truncation dropped again (0 = the
    /// whole discovered list survived).
    pub mdl_truncated: usize,
    /// Description length after each accepted rule (diagnostics; element 0
    /// is the DL of the empty N-theory).
    pub dl_trace: Vec<f64>,
}

/// Runs the N-phase, charging against `budget` (`None` = unlimited) and
/// reporting phase/rule spans, search counters and MDL prunes to `sink`.
///
/// * `pooled` — a view over the union of P-rule coverage whose `is_pos`
///   marks **false positives** (records the P-union covers that are *not*
///   original targets);
/// * `orig_pos_total` — weight of the original target class in the whole
///   training set (the denominator of the recall guard);
/// * `covered_pos` — original-target weight inside the pool (the recall the
///   P-phase achieved, in weight terms).
///
/// The full learner shares one budget tracker across both phases. When
/// the budget runs out mid-phase the rules accepted so far are returned
/// with [`StopReason::BudgetExhausted`]. Telemetry is write-only: the
/// learned rules are identical whatever sink is attached.
pub fn learn_n_rules_with_sink(
    pooled: &TaskView<'_>,
    orig_pos_total: f64,
    covered_pos: f64,
    params: &PnruleParams,
    budget: Option<&Arc<BudgetTracker>>,
    sink: &Arc<dyn TelemetrySink>,
) -> NPhaseResult {
    let _phase_span = Span::enter(sink.as_ref(), SpanKind::NPhase, "n_phase");
    params.validate();
    let mut result = NPhaseResult::default();
    let mut retained_pos = covered_pos;
    if pooled.is_empty() || pooled.pos_weight() <= 0.0 {
        result.retained_recall = if orig_pos_total > 0.0 {
            retained_pos / orig_pos_total
        } else {
            0.0
        };
        return result;
    }

    let n_possible = count_possible_conditions(pooled.data);
    let n_view_total = pooled.total_weight();
    let fp_total = pooled.pos_weight();
    // The DL prices the N-rule set over *its own learning task* — the pool
    // (the same convention RIPPER applies to its task): the N-union covers
    // `covered` weight of which `covered_orig` is original targets (the
    // theory's false positives), and leaves the not-yet-removed pool FPs
    // uncovered (its false negatives). Pricing over the whole training set
    // instead would code each sacrificed target at the global
    // false-negative frequency (10+ bits against ~1 bit per removed FP on
    // a majority-FP pool), making the DL rise through every good N-rule
    // and the truncation below erase the phase's work.
    let mut lens: Vec<usize> = Vec::new();
    let mut dl = total_dl(n_possible, &lens, 0.0, n_view_total, 0.0, fp_total);
    let mut min_dl = dl;
    result.dl_trace.push(dl);

    let mut remaining = pooled.clone();
    // Aggregate exception bookkeeping for the DL of the growing rule set.
    let mut covered = 0.0; // total weight covered by accepted N-rules
    let mut covered_orig = 0.0; // original-target weight they sacrifice
    let mut removed_fp = 0.0; // false-positive weight they remove

    result.stop_reason = if params.max_n_rules == 0 {
        StopReason::RuleCap
    } else {
        StopReason::Exhausted
    };

    while remaining.pos_weight() > 0.0 {
        if result.rules.len() >= params.max_n_rules {
            result.stop_reason = StopReason::RuleCap;
            break;
        }
        if budget.is_some_and(|b| b.is_exhausted() || !b.check_deadline()) {
            // Covers a budget already spent by the P-phase as well as one
            // that runs out between N-rules.
            result.stop_reason = StopReason::BudgetExhausted;
            break;
        }
        // The floor binds the N-phase's *sacrifice*, not the recall the
        // P-phase never achieved: when coverage already sits below `rn`,
        // the effective floor is the achieved recall (only zero-sacrifice
        // rules may enter).
        let achieved = if orig_pos_total > 0.0 {
            covered_pos / orig_pos_total
        } else {
            1.0
        };
        let guard = RecallGuard {
            retained_pos,
            orig_pos_total,
            min_recall: params.rn.min(achieved),
        };
        let opts = GrowOptions {
            metric: params.metric,
            max_len: params.max_n_rule_len,
            min_support_weight: 0.0,
            use_ranges: params.use_ranges,
            min_improvement: params.min_improvement,
            recall_guard: Some(guard),
            budget: budget.cloned(),
            sink: sink.clone(),
            search_workers: params.search_workers,
            row_shards: params.row_shards,
        };
        // Label formatting is gated so the disabled path allocates nothing
        // per rule.
        let label = if sink.enabled() {
            format!("n{}", result.rules.len())
        } else {
            String::new()
        };
        let grown = {
            let _grow_span = Span::enter(sink.as_ref(), SpanKind::NRuleGrow, &label);
            grow_rule(&remaining, &opts)
        };
        let Some(mut grown) = grown else {
            result.stop_reason = if budget.is_some_and(|b| b.is_exhausted()) {
                StopReason::BudgetExhausted
            } else {
                StopReason::NoRuleGrown
            };
            break;
        };
        if grown.stats.neg() > 0.0 {
            // The metric's rule spends recall budget. Also grow a
            // precision-first candidate (Laplace accuracy, no improvement
            // tolerance — it refines towards the narrow pure rules the
            // recall floor favours) and keep whichever removes more false
            // positives per sacrificed target: the floor caps the phase's
            // *total* sacrifice, so budget efficiency — not the per-rule
            // metric — decides how many false positives the phase can
            // remove before the floor ends it. Without this a single
            // irredeemably broad candidate would end the phase with false
            // positives left on the table.
            let fallback = GrowOptions {
                metric: pnr_rules::EvalMetric::Laplace,
                min_improvement: 0.0,
                ..opts
            };
            let alt = {
                let fallback_label = if sink.enabled() {
                    format!("{label}.fallback")
                } else {
                    String::new()
                };
                let _grow_span = Span::enter(sink.as_ref(), SpanKind::NRuleGrow, &fallback_label);
                grow_rule(&remaining, &fallback)
            };
            if let Some(alt) = alt {
                // FPs removed per unit of recall budget, with a +1 prior so
                // a tiny pure rule does not dominate a broad near-pure one.
                let efficiency = |g: &crate::grow::GrownRule| g.stats.pos / (g.stats.neg() + 1.0);
                let alt_ok = !guard.violated_by(alt.stats.neg());
                let grown_ok = !guard.violated_by(grown.stats.neg());
                if alt_ok && (!grown_ok || efficiency(&alt) > efficiency(&grown)) {
                    grown = alt;
                }
            }
            if guard.violated_by(grown.stats.neg()) {
                result.stop_reason = StopReason::RecallFloor;
                break;
            }
        }
        if grown.stats.pos <= 0.0 || grown.stats.accuracy() <= remaining.prior() {
            result.stop_reason = StopReason::LowAccuracy;
            break;
        }
        // Price the final classifier with this rule added. The phase keeps
        // growing past local DL increases — a single weak rule must not end
        // it while good rules remain — and the rule list is truncated to
        // the DL-optimal prefix (within the slack) afterwards.
        lens.push(grown.rule.len());
        covered += grown.stats.total; // lint:allow(unordered-float-sum) — sequential rule-order accumulation
        covered_orig += grown.stats.neg(); // lint:allow(unordered-float-sum) — sequential rule-order accumulation
        removed_fp += grown.stats.pos; // lint:allow(unordered-float-sum) — sequential rule-order accumulation
                                       // The exception masses are differences of float weight sums and can
                                       // land a few ulps below zero for pure rules; clamp before coding.
        dl = total_dl(
            n_possible,
            &lens,
            covered,
            approx::clamp_mass(n_view_total - covered),
            approx::clamp_mass(covered_orig), // sacrificed targets the N-union covers
            approx::clamp_mass(fp_total - removed_fp), // surviving false positives
        );
        result.dl_trace.push(dl);
        min_dl = min_dl.min(dl);
        retained_pos -= grown.stats.neg();
        let covered_rows = remaining.rows_matching_rule(&grown.rule);
        result.rules.push(NRule {
            rule: grown.rule,
            stats: grown.stats,
        });
        remaining = remaining.without(&covered_rows);
        if budget.is_some_and(|b| !b.charge_rule()) {
            // The crossing rule is valid and kept; stop growing more.
            result.stop_reason = StopReason::BudgetExhausted;
            break;
        }
    }

    // MDL truncation: keep the longest prefix whose final DL is within the
    // slack of the minimum along the trace (dl_trace[0] is the empty
    // theory, dl_trace[k] the DL after rule k).
    let keep = result
        .dl_trace
        .iter()
        .enumerate()
        .rev()
        .find(|(_, &d)| d <= min_dl + params.mdl_slack_bits)
        .map(|(i, _)| i)
        .unwrap_or(0);
    if keep < result.rules.len() {
        result.mdl_truncated = result.rules.len() - keep;
        for dropped in &result.rules[keep..] {
            retained_pos += dropped.stats.neg();
        }
        result.rules.truncate(keep);
        result.dl_trace.truncate(keep + 1);
        if result.stop_reason == StopReason::Exhausted {
            result.stop_reason = StopReason::MdlStop;
        }
        if sink.enabled() {
            sink.add(Counter::MdlPrunes, result.mdl_truncated as u64);
        }
    }
    // DL non-increase: the kept prefix must price within the slack of the
    // final (untruncated) theory — `dl` still holds the last traced value.
    #[cfg(feature = "audit")]
    if let Some(&dl_kept) = result.dl_trace.last() {
        pnr_data::audit::check_dl_truncation(
            "N-phase MDL truncation",
            dl,
            dl_kept,
            params.mdl_slack_bits,
        );
    }

    result.retained_recall = if orig_pos_total > 0.0 {
        retained_pos / orig_pos_total
    } else {
        0.0
    };
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_data::{AttrType, Dataset, DatasetBuilder, RowSet, Value};

    /// The phase with no budget and no telemetry.
    fn learn(
        pooled: &TaskView<'_>,
        orig_pos_total: f64,
        covered_pos: f64,
        params: &PnruleParams,
    ) -> NPhaseResult {
        let sink = pnr_telemetry::noop();
        learn_n_rules_with_sink(pooled, orig_pos_total, covered_pos, params, None, &sink)
    }

    /// A pooled set where false positives carry a clean signature (y ≤ 1)
    /// and true positives live elsewhere.
    fn pooled_data() -> (Dataset, Vec<bool>) {
        let mut b = DatasetBuilder::new();
        b.add_attribute("y", AttrType::Numeric);
        b.add_class("fp");
        b.add_class("tp");
        for i in 0..200 {
            let y = (i % 10) as f64;
            let class = if y <= 1.0 { "fp" } else { "tp" };
            b.push_row(&[Value::num(y)], class, 1.0).unwrap();
        }
        let d = b.finish();
        let is_fp: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
        (d, is_fp)
    }

    #[test]
    fn removes_clean_false_positive_signature() {
        let (d, is_fp) = pooled_data();
        let v = TaskView::full(&d, &is_fp, d.weights());
        let orig_pos_total = v.total_weight() - v.pos_weight(); // 160 targets
        let res = learn(&v, orig_pos_total, orig_pos_total, &PnruleParams::default());
        assert!(!res.rules.is_empty(), "should find the FP signature");
        // the signature is pure: recall must be fully retained
        assert!(
            (res.retained_recall - 1.0).abs() < 1e-9,
            "recall {}",
            res.retained_recall
        );
        let removed: f64 = res.rules.iter().map(|r| r.stats.pos).sum();
        assert_eq!(removed, 40.0, "all FPs removed");
    }

    #[test]
    fn no_false_positives_means_no_rules() {
        let (d, _) = pooled_data();
        let none = vec![false; d.n_rows()];
        let v = TaskView::full(&d, &none, d.weights());
        let res = learn(&v, 200.0, 200.0, &PnruleParams::default());
        assert!(res.rules.is_empty());
        assert_eq!(res.retained_recall, 1.0);
    }

    #[test]
    fn empty_pool_returns_empty_result() {
        let (d, is_fp) = pooled_data();
        let v = TaskView::over(&d, RowSet::empty(), &is_fp, d.weights());
        let res = learn(&v, 100.0, 0.0, &PnruleParams::default());
        assert!(res.rules.is_empty());
        assert_eq!(res.retained_recall, 0.0);
    }

    #[test]
    fn recall_floor_is_respected() {
        // FPs overlap targets: any single-attribute rule removing FPs also
        // sacrifices targets. With a high rn the phase must hold back.
        let mut b = DatasetBuilder::new();
        b.add_attribute("y", AttrType::Numeric);
        b.add_class("fp");
        b.add_class("tp");
        for i in 0..100 {
            let y = (i % 4) as f64;
            // y==0: 60% fp, 40% tp — impure signature
            let class = if i % 4 == 0 && i % 5 < 3 { "fp" } else { "tp" };
            b.push_row(&[Value::num(y)], class, 1.0).unwrap();
        }
        let d = b.finish();
        let is_fp: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
        let v = TaskView::full(&d, &is_fp, d.weights());
        let orig = v.total_weight() - v.pos_weight();
        let strict = PnruleParams {
            rn: 0.99,
            ..Default::default()
        };
        let res = learn(&v, orig, orig, &strict);
        assert!(
            res.retained_recall >= 0.99 - 1e-9,
            "retained recall {} under floor",
            res.retained_recall
        );
    }

    #[test]
    fn lax_recall_floor_removes_more() {
        let mut b = DatasetBuilder::new();
        b.add_attribute("y", AttrType::Numeric);
        b.add_class("fp");
        b.add_class("tp");
        for i in 0..100 {
            let y = (i % 4) as f64;
            let class = if i % 4 == 0 && i % 5 < 3 { "fp" } else { "tp" };
            b.push_row(&[Value::num(y)], class, 1.0).unwrap();
        }
        let d = b.finish();
        let is_fp: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
        let v = TaskView::full(&d, &is_fp, d.weights());
        let orig = v.total_weight() - v.pos_weight();
        let lax = PnruleParams {
            rn: 0.5,
            ..Default::default()
        };
        let strict = PnruleParams {
            rn: 0.999,
            ..Default::default()
        };
        let res_lax = learn(&v, orig, orig, &lax);
        let res_strict = learn(&v, orig, orig, &strict);
        let removed = |r: &NPhaseResult| r.rules.iter().map(|n| n.stats.pos).sum::<f64>();
        assert!(
            removed(&res_lax) >= removed(&res_strict),
            "lax {} vs strict {}",
            removed(&res_lax),
            removed(&res_strict)
        );
    }

    #[test]
    fn rule_cap_stop_survives_mdl_truncation() {
        // One broad pure FP block (worth its description length) followed by
        // two near-weightless stragglers whose removal saves almost no data
        // bits: with zero slack the MDL truncation drops the straggler rule,
        // while the rule cap — not exhaustion — ends the loop. The reported
        // stop reason must keep saying RuleCap, with the truncation counted
        // separately in `mdl_truncated`.
        let mut b = DatasetBuilder::new();
        b.add_attribute("y", AttrType::Numeric);
        b.add_class("fp");
        b.add_class("tp");
        for _ in 0..40 {
            b.push_row(&[Value::num(0.0)], "fp", 1.0).unwrap();
        }
        for i in 0..400 {
            b.push_row(&[Value::num(1.0 + (i % 8) as f64)], "tp", 1.0)
                .unwrap();
        }
        // Stragglers isolated from each other by targets at y = 10.
        b.push_row(&[Value::num(9.0)], "fp", 0.01).unwrap();
        for _ in 0..10 {
            b.push_row(&[Value::num(10.0)], "tp", 1.0).unwrap();
        }
        b.push_row(&[Value::num(11.0)], "fp", 0.01).unwrap();
        let d = b.finish();
        let is_fp: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
        let v = TaskView::full(&d, &is_fp, d.weights());
        let orig = v.total_weight() - v.pos_weight();
        let params = PnruleParams {
            max_n_rules: 2,
            mdl_slack_bits: 0.0,
            ..Default::default()
        };
        let res = learn(&v, orig, orig, &params);
        assert_eq!(
            res.stop_reason,
            StopReason::RuleCap,
            "the loop reason must not be rewritten by truncation"
        );
        assert!(
            res.mdl_truncated >= 1,
            "the straggler rule should be truncated"
        );
        assert_eq!(
            res.rules.len() + res.mdl_truncated,
            2,
            "cap accepted two rules before truncation"
        );
        assert!(
            res.rules.iter().map(|r| r.stats.pos).sum::<f64>() >= 40.0,
            "the broad block rule survives"
        );
    }
}
