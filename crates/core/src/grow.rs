//! The shared greedy rule grower used by both phases.
//!
//! A rule starts empty (the most general rule) and gains one conjunctive
//! condition per step. Section 2.2 of the paper specifies the acceptance
//! test for a refinement `R1` of the current rule `R`:
//!
//! * both are scored by the evaluation metric **against the distribution of
//!   the phase's remaining data** (not the shrinking refinement view);
//! * in the P-phase, `R1` is accepted only if its metric beats `R`'s *and*
//!   its support stays above the minimum-support floor;
//! * in the N-phase, a failing `R1` is accepted anyway whenever stopping at
//!   `R` would push retained recall of the original target class below the
//!   user's lower limit `rn` (the [`RecallGuard`]).

use pnr_rules::{find_best_condition, CovStats, EvalMetric, Rule, SearchOptions, TaskView};

/// The N-phase's recall guard (section 2.2): forces further refinement of a
/// rule whose acceptance as-is would cost too much recall.
#[derive(Debug, Clone, Copy)]
pub struct RecallGuard {
    /// Weight of original-target examples still retained (not yet removed
    /// by previously accepted N-rules).
    pub retained_pos: f64,
    /// Weight of the original target class in the whole training set.
    pub orig_pos_total: f64,
    /// The lower recall limit `rn`.
    pub min_recall: f64,
}

impl RecallGuard {
    /// Recall of the original target class if a rule covering
    /// `covered_orig_pos` weight of it were accepted now.
    pub fn recall_after(&self, covered_orig_pos: f64) -> f64 {
        if self.orig_pos_total <= 0.0 {
            return 1.0;
        }
        ((self.retained_pos - covered_orig_pos) / self.orig_pos_total).max(0.0)
    }

    /// Whether accepting such a rule would violate the lower limit.
    pub fn violated_by(&self, covered_orig_pos: f64) -> bool {
        self.recall_after(covered_orig_pos) < self.min_recall
    }
}

/// Options for one call to [`grow_rule`].
#[derive(Debug, Clone)]
pub struct GrowOptions {
    /// Metric scoring candidates and rules.
    pub metric: EvalMetric,
    /// Maximum number of conditions (`None` = unlimited).
    pub max_len: Option<usize>,
    /// Relative improvement a refinement must deliver over the current
    /// rule's score to be accepted. The paper accepts any strict
    /// improvement; a small tolerance (default 0.02) suppresses the
    /// overfitting failure mode where growth keeps trimming one or two
    /// stray negatives off an irrelevant attribute for a marginal metric
    /// gain, at the cost of test-time recall.
    pub min_improvement: f64,
    /// When present, the N-phase recall guard. In the N-task the *positive*
    /// class is "false positive of the P-union", so a rule's coverage of
    /// the original target class is its **negative** coverage
    /// (`stats.neg()`).
    pub recall_guard: Option<RecallGuard>,
    /// Options for every condition search of the grow loop. [`grow_rule`]
    /// replaces only their `context` with the view it grows on. The grow
    /// loop also stops (keeping the conditions accepted so far) when the
    /// search's `budget` deadline passes or its candidate limit fires.
    pub search: SearchOptions,
}

/// A grown rule with its coverage over the view it was grown on.
#[derive(Debug, Clone)]
pub struct GrownRule {
    /// The rule.
    pub rule: Rule,
    /// Weighted coverage over the growth view.
    pub stats: CovStats,
    /// Metric score against the growth view's distribution.
    pub score: f64,
}

/// Grows one rule over `view`. Returns `None` when not even a first
/// condition satisfying the constraints exists.
pub fn grow_rule(view: &TaskView<'_>, opts: &GrowOptions) -> Option<GrownRule> {
    // The fixed scoring context: the phase's remaining data.
    let ctx = (view.pos_weight(), view.total_weight());
    let search = SearchOptions {
        context: Some(ctx),
        ..opts.search.clone()
    };

    let mut rule = Rule::empty();
    let mut stats = CovStats::new(view.pos_weight(), view.total_weight());
    let mut score = opts.metric.score(stats, ctx.0, ctx.1);
    let mut current = view.clone();

    // Hard backstop far above any meaningful rule length; growth normally
    // stops via the improvement/coverage criteria long before this.
    const ABSOLUTE_MAX_LEN: usize = 64;
    loop {
        if rule.len() >= opts.max_len.unwrap_or(ABSOLUTE_MAX_LEN) {
            break;
        }
        if search.budget.as_ref().is_some_and(|b| !b.check_deadline()) {
            // Budget exhausted mid-growth: the conditions accepted so far
            // still form a valid (coarser) rule, so keep them.
            break;
        }
        let Some(cand) = find_best_condition(&current, opts.metric, &search) else {
            break;
        };
        // Required margin: relative to the current score's magnitude, with
        // an absolute epsilon so a zero-score empty rule can be refined.
        let margin = (score.abs() * opts.min_improvement).max(1e-9);
        let improves = cand.score > score + margin;
        let forced = opts
            .recall_guard
            .as_ref()
            // `stats.neg()` is the current rule's coverage of the original
            // target class in the N-task (see GrowOptions docs). The empty
            // rule covers everything, so the guard always forces at least
            // one condition when recall matters.
            .is_some_and(|g| !improves && g.violated_by(stats.neg()));
        if !improves && !forced {
            break;
        }
        let matched = current.rows_matching(&cand.condition);
        if matched.len() >= current.n_rows() {
            // The candidate does not shrink coverage: accepting it cannot
            // change the rule's behaviour, and a forced (recall-guard)
            // refinement would loop on it forever.
            break;
        }
        if forced && cand.stats.neg() >= stats.neg() {
            // Forced refinement exists to shed original-target coverage; a
            // candidate that sheds none makes no recall progress.
            break;
        }
        rule.push(cand.condition);
        stats = cand.stats;
        score = cand.score;
        current = current.restricted_to(matched);
        if pnr_data::weights::approx::is_zero(stats.neg()) {
            // Pure rule: nothing left to refine for.
            break;
        }
    }

    if rule.is_empty() {
        None
    } else {
        Some(GrownRule { rule, stats, score })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_data::{AttrType, Dataset, DatasetBuilder, Value};

    /// P-phase style options: improvement-gated growth with a support floor.
    fn p_phase(metric: EvalMetric, min_support_weight: f64, use_ranges: bool) -> GrowOptions {
        GrowOptions {
            metric,
            max_len: None,
            min_improvement: 0.02,
            recall_guard: None,
            search: SearchOptions {
                use_ranges,
                min_support_weight,
                ..SearchOptions::default()
            },
        }
    }

    /// positives at (x in (2,4], k=a); x and k vary independently, so the
    /// impure x-band also holds k=b negatives and only the conjunction is
    /// pure.
    fn two_signal_data() -> (Dataset, Vec<bool>) {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("k", AttrType::Categorical);
        b.add_class("pos");
        b.add_class("neg");
        for i in 0..200 {
            let x = (i % 10) as f64;
            let k = if (i / 10) % 2 == 0 { "a" } else { "b" };
            let target = (3.0..=4.0).contains(&x) && k == "a";
            b.push_row(
                &[Value::num(x), Value::cat(k)],
                if target { "pos" } else { "neg" },
                1.0,
            )
            .unwrap();
        }
        let d = b.finish();
        let is_pos: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
        (d, is_pos)
    }

    #[test]
    fn grows_conjunction_until_pure() {
        let (d, is_pos) = two_signal_data();
        let v = TaskView::full(&d, &is_pos, d.weights());
        let opts = p_phase(EvalMetric::ZNumber, 0.0, true);
        let g = grow_rule(&v, &opts).expect("rule should be grown");
        assert_eq!(g.stats.neg(), 0.0, "rule should end pure: {:?}", g.rule);
        assert_eq!(g.stats.pos, 20.0, "rule should cover all positives");
        assert!(g.rule.len() >= 2, "needs both the range and the category");
    }

    #[test]
    fn max_len_caps_growth() {
        let (d, is_pos) = two_signal_data();
        let v = TaskView::full(&d, &is_pos, d.weights());
        let opts = GrowOptions {
            max_len: Some(1),
            ..p_phase(EvalMetric::ZNumber, 0.0, true)
        };
        let g = grow_rule(&v, &opts).expect("one-condition rule");
        assert_eq!(g.rule.len(), 1);
        // with one condition the x-band is the best single signal and stays impure
        assert!(g.stats.neg() > 0.0);
    }

    #[test]
    fn support_floor_prevents_overrefinement() {
        let (d, is_pos) = two_signal_data();
        let v = TaskView::full(&d, &is_pos, d.weights());
        // Floor above the pure conjunction's support (20): growth must stop
        // at a coarser rule.
        let opts = p_phase(EvalMetric::ZNumber, 25.0, true);
        if let Some(g) = grow_rule(&v, &opts) {
            assert!(
                g.stats.total >= 25.0,
                "support {} under floor",
                g.stats.total
            );
        }
    }

    #[test]
    fn returns_none_on_constant_data() {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_class("pos");
        b.add_class("neg");
        for i in 0..10 {
            b.push_row(
                &[Value::num(1.0)],
                if i % 2 == 0 { "pos" } else { "neg" },
                1.0,
            )
            .unwrap();
        }
        let d = b.finish();
        let is_pos: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
        let v = TaskView::full(&d, &is_pos, d.weights());
        assert!(grow_rule(&v, &p_phase(EvalMetric::ZNumber, 0.0, true)).is_none());
    }

    #[test]
    fn recall_guard_forces_refinement() {
        // Data where the best single condition for the N-task covers many
        // original-target records; the guard must push growth further.
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("y", AttrType::Numeric);
        b.add_class("fp"); // N-task positive: false positive of P-union
        b.add_class("tp"); // N-task negative: original target
        for i in 0..200 {
            let x = (i % 10) as f64;
            let y = (i / 10 % 2) as f64;
            // false positives live at x<=4; but among x<=4, y==1 rows are
            // true positives that a coarse rule would sacrifice.
            let class = if x <= 4.0 && i / 10 % 2 == 0 {
                "fp"
            } else {
                "tp"
            };
            b.push_row(&[Value::num(x), Value::num(y)], class, 1.0)
                .unwrap();
        }
        let d = b.finish();
        let is_fp: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
        let v = TaskView::full(&d, &is_fp, d.weights());
        let orig_pos_total = v.total_weight() - v.pos_weight();

        let lax = GrowOptions {
            recall_guard: Some(RecallGuard {
                retained_pos: orig_pos_total,
                orig_pos_total,
                min_recall: 0.0,
            }),
            ..p_phase(EvalMetric::ZNumber, 0.0, false)
        };
        let strict = GrowOptions {
            recall_guard: Some(RecallGuard {
                retained_pos: orig_pos_total,
                orig_pos_total,
                min_recall: 1.0,
            }),
            ..lax.clone()
        };
        let g_lax = grow_rule(&v, &lax).unwrap();
        let g_strict = grow_rule(&v, &strict).unwrap();
        assert!(
            g_strict.stats.neg() <= g_lax.stats.neg(),
            "strict guard should sacrifice fewer targets: {} vs {}",
            g_strict.stats.neg(),
            g_lax.stats.neg()
        );
        assert_eq!(g_strict.stats.neg(), 0.0, "rn=1.0 demands a pure N-rule");
        assert!(g_strict.rule.len() >= g_lax.rule.len());
    }

    #[test]
    fn recall_guard_math() {
        let g = RecallGuard {
            retained_pos: 80.0,
            orig_pos_total: 100.0,
            min_recall: 0.7,
        };
        assert_eq!(g.recall_after(10.0), 0.7);
        assert!(!g.violated_by(10.0));
        assert!(g.violated_by(10.1));
        assert_eq!(g.recall_after(1000.0), 0.0);
        let degenerate = RecallGuard {
            retained_pos: 0.0,
            orig_pos_total: 0.0,
            min_recall: 0.9,
        };
        assert_eq!(degenerate.recall_after(5.0), 1.0);
    }
}
