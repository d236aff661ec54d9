//! Tunable parameters of the PNrule learner.

use pnr_rules::{EvalMetric, FitBudget};
use serde::{Deserialize, Serialize};

/// Control parameters of the two-phase learner.
///
/// The two headline knobs the paper exposes (section 2.2, section 4):
///
/// * [`rp`](Self::rp) — the minimum fraction of the target class the
///   P-phase must cover before accuracy gating kicks in. It acts as an
///   *upper limit on recall*: nothing the N-phase does can recover target
///   examples no P-rule covers.
/// * [`rn`](Self::rn) — the *lower limit on recall* guarding N-rule
///   refinement: an N-rule is forced to grow more specific whenever
///   accepting it as-is would push retained recall below `rn`.
///
/// Together they give the user implicit control over the classifier's
/// recall/precision balance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PnruleParams {
    /// Minimum target-class coverage of the P-phase (upper recall limit).
    /// Paper values: 0.95, 0.99, 0.995.
    pub rp: f64,
    /// Lower recall limit guarding N-rule refinement. Paper values: 0.7 to
    /// 0.995.
    pub rn: f64,
    /// A P-rule's support (total covered weight) must stay above this
    /// fraction of the original target-class weight.
    pub min_support_frac: f64,
    /// After coverage reaches `rp`, a new P-rule is added only if its
    /// accuracy is at least this.
    pub min_accuracy: f64,
    /// Cap on P-rule length; `Some(1)` reproduces the paper's `probe.P1` /
    /// `r2l.P1` configurations where "restricting P-rule length to 1 allows
    /// P-rules to be very general".
    pub max_p_rule_len: Option<usize>,
    /// Cap on N-rule length (`None` = grow until the criteria stop it).
    pub max_n_rule_len: Option<usize>,
    /// Evaluation metric for candidate rules in both phases. The paper's
    /// default is the Z-number; its section-4 experiments also use RIPPER's
    /// information gain ([`EvalMetric::FoilGain`]).
    pub metric: EvalMetric,
    /// Evaluate explicit range conditions on numeric attributes (section
    /// 2.2). Disable only for the range-ablation experiment.
    pub use_ranges: bool,
    /// Relative metric improvement a refinement must deliver to be
    /// accepted during rule growth (overfitting guard; see
    /// [`crate::grow::GrowOptions::min_improvement`]).
    pub min_improvement: f64,
    /// Disable the N-phase entirely (ablation): the model degenerates to a
    /// relaxed-accuracy sequential coverer.
    pub enable_n_phase: bool,
    /// MDL slack in bits for the N-stage stopping rule: stop adding N-rules
    /// when the set's description length exceeds the minimum seen so far by
    /// more than this. 64 bits is RIPPER's convention.
    pub mdl_slack_bits: f64,
    /// |z| threshold below which an N-rule's effect on a P-rule is deemed
    /// insignificant and ignored by the scoring mechanism.
    pub scoring_z_threshold: f64,
    /// Decision threshold on the ScoreMatrix probability ("usually 50%").
    pub decision_threshold: f64,
    /// Hard cap on the number of P-rules (safety valve; generous default).
    pub max_p_rules: usize,
    /// Hard cap on the number of N-rules.
    pub max_n_rules: usize,
    /// Training budget (rules, candidate evaluations, wall clock). When a
    /// limit is exhausted the fit stops growing and returns the valid
    /// model learned so far, recording
    /// [`StopReason::BudgetExhausted`](crate::nphase::StopReason) in the
    /// [`FitReport`](crate::learn::FitReport). Unlimited by default.
    #[serde(default)]
    pub budget: FitBudget,
    /// Worker-thread cap for the condition search in both phases:
    /// `None` (default) lets the size-based heuristic decide, `Some(1)`
    /// runs the search inline on the calling thread, `Some(k)` forces the
    /// threaded path with at most `k` workers even on small fits. The
    /// learned model is bit-identical for every setting (the `cargo
    /// xtask determinism` harness sweeps {1, 2, max} to prove it), so
    /// this is a performance/verification knob, never a model knob.
    #[serde(default)]
    pub search_workers: Option<usize>,
}

impl Default for PnruleParams {
    fn default() -> Self {
        PnruleParams {
            rp: 0.95,
            rn: 0.9,
            min_support_frac: 0.02,
            min_accuracy: 0.9,
            max_p_rule_len: None,
            max_n_rule_len: None,
            metric: EvalMetric::ZNumber,
            use_ranges: true,
            min_improvement: 0.02,
            enable_n_phase: true,
            mdl_slack_bits: 64.0,
            scoring_z_threshold: 1.0,
            decision_threshold: 0.5,
            max_p_rules: 200,
            max_n_rules: 200,
            budget: FitBudget::unlimited(),
            search_workers: None,
        }
    }
}

impl PnruleParams {
    /// Convenience constructor for the paper's section-4 parameter grids:
    /// set `rp` and `rn`, keep everything else at the defaults.
    pub fn with_recall_limits(rp: f64, rn: f64) -> Self {
        PnruleParams {
            rp,
            rn,
            ..Default::default()
        }
    }

    /// Describes the first out-of-range parameter, or `None` when every
    /// parameter is in range.
    pub fn validation_error(&self) -> Option<String> {
        let unit = 0.0..=1.0;
        if !unit.contains(&self.rp) {
            return Some(format!("rp must be in [0,1], got {}", self.rp));
        }
        if !unit.contains(&self.rn) {
            return Some(format!("rn must be in [0,1], got {}", self.rn));
        }
        if !unit.contains(&self.min_support_frac) {
            return Some("min_support_frac must be in [0,1]".to_owned());
        }
        if !unit.contains(&self.min_accuracy) {
            return Some("min_accuracy must be in [0,1]".to_owned());
        }
        if !(0.0..1.0).contains(&self.decision_threshold) {
            return Some("decision_threshold must be in [0,1)".to_owned());
        }
        if !(0.0..).contains(&self.mdl_slack_bits) {
            return Some("mdl_slack_bits must be non-negative".to_owned());
        }
        if !(0.0..).contains(&self.min_improvement) {
            return Some("min_improvement must be non-negative".to_owned());
        }
        if !(0.0..).contains(&self.scoring_z_threshold) {
            return Some("scoring_z_threshold must be non-negative".to_owned());
        }
        if self.max_p_rule_len == Some(0) {
            return Some("max_p_rule_len of 0 would forbid any rule".to_owned());
        }
        if self.max_n_rule_len == Some(0) {
            return Some("max_n_rule_len of 0 would forbid any rule".to_owned());
        }
        if self.search_workers == Some(0) {
            return Some(
                "search_workers of 0 would leave no worker to scan; use Some(1) \
                 for the sequential path or None for the heuristic"
                    .to_owned(),
            );
        }
        self.budget.validation_error()
    }

    /// Panics with a descriptive message if any parameter is out of range
    /// (see [`Self::validation_error`]).
    pub fn validate(&self) {
        if let Some(problem) = self.validation_error() {
            panic!("{problem}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        PnruleParams::default().validate();
    }

    #[test]
    fn with_recall_limits_sets_both() {
        let p = PnruleParams::with_recall_limits(0.995, 0.8);
        assert_eq!(p.rp, 0.995);
        assert_eq!(p.rn, 0.8);
        p.validate();
    }

    #[test]
    #[should_panic(expected = "rp")]
    fn invalid_rp_rejected() {
        PnruleParams {
            rp: 1.5,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "max_p_rule_len")]
    fn zero_rule_length_rejected() {
        PnruleParams {
            max_p_rule_len: Some(0),
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn serde_round_trip() {
        let p = PnruleParams::with_recall_limits(0.99, 0.7);
        let json = serde_json::to_string(&p).unwrap();
        let back: PnruleParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn params_without_budget_field_deserialize_as_unlimited() {
        // JSON written before the budget field existed must still load.
        let p = PnruleParams::default();
        let json = serde_json::to_string(&p).unwrap();
        let legacy = json.replacen(
            ",\"budget\":{\"max_rules\":null,\"max_candidates\":null,\"wall_clock_secs\":null}",
            "",
            1,
        );
        assert_ne!(legacy, json, "budget field not found in serialized form");
        let back: PnruleParams = serde_json::from_str(&legacy).unwrap();
        assert!(back.budget.is_unlimited());
        assert_eq!(back, p);
    }

    #[test]
    #[should_panic(expected = "max_rules")]
    fn zero_budget_rule_cap_rejected() {
        PnruleParams {
            budget: FitBudget {
                max_rules: Some(0),
                ..FitBudget::default()
            },
            ..Default::default()
        }
        .validate();
    }
}
