//! The trained PNrule model and its classification strategy.

use crate::scoring::ScoreMatrix;
use pnr_data::{Dataset, Schema};
use pnr_rules::{BinaryClassifier, RuleSet};
use serde::{Deserialize, Serialize};

/// A trained two-phase model (section 2.3).
///
/// Classification of an unseen record: P-rules are applied in rank order;
/// if none applies the prediction is False with score 0. The first P-rule
/// that applies is accepted, then N-rules are applied in rank order (with
/// an implicit default N-rule when none applies), and the record's score is
/// the ScoreMatrix entry for that (P-rule, N-rule) combination. The binary
/// decision thresholds the score (usually at 50%).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PnruleModel {
    /// Class code of the target class in the training schema.
    pub target: u32,
    /// Decision threshold on the score.
    pub threshold: f64,
    /// Ranked P-rules.
    pub p_rules: RuleSet,
    /// Ranked N-rules.
    pub n_rules: RuleSet,
    /// The scoring mechanism.
    pub score_matrix: ScoreMatrix,
}

/// Which rules fired for a record — the model's explanation of a decision.
/// The default is the trace of a record no P-rule matched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleTrace {
    /// Index of the first matching P-rule (`None` = no P-rule applied).
    pub p_rule: Option<usize>,
    /// Index of the first matching N-rule (`None` = default N-rule or no
    /// P-rule applied).
    pub n_rule: Option<usize>,
}

impl PnruleModel {
    /// Score *and* explanation of `row` from a single first-match sweep of
    /// the rule lists. Callers that need both the decision and the firing
    /// rules (error analysis, tracing UIs) use this instead of calling
    /// [`score`](BinaryClassifier::score) and [`Self::trace`] separately —
    /// those would each walk the P- and N-rule lists again.
    pub fn score_with_trace(&self, data: &Dataset, row: usize) -> (f64, RuleTrace) {
        self.score_matrix
            .route(self.p_rules.first_match(data, row), || {
                self.n_rules.first_match(data, row)
            })
    }

    /// The rules that fire for `row`.
    pub fn trace(&self, data: &Dataset, row: usize) -> RuleTrace {
        self.score_with_trace(data, row).1
    }

    /// Multi-line human-readable rendering of the model.
    pub fn describe(&self, schema: &Schema) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "PNrule model: {} P-rules, {} N-rules, threshold {}\n",
            self.p_rules.len(),
            self.n_rules.len(),
            self.threshold
        ));
        s.push_str("P-rules (presence of target):\n");
        s.push_str(&self.p_rules.display_lines(schema));
        s.push_str("N-rules (absence of target):\n");
        s.push_str(&self.n_rules.display_lines(schema));
        s
    }
}

impl BinaryClassifier for PnruleModel {
    fn score(&self, data: &Dataset, row: usize) -> f64 {
        self.score_with_trace(data, row).0
    }

    fn predict(&self, data: &Dataset, row: usize) -> bool {
        self.score(data, row) > self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_data::{AttrType, DatasetBuilder, Value};
    use pnr_rules::{Condition, Rule};

    fn model_and_data() -> (PnruleModel, Dataset) {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("y", AttrType::Numeric);
        b.add_class("pos");
        b.add_class("neg");
        // P-rule: x <= 5. N-rule: y > 0. Targets: x<=5 && y<=0.
        for i in 0..40 {
            let x = (i % 10) as f64;
            let y = (i % 2) as f64;
            let target = x <= 5.0 && i % 2 == 0;
            b.push_row(
                &[Value::num(x), Value::num(y)],
                if target { "pos" } else { "neg" },
                1.0,
            )
            .unwrap();
        }
        let d = b.finish();
        let is_pos: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
        let p_rules = RuleSet::from_rules(vec![Rule::new(vec![Condition::NumLe {
            attr: 0,
            value: 5.0,
        }])]);
        let n_rules = RuleSet::from_rules(vec![Rule::new(vec![Condition::NumGt {
            attr: 1,
            value: 0.0,
        }])]);
        let sm = ScoreMatrix::build(&d, &is_pos, &p_rules, &n_rules, 1.0);
        let model = PnruleModel {
            target: 0,
            threshold: 0.5,
            p_rules,
            n_rules,
            score_matrix: sm,
        };
        (model, d)
    }

    #[test]
    fn classification_follows_p_and_not_n() {
        let (model, d) = model_and_data();
        for row in 0..d.n_rows() {
            let expected = d.label(row) == 0;
            assert_eq!(model.predict(&d, row), expected, "row {row}");
        }
    }

    #[test]
    fn no_p_match_scores_zero() {
        let (model, d) = model_and_data();
        // find a row with x > 5
        let row = (0..d.n_rows()).find(|&r| d.num(0, r) > 5.0).unwrap();
        assert_eq!(model.score(&d, row), 0.0);
        assert_eq!(
            model.trace(&d, row),
            RuleTrace {
                p_rule: None,
                n_rule: None
            }
        );
    }

    #[test]
    fn trace_reports_first_matches() {
        let (model, d) = model_and_data();
        let pos_row = (0..d.n_rows()).find(|&r| d.label(r) == 0).unwrap();
        let t = model.trace(&d, pos_row);
        assert_eq!(t.p_rule, Some(0));
        assert_eq!(t.n_rule, None, "targets have y=0, the N-rule must not fire");
        let fp_row = (0..d.n_rows())
            .find(|&r| d.num(0, r) <= 5.0 && d.num(1, r) > 0.0)
            .unwrap();
        let t = model.trace(&d, fp_row);
        assert_eq!(t.n_rule, Some(0));
    }

    #[test]
    fn describe_lists_rules() {
        let (model, d) = model_and_data();
        let s = model.describe(d.schema());
        assert!(s.contains("1 P-rules"));
        assert!(s.contains("x <= 5"));
        assert!(s.contains("y > 0"));
    }

    #[test]
    fn score_with_trace_agrees_with_score_and_trace() {
        // Regression: score and trace used to run separate first_match
        // sweeps; the single-pass path must report exactly what the two
        // individual calls report, on every row (matched by P only, by
        // P and N, and by neither).
        let (model, d) = model_and_data();
        for row in 0..d.n_rows() {
            let (s, t) = model.score_with_trace(&d, row);
            assert_eq!(s, model.score(&d, row), "row {row}");
            assert_eq!(t, model.trace(&d, row), "row {row}");
        }
    }

    #[test]
    fn serde_round_trip() {
        let (model, d) = model_and_data();
        let json = serde_json::to_string(&model).unwrap();
        let back: PnruleModel = serde_json::from_str(&json).unwrap();
        for row in 0..d.n_rows() {
            assert_eq!(back.score(&d, row), model.score(&d, row));
        }
    }
}
