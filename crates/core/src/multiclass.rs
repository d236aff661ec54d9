//! Multi-class classification via per-class binary PNrule models.
//!
//! The PNrule framework reduces a k-class problem to k binary problems —
//! one model per class, scored records assigned to the highest-scoring
//! class (the reduction the companion paper \[1\] describes; this paper's
//! footnote 3 notes the framework's applicability "to the multi-class
//! problem with different costs of misclassification"). Per-class
//! misclassification costs scale the scores before the argmax.
//!
//! # Tie-breaking
//!
//! When two classes end up with exactly equal cost-scaled scores, the class
//! with the **higher misclassification cost** wins (misclassifying it is
//! dearer, so the tie resolves toward caution); if the costs tie too, the
//! **lower class code** wins. The rule is deliberate and pinned by tests —
//! a bare `Iterator::max_by` would silently favour the highest class code,
//! an accident of enumeration order.

use crate::learn::PnruleLearner;
use crate::model::PnruleModel;
use crate::params::PnruleParams;
use pnr_data::Dataset;
use pnr_rules::BinaryClassifier;
use serde::{Deserialize, Serialize};

/// A k-class classifier made of one binary PNrule model per class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiClassPnrule {
    models: Vec<PnruleModel>,
    /// Per-class score multipliers (misclassification costs); 1.0 = none.
    costs: Vec<f64>,
    /// Fallback class when every model scores 0 (majority class at fit
    /// time).
    default_class: u32,
}

impl MultiClassPnrule {
    /// Fits one binary model per class of `data` with shared `params`.
    pub fn fit(data: &Dataset, params: &PnruleParams) -> Self {
        Self::fit_with_costs(data, params, &vec![1.0; data.n_classes()])
    }

    /// Fits with per-class score multipliers.
    ///
    /// # Panics
    /// Panics if `costs.len() != data.n_classes()` or any cost is
    /// non-positive.
    pub fn fit_with_costs(data: &Dataset, params: &PnruleParams, costs: &[f64]) -> Self {
        assert_eq!(costs.len(), data.n_classes(), "one cost per class");
        assert!(costs.iter().all(|&c| c > 0.0), "costs must be positive");
        let learner = PnruleLearner::new(params.clone());
        let models = (0..pnr_data::index::to_u32(data.n_classes(), "class count"))
            .map(|c| learner.fit(data, c))
            .collect();
        let class_weights = data.class_weights();
        // total_cmp: class weights are finite sums of builder-validated
        // weights, so the ordering matches partial_cmp without a panic arm.
        let default_class = class_weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| pnr_data::index::to_u32(i, "class code"))
            .unwrap_or(0);
        MultiClassPnrule {
            models,
            costs: costs.to_vec(),
            default_class,
        }
    }

    /// The per-class binary models, indexed by class code.
    pub fn models(&self) -> &[PnruleModel] {
        &self.models
    }

    /// Cost-scaled score of `row` for every class.
    pub fn class_scores(&self, data: &Dataset, row: usize) -> Vec<f64> {
        self.models
            .iter()
            .zip(&self.costs)
            .map(|(m, &c)| m.score(data, row) * c)
            .collect()
    }

    /// Predicted class: the highest-scoring model, or the default class
    /// when no model fires at all.
    ///
    /// Exact score ties break toward the class with the higher
    /// misclassification cost, then toward the lower class code (see the
    /// [module docs](self#tie-breaking)).
    pub fn classify(&self, data: &Dataset, row: usize) -> u32 {
        use std::cmp::Ordering;
        let scores = self.class_scores(data, row);
        let mut best: Option<usize> = None;
        // total_cmp: scores are products of ScoreMatrix probabilities and
        // positive costs, always finite. Iterating in ascending class code
        // and keeping the incumbent on full ties makes the lower class code
        // the final tie-breaker.
        for (i, s) in scores.iter().enumerate() {
            let challenger_wins = match best {
                None => true,
                Some(b) => match s.total_cmp(&scores[b]) {
                    Ordering::Greater => true,
                    Ordering::Less => false,
                    Ordering::Equal => self.costs[i].total_cmp(&self.costs[b]) == Ordering::Greater,
                },
            };
            if challenger_wins {
                best = Some(i);
            }
        }
        let Some(best) = best else {
            return self.default_class;
        };
        if scores[best] <= 0.0 {
            self.default_class
        } else {
            pnr_data::index::to_u32(best, "class code")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_data::{AttrType, DatasetBuilder, Value};
    use pnr_metrics::MulticlassConfusion;

    fn three_class_data(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("k", AttrType::Categorical);
        b.add_class("low");
        b.add_class("high");
        b.add_class("special");
        for i in 0..n {
            let x = (i % 100) as f64;
            let k = if (i / 100) % 4 == 0 { "s" } else { "t" };
            let class = if k == "s" && x < 50.0 {
                "special"
            } else if x < 50.0 {
                "low"
            } else {
                "high"
            };
            b.push_row(&[Value::num(x), Value::cat(k)], class, 1.0)
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn learns_three_way_structure() {
        let d = three_class_data(2_000);
        let mc = MultiClassPnrule::fit(&d, &PnruleParams::default());
        let mut cm = MulticlassConfusion::new(d.n_classes());
        for row in 0..d.n_rows() {
            cm.record(d.label(row) as usize, mc.classify(&d, row) as usize, 1.0);
        }
        assert!(cm.accuracy() > 0.95, "accuracy {}", cm.accuracy());
        assert!(cm.macro_f() > 0.9, "macro F {}", cm.macro_f());
    }

    #[test]
    fn one_model_per_class() {
        let d = three_class_data(400);
        let mc = MultiClassPnrule::fit(&d, &PnruleParams::default());
        assert_eq!(mc.models().len(), 3);
    }

    #[test]
    fn costs_bias_predictions_toward_expensive_class() {
        let d = three_class_data(2_000);
        let special = d.class_code("special").unwrap() as usize;
        let uniform = MultiClassPnrule::fit(&d, &PnruleParams::default());
        let mut costs = vec![1.0; 3];
        costs[special] = 50.0;
        let biased = MultiClassPnrule::fit_with_costs(&d, &PnruleParams::default(), &costs);
        let count = |mc: &MultiClassPnrule| {
            (0..d.n_rows())
                .filter(|&r| mc.classify(&d, r) == special as u32)
                .count()
        };
        assert!(
            count(&biased) >= count(&uniform),
            "raising a class's cost must not shrink its predictions"
        );
    }

    /// A model whose single catch-all P-rule gives every record the given
    /// score (ScoreMatrix fields are private; serde is the construction
    /// seam for synthetic matrices).
    fn flat_model(score: f64) -> crate::model::PnruleModel {
        use pnr_rules::{Condition, Rule, RuleSet};
        let sm: crate::scoring::ScoreMatrix =
            serde_json::from_str(&format!(r#"{{"n_p":1,"n_n":0,"scores":[{score}]}}"#)).unwrap();
        crate::model::PnruleModel {
            target: 0,
            threshold: 0.5,
            p_rules: RuleSet::from_rules(vec![Rule::new(vec![Condition::NumGt {
                attr: 0,
                value: -1.0,
            }])]),
            n_rules: RuleSet::new(),
            score_matrix: sm,
        }
    }

    fn one_row_data() -> Dataset {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_class("a");
        b.add_class("b");
        b.push_row(&[Value::num(0.0)], "a", 1.0).unwrap();
        b.finish()
    }

    #[test]
    fn exact_score_tie_breaks_to_lower_class_code() {
        // Two identical models, identical costs: every class scores the
        // same. A bare max_by would return the *last* maximum (class 1);
        // the documented tie-break demands the lower class code. The
        // default class is set to 1 so a fallback can't mask the bug.
        let d = one_row_data();
        let mc = MultiClassPnrule {
            models: vec![flat_model(0.8), flat_model(0.8)],
            costs: vec![1.0, 1.0],
            default_class: 1,
        };
        assert_eq!(mc.classify(&d, 0), 0);
    }

    #[test]
    fn exact_score_tie_breaks_to_higher_cost_first() {
        // Raw scores 0.5 and 1.0 scaled by costs 2.0 and 1.0 tie at 1.0;
        // the costlier class (0) must win over the lower-code-last
        // accident a bare max_by produces.
        let d = one_row_data();
        let mc = MultiClassPnrule {
            models: vec![flat_model(0.5), flat_model(1.0)],
            costs: vec![2.0, 1.0],
            default_class: 1,
        };
        assert_eq!(mc.classify(&d, 0), 0);
    }

    #[test]
    #[should_panic(expected = "one cost per class")]
    fn wrong_cost_arity_panics() {
        let d = three_class_data(100);
        MultiClassPnrule::fit_with_costs(&d, &PnruleParams::default(), &[1.0]);
    }

    #[test]
    fn unmatched_records_get_default_class() {
        let d = three_class_data(400);
        let mc = MultiClassPnrule::fit(&d, &PnruleParams::default());
        // craft a query dataset far outside the training distribution
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("k", AttrType::Categorical);
        b.add_cat_value(1, "s");
        b.add_cat_value(1, "t");
        b.add_class("low");
        b.add_class("high");
        b.add_class("special");
        b.push_row(&[Value::num(1e6), Value::cat("t")], "low", 1.0)
            .unwrap();
        let q = b.finish();
        let c = mc.classify(&q, 0);
        assert!((c as usize) < 3);
    }

    #[test]
    fn serde_round_trip() {
        let d = three_class_data(400);
        let mc = MultiClassPnrule::fit(&d, &PnruleParams::default());
        let back: MultiClassPnrule =
            serde_json::from_str(&serde_json::to_string(&mc).unwrap()).unwrap();
        for row in (0..d.n_rows()).step_by(37) {
            assert_eq!(back.classify(&d, row), mc.classify(&d, row));
        }
    }
}
