//! Property-based tests for the PNrule learner's invariants.

use pnr_core::{
    ModelArtifact, PnruleLearner, PnruleParams, RecordError, RuleTrace, ScoreMatrix, ScoredRecord,
    ServingModel, ServingValue, UnknownKind, UnknownPolicy,
};
use pnr_data::{AttrType, Dataset, DatasetBuilder, Value};
use pnr_rules::{BinaryClassifier, Condition, Rule, RuleSet};
use proptest::prelude::*;

fn dataset(rows: &[(f64, f64, bool)]) -> (Dataset, Vec<bool>) {
    let mut b = DatasetBuilder::new();
    b.add_attribute("x", AttrType::Numeric);
    b.add_attribute("y", AttrType::Numeric);
    b.add_class("pos");
    b.add_class("neg");
    for &(x, y, p) in rows {
        b.push_row(
            &[Value::num(x), Value::num(y)],
            if p { "pos" } else { "neg" },
            1.0,
        )
        .unwrap();
    }
    let d = b.finish();
    let flags: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
    (d, flags)
}

fn rows() -> impl Strategy<Value = Vec<(f64, f64, bool)>> {
    prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0, prop::bool::ANY), 6..100)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn scores_are_probabilities(data_rows in rows()) {
        let (d, _) = dataset(&data_rows);
        let model = PnruleLearner::new(PnruleParams::default()).fit(&d, 0);
        for row in 0..d.n_rows() {
            let s = model.score(&d, row);
            prop_assert!((0.0..=1.0).contains(&s), "score {s}");
        }
    }

    #[test]
    fn p_rules_bound_positive_predictions(data_rows in rows()) {
        // No record can be predicted positive unless some P-rule matches.
        let (d, _) = dataset(&data_rows);
        let model = PnruleLearner::new(PnruleParams::default()).fit(&d, 0);
        for row in 0..d.n_rows() {
            if model.predict(&d, row) {
                prop_assert!(
                    model.p_rules.any_match(&d, row),
                    "positive prediction without a P-rule"
                );
            }
        }
    }

    #[test]
    fn disabled_n_phase_scores_by_p_rule_row_estimate(data_rows in rows()) {
        // Without an N-phase the model has no N-rules, and every covered
        // record's score is its first P-rule's default-column estimate.
        let (d, _) = dataset(&data_rows);
        let model = PnruleLearner::new(PnruleParams {
            enable_n_phase: false,
            ..Default::default()
        })
        .fit(&d, 0);
        prop_assert!(model.n_rules.is_empty());
        for row in 0..d.n_rows() {
            match model.p_rules.first_match(&d, row) {
                None => prop_assert_eq!(model.score(&d, row), 0.0),
                Some(p) => {
                    prop_assert_eq!(model.score(&d, row), model.score_matrix.score(p, None));
                }
            }
        }
    }

    #[test]
    fn score_matrix_entries_are_probabilities(
        data_rows in rows(),
        t1 in -20.0f64..20.0,
        t2 in -20.0f64..20.0,
    ) {
        let (d, flags) = dataset(&data_rows);
        let p_rules = RuleSet::from_rules(vec![
            Rule::new(vec![Condition::NumLe { attr: 0, value: t1 }]),
            Rule::new(vec![Condition::NumGt { attr: 0, value: t1 }]),
        ]);
        let n_rules =
            RuleSet::from_rules(vec![Rule::new(vec![Condition::NumLe { attr: 1, value: t2 }])]);
        let sm = ScoreMatrix::build(&d, &flags, &p_rules, &n_rules, 1.0);
        for p in 0..2 {
            for n in [None, Some(0)] {
                let s = sm.score(p, n);
                prop_assert!((0.0..=1.0).contains(&s), "cell score {s}");
            }
        }
    }

    #[test]
    fn max_p_rule_len_is_respected(data_rows in rows(), cap in 1usize..4) {
        let (d, _) = dataset(&data_rows);
        let model = PnruleLearner::new(PnruleParams {
            max_p_rule_len: Some(cap),
            ..Default::default()
        })
        .fit(&d, 0);
        for rule in model.p_rules.rules() {
            prop_assert!(rule.len() <= cap, "rule length {} over cap {cap}", rule.len());
        }
    }

    #[test]
    fn trace_is_consistent_with_score(data_rows in rows()) {
        let (d, _) = dataset(&data_rows);
        let model = PnruleLearner::new(PnruleParams::default()).fit(&d, 0);
        for row in 0..d.n_rows() {
            let t = model.trace(&d, row);
            match t.p_rule {
                None => prop_assert_eq!(model.score(&d, row), 0.0),
                Some(p) => {
                    let expected = model.score_matrix.score(p, t.n_rule);
                    prop_assert_eq!(model.score(&d, row), expected);
                }
            }
        }
    }

    #[test]
    fn serving_matches_the_interpreter_under_every_unknown_policy(
        data_rows in rows(),
        masks in prop::collection::vec((prop::bool::ANY, prop::bool::ANY), 24),
    ) {
        // `ServingModel::score_values` must be observationally
        // identical to an inline interpreter oracle — score bits,
        // decision, abstention, unknown-value count, trace — under each
        // unknown-value policy, including records carrying unknowns in
        // either or both columns.
        let (d, _) = dataset(&data_rows);
        let params = PnruleParams::default();
        let (model, report) = PnruleLearner::new(params.clone()).fit_with_report(&d, 0);
        let artifact = ModelArtifact::new(model.clone(), params, report, d.schema().clone()).unwrap();
        for policy in [
            UnknownPolicy::ConditionFalse,
            UnknownPolicy::Abstain,
            UnknownPolicy::Reject,
        ] {
            let serving = ServingModel::new(artifact.clone()).with_unknown_policy(policy);
            for (i, &(hide_x, hide_y)) in masks.iter().enumerate() {
                let row = i % d.n_rows();
                let x = if hide_x {
                    ServingValue::Unknown(UnknownKind::NonFinite)
                } else {
                    ServingValue::Num(d.num(0, row))
                };
                let y = if hide_y {
                    ServingValue::Unknown(UnknownKind::UnseenCategory)
                } else {
                    ServingValue::Num(d.num(1, row))
                };
                let values = [x, y];
                let unknown_values = usize::from(hide_x) + usize::from(hide_y);
                let num = |a: usize| match values[a] {
                    ServingValue::Num(v) => Some(v),
                    _ => None,
                };
                let cat = |a: usize| match values[a] {
                    ServingValue::Code(c) => Some(c),
                    _ => None,
                };
                let no_match = RuleTrace { p_rule: None, n_rule: None };
                let want = match (policy, unknown_values) {
                    (UnknownPolicy::Reject, n) if n > 0 => {
                        Err(RecordError::UnknownRejected { unknown_values: n })
                    }
                    (UnknownPolicy::Abstain, n) if n > 0 => Ok(ScoredRecord {
                        score: 0.0,
                        decision: false,
                        trace: no_match,
                        abstained: true,
                        unknown_values: n,
                    }),
                    _ => {
                        let (score, trace) = match model.p_rules.first_match_lookup(num, cat) {
                            None => (0.0, no_match),
                            Some(pi) => {
                                let nj = model.n_rules.first_match_lookup(num, cat);
                                (
                                    model.score_matrix.score(pi, nj),
                                    RuleTrace { p_rule: Some(pi), n_rule: nj },
                                )
                            }
                        };
                        Ok(ScoredRecord {
                            score,
                            decision: score > model.threshold,
                            trace,
                            abstained: false,
                            unknown_values,
                        })
                    }
                };
                match (serving.score_values(&values), want) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(a.score.to_bits(), b.score.to_bits(),
                            "policy {:?} values {:?}: {} != {}", policy, &values, a.score, b.score);
                        prop_assert_eq!(a.decision, b.decision);
                        prop_assert_eq!(a.abstained, b.abstained);
                        prop_assert_eq!(a.unknown_values, b.unknown_values);
                        prop_assert_eq!(a.trace, b.trace);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    (a, b) => prop_assert!(false, "serving {:?} vs oracle {:?}", a, b),
                }
            }
        }
    }
}
