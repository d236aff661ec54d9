//! Drift fault-injection suite for the serving path.
//!
//! The contract under test: clean same-schema data scores bit-identically
//! to direct model scoring, column reordering and extra columns are
//! transparent, and every injected fault (missing column, unseen
//! category, non-finite numeric, unparsable field) produces the exact
//! behavior its policy specifies — with telemetry counters matching the
//! injected fault counts one for one.

use pnr_core::{
    ArtifactError, MissingColumnPolicy, ModelArtifact, PnruleLearner, PnruleModel, PnruleParams,
    RecordError, ScoreMatrix, ServingModel, ServingValue, UnknownPolicy,
};
use pnr_data::{AttrType, Dataset, DatasetBuilder, Value};
use pnr_rules::{BinaryClassifier, Condition, Rule, RuleSet};
use pnr_telemetry::{Counter, RecordingSink};
use std::sync::Arc;

/// Training data for the hand-built model: `rare` iff `x > 10` and the
/// service is not `web`. Dictionary order: dos, web, ok.
fn training_data() -> Dataset {
    let mut b = DatasetBuilder::new();
    b.add_attribute("x", AttrType::Numeric);
    b.add_attribute("service", AttrType::Categorical);
    b.add_class("rare");
    b.add_class("rest");
    let rows: &[(f64, &str, &str)] = &[
        (20.0, "dos", "rare"),
        (20.0, "web", "rest"),
        (5.0, "ok", "rest"),
        (15.0, "ok", "rare"),
    ];
    for _ in 0..8 {
        for &(x, svc, class) in rows {
            b.push_row(&[Value::num(x), Value::cat(svc)], class, 1.0)
                .unwrap();
        }
    }
    b.finish()
}

/// A hand-built model with exactly one P-rule (`x > 10`) and one N-rule
/// (`service == web`), so every policy's effect on the score is
/// predictable from first principles.
fn serving_artifact() -> (ModelArtifact, Dataset) {
    let d = training_data();
    let web = d.schema().attr(1).dict.code("web").unwrap();
    let is_pos: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
    let p_rules = RuleSet::from_rules(vec![Rule::new(vec![Condition::NumGt {
        attr: 0,
        value: 10.0,
    }])]);
    let n_rules = RuleSet::from_rules(vec![Rule::new(vec![Condition::CatEq {
        attr: 1,
        value: web,
    }])]);
    let sm = ScoreMatrix::build(&d, &is_pos, &p_rules, &n_rules, 1.0);
    let model = PnruleModel {
        target: 0,
        threshold: 0.5,
        p_rules,
        n_rules,
        score_matrix: sm,
    };
    let params = PnruleParams::default();
    // The report is provenance metadata the serving path never consults;
    // harvest a real one so the artifact stays fully populated.
    let (_, report) = PnruleLearner::new(params.clone()).fit_with_report(&d, 0);
    let artifact = ModelArtifact::new(model, params, report, d.schema().clone()).unwrap();
    (artifact, d)
}

/// Score of a record matching the P-rule and no N-rule.
fn p_no_n_score(artifact: &ModelArtifact) -> f64 {
    artifact.model.score_matrix.score(0, None)
}

/// Score of a record matching both the P-rule and the N-rule.
fn p_n_score(artifact: &ModelArtifact) -> f64 {
    artifact.model.score_matrix.score(0, Some(0))
}

#[test]
fn policy_spellings_round_trip() {
    for policy in [
        UnknownPolicy::ConditionFalse,
        UnknownPolicy::Abstain,
        UnknownPolicy::Reject,
    ] {
        assert_eq!(UnknownPolicy::parse(policy.name()), Some(policy));
    }
    assert_eq!(
        UnknownPolicy::parse("condition-false"),
        Some(UnknownPolicy::ConditionFalse)
    );
    assert_eq!(UnknownPolicy::default(), UnknownPolicy::ConditionFalse);
    assert_eq!(UnknownPolicy::parse("never-heard-of-it"), None);
    for policy in [MissingColumnPolicy::Reject, MissingColumnPolicy::Default] {
        assert_eq!(MissingColumnPolicy::parse(policy.name()), Some(policy));
    }
    assert_eq!(MissingColumnPolicy::default(), MissingColumnPolicy::Reject);
    assert_eq!(MissingColumnPolicy::parse("panic"), None);
}

#[test]
fn clean_fields_score_bit_identically_to_the_model() {
    let (artifact, d) = serving_artifact();
    let reference = artifact.clone();
    let serving = ServingModel::new(artifact);
    let map = serving.reconcile_header(&["x", "service"]).unwrap();
    assert_eq!(map.n_missing(), 0);
    assert_eq!(map.n_extra(), 0);
    for row in 0..d.n_rows() {
        let fields = [d.num(0, row).to_string(), d.cat_name(1, row).to_string()];
        let rec = serving.score_fields(&fields, &map).unwrap();
        assert_eq!(
            rec.score.to_bits(),
            reference.model.score(&d, row).to_bits(),
            "row {row}"
        );
        assert_eq!(rec.decision, reference.model.predict(&d, row));
        assert_eq!(rec.trace, reference.model.trace(&d, row));
        assert!(!rec.abstained);
        assert_eq!(rec.unknown_values, 0);
        // the pre-reconciled entry point agrees
        let values = [
            ServingValue::Num(d.num(0, row)),
            ServingValue::Code(d.cat(1, row)),
        ];
        let rec2 = serving.score_values(&values).unwrap();
        assert_eq!(rec2.score.to_bits(), rec.score.to_bits());
    }
}

#[test]
fn reordered_and_extra_columns_are_transparent() {
    let (artifact, _) = serving_artifact();
    let expected_p_no_n = p_no_n_score(&artifact);
    let expected_p_n = p_n_score(&artifact);
    let serving = ServingModel::new(artifact);
    let map = serving
        .reconcile_header(&["duration", "service", "x"])
        .unwrap();
    assert_eq!(map.n_missing(), 0);
    assert_eq!(map.n_extra(), 1, "the unknown `duration` column is ignored");
    let rec = serving.score_fields(&["999", "dos", "20"], &map).unwrap();
    assert_eq!(rec.score.to_bits(), expected_p_no_n.to_bits());
    let rec = serving.score_fields(&["999", "web", "20"], &map).unwrap();
    assert_eq!(rec.score.to_bits(), expected_p_n.to_bits());
    let rec = serving.score_fields(&["999", "ok", "5"], &map).unwrap();
    assert_eq!(rec.score, 0.0, "no P-rule match scores zero");
}

#[test]
fn missing_column_is_rejected_by_default() {
    let (artifact, _) = serving_artifact();
    let serving = ServingModel::new(artifact);
    match serving.reconcile_header(&["x"]) {
        Err(ArtifactError::SchemaMismatch { detail }) => {
            assert!(detail.contains("service"), "{detail}");
            assert!(detail.contains("missing"), "{detail}");
        }
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }
}

#[test]
fn a_header_naming_a_column_twice_is_a_schema_mismatch() {
    // The CSV loader refuses such a header (`DuplicateAttribute`), so the
    // serving path must not map the first copy and count the second as
    // extra. Stored and extra names alike, under either missing policy.
    let (artifact, _) = serving_artifact();
    for (policy, header, twice) in [
        (
            MissingColumnPolicy::Reject,
            &["x", "service", "x"][..],
            "`x`",
        ),
        (
            MissingColumnPolicy::Reject,
            &["service", "duration", "x", "duration"][..],
            "`duration`",
        ),
        (MissingColumnPolicy::Default, &["x", "x"][..], "`x`"),
    ] {
        let serving = ServingModel::new(artifact.clone()).with_missing_policy(policy);
        match serving.reconcile_header(header) {
            Err(ArtifactError::SchemaMismatch { detail }) => {
                assert!(detail.contains(twice), "{detail}");
                assert!(detail.contains("twice"), "{detail}");
            }
            other => panic!("expected SchemaMismatch for {header:?}, got {other:?}"),
        }
    }
}

#[test]
fn defaulted_missing_column_is_an_unknown_value() {
    let (artifact, _) = serving_artifact();
    let expected = p_no_n_score(&artifact);
    let sink = Arc::new(RecordingSink::new());
    let serving = ServingModel::new(artifact)
        .with_missing_policy(MissingColumnPolicy::Default)
        .with_sink(sink.clone());
    let map = serving.reconcile_header(&["x"]).unwrap();
    assert_eq!(map.n_missing(), 1);
    // ConditionFalse: the P-rule still fires on the known x, the N-rule
    // cannot fire on the missing service — the no-N cell's score.
    let rec = serving.score_fields(&["20"], &map).unwrap();
    assert_eq!(rec.score.to_bits(), expected.to_bits());
    assert_eq!(rec.unknown_values, 1);
    assert!(!rec.abstained);
    // A missing column is not a data fault, so neither hit counter moves.
    assert_eq!(sink.value(Counter::UnseenCategoryHits), 0);
    assert_eq!(sink.value(Counter::NanNumericHits), 0);
    assert_eq!(sink.value(Counter::RowsScored), 1);
}

#[test]
fn unseen_category_behavior_per_policy() {
    // ConditionFalse (the paper-consistent default): the categorical
    // condition simply never matches, so the record lands in the no-N cell.
    let (artifact, _) = serving_artifact();
    let expected = p_no_n_score(&artifact);
    let sink = Arc::new(RecordingSink::new());
    let serving = ServingModel::new(artifact).with_sink(sink.clone());
    let map = serving.reconcile_header(&["x", "service"]).unwrap();
    let rec = serving.score_fields(&["20", "quic"], &map).unwrap();
    assert_eq!(rec.score.to_bits(), expected.to_bits());
    assert_eq!(rec.unknown_values, 1);
    assert!(!rec.abstained);
    assert_eq!(sink.value(Counter::UnseenCategoryHits), 1);
    assert_eq!(sink.value(Counter::RowsScored), 1);
    assert_eq!(sink.value(Counter::RowsQuarantined), 0);

    // Abstain: the record is counted as scored but gets the no-P-rule
    // score (0.0) and the abstained trace flag.
    let (artifact, _) = serving_artifact();
    let sink = Arc::new(RecordingSink::new());
    let serving = ServingModel::new(artifact)
        .with_unknown_policy(UnknownPolicy::Abstain)
        .with_sink(sink.clone());
    let map = serving.reconcile_header(&["x", "service"]).unwrap();
    let rec = serving.score_fields(&["20", "quic"], &map).unwrap();
    assert_eq!(rec.score, 0.0);
    assert!(!rec.decision);
    assert!(rec.abstained);
    assert_eq!(rec.trace.p_rule, None);
    assert_eq!(rec.unknown_values, 1);
    assert_eq!(sink.value(Counter::UnseenCategoryHits), 1);
    assert_eq!(sink.value(Counter::RowsScored), 1);
    assert_eq!(sink.value(Counter::RowsQuarantined), 0);

    // Reject: a typed per-record error, quarantined, never scored.
    let (artifact, _) = serving_artifact();
    let sink = Arc::new(RecordingSink::new());
    let serving = ServingModel::new(artifact)
        .with_unknown_policy(UnknownPolicy::Reject)
        .with_sink(sink.clone());
    let map = serving.reconcile_header(&["x", "service"]).unwrap();
    match serving.score_fields(&["20", "quic"], &map) {
        Err(RecordError::UnknownRejected { unknown_values: 1 }) => {}
        other => panic!("expected UnknownRejected, got {other:?}"),
    }
    assert_eq!(sink.value(Counter::UnseenCategoryHits), 1);
    assert_eq!(sink.value(Counter::RowsScored), 0);
    assert_eq!(sink.value(Counter::RowsQuarantined), 1);
}

#[test]
fn non_finite_numerics_are_unknown_but_unparsable_is_structural() {
    let (artifact, _) = serving_artifact();
    let sink = Arc::new(RecordingSink::new());
    let serving = ServingModel::new(artifact).with_sink(sink.clone());
    let map = serving.reconcile_header(&["x", "service"]).unwrap();
    // NaN and inf parse as numbers but carry no information the model was
    // trained on: unknown values, so under ConditionFalse the numeric
    // P-rule cannot fire and the record scores 0.0 with an empty trace.
    for raw in ["NaN", "inf", "-inf"] {
        let rec = serving.score_fields(&[raw, "dos"], &map).unwrap();
        assert_eq!(rec.score, 0.0, "{raw}");
        assert_eq!(rec.trace.p_rule, None);
        assert_eq!(rec.unknown_values, 1);
    }
    assert_eq!(sink.value(Counter::NanNumericHits), 3);
    assert_eq!(sink.value(Counter::RowsScored), 3);
    // An unparsable numeric field is not drift, it is a broken record:
    // structural quarantine, like the CSV loader.
    match serving.score_fields(&["wide", "dos"], &map) {
        Err(RecordError::Structural { detail }) => {
            assert!(detail.contains("not a number"), "{detail}");
        }
        other => panic!("expected Structural, got {other:?}"),
    }
    // So is a record whose field count does not match the header.
    match serving.score_fields(&["20"], &map) {
        Err(RecordError::Structural { detail }) => {
            assert!(detail.contains("field"), "{detail}");
        }
        other => panic!("expected Structural, got {other:?}"),
    }
    assert_eq!(sink.value(Counter::RowsQuarantined), 2);
}

#[test]
fn dataset_reconciliation_translates_dictionary_codes() {
    let (artifact, _) = serving_artifact();
    let expected_p_no_n = p_no_n_score(&artifact);
    let expected_p_n = p_n_score(&artifact);
    let serving = ServingModel::new(artifact);
    // Incoming dataset: columns reordered, an extra column, the service
    // dictionary interned in a different order, plus a novel category.
    let mut b = DatasetBuilder::new();
    b.add_attribute("service", AttrType::Categorical);
    b.add_attribute("duration", AttrType::Numeric);
    b.add_attribute("x", AttrType::Numeric);
    b.add_class("whatever");
    let rows: &[(&str, f64)] = &[
        ("web", 20.0),  // P + N
        ("dos", 20.0),  // P, no N
        ("ok", 5.0),    // no P
        ("quic", 20.0), // novel category: unseen → no N under ConditionFalse
    ];
    for &(svc, x) in rows {
        b.push_row(
            &[Value::cat(svc), Value::num(1.0), Value::num(x)],
            "whatever",
            1.0,
        )
        .unwrap();
    }
    let incoming = b.finish();
    let map = serving.reconcile_dataset(&incoming).unwrap();
    let score = |row: usize| serving.score_dataset_row(&incoming, &map, row).unwrap();
    assert_eq!(score(0).score.to_bits(), expected_p_n.to_bits());
    assert_eq!(score(1).score.to_bits(), expected_p_no_n.to_bits());
    assert_eq!(score(2).score, 0.0);
    let novel = score(3);
    assert_eq!(novel.score.to_bits(), expected_p_no_n.to_bits());
    assert_eq!(novel.unknown_values, 1);
}

#[test]
fn dataset_type_drift_is_a_schema_mismatch() {
    let (artifact, _) = serving_artifact();
    let serving = ServingModel::new(artifact);
    let mut b = DatasetBuilder::new();
    b.add_attribute("x", AttrType::Numeric);
    b.add_attribute("service", AttrType::Numeric); // drifted type
    b.add_class("whatever");
    b.push_row(&[Value::num(1.0), Value::num(2.0)], "whatever", 1.0)
        .unwrap();
    let incoming = b.finish();
    match serving.reconcile_dataset(&incoming) {
        Err(ArtifactError::SchemaMismatch { detail }) => {
            assert!(detail.contains("service"), "{detail}");
            assert!(detail.contains("trained as categorical"), "{detail}");
        }
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }
}

#[test]
fn defaulted_missing_dataset_column_is_an_unknown_value() {
    let (artifact, _) = serving_artifact();
    let expected = p_no_n_score(&artifact);
    let serving = ServingModel::new(artifact).with_missing_policy(MissingColumnPolicy::Default);
    let mut b = DatasetBuilder::new();
    b.add_attribute("x", AttrType::Numeric);
    b.add_class("whatever");
    b.push_row(&[Value::num(20.0)], "whatever", 1.0).unwrap();
    let incoming = b.finish();
    let map = serving.reconcile_dataset(&incoming).unwrap();
    let rec = serving.score_dataset_row(&incoming, &map, 0).unwrap();
    assert_eq!(rec.score.to_bits(), expected.to_bits());
    assert_eq!(rec.unknown_values, 1);
    // ... while the default missing policy rejects the same dataset.
    let serving = serving.with_missing_policy(MissingColumnPolicy::Reject);
    assert!(matches!(
        serving.reconcile_dataset(&incoming),
        Err(ArtifactError::SchemaMismatch { .. })
    ));
}

#[test]
fn counters_match_injected_fault_counts() {
    let (artifact, _) = serving_artifact();
    let sink = Arc::new(RecordingSink::new());
    let serving = ServingModel::new(artifact).with_sink(sink.clone());
    let map = serving.reconcile_header(&["x", "service"]).unwrap();
    // A stream with a known fault census:
    //   3 clean, 2 unseen-category, 1 NaN, 1 carrying both faults,
    //   1 unparsable numeric, 1 wrong field count.
    let stream: &[&[&str]] = &[
        &["20", "dos"],
        &["20", "web"],
        &["5", "ok"],
        &["20", "quic"],
        &["20", "gopher"],
        &["NaN", "dos"],
        &["inf", "telnet"],
        &["wide", "dos"],
        &["20"],
    ];
    let mut scored = 0usize;
    let mut quarantined = 0usize;
    for fields in stream {
        match serving.score_fields(fields, &map) {
            Ok(_) => scored += 1,
            Err(_) => quarantined += 1,
        }
    }
    assert_eq!(scored, 7);
    assert_eq!(quarantined, 2);
    assert_eq!(sink.value(Counter::RowsScored), 7);
    assert_eq!(sink.value(Counter::RowsQuarantined), 2);
    assert_eq!(sink.value(Counter::UnseenCategoryHits), 3);
    assert_eq!(sink.value(Counter::NanNumericHits), 2);
    // A caller-side quarantine (e.g. the CSV reader dropped a malformed
    // line before scoring) folds into the same counter.
    serving.record_structural_quarantine();
    assert_eq!(sink.value(Counter::RowsQuarantined), 3);
}
