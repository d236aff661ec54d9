//! Corruption fault-injection and round-trip suite for model artifacts.
//!
//! The load-path contract under test: a clean round-trip scores
//! bit-identically, *every* single-byte corruption of a saved artifact
//! surfaces as `ChecksumMismatch` (never a panic, never a silently
//! different model), truncations and malformed files produce typed
//! errors, and a future format version is only reported as such through
//! an intact checksum. FNV-1a is a checksum, not a MAC, so the suite also
//! re-checksums mutated bodies: a file that verifies must still either
//! fail with a typed error or load into a model that scores every row.

use pnr_core::{
    ArtifactError, CompiledModel, ModelArtifact, PnruleLearner, PnruleParams, ServingModel,
    FORMAT_VERSION,
};
use pnr_data::{AttrType, Dataset, DatasetBuilder, Value};
use pnr_rules::BinaryClassifier;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::OnceLock;

/// An intrusion-detection-like mixed-type dataset: a numeric band plus a
/// categorical service column, with the rare class hiding in one corner.
fn intrusion_like(n: usize, phase: usize) -> Dataset {
    let mut b = DatasetBuilder::new();
    b.add_attribute("x", AttrType::Numeric);
    b.add_attribute("service", AttrType::Categorical);
    b.add_class("r2l");
    b.add_class("rest");
    for i in 0..n {
        let x = ((i * 7 + phase * 3) % 100) as f64;
        let k = match i % 4 {
            0 => "dos",
            1 => "web",
            _ => "ok",
        };
        let target = (40.0..60.0).contains(&x) && k == "dos";
        b.push_row(
            &[Value::num(x), Value::cat(k)],
            if target { "r2l" } else { "rest" },
            1.0,
        )
        .unwrap();
    }
    b.finish()
}

fn trained_artifact() -> (ModelArtifact, Dataset) {
    let train = intrusion_like(600, 0);
    let held_out = intrusion_like(400, 1);
    let target = train.class_code("r2l").unwrap();
    let params = PnruleParams::default();
    let (model, report) = PnruleLearner::new(params.clone()).fit_with_report(&train, target);
    let artifact = ModelArtifact::new(model, params, report, train.schema().clone())
        .expect("trained model must validate against its own schema");
    (artifact, held_out)
}

/// Wraps a payload (magic line plus JSON body) in a correct envelope.
fn with_checksum(payload: &str) -> String {
    let digest = pnr_data::fingerprint::fnv1a_64(payload.as_bytes());
    format!("{digest:016x}\n{payload}")
}

/// The JSON body of `artifact`'s file as an untyped tree.
fn body_of(artifact: &ModelArtifact) -> serde_json::Value {
    let text = artifact.to_file_string().unwrap();
    let json = text.splitn(3, '\n').nth(2).unwrap();
    serde_json::from_str(json).unwrap()
}

/// A checksummed artifact file around a (possibly tampered) body tree.
fn file_of(body: &serde_json::Value) -> String {
    let json = serde_json::to_string(body).unwrap();
    with_checksum(&format!("pnrule-artifact v{FORMAT_VERSION}\n{json}"))
}

/// The value under `key` of a JSON object.
fn field<'a>(value: &'a mut serde_json::Value, key: &str) -> &'a mut serde_json::Value {
    match value {
        serde_json::Value::Map(entries) => match entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => v,
            None => panic!("no key `{key}`"),
        },
        other => panic!("`{key}` looked up in a non-object {other:?}"),
    }
}

#[test]
fn round_trip_scores_bit_identically() {
    let (artifact, held_out) = trained_artifact();
    let text = artifact.to_file_string().unwrap();
    let back = ModelArtifact::from_file_str(&text).unwrap();
    assert_eq!(back.model.p_rules, artifact.model.p_rules);
    assert_eq!(back.model.n_rules, artifact.model.n_rules);
    assert_eq!(back.model.score_matrix, artifact.model.score_matrix);
    assert_eq!(back.params, artifact.params);
    assert_eq!(back.schema_fingerprint(), artifact.schema_fingerprint());
    assert_eq!(back.target_class(), artifact.target_class());
    for row in 0..held_out.n_rows() {
        assert_eq!(
            back.model.score(&held_out, row).to_bits(),
            artifact.model.score(&held_out, row).to_bits(),
            "row {row} must score bit-identically after a round trip"
        );
    }
}

#[test]
fn save_and_load_round_trip_through_disk() {
    let (artifact, held_out) = trained_artifact();
    let dir = std::env::temp_dir().join(format!("pnr_artifact_{}", std::process::id()));
    let path = dir.join("model.artifact");
    artifact.save(&path).unwrap();
    assert!(
        !dir.join("model.artifact.tmp").exists(),
        "atomic save must leave no tmp file behind"
    );
    let back = ModelArtifact::load(&path).unwrap();
    for row in 0..held_out.n_rows() {
        assert_eq!(
            back.model.score(&held_out, row).to_bits(),
            artifact.model.score(&held_out, row).to_bits()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_single_byte_flip_is_a_checksum_mismatch() {
    let (artifact, _) = trained_artifact();
    let text = artifact.to_file_string().unwrap();
    let bytes = text.as_bytes();
    for i in 0..bytes.len() {
        for mask in [0x01u8, 0x20, 0x80] {
            // from_file_bytes is the `load` path: even a flip that breaks
            // the UTF-8 encoding must classify as a checksum mismatch.
            let mut corrupt = bytes.to_vec();
            corrupt[i] ^= mask;
            match ModelArtifact::from_file_bytes(&corrupt) {
                Err(ArtifactError::ChecksumMismatch) => {}
                Err(other) => panic!(
                    "flip at byte {i} mask {mask:#04x}: expected ChecksumMismatch, got {other}"
                ),
                Ok(_) => panic!("flip at byte {i} mask {mask:#04x} loaded silently"),
            }
        }
    }
}

#[test]
fn truncations_never_panic_and_never_load() {
    let (artifact, _) = trained_artifact();
    let text = artifact.to_file_string().unwrap();
    // every prefix length across the envelope boundary plus a spread of
    // points through the body
    let mut cut_points: Vec<usize> = (0..30).collect();
    cut_points.extend((30..text.len()).step_by(97));
    for cut in cut_points {
        let truncated = &text[..cut.min(text.len())];
        match ModelArtifact::from_file_str(truncated) {
            Ok(_) => panic!("truncation to {cut} bytes loaded successfully"),
            Err(
                ArtifactError::ChecksumMismatch
                | ArtifactError::Malformed { .. }
                | ArtifactError::UnsupportedVersion { .. },
            ) => {}
            Err(other) => panic!("truncation to {cut} bytes: unexpected error {other}"),
        }
    }
}

#[test]
fn empty_file_is_malformed() {
    match ModelArtifact::from_file_str("") {
        Err(ArtifactError::Malformed { .. }) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn future_version_is_only_reported_through_an_intact_checksum() {
    // Build a payload claiming format v999 and wrap it in a *correct*
    // checksum: the version error must surface, not a checksum error.
    let text = with_checksum("pnrule-artifact v999\n{}");
    match ModelArtifact::from_file_str(&text) {
        Err(ArtifactError::UnsupportedVersion { found: 999 }) => {}
        other => panic!("expected UnsupportedVersion {{ found: 999 }}, got {other:?}"),
    }
    // ... and with one payload byte flipped the checksum takes priority.
    let tampered = text.replace("v999", "v998");
    match ModelArtifact::from_file_str(&tampered) {
        Err(ArtifactError::ChecksumMismatch) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn bad_magic_with_correct_checksum_is_malformed() {
    match ModelArtifact::from_file_str(&with_checksum("not-an-artifact v1\n{}")) {
        Err(ArtifactError::Malformed { .. }) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn inconsistent_schema_fingerprint_is_malformed() {
    let (artifact, _) = trained_artifact();
    let text = artifact.to_file_string().unwrap();
    let (_, payload) = text.split_once('\n').unwrap();
    // flip the stored fingerprint, then re-wrap with a fresh (correct)
    // checksum so only the cross-check can catch it
    let fp = format!("\"schema_fingerprint\":{}", artifact.schema_fingerprint());
    assert!(payload.contains(&fp), "fixture assumes compact JSON field");
    let tampered = payload.replace(&fp, "\"schema_fingerprint\":1");
    match ModelArtifact::from_file_str(&with_checksum(&tampered)) {
        Err(ArtifactError::Malformed { detail }) => {
            assert!(detail.contains("fingerprint"), "{detail}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn short_score_matrix_is_malformed_at_load() {
    // Such a file used to load and then panic on the first row routed to
    // a missing cell.
    let (artifact, _) = trained_artifact();
    let sm = &artifact.model.score_matrix;
    let cells = sm.n_p() * (sm.n_n() + 1);
    assert!(cells > 0, "fixture must have a non-empty matrix");
    let mut body = body_of(&artifact);
    *field(field(field(&mut body, "model"), "score_matrix"), "scores") =
        serde_json::Value::Seq(Vec::new());
    match ModelArtifact::from_file_str(&file_of(&body)) {
        Err(ArtifactError::Malformed { detail }) => assert!(
            detail.contains("holds 0 cells") && detail.contains(&format!("has {cells}")),
            "{detail}"
        ),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn out_of_range_params_are_malformed_at_load() {
    // Such a file used to load and then panic in `PnruleLearner::new` on
    // the first refit.
    let (artifact, _) = trained_artifact();
    let mut body = body_of(&artifact);
    *field(field(&mut body, "params"), "rp") = serde_json::Value::F64(1.5);
    match ModelArtifact::from_file_str(&file_of(&body)) {
        Err(ArtifactError::Malformed { detail }) => {
            assert!(detail.contains("rp must be in [0,1], got 1.5"), "{detail}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn golden_fixture_truncated_file() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/truncated.artifact");
    let text = std::fs::read_to_string(path).unwrap();
    match ModelArtifact::from_file_str(&text) {
        Err(ArtifactError::ChecksumMismatch) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn golden_fixture_future_version_header() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/future_version.artifact");
    let text = std::fs::read_to_string(path).unwrap();
    match ModelArtifact::from_file_str(&text) {
        Err(ArtifactError::UnsupportedVersion { found: 999 }) => {}
        other => panic!("expected UnsupportedVersion {{ found: 999 }}, got {other:?}"),
    }
}

#[test]
fn current_format_version_is_one() {
    // The golden fixtures encode v999 as "the future"; this pins the
    // present so bumping FORMAT_VERSION forces a fixture review.
    assert_eq!(FORMAT_VERSION, 1);
}

#[test]
fn non_finite_thresholds_cannot_reach_disk() {
    // Regression: serde renders NaN/±inf as `null`, so an artifact holding
    // a non-finite threshold used to save fine and then fail (or change
    // meaning) on reload. Save must refuse with the typed error instead.
    use pnr_rules::{Condition, Rule, RuleSet};
    let (artifact, _) = trained_artifact();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for (mutate_p, make_cond) in [
            (
                true,
                Condition::NumLe {
                    attr: 0,
                    value: bad,
                },
            ),
            (
                false,
                Condition::NumGt {
                    attr: 0,
                    value: bad,
                },
            ),
            (
                true,
                Condition::NumRange {
                    attr: 0,
                    lo: 0.0,
                    hi: bad,
                },
            ),
        ] {
            // assemble via the public fields, bypassing `new`'s validation
            let mut tampered = artifact.clone();
            let inject = |rules: &RuleSet| {
                let mut list: Vec<Rule> = rules.rules().to_vec();
                list.push(Rule::new(vec![make_cond.clone()]));
                RuleSet::from_rules(list)
            };
            let (list, bad_rank) = if mutate_p {
                tampered.model.p_rules = inject(&tampered.model.p_rules);
                ("P", tampered.model.p_rules.len() - 1)
            } else {
                tampered.model.n_rules = inject(&tampered.model.n_rules);
                ("N", tampered.model.n_rules.len() - 1)
            };
            match tampered.to_file_string() {
                Err(ArtifactError::NonFiniteThreshold { list: l, rule }) => {
                    assert_eq!((l, rule), (list, bad_rank), "wrong locus for {bad}");
                }
                other => panic!("threshold {bad}: expected NonFiniteThreshold, got {other:?}"),
            }
            let dir = std::env::temp_dir().join(format!("pnr_nonfinite_{}", std::process::id()));
            let path = dir.join("model.artifact");
            assert!(
                matches!(
                    tampered.save(&path),
                    Err(ArtifactError::NonFiniteThreshold { .. })
                ),
                "save must refuse a non-finite threshold"
            );
            assert!(!path.exists(), "no file may be written for {bad}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    // a clean artifact still round-trips
    let back = ModelArtifact::from_file_str(&artifact.to_file_string().unwrap()).unwrap();
    assert_eq!(back.model.p_rules, artifact.model.p_rules);
}

#[test]
fn error_displays_lead_with_the_variant_name() {
    assert!(ArtifactError::ChecksumMismatch
        .to_string()
        .starts_with("ChecksumMismatch"));
    assert!(ArtifactError::UnsupportedVersion { found: 9 }
        .to_string()
        .starts_with("UnsupportedVersion"));
    assert!(ArtifactError::SchemaMismatch {
        detail: "x".to_string()
    }
    .to_string()
    .starts_with("SchemaMismatch"));
    assert!(ArtifactError::Malformed {
        detail: "x".to_string()
    }
    .to_string()
    .starts_with("Malformed"));
    assert!(ArtifactError::RetriesExhausted {
        attempts: 3,
        last: Box::new(ArtifactError::ChecksumMismatch)
    }
    .to_string()
    .starts_with("RetriesExhausted"));
}

#[test]
fn load_with_retry_succeeds_and_scores_identically() {
    let (artifact, _) = trained_artifact();
    let dir = std::env::temp_dir().join(format!("pnr_retry_ok_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.artifact");
    artifact.save(&path).unwrap();
    let back = pnr_core::load_with_retry(&path, &pnr_core::Backoff::default()).unwrap();
    assert_eq!(back.schema_fingerprint(), artifact.schema_fingerprint());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_with_retry_reports_deterministic_failures_immediately() {
    // A missing file is not transient: exactly one attempt, a plain `Io`
    // error (not `RetriesExhausted`), and no backoff delay.
    let start = std::time::Instant::now();
    let err = pnr_core::load_with_retry(
        Path::new("/nonexistent/never/m.artifact"),
        &pnr_core::Backoff::default(),
    )
    .unwrap_err();
    assert!(matches!(err, ArtifactError::Io(_)), "{err}");
    assert!(
        start.elapsed() < std::time::Duration::from_millis(500),
        "a deterministic failure must not back off"
    );
}

#[test]
fn retry_transient_backs_off_then_gives_up_typed() {
    let policy = pnr_core::Backoff::new(
        3,
        std::time::Duration::from_millis(1),
        std::time::Duration::from_millis(2),
    );
    // Always-transient failures: all attempts consumed, typed give-up.
    let mut calls = 0u32;
    let err = pnr_core::retry_transient(
        &policy,
        |_| true,
        || -> Result<(), ArtifactError> {
            calls += 1;
            Err(ArtifactError::Io(std::io::Error::from(
                std::io::ErrorKind::TimedOut,
            )))
        },
    )
    .unwrap_err();
    assert_eq!(calls, 3);
    match err {
        ArtifactError::RetriesExhausted { attempts, last } => {
            assert_eq!(attempts, 3);
            assert!(matches!(*last, ArtifactError::Io(_)));
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }

    // Success on a later attempt clears the error.
    let mut calls = 0u32;
    let ok = pnr_core::retry_transient(
        &policy,
        |_| true,
        || {
            calls += 1;
            if calls < 3 {
                Err(ArtifactError::Io(std::io::Error::from(
                    std::io::ErrorKind::Interrupted,
                )))
            } else {
                Ok(42u32)
            }
        },
    )
    .unwrap();
    assert_eq!(ok, 42);
    assert_eq!(calls, 3);
}

#[test]
fn retry_policy_delays_grow_and_cap() {
    // the old `RetryPolicy::default()` schedule, un-jittered
    assert_eq!(
        pnr_core::RetryPolicy::default(),
        pnr_core::Backoff::new(
            4,
            std::time::Duration::from_millis(10),
            std::time::Duration::from_millis(200),
        )
    );
    let policy = pnr_core::Backoff::new(
        10,
        std::time::Duration::from_millis(10),
        std::time::Duration::from_millis(35),
    );
    assert_eq!(policy.delay(0), std::time::Duration::from_millis(10));
    assert_eq!(policy.delay(1), std::time::Duration::from_millis(20));
    assert_eq!(policy.delay(2), std::time::Duration::from_millis(35));
    assert_eq!(policy.delay(31), std::time::Duration::from_millis(35));
    assert_eq!(policy.delay(40), std::time::Duration::from_millis(35));
    // transient classification covers exactly the retryable kinds
    for kind in [
        std::io::ErrorKind::Interrupted,
        std::io::ErrorKind::WouldBlock,
        std::io::ErrorKind::TimedOut,
    ] {
        assert!(pnr_core::is_transient_io(&std::io::Error::from(kind)));
    }
    for kind in [
        std::io::ErrorKind::NotFound,
        std::io::ErrorKind::PermissionDenied,
    ] {
        assert!(!pnr_core::is_transient_io(&std::io::Error::from(kind)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `load(save(m))` scores bit-identically on held-out data, for
    /// models trained on arbitrary datasets.
    #[test]
    fn round_trip_property(rows in prop::collection::vec(
        (0.0f64..100.0, 0usize..3, prop::bool::ANY), 40..200
    )) {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("k", AttrType::Categorical);
        b.add_class("pos");
        b.add_class("neg");
        let cats = ["a", "b", "c"];
        for &(x, k, p) in &rows {
            b.push_row(
                &[Value::num(x), Value::cat(cats[k])],
                if p { "pos" } else { "neg" },
                1.0,
            ).unwrap();
        }
        let train = b.finish();
        let params = PnruleParams::default();
        let (model, report) =
            PnruleLearner::new(params.clone()).fit_with_report(&train, 0);
        let artifact =
            ModelArtifact::new(model, params, report, train.schema().clone()).unwrap();
        let back = ModelArtifact::from_file_str(&artifact.to_file_string().unwrap()).unwrap();
        let held_out = intrusion_like(120, 2);
        // held-out data shares attribute layout (x numeric, cat second),
        // so scoring is well-defined even though categories differ
        for row in 0..train.n_rows() {
            prop_assert_eq!(
                back.model.score(&train, row).to_bits(),
                artifact.model.score(&train, row).to_bits()
            );
        }
        for row in 0..held_out.n_rows() {
            prop_assert_eq!(
                back.model.score(&held_out, row).to_bits(),
                artifact.model.score(&held_out, row).to_bits()
            );
        }
    }
}

/// What the mutant property scores: a fixture body whose model has both
/// rule lists, plus a fixed dataset to score as `Dataset` rows and as raw
/// CSV fields.
struct MutantBench {
    body: serde_json::Value,
    data: Dataset,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// A band on `x` whose coverage also takes in `service = dos` rows, so
/// the fit needs both a P-rule and an N-rule.
fn presence_and_absence(n: usize, phase: usize) -> Dataset {
    let mut b = DatasetBuilder::new();
    b.add_attribute("x", AttrType::Numeric);
    b.add_attribute("service", AttrType::Categorical);
    b.add_class("r2l");
    b.add_class("rest");
    for i in 0..n {
        let x = ((i + phase * 7) % 50) as f64;
        let k = match (i / 50) % 5 {
            0 => "dos",
            1 => "web",
            _ => "ok",
        };
        let target = (20.0..24.0).contains(&x) && k != "dos";
        b.push_row(
            &[Value::num(x), Value::cat(k)],
            if target { "r2l" } else { "rest" },
            1.0,
        )
        .unwrap();
    }
    b.finish()
}

fn mutant_bench() -> &'static MutantBench {
    static BENCH: OnceLock<MutantBench> = OnceLock::new();
    BENCH.get_or_init(|| {
        let train = presence_and_absence(1000, 0);
        let target = train.class_code("r2l").unwrap();
        let params = PnruleParams::default();
        let (model, report) = PnruleLearner::new(params.clone()).fit_with_report(&train, target);
        assert!(!model.p_rules.is_empty() && !model.n_rules.is_empty());
        let artifact = ModelArtifact::new(model, params, report, train.schema().clone()).unwrap();
        let data = presence_and_absence(250, 1);
        let header = vec!["x".to_string(), "service".to_string()];
        let rows = (0..data.n_rows())
            .map(|r| vec![data.num(0, r).to_string(), data.cat_name(1, r).to_string()])
            .collect();
        MutantBench {
            body: body_of(&artifact),
            data,
            header,
            rows,
        }
    })
}

#[derive(Clone, Copy, PartialEq)]
enum Site {
    Array,
    Object,
    Number,
}

/// Every mutable node under `value`, as a path of child indices.
fn sites(value: &serde_json::Value, path: &mut Vec<usize>, out: &mut Vec<(Vec<usize>, Site)>) {
    use serde_json::Value as J;
    let children: Vec<&J> = match value {
        J::Seq(items) => items.iter().collect(),
        J::Map(entries) => entries.iter().map(|(_, v)| v).collect(),
        J::U64(_) | J::I64(_) | J::F64(_) => {
            out.push((path.clone(), Site::Number));
            return;
        }
        _ => return,
    };
    if !children.is_empty() {
        let site = if matches!(value, J::Seq(_)) {
            Site::Array
        } else {
            Site::Object
        };
        out.push((path.clone(), site));
    }
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        sites(child, path, out);
        path.pop();
    }
}

/// Applies one seeded mutation to the body: drops an array element,
/// deletes an object key, or sets a number to an edge value. Returns
/// what it did.
fn mutate(body: &mut serde_json::Value, rng: &mut StdRng) -> String {
    use serde_json::Value as J;
    let mut all = Vec::new();
    sites(body, &mut Vec::new(), &mut all);
    let kinds: Vec<Site> = [Site::Array, Site::Object, Site::Number]
        .into_iter()
        .filter(|k| all.iter().any(|(_, s)| s == k))
        .collect();
    let kind = kinds[rng.gen_range(0..kinds.len())];
    let of_kind: Vec<&Vec<usize>> = all
        .iter()
        .filter(|(_, s)| *s == kind)
        .map(|(p, _)| p)
        .collect();
    let path = of_kind[rng.gen_range(0..of_kind.len())];
    let mut at = String::from("body");
    let mut node = body;
    for &i in path {
        node = match node {
            J::Seq(items) => {
                at.push_str(&format!("[{i}]"));
                &mut items[i]
            }
            J::Map(entries) => {
                at.push_str(&format!(".{}", entries[i].0));
                &mut entries[i].1
            }
            _ => unreachable!("paths only descend through containers"),
        };
    }
    match node {
        J::Seq(items) => {
            let i = rng.gen_range(0..items.len());
            items.remove(i);
            format!("dropped {at}[{i}]")
        }
        J::Map(entries) => {
            let i = rng.gen_range(0..entries.len());
            let (key, _) = entries.remove(i);
            format!("deleted {at}.{key}")
        }
        number => {
            let edge = [
                J::U64(0),
                J::I64(-1),
                J::F64(1.5),
                J::F64(1e308),
                J::U64(1 << 32),
            ][rng.gen_range(0..5usize)]
            .clone();
            let what = format!("set {at} to {edge:?}");
            *number = edge;
            what
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A re-checksummed mutant either fails to load with a typed error or
    /// loads into an artifact every consumer can use without panicking:
    /// the learner accepts its params, and the interpreter, the compiled
    /// scorer and the serving path all score every row of a fixed dataset.
    #[test]
    fn rechecksummed_mutants_fail_typed_or_score_every_row(seed in any::<u64>()) {
        let bench = mutant_bench();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut body = bench.body.clone();
        let what = mutate(&mut body, &mut rng);
        let Ok(artifact) = ModelArtifact::from_file_bytes(file_of(&body).as_bytes()) else {
            return Ok(());
        };
        let used = catch_unwind(AssertUnwindSafe(|| {
            PnruleLearner::new(artifact.params.clone());
            let compiled = CompiledModel::compile(&artifact.model);
            for row in 0..bench.data.n_rows() {
                artifact.model.score_with_trace(&bench.data, row);
                compiled.score_with_trace(&bench.data, row);
            }
            let serving = ServingModel::new(artifact);
            if let Ok(map) = serving.reconcile_header(&bench.header) {
                for fields in &bench.rows {
                    let _ = serving.score_fields(fields, &map);
                }
            }
        }));
        prop_assert!(used.is_ok(), "a mutant that loads panicked its consumer: {}", what);
    }
}
