//! `cargo xtask determinism` — the dynamic reproducibility harness.
//!
//! The static lints (`nondet-merge`, `unordered-float-sum`) police the
//! *sources* of nondeterminism; this harness proves the *outcome*: a fit
//! of the same logical training set must produce the same model down to
//! the last bit, no matter how the rows were inserted or how many worker
//! threads the condition search used. That end-to-end bit-identity is
//! the regression gate every change to the learner or the condition
//! search must keep passing — the paper's two-phase induction is greedy
//! and order-sensitive, so an ulp of drift in a Z-number can change the
//! learned rule list silently.
//!
//! Protocol: generate one kddsim training set, rebuild it under K row
//! permutations (the pre-registered kddsim schema keeps dictionary codes
//! independent of insertion order), fit each copy once under each
//! distinct worker-thread cap of {1, 2, max} ([`worker_caps`]), wrap each
//! fit in a [`ModelArtifact`] (params normalised so the cap is not itself
//! compared) and assert all FNV-1a checksums of the serialized artifacts
//! are identical.
//!
//! Row-permutation invariance holds because kddsim rows carry unit
//! weights: every learner statistic is then a sum of 1.0s — exact in
//! f64 far beyond any training-set size — so reordering terms cannot
//! shift a single bit. Fractional weights void that guarantee, which is
//! exactly why `stratify_weights` output must never be row-shuffled
//! between fits that are expected to agree.

use pnr_core::{ModelArtifact, PnruleLearner, PnruleParams};
use pnr_data::fingerprint::fnv1a_64;
use pnr_data::{Dataset, Value};

/// Default kddsim training-set size: large enough that full-view
/// searches cross the parallel cell threshold, small enough that the
/// (at most nine) debug-profile fits stay in CI-friendly time.
pub const DEFAULT_ROWS: usize = 1500;

/// Seed for both the kddsim generator and the row permutation.
const SEED: u64 = 42;

/// Target class of the harness fits. `probe` is rare enough (~0.8% of
/// the train mix) to exercise the full P/N pipeline at small sizes.
const TARGET_CLASS: &str = "probe";

/// The checksums of every (row order × worker cap) fit.
#[derive(Debug)]
pub struct DeterminismReport {
    /// Rows in the generated training set.
    pub rows: usize,
    /// `(run label, FNV-1a checksum of the serialized artifact)`.
    pub results: Vec<(String, u64)>,
}

impl DeterminismReport {
    /// True when every fit produced bit-identical artifact bytes.
    pub fn is_deterministic(&self) -> bool {
        self.results.windows(2).all(|w| w[0].1 == w[1].1)
    }

    /// Number of fits performed.
    pub fn runs(&self) -> usize {
        self.results.len()
    }
}

impl std::fmt::Display for DeterminismReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "determinism: kddsim rows={} seed={SEED} target={TARGET_CLASS}",
            self.rows
        )?;
        for (label, sum) in &self.results {
            writeln!(f, "  {label}: {sum:016x}")?;
        }
        Ok(())
    }
}

/// A deterministic Fisher–Yates permutation of `0..n` driven by a
/// 64-bit LCG (no external RNG: the harness must not depend on ambient
/// entropy).
fn lcg_shuffle(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = ((state >> 33) as usize) % (i + 1);
        order.swap(i, j);
    }
    order
}

/// Rebuilds `base` with rows pushed in `order`. The builder comes from
/// `pnr_kddsim::build_schema_builder`, which pre-registers every
/// categorical value and class label — so dictionary codes (and with
/// them the schema fingerprint) are identical no matter the insertion
/// order, and only row placement differs.
fn permuted_copy(base: &Dataset, order: &[usize]) -> Result<Dataset, String> {
    let mut b = pnr_kddsim::build_schema_builder();
    b.reserve(base.n_rows());
    for &r in order {
        let mut row: Vec<Value<'_>> = Vec::with_capacity(base.n_attrs());
        for a in 0..base.n_attrs() {
            if base.schema().attr(a).is_numeric() {
                row.push(Value::num(base.num(a, r)));
            } else {
                row.push(Value::cat(base.cat_name(a, r)));
            }
        }
        b.push_row(&row, base.class_name(base.label(r)), base.weight(r))
            .map_err(|e| format!("rebuilding permuted dataset: {e}"))?;
    }
    Ok(b.finish())
}

/// Fits one copy with the given worker cap and returns the FNV-1a
/// checksum of its serialized [`ModelArtifact`]. `search_workers` is the
/// knob under test, so the artifact's stored params normalise it to
/// `None` — the compared bytes must cover model, report and schema, not
/// the sweep variable itself.
fn fit_checksum(data: &Dataset, target: u32, workers: Option<usize>) -> Result<u64, String> {
    let params = PnruleParams {
        search_workers: workers,
        ..Default::default()
    };
    let learner = PnruleLearner::new(params);
    let (model, report) = learner.fit_with_report(data, target);
    let mut stored = learner.params().clone();
    stored.search_workers = None;
    let artifact = ModelArtifact::new(model, stored, report, data.schema().clone())
        .map_err(|e| format!("artifact assembly: {e}"))?;
    let text = artifact
        .to_file_string()
        .map_err(|e| format!("artifact serialization: {e}"))?;
    Ok(fnv1a_64(text.as_bytes()))
}

/// The distinct worker caps of {1, 2, max} on a host with `available`
/// hardware threads, where max is `available` but at least 2. On one or
/// two CPUs max is 2, so the sweep has two caps rather than a repeated
/// third.
fn worker_caps(available: usize) -> Vec<usize> {
    let mut caps = vec![1, 2, available.max(2)];
    caps.dedup();
    caps
}

/// Runs the full sweep: 3 row orders × the distinct worker caps of
/// {1, 2, max} ([`worker_caps`]). An explicit cap above one forces the
/// threaded search even on this small training set, so the sweep compares
/// the threaded merge against the inline scan, not two runs of one path.
pub fn run(rows: usize) -> Result<DeterminismReport, String> {
    let base = pnr_kddsim::generate_train(rows, SEED);
    let target = base
        .schema()
        .classes
        .code(TARGET_CLASS)
        .ok_or_else(|| format!("kddsim schema has no `{TARGET_CLASS}` class"))?;
    let caps = worker_caps(std::thread::available_parallelism().map_or(2, |p| p.get()));

    let orders: [(&str, Vec<usize>); 3] = [
        ("identity", (0..base.n_rows()).collect()),
        ("reversed", (0..base.n_rows()).rev().collect()),
        ("shuffled", lcg_shuffle(base.n_rows(), SEED)),
    ];

    let mut results = Vec::new();
    for (oname, order) in &orders {
        let data = permuted_copy(&base, order)?;
        for &workers in &caps {
            let cname = if workers > 2 {
                format!("workers=max({workers})")
            } else {
                format!("workers={workers}")
            };
            let sum = fit_checksum(&data, target, Some(workers))?;
            results.push((format!("rows={oname:<8} {cname}"), sum));
        }
    }
    Ok(DeterminismReport { rows, results })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_shuffle_is_a_deterministic_permutation() {
        let a = lcg_shuffle(100, 7);
        let b = lcg_shuffle(100, 7);
        assert_eq!(a, b);
        assert_ne!(a, (0..100).collect::<Vec<_>>());
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn permuted_copy_preserves_schema_and_content() {
        let base = pnr_kddsim::generate_train(120, SEED);
        let order = lcg_shuffle(base.n_rows(), 3);
        let copy = permuted_copy(&base, &order).expect("rebuild");
        assert_eq!(
            copy.schema().fingerprint(),
            base.schema().fingerprint(),
            "pre-registered dictionaries must make codes order-independent"
        );
        for (to, &from) in order.iter().enumerate() {
            assert_eq!(copy.label(to), base.label(from));
            for a in 0..base.n_attrs() {
                if base.schema().attr(a).is_numeric() {
                    assert_eq!(copy.num(a, to).to_bits(), base.num(a, from).to_bits());
                } else {
                    assert_eq!(copy.cat(a, to), base.cat(a, from));
                }
            }
        }
    }

    #[test]
    fn worker_caps_are_distinct() {
        assert_eq!(worker_caps(1), vec![1, 2]);
        assert_eq!(worker_caps(2), vec![1, 2]);
        assert_eq!(worker_caps(4), vec![1, 2, 4]);
    }

    #[test]
    fn small_sweep_is_bit_identical() {
        let report = run(300).expect("harness run");
        let caps = worker_caps(std::thread::available_parallelism().map_or(2, |p| p.get()));
        assert_eq!(report.runs(), 3 * caps.len());
        assert!(report.is_deterministic(), "checksum divergence:\n{report}");
    }
}
