//! Runtime invariant checkers, compiled in by the `audit` cargo feature.
//!
//! The learners' correctness rests on bookkeeping invariants that no static
//! check can see: weight mass is conserved when a view splits, a view's
//! sorted projection is a permutation of exactly the view's rows, MDL
//! truncation never raises description length beyond its slack, and score
//! cells are probabilities. Each checker panics with a diagnosable
//! `audit: <context>: …` message naming the violated invariant and the
//! offending numbers. Production call sites are gated on
//! `#[cfg(feature = "audit")]` so release binaries pay nothing; CI runs the
//! full suite once with `--features audit`.

use crate::dataset::{Column, Dataset};
use crate::weights::approx;

/// Asserts the dataset-wide finite-data invariant: every numeric cell
/// holds a finite `f64`. Rule evaluation reads numeric cells unguarded
/// (`Condition::matches`), so a NaN would not crash — it would silently
/// fail every numeric condition and skew scores. `DatasetBuilder::push_row` rejects NaN/±∞ up front, but a
/// dataset rebuilt from serialized form bypasses the builder: JSON has no
/// literal for non-finite numbers, yet a textual `1e999` parses to `inf`,
/// so `Dataset::rebuild_after_deserialize` re-checks under `audit`.
///
/// # Panics
/// Panics naming the first non-finite numeric cell.
pub fn check_finite_columns(context: &str, data: &Dataset) {
    for attr in 0..data.n_attrs() {
        if let Column::Num(values) = data.column(attr) {
            for (row, &x) in values.iter().enumerate() {
                assert!(
                    x.is_finite(),
                    "audit: {context}: numeric cell (attr {attr}, row {row}) \
                     is non-finite ({x})",
                );
            }
        }
    }
}

/// Asserts that one numeric cell is finite — the per-row companion of
/// [`check_finite_columns`], cheap enough to run on every
/// `DatasetBuilder::push_row` as defense in depth behind the builder's
/// own `Result`-based validation.
///
/// # Panics
/// Panics when `x` is NaN or infinite.
pub fn check_finite_value(context: &str, attr: usize, x: f64) {
    assert!(
        x.is_finite(),
        "audit: {context}: numeric value for attr {attr} is non-finite ({x})",
    );
}

/// Asserts weight conservation across a view split: the parent's positive
/// and total masses must equal kept + removed up to cancellation tolerance.
/// Each argument is a `(pos_weight, total_weight)` pair.
///
/// # Panics
/// Panics when either mass is not conserved.
pub fn check_split_conservation(
    context: &str,
    parent: (f64, f64),
    kept: (f64, f64),
    removed: (f64, f64),
) {
    let (name_idx, masses) = (
        ["pos", "total"],
        [(parent.0, kept.0, removed.0), (parent.1, kept.1, removed.1)],
    );
    for (name, (p, k, r)) in name_idx.iter().zip(masses) {
        assert!(
            approx::approx_eq(p, k + r),
            "audit: {context}: {name} weight not conserved across split: \
             parent {p} != kept {k} + removed {r} (diff {})",
            p - (k + r),
        );
    }
}

/// Asserts that sorted row slice `child` is a subset of sorted row slice
/// `parent` (both ascending, as `RowSet` stores them).
///
/// # Panics
/// Panics naming the first row of `child` missing from `parent`.
pub fn check_subset(context: &str, child: &[u32], parent: &[u32]) {
    let mut pi = parent.iter().copied();
    'child: for &c in child {
        for p in pi.by_ref() {
            match p.cmp(&c) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'child,
                std::cmp::Ordering::Greater => break,
            }
        }
        panic!("audit: {context}: row {c} of the derived view is not in the parent view");
    }
}

/// Asserts view-projection consistency: `proj` must be a permutation of
/// `rows` (the view's ascending row ids) ordered ascending by the value of
/// numeric attribute `attr` under `f64::total_cmp`, the order every sort
/// index is built with (so `-0.0` precedes `0.0`), with ties in row order.
///
/// # Panics
/// Panics on a length mismatch, an out-of-order pair, or a row-set mismatch.
pub fn check_sorted_projection(
    context: &str,
    data: &Dataset,
    attr: usize,
    rows: &[u32],
    proj: &[u32],
) {
    assert!(
        proj.len() == rows.len(),
        "audit: {context}: projection of attr {attr} has {} rows but the view has {}",
        proj.len(),
        rows.len(),
    );
    for pair in proj.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let (va, vb) = (data.num(attr, a as usize), data.num(attr, b as usize));
        assert!(
            va.total_cmp(&vb).then(a.cmp(&b)).is_lt(),
            "audit: {context}: projection of attr {attr} out of order: \
             row {a} (value {va}) precedes row {b} (value {vb})",
        );
    }
    let mut sorted = proj.to_vec();
    sorted.sort_unstable();
    assert!(
        sorted == rows,
        "audit: {context}: projection of attr {attr} is not a permutation of the view's rows",
    );
}

/// Asserts that `p` is a probability.
///
/// # Panics
/// Panics when `p` is NaN or outside `[0, 1]`.
pub fn check_probability(context: &str, p: f64) {
    assert!(
        (0.0..=1.0).contains(&p),
        "audit: {context}: {p} is not a probability in [0, 1]",
    );
}

/// Asserts DL non-increase across MDL truncation: the kept prefix's
/// description length must not exceed the untruncated model's by more than
/// the configured slack (plus cancellation tolerance).
///
/// # Panics
/// Panics when truncation *raised* description length beyond the slack.
pub fn check_dl_truncation(context: &str, dl_full: f64, dl_kept: f64, slack_bits: f64) {
    assert!(
        dl_kept <= dl_full + slack_bits + approx::WEIGHT_EPS,
        "audit: {context}: truncation raised description length: \
         kept {dl_kept} bits > full {dl_full} bits + slack {slack_bits}",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{DatasetBuilder, Value};
    use crate::schema::AttrType;

    fn data() -> Dataset {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        for i in 0..6 {
            b.push_row(&[Value::num((5 - i) as f64)], "c", 1.0).unwrap();
        }
        b.finish()
    }

    #[test]
    fn finite_columns_pass() {
        check_finite_columns("t", &data());
    }

    #[test]
    #[should_panic(expected = "numeric cell (attr 0, row 1) is non-finite (inf)")]
    fn non_finite_cell_fires() {
        // Forge the builder bypass: deserialization is the one path that
        // can plant a non-finite value in a dense column.
        let json = serde_json::to_string(&data()).unwrap();
        let json = json.replacen("4.0", "1e999", 1);
        let d: Dataset = serde_json::from_str(&json).unwrap();
        check_finite_columns("t", &d);
    }

    #[test]
    fn conserved_split_passes() {
        check_split_conservation("t", (3.0, 10.0), (1.0, 6.0), (2.0, 4.0));
        // cancellation residue within tolerance is fine
        check_split_conservation("t", (3.0, 10.0), (1.0, 6.0 + 1e-12), (2.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "total weight not conserved")]
    fn leaked_total_mass_fires() {
        check_split_conservation("t", (3.0, 10.0), (1.0, 6.0), (2.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "pos weight not conserved")]
    fn leaked_pos_mass_fires() {
        check_split_conservation("t", (3.0, 10.0), (0.5, 6.0), (2.0, 4.0));
    }

    #[test]
    fn subset_accepts_subsets() {
        check_subset("t", &[], &[1, 2, 3]);
        check_subset("t", &[2, 3], &[1, 2, 3]);
        check_subset("t", &[1, 2, 3], &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "row 4 of the derived view")]
    fn foreign_row_fires() {
        check_subset("t", &[2, 4], &[1, 2, 3]);
    }

    #[test]
    fn good_projection_passes() {
        let d = data();
        // values descend with row id, so the sorted projection reverses
        check_sorted_projection("t", &d, 0, &[0, 1, 2, 3, 4, 5], &[5, 4, 3, 2, 1, 0]);
        check_sorted_projection("t", &d, 0, &[1, 3], &[3, 1]);
    }

    #[test]
    fn signed_zeros_follow_total_cmp() {
        // `-0.0 == 0.0`, but the sort index orders `-0.0` first whatever
        // the row ids, and so must every projection.
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        for v in [0.0, -0.0, 0.0] {
            b.push_row(&[Value::num(v)], "c", 1.0).unwrap();
        }
        let d = b.finish();
        assert_eq!(d.sort_index(0), &[1, 0, 2]);
        check_sorted_projection("t", &d, 0, &[0, 1, 2], &[1, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn zero_before_negative_zero_fires() {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        for v in [0.0, -0.0] {
            b.push_row(&[Value::num(v)], "c", 1.0).unwrap();
        }
        check_sorted_projection("t", &b.finish(), 0, &[0, 1], &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "has 1 rows but the view has 2")]
    fn dropped_row_fires() {
        let d = data();
        check_sorted_projection("t", &d, 0, &[1, 3], &[3]);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn misordered_projection_fires() {
        let d = data();
        check_sorted_projection("t", &d, 0, &[1, 3], &[1, 3]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn swapped_row_fires() {
        let d = data();
        // right length and value-sorted, but row 2 replaces row 3
        check_sorted_projection("t", &d, 0, &[1, 3], &[2, 1]);
    }

    #[test]
    fn probability_bounds() {
        check_probability("t", 0.0);
        check_probability("t", 1.0);
        check_probability("t", 0.5);
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn excess_probability_fires() {
        check_probability("t", 1.0 + 1e-6);
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn nan_probability_fires() {
        check_probability("t", f64::NAN);
    }

    #[test]
    fn truncation_within_slack_passes() {
        check_dl_truncation("t", 100.0, 90.0, 0.0);
        check_dl_truncation("t", 100.0, 100.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "truncation raised description length")]
    fn truncation_above_slack_fires() {
        check_dl_truncation("t", 100.0, 102.0, 1.0);
    }
}
