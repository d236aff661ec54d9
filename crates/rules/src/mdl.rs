//! Minimum-description-length accounting for rule sets.
//!
//! Both RIPPER's stopping/deletion criterion and PNrule's N-stage stopping
//! ("N-rules are added until the new rule increases the description length
//! within some limit of the minimum value obtained so far \[5\]") price a rule
//! set as *theory bits* (the cost of transmitting the rules) plus *data
//! bits* (the cost of transmitting the exceptions — the examples the theory
//! misclassifies). Theory bits follow Cohen (ICML'95): a rule with `k` of
//! `n` possible conditions costs `½·(log₂k + 2log₂log₂k + S(n,k,k/n))`
//! bits. Exception bits code each side of the prediction at its observed
//! error frequency with the `subset_dl` binomial scheme.

use pnr_data::{Column, Dataset};

/// Number of distinct candidate conditions the search space offers on
/// `data`: one per categorical value, and two one-sided thresholds per
/// distinct numeric value. Used as the `n_possible` input to
/// [`rule_theory_dl`].
pub fn count_possible_conditions(data: &Dataset) -> f64 {
    let mut n = 0.0;
    for attr in 0..data.n_attrs() {
        match data.column(attr) {
            // lint:allow(unordered-float-sum) — integer-valued counts, exact in f64
            Column::Cat(_) => n += data.schema().attr(attr).dict.len() as f64,
            Column::Num(_) => {
                let sorted = data.sort_index(attr);
                let mut distinct = 0usize;
                let mut last = f64::NAN;
                for &r in sorted {
                    let v = data.num(attr, r as usize);
                    if v != last {
                        distinct += 1;
                        last = v;
                    }
                }
                // lint:allow(unordered-float-sum) — integer-valued counts, exact in f64
                n += 2.0 * distinct as f64;
            }
        }
    }
    n.max(1.0)
}

/// Bits to identify a `k`-element subset of `n` elements when each element
/// is included independently with probability `p`:
/// `−k·log₂p − (n−k)·log₂(1−p)`.
pub fn subset_dl(n: f64, k: f64, p: f64) -> f64 {
    debug_assert!(k >= 0.0 && n + 1e-9 >= k, "k={k} n={n}");
    let mut bits = 0.0;
    if k > 0.0 {
        if p <= 0.0 {
            return f64::INFINITY;
        }
        bits -= k * p.log2();
    }
    if n - k > 0.0 {
        if p >= 1.0 {
            return f64::INFINITY;
        }
        bits -= (n - k) * (1.0 - p).log2();
    }
    bits
}

/// Theory cost in bits of one rule with `k` conditions drawn from
/// `n_possible` candidate conditions. The ½ factor is Cohen's correction
/// for redundancy among attribute tests.
pub fn rule_theory_dl(n_possible: f64, k: f64) -> f64 {
    if k <= 0.0 {
        return 0.0;
    }
    let n = n_possible.max(k).max(2.0);
    let mut tdl = k.log2().max(0.0);
    if k > 1.0 {
        let lk = k.log2();
        if lk > 1.0 {
            tdl += 2.0 * lk.log2();
        }
    }
    tdl += subset_dl(n, k, k / n);
    0.5 * tdl
}

/// Data (exception) cost in bits for a theory that covers `cover` weight of
/// examples with `fp` covered-but-negative weight, and leaves `uncover`
/// weight uncovered of which `fn_` is positive.
///
/// Exceptions on each side are coded at their observed frequency —
/// `n·H(k/n)` bits plus `log₂(n+1)` to transmit the count — rather than
/// Cohen's `expErr`-based split. The observed-frequency form is monotone in
/// the error masses on both sides, which matters in PNrule's N-stage where
/// the covered side can legitimately grow to half the pool while staying
/// nearly pure (the `expErr` heuristic mis-prices that regime and stops the
/// phase with false positives left on the table).
pub fn data_dl(cover: f64, uncover: f64, fp: f64, fn_: f64) -> f64 {
    let mut bits = 0.0;
    if cover > 0.0 {
        // lint:allow(unordered-float-sum) — two terms in fixed textual order
        bits += (cover + 1.0).log2() + subset_dl(cover, fp, (fp / cover).clamp(0.0, 1.0));
    }
    if uncover > 0.0 {
        // lint:allow(unordered-float-sum) — two terms in fixed textual order
        bits += (uncover + 1.0).log2() + subset_dl(uncover, fn_, (fn_ / uncover).clamp(0.0, 1.0));
    }
    bits
}

/// Combined description length of a rule set: the theory bits of every rule
/// plus the exception bits of the set as a whole.
///
/// `rule_lens` are the per-rule condition counts; coverage numbers describe
/// the whole set's predictions on the training data.
pub fn total_dl(
    n_possible: f64,
    rule_lens: &[usize],
    cover: f64,
    uncover: f64,
    fp: f64,
    fn_: f64,
) -> f64 {
    let theory = pnr_data::ordered_sum(
        rule_lens
            .iter()
            .map(|&k| rule_theory_dl(n_possible, k as f64)),
    );
    theory + data_dl(cover, uncover, fp, fn_)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_data::{AttrType, DatasetBuilder, Value};

    #[test]
    fn possible_conditions_counts_values_and_thresholds() {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("k", AttrType::Categorical);
        for (x, k) in [(1.0, "a"), (2.0, "b"), (2.0, "c"), (3.0, "a")] {
            b.push_row(&[Value::num(x), Value::cat(k)], "c", 1.0)
                .unwrap();
        }
        let d = b.finish();
        // numeric: 3 distinct values × 2 sides; categorical: 3 values
        assert_eq!(count_possible_conditions(&d), 9.0);
    }

    #[test]
    fn subset_dl_zero_exceptions_costs_little() {
        // perfectly pure coverage with tiny expected error probability
        let bits = subset_dl(100.0, 0.0, 0.01);
        assert!(bits > 0.0 && bits < 2.0, "{bits}");
    }

    #[test]
    fn subset_dl_is_monotone_in_k_for_small_p() {
        let p = 0.05;
        let b1 = subset_dl(100.0, 1.0, p);
        let b5 = subset_dl(100.0, 5.0, p);
        assert!(b5 > b1);
    }

    #[test]
    fn subset_dl_degenerate_probabilities() {
        assert_eq!(subset_dl(10.0, 0.0, 0.0), 0.0);
        assert_eq!(subset_dl(10.0, 3.0, 0.0), f64::INFINITY);
        assert_eq!(subset_dl(10.0, 3.0, 1.0), f64::INFINITY);
        assert_eq!(subset_dl(10.0, 10.0, 1.0), 0.0);
    }

    #[test]
    fn longer_rules_cost_more_theory_bits() {
        let n = 50.0;
        let d1 = rule_theory_dl(n, 1.0);
        let d3 = rule_theory_dl(n, 3.0);
        let d6 = rule_theory_dl(n, 6.0);
        assert!(d1 < d3 && d3 < d6, "{d1} {d3} {d6}");
        assert_eq!(rule_theory_dl(n, 0.0), 0.0);
    }

    #[test]
    fn small_disjuncts_have_long_descriptions() {
        // The paper's observation: "small disjuncts tend to have longer
        // lengths because of their small support", so a specific rule (many
        // conditions) costs much more than a general one.
        let n = 200.0;
        assert!(rule_theory_dl(n, 8.0) > 4.0 * rule_theory_dl(n, 1.0));
    }

    #[test]
    fn data_dl_grows_with_errors() {
        let clean = data_dl(100.0, 900.0, 0.0, 0.0);
        let dirty = data_dl(100.0, 900.0, 20.0, 30.0);
        assert!(dirty > clean, "dirty={dirty} clean={clean}");
    }

    #[test]
    fn data_dl_handles_empty_sides() {
        assert!(data_dl(0.0, 100.0, 0.0, 10.0).is_finite());
        assert!(data_dl(100.0, 0.0, 10.0, 0.0).is_finite());
    }

    #[test]
    fn shrinking_a_dirty_positive_prediction_reduces_data_dl() {
        // The N-stage prices the final classifier: its predicted-positive
        // set shrinks as N-rules remove false positives. Removing 600 pure
        // FPs from a 94%-FP prediction must reduce the data cost.
        let before = data_dl(7468.0, 142_532.0, 7040.0, 22.0);
        let after = data_dl(6868.0, 143_132.0, 6440.0, 22.0);
        assert!(after < before, "{after} vs {before}");
    }

    #[test]
    fn total_dl_adds_theory_and_data() {
        let t = total_dl(50.0, &[2, 3], 80.0, 920.0, 5.0, 10.0);
        let theory = rule_theory_dl(50.0, 2.0) + rule_theory_dl(50.0, 3.0);
        let data = data_dl(80.0, 920.0, 5.0, 10.0);
        assert!((t - (theory + data)).abs() < 1e-12);
    }

    #[test]
    fn adding_a_useless_rule_raises_total_dl() {
        // Same exception profile, one extra rule: DL must increase.
        let base = total_dl(50.0, &[2], 80.0, 920.0, 5.0, 10.0);
        let more = total_dl(50.0, &[2, 4], 80.0, 920.0, 5.0, 10.0);
        assert!(more > base);
    }
}
