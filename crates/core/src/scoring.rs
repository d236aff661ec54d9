//! The ScoreMatrix: probabilistic scoring of P-rule/N-rule combinations.
//!
//! N-rules are learned on the records covered by *all* P-rules together, so
//! "a given N-rule may be effective in removing false positives of only a
//! subset of P-rules" (section 2.3). The scoring step judges the
//! significance of each N-rule for each P-rule: the training data is pushed
//! through the ranked P-rules then the ranked N-rules, the target fraction
//! of every (first-P, first-N) combination is estimated with Laplace
//! smoothing, and a combination whose accuracy does not differ
//! *significantly* (one-sample z-test) from its P-rule's overall accuracy
//! falls back to that P-rule's estimate — i.e. the N-rule's effect on that
//! P-rule is ignored.
//!
//! The resulting matrix "reflects an approximate probability that a record
//! belongs to the target class, given that a particular P-rule, N-rule
//! combination applied to it".

use crate::model::RuleTrace;
use pnr_data::weights::approx;
use pnr_data::Dataset;
use pnr_rules::RuleSet;
use pnr_telemetry::{Counter, Span, SpanKind, TelemetrySink};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Per-(P-rule, N-rule) probability estimates. Column `n_n` (one past the
/// last N-rule) is the **default N-rule** — "we always have a default last
/// N-rule that applies when none of the discovered N-rules apply".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoreMatrix {
    n_p: usize,
    n_n: usize,
    scores: Vec<f64>, // row-major, n_p × (n_n + 1)
}

impl ScoreMatrix {
    /// Builds the matrix from training data.
    ///
    /// * `is_pos[row]` — original target flags;
    /// * `z_threshold` — |z| below which a cell is deemed insignificant and
    ///   the P-rule's own estimate is used instead.
    pub fn build(
        data: &Dataset,
        is_pos: &[bool],
        p_rules: &RuleSet,
        n_rules: &RuleSet,
        z_threshold: f64,
    ) -> ScoreMatrix {
        Self::build_with_sink(
            data,
            is_pos,
            p_rules,
            n_rules,
            z_threshold,
            &pnr_telemetry::noop(),
        )
    }

    /// [`Self::build`] reporting a build span and the rows swept by the
    /// `first_match` pass to `sink`. Telemetry is write-only: the matrix is
    /// identical whatever sink is attached.
    pub fn build_with_sink(
        data: &Dataset,
        is_pos: &[bool],
        p_rules: &RuleSet,
        n_rules: &RuleSet,
        z_threshold: f64,
        sink: &Arc<dyn TelemetrySink>,
    ) -> ScoreMatrix {
        let _build_span = Span::enter(sink.as_ref(), SpanKind::ScoreMatrix, "score_matrix");
        if sink.enabled() {
            // One P→N routing sweep over every training row.
            sink.add(Counter::FirstMatchRows, is_pos.len() as u64);
        }
        let n_p = p_rules.len();
        let n_n = n_rules.len();
        let width = n_n + 1;
        let mut cell_pos = vec![0.0f64; n_p * width];
        let mut cell_tot = vec![0.0f64; n_p * width];

        for (row, &row_is_pos) in is_pos.iter().enumerate() {
            let Some(pi) = p_rules.first_match(data, row) else {
                continue;
            };
            let cell = Self::cell(n_n, pi, n_rules.first_match(data, row));
            let w = data.weight(row);
            cell_tot[cell] += w;
            if row_is_pos {
                cell_pos[cell] += w;
            }
        }

        let mut scores = vec![0.5f64; n_p * width];
        let rows = cell_pos
            .chunks_exact(width)
            .zip(cell_tot.chunks_exact(width));
        for ((pos_row, tot_row), score_row) in rows.zip(scores.chunks_exact_mut(width)) {
            let row_pos = pnr_data::ordered_sum(pos_row.iter().copied());
            let row_tot = pnr_data::ordered_sum(tot_row.iter().copied());
            let row_acc = if row_tot > 0.0 {
                row_pos / row_tot
            } else {
                0.5
            };
            let row_score = (row_pos + 1.0) / (row_tot + 2.0);
            for j in 0..width {
                let (pos, tot) = (pos_row[j], tot_row[j]);
                let raw = (pos + 1.0) / (tot + 2.0);
                let use_raw = if j == n_n {
                    // The default column is the P-rule's own evidence when
                    // no N-rule fires; always use it.
                    true
                } else if approx::is_zero(tot) {
                    false
                } else {
                    // One-sample z-test of the cell accuracy against the
                    // P-rule row accuracy. Accuracies are quotients of
                    // weight sums accumulated in different orders, so a
                    // mathematically identical cell can differ from the row
                    // by a few ulps — compare against the workspace epsilon,
                    // never exactly.
                    let sigma = (row_acc * (1.0 - row_acc) / tot).sqrt();
                    if sigma < approx::WEIGHT_EPS {
                        // Pure row (accuracy 0 or 1): any genuine deviation
                        // in the cell is significant by itself.
                        (pos / tot - row_acc).abs() > approx::WEIGHT_EPS
                    } else {
                        ((pos / tot - row_acc) / sigma).abs() >= z_threshold
                    }
                };
                score_row[j] = if use_raw { raw } else { row_score };
            }
        }
        // Every cell is a Laplace-smoothed fraction or the 0.5 prior; a
        // value outside [0,1] means the estimate arithmetic regressed.
        #[cfg(feature = "audit")]
        for &s in &scores {
            pnr_data::audit::check_probability("ScoreMatrix cell", s);
        }
        ScoreMatrix { n_p, n_n, scores }
    }

    /// Number of P-rules (rows).
    pub fn n_p(&self) -> usize {
        self.n_p
    }

    /// Number of learned N-rules (the matrix has one extra default column).
    pub fn n_n(&self) -> usize {
        self.n_n
    }

    /// Number of stored cells; `n_p × (n_n + 1)` for a matrix built here,
    /// but a deserialized one holds whatever its file did.
    pub(crate) fn n_cells(&self) -> usize {
        self.scores.len()
    }

    /// The index in row-major `scores` of the cell a record lands in when
    /// P-rule `p` is its first match and N-rule `n` its first N-match
    /// (`None` = no N-rule applied → the default column `n_n`).
    fn cell(n_n: usize, p: usize, n: Option<usize>) -> usize {
        p * (n_n + 1) + n.unwrap_or(n_n)
    }

    /// Score of the combination: first-matching P-rule `p`, first-matching
    /// N-rule `n` (`None` = no N-rule applied → default column).
    pub fn score(&self, p: usize, n: Option<usize>) -> f64 {
        assert!(p < self.n_p, "P-rule index out of range");
        if let Some(j) = n {
            assert!(j < self.n_n, "N-rule index out of range");
        }
        self.scores[Self::cell(self.n_n, p, n)]
    }

    /// Score and explanation of a record from its first P-rule match `p`:
    /// no P-rule match scores 0 with an empty trace; otherwise `n_match`
    /// finds the first N-rule match (it runs only then) and the cell of
    /// the pair is the score. Every scorer, over a dataset row or over
    /// serving's value lookups, routes through here.
    #[inline]
    pub(crate) fn route(
        &self,
        p: Option<usize>,
        n_match: impl FnOnce() -> Option<usize>,
    ) -> (f64, RuleTrace) {
        let Some(pi) = p else {
            return (0.0, RuleTrace::default());
        };
        let nj = n_match();
        let trace = RuleTrace {
            p_rule: Some(pi),
            n_rule: nj,
        };
        (self.score(pi, nj), trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_data::{AttrType, DatasetBuilder, Value};
    use pnr_rules::{Condition, Rule};

    /// x identifies the P-rule, y the N-rule.
    fn build_case(rows: &[(f64, f64, bool)], z: f64) -> ScoreMatrix {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("y", AttrType::Numeric);
        for &(x, y, _) in rows {
            b.push_row(&[Value::num(x), Value::num(y)], "c", 1.0)
                .unwrap();
        }
        let d = b.finish();
        let is_pos: Vec<bool> = rows.iter().map(|&(_, _, p)| p).collect();
        let p_rules = RuleSet::from_rules(vec![
            Rule::new(vec![Condition::NumLe {
                attr: 0,
                value: 0.0,
            }]),
            Rule::new(vec![Condition::NumGt {
                attr: 0,
                value: 0.0,
            }]),
        ]);
        let n_rules = RuleSet::from_rules(vec![Rule::new(vec![Condition::NumGt {
            attr: 1,
            value: 0.0,
        }])]);
        ScoreMatrix::build(&d, &is_pos, &p_rules, &n_rules, z)
    }

    #[test]
    fn significant_n_rule_lowers_score() {
        // P-rule 0 (x ≤ 0): records with y > 0 are overwhelmingly negative.
        let mut rows: Vec<(f64, f64, bool)> = Vec::new();
        for _ in 0..30 {
            rows.push((0.0, 0.0, true)); // P0, no N: targets
            rows.push((0.0, 1.0, false)); // P0, N0: false positives
        }
        let m = build_case(&rows, 1.0);
        assert!(m.score(0, Some(0)) < 0.1, "N-rule should kill the cell");
        assert!(m.score(0, None) > 0.9, "default column keeps the P-rule");
    }

    #[test]
    fn insignificant_cell_falls_back_to_row_estimate() {
        // P-rule 1 (x > 0) has 60% accuracy overall; its single y>0 record
        // is far too little evidence, so the cell reverts to the row score.
        let mut rows: Vec<(f64, f64, bool)> = Vec::new();
        for i in 0..30 {
            rows.push((1.0, 0.0, i % 5 < 3)); // 60% positive
        }
        rows.push((1.0, 1.0, false)); // one lonely N-covered record
        let m = build_case(&rows, 2.0);
        let row_score = m.score(1, None);
        assert!(
            (m.score(1, Some(0)) - row_score).abs() < 0.1,
            "cell {} should be near row {}",
            m.score(1, Some(0)),
            row_score
        );
    }

    #[test]
    fn n_rule_ignored_for_one_p_rule_but_not_another() {
        // The headline behaviour: the same N-rule removes P0's false
        // positives but would only hurt P1 (its N-cell is mostly true
        // positives with plenty of evidence).
        let mut rows: Vec<(f64, f64, bool)> = Vec::new();
        for _ in 0..25 {
            rows.push((0.0, 0.0, true));
            rows.push((0.0, 1.0, false)); // N fires on P0's FPs
            rows.push((1.0, 0.0, true));
            rows.push((1.0, 1.0, true)); // N fires on P1's TPs!
        }
        let m = build_case(&rows, 1.0);
        assert!(m.score(0, Some(0)) < 0.5, "N effective for P0");
        assert!(m.score(1, Some(0)) > 0.5, "N neutralised for P1");
    }

    #[test]
    fn empty_cell_uses_row_fallback() {
        let rows: Vec<(f64, f64, bool)> = (0..20).map(|_| (0.0, 0.0, true)).collect();
        let m = build_case(&rows, 1.0);
        // P1 never fires: its default cell is the uninformed prior 0.5
        // (predicted false at the usual threshold).
        assert_eq!(m.score(1, None), 0.5);
        // P0's N-cell never fires either → row fallback (high).
        assert!(m.score(0, Some(0)) > 0.5);
    }

    #[test]
    fn laplace_smoothing_keeps_scores_off_the_walls() {
        let rows: Vec<(f64, f64, bool)> = (0..5).map(|_| (0.0, 0.0, true)).collect();
        let m = build_case(&rows, 1.0);
        let s = m.score(0, None);
        assert!(s > 0.5 && s < 1.0, "smoothed score {s}");
    }

    /// Like [`build_case`] but with fractional row weights, so accuracies
    /// are quotients of rounded weight sums.
    fn build_weighted_case(rows: &[(f64, f64, bool)], w: f64, z: f64) -> ScoreMatrix {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("y", AttrType::Numeric);
        for &(x, y, _) in rows {
            b.push_row(&[Value::num(x), Value::num(y)], "c", w).unwrap();
        }
        let d = b.finish();
        let is_pos: Vec<bool> = rows.iter().map(|&(_, _, p)| p).collect();
        let p_rules = RuleSet::from_rules(vec![
            Rule::new(vec![Condition::NumLe {
                attr: 0,
                value: 0.0,
            }]),
            Rule::new(vec![Condition::NumGt {
                attr: 0,
                value: 0.0,
            }]),
        ]);
        let n_rules = RuleSet::from_rules(vec![Rule::new(vec![Condition::NumGt {
            attr: 1,
            value: 0.0,
        }])]);
        ScoreMatrix::build(&d, &is_pos, &p_rules, &n_rules, z)
    }

    #[test]
    fn pure_row_cell_matching_row_accuracy_falls_back() {
        // P-rule 0's coverage is entirely positive (row accuracy exactly 1,
        // sigma 0). Its N-cell is also pure, so the cell accuracy equals
        // the row accuracy and the N-rule must be judged insignificant for
        // this P-rule: the cell reverts to the row estimate. Fractional
        // weights make the accuracies quotients of accumulated sums — the
        // regime where an exact float comparison can spuriously flag the
        // cell as significant.
        let mut rows: Vec<(f64, f64, bool)> = Vec::new();
        for _ in 0..20 {
            rows.push((0.0, 0.0, true)); // P0, default column
            rows.push((0.0, 1.0, true)); // P0, N0 — still positive
        }
        let m = build_weighted_case(&rows, 0.1, 1.0);
        let row_score = (40.0 * 0.1 + 1.0) / (40.0 * 0.1 + 2.0);
        assert!(
            (m.score(0, Some(0)) - row_score).abs() < 1e-12,
            "pure cell should fall back to the row estimate: {} vs {row_score}",
            m.score(0, Some(0))
        );
    }

    #[test]
    fn pure_negative_row_keeps_sigma_zero_well_defined() {
        // A pure-negative P-rule row (accuracy exactly 0, sigma 0). The
        // empty N-cell falls back to the row estimate and the default cell
        // keeps its own low estimate — no NaN or division blow-up from the
        // zero-sigma path.
        let mut rows: Vec<(f64, f64, bool)> = Vec::new();
        for _ in 0..20 {
            rows.push((0.0, 0.0, false)); // P0, default column, all negative
        }
        let m = build_weighted_case(&rows, 0.1, 1.0);
        let row_score = (0.0 + 1.0) / (20.0 * 0.1 + 2.0);
        assert!(
            (m.score(0, Some(0)) - row_score).abs() < 1e-12,
            "empty cell falls back: {}",
            m.score(0, Some(0))
        );
        assert!(
            m.score(0, None) < 0.5,
            "pure-negative default cell stays low"
        );
    }

    #[test]
    #[should_panic(expected = "N-rule index")]
    fn out_of_range_n_index_panics() {
        let rows = vec![(0.0, 0.0, true)];
        let m = build_case(&rows, 1.0);
        m.score(0, Some(5));
    }

    #[test]
    fn dimensions_reported() {
        let rows = vec![(0.0, 0.0, true)];
        let m = build_case(&rows, 1.0);
        assert_eq!(m.n_p(), 2);
        assert_eq!(m.n_n(), 1);
    }
}
