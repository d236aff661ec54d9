//! The compiled two-phase scoring engine.
//!
//! [`CompiledModel`] lowers a [`PnruleModel`]'s two rule lists into
//! [`CompiledRuleSet`] predicate programs (see `pnr_rules::compiled` for
//! the scheme) and fuses P-routing, N-routing and the ScoreMatrix lookup
//! into one pass: route the record through the compiled P-program; on a
//! hit, route it through the compiled N-program and read the score out of
//! the matrix. Decisions — score, trace and thresholded prediction — are
//! bit-identical to [`PnruleModel::score_with_trace`]: the compiled rule
//! engines return the interpreter's exact first-match ranks, both route
//! them to a cell through the one `ScoreMatrix::route`, and the
//! threshold comparison is the same.
//!
//! For batch scoring, [`CompiledModel::scorer`] binds both programs to a
//! dataset's columns once ([`CompiledMatcher`]) so the per-row loop is
//! pure dispatch — this is the engine behind the serving layer's batch
//! path and the `BENCH_score.json` baseline.

use crate::model::{PnruleModel, RuleTrace};
use crate::scoring::ScoreMatrix;
use pnr_data::Dataset;
use pnr_rules::compiled::{CompiledMatcher, CompiledRuleSet};

/// A [`PnruleModel`] lowered into compiled P- and N-phase predicate
/// programs plus the scoring mechanism. Compile once per model; score
/// per row (or per batch through [`Self::scorer`]).
#[derive(Debug, Clone)]
pub struct CompiledModel {
    threshold: f64,
    p: CompiledRuleSet,
    n: CompiledRuleSet,
    score_matrix: ScoreMatrix,
}

impl CompiledModel {
    /// Lowers `model` into a compiled engine.
    pub fn compile(model: &PnruleModel) -> CompiledModel {
        CompiledModel {
            threshold: model.threshold,
            p: CompiledRuleSet::compile(&model.p_rules),
            n: CompiledRuleSet::compile(&model.n_rules),
            score_matrix: model.score_matrix.clone(),
        }
    }

    /// The decision threshold carried over from the source model.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Score and explanation of `row`, bit-identical to
    /// [`PnruleModel::score_with_trace`].
    pub fn score_with_trace(&self, data: &Dataset, row: usize) -> (f64, RuleTrace) {
        self.score_matrix.route(self.p.first_match(data, row), || {
            self.n.first_match(data, row)
        })
    }

    /// Score and explanation against fallible value lookups (the serving
    /// path's drift-tolerant access), bit-identical to routing
    /// `RuleSet::first_match_lookup` through the ScoreMatrix. An unknown
    /// (`None`) value satisfies no condition.
    pub fn score_with_trace_lookup<N, C>(&self, num: N, cat: C) -> (f64, RuleTrace)
    where
        N: Fn(usize) -> Option<f64>,
        C: Fn(usize) -> Option<u32>,
    {
        self.score_matrix
            .route(self.p.first_match_lookup(&num, &cat), || {
                self.n.first_match_lookup(&num, &cat)
            })
    }

    /// The thresholded decision for `row`.
    pub fn predict(&self, data: &Dataset, row: usize) -> bool {
        self.score_with_trace(data, row).0 > self.threshold
    }

    /// A batch scorer over `data` with both rule programs bound to the
    /// dataset's columns once.
    ///
    /// # Panics
    /// Panics (like the interpreter's first data access would) when a
    /// tested attribute's column type contradicts its conditions.
    pub fn scorer<'a>(&'a self, data: &'a Dataset) -> CompiledScorer<'a> {
        CompiledScorer {
            threshold: self.threshold,
            data,
            p: self.p.matcher(data),
            n: &self.n,
            score_matrix: &self.score_matrix,
        }
    }
}

/// A [`CompiledModel`] bound to one dataset's columns for batch scoring.
#[derive(Debug, Clone)]
pub struct CompiledScorer<'a> {
    threshold: f64,
    data: &'a Dataset,
    p: CompiledMatcher<'a>,
    /// The N-phase runs on the per-row dense path, not a batch matcher:
    /// it is consulted only for the (rare, in the rare-class serving
    /// shape) rows some P-rule matched, so paying the matcher's
    /// bind-time segment precompute for every row would cost more than
    /// the per-row dispatch it saves.
    n: &'a CompiledRuleSet,
    score_matrix: &'a ScoreMatrix,
}

impl CompiledScorer<'_> {
    /// Score and explanation of `row`, bit-identical to
    /// [`PnruleModel::score_with_trace`].
    #[inline]
    pub fn score_with_trace(&self, row: usize) -> (f64, RuleTrace) {
        self.score_matrix.route(self.p.first_match(row), || {
            self.n.first_match(self.data, row)
        })
    }

    /// The model score of `row`.
    #[inline]
    pub fn score(&self, row: usize) -> f64 {
        self.score_with_trace(row).0
    }

    /// The thresholded decision for `row`.
    #[inline]
    pub fn predict(&self, row: usize) -> bool {
        self.score(row) > self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_data::{AttrType, DatasetBuilder, Value};
    use pnr_rules::{Condition, Rule, RuleSet};

    fn model_and_data() -> (PnruleModel, Dataset) {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("k", AttrType::Categorical);
        b.add_class("pos");
        b.add_class("neg");
        b.add_cat_value(1, "ftp");
        b.add_cat_value(1, "http");
        for i in 0..60 {
            let x = (i % 10) as f64;
            let k = if i % 3 == 0 { "ftp" } else { "http" };
            let target = x <= 5.0 && i % 3 == 0;
            b.push_row(
                &[Value::num(x), Value::cat(k)],
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
        let n_rules = RuleSet::from_rules(vec![Rule::new(vec![Condition::CatEq {
            attr: 1,
            value: 1,
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
    fn compiled_scores_are_bit_identical_to_the_interpreter() {
        let (model, d) = model_and_data();
        let compiled = CompiledModel::compile(&model);
        let scorer = compiled.scorer(&d);
        for row in 0..d.n_rows() {
            let (want_score, want_trace) = model.score_with_trace(&d, row);
            let (got_score, got_trace) = compiled.score_with_trace(&d, row);
            assert_eq!(got_score.to_bits(), want_score.to_bits(), "row {row}");
            assert_eq!(got_trace, want_trace, "row {row}");
            let (bs, bt) = scorer.score_with_trace(row);
            assert_eq!(bs.to_bits(), want_score.to_bits(), "batch row {row}");
            assert_eq!(bt, want_trace, "batch row {row}");
            assert_eq!(
                compiled.predict(&d, row),
                want_score > model.threshold,
                "row {row}"
            );
            assert_eq!(scorer.predict(row), want_score > model.threshold);
        }
    }

    #[test]
    fn lookup_path_matches_interpreter_with_unknowns() {
        let (model, d) = model_and_data();
        let compiled = CompiledModel::compile(&model);
        // all values known
        for row in 0..d.n_rows() {
            let num = |a: usize| Some(d.num(a, row));
            let cat = |a: usize| Some(d.cat(a, row));
            let (score, trace) = compiled.score_with_trace_lookup(num, cat);
            let want = model.score_with_trace(&d, row);
            assert_eq!(score.to_bits(), want.0.to_bits());
            assert_eq!(trace, want.1);
        }
        // everything unknown: no P-rule fires, no-P score
        let (score, trace) = compiled.score_with_trace_lookup(|_| None, |_| None);
        assert_eq!(score.to_bits(), 0.0f64.to_bits());
        assert_eq!(
            trace,
            RuleTrace {
                p_rule: None,
                n_rule: None
            }
        );
    }

    #[test]
    fn threshold_carries_over() {
        let (model, _) = model_and_data();
        let compiled = CompiledModel::compile(&model);
        assert_eq!(compiled.threshold().to_bits(), model.threshold.to_bits());
    }
}
