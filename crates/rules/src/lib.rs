//! Rule machinery shared by PNrule and the baseline learners.
//!
//! This crate defines:
//!
//! * [`Condition`] — atomic tests on one attribute: categorical equality,
//!   numeric one-sided thresholds, and the paper's explicit **range**
//!   condition `lo < A ≤ hi`;
//! * [`Rule`] — a conjunction of conditions — and ordered [`RuleSet`]s with
//!   first-match semantics, over a dataset row or over fallible value
//!   lookups (where an unknown value satisfies no condition): the one
//!   rule evaluator that learning, the experiments and serving share;
//! * weighted rule-evaluation statistics ([`stats`]): Z-number (the PNrule
//!   default), FOIL gain (RIPPER's growth metric), entropy gain, gain ratio,
//!   gini gain, χ² and Laplace accuracy, selectable through [`EvalMetric`];
//! * [`TaskView`] — a learner's working view of a dataset (current rows,
//!   per-row binary target flags, weights);
//! * the greedy best-condition [`search`], including the two-scan range
//!   finder described in section 2.2 of the paper — view-proportional via
//!   per-view sorted projections ([`ViewIndex`]) and parallel across
//!   attributes with a deterministic, bit-identical merge;
//! * the [`BinaryClassifier`] trait every learner's model implements.
//!
//! # Example: find the best single condition on a toy task
//!
//! ```
//! use pnr_data::{DatasetBuilder, AttrType, Value};
//! use pnr_rules::{TaskView, EvalMetric, search::find_best_condition, SearchOptions};
//!
//! let mut b = DatasetBuilder::new();
//! b.add_attribute("x", AttrType::Numeric);
//! for i in 0..10 {
//!     let class = if (3..5).contains(&i) { "pos" } else { "neg" };
//!     b.push_row(&[Value::num(i as f64)], class, 1.0).unwrap();
//! }
//! let data = b.finish();
//! let pos = data.class_code("pos").unwrap();
//! let is_pos: Vec<bool> = (0..data.n_rows()).map(|r| data.label(r) == pos).collect();
//! let view = TaskView::full(&data, &is_pos, data.weights());
//! let best = find_best_condition(&view, EvalMetric::ZNumber, &SearchOptions::default()).unwrap();
//! // the positives live in x ∈ {3,4}: a range condition isolates them
//! assert_eq!(best.stats.pos, 2.0);
//! assert_eq!(best.stats.total, 2.0);
//! ```

pub mod budget;
pub mod classifier;
pub mod condition;
pub mod mdl;
pub mod rule;
pub mod ruleset;
pub mod search;
pub mod stats;
pub mod task;
pub mod view_index;

pub use budget::{BudgetTracker, FitBudget};
pub use classifier::{evaluate_classifier, score_curve, BinaryClassifier, ConstantClassifier};
pub use condition::Condition;
pub use rule::Rule;
pub use ruleset::RuleSet;
pub use search::{find_best_condition, worker_count, CandidateCondition, SearchOptions};
pub use stats::{CovStats, EvalMetric};
pub use task::TaskView;
pub use view_index::ViewIndex;
