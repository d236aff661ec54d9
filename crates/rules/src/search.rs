//! Greedy best-condition search, including the paper's range finder.
//!
//! For categorical attributes every `attr = value` test is scored from a
//! single counting pass. For numeric attributes the two one-sided tests
//! `A ≤ v` and `A > v` are scored for every distinct-value boundary in one
//! scan of the view's **sorted projection** (section 2.2 of the paper), and
//! a **range-based** condition `lo < A ≤ hi` is then sought with one extra
//! scan: the better one-sided bound is fixed and the opposite bound swept —
//! "If condition A ≤ vᵣ has higher value than condition A > vₗ, then we fix
//! vᵣ and scan for the best value of vₗ to the left of vᵣ", and vice versa.
//!
//! The scan is **view-proportional**: the per-attribute sorted row lists
//! come from the view's [`ViewIndex`](crate::view_index::ViewIndex), so a
//! view that has shrunk to a handful of rows is not scanned through a
//! dataset-sized mask.
//!
//! Parallelism is two-dimensional. Attributes are independent, and a
//! [`ShardPlan`] additionally splits the view's
//! rows into contiguous shards whose per-shard statistics — all weight
//! sums — merge exactly. Workers claim `(attribute × shard)` partial tasks
//! off a shared counter (phase A); the main thread then reduces each
//! attribute's shard partials in **shard-index order** through
//! [`pnr_data::weights::ordered_sum`]-style left folds, charges the budget
//! and scores candidates in ascending attribute order (phase B). With one
//! worker, phase A runs inline through the *same* plan, so the result is
//! bit-identical for any worker count — including the "first best wins,
//! lowest attribute index" tie-break.

use crate::budget::BudgetTracker;
use crate::condition::Condition;
use crate::shard::{worker_count, ShardPlan};
use crate::stats::{CovStats, EvalMetric};
use crate::task::TaskView;
use pnr_data::weights::{approx, ordered_sum};
use pnr_data::Column;
use pnr_telemetry::{Counter, TelemetrySink};
use std::sync::Arc;

/// Options controlling condition search.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Evaluate explicit range conditions on numeric attributes (the
    /// paper's method). Disable to emulate learners that only use one-sided
    /// tests (RIPPER, C4.5) or for the `ablation_range` experiment.
    pub use_ranges: bool,
    /// Minimum weighted support (total covered weight) a candidate must
    /// retain. The P-phase sets this to its min-support floor; 0 disables.
    pub min_support_weight: f64,
    /// Optional `(pos_total, n_total)` context the metric is evaluated
    /// against, overriding the view's own totals. The paper scores both the
    /// current rule and its refinement "with respect to the distribution of
    /// target class in the data-set that remains after removing data
    /// supported by earlier rules" — i.e. against the rule's starting view,
    /// not the shrinking refinement view.
    pub context: Option<(f64, f64)>,
    /// Optional training-budget tracker candidates are charged against.
    /// When a charge crosses the budget's candidate limit (or its
    /// wall-clock deadline has passed) the whole search call returns
    /// `None` and the tracker latches exhausted — partial scans are
    /// discarded so the outcome is deterministic under parallelism (see
    /// [`crate::budget`]).
    pub budget: Option<Arc<BudgetTracker>>,
    /// Telemetry receiver. The search reports candidate-evaluation
    /// counters, `ViewIndex` warm/cold projection hits and the effective
    /// worker policy through it; the default no-op sink makes every report
    /// a no-op branch. Telemetry is write-only — it never influences the
    /// search result.
    pub sink: Arc<dyn TelemetrySink>,
    /// Explicit worker-thread cap. `None` (default) engages threads only
    /// once the search reaches [`PARALLEL_MIN_CELLS`]; `Some(1)` runs
    /// inline on the calling thread; `Some(k)` with `k > 1` forces worker
    /// threads (at least two, at most `k`) even on small searches — tests
    /// and the determinism harness use this to prove bit-identity across
    /// thread counts on small fits. The result never depends on it.
    pub max_workers: Option<usize>,
    /// Row-shard count for the [`ShardPlan`]. `None` (default) keeps one
    /// shard, which reproduces the unsharded scan's float arithmetic
    /// exactly; `Some(k)` splits the view's rows into `k` contiguous
    /// shards (clamped to the row count). The plan — not the worker
    /// count — fixes the float-addition grouping, so a given shard
    /// request yields the same model on any machine. Must be ≥ 1.
    pub row_shards: Option<usize>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            use_ranges: true,
            min_support_weight: 0.0,
            context: None,
            budget: None,
            sink: pnr_telemetry::noop(),
            max_workers: None,
            row_shards: None,
        }
    }
}

/// Charges `n` scored candidates against the options' budget tracker;
/// always `true` when no budget is attached. Mirrors every evaluation
/// into the telemetry sink: `ConditionsEvaluated` unconditionally, and
/// `CandidateCharges` for exactly the charges a live (un-exhausted)
/// tracker accepts, so sink and tracker totals agree while the budget
/// holds.
fn charge_candidates(opts: &SearchOptions, n: usize) -> bool {
    if opts.sink.enabled() {
        opts.sink.add(Counter::ConditionsEvaluated, n as u64);
    }
    match &opts.budget {
        Some(tracker) => {
            let was_live = !tracker.is_exhausted();
            let ok = tracker.charge_candidates(n as u64);
            if was_live && opts.sink.enabled() {
                opts.sink.add(Counter::CandidateCharges, n as u64);
            }
            ok
        }
        None => true,
    }
}

/// True when the attached budget can no longer fund this search call:
/// already latched exhausted, or past its wall-clock deadline.
fn budget_depleted(opts: &SearchOptions) -> bool {
    match &opts.budget {
        Some(tracker) => tracker.is_exhausted() || !tracker.check_deadline(),
        None => false,
    }
}

/// Minimum `view rows × attributes` product before a search with no
/// explicit [`SearchOptions::max_workers`] cap pays for thread spawns.
pub const PARALLEL_MIN_CELLS: usize = 16 * 1024;

/// A scored candidate condition.
#[derive(Debug, Clone)]
pub struct CandidateCondition {
    /// The condition itself.
    pub condition: Condition,
    /// Its weighted coverage over the searched view.
    pub stats: CovStats,
    /// Its evaluation-metric score.
    pub score: f64,
}

/// Tracks the best candidate seen; strictly-greater comparison keeps the
/// search deterministic (first best wins ties).
#[derive(Debug, Default)]
struct Best {
    cand: Option<CandidateCondition>,
}

impl Best {
    fn offer(&mut self, condition: Condition, stats: CovStats, score: f64) {
        if !score.is_finite() {
            return;
        }
        if self.cand.as_ref().is_none_or(|c| score > c.score) {
            self.cand = Some(CandidateCondition {
                condition,
                stats,
                score,
            });
        }
    }
}

/// Per-shard accumulation of one attribute's condition statistics: a pure
/// function of the shard's rows, computable on any thread.
enum ShardPartial {
    /// Per-dictionary-code positive/total covered weight over the shard's
    /// slice of the view's row set.
    Cat { pos: Vec<f64>, tot: Vec<f64> },
    /// Within-shard prefix sums at each distinct value of the shard's
    /// slice of the view's sorted projection.
    Num(Boundaries),
}

/// Finds the highest-scoring single condition over the view, or `None` when
/// no candidate has positive support under the constraints.
///
/// Phase A computes the `(attribute × shard)` partial statistics: inline
/// on the calling thread when [`worker_count`] allows one worker, on
/// scoped worker threads otherwise. Phase B reduces each attribute's
/// partials in shard-index order, charges the budget and scores the
/// candidates in ascending attribute order on the calling thread, so the
/// result is bit-identical for any worker count.
pub fn find_best_condition(
    view: &TaskView<'_>,
    metric: EvalMetric,
    opts: &SearchOptions,
) -> Option<CandidateCondition> {
    if view.is_empty() || budget_depleted(opts) {
        return None;
    }
    let n_attrs = view.data.n_attrs();
    let plan = ShardPlan::new(view.n_rows(), opts.row_shards);
    let available = std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers = worker_count(
        opts.max_workers,
        view.n_rows() * n_attrs,
        n_attrs * plan.n_shards(),
        available,
    );
    if opts.sink.enabled() {
        if workers > 1 {
            // Record the effective thread policy so sweeps read the real
            // worker count instead of guessing: mean workers per threaded
            // search = SearchWorkerThreads / ParallelSearchCalls.
            opts.sink.add(Counter::ParallelSearchCalls, 1);
            opts.sink.add(Counter::SearchWorkerThreads, workers as u64);
        }
        // Warm/cold projection telemetry is classified here, before
        // phase A materialises any projection.
        for attr in 0..n_attrs {
            if matches!(view.data.column(attr), Column::Num(_)) {
                let counter = if view.projection_is_warm(attr) {
                    Counter::ViewWarmHits
                } else {
                    Counter::ViewColdBuilds
                };
                // lint:allow(telemetry-ungated) — inside the `sink.enabled()` block opened above
                opts.sink.add(counter, 1);
            }
        }
    }
    let (pos_total, n_total) = opts
        .context
        .unwrap_or_else(|| (view.pos_weight(), view.total_weight()));
    // Threaded phase A runs to completion up front; inline phase A runs
    // one attribute at a time, just before phase B scores it.
    let mut threaded = (workers > 1).then(|| threaded_partials(view, &plan, workers).into_iter());
    let mut best = Best::default();
    for attr in 0..n_attrs {
        let partials: Vec<ShardPartial> = match threaded.as_mut() {
            Some(done) => done.by_ref().take(plan.n_shards()).flatten().collect(),
            None => plan
                .ranges()
                .map(|(lo, hi)| compute_shard_partial(view, attr, lo, hi))
                .collect(),
        };
        score_merged_attribute(
            view, attr, partials, metric, opts, pos_total, n_total, &mut best,
        );
    }
    if budget_depleted(opts) {
        // The budget fired somewhere in this call: discard the partial
        // scan so the result does not depend on where it fired.
        return None;
    }
    best.cand
}

/// Phase A on `workers` scoped threads. Workers claim `(attribute ×
/// shard)` tasks off a shared counter (task = attr * n_shards + shard)
/// and each slot is written by exactly one worker; the partials come back
/// in task order.
fn threaded_partials(
    view: &TaskView<'_>,
    plan: &ShardPlan,
    workers: usize,
) -> Vec<Option<ShardPartial>> {
    let tasks = view.data.n_attrs() * plan.n_shards();
    let slots: Vec<std::sync::Mutex<Option<ShardPartial>>> =
        (0..tasks).map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    // Workers race only over *which* slot they fill; phase B reduces each
    // attribute's shard partials in shard-index order and visits
    // attributes in ascending order on the calling thread, so the outcome
    // is bit-identical to the inline scan. det:merge(shard-index-order)
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let task = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if task >= tasks {
                    break;
                }
                let attr = task / plan.n_shards();
                let (lo, hi) = plan.bounds(task % plan.n_shards());
                let partial = compute_shard_partial(view, attr, lo, hi);
                // Poison recovery is sound: each slot is written by exactly
                // one worker, and a panicked worker re-panics at scope join.
                *slots[task]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(partial);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        })
        .collect()
}

/// Computes one attribute's statistics over the shard rows `[lo, hi)` —
/// positions into the view's row set (categorical) or sorted projection
/// (numeric); both orders are fixed by the view, so the accumulation below
/// is deterministic per shard.
fn compute_shard_partial(view: &TaskView<'_>, attr: usize, lo: usize, hi: usize) -> ShardPartial {
    match view.data.column(attr) {
        Column::Cat(_) => {
            let n_values = view.data.schema().attr(attr).dict.len();
            let mut pos = vec![0.0f64; n_values];
            let mut tot = vec![0.0f64; n_values];
            for &r in &view.rows.as_slice()[lo..hi] {
                let code = view.data.cat(attr, r as usize) as usize;
                let w = view.weights[r as usize];
                tot[code] += w;
                if view.is_pos[r as usize] {
                    pos[code] += w;
                }
            }
            ShardPartial::Cat { pos, tot }
        }
        Column::Num(_) => {
            // The view's own sorted projection: one pass over exactly the
            // shard's rows, no dataset-sized mask. Row order (ascending
            // value, ties by row id) matches a mask-filtered scan of the
            // global sort index.
            let sorted = view.projection(attr);
            ShardPartial::Num(shard_boundaries(view, attr, &sorted[lo..hi]))
        }
    }
}

/// Merges per-attribute shard partials (in shard-index order) and scores
/// the attribute's candidates into `best`. This is the only scoring entry
/// point, shared by the inline and threaded phase A.
#[allow(clippy::too_many_arguments)]
fn score_merged_attribute(
    view: &TaskView<'_>,
    attr: usize,
    partials: Vec<ShardPartial>,
    metric: EvalMetric,
    opts: &SearchOptions,
    pos_total: f64,
    n_total: f64,
    best: &mut Best,
) {
    match view.data.column(attr) {
        Column::Cat(_) => {
            let (pos, tot) = merge_cat_partials(partials);
            score_categorical(attr, &pos, &tot, metric, opts, pos_total, n_total, best);
        }
        Column::Num(_) => {
            let b = merge_num_partials(partials);
            score_numeric(attr, &b, metric, opts, pos_total, n_total, best);
        }
    }
}

/// Shard-index-order reduction of categorical partials: each code's
/// positive/total weight is an [`ordered_sum`] over the shards' local
/// sums, so the float-addition grouping is fixed by the plan alone. With a
/// single shard this is `0.0 + local`, bit-identical to the unsharded
/// counting pass.
fn merge_cat_partials(partials: Vec<ShardPartial>) -> (Vec<f64>, Vec<f64>) {
    let locals: Vec<(Vec<f64>, Vec<f64>)> = partials
        .into_iter()
        .filter_map(|p| match p {
            ShardPartial::Cat { pos, tot } => Some((pos, tot)),
            ShardPartial::Num(_) => None,
        })
        .collect();
    let n_values = locals.first().map_or(0, |(p, _)| p.len());
    let mut pos = vec![0.0f64; n_values];
    let mut tot = vec![0.0f64; n_values];
    for code in 0..n_values {
        // det:merge(shard-index-order) — `locals` preserves shard order
        pos[code] = ordered_sum(locals.iter().map(|(p, _)| p[code]));
        tot[code] = ordered_sum(locals.iter().map(|(_, t)| t[code]));
    }
    (pos, tot)
}

/// Shard-index-order reduction of numeric prefix partials. Each shard's
/// local prefix is offset by the running base — the left fold
/// [`ordered_sum`] performs, kept incremental so every shard is offset
/// exactly once — and a distinct value straddling a shard boundary
/// overwrites the previous entry, exactly as the unsharded prefix pass
/// overwrites repeated values. With a single shard the base is `0.0` and
/// the result is bit-identical to the unsharded scan.
fn merge_num_partials(partials: Vec<ShardPartial>) -> Boundaries {
    let locals: Vec<Boundaries> = partials
        .into_iter()
        .filter_map(|p| match p {
            ShardPartial::Num(b) => Some(b),
            ShardPartial::Cat { .. } => None,
        })
        .collect();
    let mut b = Boundaries {
        values: Vec::new(),
        cum_pos: Vec::new(),
        cum_tot: Vec::new(),
    };
    let mut base_pos = 0.0;
    let mut base_tot = 0.0;
    // det:merge(shard-index-order) — left fold over shards in index order
    for local in &locals {
        for i in 0..local.values.len() {
            let v = local.values[i];
            let cp = base_pos + local.cum_pos[i];
            let ct = base_tot + local.cum_tot[i];
            if b.values.last() == Some(&v) {
                let last = b.values.len() - 1;
                b.cum_pos[last] = cp;
                b.cum_tot[last] = ct;
            } else {
                b.values.push(v);
                b.cum_pos.push(cp);
                b.cum_tot.push(ct);
            }
        }
        if let (Some(&lp), Some(&lt)) = (local.cum_pos.last(), local.cum_tot.last()) {
            base_pos += lp; // lint:allow(unordered-float-sum) — shard-index-order left fold
            base_tot += lt; // lint:allow(unordered-float-sum) — shard-index-order left fold
        }
    }
    b
}

#[allow(clippy::too_many_arguments)]
fn score_categorical(
    attr: usize,
    pos: &[f64],
    tot: &[f64],
    metric: EvalMetric,
    opts: &SearchOptions,
    pos_total: f64,
    n_total: f64,
    best: &mut Best,
) {
    let n_values = tot.len();
    if n_values == 0 {
        return;
    }
    // One scored candidate per dictionary value.
    if !charge_candidates(opts, n_values) {
        return;
    }
    for code in 0..n_values {
        if approx::is_zero(tot[code]) || tot[code] < opts.min_support_weight {
            continue;
        }
        let stats = CovStats::new(pos[code], tot[code]);
        let score = metric.score(stats, pos_total, n_total);
        best.offer(
            Condition::CatEq {
                attr,
                value: pnr_data::index::to_u32(code, "dictionary code"),
            },
            stats,
            score,
        );
    }
}

/// Cumulative weights at each distinct-value boundary of a numeric attribute
/// restricted to a run of projection rows: `cum_pos[i]` / `cum_tot[i]` cover
/// all scanned rows with value ≤ `values[i]`. Built per shard by
/// [`shard_boundaries`] and reduced by [`merge_num_partials`].
struct Boundaries {
    values: Vec<f64>,
    cum_pos: Vec<f64>,
    cum_tot: Vec<f64>,
}

impl Boundaries {
    /// Threshold for a cut after boundary `i`: the midpoint between the
    /// boundary value and the next distinct value. Train-set coverage is
    /// identical to cutting at the value itself, but the midpoint
    /// generalises symmetrically to unseen records between the two training
    /// values.
    fn threshold(&self, i: usize) -> f64 {
        if i + 1 < self.values.len() {
            (self.values[i] + self.values[i + 1]) / 2.0
        } else {
            self.values[i]
        }
    }

    /// Lower bound for a range starting after boundary `i` (midpoint below).
    fn lower_threshold(&self, i: usize) -> f64 {
        self.threshold(i)
    }
    /// Coverage of the half-open interval `(values[lo_idx], values[hi_idx]]`;
    /// `lo_idx == None` means unbounded below.
    fn interval(&self, lo_idx: Option<usize>, hi_idx: usize) -> CovStats {
        let (lp, lt) = match lo_idx {
            Some(i) => (self.cum_pos[i], self.cum_tot[i]),
            None => (0.0, 0.0),
        };
        CovStats::new(self.cum_pos[hi_idx] - lp, self.cum_tot[hi_idx] - lt)
    }

    fn len(&self) -> usize {
        self.values.len()
    }
}

/// Builds one shard's local boundary prefix over `sorted`, a contiguous
/// slice of the view's sorted projection. The float accumulation runs in
/// slice order (ascending value, ties by row id) starting from zero, so a
/// whole-projection slice reproduces the historical unsharded pass exactly.
fn shard_boundaries(view: &TaskView<'_>, attr: usize, sorted: &[u32]) -> Boundaries {
    let mut b = Boundaries {
        values: Vec::new(),
        cum_pos: Vec::new(),
        cum_tot: Vec::new(),
    };
    let mut cum_pos = 0.0;
    let mut cum_tot = 0.0;
    for &r in sorted {
        let v = view.data.num(attr, r as usize);
        let w = view.weights[r as usize];
        cum_tot += w; // lint:allow(unordered-float-sum) — prefix sum in sorted-projection order
        if view.is_pos[r as usize] {
            cum_pos += w; // lint:allow(unordered-float-sum) — same ordered prefix pass
        }
        if b.values.last() == Some(&v) {
            let last = b.values.len() - 1;
            b.cum_pos[last] = cum_pos;
            b.cum_tot[last] = cum_tot;
        } else {
            b.values.push(v);
            b.cum_pos.push(cum_pos);
            b.cum_tot.push(cum_tot);
        }
    }
    b
}

#[allow(clippy::too_many_arguments)]
fn score_numeric(
    attr: usize,
    b: &Boundaries,
    metric: EvalMetric,
    opts: &SearchOptions,
    pos_total: f64,
    n_total: f64,
    best: &mut Best,
) {
    if b.len() < 2 {
        // A constant attribute offers no split.
        return;
    }
    // Two one-sided candidates per interior boundary.
    if !charge_candidates(opts, (b.len() - 1) * 2) {
        return;
    }
    // b.len() >= 2 was checked above, so the last boundary exists.
    let all = CovStats::new(b.cum_pos[b.len() - 1], b.cum_tot[b.len() - 1]);

    // One-sided scan. The last boundary is excluded for `≤` (covers all) and
    // for `>` (covers nothing).
    let mut best_le: Option<(usize, f64)> = None;
    let mut best_gt: Option<(usize, f64)> = None;
    for i in 0..b.len() - 1 {
        let le = b.interval(None, i);
        if le.total >= opts.min_support_weight {
            let s = metric.score(le, pos_total, n_total);
            if s.is_finite() && best_le.is_none_or(|(_, bs)| s > bs) {
                best_le = Some((i, s));
            }
        }
        let gt = CovStats::new(all.pos - le.pos, all.total - le.total);
        if gt.total >= opts.min_support_weight {
            let s = metric.score(gt, pos_total, n_total);
            if s.is_finite() && best_gt.is_none_or(|(_, bs)| s > bs) {
                best_gt = Some((i, s));
            }
        }
    }
    if let Some((i, s)) = best_le {
        best.offer(
            Condition::NumLe {
                attr,
                value: b.threshold(i),
            },
            b.interval(None, i),
            s,
        );
    }
    if let Some((i, s)) = best_gt {
        let le = b.interval(None, i);
        let stats = CovStats::new(all.pos - le.pos, all.total - le.total);
        best.offer(
            Condition::NumGt {
                attr,
                value: b.threshold(i),
            },
            stats,
            s,
        );
    }

    if !opts.use_ranges {
        return;
    }

    // Range scan: fix the better one-sided bound and sweep the other side.
    let (le_score, gt_score) = (
        best_le.map_or(f64::NEG_INFINITY, |(_, s)| s),
        best_gt.map_or(f64::NEG_INFINITY, |(_, s)| s),
    );
    if le_score == f64::NEG_INFINITY && gt_score == f64::NEG_INFINITY {
        return;
    }
    if gt_score >= le_score {
        // Best one-sided is `A > v_lo` (a finite gt_score implies the
        // candidate exists): fix lo, scan hi to the right.
        let Some((lo_idx, _)) = best_gt else { return };
        if !charge_candidates(opts, (b.len() - 1).saturating_sub(lo_idx + 1)) {
            return;
        }
        for hi_idx in lo_idx + 1..b.len() - 1 {
            let stats = b.interval(Some(lo_idx), hi_idx);
            if stats.total < opts.min_support_weight {
                continue;
            }
            let s = metric.score(stats, pos_total, n_total);
            best.offer(
                Condition::NumRange {
                    attr,
                    lo: b.lower_threshold(lo_idx),
                    hi: b.threshold(hi_idx),
                },
                stats,
                s,
            );
        }
    } else {
        // Best one-sided is `A ≤ v_hi` (a finite le_score implies the
        // candidate exists): fix hi, scan lo to the left.
        let Some((hi_idx, _)) = best_le else { return };
        if !charge_candidates(opts, hi_idx) {
            return;
        }
        for lo_idx in 0..hi_idx {
            let stats = b.interval(Some(lo_idx), hi_idx);
            if stats.total < opts.min_support_weight {
                continue;
            }
            let s = metric.score(stats, pos_total, n_total);
            best.offer(
                Condition::NumRange {
                    attr,
                    lo: b.lower_threshold(lo_idx),
                    hi: b.threshold(hi_idx),
                },
                stats,
                s,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_data::{AttrType, Dataset, DatasetBuilder, Value};

    fn numeric_data(values: &[(f64, bool)]) -> (Dataset, Vec<bool>) {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_class("pos");
        b.add_class("neg");
        for &(x, p) in values {
            b.push_row(&[Value::num(x)], if p { "pos" } else { "neg" }, 1.0)
                .unwrap();
        }
        let d = b.finish();
        let is_pos: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
        (d, is_pos)
    }

    #[test]
    fn one_sided_threshold_found_on_separable_data() {
        let (d, is_pos) = numeric_data(&[(1.0, true), (2.0, true), (3.0, false), (4.0, false)]);
        let v = TaskView::full(&d, &is_pos, d.weights());
        let best =
            find_best_condition(&v, EvalMetric::EntropyGain, &SearchOptions::default()).unwrap();
        // x ≤ 2 isolates the positives perfectly
        assert_eq!(best.stats.pos, 2.0);
        assert_eq!(best.stats.total, 2.0);
        match best.condition {
            // midpoint between the boundary value 2 and the next value 3
            Condition::NumLe { value, .. } => assert_eq!(value, 2.5),
            ref c => panic!("expected NumLe, got {c:?}"),
        }
    }

    #[test]
    fn range_condition_isolates_interior_peak() {
        // positives form an interior band: only a range isolates them in one step
        let rows: Vec<(f64, bool)> = (0..20).map(|i| (i as f64, (8..12).contains(&i))).collect();
        let (d, is_pos) = numeric_data(&rows);
        let v = TaskView::full(&d, &is_pos, d.weights());
        let best = find_best_condition(&v, EvalMetric::ZNumber, &SearchOptions::default()).unwrap();
        match best.condition {
            Condition::NumRange { lo, hi, .. } => {
                // midpoints between the boundary values and their neighbours
                assert_eq!(lo, 7.5);
                assert_eq!(hi, 11.5);
            }
            ref c => panic!("expected NumRange, got {c:?}"),
        }
        assert_eq!(best.stats.pos, 4.0);
        assert_eq!(best.stats.total, 4.0);
    }

    #[test]
    fn disabling_ranges_falls_back_to_one_sided() {
        let rows: Vec<(f64, bool)> = (0..20).map(|i| (i as f64, (8..12).contains(&i))).collect();
        let (d, is_pos) = numeric_data(&rows);
        let v = TaskView::full(&d, &is_pos, d.weights());
        let opts = SearchOptions {
            use_ranges: false,
            ..Default::default()
        };
        let best = find_best_condition(&v, EvalMetric::ZNumber, &opts).unwrap();
        assert!(
            matches!(
                best.condition,
                Condition::NumLe { .. } | Condition::NumGt { .. }
            ),
            "got {:?}",
            best.condition
        );
    }

    #[test]
    fn range_never_scores_worse_than_best_one_sided() {
        // On several random-ish configurations the returned best candidate
        // with ranges enabled must score >= the best without ranges.
        let patterns: Vec<Vec<(f64, bool)>> = vec![
            (0..30).map(|i| (i as f64 % 7.0, i % 3 == 0)).collect(),
            (0..30).map(|i| ((i * i % 13) as f64, i % 5 == 0)).collect(),
            (0..30).map(|i| (i as f64, i >= 25)).collect(),
        ];
        for rows in patterns {
            let (d, is_pos) = numeric_data(&rows);
            let v = TaskView::full(&d, &is_pos, d.weights());
            let with = find_best_condition(&v, EvalMetric::ZNumber, &SearchOptions::default());
            let without = find_best_condition(
                &v,
                EvalMetric::ZNumber,
                &SearchOptions {
                    use_ranges: false,
                    ..Default::default()
                },
            );
            match (with, without) {
                (Some(w), Some(wo)) => assert!(w.score >= wo.score - 1e-12),
                (None, Some(_)) => panic!("range search lost candidates"),
                _ => {}
            }
        }
    }

    #[test]
    fn categorical_value_selected() {
        let mut b = DatasetBuilder::new();
        b.add_attribute("k", AttrType::Categorical);
        b.add_class("pos");
        b.add_class("neg");
        for (k, c) in [
            ("a", "pos"),
            ("a", "pos"),
            ("b", "neg"),
            ("c", "neg"),
            ("a", "neg"),
        ] {
            b.push_row(&[Value::cat(k)], c, 1.0).unwrap();
        }
        let d = b.finish();
        let is_pos: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
        let v = TaskView::full(&d, &is_pos, d.weights());
        let best = find_best_condition(&v, EvalMetric::ZNumber, &SearchOptions::default()).unwrap();
        match best.condition {
            Condition::CatEq { attr: 0, value } => {
                assert_eq!(d.schema().attr(0).dict.name(value), "a")
            }
            ref c => panic!("expected CatEq, got {c:?}"),
        }
        assert_eq!(best.stats.pos, 2.0);
        assert_eq!(best.stats.total, 3.0);
    }

    #[test]
    fn min_support_filters_small_candidates() {
        let (d, is_pos) = numeric_data(&[
            (1.0, true),
            (2.0, false),
            (2.0, false),
            (3.0, false),
            (3.0, true),
            (4.0, false),
        ]);
        let v = TaskView::full(&d, &is_pos, d.weights());
        let opts = SearchOptions {
            min_support_weight: 3.0,
            ..Default::default()
        };
        let best = find_best_condition(&v, EvalMetric::ZNumber, &opts);
        if let Some(c) = best {
            assert!(
                c.stats.total >= 3.0,
                "support {} below floor",
                c.stats.total
            );
        }
    }

    #[test]
    fn constant_attribute_yields_no_candidate() {
        let (d, is_pos) = numeric_data(&[(5.0, true), (5.0, false), (5.0, false)]);
        let v = TaskView::full(&d, &is_pos, d.weights());
        assert!(find_best_condition(&v, EvalMetric::ZNumber, &SearchOptions::default()).is_none());
    }

    #[test]
    fn empty_view_yields_none() {
        let (d, is_pos) = numeric_data(&[(1.0, true)]);
        let v = TaskView::over(&d, pnr_data::RowSet::empty(), &is_pos, d.weights());
        assert!(find_best_condition(&v, EvalMetric::ZNumber, &SearchOptions::default()).is_none());
    }

    #[test]
    fn weighted_rows_shift_the_chosen_threshold() {
        // One heavy positive at x=10 outweighs several unit negatives.
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_class("pos");
        b.add_class("neg");
        b.push_row(&[Value::num(10.0)], "pos", 50.0).unwrap();
        for i in 0..5 {
            b.push_row(&[Value::num(i as f64)], "neg", 1.0).unwrap();
        }
        let d = b.finish();
        let is_pos: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
        let v = TaskView::full(&d, &is_pos, d.weights());
        let best = find_best_condition(&v, EvalMetric::ZNumber, &SearchOptions::default()).unwrap();
        assert_eq!(best.stats.pos, 50.0);
        assert_eq!(best.stats.neg(), 0.0);
    }

    #[test]
    fn brute_force_agreement_one_sided() {
        // Exhaustively verify the scan equals brute-force enumeration of all
        // one-sided conditions on a small dataset.
        let rows: Vec<(f64, bool)> = (0..15).map(|i| ((i % 5) as f64, i % 4 == 0)).collect();
        let (d, is_pos) = numeric_data(&rows);
        let v = TaskView::full(&d, &is_pos, d.weights());
        let opts = SearchOptions {
            use_ranges: false,
            ..Default::default()
        };
        let got = find_best_condition(&v, EvalMetric::EntropyGain, &opts).unwrap();

        let mut want = f64::NEG_INFINITY;
        for t in 0..5 {
            for cond in [
                Condition::NumLe {
                    attr: 0,
                    value: t as f64,
                },
                Condition::NumGt {
                    attr: 0,
                    value: t as f64,
                },
            ] {
                let stats = v.coverage(&crate::rule::Rule::new(vec![cond]));
                if stats.total > 0.0 && stats.total < v.total_weight() {
                    let s = EvalMetric::EntropyGain.score(stats, v.pos_weight(), v.total_weight());
                    want = want.max(s);
                }
            }
        }
        assert!(
            (got.score - want).abs() < 1e-12,
            "scan {} vs brute {}",
            got.score,
            want
        );
    }

    #[test]
    fn brute_force_agreement_with_ranges_on_restricted_view() {
        // The range scan on a *derived* view (its boundaries come from the
        // chained sorted projection, not a full-dataset scan): the winner's
        // stats must equal its re-computed coverage, its score must beat
        // every one-sided condition, and it can never exceed the global
        // optimum over all (lo, hi] ranges.
        let rows: Vec<(f64, bool)> = (0..40)
            .map(|i| ((i % 8) as f64, (3..6).contains(&(i % 8))))
            .collect();
        let (d, is_pos) = numeric_data(&rows);
        let full = TaskView::full(&d, &is_pos, d.weights());
        let v = full.restricted_to(full.rows.filter(|r| r % 3 != 1));
        let metric = EvalMetric::ZNumber;
        let got = find_best_condition(&v, metric, &SearchOptions::default()).unwrap();

        let re_cov = v.coverage(&crate::rule::Rule::new(vec![got.condition.clone()]));
        assert_eq!(
            got.stats, re_cov,
            "stats must match coverage on the restricted view"
        );
        assert!((got.score - metric.score(re_cov, v.pos_weight(), v.total_weight())).abs() < 1e-12);

        let mut one_sided = f64::NEG_INFINITY;
        let mut all_ranges = f64::NEG_INFINITY;
        let values: Vec<f64> = (0..8).map(|t| t as f64).collect();
        for (i, &t) in values.iter().enumerate() {
            for cond in [
                Condition::NumLe { attr: 0, value: t },
                Condition::NumGt { attr: 0, value: t },
            ] {
                let c = v.coverage(&crate::rule::Rule::new(vec![cond]));
                if c.total > 0.0 && c.total < v.total_weight() {
                    one_sided = one_sided.max(metric.score(c, v.pos_weight(), v.total_weight()));
                }
            }
            for &hi in &values[i + 1..] {
                let c = v.coverage(&crate::rule::Rule::new(vec![Condition::NumRange {
                    attr: 0,
                    lo: t,
                    hi,
                }]));
                if c.total > 0.0 {
                    all_ranges = all_ranges.max(metric.score(c, v.pos_weight(), v.total_weight()));
                }
            }
        }
        assert!(
            got.score >= one_sided - 1e-12,
            "range scan lost to a one-sided cut"
        );
        assert!(
            got.score <= all_ranges + 1e-12,
            "scored above the global range optimum"
        );
    }

    #[test]
    fn tiny_candidate_budget_aborts_the_search() {
        let rows: Vec<(f64, bool)> = (0..20).map(|i| (i as f64, (8..12).contains(&i))).collect();
        let (d, is_pos) = numeric_data(&rows);
        let v = TaskView::full(&d, &is_pos, d.weights());
        let tracker = crate::budget::FitBudget {
            max_candidates: Some(1),
            ..Default::default()
        }
        .start()
        .map(std::sync::Arc::new);
        let opts = SearchOptions {
            budget: tracker.clone(),
            ..Default::default()
        };
        assert!(find_best_condition(&v, EvalMetric::ZNumber, &opts).is_none());
        assert!(tracker.unwrap().is_exhausted());
        // A later call against the latched tracker also returns None.
        assert!(find_best_condition(&v, EvalMetric::ZNumber, &opts).is_none());
    }

    #[test]
    fn ample_candidate_budget_matches_unbudgeted_search() {
        let rows: Vec<(f64, bool)> = (0..20).map(|i| (i as f64, (8..12).contains(&i))).collect();
        let (d, is_pos) = numeric_data(&rows);
        let v = TaskView::full(&d, &is_pos, d.weights());
        let tracker = crate::budget::FitBudget {
            max_candidates: Some(1_000_000),
            ..Default::default()
        }
        .start()
        .map(std::sync::Arc::new);
        let opts = SearchOptions {
            budget: tracker.clone(),
            ..Default::default()
        };
        let budgeted = find_best_condition(&v, EvalMetric::ZNumber, &opts).unwrap();
        let free = find_best_condition(&v, EvalMetric::ZNumber, &SearchOptions::default()).unwrap();
        assert_eq!(budgeted.condition, free.condition);
        assert_eq!(budgeted.score.to_bits(), free.score.to_bits());
        let tracker = tracker.unwrap();
        assert!(!tracker.is_exhausted());
        assert!(tracker.candidates_charged() > 0);
    }

    #[test]
    fn expired_deadline_returns_none_without_scanning() {
        let rows: Vec<(f64, bool)> = (0..20).map(|i| (i as f64, i % 2 == 0)).collect();
        let (d, is_pos) = numeric_data(&rows);
        let v = TaskView::full(&d, &is_pos, d.weights());
        let tracker = crate::budget::FitBudget {
            wall_clock_secs: Some(0.0),
            ..Default::default()
        }
        .start()
        .map(std::sync::Arc::new);
        let opts = SearchOptions {
            budget: tracker.clone(),
            ..Default::default()
        };
        assert!(find_best_condition(&v, EvalMetric::ZNumber, &opts).is_none());
        let tracker = tracker.unwrap();
        assert!(tracker.is_exhausted());
        assert_eq!(tracker.candidates_charged(), 0);
    }

    /// A mixed-type dataset for the parallel/sharded identity tests.
    fn mixed_data() -> (Dataset, Vec<bool>) {
        let rows: Vec<(f64, bool)> = (0..60)
            .map(|i| (((i * 7) % 13) as f64, i % 4 == 0))
            .collect();
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("y", AttrType::Numeric);
        b.add_attribute("k", AttrType::Categorical);
        b.add_class("pos");
        b.add_class("neg");
        for (i, &(x, p)) in rows.iter().enumerate() {
            let k = ["a", "b", "c"][i % 3];
            b.push_row(
                &[Value::num(x), Value::num((i % 5) as f64), Value::cat(k)],
                if p { "pos" } else { "neg" },
                1.0 + (i % 3) as f64 * 0.25,
            )
            .unwrap();
        }
        let d = b.finish();
        let is_pos: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
        (d, is_pos)
    }

    #[test]
    fn threaded_search_matches_inline_search() {
        let (d, is_pos) = mixed_data();
        let v = TaskView::full(&d, &is_pos, d.weights());
        for metric in [
            EvalMetric::ZNumber,
            EvalMetric::FoilGain,
            EvalMetric::Laplace,
        ] {
            let par = SearchOptions {
                max_workers: Some(4),
                ..Default::default()
            };
            let seq = SearchOptions {
                max_workers: Some(1),
                ..Default::default()
            };
            let g = find_best_condition(&v, metric, &par).unwrap();
            let s = find_best_condition(&v, metric, &seq).unwrap();
            assert_eq!(g.condition, s.condition, "{metric:?}");
            assert_eq!(g.score.to_bits(), s.score.to_bits(), "{metric:?}");
            assert_eq!(g.stats, s.stats, "{metric:?}");
        }
    }

    #[test]
    fn row_sharded_threaded_matches_row_sharded_inline() {
        // For every shard count, the threaded (attr × shard) scan must be
        // bit-identical to the inline scan over the *same* plan, even
        // with non-unit weights.
        let (d, is_pos) = mixed_data();
        let v = TaskView::full(&d, &is_pos, d.weights());
        for shards in [1usize, 2, 3, 7, 60, 200] {
            let par = SearchOptions {
                max_workers: Some(4),
                row_shards: Some(shards),
                ..Default::default()
            };
            let seq = SearchOptions {
                max_workers: Some(1),
                row_shards: Some(shards),
                ..Default::default()
            };
            let g = find_best_condition(&v, EvalMetric::ZNumber, &par).unwrap();
            let s = find_best_condition(&v, EvalMetric::ZNumber, &seq).unwrap();
            assert_eq!(g.condition, s.condition, "shards={shards}");
            assert_eq!(g.score.to_bits(), s.score.to_bits(), "shards={shards}");
            assert_eq!(g.stats, s.stats, "shards={shards}");
        }
    }

    #[test]
    fn unit_weight_shard_sweep_is_bit_identical_to_unsharded() {
        // With unit weights every partial sum is a small integer, exact in
        // f64 under any grouping — so even *different* shard counts agree
        // bitwise. This is the invariant the determinism harness and the
        // training bench's bit-identity gate rely on.
        let rows: Vec<(f64, bool)> = (0..80)
            .map(|i| (((i * 11) % 17) as f64, i % 5 == 0))
            .collect();
        let (d, is_pos) = numeric_data(&rows);
        let v = TaskView::full(&d, &is_pos, d.weights());
        let baseline =
            find_best_condition(&v, EvalMetric::ZNumber, &SearchOptions::default()).unwrap();
        for shards in [2usize, 3, 8, 80] {
            let opts = SearchOptions {
                row_shards: Some(shards),
                ..Default::default()
            };
            let got = find_best_condition(&v, EvalMetric::ZNumber, &opts).unwrap();
            assert_eq!(got.condition, baseline.condition, "shards={shards}");
            assert_eq!(
                got.score.to_bits(),
                baseline.score.to_bits(),
                "shards={shards}"
            );
            assert_eq!(got.stats, baseline.stats, "shards={shards}");
        }
    }

    #[test]
    fn parallel_search_telemetry_records_worker_policy() {
        let (d, is_pos) = mixed_data();
        let v = TaskView::full(&d, &is_pos, d.weights());
        let sink = std::sync::Arc::new(pnr_telemetry::RecordingSink::new());
        let opts = SearchOptions {
            max_workers: Some(4),
            sink: sink.clone(),
            ..Default::default()
        };
        find_best_condition(&v, EvalMetric::ZNumber, &opts).unwrap();
        let calls = sink.value(Counter::ParallelSearchCalls);
        let threads = sink.value(Counter::SearchWorkerThreads);
        assert_eq!(calls, 1, "one threaded search");
        assert!(threads >= 2, "forced path spawns at least two workers");
        // Inline scans record no worker policy.
        let seq_sink = std::sync::Arc::new(pnr_telemetry::RecordingSink::new());
        let seq = SearchOptions {
            max_workers: Some(1),
            sink: seq_sink.clone(),
            ..Default::default()
        };
        find_best_condition(&v, EvalMetric::ZNumber, &seq).unwrap();
        assert_eq!(seq_sink.value(Counter::ParallelSearchCalls), 0);
        assert_eq!(seq_sink.value(Counter::SearchWorkerThreads), 0);
    }
}
