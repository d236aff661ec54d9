//! Property-based tests for rule machinery: coverage, search optimality,
//! metric invariants.

use pnr_data::{AttrType, Dataset, DatasetBuilder, Value};
use pnr_rules::{
    find_best_condition, CandidateCondition, Condition, CovStats, EvalMetric, Rule, SearchOptions,
    TaskView,
};
use proptest::prelude::*;

const ALL_METRICS: [EvalMetric; 7] = [
    EvalMetric::ZNumber,
    EvalMetric::FoilGain,
    EvalMetric::EntropyGain,
    EvalMetric::GainRatio,
    EvalMetric::GiniGain,
    EvalMetric::ChiSquared,
    EvalMetric::Laplace,
];

/// Re-creates the search's candidate ordering by brute force: every
/// condition's coverage is computed row-by-row with [`TaskView::coverage`],
/// candidates are offered in the scan's order (attributes ascending;
/// categorical codes ascending; `≤` cuts left-to-right, then `>` cuts, then
/// the fixed-side range sweep) and ties resolve to the first best — so on
/// unit-weight data the result must be *identical* to the scan's, condition
/// and all.
fn brute_force_best(
    view: &TaskView<'_>,
    metric: EvalMetric,
    opts: &SearchOptions,
) -> Option<CandidateCondition> {
    let (pos_total, n_total) = opts
        .context
        .unwrap_or_else(|| (view.pos_weight(), view.total_weight()));
    let mut best: Option<CandidateCondition> = None;
    let mut offer = |condition: Condition, stats: CovStats, score: f64| {
        if score.is_finite() && best.as_ref().is_none_or(|b| score > b.score) {
            best = Some(CandidateCondition {
                condition,
                stats,
                score,
            });
        }
    };
    for attr in 0..view.data.n_attrs() {
        match view.data.schema().attr(attr).ty {
            AttrType::Categorical => {
                for code in 0..view.data.schema().attr(attr).dict.len() as u32 {
                    let cond = Condition::CatEq { attr, value: code };
                    let stats = view.coverage(&Rule::new(vec![cond.clone()]));
                    if stats.total == 0.0 || stats.total < opts.min_support_weight {
                        continue;
                    }
                    offer(cond, stats, metric.score(stats, pos_total, n_total));
                }
            }
            AttrType::Numeric => {
                // Distinct values present in the view, ascending.
                let mut values: Vec<f64> = view
                    .rows
                    .iter()
                    .map(|r| view.data.num(attr, r as usize))
                    .collect();
                values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                values.dedup();
                if values.len() < 2 {
                    continue;
                }
                let threshold = |i: usize| {
                    if i + 1 < values.len() {
                        (values[i] + values[i + 1]) / 2.0
                    } else {
                        values[i]
                    }
                };
                let eval = |cond: &Condition| {
                    let stats = view.coverage(&Rule::new(vec![cond.clone()]));
                    let score = if stats.total >= opts.min_support_weight {
                        metric.score(stats, pos_total, n_total)
                    } else {
                        f64::NEG_INFINITY
                    };
                    (stats, score)
                };
                // One-sided cuts, each side scanned left to right with
                // first-best-wins, as in the scan.
                let mut best_le: Option<(usize, f64)> = None;
                let mut best_gt: Option<(usize, f64)> = None;
                for i in 0..values.len() - 1 {
                    let (_, s) = eval(&Condition::NumLe {
                        attr,
                        value: threshold(i),
                    });
                    if s.is_finite() && best_le.is_none_or(|(_, bs)| s > bs) {
                        best_le = Some((i, s));
                    }
                    let (_, s) = eval(&Condition::NumGt {
                        attr,
                        value: threshold(i),
                    });
                    if s.is_finite() && best_gt.is_none_or(|(_, bs)| s > bs) {
                        best_gt = Some((i, s));
                    }
                }
                if let Some((i, s)) = best_le {
                    let cond = Condition::NumLe {
                        attr,
                        value: threshold(i),
                    };
                    let (stats, _) = eval(&cond);
                    offer(cond, stats, s);
                }
                if let Some((i, s)) = best_gt {
                    let cond = Condition::NumGt {
                        attr,
                        value: threshold(i),
                    };
                    let (stats, _) = eval(&cond);
                    offer(cond, stats, s);
                }
                if !opts.use_ranges {
                    continue;
                }
                // The paper's range heuristic: fix the better one-sided
                // bound, sweep the other side.
                let (le_s, gt_s) = (
                    best_le.map_or(f64::NEG_INFINITY, |(_, s)| s),
                    best_gt.map_or(f64::NEG_INFINITY, |(_, s)| s),
                );
                if le_s == f64::NEG_INFINITY && gt_s == f64::NEG_INFINITY {
                    continue;
                }
                if gt_s >= le_s {
                    let (lo_idx, _) = best_gt.expect("finite gt implies candidate");
                    for hi_idx in lo_idx + 1..values.len() - 1 {
                        let cond = Condition::NumRange {
                            attr,
                            lo: threshold(lo_idx),
                            hi: threshold(hi_idx),
                        };
                        let (stats, s) = eval(&cond);
                        if stats.total < opts.min_support_weight {
                            continue;
                        }
                        offer(cond, stats, s);
                    }
                } else {
                    let (hi_idx, _) = best_le.expect("finite le implies candidate");
                    for lo_idx in 0..hi_idx {
                        let cond = Condition::NumRange {
                            attr,
                            lo: threshold(lo_idx),
                            hi: threshold(hi_idx),
                        };
                        let (stats, s) = eval(&cond);
                        if stats.total < opts.min_support_weight {
                            continue;
                        }
                        offer(cond, stats, s);
                    }
                }
            }
        }
    }
    best
}

/// A small mixed dataset from generated rows.
fn build(rows: &[(f64, usize, bool)]) -> (Dataset, Vec<bool>) {
    let cats = ["a", "b", "c"];
    let mut b = DatasetBuilder::new();
    b.add_attribute("x", AttrType::Numeric);
    b.add_attribute("k", AttrType::Categorical);
    b.add_class("pos");
    b.add_class("neg");
    for &(x, k, pos) in rows {
        b.push_row(
            &[Value::num(x), Value::cat(cats[k])],
            if pos { "pos" } else { "neg" },
            1.0,
        )
        .unwrap();
    }
    let d = b.finish();
    let flags: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
    (d, flags)
}

fn rows_strategy() -> impl Strategy<Value = Vec<(f64, usize, bool)>> {
    prop::collection::vec((-50.0f64..50.0, 0usize..3, prop::bool::ANY), 4..80)
}

proptest! {
    #[test]
    fn coverage_matches_brute_force(rows in rows_strategy(), t in -50.0f64..50.0) {
        let (d, flags) = build(&rows);
        let v = TaskView::full(&d, &flags, d.weights());
        let rule = Rule::new(vec![Condition::NumLe { attr: 0, value: t }]);
        let c = v.coverage(&rule);
        let brute_pos = rows.iter().filter(|&&(x, _, p)| x <= t && p).count() as f64;
        let brute_tot = rows.iter().filter(|&&(x, _, _)| x <= t).count() as f64;
        prop_assert!((c.pos - brute_pos).abs() < 1e-9);
        prop_assert!((c.total - brute_tot).abs() < 1e-9);
    }

    #[test]
    fn search_result_is_never_beaten_by_any_single_condition(rows in rows_strategy()) {
        let (d, flags) = build(&rows);
        let v = TaskView::full(&d, &flags, d.weights());
        let metric = EvalMetric::EntropyGain;
        let Some(best) = find_best_condition(&v, metric, &SearchOptions::default()) else {
            return Ok(());
        };
        // brute force every categorical value and every one-sided cut at
        // occurring values (the scan uses midpoints, which give identical
        // train coverage and hence identical scores)
        let mut best_brute = f64::NEG_INFINITY;
        for code in 0..3u32 {
            let c = v.coverage(&Rule::new(vec![Condition::CatEq { attr: 1, value: code }]));
            if c.total > 0.0 {
                best_brute = best_brute.max(metric.score(c, v.pos_weight(), v.total_weight()));
            }
        }
        for &(x, _, _) in &rows {
            for cond in [
                Condition::NumLe { attr: 0, value: x },
                Condition::NumGt { attr: 0, value: x },
            ] {
                let c = v.coverage(&Rule::new(vec![cond]));
                if c.total > 0.0 && c.total < v.total_weight() {
                    best_brute =
                        best_brute.max(metric.score(c, v.pos_weight(), v.total_weight()));
                }
            }
        }
        prop_assert!(
            best.score + 1e-9 >= best_brute,
            "search {} < brute {}",
            best.score,
            best_brute
        );
    }

    #[test]
    fn range_search_dominates_one_sided(rows in rows_strategy()) {
        let (d, flags) = build(&rows);
        let v = TaskView::full(&d, &flags, d.weights());
        let with = find_best_condition(&v, EvalMetric::ZNumber, &SearchOptions::default());
        let without = find_best_condition(
            &v,
            EvalMetric::ZNumber,
            &SearchOptions { use_ranges: false, ..Default::default() },
        );
        match (with, without) {
            (Some(w), Some(wo)) => prop_assert!(w.score + 1e-9 >= wo.score),
            (None, Some(_)) => prop_assert!(false, "ranges lost a candidate"),
            _ => {}
        }
    }

    #[test]
    fn rule_matching_is_conjunction(rows in rows_strategy(), t1 in -50.0f64..50.0, t2 in -50.0f64..50.0) {
        let (d, _) = build(&rows);
        let c1 = Condition::NumGt { attr: 0, value: t1 };
        let c2 = Condition::NumLe { attr: 0, value: t2 };
        let rule = Rule::new(vec![c1.clone(), c2.clone()]);
        for row in 0..d.n_rows() {
            prop_assert_eq!(
                rule.matches(&d, row),
                c1.matches(&d, row) && c2.matches(&d, row)
            );
        }
    }

    #[test]
    fn range_equals_two_sided_conjunction(rows in rows_strategy(), lo in -50.0f64..0.0, width in 0.0f64..50.0) {
        let (d, _) = build(&rows);
        let hi = lo + width;
        let range = Condition::NumRange { attr: 0, lo, hi };
        let pair = Rule::new(vec![
            Condition::NumGt { attr: 0, value: lo },
            Condition::NumLe { attr: 0, value: hi },
        ]);
        for row in 0..d.n_rows() {
            prop_assert_eq!(range.matches(&d, row), pair.matches(&d, row));
        }
    }

    #[test]
    fn z_number_sign_tracks_prior(pos in 0.0f64..100.0, extra in 0.0f64..100.0,
                                  pos_total in 1.0f64..1000.0, extra_total in 1.0f64..10000.0) {
        let c = CovStats::new(pos, pos + extra);
        let n_total = pos_total + extra_total;
        let z = pnr_rules::stats::z_number(c, pos_total, n_total);
        if c.total > 0.0 {
            let prior = pos_total / n_total;
            if c.accuracy() > prior {
                prop_assert!(z > 0.0);
            } else if c.accuracy() < prior {
                prop_assert!(z < 0.0);
            }
        }
    }

    #[test]
    fn entropy_gain_nonnegative(pos in 0.0f64..100.0, extra in 0.0f64..100.0,
                                rest_pos in 0.0f64..100.0, rest_neg in 0.0f64..100.0) {
        let c = CovStats::new(pos, pos + extra);
        let pos_total = pos + rest_pos;
        let n_total = pos + extra + rest_pos + rest_neg;
        if n_total > 0.0 && c.total > 0.0 {
            let g = pnr_rules::stats::entropy_gain(c, pos_total, n_total);
            prop_assert!(g >= -1e-9, "gain {g}");
        }
    }

    #[test]
    fn search_equals_brute_force_on_restricted_views(
        rows in rows_strategy(),
        midx in 0usize..ALL_METRICS.len(),
        mask_seed in proptest::prelude::any::<u64>(),
        use_ranges in proptest::bool::ANY,
    ) {
        let (d, flags) = build(&rows);
        let metric = ALL_METRICS[midx];
        let full = TaskView::full(&d, &flags, d.weights());
        // A pseudo-random restriction plus a second-level restriction, so
        // the view's sorted projections exercise the parent-chain path.
        let keep = |salt: u64, r: u32| {
            (mask_seed ^ salt)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(u64::from(r).wrapping_mul(1442695040888963407))
                .count_ones()
                % 2
                == 0
        };
        let once = full.restricted_to(full.rows.filter(|r| keep(1, r)));
        let twice = once.restricted_to(once.rows.filter(|r| keep(2, r)));
        for (view, workers) in [&full, &once, &twice].into_iter().flat_map(|v| [(v, 1), (v, 4)]) {
            let opts = SearchOptions { use_ranges, max_workers: Some(workers), ..Default::default() };
            let got = find_best_condition(view, metric, &opts);
            let want = brute_force_best(view, metric, &opts);
            match (got, want) {
                (None, None) => {}
                (Some(g), Some(w)) => {
                    prop_assert_eq!(&g.condition, &w.condition,
                        "metric {:?} view {} rows, {} workers", metric, view.n_rows(), workers);
                    prop_assert_eq!(g.stats, w.stats);
                    prop_assert_eq!(g.score.to_bits(), w.score.to_bits(),
                        "scores {} vs {}", g.score, w.score);
                }
                (g, w) => prop_assert!(false, "scan {g:?} vs brute {w:?}"),
            }
        }
    }

    /// The threaded search (`max_workers: Some(4)`) agrees bit for bit
    /// with the inline one (`Some(1)`) across all metrics, the full view
    /// and two chained restricted views, under random non-unit weights.
    #[test]
    fn threaded_search_is_bit_identical_to_inline(
        rows in rows_strategy(),
        weights in prop::collection::vec(0.1f64..10.0, 80),
        midx in 0usize..ALL_METRICS.len(),
        mask_seed in proptest::prelude::any::<u64>(),
    ) {
        let (d, flags) = build(&rows);
        let w: Vec<f64> = (0..d.n_rows()).map(|r| weights[r % weights.len()]).collect();
        let metric = ALL_METRICS[midx];
        // An explicit cap above one forces worker threads even on tiny views
        let par = SearchOptions { max_workers: Some(4), ..Default::default() };
        let seq = SearchOptions { max_workers: Some(1), ..Default::default() };
        let full = TaskView::full(&d, &flags, &w);
        // A pseudo-random row mask, deterministic in `(mask_seed, salt, row)`.
        let keep = |salt: u64| {
            move |r: u32| {
                (mask_seed ^ salt)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(u64::from(r).wrapping_mul(1442695040888963407))
                    .count_ones()
                    % 2
                    == 0
            }
        };
        // A view restricted once, and a view restricted from that one, as
        // rule growth chains them.
        let once = full.restricted_to(full.rows.filter(keep(0)));
        let twice = once.restricted_to(once.rows.filter(keep(2)));
        for view in [&full, &once, &twice] {
            let got = find_best_condition(view, metric, &par);
            let want = find_best_condition(view, metric, &seq);
            match (got, want) {
                (None, None) => {}
                (Some(g), Some(s)) => {
                    prop_assert_eq!(&g.condition, &s.condition);
                    prop_assert_eq!(g.stats.pos.to_bits(), s.stats.pos.to_bits());
                    prop_assert_eq!(g.stats.total.to_bits(), s.stats.total.to_bits());
                    prop_assert_eq!(g.score.to_bits(), s.score.to_bits());
                }
                (g, s) => prop_assert!(false, "threaded {g:?} vs inline {s:?}"),
            }
        }
    }

    #[test]
    fn task_view_without_then_weights_consistent(rows in rows_strategy(), t in -50.0f64..50.0) {
        let (d, flags) = build(&rows);
        let v = TaskView::full(&d, &flags, d.weights());
        let covered = v.rows_matching(&Condition::NumLe { attr: 0, value: t });
        let rest = v.without(&covered);
        prop_assert!((rest.total_weight() + covered.total_weight(d.weights())
            - v.total_weight()).abs() < 1e-9);
        prop_assert_eq!(rest.n_rows() + covered.len(), v.n_rows());
    }
}

/// Attribute values for the projection property: heavy ties, and `-0.0`
/// beside `0.0`, which compare equal but which `f64::total_cmp` orders.
const TIED_VALUES: [f64; 6] = [-2.5, -1.0, -0.0, 0.0, 0.5, 3.0];

/// The view's rows stably sorted by `f64::total_cmp` on attribute `attr`:
/// ascending value, ties in ascending row id.
fn sorted_by_value(d: &Dataset, attr: usize, rows: &[u32]) -> Vec<u32> {
    let mut out = rows.to_vec();
    out.sort_by(|&a, &b| d.num(attr, a as usize).total_cmp(&d.num(attr, b as usize)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every sorted-projection build path equals a brute-force stable sort:
    /// projections derived along `restricted_to`/`without` chains (from a
    /// materialised ancestor, past unmaterialised ones, or from the
    /// dataset), both `Dataset::sorted_projection` paths, and the shared
    /// sort index of a view over every row. Datasets reach 300 rows, so
    /// row ids fall on both sides of the bitmap's 64-bit words.
    #[test]
    fn projections_match_a_stable_sort_along_view_chains(
        rows in prop::collection::vec((0usize..6, 0usize..6, prop::bool::ANY), 1..301),
        root_mat in 0usize..4,
        steps in prop::collection::vec((prop::bool::ANY, any::<u64>(), 0usize..4), 0..7),
    ) {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("y", AttrType::Numeric);
        for &(x, y, pos) in &rows {
            b.push_row(
                &[Value::num(TIED_VALUES[x]), Value::num(TIED_VALUES[y])],
                if pos { "pos" } else { "neg" },
                1.0,
            )
            .unwrap();
        }
        let d = b.finish();
        let flags: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
        let n = d.n_rows();
        let all: Vec<u32> = (0..n as u32).collect();
        for attr in 0..2 {
            // Both `sorted_projection` paths: a single row sorts directly;
            // every row but one (from three rows up) filters the index.
            for subset in [&all[..1], &all[1..]] {
                prop_assert_eq!(
                    &*d.sorted_projection(attr, subset),
                    &sorted_by_value(&d, attr, subset)
                );
            }
            // Every row: the cached index, shared rather than copied.
            let shared = d.sorted_projection(attr, &all);
            prop_assert_eq!(&*shared, &sorted_by_value(&d, attr, &all));
            prop_assert!(std::sync::Arc::ptr_eq(&shared, &d.sorted_projection(attr, &all)));
        }

        // A random chain of derived views; `mat` bit `attr` materialises
        // that attribute's projection as the view is made, so later views
        // derive from the nearest materialised ancestor or the dataset.
        let mut views = vec![(TaskView::full(&d, &flags, d.weights()), root_mat)];
        for &(restrict, salt, mat) in &steps {
            let parent = &views.last().expect("the root view").0;
            let keep = |r: u32| {
                salt.wrapping_add(u64::from(r))
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(29)
                    % 3
                    != 0
            };
            let child = if restrict {
                parent.restricted_to(parent.rows.filter(keep))
            } else {
                parent.without(&parent.rows.filter(|r| !keep(r)))
            };
            views.push((child, mat));
            let (view, mat) = views.last().expect("just pushed");
            for attr in (0..2).filter(|a| mat >> a & 1 == 1) {
                prop_assert_eq!(
                    &*view.projection(attr),
                    &sorted_by_value(&d, attr, view.rows.as_slice())
                );
            }
        }
        if root_mat & 1 == 1 {
            prop_assert!(std::sync::Arc::ptr_eq(&views[0].0.projection(0), &d.sorted_projection(0, &all)));
        }
        // Leaf first, so unmaterialised ancestors stay unmaterialised.
        for (view, _) in views.iter().rev() {
            for attr in 0..2 {
                let want = sorted_by_value(&d, attr, view.rows.as_slice());
                prop_assert_eq!(&*view.projection(attr), &want);
                prop_assert_eq!(&*d.sorted_projection(attr, view.rows.as_slice()), &want);
            }
        }
    }
}
