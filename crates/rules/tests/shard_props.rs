//! Property suite pinning bit-identity of the row-sharded condition
//! search: for any shard count, metric, restricted view and weight
//! assignment, the threaded `(attribute × shard)` scan (`max_workers:
//! Some(4)`) must agree bit-for-bit with the inline scan (`max_workers:
//! Some(1)`) over the *same* shard plan, and a one-shard plan must
//! reproduce the legacy unsharded scan exactly. Mirrors the
//! attribute-parallel property tests in `props.rs`.

use pnr_data::{AttrType, Dataset, DatasetBuilder, Value};
use pnr_rules::{find_best_condition, EvalMetric, SearchOptions, ShardPlan, TaskView};
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

/// The pseudo-random row mask shared with `props.rs`: deterministic in
/// `(seed, row)` so restricted views are reproducible per proptest case.
fn keep(seed: u64, salt: u64, r: u32) -> bool {
    (seed ^ salt)
        .wrapping_mul(6364136223846793005)
        .wrapping_add(u64::from(r).wrapping_mul(1442695040888963407))
        .count_ones()
        % 2
        == 0
}

proptest! {
    /// The headline identity: threaded row-sharded scan ≡ inline scan
    /// over the same plan, bit for bit, across shard counts × all metrics
    /// × restricted views × random (non-unit) weights.
    #[test]
    fn row_sharded_threaded_is_bit_identical_to_inline(
        rows in rows_strategy(),
        weights in prop::collection::vec(0.1f64..10.0, 80),
        midx in 0usize..ALL_METRICS.len(),
        shards in 1usize..20,
        mask_seed in proptest::prelude::any::<u64>(),
    ) {
        let (d, flags) = build(&rows);
        let w: Vec<f64> = (0..d.n_rows()).map(|r| weights[r % weights.len()]).collect();
        let metric = ALL_METRICS[midx];
        // An explicit cap above one forces worker threads even on tiny views
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
        let full = TaskView::full(&d, &flags, &w);
        let once = full.restricted_to(full.rows.filter(|r| keep(mask_seed, 1, r)));
        let twice = once.restricted_to(once.rows.filter(|r| keep(mask_seed, 2, r)));
        for view in [&full, &once, &twice] {
            let got = find_best_condition(view, metric, &par);
            let want = find_best_condition(view, metric, &seq);
            match (got, want) {
                (None, None) => {}
                (Some(g), Some(s)) => {
                    prop_assert_eq!(&g.condition, &s.condition,
                        "metric {:?} shards {} view {} rows", metric, shards, view.n_rows());
                    prop_assert_eq!(g.stats.pos.to_bits(), s.stats.pos.to_bits());
                    prop_assert_eq!(g.stats.total.to_bits(), s.stats.total.to_bits());
                    prop_assert_eq!(g.score.to_bits(), s.score.to_bits(),
                        "scores {} vs {}", g.score, s.score);
                }
                (g, s) => prop_assert!(false, "threaded {g:?} vs inline {s:?}"),
            }
        }
    }

    /// A one-shard plan (explicit or default) must reproduce the legacy
    /// unsharded scan bit-for-bit — sharding is strictly opt-in.
    #[test]
    fn one_shard_plan_reproduces_the_unsharded_scan(
        rows in rows_strategy(),
        weights in prop::collection::vec(0.1f64..10.0, 80),
        midx in 0usize..ALL_METRICS.len(),
    ) {
        let (d, flags) = build(&rows);
        let w: Vec<f64> = (0..d.n_rows()).map(|r| weights[r % weights.len()]).collect();
        let metric = ALL_METRICS[midx];
        let v = TaskView::full(&d, &flags, &w);
        let legacy = find_best_condition(
            &v, metric, &SearchOptions { max_workers: Some(1), ..Default::default() });
        let one = find_best_condition(
            &v, metric,
            &SearchOptions { max_workers: Some(1), row_shards: Some(1), ..Default::default() });
        match (legacy, one) {
            (None, None) => {}
            (Some(l), Some(o)) => {
                prop_assert_eq!(&l.condition, &o.condition);
                prop_assert_eq!(l.stats.pos.to_bits(), o.stats.pos.to_bits());
                prop_assert_eq!(l.stats.total.to_bits(), o.stats.total.to_bits());
                prop_assert_eq!(l.score.to_bits(), o.score.to_bits());
            }
            (l, o) => prop_assert!(false, "legacy {l:?} vs one-shard {o:?}"),
        }
    }

    /// With unit weights every partial statistic is a small integer count,
    /// exact in f64 under any grouping — so *different* shard counts must
    /// agree bitwise too. This is the invariant the determinism harness's
    /// shard sweep and the training bench's bit-identity gate rely on.
    #[test]
    fn unit_weights_make_all_shard_counts_agree(
        rows in rows_strategy(),
        midx in 0usize..ALL_METRICS.len(),
        shards in 2usize..40,
        mask_seed in proptest::prelude::any::<u64>(),
    ) {
        let (d, flags) = build(&rows);
        let metric = ALL_METRICS[midx];
        let full = TaskView::full(&d, &flags, d.weights());
        let sub = full.restricted_to(full.rows.filter(|r| keep(mask_seed, 3, r)));
        for view in [&full, &sub] {
            let baseline = find_best_condition(
                view, metric, &SearchOptions { max_workers: Some(1), ..Default::default() });
            let sharded = find_best_condition(
                view, metric,
                &SearchOptions {
                    max_workers: Some(1),
                    row_shards: Some(shards),
                    ..Default::default()
                });
            match (baseline, sharded) {
                (None, None) => {}
                (Some(b), Some(s)) => {
                    prop_assert_eq!(&b.condition, &s.condition, "shards {}", shards);
                    prop_assert_eq!(b.stats.pos.to_bits(), s.stats.pos.to_bits());
                    prop_assert_eq!(b.stats.total.to_bits(), s.stats.total.to_bits());
                    prop_assert_eq!(b.score.to_bits(), s.score.to_bits());
                }
                (b, s) => prop_assert!(false, "unsharded {b:?} vs sharded {s:?}"),
            }
        }
    }

    /// The plan itself: contiguous, exhaustive, balanced, machine-free.
    #[test]
    fn shard_plans_partition_rows(n_rows in 0usize..5000, req in 1usize..64) {
        let p = ShardPlan::new(n_rows, Some(req));
        let mut expect_lo = 0;
        let mut sizes = Vec::new();
        for (lo, hi) in p.ranges() {
            prop_assert_eq!(lo, expect_lo);
            prop_assert!(hi >= lo);
            sizes.push(hi - lo);
            expect_lo = hi;
        }
        prop_assert_eq!(expect_lo, n_rows);
        let min = sizes.iter().min().copied().unwrap_or(0);
        let max = sizes.iter().max().copied().unwrap_or(0);
        prop_assert!(max - min <= 1, "unbalanced: {:?}", sizes);
        if n_rows > 0 {
            prop_assert!(min >= 1, "empty shard in {:?}", sizes);
        }
    }
}
