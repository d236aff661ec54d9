//! Condition-search benchmarks: the inner loop of every rule learner.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pnr_bench::{nsyn3_dataset, target_flags};
use pnr_rules::{find_best_condition, EvalMetric, SearchOptions, TaskView};

fn bench_find_best_condition(c: &mut Criterion) {
    let mut group = c.benchmark_group("find_best_condition");
    for &n in &[10_000usize, 50_000] {
        let data = nsyn3_dataset(n);
        let flags = target_flags(&data, "C");
        let view = TaskView::full(&data, &flags, data.weights());
        // warm the sort-index cache so the bench measures the scan
        for a in 0..data.n_attrs() {
            let _ = data.sort_index(a);
        }
        group.bench_with_input(BenchmarkId::new("with_ranges", n), &view, |b, v| {
            b.iter(|| {
                find_best_condition(v, EvalMetric::ZNumber, &SearchOptions::default())
                    .expect("candidate")
            })
        });
        let no_ranges = SearchOptions {
            use_ranges: false,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("one_sided_only", n), &view, |b, v| {
            b.iter(|| find_best_condition(v, EvalMetric::ZNumber, &no_ranges).expect("candidate"))
        });
        let sequential = SearchOptions {
            max_workers: Some(1),
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("sequential", n), &view, |b, v| {
            b.iter(|| find_best_condition(v, EvalMetric::ZNumber, &sequential).expect("candidate"))
        });
        let threaded = SearchOptions {
            // Uncapped: one worker per hardware thread, at least two.
            max_workers: Some(usize::MAX),
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("threaded", n), &view, |b, v| {
            b.iter(|| find_best_condition(v, EvalMetric::ZNumber, &threaded).expect("candidate"))
        });
        // View-proportional scan: a 5% restricted view should cost a small
        // fraction of the full-view search once its projection is warm.
        let small = view.restricted_to(view.rows.filter(|r| r % 20 == 0));
        for a in 0..data.n_attrs() {
            let _ = small.projection(a);
        }
        group.bench_with_input(BenchmarkId::new("restricted_5pct", n), &small, |b, v| {
            b.iter(|| {
                find_best_condition(v, EvalMetric::ZNumber, &SearchOptions::default())
                    .expect("candidate")
            })
        });
    }
    group.finish();
}

fn bench_sort_index(c: &mut Criterion) {
    c.bench_function("sort_index_50k", |b| {
        b.iter_with_setup(
            || nsyn3_dataset(50_000),
            |data| {
                let _ = data.sort_index(0);
            },
        )
    });
}

fn bench_metrics(c: &mut Criterion) {
    use pnr_rules::CovStats;
    let stats = CovStats::new(120.0, 400.0);
    let mut group = c.benchmark_group("eval_metric");
    for metric in [
        EvalMetric::ZNumber,
        EvalMetric::FoilGain,
        EvalMetric::EntropyGain,
        EvalMetric::GiniGain,
        EvalMetric::ChiSquared,
    ] {
        group.bench_function(format!("{metric:?}"), |b| {
            b.iter(|| metric.score(std::hint::black_box(stats), 1_500.0, 500_000.0))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_find_best_condition,
    bench_sort_index,
    bench_metrics
);
criterion_main!(benches);
