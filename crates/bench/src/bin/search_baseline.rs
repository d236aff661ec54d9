//! Emits `BENCH_search.json` — a committed wall-clock baseline of the
//! condition search, so regressions in the scan or the view-projection
//! machinery show up as a diff against a known-good measurement.
//!
//! Run from the workspace root:
//!
//! ```text
//! cargo run --release -p pnr-bench --bin search_baseline
//! ```
//!
//! Regenerating from a machine *less* parallel than the one that produced
//! the committed baseline is refused (it would clobber real multi-core
//! measurements with `threaded_speedup: null`); pass `--force` to
//! overwrite anyway.
//!
//! Numbers are machine-dependent; the committed file records the machine's
//! detected parallelism alongside the timings so speedups are interpreted
//! in context. The interesting *relative* quantities are:
//!
//! * `threaded_speedup` — parallel over sequential scan on the same view
//!   (bounded by attribute count and available cores). On a single
//!   detected core this is recorded as `null`: the threaded timing then
//!   measures thread overhead, not parallelism, and labelling it a
//!   speedup would be dishonest;
//! * `restricted_5pct_speedup` — full-view scan cost over the cost on a 5%
//!   restricted view (the view-proportional win; the pre-projection scan
//!   paid a full mask pass here regardless of view size).
//!
//! A `telemetry` block records search-effort counters (candidates
//! evaluated, warm/cold `ViewIndex` projections) from one instrumented
//! un-timed run of each scan, so the baseline pins work done, not just
//! wall-clock.

use pnr_bench::{nsyn3_dataset, target_flags};
use pnr_rules::{find_best_condition, EvalMetric, SearchOptions, TaskView};
use pnr_telemetry::{Counter, RecordingSink};
use std::sync::Arc;
use std::time::Instant;

/// The `threaded_speedup` JSON value and its companion note. With fewer
/// than two detected cores the "threaded" run only measures thread
/// overhead, so the value is the JSON literal `null` and the note says
/// why; with real parallelism it is the sequential/threaded ratio.
fn speedup_field(cores: usize, seq_mean_ns: f64, par_mean_ns: f64) -> (String, String) {
    if cores >= 2 {
        (
            format!("{:.3}", seq_mean_ns / par_mean_ns),
            "parallel over sequential scan on the same view".to_string(),
        )
    } else {
        (
            "null".to_string(),
            format!(
                "detected parallelism is {cores}: the threaded timing measures \
                 thread overhead, not parallelism, so no speedup is claimed"
            ),
        )
    }
}

/// Mean/min wall-clock nanoseconds of `f` over `iters` timed runs (after
/// warm-up).
fn time_ns(iters: usize, mut f: impl FnMut()) -> (f64, f64) {
    for _ in 0..3 {
        f();
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    (mean, min)
}

fn main() {
    // Guard first: refuse to clobber a more-parallel machine's baseline
    // before spending minutes measuring (see `pnr_bench::overwrite_allowed`).
    let force = std::env::args().any(|a| a == "--force");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let out = std::path::Path::new("BENCH_search.json");
    let recorded = pnr_bench::recorded_parallelism(out);
    if !pnr_bench::overwrite_allowed(recorded, cores as u64, force) {
        eprintln!(
            "refusing to overwrite {}: it was recorded with detected_parallelism {} \
             but this machine has {}; regenerating here would erase the multi-core \
             measurements. Pass --force to overwrite anyway.",
            out.display(),
            recorded.unwrap_or(0),
            cores,
        );
        std::process::exit(1);
    }

    let n = 50_000usize;
    let data = nsyn3_dataset(n);
    let flags = target_flags(&data, "C");
    let view = TaskView::full(&data, &flags, data.weights());
    // Warm the projections so the scan itself is measured.
    for a in 0..data.n_attrs() {
        let _ = view.projection(a);
    }
    let iters = 30;

    let sequential = SearchOptions {
        max_workers: Some(1),
        ..Default::default()
    };
    let threaded = SearchOptions {
        // Uncapped: one worker per hardware thread, at least two.
        max_workers: Some(usize::MAX),
        ..Default::default()
    };
    let (seq_mean, seq_min) = time_ns(iters, || {
        find_best_condition(&view, EvalMetric::ZNumber, &sequential).expect("candidate");
    });
    let (par_mean, par_min) = time_ns(iters, || {
        find_best_condition(&view, EvalMetric::ZNumber, &threaded).expect("candidate");
    });

    // A 5% restricted view with warm projections: the scan must now be
    // proportional to the view, not the dataset.
    let small = view.restricted_to(view.rows.filter(|r| r % 20 == 0));
    for a in 0..data.n_attrs() {
        let _ = small.projection(a);
    }
    let (small_mean, small_min) = time_ns(iters, || {
        find_best_condition(&small, EvalMetric::ZNumber, &sequential).expect("candidate");
    });

    // Cold derived view: restriction + lazy projection build + scan, the
    // sequential-covering inner-loop pattern.
    let (derive_mean, derive_min) = time_ns(iters, || {
        let v = view.restricted_to(view.rows.filter(|r| r % 20 == 0));
        find_best_condition(&v, EvalMetric::ZNumber, &sequential).expect("candidate");
    });

    // One instrumented, un-timed run of each scan records the search
    // effort behind the wall-clock numbers. Separate sinks keep the
    // full-view and restricted-view counters apart.
    let full_sink = Arc::new(RecordingSink::new());
    let full_instrumented = SearchOptions {
        max_workers: Some(1),
        sink: full_sink.clone(),
        ..Default::default()
    };
    find_best_condition(&view, EvalMetric::ZNumber, &full_instrumented).expect("candidate");
    let cold_sink = Arc::new(RecordingSink::new());
    let cold_instrumented = SearchOptions {
        max_workers: Some(1),
        sink: cold_sink.clone(),
        ..Default::default()
    };
    let cold_view = view.restricted_to(view.rows.filter(|r| r % 20 == 0));
    find_best_condition(&cold_view, EvalMetric::ZNumber, &cold_instrumented).expect("candidate");

    // Detected parallelism, honestly: a single-core run cannot measure a
    // threaded speedup (only thread overhead), so the ratio is withheld.
    let (thr_speedup, thr_note) = speedup_field(cores, seq_mean, par_mean);
    let json = serde_json::to_string_pretty(
        &serde_json::parse(&format!(
            r#"{{
  "bench": "find_best_condition",
  "dataset": "nsyn3",
  "rows": {n},
  "attrs": {attrs},
  "detected_parallelism": {cores},
  "iters": {iters},
  "full_view_sequential_ns": {{"mean": {seq_mean:.0}, "min": {seq_min:.0}}},
  "full_view_threaded_ns": {{"mean": {par_mean:.0}, "min": {par_min:.0}}},
  "restricted_5pct_warm_ns": {{"mean": {small_mean:.0}, "min": {small_min:.0}}},
  "restricted_5pct_cold_ns": {{"mean": {derive_mean:.0}, "min": {derive_min:.0}}},
  "threaded_speedup": {thr_speedup},
  "threaded_note": "{thr_note}",
  "restricted_5pct_speedup": {view_speedup:.3},
  "telemetry": {{
    "full_view_conditions_evaluated": {full_cond},
    "full_view_warm_hits": {full_warm},
    "full_view_cold_builds": {full_cold},
    "restricted_5pct_conditions_evaluated": {r_cond},
    "restricted_5pct_warm_hits": {r_warm},
    "restricted_5pct_cold_builds": {r_cold}
  }}
}}"#,
            attrs = data.n_attrs(),
            view_speedup = seq_mean / small_mean,
            full_cond = full_sink.value(Counter::ConditionsEvaluated),
            full_warm = full_sink.value(Counter::ViewWarmHits),
            full_cold = full_sink.value(Counter::ViewColdBuilds),
            r_cond = cold_sink.value(Counter::ConditionsEvaluated),
            r_warm = cold_sink.value(Counter::ViewWarmHits),
            r_cold = cold_sink.value(Counter::ViewColdBuilds),
        ))
        .expect("baseline JSON is well-formed"),
    )
    .expect("serialize");
    std::fs::write("BENCH_search.json", json + "\n").expect("write BENCH_search.json");
    let thr_label = if cores >= 2 {
        format!("{:.2}x", seq_mean / par_mean)
    } else {
        "speedup withheld on 1 core".to_string()
    };
    println!(
        "BENCH_search.json written: seq {:.2} ms, threaded {:.2} ms ({}), 5% view {:.3} ms ({}x)",
        seq_mean / 1e6,
        par_mean / 1e6,
        thr_label,
        small_mean / 1e6,
        format_args!("{:.1}", seq_mean / small_mean),
    );
}

#[cfg(test)]
mod tests {
    use super::speedup_field;

    #[test]
    fn single_core_run_refuses_to_claim_a_threaded_speedup() {
        let (value, note) = speedup_field(1, 6_000_000.0, 5_000_000.0);
        assert_eq!(value, "null");
        assert!(note.contains("thread overhead"), "{note}");
    }

    #[test]
    fn multi_core_run_reports_the_ratio() {
        let (value, note) = speedup_field(8, 6_000_000.0, 3_000_000.0);
        assert_eq!(value, "2.000");
        assert!(!note.contains("overhead"), "{note}");
    }
}
