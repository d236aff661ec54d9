//! The daemon's telemetry sink: lock-free counters plus latency
//! histograms with percentile extraction.
//!
//! [`ServeSink`] implements [`TelemetrySink`] so the scoring hot path —
//! `ServingModel` per-record counters and the daemon's own robustness
//! counters — reports through the exact same interface the learners use.
//! On top of the counter array it turns `serve_request` / `serve_swap`
//! span closes into [`LatencyHistogram`] samples, so latency percentiles
//! come out of the telemetry spans rather than a separate timing path.
//!
//! The histogram is log₂-bucketed: recording is one `fetch_add` on an
//! atomic bucket (workers never contend on a lock for timing), and a
//! percentile reads as "the bucket upper bound where the cumulative
//! count crosses the rank" — coarse (within 2× of exact) but entirely
//! allocation- and lock-free on the record path, which is what a
//! per-request code path wants.

use crate::protocol::{LatencySummary, PFirstMatch};
use pnr_telemetry::{Counter, SpanKind, TelemetrySink, N_COUNTERS};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets: covers 1ns .. ~584 years, i.e. every `u64`
/// nanosecond value.
const N_BUCKETS: usize = 64;

/// Fixed-width bins of the score-distribution sketch over `[0, 1]`.
pub const SCORE_BINS: usize = 20;

/// P-rule ranks tracked individually by the first-match histogram; ranks
/// beyond this share the last bucket so a swap to a larger model never
/// changes the stats schema.
pub const P_FIRST_BUCKETS: usize = 32;

/// A fixed log₂-bucketed histogram of nanosecond durations.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; N_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    fn bucket_of(ns: u64) -> usize {
        // bucket b holds values in (2^(b-1), 2^b]; 0 lands in bucket 0
        (u64::BITS - ns.leading_zeros()) as usize % N_BUCKETS
    }

    /// Upper bound (ns) of bucket `b`.
    fn upper_bound(b: usize) -> u64 {
        1u64 << b
    }

    /// Records one duration.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The duration (ns) below which at least `p` (in `[0, 1]`) of the
    /// samples fall, reported as the matching bucket's upper bound.
    /// `None` on an empty histogram.
    pub fn percentile_ns(&self, p: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for b in 0..N_BUCKETS {
            seen += self.buckets[b].load(Ordering::Relaxed);
            if seen >= rank {
                return Some(Self::upper_bound(b));
            }
        }
        Some(Self::upper_bound(N_BUCKETS - 1))
    }

    /// [`percentile_ns`](Self::percentile_ns) in milliseconds.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        self.percentile_ns(p).map(|ns| ns as f64 / 1e6)
    }

    /// Sample count and p50/p95/p99 in milliseconds, as `stats` reports
    /// them.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count(),
            p50_ms: self.percentile_ms(0.50),
            p95_ms: self.percentile_ms(0.95),
            p99_ms: self.percentile_ms(0.99),
        }
    }
}

/// The daemon-wide sink: one atomic counter per [`Counter`], request and
/// swap latency histograms fed by span closes, plus the two serving-
/// distribution sketches the drift detector consumes — a fixed-bin
/// score histogram (the streaming quantile sketch) and a P-rule
/// first-match histogram.
#[derive(Debug, Default)]
pub struct ServeSink {
    counters: [AtomicU64; N_COUNTERS],
    request_latency: LatencyHistogram,
    swap_latency: LatencyHistogram,
    /// Scores bucketed over `[0, 1]` in `SCORE_BINS` equal bins (scores
    /// land in `min(floor(score * BINS), BINS-1)`; non-finite in bin 0).
    score_hist: [AtomicU64; SCORE_BINS],
    /// Which P-rule matched first, by rank (ranks ≥ `P_FIRST_BUCKETS-1`
    /// pool in the last bucket).
    p_first: [AtomicU64; P_FIRST_BUCKETS],
    /// Rows no P-rule matched.
    p_first_none: AtomicU64,
}

impl ServeSink {
    /// An empty sink.
    pub fn new() -> Self {
        ServeSink::default()
    }

    /// Current value of one counter.
    pub fn value(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Records one scored row into the distribution sketches: its score,
    /// its decision (ticks `decision_positives`) and the rank of the
    /// first matching P-rule (`None` = no match).
    pub fn record_score(&self, score: f64, decision: bool, p_rule: Option<usize>) {
        let bin = if score.is_finite() {
            let scaled = (score.clamp(0.0, 1.0) * SCORE_BINS as f64).floor() as usize;
            scaled.min(SCORE_BINS - 1)
        } else {
            0
        };
        self.score_hist[bin].fetch_add(1, Ordering::Relaxed);
        if decision {
            self.add(Counter::DecisionPositives, 1);
        }
        match p_rule {
            Some(rank) => {
                self.p_first[rank.min(P_FIRST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed)
            }
            None => self.p_first_none.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Snapshot of the score-distribution bins.
    pub fn score_hist(&self) -> [u64; SCORE_BINS] {
        std::array::from_fn(|i| self.score_hist[i].load(Ordering::Relaxed))
    }

    /// Snapshot of the P-rule first-match histogram.
    pub fn p_first_match(&self) -> PFirstMatch {
        PFirstMatch {
            bins: self
                .p_first
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            none: self.p_first_none.load(Ordering::Relaxed),
        }
    }

    /// The `serve_request` latency histogram.
    pub fn request_latency(&self) -> &LatencyHistogram {
        &self.request_latency
    }

    /// The `serve_swap` latency histogram.
    pub fn swap_latency(&self) -> &LatencyHistogram {
        &self.swap_latency
    }
}

impl TelemetrySink for ServeSink {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn span_open(&self, _kind: SpanKind, _label: &str) {}

    fn span_close(&self, kind: SpanKind, wall_ns: u64) {
        match kind {
            SpanKind::ServeRequest => self.request_latency.record_ns(wall_ns),
            SpanKind::ServeSwap => self.swap_latency.record_ns(wall_ns),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_telemetry::Span;

    #[test]
    fn histogram_percentiles_are_monotone_upper_bounds() {
        let h = LatencyHistogram::new();
        for ns in [100u64, 200, 400, 800, 100_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.percentile_ns(0.50).unwrap();
        let p99 = h.percentile_ns(0.99).unwrap();
        assert!(p50 >= 200, "p50 bound {p50} covers the median sample");
        assert!(p99 >= 100_000, "p99 bound {p99} covers the tail sample");
        assert!(p50 <= p99, "percentiles are monotone");
        // upper bound is within 2x of the true value
        assert!(p99 <= 2 * 131_072, "{p99}");
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile_ns(0.5), None);
        assert_eq!(h.summary(), LatencySummary::default());
    }

    #[test]
    fn zero_and_max_durations_do_not_panic() {
        let h = LatencyHistogram::new();
        h.record_ns(0);
        h.record_ns(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.percentile_ns(1.0).is_some());
    }

    #[test]
    fn sink_routes_spans_to_the_right_histogram() {
        let sink = ServeSink::new();
        {
            let _req = Span::enter(&sink, SpanKind::ServeRequest, "r");
        }
        {
            let _swap = Span::enter(&sink, SpanKind::ServeSwap, "s");
        }
        {
            // non-serve spans are ignored by the histograms
            let _fit = Span::enter(&sink, SpanKind::Fit, "f");
        }
        assert_eq!(sink.request_latency().count(), 1);
        assert_eq!(sink.swap_latency().count(), 1);
    }

    #[test]
    fn score_records_land_in_the_right_bins() {
        let sink = ServeSink::new();
        sink.record_score(0.0, false, Some(0));
        sink.record_score(0.049, false, Some(0)); // still bin 0
        sink.record_score(0.5, true, Some(3));
        sink.record_score(1.0, true, Some(100)); // rank pools in last bucket
        sink.record_score(f64::NAN, false, None);
        let bins = sink.score_hist();
        assert_eq!(bins[0], 3, "0.0, 0.049 and NaN share bin 0");
        assert_eq!(bins[10], 1, "0.5 lands at the midpoint bin");
        assert_eq!(bins[SCORE_BINS - 1], 1, "1.0 clamps into the last bin");
        assert_eq!(bins.iter().sum::<u64>(), 5);
        let p = sink.p_first_match();
        assert_eq!(p.bins.len(), P_FIRST_BUCKETS);
        assert_eq!(p.bins[0], 2);
        assert_eq!(p.bins[3], 1);
        assert_eq!(p.bins[P_FIRST_BUCKETS - 1], 1);
        assert_eq!(p.none, 1);
        assert_eq!(sink.value(Counter::DecisionPositives), 2);
    }
}
