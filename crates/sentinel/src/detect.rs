//! Drift detection over per-window serving statistics.
//!
//! The daemon's counters and histograms are **cumulative**; the detector
//! differences successive [`Stats`] snapshots into a [`WindowDelta`] and
//! watches three derived rates:
//!
//! * the **positive-decision rate** `decision_positives / rows_scored`,
//!   through a two-sided **Page-Hinkley** test — the workhorse change
//!   detector: cheap, exact-arithmetic, and sensitive to sustained small
//!   shifts rather than single noisy windows;
//! * the **quarantine rate** `rows_quarantined / rows` through a
//!   **windowed-rate** test against the warmup baseline — schema-shaped
//!   drift (novel categories, missing fields) shows up here first;
//! * the **score mass** through the score histogram's mean shift —
//!   distributional drift that hasn't (yet) flipped decisions.
//!
//! All thresholds live in [`DetectorConfig`] and every decision is a
//! pure function of the observed sequence — two detectors fed the same
//! snapshots return the same verdicts, which is what the repro harness
//! asserts. The Page-Hinkley state is reset after a `Refit` verdict so
//! one drift episode does not keep re-triggering while a refit is
//! already under way.

use pnr_serve::protocol::Stats;
use pnr_telemetry::{Counter, TelemetrySink};
use std::sync::Arc;

/// The detector's verdict for one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftVerdict {
    /// Nothing notable.
    None,
    /// Sustained deviation; worth logging, not yet worth a refit.
    Warn,
    /// Critical drift: trigger the refit supervisor.
    Refit,
}

impl DriftVerdict {
    /// Stable lowercase name for logs and artifact lineage.
    pub fn name(self) -> &'static str {
        match self {
            DriftVerdict::None => "none",
            DriftVerdict::Warn => "warn",
            DriftVerdict::Refit => "refit",
        }
    }
}

/// Per-window rates differenced from two successive snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowDelta {
    /// Rows scored in the window.
    pub rows: u64,
    /// Positive decisions in the window.
    pub positives: u64,
    /// Rows quarantined in the window.
    pub quarantined: u64,
    /// Mean of the score distribution over the window's score-histogram
    /// mass (bin midpoints), or `None` with no scored mass.
    pub score_mean: Option<f64>,
}

impl WindowDelta {
    /// Differences `later - earlier`. Counter regressions (a restarted
    /// daemon) saturate to zero rather than wrapping.
    pub fn between(earlier: &Stats, later: &Stats) -> WindowDelta {
        let (e, l) = (&earlier.counters, &later.counters);
        let d = |c| l.get(c).saturating_sub(e.get(c));
        let rows = d(Counter::RowsScored);
        let mut mass = 0u64;
        let mut weighted = 0.0f64;
        let n_bins = later.score_hist.len();
        for (i, (&l, &e)) in later
            .score_hist
            .iter()
            .zip(earlier.score_hist.iter().chain(std::iter::repeat(&0)))
            .enumerate()
        {
            let c = l.saturating_sub(e);
            mass += c;
            if n_bins > 0 {
                let mid = (0.5 + i as f64) / n_bins as f64;
                weighted += mid * c as f64;
            }
        }
        WindowDelta {
            rows,
            positives: d(Counter::DecisionPositives),
            quarantined: d(Counter::RowsQuarantined),
            score_mean: if mass > 0 {
                Some(weighted / mass as f64)
            } else {
                None
            },
        }
    }

    /// Positive-decision rate over scored rows (0 with no rows).
    pub fn positive_rate(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.positives as f64 / self.rows as f64
        }
    }

    /// Quarantine rate over attempted rows (0 with no rows).
    pub fn quarantine_rate(&self) -> f64 {
        let attempted = self.rows + self.quarantined;
        if attempted == 0 {
            0.0
        } else {
            self.quarantined as f64 / attempted as f64
        }
    }
}

/// Thresholds and shape of the detector. All fields are plain numbers:
/// determinism comes from the arithmetic, reproducibility from recording
/// the config next to the verdicts.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Windows observed before any verdict other than `None` (the
    /// baseline mean settles during warmup).
    pub warmup_windows: u32,
    /// Windows thinner than this are skipped entirely (rates over a
    /// handful of rows are noise).
    pub min_window_rows: u64,
    /// Page-Hinkley tolerated drift `δ` on the positive rate.
    pub ph_delta: f64,
    /// Page-Hinkley statistic level raising `Warn`.
    pub ph_lambda_warn: f64,
    /// Page-Hinkley statistic level raising `Refit`.
    pub ph_lambda_refit: f64,
    /// Absolute quarantine-rate increase over baseline raising `Warn`.
    pub quarantine_warn: f64,
    /// Absolute quarantine-rate increase over baseline raising `Refit`.
    pub quarantine_refit: f64,
    /// Absolute score-mean shift from baseline raising `Warn`.
    pub score_mean_warn: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            warmup_windows: 3,
            min_window_rows: 50,
            ph_delta: 0.005,
            ph_lambda_warn: 0.05,
            ph_lambda_refit: 0.12,
            quarantine_warn: 0.05,
            quarantine_refit: 0.20,
            score_mean_warn: 0.10,
        }
    }
}

/// Two-sided Page-Hinkley state on one rate.
#[derive(Debug, Clone, Default)]
struct PageHinkley {
    n: u64,
    mean: f64,
    m_up: f64,
    m_up_min: f64,
    m_down: f64,
    m_down_min: f64,
}

impl PageHinkley {
    /// Feeds one observation; returns the current statistic (max of the
    /// upward and downward branches).
    fn observe(&mut self, x: f64, delta: f64) -> f64 {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        self.m_up += x - self.mean - delta;
        self.m_up_min = self.m_up_min.min(self.m_up);
        self.m_down += self.mean - x - delta;
        self.m_down_min = self.m_down_min.min(self.m_down);
        (self.m_up - self.m_up_min).max(self.m_down - self.m_down_min)
    }

    fn reset(&mut self) {
        *self = PageHinkley::default();
    }
}

/// The drift detector: feed it [`WindowDelta`]s, read back verdicts.
#[derive(Debug)]
pub struct DriftDetector {
    config: DetectorConfig,
    ph: PageHinkley,
    windows_seen: u32,
    /// Warmup means, fixed once `windows_seen == warmup_windows`.
    baseline_quarantine: f64,
    baseline_score_mean: Option<f64>,
    warmup_quarantine_sum: f64,
    warmup_score_sum: f64,
    warmup_score_n: u32,
}

impl DriftDetector {
    /// A detector with the given thresholds.
    pub fn new(config: DetectorConfig) -> Self {
        DriftDetector {
            config,
            ph: PageHinkley::default(),
            windows_seen: 0,
            baseline_quarantine: 0.0,
            baseline_score_mean: None,
            warmup_quarantine_sum: 0.0,
            warmup_score_sum: 0.0,
            warmup_score_n: 0,
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Completed (non-skipped) windows observed so far.
    pub fn windows_seen(&self) -> u32 {
        self.windows_seen
    }

    /// Observes one window and returns the verdict. `sink` receives the
    /// `drift_checks` / `drift_warnings` / `drift_refits_signalled`
    /// counters.
    pub fn observe(&mut self, delta: &WindowDelta, sink: &Arc<dyn TelemetrySink>) -> DriftVerdict {
        sink.add(Counter::DriftChecks, 1);
        if delta.rows + delta.quarantined < self.config.min_window_rows {
            return DriftVerdict::None;
        }
        self.windows_seen += 1;
        let ph_stat = self.ph.observe(delta.positive_rate(), self.config.ph_delta);
        if self.windows_seen <= self.config.warmup_windows {
            self.warmup_quarantine_sum += delta.quarantine_rate();
            if let Some(m) = delta.score_mean {
                self.warmup_score_sum += m;
                self.warmup_score_n += 1;
            }
            if self.windows_seen == self.config.warmup_windows {
                self.baseline_quarantine =
                    self.warmup_quarantine_sum / self.config.warmup_windows as f64;
                if self.warmup_score_n > 0 {
                    self.baseline_score_mean =
                        Some(self.warmup_score_sum / self.warmup_score_n as f64);
                }
            }
            return DriftVerdict::None;
        }
        let quarantine_excess = delta.quarantine_rate() - self.baseline_quarantine;
        let score_shift = match (delta.score_mean, self.baseline_score_mean) {
            (Some(now), Some(base)) => (now - base).abs(),
            _ => 0.0,
        };
        let verdict = if ph_stat >= self.config.ph_lambda_refit
            || quarantine_excess >= self.config.quarantine_refit
        {
            DriftVerdict::Refit
        } else if ph_stat >= self.config.ph_lambda_warn
            || quarantine_excess >= self.config.quarantine_warn
            || score_shift >= self.config.score_mean_warn
        {
            DriftVerdict::Warn
        } else {
            DriftVerdict::None
        };
        match verdict {
            DriftVerdict::Warn => sink.add(Counter::DriftWarnings, 1),
            DriftVerdict::Refit => {
                sink.add(Counter::DriftRefitsSignalled, 1);
                // one episode, one refit signal: start a fresh test so a
                // successful (or failed) refit is judged on new evidence
                self.ph.reset();
            }
            DriftVerdict::None => {}
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_telemetry::RecordingSink;

    fn sink() -> Arc<dyn TelemetrySink> {
        Arc::new(RecordingSink::new())
    }

    fn delta(rows: u64, positives: u64, quarantined: u64) -> WindowDelta {
        WindowDelta {
            rows,
            positives,
            quarantined,
            score_mean: None,
        }
    }

    #[test]
    fn stable_rate_never_alarms() {
        let mut d = DriftDetector::new(DetectorConfig::default());
        let s = sink();
        for _ in 0..200 {
            assert_eq!(d.observe(&delta(1000, 100, 0), &s), DriftVerdict::None);
        }
    }

    #[test]
    fn step_change_in_positive_rate_escalates_to_refit() {
        let mut d = DriftDetector::new(DetectorConfig::default());
        let s = sink();
        for _ in 0..10 {
            assert_eq!(d.observe(&delta(1000, 100, 0), &s), DriftVerdict::None);
        }
        // the positive rate triples: r2l-style drift the dos model flags
        let mut saw_warn = false;
        let mut refit_at = None;
        for i in 0..20 {
            match d.observe(&delta(1000, 300, 0), &s) {
                DriftVerdict::Warn => saw_warn = true,
                DriftVerdict::Refit => {
                    refit_at = Some(i);
                    break;
                }
                DriftVerdict::None => {}
            }
        }
        let lag = refit_at.expect("a 3x rate step must reach Refit");
        assert!(saw_warn || lag == 0, "warn precedes refit unless immediate");
        assert!(lag <= 3, "detection lag {lag} too high for a 3x step");
    }

    #[test]
    fn downward_drift_is_detected_too() {
        let mut d = DriftDetector::new(DetectorConfig::default());
        let s = sink();
        for _ in 0..10 {
            d.observe(&delta(1000, 300, 0), &s);
        }
        let refit = (0..20).any(|_| d.observe(&delta(1000, 30, 0), &s) == DriftVerdict::Refit);
        assert!(refit, "a 10x rate drop must reach Refit");
    }

    #[test]
    fn quarantine_burst_is_critical() {
        let mut d = DriftDetector::new(DetectorConfig::default());
        let s = sink();
        for _ in 0..5 {
            assert_eq!(d.observe(&delta(1000, 100, 2), &s), DriftVerdict::None);
        }
        // a quarter of traffic quarantined: schema-shaped drift
        assert_eq!(d.observe(&delta(750, 75, 250), &s), DriftVerdict::Refit);
    }

    #[test]
    fn thin_windows_are_skipped_not_judged() {
        let mut d = DriftDetector::new(DetectorConfig::default());
        let s = sink();
        for _ in 0..100 {
            assert_eq!(d.observe(&delta(10, 10, 0), &s), DriftVerdict::None);
        }
        assert_eq!(d.windows_seen(), 0, "thin windows never count");
    }

    #[test]
    fn detection_is_deterministic() {
        let run = || {
            let mut d = DriftDetector::new(DetectorConfig::default());
            let s = sink();
            let mut verdicts = Vec::new();
            for i in 0..30u64 {
                let positives = if i < 10 { 100 } else { 100 + i * 20 };
                verdicts.push(d.observe(&delta(1000, positives, i % 3), &s));
            }
            verdicts
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn counters_tick_per_verdict() {
        let counting = Arc::new(RecordingSink::new());
        let s: Arc<dyn TelemetrySink> = counting.clone();
        let mut d = DriftDetector::new(DetectorConfig::default());
        for _ in 0..10 {
            d.observe(&delta(1000, 100, 0), &s);
        }
        for _ in 0..20 {
            if d.observe(&delta(1000, 400, 0), &s) == DriftVerdict::Refit {
                break;
            }
        }
        assert!(counting.value(Counter::DriftChecks) >= 11);
        assert_eq!(counting.value(Counter::DriftRefitsSignalled), 1);
    }

    #[test]
    fn deltas_difference_snapshots_and_saturate_on_restart() {
        use pnr_serve::protocol::Counters;
        let snap = |rows: u64, pos: u64, hist: Vec<u64>| Stats {
            counters: Counters::from_fn(|c| match c {
                Counter::RowsScored => rows,
                Counter::DecisionPositives => pos,
                _ => 0,
            }),
            score_hist: hist,
            ..Stats::default()
        };
        let a = snap(100, 10, vec![50, 50]);
        let b = snap(300, 40, vec![50, 250]);
        let d = WindowDelta::between(&a, &b);
        assert_eq!(d.rows, 200);
        assert_eq!(d.positives, 30);
        // mass 200 all in bin 1 of 2 → midpoint 0.75
        assert!((d.score_mean.unwrap() - 0.75).abs() < 1e-12);
        // a restarted daemon (counters reset) saturates, never wraps
        let r = WindowDelta::between(&b, &a);
        assert_eq!(r.rows, 0);
        assert_eq!(r.positives, 0);
    }
}
