//! Drift-recovery scenario: how much rare-class recall does the sentinel
//! loop (detect → windowed refit → adopt) buy back after an attack-mix
//! shift, versus serving the original model unchanged?
//!
//! Usage: `drift_scenario [--seed N] [--shift ROW] [--windows N]
//! [--window-rows N] [--target CLASS] [--out FILE]`
//!
//! One deterministic [`DriftStream`](pnr_kddsim::DriftStream) (train mix
//! stepping to the shifted test mix at `--shift`) feeds two pipelines in
//! lockstep: a *static* one that keeps the boot model, and an *adaptive*
//! one whose per-window serving stats run through the sentinel's
//! [`DriftDetector`]; on a `refit` verdict the adaptive pipeline refits
//! on the current window through [`pnr_core::refit_window`] (validation
//! gate included) and adopts the candidate. Reports per-window recall for
//! both pipelines, the detection lag in windows, and the post-shift
//! recall recovery, as one JSON document.

use pnr_core::{
    refit_window, ModelArtifact, PnruleLearner, PnruleParams, RefitOptions, ServingModel,
};
use pnr_data::Dataset;
use pnr_sentinel::{DetectorConfig, DriftDetector, DriftVerdict, WindowDelta};
use pnr_telemetry::{RecordingSink, TelemetrySink};
use std::sync::Arc;

struct Options {
    seed: u64,
    shift: usize,
    windows: usize,
    window_rows: usize,
    target: String,
    out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: drift_scenario [--seed N] [--shift ROW] [--windows N] \
         [--window-rows N] [--target CLASS] [--out FILE]"
    );
    std::process::exit(pnr_core::exit::USAGE);
}

fn parse_args() -> Options {
    let mut o = Options {
        seed: 7,
        shift: 4000,
        windows: 12,
        window_rows: 1000,
        target: "dos".to_string(),
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                o.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--shift" => {
                o.shift = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--windows" => {
                o.windows = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--window-rows" => {
                o.window_rows = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--target" => o.target = args.next().unwrap_or_else(|| usage()),
            "--out" => o.out = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    o
}

/// One pipeline's view of one window: serving stats for the detector plus
/// ground-truth recall for the report.
struct WindowStats {
    rows: u64,
    positives: u64,
    quarantined: u64,
    targets: usize,
    hits: usize,
}

impl WindowStats {
    fn recall(&self) -> f64 {
        if self.targets == 0 {
            return 1.0;
        }
        self.hits as f64 / self.targets as f64
    }
}

fn score_window(model: &ServingModel, data: &Dataset, target: u32) -> WindowStats {
    let mut s = WindowStats {
        rows: 0,
        positives: 0,
        quarantined: 0,
        targets: 0,
        hits: 0,
    };
    let map = match model.reconcile_dataset(data) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: window does not reconcile: {e}");
            std::process::exit(pnr_core::exit::DATA_FAILURE);
        }
    };
    for row in 0..data.n_rows() {
        let is_target = data.label(row) == target;
        if is_target {
            s.targets += 1;
        }
        match model.score_dataset_row(data, &map, row) {
            Ok(rec) => {
                s.rows += 1;
                if rec.decision {
                    s.positives += 1;
                    if is_target {
                        s.hits += 1;
                    }
                }
            }
            Err(_) => s.quarantined += 1,
        }
    }
    s
}

fn main() {
    let o = parse_args();
    let sink: Arc<dyn TelemetrySink> = Arc::new(RecordingSink::new());

    // boot model, trained on the pre-shift mix
    let train = pnr_kddsim::generate_train(2000, o.seed);
    let target = match train.class_code(&o.target) {
        Some(t) => t,
        None => {
            eprintln!("error: class {:?} not in the simulated schema", o.target);
            std::process::exit(pnr_core::exit::USAGE);
        }
    };
    let params = PnruleParams::default();
    let (model, report) = PnruleLearner::new(params.clone()).fit_with_report(&train, target);
    let artifact = match ModelArtifact::new(model, params, report, train.schema().clone()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: cannot build boot artifact: {e}");
            std::process::exit(pnr_core::exit::DATA_FAILURE);
        }
    };
    let static_model = ServingModel::new(artifact.clone());
    let mut adaptive = ServingModel::new(artifact);

    let schedule = pnr_kddsim::DriftSchedule::Step {
        at: o.shift,
        before: pnr_kddsim::train_mix(),
        after: pnr_kddsim::test_mix(),
    };
    let shift_window = o.shift / o.window_rows.max(1);
    let mut stream = pnr_kddsim::DriftStream::new(o.seed ^ 0xd21f, schedule);
    let mut detector = DriftDetector::new(DetectorConfig::default());
    let refit_opts = RefitOptions::default();

    let mut window_lines = Vec::new();
    let mut refit_lines = Vec::new();
    let mut detection_lag: Option<usize> = None;
    let mut static_recalls = Vec::new();
    let mut adaptive_recalls = Vec::new();
    for w in 0..o.windows {
        let chunk = stream.next_chunk(o.window_rows);
        let st = score_window(&static_model, &chunk, target);
        let ad = score_window(&adaptive, &chunk, target);
        let delta = WindowDelta {
            rows: ad.rows,
            positives: ad.positives,
            quarantined: ad.quarantined,
            score_mean: None,
        };
        let verdict = detector.observe(&delta, &sink);
        if verdict == DriftVerdict::Refit {
            if detection_lag.is_none() && w >= shift_window {
                detection_lag = Some(w - shift_window);
            }
            match refit_window(&chunk, &o.target, &adaptive, &refit_opts, &sink) {
                Ok((candidate, eval)) => {
                    refit_lines.push(format!(
                        "{{\"window\":{w},\"adopted\":true,\
                         \"candidate_recall\":{:.4},\"baseline_recall\":{:.4}}}",
                        eval.candidate_recall, eval.baseline_recall
                    ));
                    adaptive = ServingModel::new(candidate);
                }
                Err(e) => {
                    let mut reason = String::new();
                    serde_json::write_escaped(&e.to_string(), &mut reason);
                    refit_lines.push(format!(
                        "{{\"window\":{w},\"adopted\":false,\"reason\":{reason}}}"
                    ));
                }
            }
        }
        static_recalls.push(st.recall());
        adaptive_recalls.push(ad.recall());
        window_lines.push(format!(
            "{{\"window\":{w},\"phase\":\"{}\",\"verdict\":\"{}\",\
             \"static_recall\":{:.4},\"adaptive_recall\":{:.4},\
             \"adaptive_positive_rate\":{:.4}}}",
            if w < shift_window { "pre" } else { "post" },
            verdict.name(),
            st.recall(),
            ad.recall(),
            delta.positive_rate(),
        ));
    }

    // recovery: mean recall over the post-detection tail of the run
    let tail = o.windows.saturating_sub(3).max(shift_window.min(o.windows));
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let static_tail = mean(&static_recalls[tail..]);
    let adaptive_tail = mean(&adaptive_recalls[tail..]);
    let report = format!(
        "{{\"record\":\"drift_scenario\",\"seed\":{},\"target\":\"{}\",\
         \"shift_row\":{},\"shift_window\":{shift_window},\"window_rows\":{},\
         \"detection_lag_windows\":{},\
         \"static_tail_recall\":{static_tail:.4},\
         \"adaptive_tail_recall\":{adaptive_tail:.4},\
         \"refits\":[{}],\"windows\":[{}]}}",
        o.seed,
        o.target,
        o.shift,
        o.window_rows,
        detection_lag.map_or("null".to_string(), |l| l.to_string()),
        refit_lines.join(","),
        window_lines.join(","),
    );
    println!("{report}");
    if let Some(path) = &o.out {
        if let Err(e) = std::fs::write(path, format!("{report}\n")) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(pnr_core::exit::DATA_FAILURE);
        }
    }
}
