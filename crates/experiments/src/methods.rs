//! The classifier variants compared in the paper, behind one interface.

use pnr_c45::{C45Learner, C45Params};
use pnr_core::{FitReport, PnruleLearner, PnruleModel, PnruleParams};
use pnr_data::{stratify_weights, Dataset};
use pnr_metrics::PrfReport;
use pnr_ripper::{RipperLearner, RipperParams};
use pnr_rules::evaluate_classifier;
use pnr_telemetry::TelemetrySink;
use std::sync::Arc;

/// A classifier variant, in the paper's notation:
///
/// * `C` — C4.5rules on the unit-weight training set;
/// * `Cte` — the C4.5 *tree* on the stratified training set (the paper
///   reports the tree for `-we` because rule generation from the huge
///   stratified trees took "unacceptable" time);
/// * `R` — RIPPER, `Re` — RIPPER on the stratified set;
/// * `P` — PNrule with explicit parameters;
/// * a best-of — the variant with the best test F among several (Table 6
///   reports each baseline's best of as-is and stratified).
#[derive(Debug, Clone)]
pub enum Method {
    /// C4.5rules (`C`).
    C45Rules,
    /// C4.5 tree on the stratified training set (`Cte`).
    C45TreeWe,
    /// RIPPER (`R`).
    Ripper,
    /// RIPPER on the stratified training set (`Re`).
    RipperWe,
    /// PNrule (`P`).
    Pnrule(PnruleParams),
    /// The variant with the best test F (the first wins ties), reported
    /// under the first variant's label.
    BestOf(Vec<Method>),
}

impl Method {
    /// The paper's row label for this variant.
    pub fn label(&self) -> &'static str {
        match self {
            Method::C45Rules => "C4.5rules",
            Method::C45TreeWe => "C4.5-we",
            Method::Ripper => "RIPPER",
            Method::RipperWe => "RIPPER-we",
            Method::Pnrule(_) => "PNrule",
            Method::BestOf(variants) => variants.first().map_or("best-of", Method::label),
        }
    }
}

/// Trains the variant on `train` with `sink` attached to the learner and
/// evaluates recall/precision/F for `target` on `test`. The sink is
/// write-only observation: the report is identical whatever sink is
/// passed (`pnr_telemetry::noop()` when nothing records).
pub fn run_method(
    method: &Method,
    train: &Dataset,
    test: &Dataset,
    target: u32,
    sink: &Arc<dyn TelemetrySink>,
) -> PrfReport {
    match method {
        Method::C45Rules => {
            let model = C45Learner::new(C45Params::default())
                .with_sink(sink.clone())
                .fit_rules(train);
            evaluate_classifier(&model.binary_view(target), test, target).report()
        }
        Method::C45TreeWe => {
            let weighted = train.with_weights(stratify_weights(train, target));
            let model = C45Learner::new(C45Params::default())
                .with_sink(sink.clone())
                .fit_tree(&weighted);
            evaluate_classifier(&model.binary_view(target), test, target).report()
        }
        Method::Ripper => {
            let model = RipperLearner::new(RipperParams::default())
                .with_sink(sink.clone())
                .fit(train, target);
            evaluate_classifier(&model, test, target).report()
        }
        Method::RipperWe => {
            let weighted = train.with_weights(stratify_weights(train, target));
            let model = RipperLearner::new(RipperParams::default())
                .with_sink(sink.clone())
                .fit(&weighted, target);
            evaluate_classifier(&model, test, target).report()
        }
        Method::Pnrule(params) => {
            let model = PnruleLearner::new(params.clone())
                .with_sink(sink.clone())
                .fit(train, target);
            evaluate_classifier(&model, test, target).report()
        }
        Method::BestOf(variants) => variants
            .iter()
            .map(|m| run_method(m, train, test, target, sink))
            .reduce(|best, next| if best.f >= next.f { best } else { next })
            .expect("a best-of needs at least one variant"),
    }
}

/// The paper's PNrule protocol for the synthetic studies (section 3.1):
/// try the four `(rp, rn)` combinations `{0.95, 0.99} × {0.7, 0.95}` with
/// otherwise conservative settings, and keep the best test F.
pub fn pnrule_variant_grid() -> Vec<PnruleParams> {
    let mut grid = Vec::new();
    for rp in [0.95, 0.99] {
        for rn in [0.7, 0.95] {
            grid.push(PnruleParams::with_recall_limits(rp, rn));
        }
    }
    grid
}

/// The winning cell of a PNrule parameter-grid sweep, with everything an
/// artifact needs: the trained model and its fit diagnostics, not just
/// the evaluation numbers.
#[derive(Debug, Clone)]
pub struct BestPnrule {
    /// Test-set recall/precision/F of the winner.
    pub report: PrfReport,
    /// The winning parameters.
    pub params: PnruleParams,
    /// The winning trained model.
    pub model: PnruleModel,
    /// Diagnostics of the winning fit.
    pub fit_report: FitReport,
}

/// Runs every PNrule variant in `grid`, each fit reporting into `sink`
/// (one `fit` span per variant), and returns the best by test F (the
/// first wins ties) with its model, so callers can persist it as a
/// [`pnr_core::ModelArtifact`].
pub fn run_pnrule_best(
    train: &Dataset,
    test: &Dataset,
    target: u32,
    grid: &[PnruleParams],
    sink: &Arc<dyn TelemetrySink>,
) -> BestPnrule {
    assert!(!grid.is_empty(), "need at least one variant");
    let mut best: Option<BestPnrule> = None;
    for params in grid {
        let (model, fit_report) = PnruleLearner::new(params.clone())
            .with_sink(sink.clone())
            .fit_with_report(train, target);
        let report = evaluate_classifier(&model, test, target).report();
        if best.as_ref().is_none_or(|b| report.f > b.report.f) {
            best = Some(BestPnrule {
                report,
                params: params.clone(),
                model,
                fit_report,
            });
        }
    }
    best.expect("non-empty grid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_synth::{numeric::NumericModelConfig, SynthScale};

    fn tiny_pair() -> (Dataset, Dataset) {
        let cfg = NumericModelConfig::nsyn(1);
        let scale = SynthScale {
            n_records: 4_000,
            target_frac: 0.01,
        };
        (
            pnr_synth::numeric::generate(&cfg, &scale, 1),
            pnr_synth::numeric::generate(&cfg, &scale, 2),
        )
    }

    #[test]
    fn all_methods_produce_reports() {
        let (train, test) = tiny_pair();
        let target = train.class_code("C").unwrap();
        for m in [
            Method::C45Rules,
            Method::C45TreeWe,
            Method::Ripper,
            Method::RipperWe,
            Method::Pnrule(PnruleParams::default()),
        ] {
            let rep = run_method(&m, &train, &test, target, &pnr_telemetry::noop());
            assert!((0.0..=1.0).contains(&rep.f), "{} F={}", m.label(), rep.f);
        }
    }

    #[test]
    fn pnrule_grid_has_four_combos() {
        let grid = pnrule_variant_grid();
        assert_eq!(grid.len(), 4);
        // lint:allow(float-eq) — grid constants round-trip verbatim
        assert!(grid.iter().any(|p| p.rp == 0.99 && p.rn == 0.7));
    }

    #[test]
    fn best_variant_beats_or_ties_each_member() {
        let (train, test) = tiny_pair();
        let target = train.class_code("C").unwrap();
        let grid = vec![
            PnruleParams::with_recall_limits(0.95, 0.9),
            PnruleParams::with_recall_limits(0.99, 0.7),
        ];
        let noop = pnr_telemetry::noop();
        let best = run_pnrule_best(&train, &test, target, &grid, &noop).report;
        for p in &grid {
            let rep = run_method(&Method::Pnrule(p.clone()), &train, &test, target, &noop);
            assert!(best.f >= rep.f - 1e-12);
        }
    }

    #[test]
    fn best_of_keeps_the_better_variant_under_the_first_label() {
        let (train, test) = tiny_pair();
        let target = train.class_code("C").unwrap();
        let noop = pnr_telemetry::noop();
        let variants = vec![Method::Ripper, Method::RipperWe];
        let each: Vec<PrfReport> = variants
            .iter()
            .map(|m| run_method(m, &train, &test, target, &noop))
            .collect();
        let best = Method::BestOf(variants);
        assert_eq!(best.label(), "RIPPER");
        let rep = run_method(&best, &train, &test, target, &noop);
        let want = if each[0].f >= each[1].f {
            each[0]
        } else {
            each[1]
        };
        assert_eq!(rep, want);
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(Method::C45TreeWe.label(), "C4.5-we");
        assert_eq!(Method::RipperWe.label(), "RIPPER-we");
    }
}
