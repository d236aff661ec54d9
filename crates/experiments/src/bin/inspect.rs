//! Trains PNrule on one of the paper's datasets and prints the learned
//! model with per-rule coverage — the debugging/teaching view.
//!
//! Usage: `inspect <dataset>[:tr=<f>][:nr=<f>] [--trace] [--scale f]
//! [--seed n]` where `<dataset>` is `nsyn1..6`, `coa1..6`, `coad1..4`,
//! `syngen`, or `kdd:<class>`; optional `:tr=`/`:nr=` suffixes override
//! peak widths on the numeric and general models. `--trace` (PNrule only)
//! fits against a recording telemetry sink and appends a per-phase
//! timing/counter table plus a single-pass error analysis.

use pnr_core::{FitBudget, FitReport, PnruleLearner, PnruleParams};
use pnr_data::Dataset;
use pnr_experiments::{CliOptions, PaperData};
use pnr_rules::{evaluate_classifier, BinaryClassifier, TaskView};
use pnr_telemetry::{Counter, RecordingSink, SpanKind, TelemetrySink};
use std::sync::Arc;

/// Prints `model`'s recall, precision and F for `target` on train and test.
fn print_rpf(model: &impl BinaryClassifier, train: &Dataset, test: &Dataset, target: u32) {
    for (name, data) in [("train:", train), ("test: ", test)] {
        let cm = evaluate_classifier(model, data, target);
        println!(
            "{name} R {:.4} P {:.4} F {:.4}",
            cm.recall(),
            cm.precision(),
            cm.f_measure()
        );
    }
}

fn bail(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: inspect <dataset> [--method m] [--rp f] [--rn f] [--trace] [--scale f] [--seed n]"
    );
    std::process::exit(pnr_core::exit::USAGE);
}

/// Renders the recorded fit telemetry: per-phase span timings, every
/// counter, and the budget-tracker cross-check (the `candidate_charges`
/// counter must mirror the tracker's own tally to the unit).
fn render_trace(sink: &RecordingSink, report: &FitReport) {
    let spans = sink.completed_spans();
    println!("\nfit telemetry (--trace):");
    println!("  {:<14} {:>6} {:>12}", "span", "count", "total ms");
    for kind in [
        SpanKind::Fit,
        SpanKind::PPhase,
        SpanKind::PRuleGrow,
        SpanKind::NPhase,
        SpanKind::NRuleGrow,
        SpanKind::ScoreMatrix,
    ] {
        let (count, total_ns) = spans
            .iter()
            .filter(|s| s.kind == kind)
            .fold((0usize, 0u64), |(c, t), s| (c + 1, t + s.wall_ns));
        if count == 0 {
            continue;
        }
        println!(
            "  {:<14} {:>6} {:>12.3}",
            kind.name(),
            count,
            total_ns as f64 / 1e6
        );
    }
    println!("  counters:");
    for (counter, value) in sink.counter_values() {
        println!("    {:<22} {value}", counter.name());
    }
    match report.candidates_charged {
        Some(charged) => {
            let counted = sink.value(Counter::CandidateCharges);
            assert_eq!(
                charged, counted,
                "telemetry counter must mirror BudgetTracker charges exactly"
            );
            println!("  budget tracker charges: {charged} (telemetry counter matches exactly)");
        }
        None => println!("  budget tracker charges: n/a (fit ran without a budget)"),
    }
    if let Some(problem) = sink.nesting_error() {
        println!("  WARNING: span nesting violation: {problem}");
    }
}

fn flag_value<T: std::str::FromStr>(name: &str, raw: Option<String>) -> T {
    match raw {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| bail(&format!("{name} got a malformed value"))),
        None => bail(&format!("{name} requires a value")),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        bail("missing dataset name");
    }
    let name = args.remove(0);
    let mut rp = 0.95;
    let mut rn = 0.9;
    let mut method = "pnrule".to_string();
    let mut trace = false;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rp" => rp = flag_value("--rp", it.next()),
            "--rn" => rn = flag_value("--rn", it.next()),
            "--method" => method = flag_value("--method", it.next()),
            "--trace" => trace = true,
            other => rest.push(other.to_string()),
        }
    }
    let opts = CliOptions::parse(rest.into_iter()).unwrap_or_else(|problem| bail(&problem));

    let (data, class) = PaperData::parse(&name).unwrap_or_else(|problem| bail(&problem));
    let (train, test) = data.generate(&opts);
    let target = train.class_code(class).expect("target class");
    println!(
        "{name}: train {} rows ({} targets), test {} rows",
        train.n_rows(),
        train.class_counts()[target as usize],
        test.n_rows()
    );

    if method == "ripper" {
        let model = pnr_ripper::RipperLearner::default().fit(&train, target);
        println!("\n{}", model.describe(train.schema()));
        print_rpf(&model, &train, &test, target);
        return;
    }
    if method == "c45rules" {
        let model = pnr_c45::C45Learner::default().fit_rules(&train);
        println!("\n{}", model.describe(train.schema()));
        print_rpf(&model.binary_view(target), &train, &test, target);
        return;
    }
    let mut params = PnruleParams::with_recall_limits(rp, rn);
    if trace {
        // A candidate budget far beyond what any fit needs: it never
        // constrains learning (the model is identical to an unbudgeted
        // fit) but attaches the BudgetTracker whose tally the telemetry
        // counter is cross-checked against below.
        params.budget = FitBudget {
            max_candidates: Some(1_000_000_000),
            ..FitBudget::default()
        };
    }
    println!("params: rp={rp} rn={rn}");
    let sink = Arc::new(RecordingSink::new());
    let mut learner = PnruleLearner::new(params);
    if trace {
        learner = learner.with_sink(sink.clone() as Arc<dyn TelemetrySink>);
    }
    let (model, report) = learner.fit_with_report(&train, target);
    println!("\n{}", model.describe(train.schema()));

    // per-rule coverage on the training set
    let is_pos: Vec<bool> = (0..train.n_rows())
        .map(|r| train.label(r) == target)
        .collect();
    let view = TaskView::full(&train, &is_pos, train.weights());
    println!("P-rule coverage on train (full-set, not sequential):");
    for (i, rule) in model.p_rules.rules().iter().enumerate() {
        let c = view.coverage(rule);
        println!(
            "  [{i}] pos={:.0} total={:.0} acc={:.3}",
            c.pos,
            c.total,
            c.accuracy()
        );
    }
    println!("N-rule coverage on train:");
    for (i, rule) in model.n_rules.rules().iter().enumerate() {
        let c = view.coverage(rule);
        println!("  [{i}] pos={:.0} total={:.0}", c.pos, c.total);
    }

    println!(
        "\nP-phase: recall {:.3}; pool {} rows with FP weight {:.0}",
        report.p_covered_recall, report.pool_size, report.pool_fp_weight
    );
    println!(
        "N-phase: {} rules, retained recall {:.3}, stop reason {:?}",
        report.n_rule_stats.len(),
        report.retained_recall,
        report.n_stop_reason
    );
    println!(
        "DL trace: {:?}",
        report
            .n_dl_trace
            .iter()
            .map(|d| d.round())
            .collect::<Vec<_>>()
    );
    for (i, (rule, st)) in model
        .n_rules
        .rules()
        .iter()
        .zip(&report.n_rule_stats)
        .enumerate()
    {
        println!(
            "  n[{i}] len={} fp_removed={:.0} targets_lost={:.0} | {}",
            rule.len(),
            st.pos,
            st.neg(),
            rule.display(train.schema())
        );
    }

    println!();
    print_rpf(&model, &train, &test, target);

    if trace {
        render_trace(&sink, &report);
        // Error analysis on the test set: `score_with_trace` yields the
        // decision and the firing rules from one first-match sweep.
        let (mut false_pos, mut false_neg) = (0usize, 0usize);
        let mut examples: Vec<String> = Vec::new();
        for row in 0..test.n_rows() {
            let (score, rules) = model.score_with_trace(&test, row);
            let predicted = score > model.threshold;
            let actual = test.label(row) == target;
            if predicted == actual {
                continue;
            }
            if predicted {
                false_pos += 1;
            } else {
                false_neg += 1;
            }
            if examples.len() < 6 {
                examples.push(format!(
                    "    row {row}: {} score {score:.3} p={:?} n={:?}",
                    if predicted { "FP" } else { "FN" },
                    rules.p_rule,
                    rules.n_rule
                ));
            }
        }
        println!("\ntest errors: {false_pos} false positives, {false_neg} false negatives");
        for line in &examples {
            println!("{line}");
        }
    }
}
