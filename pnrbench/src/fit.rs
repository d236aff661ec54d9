//! The fit path: CSV on disk → `read_csv_chunked` →
//! `PnruleLearner::fit_with_report` → `ModelArtifact::save`.
//!
//! Every timed fit runs in a fresh child process (`pnr-bench fit-child`),
//! so no rep inherits a warm allocator or a heap grown by the one before.
//! The traced fit runs in this process and calls each layer's public
//! function in the order `run_fit` does, timing each call from here; the
//! model it assembles must be byte-identical to the child's artifact.

use crate::report::peak_rss_mb;
use crate::stats::median;
use pnr_core::{
    learn_n_rules_with_sink, learn_p_rules_with_sink, load_with_retry, FitReport, ModelArtifact,
    PnruleLearner, PnruleModel, PnruleParams, RetryPolicy, ScoreMatrix, ServingModel, StopReason,
};
use pnr_data::{read_csv_chunked, AttrType, CsvOptions, Dataset, RowSet};
use pnr_rules::{RuleSet, TaskView};
use pnr_synth::{categorical, general, SynthScale};
use pnr_telemetry::{Counter, RecordingSink, TelemetrySink};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per ingest chunk (and per generated chunk when streaming kddsim).
const CHUNK_ROWS: usize = 65_536;

/// The generators the fit workloads draw their data from.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// kddsim train mix, streamed to CSV chunk by chunk.
    Kdd,
    /// `pnr_synth::general` (4 numeric + 4 categorical attributes).
    Syngen,
    /// `pnr_synth::categorical` `coad1` (categorical only).
    Coad1,
}

/// Rare-class share of the synthetic families. The paper's 0.3% needs
/// its 500k rows (4 s a fit) to learn a model that repeats across seeds;
/// at the sizes that fit a run, 1% gives the same rule shapes, seed
/// after seed.
const SYNTH_TARGET_FRAC: f64 = 0.01;

impl Family {
    /// Test data (kddsim: the shifted test mix with its novel subclasses;
    /// the synthetic models draw train and test from one distribution).
    pub fn test_set(self, rows: usize, seed: u64) -> Dataset {
        match self {
            Family::Kdd => pnr_kddsim::generate_test(rows, seed),
            Family::Syngen | Family::Coad1 => self.synthetic(rows, seed),
        }
    }

    /// The generator of `Coad1` or `Syngen`.
    fn synthetic(self, rows: usize, seed: u64) -> Dataset {
        let scale = SynthScale {
            n_records: rows,
            target_frac: SYNTH_TARGET_FRAC,
        };
        match self {
            Family::Coad1 => {
                categorical::generate(&categorical::CategoricalModelConfig::coad(1), &scale, seed)
            }
            _ => general::generate(&general::GeneralModelConfig::default(), &scale, seed),
        }
    }
}

/// A training table on disk plus what the chunked reader needs to load it.
#[derive(Debug, Clone)]
pub struct TrainSet {
    pub csv: PathBuf,
    /// One letter per attribute: `n` numeric, `c` categorical.
    pub types: String,
    pub target: &'static str,
}

impl TrainSet {
    pub fn csv_options(&self) -> Result<CsvOptions, String> {
        Ok(CsvOptions {
            types: Some(parse_types(&self.types)?),
            ..CsvOptions::default()
        })
    }
}

fn type_letters(data: &Dataset) -> String {
    (0..data.n_attrs())
        .map(|a| match data.schema().attr(a).ty {
            AttrType::Numeric => 'n',
            AttrType::Categorical => 'c',
        })
        .collect()
}

fn parse_types(letters: &str) -> Result<Vec<AttrType>, String> {
    letters
        .chars()
        .map(|c| match c {
            'n' => Ok(AttrType::Numeric),
            'c' => Ok(AttrType::Categorical),
            other => Err(format!("unknown attribute type letter {other:?}")),
        })
        .collect()
}

/// Generates `rows` training rows of `family` from `seed` and writes them
/// to `path` as CSV through the repository's CSV writer.
pub fn write_train_csv(
    family: Family,
    rows: usize,
    seed: u64,
    target: &'static str,
    path: &Path,
) -> Result<TrainSet, String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("write {}: {e}", path.display());
    let types = match family {
        Family::Kdd => {
            // streamed: at most CHUNK_ROWS generated rows exist at once
            let mut stream = pnr_kddsim::MixStream::train(rows, seed);
            let mut types = None;
            while let Some(chunk) = stream.next_chunk(CHUNK_ROWS) {
                if types.is_none() {
                    out.write_all(pnr_data::write_csv_header_string(&chunk, ',').as_bytes())
                        .map_err(io)?;
                    types = Some(type_letters(&chunk));
                }
                out.write_all(pnr_data::write_csv_rows_string(&chunk, ',').as_bytes())
                    .map_err(io)?;
            }
            types.ok_or("kddsim stream produced no rows")?
        }
        Family::Syngen | Family::Coad1 => {
            let data = family.synthetic(rows, seed);
            out.write_all(pnr_data::write_csv_string(&data, ',').as_bytes())
                .map_err(io)?;
            type_letters(&data)
        }
    };
    out.flush().map_err(io)?;
    Ok(TrainSet {
        csv: path.to_path_buf(),
        types,
        target,
    })
}

/// What one child-process fit reports.
#[derive(Debug, Clone)]
pub struct ChildFit {
    /// CSV on disk → artifact saved, timed inside the child.
    pub train_s: f64,
    /// Peak resident set of the child.
    pub rss_mb: f64,
    /// The saved artifact file, byte for byte.
    pub artifact: Vec<u8>,
}

/// Runs one fit in a fresh `pnr-bench fit-child` process.
pub fn fit_in_child(train: &TrainSet, out: &Path) -> Result<ChildFit, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate pnr-bench: {e}"))?;
    let output = Command::new(exe)
        .arg("fit-child")
        .arg(&train.csv)
        .arg(&train.types)
        .arg(train.target)
        .arg(out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn fit child: {e}"))?;
    if !output.status.success() {
        return Err(format!("fit child failed: {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let report = serde_json::parse(text.trim()).map_err(|e| format!("fit child output: {e}"))?;
    let field = |k: &str| {
        report
            .get(k)
            .and_then(serde::Content::as_f64)
            .ok_or_else(|| format!("fit child output lacks `{k}`: {text}"))
    };
    let artifact = std::fs::read(out).map_err(|e| format!("read {}: {e}", out.display()))?;
    Ok(ChildFit {
        train_s: field("train_s")?,
        rss_mb: field("rss_mb")?,
        artifact,
    })
}

/// `pnr-bench fit-child <csv> <types> <target> <artifact>`: the timed
/// fit, alone in its process. Prints `{"train_s":…,"rss_mb":…}`.
pub fn child_main(args: &[String]) -> ExitCode {
    let [csv, types, target, out] = args else {
        eprintln!("usage: pnr-bench fit-child <csv> <types> <target> <artifact>");
        return ExitCode::from(2);
    };
    match child_fit(Path::new(csv), types, target, Path::new(out)) {
        Ok((train_s, rss_mb)) => {
            println!("{{\"train_s\":{train_s},\"rss_mb\":{rss_mb}}}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fit-child: {e}");
            ExitCode::FAILURE
        }
    }
}

fn child_fit(csv: &Path, types: &str, target: &str, out: &Path) -> Result<(f64, f64), String> {
    let opts = CsvOptions {
        types: Some(parse_types(types)?),
        ..CsvOptions::default()
    };
    let start = Instant::now();
    let (data, _) = read_csv_chunked(csv, &opts, CHUNK_ROWS).map_err(|e| e.to_string())?;
    fit_artifact(&data, target)?
        .save(out)
        .map_err(|e| e.to_string())?;
    let train_s = start.elapsed().as_secs_f64();
    Ok((train_s, peak_rss_mb(None)?))
}

/// `fit_with_report` with default parameters, bundled as an artifact.
fn fit_artifact(data: &Dataset, target: &str) -> Result<ModelArtifact, String> {
    let code = data
        .class_code(target)
        .ok_or_else(|| format!("class `{target}` absent"))?;
    let params = PnruleParams::default();
    let (model, report) = PnruleLearner::new(params.clone()).fit_with_report(data, code);
    ModelArtifact::new(model, params, report, data.schema().clone()).map_err(|e| e.to_string())
}

/// The in-process reference: the same CSV loaded by the whole-file
/// reader, fit and rendered. Every child's artifact must equal it.
pub fn reference_artifact(train: &TrainSet) -> Result<Vec<u8>, String> {
    let data = pnr_data::read_csv(&train.csv, &train.csv_options()?).map_err(|e| e.to_string())?;
    fit_artifact(&data, train.target)?
        .to_file_string()
        .map(String::into_bytes)
        .map_err(|e| e.to_string())
}

/// F-measure of the saved artifact on `test`, scored through
/// `ServingModel` (schema reconciled by name, so dictionary order does
/// not matter).
pub fn test_f1(artifact: &Path, test: &Dataset, target: &str) -> Result<f64, String> {
    let serving = ServingModel::new(ModelArtifact::load(artifact).map_err(|e| e.to_string())?);
    let map = serving.reconcile_dataset(test).map_err(|e| e.to_string())?;
    let code = test
        .class_code(target)
        .ok_or_else(|| format!("test set has no class `{target}`"))?;
    let mut decisions = Vec::with_capacity(test.n_rows());
    for row in 0..test.n_rows() {
        let rec = serving
            .score_dataset_row(test, &map, row)
            .map_err(|e| format!("test row {row}: {e}"))?;
        decisions.push((rec.decision, test.label(row) == code));
    }
    Ok(f1(&decisions))
}

/// F-measure of `(predicted, actual)` pairs; 0 when nothing is positive.
pub fn f1(pairs: &[(bool, bool)]) -> f64 {
    let count = |p: bool, a: bool| pairs.iter().filter(|&&x| x == (p, a)).count() as f64;
    let (tp, fp, fn_) = (count(true, true), count(true, false), count(false, true));
    if tp == 0.0 {
        0.0
    } else {
        2.0 * tp / (2.0 * tp + fp + fn_)
    }
}

/// Cold starts of a scorer from the artifact on disk (`load_with_retry`
/// then `ServingModel::new`, what the daemon pays at start and on every
/// swap), timed in short bursts spread over a run. The machine's speed
/// shifts every few hundred milliseconds; one long burst would measure
/// whichever phase it fell in.
#[derive(Debug, Default)]
pub struct SetupTimes {
    total: Vec<f64>,
    load: Vec<f64>,
}

impl SetupTimes {
    /// Times cold starts for `span`, after [`SETUP_WARMUP`] of untimed
    /// ones: a core that sat idle runs the first few slowly.
    pub fn burst(&mut self, artifact: &Path, span: Duration) -> Result<(), String> {
        let start = Instant::now();
        loop {
            let t = Instant::now();
            let loaded =
                load_with_retry(artifact, &RetryPolicy::default()).map_err(|e| e.to_string())?;
            let loaded_at = t.elapsed().as_secs_f64();
            std::hint::black_box(ServingModel::new(loaded));
            let since = start.elapsed();
            if since > SETUP_WARMUP {
                self.total.push(t.elapsed().as_secs_f64());
                self.load.push(loaded_at);
                if since > SETUP_WARMUP + span {
                    return Ok(());
                }
            }
        }
    }

    /// Median cold start, whole and its load part: `(setup_s,
    /// artifact.load_s)`.
    pub fn medians(&self) -> (f64, f64) {
        (median(&self.total), median(&self.load))
    }
}

/// Untimed cold starts at the head of each [`SetupTimes::burst`].
const SETUP_WARMUP: Duration = Duration::from_millis(10);

/// Per-layer times and counters of one traced fit.
#[derive(Debug, Clone, Default)]
pub struct FitLayers {
    pub ingest_s: f64,
    pub pphase_s: f64,
    pub pphase_rules: f64,
    pub pool_s: f64,
    pub pool_rows: f64,
    pub nphase_s: f64,
    pub nphase_rules: f64,
    pub nphase_mdl_truncated: f64,
    pub scorematrix_s: f64,
    pub scorematrix_cells: f64,
    pub save_s: f64,
    pub total_s: f64,
    pub conditions_evaluated: f64,
    pub view_cold_builds: f64,
    pub view_warm_hits: f64,
}

impl FitLayers {
    /// Traced total minus the layers it was split into.
    pub fn unattributed_s(&self) -> f64 {
        self.total_s
            - (self.ingest_s
                + self.pphase_s
                + self.pool_s
                + self.nphase_s
                + self.scorematrix_s
                + self.save_s)
    }
}

/// One fit with every layer timed from here, saved to `out`. The
/// pipeline is `pnr_core`'s `run_fit` spelled out through public calls;
/// the caller compares the saved bytes with the untraced artifact.
pub fn traced_fit(train: &TrainSet, out: &Path) -> Result<FitLayers, String> {
    let recording = Arc::new(RecordingSink::new());
    let sink: Arc<dyn TelemetrySink> = recording.clone();
    let mut layers = FitLayers::default();
    let opts = train.csv_options()?;
    let start = Instant::now();

    let (data, _) = read_csv_chunked(&train.csv, &opts, CHUNK_ROWS).map_err(|e| e.to_string())?;
    layers.ingest_s = start.elapsed().as_secs_f64();
    let target = data
        .class_code(train.target)
        .ok_or_else(|| format!("class `{}` absent", train.target))?;
    let params = PnruleParams::default();
    let is_pos: Vec<bool> = (0..data.n_rows())
        .map(|r| data.label(r) == target)
        .collect();
    let weights = data.weights();
    let view = TaskView::full(&data, &is_pos, weights);
    let orig_pos_total = view.pos_weight();
    let budget = params.budget.start().map(Arc::new);

    let t = Instant::now();
    let p = learn_p_rules_with_sink(&view, &params, budget.as_ref(), &sink);
    layers.pphase_s = t.elapsed().as_secs_f64();
    layers.pphase_rules = p.rules.len() as f64;
    let p_rules = RuleSet::from_rules(p.rules.iter().map(|r| r.rule.clone()).collect());

    let t = Instant::now();
    let n_rows = u32::try_from(data.n_rows()).map_err(|_| "too many rows for u32 row ids")?;
    let pooled_rows: RowSet = (0..n_rows)
        .filter(|&r| p_rules.any_match(&data, r as usize))
        .collect();
    let covered_pos = pnr_data::ordered_sum(
        pooled_rows
            .iter()
            .filter(|&r| is_pos[r as usize])
            .map(|r| weights[r as usize]),
    );
    let pool_size = pooled_rows.len();
    let pool_total = pooled_rows.total_weight(weights);
    let flipped: Vec<bool> = is_pos.iter().map(|&p| !p).collect();
    let pooled = TaskView::over(&data, pooled_rows, &flipped, weights);
    layers.pool_s = t.elapsed().as_secs_f64();
    layers.pool_rows = pool_size as f64;

    let t = Instant::now();
    let (n_rules, n_rule_stats, retained_recall, n_stop_reason, n_mdl_truncated, n_dl_trace) =
        if params.enable_n_phase && !p_rules.is_empty() {
            let n = learn_n_rules_with_sink(
                &pooled,
                orig_pos_total,
                covered_pos,
                &params,
                budget.as_ref(),
                &sink,
            );
            let stats = n.rules.iter().map(|r| r.stats).collect();
            (
                RuleSet::from_rules(n.rules.into_iter().map(|r| r.rule).collect()),
                stats,
                n.retained_recall,
                n.stop_reason,
                n.mdl_truncated,
                n.dl_trace,
            )
        } else {
            let achieved = if orig_pos_total > 0.0 {
                covered_pos / orig_pos_total
            } else {
                0.0
            };
            let none = Vec::new();
            let trace = Vec::new();
            (
                RuleSet::new(),
                none,
                achieved,
                StopReason::Exhausted,
                0,
                trace,
            )
        };
    layers.nphase_s = t.elapsed().as_secs_f64();
    layers.nphase_rules = n_rules.len() as f64;
    layers.nphase_mdl_truncated = n_mdl_truncated as f64;

    let t = Instant::now();
    let score_matrix = ScoreMatrix::build_with_sink(
        &data,
        &is_pos,
        &p_rules,
        &n_rules,
        params.scoring_z_threshold,
        &sink,
    );
    layers.scorematrix_s = t.elapsed().as_secs_f64();
    layers.scorematrix_cells = (score_matrix.n_p() * (score_matrix.n_n() + 1)) as f64;

    let report = FitReport {
        p_covered_recall: p.covered_recall,
        p_rule_stats: p.rules.iter().map(|r| r.stats).collect(),
        pool_size,
        pool_fp_weight: pool_total - covered_pos,
        n_rule_stats,
        retained_recall,
        p_stop_reason: p.stop_reason,
        n_stop_reason,
        n_mdl_truncated,
        n_dl_trace,
        candidates_charged: budget.as_ref().map(|t| t.candidates_charged()),
    };
    let model = PnruleModel {
        target,
        threshold: params.decision_threshold,
        p_rules,
        n_rules,
        score_matrix,
    };
    let t = Instant::now();
    ModelArtifact::new(model, params, report, data.schema().clone())
        .and_then(|a| a.save(out))
        .map_err(|e| e.to_string())?;
    layers.save_s = t.elapsed().as_secs_f64();
    layers.total_s = start.elapsed().as_secs_f64();

    layers.conditions_evaluated = recording.value(Counter::ConditionsEvaluated) as f64;
    layers.view_cold_builds = recording.value(Counter::ViewColdBuilds) as f64;
    layers.view_warm_hits = recording.value(Counter::ViewWarmHits) as f64;
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_counts_true_and_false_positives() {
        let pairs = [(true, true), (true, false), (false, true), (false, false)];
        assert!((f1(&pairs) - 0.5).abs() < 1e-12);
        assert_eq!(f1(&[(false, true)]), 0.0);
    }

    #[test]
    fn type_letters_round_trip() {
        let types = parse_types("ncn").unwrap();
        assert_eq!(
            types,
            [AttrType::Numeric, AttrType::Categorical, AttrType::Numeric]
        );
        assert!(parse_types("x").is_err());
    }
}
