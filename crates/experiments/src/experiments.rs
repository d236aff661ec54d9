//! Definitions of every table/figure experiment.
//!
//! Every experiment builds its data through one constructor,
//! [`PaperData::generate`], and runs its (method, dataset) cells through
//! [`run_cells`]. Cells run on a small worker pool with **panic
//! isolation**: a cell whose fit panics becomes a [`JobOutcome::Failed`]
//! carrying the panic message, and every sibling cell still completes.
//! Completed cells are persisted through the [`Checkpoint`] store as
//! they finish, so an interrupted table run resumes from where it died.

use crate::checkpoint::{CellKey, Checkpoint};
use crate::cli::CliOptions;
use crate::methods::{pnrule_variant_grid, run_method, run_pnrule_best, Method};
use crate::report::{print_experiment, run_status, write_json, ExperimentResult, ResultRow};
use pnr_core::panic_capture::run_caught;
use pnr_core::PnruleParams;
use pnr_data::{subsample_class, Dataset};
use pnr_metrics::PrfReport;
use pnr_rules::EvalMetric;
use pnr_synth::categorical::CategoricalModelConfig;
use pnr_synth::general::GeneralModelConfig;
use pnr_synth::numeric::NumericModelConfig;
use pnr_synth::{SynthScale, TARGET_CLASS};
use pnr_telemetry::{RecordingSink, TelemetrySink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, PoisonError};

/// A boxed unit of work returning `T`.
pub type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// A boxed experiment cell: receives the cell's telemetry sink (a fresh
/// [`RecordingSink`] under `--telemetry`, the shared no-op otherwise) and
/// returns its report. The sink is write-only observation — a cell must
/// produce the identical report whatever sink it is handed.
pub type CellJob<'a> = Box<dyn FnOnce(&Arc<dyn TelemetrySink>) -> PrfReport + Send + 'a>;

/// What happened to one labelled job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome<T> {
    /// The job completed and returned its value.
    Done {
        /// The label the job was submitted under.
        label: String,
        /// The job's return value.
        value: T,
    },
    /// The job panicked; the run continues and reports the cell as failed.
    Failed {
        /// The label the job was submitted under.
        label: String,
        /// The captured panic message (with source location when known).
        reason: String,
    },
}

impl<T> JobOutcome<T> {
    /// The label the job was submitted under.
    pub fn label(&self) -> &str {
        match self {
            JobOutcome::Done { label, .. } | JobOutcome::Failed { label, .. } => label,
        }
    }
}

/// Runs the labelled closures on `threads` workers, returning outcomes in
/// input order. Each closure is independent (one method on one dataset)
/// and runs under the panic boundary [`run_caught`]: a panicking job
/// yields [`JobOutcome::Failed`] with the panic message and location
/// while every other job still runs to completion.
pub fn run_jobs<T: Send>(jobs: Vec<(String, Job<'_, T>)>, threads: usize) -> Vec<JobOutcome<T>> {
    type QueuedJob<'a, T> = (usize, (String, Job<'a, T>));
    let n = jobs.len();
    let slots: Mutex<Vec<Option<JobOutcome<T>>>> = Mutex::new((0..n).map(|_| None).collect());
    let queue: Mutex<Vec<QueuedJob<'_, T>>> = Mutex::new(jobs.into_iter().enumerate().collect());
    std::thread::scope(|s| {
        for _ in 0..threads.max(1).min(n.max(1)) {
            s.spawn(|| loop {
                let job = queue.lock().unwrap_or_else(PoisonError::into_inner).pop();
                match job {
                    Some((i, (label, f))) => {
                        let outcome = match run_caught(f) {
                            Ok(value) => JobOutcome::Done { label, value },
                            Err(reason) => JobOutcome::Failed { label, reason },
                        };
                        slots.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(outcome);
                    }
                    None => break,
                }
            });
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| JobOutcome::Failed {
                label: format!("job#{i}"),
                reason: "worker exited before storing a result".to_string(),
            })
        })
        .collect()
}

/// Runs one experiment's cells with checkpoint/resume: cells already
/// completed under the same (experiment, method, scale, seed) are loaded
/// from `<out_dir>/checkpoints/` instead of re-run (when `opts.resume`),
/// and freshly completed cells are persisted *inside the worker* the
/// moment they finish — a killed run loses at most the in-flight cells.
/// Panicking cells become failed rows; failures are never checkpointed.
///
/// With `opts.telemetry`, each freshly run cell fits against its own
/// [`RecordingSink`] and, once its row is checkpointed, exports the
/// recording as NDJSON under `<out_dir>/telemetry/` keyed by the same
/// cell fingerprint (see [`crate::telemetry_out`]). Cells served from
/// checkpoints never re-run and therefore write no telemetry.
pub fn run_cells(
    exp_id: &str,
    opts: &CliOptions,
    jobs: Vec<(String, CellJob<'_>)>,
) -> Vec<ResultRow> {
    let ckpt = Checkpoint::new(&opts.out_dir, opts.resume);
    let mut rows: Vec<Option<ResultRow>> = (0..jobs.len()).map(|_| None).collect();
    let mut indices = Vec::new();
    let mut pending: Vec<(String, Job<'_, ResultRow>)> = Vec::new();
    for (i, (label, job)) in jobs.into_iter().enumerate() {
        let key = CellKey {
            experiment: exp_id.to_string(),
            method: label.clone(),
            scale: opts.scale,
            seed: opts.seed,
        };
        if let Some(row) = ckpt.load(&key) {
            rows[i] = Some(row);
            continue;
        }
        indices.push(i);
        let store = ckpt.clone();
        let row_label = label.clone();
        let telemetry = opts.telemetry;
        let out_dir = opts.out_dir.clone();
        pending.push((
            label,
            Box::new(move || {
                let recorder = if telemetry {
                    Some(Arc::new(RecordingSink::new()))
                } else {
                    None
                };
                let sink: Arc<dyn TelemetrySink> = match &recorder {
                    Some(r) => r.clone(),
                    None => pnr_telemetry::noop(),
                };
                let row = ResultRow::new(row_label, job(&sink));
                store.store(&key, &row);
                if let Some(recorder) = recorder {
                    crate::telemetry_out::write_cell(&out_dir, &key, &recorder);
                }
                row
            }),
        ));
    }
    for (slot, outcome) in indices.into_iter().zip(run_jobs(pending, opts.threads)) {
        rows[slot] = Some(match outcome {
            JobOutcome::Done { value, .. } => value,
            JobOutcome::Failed { label, reason } => ResultRow::failed(label, reason),
        });
    }
    rows.into_iter()
        .enumerate()
        .map(|(i, row)| {
            row.unwrap_or_else(|| ResultRow::failed(format!("cell#{i}"), "missing result"))
        })
        .collect()
}

/// The shared `main` of the result binaries: parses [`CliOptions`] from
/// the process arguments, runs `experiment`, prints every experiment,
/// writes `<out>/<name>.json` and exits with [`run_status`].
pub fn run_main(name: &str, experiment: impl FnOnce(&CliOptions) -> Vec<ExperimentResult>) -> ! {
    let opts = CliOptions::from_env();
    let results = experiment(&opts);
    for exp in &results {
        print_experiment(exp);
    }
    let path = write_json(&opts.out_dir, name, &results).expect("write results");
    eprintln!("results written to {}", path.display());
    std::process::exit(run_status(&results));
}

/// The dataset spellings [`PaperData::parse`] accepts, listed whenever a
/// name fails to resolve so the user never faces a bare error.
const VALID_DATASETS: &str = "nsyn1..nsyn6, coa1..coa6, coad1..coad4, syngen, \
kdd:<normal|dos|probe|r2l|u2r> (numeric/general names take optional \
:tr=<f>/:nr=<f> suffixes)";

/// The data of one paper experiment: a synthetic model's configuration,
/// or the KDD'99 simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum PaperData {
    /// The numeric-only peaks model (`nsyn1..6`).
    Numeric(NumericModelConfig),
    /// The categorical-only model (`coa1..6`, `coad1..4`).
    Categorical(CategoricalModelConfig),
    /// The general model (`syngen`).
    General(GeneralModelConfig),
    /// The KDD'99 simulation, sized by [`kdd_sizes`].
    Kdd,
}

impl PaperData {
    /// The `(train, test)` pair at `opts.scale`: train from `opts.seed`,
    /// test from `opts.seed + 1`.
    pub fn generate(&self, opts: &CliOptions) -> (Dataset, Dataset) {
        let train = SynthScale::paper_train().scaled_by(opts.scale);
        let test = SynthScale::paper_test().scaled_by(opts.scale);
        let seed = opts.seed;
        match self {
            PaperData::Numeric(cfg) => (
                pnr_synth::numeric::generate(cfg, &train, seed),
                pnr_synth::numeric::generate(cfg, &test, seed + 1),
            ),
            PaperData::Categorical(cfg) => (
                pnr_synth::categorical::generate(cfg, &train, seed),
                pnr_synth::categorical::generate(cfg, &test, seed + 1),
            ),
            PaperData::General(cfg) => (
                pnr_synth::general::generate(cfg, &train, seed),
                pnr_synth::general::generate(cfg, &test, seed + 1),
            ),
            PaperData::Kdd => {
                let (n_train, n_test) = kdd_sizes(opts);
                (
                    pnr_kddsim::generate_train(n_train, seed),
                    pnr_kddsim::generate_test(n_test, seed + 1),
                )
            }
        }
    }

    /// Resolves a dataset spelling — `nsyn1..6`, `coa1..6`, `coad1..4`,
    /// `syngen` or `kdd:<class>` — to its data and target class. Optional
    /// `:tr=<f>`/`:nr=<f>` suffixes override the peak widths of the
    /// numeric and general models; the categorical models have no widths
    /// to override. An unknown spelling, or a suffix on a name that takes
    /// none, is an `Err` listing the valid ones.
    pub fn parse(spec: &str) -> Result<(PaperData, &str), String> {
        if let Some(class) = spec.strip_prefix("kdd:") {
            if !pnr_kddsim::CLASSES.contains(&class) {
                return Err(format!(
                    "unknown kdd class {class:?}; valid datasets: {VALID_DATASETS}"
                ));
            }
            return Ok((PaperData::Kdd, class));
        }
        let mut parts = spec.split(':');
        let name = parts.next().unwrap_or(spec);
        let (mut tr, mut nr) = (None, None);
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .filter(|(key, _)| matches!(*key, "tr" | "nr"))
                .ok_or_else(|| {
                    format!("unknown dataset suffix {part:?}; valid datasets: {VALID_DATASETS}")
                })?;
            let width = value
                .parse::<f64>()
                .map_err(|_| format!("suffix {key}= takes a float, got {value:?}"))?;
            *(if key == "tr" { &mut tr } else { &mut nr }) = Some(width);
        }
        let unknown = || format!("unknown dataset {name:?}; valid datasets: {VALID_DATASETS}");
        let data = if name == "syngen" {
            let mut cfg = GeneralModelConfig::default();
            (cfg.tr, cfg.nr) = (tr.unwrap_or(cfg.tr), nr.unwrap_or(cfg.nr));
            PaperData::General(cfg)
        } else if let Some(i) = name.strip_prefix("nsyn") {
            let i = i
                .parse()
                .ok()
                .filter(|i| (1..=6).contains(i))
                .ok_or_else(unknown)?;
            let mut cfg = NumericModelConfig::nsyn(i);
            (cfg.tr, cfg.nr) = (tr.unwrap_or(cfg.tr), nr.unwrap_or(cfg.nr));
            PaperData::Numeric(cfg)
        } else {
            let cfg = categorical_config(name).ok_or_else(unknown)?;
            if tr.is_some() || nr.is_some() {
                return Err(format!(
                    "dataset {name:?} takes no width suffix; valid datasets: {VALID_DATASETS}"
                ));
            }
            PaperData::Categorical(cfg)
        };
        Ok((data, TARGET_CLASS))
    }
}

/// KDD simulation sizes: the contest's 10% training sample (~494k) and the
/// test set (~311k), shrunk by the scale factor.
pub fn kdd_sizes(opts: &CliOptions) -> (usize, usize) {
    (
        ((494_021.0 * opts.scale).round() as usize).max(1_000),
        ((311_029.0 * opts.scale).round() as usize).max(1_000),
    )
}

/// The common description tail: `train <n> test <n> (scale <f>)`.
fn sizes((train, test): &(Dataset, Dataset), opts: &CliOptions) -> String {
    format!(
        "train {} test {} (scale {})",
        train.n_rows(),
        test.n_rows(),
        opts.scale
    )
}

/// A cell fitting `method` on `train` and scoring it on `test`.
fn method_cell<'a>(
    method: Method,
    train: &'a Dataset,
    test: &'a Dataset,
    target: u32,
) -> CellJob<'a> {
    Box::new(move |sink: &Arc<dyn TelemetrySink>| run_method(&method, train, test, target, sink))
}

/// Fills `exp`'s rows from `data` for `class`: a cell per baseline, under
/// its paper label, then a `PNrule` cell keeping the best test F over
/// `grid`. Under `--save-model` the PNrule cell saves its winning model
/// as `<exp id>-PNrule.artifact`.
fn compare(
    mut exp: ExperimentResult,
    opts: &CliOptions,
    (train, test): &(Dataset, Dataset),
    class: &str,
    baselines: &[Method],
    grid: &[PnruleParams],
) -> ExperimentResult {
    let target = train.class_code(class).expect("target class");
    let mut jobs: Vec<(String, CellJob<'_>)> = baselines
        .iter()
        .map(|m| {
            (
                m.label().to_string(),
                method_cell(m.clone(), train, test, target),
            )
        })
        .collect();
    let (save_dir, exp_id) = (opts.save_model.clone(), exp.id.clone());
    jobs.push((
        "PNrule".to_string(),
        Box::new(move |sink: &Arc<dyn TelemetrySink>| {
            let best = run_pnrule_best(train, test, target, grid, sink);
            if let Some(dir) = &save_dir {
                crate::artifact_out::save_pnrule_artifact(
                    dir,
                    &exp_id,
                    best.model,
                    best.params,
                    best.fit_report,
                    train.schema().clone(),
                );
            }
            best.report
        }),
    ));
    exp.rows = run_cells(&exp.id, opts, jobs);
    exp
}

/// One experiment per `(tr, nr)` in `widths²`, on the model `data` builds
/// for those peak widths, against `baselines` and the PNrule variant grid.
fn width_grid(
    name: &str,
    widths: &[f64],
    opts: &CliOptions,
    data: impl Fn(f64, f64) -> PaperData,
    baselines: &[Method],
) -> Vec<ExperimentResult> {
    let mut out = Vec::new();
    for &tr in widths {
        for &nr in widths {
            let pair = data(tr, nr).generate(opts);
            let exp = ExperimentResult::new(format!("{name} tr={tr} nr={nr}"), sizes(&pair, opts));
            let grid = pnrule_variant_grid();
            out.push(compare(exp, opts, &pair, TARGET_CLASS, baselines, &grid));
        }
    }
    out
}

/// `C`, `Cte`, `R` and `Re`: the baselines of Table 1 and Figure 1.
const ALL_BASELINES: [Method; 4] = [
    Method::C45Rules,
    Method::C45TreeWe,
    Method::Ripper,
    Method::RipperWe,
];

/// **Table 1** — `nsyn1..nsyn6`, five classifiers each.
pub fn table1(opts: &CliOptions) -> Vec<ExperimentResult> {
    (1..=6)
        .map(|i| {
            let cfg = NumericModelConfig::nsyn(i);
            let pair = PaperData::Numeric(cfg.clone()).generate(opts);
            let description = format!(
                "nsptc={} ntc={} nspntc={} tr={} nr={} | {}",
                cfg.nsptc,
                cfg.ntc,
                cfg.nspntc,
                cfg.tr,
                cfg.nr,
                sizes(&pair, opts)
            );
            let exp = ExperimentResult::new(format!("table1/nsyn{i}"), description);
            compare(
                exp,
                opts,
                &pair,
                TARGET_CLASS,
                &ALL_BASELINES,
                &pnrule_variant_grid(),
            )
        })
        .collect()
}

/// **Figure 1** — nsyn3 under the `tr × nr ∈ {0.2, 2, 4}²` grid.
pub fn figure1(opts: &CliOptions) -> Vec<ExperimentResult> {
    let nsyn3 = |tr, nr| PaperData::Numeric(NumericModelConfig::nsyn(3).with_widths(tr, nr));
    width_grid(
        "figure1/nsyn3",
        &[0.2, 2.0, 4.0],
        opts,
        nsyn3,
        &ALL_BASELINES,
    )
}

/// **Table 2** — nsyn5 under `tr × nr ∈ {0.2, 4}²`; `Cte`, `Re`, `P` rows.
pub fn table2(opts: &CliOptions) -> Vec<ExperimentResult> {
    let nsyn5 = |tr, nr| PaperData::Numeric(NumericModelConfig::nsyn(5).with_widths(tr, nr));
    let baselines = [Method::C45TreeWe, Method::RipperWe];
    width_grid("table2/nsyn5", &[0.2, 4.0], opts, nsyn5, &baselines)
}

/// The ten categorical dataset names of Table 3.
pub fn categorical_dataset_names() -> Vec<String> {
    (1..=6)
        .map(|i| format!("coa{i}"))
        .chain((1..=4).map(|i| format!("coad{i}")))
        .collect()
}

/// Resolves a Table-3 categorical dataset name (`coa1..coa6`,
/// `coad1..coad4`) to its generator config, or `None` for an unknown
/// name — callers surface the error instead of panicking.
pub fn categorical_config(name: &str) -> Option<CategoricalModelConfig> {
    if let Some(i) = name.strip_prefix("coad") {
        let i: usize = i.parse().ok().filter(|i| (1..=4).contains(i))?;
        Some(CategoricalModelConfig::coad(i))
    } else if let Some(i) = name.strip_prefix("coa") {
        let i: usize = i.parse().ok().filter(|i| (1..=6).contains(i))?;
        Some(CategoricalModelConfig::coa(i))
    } else {
        None
    }
}

/// **Table 3** — the ten categorical-only datasets; `C4.5rules`, `RIPPER`,
/// `PNrule` rows.
pub fn table3(opts: &CliOptions) -> Vec<ExperimentResult> {
    categorical_dataset_names()
        .into_iter()
        .filter_map(|name| {
            let cfg = categorical_config(&name)?;
            let pair = PaperData::Categorical(cfg).generate(opts);
            let description = format!(
                "t(na={},nspa={},V={}) nt(na={},nspa={},V={}) | train {} test {}",
                cfg.target.na,
                cfg.target.nspa,
                cfg.target.vocab,
                cfg.non_target.na,
                cfg.non_target.nspa,
                cfg.non_target.vocab,
                pair.0.n_rows(),
                pair.1.n_rows()
            );
            let exp = ExperimentResult::new(format!("table3/{name}"), description);
            let (baselines, grid) = ([Method::C45Rules, Method::Ripper], pnrule_variant_grid());
            Some(compare(exp, opts, &pair, TARGET_CLASS, &baselines, &grid))
        })
        .collect()
}

/// **Table 4** — syngen under `tr × nr ∈ {0.2, 4}²`; `C`, `Re`, `P` rows.
pub fn table4(opts: &CliOptions) -> Vec<ExperimentResult> {
    let syngen = |tr, nr| PaperData::General(GeneralModelConfig::default().with_widths(tr, nr));
    let baselines = [Method::C45Rules, Method::RipperWe];
    width_grid("table4/syngen", &[0.2, 4.0], opts, syngen, &baselines)
}

/// **Table 5** — effect of target-class proportion: the non-target class of
/// syngen is subsampled by `ntc-frac`, raising the target fraction from
/// 0.3% towards 50%.
pub fn table5(opts: &CliOptions) -> Vec<ExperimentResult> {
    let mut out = Vec::new();
    for (tr, nr, fracs) in [
        (0.2, 0.2, vec![1.0, 0.5, 0.1, 0.05, 0.02, 0.01, 0.003]),
        (4.0, 4.0, vec![1.0, 0.1, 0.05, 0.02, 0.01]),
    ] {
        let cfg = GeneralModelConfig::default().with_widths(tr, nr);
        let (full_train, full_test) = PaperData::General(cfg).generate(opts);
        let target = full_train.class_code(TARGET_CLASS).expect("target");
        let non_target = full_train
            .class_code(pnr_synth::NON_TARGET_CLASS)
            .expect("nc");
        for frac in fracs {
            let frac: f64 = frac;
            let mut rng = StdRng::seed_from_u64(opts.seed ^ frac.to_bits());
            let train = subsample_class(&full_train, non_target, frac, &mut rng);
            let test = subsample_class(&full_test, non_target, frac, &mut rng);
            let tc_pct =
                100.0 * train.class_counts()[target as usize] as f64 / train.n_rows() as f64;
            let exp = ExperimentResult::new(
                format!("table5/syngen tr={tr} nr={nr} ntc-frac={frac}"),
                format!("target proportion {tc_pct:.1}% | train {}", train.n_rows()),
            );
            let (baselines, grid) = ([Method::C45Rules, Method::Ripper], pnrule_variant_grid());
            out.push(compare(
                exp,
                opts,
                &(train, test),
                TARGET_CLASS,
                &baselines,
                &grid,
            ));
        }
    }
    out
}

/// **Table 6** — simulated KDD'99, classes `probe` and `r2l`: each baseline
/// reports its best of {as-is, stratified}; PNrule runs with the default
/// two-phase settings (the "old PNrule" configuration).
pub fn table6(opts: &CliOptions) -> Vec<ExperimentResult> {
    let pair = PaperData::Kdd.generate(opts);
    let baselines = [
        Method::BestOf(vec![Method::C45Rules, Method::C45TreeWe]),
        Method::BestOf(vec![Method::Ripper, Method::RipperWe]),
    ];
    ["probe", "r2l"]
        .iter()
        .map(|class| {
            let exp = ExperimentResult::new(
                format!("table6/{class}"),
                format!("KDD sim | {}", sizes(&pair, opts)),
            );
            compare(
                exp,
                opts,
                &pair,
                class,
                &baselines,
                &[PnruleParams::default()],
            )
        })
        .collect()
}

/// The section-4 `rp × rn` parameter grids. `p1` restricts P-rules to one
/// condition; the metric is RIPPER's information gain, as in the paper.
pub fn rp_rn_grid(
    opts: &CliOptions,
    class: &str,
    rps: &[f64],
    rns: &[f64],
    p1: bool,
) -> Vec<ExperimentResult> {
    let (train, test) = PaperData::Kdd.generate(opts);
    let target = train.class_code(class).expect("class exists");
    let suffix = if p1 { ".P1" } else { "" };
    let mut out = Vec::new();
    for &rp in rps {
        let id = format!("section4/{class}{suffix} rp={rp}");
        let jobs = rns
            .iter()
            .map(|&rn| {
                let params = PnruleParams {
                    metric: EvalMetric::FoilGain,
                    max_p_rule_len: if p1 { Some(1) } else { None },
                    ..PnruleParams::with_recall_limits(rp, rn)
                };
                let cell = method_cell(Method::Pnrule(params), &train, &test, target);
                (format!("rn={rn}"), cell)
            })
            .collect();
        out.push(ExperimentResult {
            rows: run_cells(&id, opts, jobs),
            id,
            description: format!("KDD sim | train {} test {}", train.n_rows(), test.n_rows()),
        });
    }
    out
}

/// Ablations of PNrule's design choices (beyond the paper), each on nsyn3
/// and the KDD simulation's `probe` class:
///
/// * `ablation_range` — explicit range conditions ON vs OFF in the
///   condition search;
/// * `ablation_nphase` — the N-phase ON vs OFF (OFF degenerates PNrule to
///   a relaxed-accuracy sequential coverer);
/// * `ablation_scoring` — the ScoreMatrix significance threshold: 0 takes
///   every raw cell estimate, a large threshold makes every cell fall back
///   to its P-rule row estimate (the crisp "P and not N" decision).
pub fn ablations(opts: &CliOptions) -> Vec<ExperimentResult> {
    let tasks = [
        (
            "nsyn3",
            PaperData::Numeric(NumericModelConfig::nsyn(3)).generate(opts),
            TARGET_CLASS,
        ),
        ("kdd-probe", PaperData::Kdd.generate(opts), "probe"),
    ];
    let variant = |edit: fn(&mut PnruleParams)| {
        let mut params = PnruleParams::default();
        edit(&mut params);
        params
    };
    let studies = [
        (
            "ablation_range",
            "explicit range conditions in the search",
            vec![
                ("ranges on", variant(|_| {})),
                ("ranges off", variant(|p| p.use_ranges = false)),
            ],
        ),
        (
            "ablation_nphase",
            "second phase on/off (off = relaxed-accuracy sequential covering)",
            vec![
                ("N-phase on", variant(|_| {})),
                ("N-phase off", variant(|p| p.enable_n_phase = false)),
            ],
        ),
        (
            "ablation_scoring",
            "ScoreMatrix significance threshold (0 = raw cells, huge = crisp P-and-not-N per row)",
            vec![
                ("z=0 (raw cells)", variant(|p| p.scoring_z_threshold = 0.0)),
                ("z=1 (default)", variant(|p| p.scoring_z_threshold = 1.0)),
                ("z=3", variant(|p| p.scoring_z_threshold = 3.0)),
            ],
        ),
    ];
    let mut out = Vec::new();
    for (name, (train, test), class) in &tasks {
        let target = train.class_code(class).expect("target class");
        for (study, description, variants) in &studies {
            let id = format!("{study}/{name}");
            let jobs = variants
                .iter()
                .map(|(label, params)| {
                    let cell = method_cell(Method::Pnrule(params.clone()), train, test, target);
                    (label.to_string(), cell)
                })
                .collect();
            out.push(ExperimentResult {
                rows: run_cells(&id, opts, jobs),
                id,
                description: description.to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> CliOptions {
        CliOptions {
            scale: 0.004,
            threads: 4,
            resume: false,
            ..Default::default()
        }
    }

    fn labelled<T: Send + 'static>(
        items: Vec<(&str, Job<'static, T>)>,
    ) -> Vec<(String, Job<'static, T>)> {
        items.into_iter().map(|(l, f)| (l.to_string(), f)).collect()
    }

    #[test]
    fn run_jobs_preserves_order() {
        let jobs: Vec<(String, Job<'_, usize>)> = (0..20usize)
            .map(|i| (format!("j{i}"), Box::new(move || i * i) as Job<'_, usize>))
            .collect();
        let out = run_jobs(jobs, 3);
        for (i, outcome) in out.iter().enumerate() {
            assert_eq!(outcome.label(), format!("j{i}"));
            match outcome {
                JobOutcome::Done { value, .. } => assert_eq!(*value, i * i),
                JobOutcome::Failed { reason, .. } => panic!("job {i} failed: {reason}"),
            }
        }
    }

    #[test]
    fn run_jobs_single_thread_and_empty() {
        let out = run_jobs(labelled(vec![("only", Box::new(|| 7u8))]), 1);
        assert_eq!(
            out,
            vec![JobOutcome::Done {
                label: "only".to_string(),
                value: 7
            }]
        );
        let none: Vec<(String, Job<'_, u8>)> = vec![];
        assert!(run_jobs(none, 4).is_empty());
    }

    #[test]
    fn panicking_job_fails_alone_and_siblings_complete() {
        let jobs = labelled::<u32>(vec![
            ("ok-a", Box::new(|| 1)),
            ("boom", Box::new(|| panic!("synthetic failure {}", 41 + 1))),
            ("ok-b", Box::new(|| 3)),
        ]);
        let out = run_jobs(jobs, 2);
        assert_eq!(out.len(), 3);
        assert_eq!(
            out[0],
            JobOutcome::Done {
                label: "ok-a".to_string(),
                value: 1
            }
        );
        match &out[1] {
            JobOutcome::Failed { label, reason } => {
                assert_eq!(label, "boom");
                assert!(reason.contains("synthetic failure 42"), "{reason}");
                assert!(reason.contains("experiments.rs"), "location in {reason}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(
            out[2],
            JobOutcome::Done {
                label: "ok-b".to_string(),
                value: 3
            }
        );
    }

    #[test]
    fn run_cells_turns_panics_into_failed_rows() {
        let opts = CliOptions {
            threads: 2,
            resume: false,
            ..Default::default()
        };
        let jobs: Vec<(String, CellJob<'_>)> = vec![
            (
                "good".to_string(),
                Box::new(|_sink: &Arc<dyn TelemetrySink>| PrfReport {
                    recall: 1.0,
                    precision: 1.0,
                    f: 1.0,
                }),
            ),
            (
                "bad".to_string(),
                Box::new(|_sink: &Arc<dyn TelemetrySink>| -> PrfReport { panic!("cell exploded") }),
            ),
        ];
        let rows = run_cells("unit/panic", &opts, jobs);
        assert_eq!(rows.len(), 2);
        assert!(!rows[0].is_failed());
        assert!(rows[1].is_failed());
        assert!(
            rows[1]
                .error
                .as_deref()
                .unwrap_or("")
                .contains("cell exploded"),
            "{:?}",
            rows[1].error
        );
    }

    #[test]
    fn run_cells_resumes_from_checkpoints() {
        let dir = std::env::temp_dir().join(format!("pnr_cells_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opts = CliOptions {
            out_dir: dir.to_string_lossy().to_string(),
            threads: 2,
            resume: true,
            ..Default::default()
        };
        let report = PrfReport {
            recall: 0.5,
            precision: 0.5,
            f: 0.5,
        };
        let first = run_cells(
            "unit/resume",
            &opts,
            vec![(
                "m".to_string(),
                Box::new(move |_sink: &Arc<dyn TelemetrySink>| report) as CellJob<'_>,
            )],
        );
        assert!(!first[0].is_failed());
        // Second invocation must come from the checkpoint: a job that
        // would panic is never executed.
        let second = run_cells(
            "unit/resume",
            &opts,
            vec![(
                "m".to_string(),
                Box::new(|_sink: &Arc<dyn TelemetrySink>| -> PrfReport {
                    panic!("must not re-run")
                }) as CellJob<'_>,
            )],
        );
        assert!(!second[0].is_failed(), "{:?}", second[0].error);
        assert_eq!(second[0].f, 0.5);
        // With resume off the panicking job does run, and fails.
        let no_resume = CliOptions {
            resume: false,
            ..opts.clone()
        };
        let third = run_cells(
            "unit/resume",
            &no_resume,
            vec![(
                "m".to_string(),
                Box::new(|_sink: &Arc<dyn TelemetrySink>| -> PrfReport { panic!("must re-run") })
                    as CellJob<'_>,
            )],
        );
        assert!(third[0].is_failed());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn run_cells_exports_telemetry_keyed_by_fingerprint() {
        use pnr_telemetry::Counter;
        let dir = std::env::temp_dir().join(format!("pnr_cells_tel_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opts = CliOptions {
            out_dir: dir.to_string_lossy().to_string(),
            threads: 2,
            resume: true,
            telemetry: true,
            ..Default::default()
        };
        let rows = run_cells(
            "unit/telemetry",
            &opts,
            vec![(
                "m".to_string(),
                Box::new(|sink: &Arc<dyn TelemetrySink>| {
                    // cells see an enabled sink under --telemetry
                    assert!(sink.enabled());
                    sink.add(Counter::ConditionsEvaluated, 9);
                    PrfReport {
                        recall: 1.0,
                        precision: 1.0,
                        f: 1.0,
                    }
                }) as CellJob<'_>,
            )],
        );
        assert!(!rows[0].is_failed());
        let key = CellKey {
            experiment: "unit/telemetry".to_string(),
            method: "m".to_string(),
            scale: opts.scale,
            seed: opts.seed,
        };
        let path = crate::telemetry_out::telemetry_path(&opts.out_dir, &key);
        let text = std::fs::read_to_string(&path).expect("telemetry file written");
        assert!(text.lines().next().unwrap_or("").contains("unit/telemetry"));
        assert!(text.contains("conditions_evaluated"));
        // a resumed run serves the checkpoint and leaves the file alone
        std::fs::remove_file(&path).expect("delete telemetry");
        let resumed = run_cells(
            "unit/telemetry",
            &opts,
            vec![(
                "m".to_string(),
                Box::new(|_sink: &Arc<dyn TelemetrySink>| -> PrfReport {
                    panic!("must come from checkpoint")
                }) as CellJob<'_>,
            )],
        );
        assert!(!resumed[0].is_failed());
        assert!(!path.exists(), "checkpointed cell must not re-export");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn categorical_names_cover_table_3() {
        let names = categorical_dataset_names();
        assert_eq!(names.len(), 10);
        assert_eq!(names[0], "coa1");
        assert_eq!(names[9], "coad4");
        for n in &names {
            assert!(categorical_config(n).is_some(), "{n} must resolve");
        }
    }

    #[test]
    fn categorical_config_rejects_unknown_names_without_panicking() {
        for bad in ["nope", "coa0", "coa7", "coad5", "coadx", "coa", "kdd"] {
            assert!(categorical_config(bad).is_none(), "{bad} must not resolve");
        }
    }

    #[test]
    fn kdd_sizes_scale() {
        let opts = CliOptions {
            scale: 0.1,
            ..Default::default()
        };
        let (tr, te) = kdd_sizes(&opts);
        assert_eq!(tr, 49_402);
        assert_eq!(te, 31_103);
    }

    #[test]
    fn parse_accepts_every_spelling() {
        for i in 1..=6 {
            let cfg = NumericModelConfig::nsyn(i);
            let want = Ok((PaperData::Numeric(cfg), TARGET_CLASS));
            assert_eq!(PaperData::parse(&format!("nsyn{i}")), want);
        }
        for name in categorical_dataset_names() {
            let want = PaperData::Categorical(categorical_config(&name).unwrap());
            assert_eq!(PaperData::parse(&name), Ok((want, TARGET_CLASS)));
        }
        let syngen = GeneralModelConfig::default();
        assert_eq!(
            PaperData::parse("syngen"),
            Ok((PaperData::General(syngen), TARGET_CLASS))
        );
        for class in pnr_kddsim::CLASSES {
            let spec = format!("kdd:{class}");
            assert_eq!(PaperData::parse(&spec), Ok((PaperData::Kdd, *class)));
        }
        // width suffixes, in either order; the last of a repeated one wins
        let nsyn3 = NumericModelConfig::nsyn(3);
        let cases = [
            (
                "nsyn3:tr=2",
                PaperData::Numeric(nsyn3.clone().with_widths(2.0, nsyn3.nr)),
            ),
            (
                "nsyn3:nr=4:tr=0.5",
                PaperData::Numeric(nsyn3.clone().with_widths(0.5, 4.0)),
            ),
            (
                "syngen:tr=0.2:nr=4",
                PaperData::General(syngen.with_widths(0.2, 4.0)),
            ),
            (
                "syngen:tr=1:nr=2:tr=3",
                PaperData::General(syngen.with_widths(3.0, 2.0)),
            ),
        ];
        for (spec, want) in cases {
            assert_eq!(PaperData::parse(spec), Ok((want, TARGET_CLASS)), "{spec}");
        }
    }

    #[test]
    fn parse_rejects_unknown_spellings_with_the_valid_list() {
        for spec in [
            "nope",
            "kdd:ddos",
            "nsyn9",
            "coa7",
            "nsyn0",
            "kdd:",
            "",
            "nsyn3:zz=1",
            "coa1:tr=0.5",
            "coad2:nr=1",
        ] {
            let err = PaperData::parse(spec).unwrap_err();
            assert!(err.contains("nsyn1..nsyn6"), "{spec}: {err}");
            assert!(err.contains("coad1..coad4"), "{spec}: {err}");
        }
        let err = PaperData::parse("syngen:tr=wide").unwrap_err();
        assert_eq!(err, "suffix tr= takes a float, got \"wide\"");
        let err = PaperData::parse("kdd:probe:tr=1").unwrap_err();
        assert!(err.starts_with("unknown kdd class \"probe:tr=1\""), "{err}");
    }

    #[test]
    fn kdd_data_has_the_kdd_sizes() {
        let opts = CliOptions {
            scale: 0.002,
            ..Default::default()
        };
        let (train, test) = PaperData::Kdd.generate(&opts);
        assert_eq!((train.n_rows(), test.n_rows()), kdd_sizes(&opts));
    }

    #[test]
    fn table6_smoke_runs_at_tiny_scale() {
        let out = table6(&tiny_opts());
        assert_eq!(out.len(), 2);
        for exp in &out {
            let labels: Vec<&str> = exp.rows.iter().map(|r| r.label.as_str()).collect();
            assert_eq!(labels, ["C4.5rules", "RIPPER", "PNrule"]);
            assert!(!exp.any_failed(), "{:?}", exp.rows);
        }
    }

    #[test]
    fn ablations_smoke_runs_at_tiny_scale() {
        let out = ablations(&tiny_opts());
        let ids: Vec<&str> = out.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "ablation_range/nsyn3",
                "ablation_nphase/nsyn3",
                "ablation_scoring/nsyn3",
                "ablation_range/kdd-probe",
                "ablation_nphase/kdd-probe",
                "ablation_scoring/kdd-probe",
            ]
        );
        for exp in &out {
            let labels: Vec<&str> = exp.rows.iter().map(|r| r.label.as_str()).collect();
            let want: &[&str] = match exp.id.split('/').next() {
                Some("ablation_range") => &["ranges on", "ranges off"],
                Some("ablation_nphase") => &["N-phase on", "N-phase off"],
                _ => &["z=0 (raw cells)", "z=1 (default)", "z=3"],
            };
            assert_eq!(labels, want, "{}", exp.id);
            assert!(!exp.any_failed(), "{:?}", exp.rows);
        }
    }

    #[test]
    fn rp_rn_grid_smoke() {
        let out = rp_rn_grid(&tiny_opts(), "probe", &[0.95], &[0.9, 0.995], true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rows.len(), 2);
        assert!(out[0].id.contains(".P1"));
    }
}
