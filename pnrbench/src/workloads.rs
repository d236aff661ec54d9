//! The five workloads and what each run measures.
//!
//! Every workload starts the same way — a training table generated from
//! `--seed` is written to CSV and fit in a child process — and every
//! traced run reports the same per-layer metrics, so one metric list
//! serves all five. What differs is which layer carries the load:
//!
//! | workload        | the load                                                |
//! |-----------------|---------------------------------------------------------|
//! | `fit-kdd-probe` | CSV ingest (one P-rule, no N-phase)                      |
//! | `fit-syngen`    | P-phase numeric range search                             |
//! | `fit-coad`      | categorical ingest and search, N-phase, ScoreMatrix      |
//! | `serve-batch`   | per-row decode, reconcile and encode in the daemon       |
//! | `serve-single`  | per-request overhead: threads, queue, channel, syscalls  |

use crate::fit::{self, Family, FitLayers, SetupTimes, TrainSet};
use crate::report::{metric, peak_rss_mb, Metric, Outcome, WorkDir};
use crate::serve::{shuffled, Client, Daemon, Pass, Traffic};
use crate::stages::{self, StageCost};
use crate::stats::{median, percentile_sorted, sorted};
use crate::sys;
use pnr_core::{ModelArtifact, ServingModel};
use pnr_data::Dataset;
use serde::Content;
use std::path::Path;
use std::time::{Duration, Instant};

/// How a run was asked for.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny inputs and one daemon, for the smoke test.
    pub smoke: bool,
}

impl Ctx {
    fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// Rows in a smoke run's tables.
    const SMOKE_ROWS: usize = 5_000;

    /// Traced fits and stage-replay passes a traced run makes at least,
    /// and how long the replay runs.
    fn trace_passes(&self) -> (usize, Duration) {
        if self.smoke {
            (1, Duration::ZERO)
        } else {
            (3, Duration::from_millis(300))
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FitKddProbe,
    FitSyngen,
    FitCoad,
    ServeBatch,
    ServeSingle,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::FitKddProbe,
        Workload::FitSyngen,
        Workload::FitCoad,
        Workload::ServeBatch,
        Workload::ServeSingle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FitKddProbe => "fit-kdd-probe",
            Workload::FitSyngen => "fit-syngen",
            Workload::FitCoad => "fit-coad",
            Workload::ServeBatch => "serve-batch",
            Workload::ServeSingle => "serve-single",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn run(self, ctx: &Ctx) -> Result<Outcome, String> {
        match self {
            Workload::FitKddProbe => run_fit(&FitSpec::KDD_PROBE, ctx),
            Workload::FitSyngen => run_fit(&FitSpec::SYNGEN, ctx),
            Workload::FitCoad => run_fit(&FitSpec::COAD, ctx),
            Workload::ServeBatch => run_serve(&ServeSpec::BATCH, ctx),
            Workload::ServeSingle => run_serve(&ServeSpec::SINGLE, ctx),
        }
    }
}

/// Cold starts timed after each fit rep or daemon (see [`SetupTimes`]).
const SETUP_BURST: Duration = Duration::from_millis(40);

// ---- fits ---------------------------------------------------------------

struct FitSpec {
    family: Family,
    target: &'static str,
    train_rows: usize,
}

impl FitSpec {
    /// 300k rows: ingest is about two thirds of the fit.
    const KDD_PROBE: FitSpec = FitSpec {
        family: Family::Kdd,
        target: "probe",
        train_rows: 300_000,
    };
    /// 100k rows: ten P-rules, about three quarters of the fit in the
    /// P-phase.
    const SYNGEN: FitSpec = FitSpec {
        family: Family::Syngen,
        target: "C",
        train_rows: 100_000,
    };
    /// 200k rows: 16 P-rules and 40–80 N-rules. `coad1`, not `coad2`:
    /// coad2's model scores every row under the threshold at these sizes,
    /// so its F-measure reads 0.
    const COAD: FitSpec = FitSpec {
        family: Family::Coad1,
        target: "C",
        train_rows: 200_000,
    };
}

/// Timed reps at least (a median of fewer is not worth reporting).
const MIN_FIT_REPS: usize = 5;
/// Untraced reps a traced run makes for its overhead baseline and gate.
const TRACE_E2E_REPS: usize = 2;
/// A fit workload's stage trace replays this many test-set requests of
/// this many rows.
const REPLAY_REQUESTS: usize = 250;
const REPLAY_ROWS_PER_REQUEST: usize = 32;

fn run_fit(spec: &FitSpec, ctx: &Ctx) -> Result<Outcome, String> {
    let train_rows = if ctx.smoke {
        Ctx::SMOKE_ROWS
    } else {
        spec.train_rows
    };
    let test_rows = train_rows / 2;
    let work = WorkDir::create("fit")?;
    let train = fit::write_train_csv(
        spec.family,
        train_rows,
        ctx.seed,
        spec.target,
        &work.path("train.csv"),
    )?;
    let test = spec.family.test_set(test_rows, ctx.seed + 1);
    let artifact = work.path("model.artifact");

    let start = Instant::now();
    // a smoke run makes the fewest fits, whatever --seconds says
    let span = if ctx.smoke {
        Duration::ZERO
    } else {
        ctx.budget()
    };
    let (min_reps, rep_span) = match (ctx.trace, ctx.smoke) {
        (true, _) => (TRACE_E2E_REPS, Duration::ZERO),
        (false, true) => (2, span),
        (false, false) => (MIN_FIT_REPS, span),
    };
    let mut fits = Vec::new();
    let mut setup = SetupTimes::default();
    while fits.len() < min_reps || start.elapsed() < rep_span {
        fits.push(fit::fit_in_child(&train, &artifact)?);
        setup.burst(&artifact, SETUP_BURST)?;
    }
    let bytes = fits[0].artifact.clone();
    if fits.iter().any(|f| f.artifact != bytes) {
        return Err("gate: fit reps produced different artifacts".to_string());
    }
    let (setup_s, load_s) = setup.medians();
    let train_s: Vec<f64> = fits.iter().map(|f| f.train_s).collect();
    let mut outcome = Outcome {
        attempted: fits.len() as u64,
        header: vec![
            ("train_rows", Content::U64(train_rows as u64)),
            ("test_rows", Content::U64(test_rows as u64)),
            ("reps", Content::U64(fits.len() as u64)),
            ("target", Content::Str(spec.target.to_string())),
            ("artifact_checksum", Content::Str(checksum_of(&bytes))),
        ],
        ..Outcome::default()
    };

    if ctx.trace {
        let layers = traced_fits(&train, &artifact, &bytes, start + span, ctx)?;
        let serving = ServingModel::new(load(&artifact)?);
        let (cost, requests) = replay_test_set(&serving, &test, ctx)?;
        outcome.metrics = layer_metrics(
            &layers,
            median(&train_s),
            load_s,
            &cost,
            cost.handle_us_per_request / 1e3,
            &DaemonCounts::default(),
            &ClientCounts::default(),
        );
        outcome
            .header
            .push(("replayed_requests", Content::U64(requests as u64)));
        return Ok(outcome);
    }

    if fit::reference_artifact(&train)? != bytes {
        let why = "the chunked-CSV child fit differs from the in-process fit";
        return Err(format!(
            "gate: {why} of the same CSV by the whole-file reader"
        ));
    }
    let f1 = fit::test_f1(&artifact, &test, spec.target)?;
    let rss: Vec<f64> = fits.iter().map(|f| f.rss_mb).collect();
    outcome.metrics = vec![
        metric("p50_ms", median(&train_s) * 1e3, "ms"),
        metric("rows_per_s", train_rows as f64 / median(&train_s), "rows/s"),
        metric("f1", f1, "ratio"),
        metric("peak_rss_mb", median(&rss), "MB"),
        metric("setup_s", setup_s, "s"),
    ];
    Ok(outcome)
}

fn load(path: &Path) -> Result<ModelArtifact, String> {
    ModelArtifact::load(path).map_err(|e| e.to_string())
}

/// The envelope checksum: an artifact's first line.
fn checksum_of(artifact: &[u8]) -> String {
    let first = artifact.split(|&b| b == b'\n').next().unwrap_or_default();
    String::from_utf8_lossy(first).into_owned()
}

/// Traced fits until `until` (at least [`Ctx::trace_passes`]); each must
/// save exactly `expected`. Returns the per-layer medians.
fn traced_fits(
    train: &TrainSet,
    artifact: &Path,
    expected: &[u8],
    until: Instant,
    ctx: &Ctx,
) -> Result<FitLayers, String> {
    let (min_fits, _) = ctx.trace_passes();
    let mut runs = Vec::new();
    while runs.len() < min_fits || Instant::now() < until {
        runs.push(fit::traced_fit(train, artifact)?);
        let saved = std::fs::read(artifact).map_err(|e| e.to_string())?;
        if saved != expected {
            return Err("gate: the traced fit's artifact differs from the untraced one".into());
        }
    }
    let m = |f: fn(&FitLayers) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    Ok(FitLayers {
        ingest_s: m(|l| l.ingest_s),
        pphase_s: m(|l| l.pphase_s),
        pphase_rules: m(|l| l.pphase_rules),
        pool_s: m(|l| l.pool_s),
        pool_rows: m(|l| l.pool_rows),
        nphase_s: m(|l| l.nphase_s),
        nphase_rules: m(|l| l.nphase_rules),
        nphase_mdl_truncated: m(|l| l.nphase_mdl_truncated),
        scorematrix_s: m(|l| l.scorematrix_s),
        scorematrix_cells: m(|l| l.scorematrix_cells),
        save_s: m(|l| l.save_s),
        total_s: m(|l| l.total_s),
        conditions_evaluated: m(|l| l.conditions_evaluated),
        view_cold_builds: m(|l| l.view_cold_builds),
        view_warm_hits: m(|l| l.view_warm_hits),
    })
}

/// A fit workload's serving-stage trace: test rows, shuffled and cut
/// into 32-row requests, replayed in process with the replies the daemon
/// would send. Returns the stage costs and the number of requests.
fn replay_test_set(
    serving: &ServingModel,
    test: &Dataset,
    ctx: &Ctx,
) -> Result<(StageCost, usize), String> {
    let columns: Vec<&str> = test
        .schema()
        .attributes
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    let map = serving
        .reconcile_header(&columns)
        .map_err(|e| e.to_string())?;
    let render = |c: &Content| serde_json::to_string(c).map_err(|e| e.to_string());
    let order = shuffled(test.n_rows(), 0);
    let mut pairs = Vec::new();
    for (k, chunk) in order
        .chunks_exact(REPLAY_ROWS_PER_REQUEST)
        .take(REPLAY_REQUESTS)
        .enumerate()
    {
        let rows: Vec<Vec<String>> = chunk
            .iter()
            .map(|&r| pnr_kddsim::row_fields(test, r))
            .collect();
        let records: Vec<_> = rows.iter().map(|r| serving.score_fields(r, &map)).collect();
        let request = Content::Map(vec![
            ("cmd".to_string(), Content::Str("score".to_string())),
            ("id".to_string(), Content::Str(k.to_string())),
            (
                "rows".to_string(),
                Content::Seq(
                    rows.iter()
                        .map(|r| Content::Seq(r.iter().cloned().map(Content::Str).collect()))
                        .collect(),
                ),
            ),
        ]);
        let reply = stages::reply_tree(&k.to_string(), &records);
        pairs.push((render(&request)?, render(&reply)?));
    }
    let (passes, time) = ctx.trace_passes();
    let cost = stages::replay(serving, &columns, &map, &pairs, passes, time)?;
    Ok((cost, pairs.len()))
}

// ---- serving ------------------------------------------------------------

struct ServeSpec {
    rows_per_request: usize,
    /// Nominal offered rate, requests per second: a fraction of capacity,
    /// so latency is measured without a backlog.
    rate: f64,
}

impl ServeSpec {
    const BATCH: ServeSpec = ServeSpec {
        rows_per_request: 32,
        rate: 240.0,
    };
    const SINGLE: ServeSpec = ServeSpec {
        rows_per_request: 1,
        rate: 8_000.0,
    };
}

/// The daemon configuration every serve workload runs.
const DAEMON_FLAGS: [&str; 6] = [
    "--workers",
    "2",
    "--queue-capacity",
    "256",
    "--shed",
    "reject",
];
/// Rows the served model (kddsim `r2l`, a rare class, so most rows match
/// no rule) is fit on.
const MODEL_ROWS: usize = 50_000;
/// Daemons started per run. Each settles into its own pattern of thread
/// hand-offs, which moves its throughput by up to ±25%; ten daemons per
/// run make the run repeat.
const TRIALS: u32 = 10;
/// How a trial's time is split: warm-up, the nominal rate, and the rest
/// for capacity.
const WARMUP_SHARE: f64 = 0.1;
const NOMINAL_SHARE: f64 = 0.5;
/// Requests kept in flight while measuring capacity: enough to keep the
/// daemon's parse → score → write pipeline full, well under the queue
/// capacity so nothing is shed.
const CAPACITY_WINDOW: usize = 64;

/// What the daemon's `stats` reply says.
#[derive(Debug, Clone, Copy, Default)]
struct DaemonCounts {
    served: u64,
    shed: u64,
    rows_quarantined: u64,
}

/// What the client saw at the nominal rate.
#[derive(Debug, Clone, Copy, Default)]
struct ClientCounts {
    sent: u64,
    ok: u64,
    failed: u64,
}

/// Which CPUs the client and the daemon get: with two or more, the client
/// keeps one to itself and the daemon gets the rest, so the load
/// generator never competes with the system it measures and latency does
/// not move with where the scheduler happens to put threads.
struct Placement {
    client: Vec<usize>,
    daemon: Vec<usize>,
}

impl Placement {
    fn split(cpus: &[usize]) -> Placement {
        match cpus {
            [client, rest @ ..] if !rest.is_empty() => Placement {
                client: vec![*client],
                daemon: rest.to_vec(),
            },
            _ => Placement {
                client: cpus.to_vec(),
                daemon: cpus.to_vec(),
            },
        }
    }
}

/// One daemon's life: start, nominal rate, capacity, drain.
struct Trial {
    nominal: Pass,
    /// Warm-up and capacity passes, kept for verification.
    other: Vec<Pass>,
    /// Replies per second at saturation (0 on a traced run).
    capacity: f64,
    rss_mb: f64,
    counts: DaemonCounts,
}

/// Runs one trial; its nominal pass starts at traffic body `first_body`.
/// Checks that every submission is accounted for.
fn serve_trial(
    artifact: &Path,
    traffic: &Traffic,
    first_body: usize,
    spec: &ServeSpec,
    span: Duration,
    placement: &Placement,
    trace: bool,
) -> Result<Trial, String> {
    sys::pin_this_thread(&placement.daemon)?;
    let daemon = Daemon::spawn(artifact, &DAEMON_FLAGS)?;
    sys::pin_this_thread(&placement.client)?;
    let mut client = Client::connect(&daemon.addr, pnr_kddsim::ATTR_NAMES)?;
    let count = |share: f64| ((spec.rate * span.as_secs_f64() * share) as usize).max(1);
    let warmup = client.open_loop(traffic, first_body, count(WARMUP_SHARE), spec.rate)?;
    let nominal = client.open_loop(traffic, first_body, count(NOMINAL_SHARE), spec.rate)?;
    let mut other = vec![warmup];
    let mut capacity = 0.0;
    if !trace {
        let left = span.mul_f64(1.0 - WARMUP_SHARE - NOMINAL_SHARE);
        let pass = client.closed_loop(traffic, first_body, CAPACITY_WINDOW, left)?;
        capacity = pass.reply_rate();
        other.push(pass);
    }
    let stats = client.control("{\"cmd\":\"stats\"}")?;
    let rss_mb = peak_rss_mb(Some(daemon.pid()))?;
    client.control("{\"cmd\":\"shutdown\"}")?;
    let submissions = client.submissions;
    drop(client);
    daemon.wait()?;
    let counts = daemon_counts(&stats)?;
    if counts.served + counts.shed != submissions {
        return Err(format!(
            "gate: daemon served {} + shed {} != {submissions} submissions",
            counts.served, counts.shed
        ));
    }
    Ok(Trial {
        nominal,
        other,
        capacity,
        rss_mb,
        counts,
    })
}

fn run_serve(spec: &ServeSpec, ctx: &Ctx) -> Result<Outcome, String> {
    let work = WorkDir::create("serve")?;
    let model_rows = if ctx.smoke {
        Ctx::SMOKE_ROWS
    } else {
        MODEL_ROWS
    };
    let train = fit::write_train_csv(
        Family::Kdd,
        model_rows,
        ctx.seed,
        "r2l",
        &work.path("train.csv"),
    )?;
    let artifact = work.path("model.artifact");
    let model_fit = fit::fit_in_child(&train, &artifact)?;
    let serving = ServingModel::new(load(&artifact)?);
    let columns = pnr_kddsim::ATTR_NAMES;
    let map = serving
        .reconcile_header(columns)
        .map_err(|e| e.to_string())?;

    let trials = if ctx.smoke { 1 } else { TRIALS };
    let span = ctx.budget() / trials;
    // every trial's nominal pass scores rows of its own
    let nominal_count = ((spec.rate * span.as_secs_f64() * NOMINAL_SHARE) as usize).max(1);
    let traffic_rows = trials as usize * nominal_count * spec.rows_per_request;
    let traffic_data = pnr_kddsim::generate_test(traffic_rows, ctx.seed + 2);
    let target = traffic_data
        .class_code("r2l")
        .ok_or("traffic has no r2l class")?;
    let traffic = Traffic::build(
        &traffic_data,
        spec.rows_per_request,
        ctx.seed + 2,
        &serving,
        &map,
        target,
    )?;

    let cpus = sys::allowed_cpus()?;
    let placement = Placement::split(&cpus);
    let mut setup = SetupTimes::default();
    let runs = (0..trials as usize)
        .map(|k| {
            let first_body = k * nominal_count;
            let trial = serve_trial(
                &artifact, &traffic, first_body, spec, span, &placement, ctx.trace,
            );
            setup.burst(&artifact, SETUP_BURST)?;
            trial
        })
        .collect::<Result<Vec<Trial>, String>>();
    sys::pin_this_thread(&cpus)?;
    let runs = runs?;
    let (setup_s, load_s) = setup.medians();

    // Correctness, after timing: every score bit-identical to the
    // in-process scorer.
    let mut decisions = Vec::new();
    for t in &runs {
        decisions.extend(verify(&t.nominal, &traffic)?);
        for pass in &t.other {
            verify(pass, &traffic)?;
        }
    }

    let p50s: Vec<f64> = runs
        .iter()
        .map(|t| median(&t.nominal.latencies_ms()))
        .collect();
    let lat = sorted(
        &runs
            .iter()
            .flat_map(|t| t.nominal.latencies_ms())
            .collect::<Vec<_>>(),
    );
    if lat.is_empty() {
        return Err("no request succeeded at the nominal rate".to_string());
    }
    let late_ms: Vec<f64> = runs
        .iter()
        .flat_map(|t| t.nominal.late_ns.iter().map(|&n| n as f64 / 1e6))
        .collect();
    let sent: usize = runs.iter().map(|t| t.nominal.sent).sum();
    let failed: usize = runs.iter().map(|t| t.nominal.failures()).sum();
    let mut outcome = Outcome {
        attempted: sent as u64,
        failed: failed as u64,
        header: vec![
            ("model_rows", Content::U64(model_rows as u64)),
            ("model_target", Content::Str("r2l".to_string())),
            (
                "rows_per_request",
                Content::U64(spec.rows_per_request as u64),
            ),
            ("nominal_rate", Content::F64(spec.rate)),
            ("daemons", Content::U64(u64::from(trials))),
            // the tail, for reading: it does not repeat well enough from
            // run to run to carry a bound
            ("latency_samples", Content::U64(lat.len() as u64)),
            ("p90_ms", Content::F64(percentile_sorted(&lat, 0.9))),
            ("p99_ms", Content::F64(percentile_sorted(&lat, 0.99))),
            ("daemon_flags", Content::Str(DAEMON_FLAGS.join(" "))),
            ("capacity_window", Content::U64(CAPACITY_WINDOW as u64)),
            ("client_cpus", cpu_list(&placement.client)),
            ("daemon_cpus", cpu_list(&placement.daemon)),
            (
                "client_late_p99_ms",
                Content::F64(percentile_sorted(&sorted(&late_ms), 0.99)),
            ),
        ],
        ..Outcome::default()
    };

    if ctx.trace {
        let layers = traced_fits(&train, &artifact, &model_fit.artifact, Instant::now(), ctx)?;
        let first = &runs[0].nominal;
        let pairs: Vec<(String, String)> = (0..first.sent)
            .filter_map(|i| {
                let reply = first.replies[i].clone()?;
                let mut line = Vec::new();
                let body = (first.first_body + i) % traffic.bodies.len();
                traffic.line(first.first_id + i as u64, body, &mut line);
                Some((String::from_utf8_lossy(&line).trim_end().to_string(), reply))
            })
            .collect();
        let (passes, time) = ctx.trace_passes();
        let cost = stages::replay(&serving, columns, &map, &pairs, passes, time)?;
        let mut counts = DaemonCounts::default();
        for t in &runs {
            counts.served += t.counts.served;
            counts.shed += t.counts.shed;
            counts.rows_quarantined += t.counts.rows_quarantined;
        }
        outcome.metrics = layer_metrics(
            &layers,
            model_fit.train_s,
            load_s,
            &cost,
            median(&p50s),
            &counts,
            &ClientCounts {
                sent: sent as u64,
                ok: (sent - failed) as u64,
                failed: failed as u64,
            },
        );
        return Ok(outcome);
    }

    // the best daemon: a slower one lost time to its thread hand-offs
    let capacity = runs.iter().map(|t| t.capacity).fold(0.0, f64::max);
    let rss: Vec<f64> = runs.iter().map(|t| t.rss_mb).collect();
    outcome.metrics = vec![
        metric("p50_ms", median(&p50s), "ms"),
        metric(
            "rows_per_s",
            capacity * spec.rows_per_request as f64,
            "rows/s",
        ),
        metric("f1", fit::f1(&decisions), "ratio"),
        metric("peak_rss_mb", median(&rss), "MB"),
        metric("setup_s", setup_s, "s"),
    ];
    Ok(outcome)
}

/// Checks every ok reply of `pass` against the in-process scores, bit
/// for bit, and returns `(decision, is target)` per row checked.
fn verify(pass: &Pass, traffic: &Traffic) -> Result<Vec<(bool, bool)>, String> {
    let mut decisions = Vec::new();
    for i in (0..pass.sent).filter(|&i| pass.is_ok(i)) {
        let line = pass.replies[i].as_deref().unwrap_or_default();
        let reply = serde_json::parse(line).map_err(|e| format!("reply is not JSON: {e}"))?;
        let body = (pass.first_body + i) % traffic.bodies.len();
        let results = reply
            .get("results")
            .and_then(Content::as_seq)
            .ok_or_else(|| format!("score reply without results: {line}"))?;
        let expected = &traffic.expected[body];
        if results.len() != expected.len() {
            return Err(format!(
                "gate: reply holds {} results for {} rows",
                results.len(),
                expected.len()
            ));
        }
        for ((result, &(bits, decision)), &label) in
            results.iter().zip(expected).zip(&traffic.labels[body])
        {
            let got = result
                .get("score")
                .and_then(Content::as_f64)
                .map(f64::to_bits);
            if got != Some(bits) || result.get("decision") != Some(&Content::Bool(decision)) {
                return Err(format!(
                    "gate: daemon scored a row differently from the in-process scorer: \
                     {result:?} vs score bits {bits:#x}, decision {decision}"
                ));
            }
            decisions.push((decision, label));
        }
    }
    Ok(decisions)
}

fn cpu_list(cpus: &[usize]) -> Content {
    Content::Seq(cpus.iter().map(|&c| Content::U64(c as u64)).collect())
}

fn daemon_counts(stats: &str) -> Result<DaemonCounts, String> {
    let v = serde_json::parse(stats).map_err(|e| format!("stats reply: {e}"))?;
    let counter = |name: &str| match v.get("counters").and_then(|c| c.get(name)) {
        Some(Content::U64(n)) => Ok(*n),
        _ => Err(format!("stats reply lacks counter `{name}`: {stats}")),
    };
    Ok(DaemonCounts {
        served: counter("requests_served")?,
        shed: counter("requests_shed")?,
        rows_quarantined: counter("rows_quarantined")?,
    })
}

// ---- the per-layer metric list ------------------------------------------

/// Every per-layer metric, in one list for every workload. Layers a
/// workload does not drive still report what they measured: the daemon
/// and client counters of a fit workload are 0, since no daemon ran, and
/// its stage shares are of the in-process handling time instead of a
/// client's latency.
fn layer_metrics(
    fit: &FitLayers,
    e2e_train_s: f64,
    load_s: f64,
    cost: &StageCost,
    per_request_ms: f64,
    daemon: &DaemonCounts,
    client: &ClientCounts,
) -> Vec<Metric> {
    let warm_ratio = fit.view_warm_hits / (fit.view_warm_hits + fit.view_cold_builds).max(1.0);
    let kept = fit.nphase_rules / (fit.nphase_rules + fit.nphase_mdl_truncated).max(1.0);
    let share = |per_row_us: f64| cost.rows_per_request * per_row_us / 1e3 / per_request_ms;
    let shares = [
        share(cost.decode_us_per_row),
        share(cost.fields_us_per_row),
        share(cost.rules_ns_per_row / 1e3),
        share(cost.encode_us_per_row),
    ];
    vec![
        metric("ingest.s", fit.ingest_s, "s"),
        metric("pphase.s", fit.pphase_s, "s"),
        metric("pphase.rules", fit.pphase_rules, "count"),
        metric(
            "search.conditions_evaluated",
            fit.conditions_evaluated,
            "count",
        ),
        metric("search.view_cold_builds", fit.view_cold_builds, "count"),
        metric("search.view_warm_ratio", warm_ratio, "ratio"),
        metric("pool.s", fit.pool_s, "s"),
        metric("pool.rows", fit.pool_rows, "count"),
        metric("nphase.s", fit.nphase_s, "s"),
        metric("nphase.rules", fit.nphase_rules, "count"),
        metric("nphase.kept_ratio", kept, "ratio"),
        metric("scorematrix.s", fit.scorematrix_s, "s"),
        metric("scorematrix.cells", fit.scorematrix_cells, "count"),
        metric("artifact.save_s", fit.save_s, "s"),
        metric("artifact.load_s", load_s, "s"),
        metric("fit.unattributed_s", fit.unattributed_s(), "s"),
        metric("trace.overhead_s", fit.total_s - e2e_train_s, "s"),
        metric("decode.us_per_row", cost.decode_us_per_row, "us/row"),
        metric("fields.us_per_row", cost.fields_us_per_row, "us/row"),
        metric("rules.ns_per_row", cost.rules_ns_per_row, "ns/row"),
        metric("encode.us_per_row", cost.encode_us_per_row, "us/row"),
        metric("share.decode", shares[0], "ratio"),
        metric("share.fields", shares[1], "ratio"),
        metric("share.rules", shares[2], "ratio"),
        metric("share.encode", shares[3], "ratio"),
        metric(
            "share.unattributed",
            1.0 - shares.iter().sum::<f64>(),
            "ratio",
        ),
        metric("daemon.served", daemon.served as f64, "count"),
        metric("daemon.shed", daemon.shed as f64, "count"),
        metric(
            "daemon.rows_quarantined",
            daemon.rows_quarantined as f64,
            "count",
        ),
        metric("client.sent", client.sent as f64, "count"),
        metric("client.ok", client.ok as f64, "count"),
        metric("client.failed", client.failed as f64, "count"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One body of two rows and a pass holding the daemon's reply to it.
    fn one_reply(scores: [f64; 2]) -> (Traffic, Pass) {
        let traffic = Traffic {
            bodies: vec!["[[\"a\"],[\"b\"]]".to_string()],
            expected: vec![vec![(0.25f64.to_bits(), false), (0.75f64.to_bits(), true)]],
            labels: vec![vec![false, true]],
        };
        let result = |score: f64| {
            format!(
                "{{\"score\":{score:?},\"decision\":{},\"abstained\":false,\"unknown_values\":0}}",
                score > 0.5
            )
        };
        let reply = format!(
            "{{\"ok\":true,\"reply\":\"score\",\"id\":\"0\",\"results\":[{},{}]}}",
            result(scores[0]),
            result(scores[1])
        );
        let pass = Pass {
            sent: 1,
            due_ns: vec![0],
            recv_ns: vec![Some(1)],
            replies: vec![Some(reply)],
            ..Pass::default()
        };
        (traffic, pass)
    }

    #[test]
    fn matching_replies_pass_the_gate() {
        let (traffic, pass) = one_reply([0.25, 0.75]);
        assert_eq!(
            verify(&pass, &traffic).unwrap(),
            [(false, false), (true, true)]
        );
    }

    #[test]
    fn one_flipped_score_trips_the_gate() {
        let (traffic, pass) = one_reply([0.25, f64::from_bits(0.75f64.to_bits() ^ 1)]);
        let err = verify(&pass, &traffic).unwrap_err();
        assert!(err.starts_with("gate:"), "{err}");
    }

    #[test]
    fn stats_counters_are_read_and_required() {
        let stats = "{\"ok\":true,\"counters\":{\"requests_served\":5,\
                     \"requests_shed\":2,\"rows_quarantined\":1}}";
        let c = daemon_counts(stats).unwrap();
        assert_eq!((c.served, c.shed, c.rows_quarantined), (5, 2, 1));
        assert!(daemon_counts("{\"ok\":true,\"counters\":{}}").is_err());
    }

    #[test]
    fn the_client_keeps_one_cpu_when_there_are_two() {
        let p = Placement::split(&[0, 1]);
        assert_eq!((p.client, p.daemon), (vec![0], vec![1]));
        let p = Placement::split(&[3]);
        assert_eq!((p.client, p.daemon), (vec![3], vec![3]));
    }

    #[test]
    fn every_workload_name_parses_back() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fit-coad2"), None);
    }
}
