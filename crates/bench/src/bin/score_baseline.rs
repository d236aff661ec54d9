//! Emits `BENCH_score.json` — a committed wall-clock baseline of the
//! scoring path, interpreter versus compiled engine, so regressions in
//! either (or in the compiled engine's speedup claim) show up as a diff
//! against a known-good measurement.
//!
//! Run from the workspace root:
//!
//! ```text
//! cargo run --release -p pnr-bench --bin score_baseline
//! ```
//!
//! Two workloads, both scoring every row of a 50k-record simulated-KDD
//! batch:
//!
//! * `trained_r2l` — the model `PnruleLearner` actually learns for the
//!   rare `r2l` class. On kddsim that model is tiny (a few rules), so
//!   both engines are bound by per-row overhead, and the compiled
//!   engine's dispatch costs more than the interpreter's walk over three
//!   rules: the honest small-model number.
//! * `rule_rich` — a model at the paper's full-KDD'99 scale (tens of
//!   P-rules, a dozen N-rules, conjunctions of 2–3 conditions), built by
//!   seeding each rule's conditions from actual *target-class* data rows
//!   the way sequential covering does. Most rows match no rule, which is
//!   exactly the rare-class serving shape: the interpreter must walk
//!   every rule to conclude "no match", while the compiled engine's
//!   per-attribute dispatch tables kill all candidates in a few masked
//!   AND steps.
//!
//! Both engines score one row at a time, as serving does: the compiled
//! side calls `CompiledModel::score_with_trace(data, row)` per row, which
//! runs the same evaluation loop as the serving path's lookups. Each
//! workload records the time to score the whole batch under each engine,
//! rows/sec for both, and the interpreter/compiled `speedup`; the file
//! also records the machine's detected parallelism, although both loops
//! run on one thread. The headline claim — compiled ≥5× interpreter
//! rows/sec — attaches to `rule_rich`. Before any timing, the run verifies
//! the two engines score every row of both workloads **bit-identically**
//! — a baseline for a wrong engine would be worse than no baseline.

use pnr_bench::kdd_dataset;
use pnr_core::{CompiledModel, PnruleLearner, PnruleModel, PnruleParams, ScoreMatrix};
use pnr_data::{AttrType, Dataset};
use pnr_rules::{BinaryClassifier, Condition, Rule, RuleSet};
use std::time::Instant;

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

/// Rules in the paper's KDD signature shape: each rule pins the
/// categorical signature of one concrete "seed" record of the *target
/// class* — `service = X AND flag = Y` (every third rule also pins the
/// protocol) — and refines it with one numeric band around the seed's
/// value of a counter attribute (`duration`, `src_bytes` or `count`).
/// This is the shape PNrule's covering loop learns on KDD'99: rules
/// grown from rare-class records carry that class's distinctive
/// signatures, so most rows of a mixed batch match no rule — the
/// rare-class serving profile.
fn seeded_rules(data: &Dataset, seeds: &[usize], n_rules: usize, salt: usize) -> RuleSet {
    const SERVICE: usize = 1;
    const FLAG: usize = 2;
    const PROTOCOL: usize = 0;
    const NUMERIC_POOL: [usize; 3] = [3, 4, 10]; // duration, src_bytes, count
    debug_assert!(matches!(
        data.schema().attr(SERVICE).ty,
        AttrType::Categorical
    ));
    let mut rules = Vec::with_capacity(n_rules);
    for i in 0..n_rules {
        let row = seeds[(i * 769 + salt) % seeds.len()];
        let mut conds = vec![
            Condition::CatEq {
                attr: SERVICE,
                value: data.cat(SERVICE, row),
            },
            Condition::CatEq {
                attr: FLAG,
                value: data.cat(FLAG, row),
            },
        ];
        if i % 3 == 0 {
            conds.push(Condition::CatEq {
                attr: PROTOCOL,
                value: data.cat(PROTOCOL, row),
            });
        }
        let attr = NUMERIC_POOL[i % NUMERIC_POOL.len()];
        let v = data.num(attr, row);
        let w = (v.abs() * 0.25).max(0.5);
        conds.push(Condition::NumRange {
            attr,
            lo: v - w,
            hi: v + w,
        });
        rules.push(Rule::new(conds));
    }
    RuleSet::from_rules(rules)
}

/// The paper-scale stress model: 64 signature-shaped P-rules and 16
/// N-rules, scored through a real `ScoreMatrix` built on the data.
fn rule_rich_model(data: &Dataset, target: u32) -> PnruleModel {
    let flags: Vec<bool> = (0..data.n_rows())
        .map(|r| data.label(r) == target)
        .collect();
    let seeds: Vec<usize> = (0..data.n_rows()).filter(|&r| flags[r]).collect();
    let p_rules = seeded_rules(data, &seeds, 64, 17);
    let n_rules = seeded_rules(data, &seeds, 16, 4211);
    let score_matrix = ScoreMatrix::build(data, &flags, &p_rules, &n_rules, 1.0);
    PnruleModel {
        target,
        threshold: 0.5,
        p_rules,
        n_rules,
        score_matrix,
    }
}

struct WorkloadResult {
    name: &'static str,
    p_rules: usize,
    n_rules: usize,
    conditions: usize,
    interp: (f64, f64),
    comp: (f64, f64),
}

fn run_workload(
    name: &'static str,
    model: &PnruleModel,
    data: &Dataset,
    iters: usize,
) -> WorkloadResult {
    let n = data.n_rows();
    let compiled = CompiledModel::compile(model);

    // Bit-identity gate: a fast engine that scores differently is a bug,
    // not a baseline.
    for row in 0..n {
        let (si, ti) = model.score_with_trace(data, row);
        let (sc, tc) = compiled.score_with_trace(data, row);
        assert_eq!(
            sc.to_bits(),
            si.to_bits(),
            "{name} row {row}: compiled {sc} != interpreter {si}"
        );
        assert_eq!(tc, ti, "{name} row {row}: trace mismatch");
    }

    let interp = time_ns(iters, || {
        let mut acc = 0.0f64;
        for row in 0..n {
            acc += model.score(data, row);
        }
        std::hint::black_box(acc);
    });
    let comp = time_ns(iters, || {
        let mut acc = 0.0f64;
        for row in 0..n {
            acc += compiled.score_with_trace(data, row).0;
        }
        std::hint::black_box(acc);
    });

    WorkloadResult {
        name,
        p_rules: model.p_rules.len(),
        n_rules: model.n_rules.len(),
        conditions: model
            .p_rules
            .rules()
            .iter()
            .chain(model.n_rules.rules())
            .map(|r| r.len())
            .sum(),
        interp,
        comp,
    }
}

fn workload_json(w: &WorkloadResult, n: usize) -> String {
    let rows_per_sec = |mean_ns: f64| n as f64 / (mean_ns / 1e9);
    format!(
        r#"  "{name}": {{
    "p_rules": {p},
    "n_rules": {nn},
    "conditions": {c},
    "interpreter_batch_ns": {{"mean": {im:.0}, "min": {imin:.0}}},
    "compiled_batch_ns": {{"mean": {cm:.0}, "min": {cmin:.0}}},
    "interpreter_rows_per_sec": {irps:.0},
    "compiled_rows_per_sec": {crps:.0},
    "compiled_speedup": {sp:.3}
  }}"#,
        name = w.name,
        p = w.p_rules,
        nn = w.n_rules,
        c = w.conditions,
        im = w.interp.0,
        imin = w.interp.1,
        cm = w.comp.0,
        cmin = w.comp.1,
        irps = rows_per_sec(w.interp.0),
        crps = rows_per_sec(w.comp.0),
        sp = w.interp.0 / w.comp.0,
    )
}

fn main() {
    let n = 50_000usize;
    let data = kdd_dataset(n);
    let target = data.class_code("r2l").expect("r2l class");
    let iters = 20;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());

    let trained = PnruleLearner::new(PnruleParams::default()).fit(&data, target);
    let trained_result = run_workload("trained_r2l", &trained, &data, iters);
    let rich = rule_rich_model(&data, target);
    let rich_result = run_workload("rule_rich", &rich, &data, iters);

    let json = serde_json::to_string_pretty(
        &serde_json::parse(&format!(
            "{{\n  \"bench\": \"score_batch\",\n  \"dataset\": \"kddsim\",\n  \
             \"rows\": {n},\n  \"attrs\": {attrs},\n  \
             \"detected_parallelism\": {cores},\n  \"iters\": {iters},\n{t},\n{r}\n}}",
            attrs = data.n_attrs(),
            t = workload_json(&trained_result, n),
            r = workload_json(&rich_result, n),
        ))
        .expect("baseline JSON is well-formed"),
    )
    .expect("serialize");
    std::fs::write("BENCH_score.json", json + "\n").expect("write BENCH_score.json");
    for w in [&trained_result, &rich_result] {
        println!(
            "{}: interpreter {:.2} ms/batch, compiled {:.2} ms/batch, speedup {:.2}x",
            w.name,
            w.interp.0 / 1e6,
            w.comp.0 / 1e6,
            w.interp.0 / w.comp.0,
        );
    }
}
