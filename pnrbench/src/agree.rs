//! `pnr-bench agree <a> <b>`: do two sets of runs agree within the
//! benchmark's own bounds?
//!
//! Each file holds the stdout of several runs (header line, then result
//! line, per run). For every end-to-end metric × workload it prints both
//! sets' median and quartiles and a verdict against the metric's bound
//! in `BENCHMARK.json`:
//!
//! * `FAIL` — set b's median is worse than set a's by more than the bound;
//! * `UNRESOLVED` — a set's spread (quartile distance over median) is
//!   wider than the bound, so the comparison cannot tell, unless every
//!   run of b reads better than every run of a;
//! * `PASS` otherwise.

use crate::stats::quartiles;
use serde::Content;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One end-to-end metric as `BENCHMARK.json` defines it.
#[derive(Debug, Clone)]
struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// workload → metric → values, in file order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--benchmark" => match it.next() {
                Some(p) => benchmark = p.clone(),
                None => return usage(),
            },
            _ => files.push(arg.clone()),
        }
    }
    let [a, b] = files.as_slice() else {
        return usage();
    };
    match agree(a, b, &benchmark) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("agree: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: pnr-bench agree <runs-a> <runs-b> [--benchmark BENCHMARK.json]");
    ExitCode::from(2)
}

fn agree(a: &str, b: &str, benchmark: &str) -> Result<bool, String> {
    let bounds = read_bounds(benchmark)?;
    let (runs_a, runs_b) = (read_runs(a)?, read_runs(b)?);
    let mut all_pass = true;
    println!(
        "{:<14} {:<12} {:>36} {:>36}  verdict",
        "workload", "metric", "a: q1 / median / q3", "b: q1 / median / q3"
    );
    for (workload, metrics_a) in &runs_a {
        let Some(metrics_b) = runs_b.get(workload) else {
            return Err(format!("{b} has no runs of {workload}"));
        };
        for bound in &bounds {
            let (Some(va), Some(vb)) = (metrics_a.get(&bound.name), metrics_b.get(&bound.name))
            else {
                return Err(format!(
                    "{workload} lacks {} in one of the sets",
                    bound.name
                ));
            };
            if va.len() < 2 || vb.len() < 2 {
                return Err(format!("{workload}: need at least two runs per set"));
            }
            let verdict = verdict(va, vb, bound);
            all_pass &= verdict == "PASS";
            let show = |v: &[f64]| {
                let [q1, q2, q3] = quartiles(v);
                format!("{q1:.4e} / {q2:.4e} / {q3:.4e}")
            };
            println!(
                "{workload:<14} {:<12} {:>36} {:>36}  {verdict}",
                bound.name,
                show(va),
                show(vb)
            );
        }
    }
    Ok(all_pass)
}

fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> &'static str {
    let [a1, am, a3] = quartiles(a);
    let [b1, bm, b3] = quartiles(b);
    let spread = ((a3 - a1) / am.abs()).max((b3 - b1) / bm.abs());
    let worse = if bound.higher_is_better {
        (am - bm) / am.abs()
    } else {
        (bm - am) / am.abs()
    };
    let b_always_better = if bound.higher_is_better {
        b.iter().all(|x| a.iter().all(|y| x > y))
    } else {
        b.iter().all(|x| a.iter().all(|y| x < y))
    };
    if spread > bound.bound && !b_always_better {
        "UNRESOLVED"
    } else if worse > bound.bound {
        "FAIL"
    } else {
        "PASS"
    }
}

fn read_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let v = serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let metrics = v
        .get("end_to_end")
        .and_then(Content::as_seq)
        .ok_or_else(|| format!("{path} has no end_to_end list"))?;
    metrics
        .iter()
        .map(|m| {
            let name = match m.get("name") {
                Some(Content::Str(s)) => s.clone(),
                _ => return Err(format!("{path}: metric without a name")),
            };
            let higher_is_better = match m.get("better") {
                Some(Content::Str(s)) => s == "higher",
                _ => return Err(format!("{path}: {name} has no `better`")),
            };
            let bound = m
                .get("bound")
                .and_then(Content::as_f64)
                .ok_or_else(|| format!("{path}: {name} has no bound"))?;
            Ok(Bound {
                name,
                higher_is_better,
                bound,
            })
        })
        .collect()
}

/// Pairs each result line with the header line before it.
fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut runs = Runs::new();
    let mut workload: Option<String> = None;
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let Ok(v) = serde_json::parse(line) else {
            continue;
        };
        if let Some(Content::Str(w)) = v.get("header").and_then(|h| h.get("workload")) {
            workload = Some(w.clone());
            continue;
        }
        let (Some(metrics), Some(w)) = (v.get("metrics").and_then(Content::as_map), &workload)
        else {
            continue;
        };
        if v.get("correct") != Some(&Content::Bool(true)) {
            return Err(format!("{path}: a run of {w} is not correct"));
        }
        let entry = runs.entry(w.clone()).or_default();
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Content::as_f64) {
                entry.entry(name.clone()).or_default().push(x);
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("{path} holds no runs"));
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool) -> Bound {
        Bound {
            name: "m".to_string(),
            higher_is_better: higher,
            bound: 0.1,
        }
    }

    #[test]
    fn tight_equal_sets_pass() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(verdict(&a, &a, &bound(false)), "PASS");
    }

    #[test]
    fn a_clear_regression_fails_in_either_direction() {
        let a = [10.0, 10.1, 9.9, 10.0];
        let slower = [12.0, 12.1, 11.9, 12.0];
        assert_eq!(verdict(&a, &slower, &bound(false)), "FAIL");
        assert_eq!(verdict(&slower, &a, &bound(true)), "FAIL");
        assert_eq!(verdict(&a, &slower, &bound(true)), "PASS");
    }

    #[test]
    fn a_wide_spread_is_unresolved() {
        let a = [5.0, 10.0, 15.0, 20.0];
        let b = [6.0, 11.0, 16.0, 21.0];
        assert_eq!(verdict(&a, &b, &bound(false)), "UNRESOLVED");
    }
}
