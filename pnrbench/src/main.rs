//! `pnr-bench` — one benchmark for the PNrule system: CSV→artifact fits
//! and the `pnr-serve` scoring daemon, end to end and layer by layer.
//!
//! ```text
//! pnr-bench run <workload|all> [--seed N] [--seconds S] [--trace] [--smoke]
//! pnr-bench agree <runs-a> <runs-b> [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` prints, per workload, a header line and then one result line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`: the
//! end-to-end metrics, or with `--trace` the per-layer ones. A failed
//! correctness gate prints `"correct":false` with no metrics and exits 1.
//! Run it from the repository root; see `README.md` next to this crate.

mod agree;
mod fit;
mod report;
mod serve;
mod stages;
mod stats;
mod sys;
mod workloads;

use std::process::ExitCode;
use workloads::{Ctx, Workload};

const USAGE: &str = "usage: pnr-bench run <workload|all> [--seed N] [--seconds S] [--trace] \
[--smoke]\n       pnr-bench agree <runs-a> <runs-b> [--benchmark BENCHMARK.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("agree") => agree::main(&args[1..]),
        // the timed fit of one rep, in its own process
        Some("fit-child") => fit::child_main(&args[1..]),
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn run(args: &[String]) -> ExitCode {
    let mut which: Option<&str> = None;
    let mut ctx = Ctx {
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut number = |what: &str| {
            it.next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{what} needs a whole number"))
        };
        let parsed = match arg.as_str() {
            "--seed" => number("--seed").map(|n| ctx.seed = n),
            "--seconds" => number("--seconds").map(|n| ctx.seconds = n.max(1)),
            "--trace" => {
                ctx.trace = true;
                Ok(())
            }
            "--smoke" => {
                ctx.smoke = true;
                Ok(())
            }
            name if which.is_none() && !name.starts_with('-') => {
                which = Some(name);
                Ok(())
            }
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("error: {e}");
            return usage();
        }
    }
    let workloads = match which {
        Some("all") => Workload::ALL.to_vec(),
        Some(name) => match Workload::parse(name) {
            Some(w) => vec![w],
            None => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                eprintln!("error: unknown workload {name:?}; one of {names:?} or all");
                return usage();
            }
        },
        None => return usage(),
    };
    let mut all_correct = true;
    for w in workloads {
        all_correct &= run_one(w, &ctx);
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload and prints its header and result lines.
fn run_one(w: Workload, ctx: &Ctx) -> bool {
    let outcome = w
        .run(ctx)
        .and_then(|o| match o.metrics.iter().find(|m| !m.value.is_finite()) {
            Some(m) => Err(format!("metric {} is not finite", m.name)),
            None => Ok(o),
        });
    let header = |extra: &[(&'static str, serde::Content)]| {
        report::header_line(w.name(), ctx.seed, ctx.seconds, ctx.trace, ctx.smoke, extra)
    };
    match outcome {
        Ok(o) => {
            println!("{}", header(&o.header));
            println!(
                "{}",
                report::result_line(true, o.attempted, o.failed, &o.metrics)
            );
            true
        }
        Err(e) => {
            eprintln!("{}: {e}", w.name());
            println!("{}", header(&[]));
            println!("{}", report::result_line(false, 1, 1, &[]));
            false
        }
    }
}
