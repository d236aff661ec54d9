//! `pnr-serve` — the fault-tolerant scoring daemon.
//!
//! ```text
//! pnr-serve --model <artifact> [--addr 127.0.0.1:0] [--workers N]
//!           [--queue-capacity N] [--shed reject|drop-oldest]
//!           [--deadline-ms N] [--unknown condition-false|abstain|reject]
//!           [--missing reject|default] [--state <path>]
//!           [--addr-file <path>] [--enable-fault-injection]
//! ```
//!
//! Binds a TCP listener (port 0 picks a free port), prints
//! `pnr-serve listening on <addr>` on stdout, then serves the NDJSON
//! protocol until a `shutdown` command drains it; its last stdout line
//! is then the final `stats` record. With `--state`, the active artifact
//! path is persisted across restarts and a present state file wins over
//! `--model` (kill -9 recovery).
//!
//! Exit codes: 0 after a graceful drain, 1 for data/model failures
//! (artifact unreadable, bind failure), 2 for usage errors.

use pnr_serve::{DaemonConfig, ShedPolicy};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: pnr-serve --model <artifact> [--addr A] [--workers N] \
[--queue-capacity N] [--shed reject|drop-oldest] [--deadline-ms N] \
[--unknown condition-false|abstain|reject] [--missing reject|default] \
[--state <path>] [--addr-file <path>] [--enable-fault-injection]";

fn bail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(pnr_core::exit::USAGE as u8)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut model: Option<PathBuf> = None;
    let mut config = DaemonConfig::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--model" => match args.next() {
                Some(v) => model = Some(PathBuf::from(v)),
                None => return bail("--model needs a path"),
            },
            "--addr" => match args.next() {
                Some(v) => config.addr = v,
                None => return bail("--addr needs an address"),
            },
            "--workers" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => config.workers = n,
                _ => return bail("--workers needs a positive integer"),
            },
            "--queue-capacity" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => config.queue_capacity = n,
                _ => return bail("--queue-capacity needs a positive integer"),
            },
            "--shed" => match args.next().as_deref().and_then(ShedPolicy::parse) {
                Some(p) => config.shed = p,
                None => return bail("--shed must be `reject` or `drop-oldest`"),
            },
            "--deadline-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => config.default_deadline_ms = Some(n),
                None => return bail("--deadline-ms needs a non-negative integer"),
            },
            "--unknown" => match args
                .next()
                .as_deref()
                .and_then(pnr_core::UnknownPolicy::parse)
            {
                Some(p) => config.unknown = p,
                None => return bail("--unknown must be condition-false, abstain or reject"),
            },
            "--missing" => {
                match args
                    .next()
                    .as_deref()
                    .and_then(pnr_core::MissingColumnPolicy::parse)
                {
                    Some(p) => config.missing = p,
                    None => return bail("--missing must be reject or default"),
                }
            }
            "--state" => match args.next() {
                Some(v) => config.state_path = Some(PathBuf::from(v)),
                None => return bail("--state needs a path"),
            },
            "--addr-file" => match args.next() {
                Some(v) => config.addr_file = Some(PathBuf::from(v)),
                None => return bail("--addr-file needs a path"),
            },
            "--enable-fault-injection" => config.fault_injection = true,
            other => return bail(&format!("unknown argument {other:?}")),
        }
    }
    let Some(model) = model else {
        return bail("--model is required");
    };
    match pnr_serve::run(&model, config) {
        Ok(last_stats) => {
            // the drain's final `stats` record is the last stdout line
            let _ = writeln!(std::io::stdout().lock(), "{last_stats}");
            ExitCode::from(pnr_core::exit::OK as u8)
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(pnr_core::exit::DATA_FAILURE as u8)
        }
    }
}
