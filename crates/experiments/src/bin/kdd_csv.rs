//! Emits simulated KDD'99 connection records as CSV — the companion
//! generator for the `predict` serving walkthrough and the CI drift
//! suite.
//!
//! ```text
//! kdd_csv [--rows <n>] [--seed <n>] [--test] [--out <file.csv>]
//!         [--columns <name,name,...>]
//!         [--malformed-rate <p>] [--drift-rate <p>]
//! ```
//!
//! `--columns` selects and *orders* the emitted columns by attribute
//! name (plus the literal `class`), which is how the drift tests build
//! reordered/dropped-column inputs; an unknown name is a usage error
//! (exit 2) listing the valid names. Default: every attribute in schema
//! order, then `class`.
//!
//! `--malformed-rate` / `--drift-rate` route rows through the shared
//! [`pnr_kddsim::FaultInjector`]: malformed rows are truncated or get an
//! unparsable numeric (structural quarantine downstream), drifted rows
//! get an unseen category or a non-finite numeric (unknown-value
//! policies downstream). The class column is never an injection target.
//! When either rate is non-zero an exact injection census is printed to
//! stderr so fault suites can assert serving counters against it.

use std::io::Write;

const USAGE: &str = "usage: kdd_csv [--rows <n>] [--seed <n>] [--test] \
[--out <file.csv>] [--columns <name,name,...>] \
[--malformed-rate <p>] [--drift-rate <p>]";

fn bail(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!("{USAGE}");
    std::process::exit(pnr_core::exit::USAGE);
}

/// A column to emit: a schema attribute or the class label.
enum Col {
    Attr(usize),
    Class,
}

fn main() {
    let mut rows = 1_000usize;
    let mut seed = 7u64;
    let mut test_mix = false;
    let mut out = None;
    let mut columns: Option<String> = None;
    let mut malformed_rate = 0.0f64;
    let mut drift_rate = 0.0f64;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| bail(&format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--rows" => {
                let raw = value("--rows");
                rows = raw
                    .parse()
                    .unwrap_or_else(|_| bail(&format!("--rows takes an integer, got {raw:?}")));
            }
            "--seed" => {
                let raw = value("--seed");
                seed = raw
                    .parse()
                    .unwrap_or_else(|_| bail(&format!("--seed takes an integer, got {raw:?}")));
            }
            "--test" => test_mix = true,
            "--out" => out = Some(value("--out")),
            "--columns" => columns = Some(value("--columns")),
            "--malformed-rate" => {
                let raw = value("--malformed-rate");
                malformed_rate = raw.parse().unwrap_or_else(|_| {
                    bail(&format!("--malformed-rate takes a number, got {raw:?}"))
                });
            }
            "--drift-rate" => {
                let raw = value("--drift-rate");
                drift_rate = raw
                    .parse()
                    .unwrap_or_else(|_| bail(&format!("--drift-rate takes a number, got {raw:?}")));
            }
            other => bail(&format!("unknown argument {other}")),
        }
    }

    let cols: Vec<Col> = match &columns {
        None => (0..pnr_kddsim::N_ATTRS)
            .map(Col::Attr)
            .chain(std::iter::once(Col::Class))
            .collect(),
        Some(spec) => spec
            .split(',')
            .map(str::trim)
            .filter(|name| !name.is_empty())
            .map(|name| {
                if name == "class" {
                    Col::Class
                } else {
                    match pnr_kddsim::try_attr_index(name) {
                        Some(i) => Col::Attr(i),
                        None => bail(&format!(
                            "unknown column {name:?}; valid columns: {}, class",
                            pnr_kddsim::ATTR_NAMES.join(", ")
                        )),
                    }
                }
            })
            .collect(),
    };
    if cols.is_empty() {
        bail("--columns selected no columns");
    }

    let mut injector = match pnr_kddsim::FaultInjector::new(seed, malformed_rate, drift_rate) {
        Ok(inj) => inj,
        Err(problem) => bail(&problem),
    };
    let inject = malformed_rate > 0.0 || drift_rate > 0.0;
    // Field indices eligible for value faults, in emitted-column order;
    // the class column is never a target.
    let mut numeric_cols = Vec::new();
    let mut categorical_cols = Vec::new();

    let data = if test_mix {
        pnr_kddsim::generate_test(rows, seed)
    } else {
        pnr_kddsim::generate_train(rows, seed)
    };
    for (k, c) in cols.iter().enumerate() {
        if let Col::Attr(i) = c {
            if data.schema().attr(*i).is_numeric() {
                numeric_cols.push(k);
            } else {
                categorical_cols.push(k);
            }
        }
    }

    let mut text = String::new();
    let header: Vec<&str> = cols
        .iter()
        .map(|c| match c {
            Col::Attr(i) => data.schema().attr(*i).name.as_str(),
            Col::Class => "class",
        })
        .collect();
    text.push_str(&header.join(","));
    text.push('\n');
    for row in 0..data.n_rows() {
        let attrs = pnr_kddsim::row_fields(&data, row);
        let mut fields: Vec<String> = cols
            .iter()
            .map(|c| match c {
                Col::Attr(i) => attrs[*i].clone(),
                Col::Class => data.class_name(data.label(row)).to_string(),
            })
            .collect();
        if inject {
            injector.inject(&mut fields, &numeric_cols, &categorical_cols);
        }
        text.push_str(&fields.join(","));
        text.push('\n');
    }
    if inject {
        eprintln!("{}", injector.census().summary());
    }

    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(pnr_core::exit::DATA_FAILURE);
            }
        }
        None => {
            let stdout = std::io::stdout();
            if let Err(e) = stdout.lock().write_all(text.as_bytes()) {
                eprintln!("error: cannot write output: {e}");
                std::process::exit(pnr_core::exit::DATA_FAILURE);
            }
        }
    }
}
