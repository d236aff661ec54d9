//! Minimal argument parsing shared by the experiment binaries.

/// Options every experiment binary accepts:
/// `--scale <f>` (default 0.2), `--seed <n>` (default 20010521 — the
/// paper's conference date), `--out <dir>` (default `results`),
/// `--threads <n>` (default: available parallelism),
/// `--resume` / `--no-resume` (default: resume) controlling whether
/// completed cells are loaded from `<out>/checkpoints/`, and
/// `--telemetry` / `--no-telemetry` (default: off) controlling whether
/// each freshly run cell writes an NDJSON fit trace under
/// `<out>/telemetry/`.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Dataset scale factor relative to the paper's 500k/250k records.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Output directory for JSON results.
    pub out_dir: String,
    /// Worker threads for independent (dataset, method) runs.
    pub threads: usize,
    /// Load completed cells from checkpoints and persist new ones.
    pub resume: bool,
    /// Record per-cell fit telemetry (spans + counters) and export it as
    /// NDJSON next to the checkpoints, keyed by the same fingerprint.
    pub telemetry: bool,
    /// Directory to save the best PNrule cell of each experiment as a
    /// loadable model artifact (`--save-model <dir>`; off by default).
    pub save_model: Option<String>,
}

/// Usage text printed when argument parsing fails.
pub const USAGE: &str = "usage: <binary> [--scale <f>] [--seed <n>] [--out <dir>] \
[--threads <n>] [--resume | --no-resume] [--telemetry | --no-telemetry] \
[--save-model <dir>]";

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            scale: 0.2,
            seed: 20_010_521,
            out_dir: "results".to_string(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            resume: true,
            telemetry: false,
            save_model: None,
        }
    }
}

impl CliOptions {
    /// Parses `std::env::args`-style arguments. Malformed input is an
    /// `Err` with a one-line explanation, never a panic.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = CliOptions::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match arg.as_str() {
                "--scale" => {
                    let raw = value("--scale")?;
                    opts.scale = raw
                        .parse()
                        .map_err(|_| format!("--scale takes a float, got {raw:?}"))?;
                    if !(opts.scale.is_finite() && opts.scale > 0.0) {
                        return Err("--scale must be positive and finite".to_string());
                    }
                }
                "--seed" => {
                    let raw = value("--seed")?;
                    opts.seed = raw
                        .parse()
                        .map_err(|_| format!("--seed takes an integer, got {raw:?}"))?;
                }
                "--out" => opts.out_dir = value("--out")?,
                "--threads" => {
                    let raw = value("--threads")?;
                    opts.threads = raw
                        .parse()
                        .map_err(|_| format!("--threads takes an integer, got {raw:?}"))?;
                    if opts.threads == 0 {
                        return Err("--threads must be positive".to_string());
                    }
                }
                "--resume" => opts.resume = true,
                "--no-resume" => opts.resume = false,
                "--telemetry" => opts.telemetry = true,
                "--no-telemetry" => opts.telemetry = false,
                "--save-model" => opts.save_model = Some(value("--save-model")?),
                other => {
                    return Err(format!(
                        "unknown argument {other}; expected --scale / --seed / --out / \
                         --threads / --resume / --no-resume / --telemetry / --no-telemetry / \
                         --save-model"
                    ))
                }
            }
        }
        Ok(opts)
    }

    /// Parses the process arguments (skipping the binary name). On
    /// malformed input, prints the error and usage to stderr and exits
    /// with status 2 — the conventional "bad invocation" code, distinct
    /// from 1 which reports failed experiment cells.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(problem) => {
                eprintln!("error: {problem}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        CliOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_empty() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.scale, 0.2);
        assert_eq!(o.out_dir, "results");
        assert!(o.resume, "resume defaults on");
        assert!(!o.telemetry, "telemetry defaults off");
        assert!(o.save_model.is_none(), "model saving defaults off");
    }

    #[test]
    fn parses_all_flags() {
        let o = parse(&[
            "--scale",
            "1.0",
            "--seed",
            "42",
            "--out",
            "r2",
            "--threads",
            "3",
            "--no-resume",
            "--telemetry",
            "--save-model",
            "r2/models",
        ])
        .unwrap();
        assert_eq!(o.scale, 1.0);
        assert_eq!(o.seed, 42);
        assert_eq!(o.out_dir, "r2");
        assert_eq!(o.threads, 3);
        assert!(!o.resume);
        assert!(o.telemetry);
        assert_eq!(o.save_model.as_deref(), Some("r2/models"));
        let o = parse(&["--no-resume", "--resume"]).unwrap();
        assert!(o.resume, "last flag wins");
        let o = parse(&["--telemetry", "--no-telemetry"]).unwrap();
        assert!(!o.telemetry, "last flag wins");
    }

    #[test]
    fn rejects_unknown_flag() {
        let err = parse(&["--nope"]).unwrap_err();
        assert!(err.contains("unknown argument --nope"), "{err}");
    }

    #[test]
    fn rejects_nonpositive_scale() {
        let err = parse(&["--scale", "0"]).unwrap_err();
        assert!(err.contains("--scale must be positive"), "{err}");
        let err = parse(&["--scale", "NaN"]).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = parse(&["--scale", "inf"]).unwrap_err();
        assert!(err.contains("finite"), "{err}");
    }

    #[test]
    fn rejects_malformed_values_without_panicking() {
        assert!(parse(&["--scale", "wide"]).is_err());
        assert!(parse(&["--seed", "-1"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads"])
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse(&["--save-model"])
            .unwrap_err()
            .contains("requires a value"));
    }
}
