//! What every run prints, and the process probes behind it.
//!
//! A run prints two JSON lines on stdout: a header (what was run, on
//! what, with which settings) and, last, the result object with exactly
//! the keys `correct`, `attempted`, `failed` and `metrics`.

use serde::Content;
use std::path::{Path, PathBuf};

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload measured: operations attempted and failed, the
/// end-to-end metrics and, on a traced run, the per-layer ones.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Workload-specific header fields (sizes, reps, daemon flags).
    pub header: Vec<(&'static str, Content)>,
}

/// The header line: common fields first, then the workload's own.
pub fn header_line(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    extra: &[(&'static str, Content)],
) -> String {
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut fields = vec![
        ("workload".to_string(), Content::Str(workload.to_string())),
        ("git_rev".to_string(), Content::Str(git_rev(Path::new(".")))),
        (
            "detected_parallelism".to_string(),
            Content::U64(parallelism as u64),
        ),
        ("seed".to_string(), Content::U64(seed)),
        ("seconds".to_string(), Content::U64(seconds)),
        ("trace".to_string(), Content::Bool(trace)),
        (
            "scale".to_string(),
            Content::Str(if smoke { "smoke" } else { "full" }.to_string()),
        ),
    ];
    fields.extend(extra.iter().map(|(k, v)| (k.to_string(), v.clone())));
    render(Content::Map(vec![(
        "header".to_string(),
        Content::Map(fields),
    )]))
}

/// The result line. `metrics` is empty when a correctness gate failed.
/// Every value must be finite; the caller checks this first.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Content::Map(vec![
                    ("value".to_string(), Content::F64(m.value)),
                    ("unit".to_string(), Content::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    render(Content::Map(vec![
        ("correct".to_string(), Content::Bool(correct)),
        ("attempted".to_string(), Content::U64(attempted)),
        ("failed".to_string(), Content::U64(failed)),
        ("metrics".to_string(), Content::Map(metrics)),
    ]))
}

fn render(c: Content) -> String {
    serde_json::to_string(&c).expect("a content tree always renders")
}

/// The checked-out commit, read straight from `.git` (no `git` process);
/// `unknown` outside a git checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set (`VmHWM`) of a process in MB, from
/// `/proc/<pid>/status` (`None` = this process).
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

/// A scratch directory inside the checkout, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// `.bench_work/<name>-<pid>` under the current directory.
    pub fn create(name: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // leaves the parent only when no concurrent run still uses it
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &[metric("p50_ms", 1.25, "ms")]);
        let v = serde_json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").and_then(|m| m.get("p50_ms")).unwrap();
        assert_eq!(m.get("value").and_then(Content::as_f64), Some(1.25));
        assert_eq!(m.get("unit"), Some(&Content::Str("ms".to_string())));
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb(None).unwrap() > 0.0);
    }

    #[test]
    fn git_rev_is_unknown_outside_a_checkout() {
        assert_eq!(git_rev(Path::new("/nonexistent-dir")), "unknown");
    }
}
