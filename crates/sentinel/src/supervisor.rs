//! The refit supervisor: from `Refit` verdict to published model — or an
//! explicit degraded daemon, never a silently worse one.
//!
//! Per attempt the supervisor (re)loads the **last-known-good** artifact,
//! runs [`pnr_core::refit_window`] on the labeled drift window (budgeted
//! fit; held-back validation slice; recall-regression gate),
//! stamps the surviving candidate's lineage — parent checksum as the
//! *daemon* reports it, window id, verdict — saves it, and publishes via
//! the daemon's lineage-checked hot-swap. Every failure class (fit
//! panic, exhausted budget, recall regression, corrupt file, rejected
//! swap) is a counted no-op followed by seeded-jitter backoff; after
//! `backoff.attempts` the supervisor tells the daemon to enter degraded mode
//! and reports [`RefitOutcome::Degraded`]. The daemon side guarantees
//! the complementary half: a candidate that fails validation there never
//! replaces the serving model.
//!
//! The daemon dependency is the [`ModelPublisher`] trait, so unit tests
//! exercise rollback and degradation against an in-memory fake — no TCP.

use crate::client::{DaemonClient, PublishOutcome};
use crate::detect::DriftVerdict;
use pnr_core::retry::Backoff;
use pnr_core::{load_with_retry, ArtifactLineage, RefitEval, RefitOptions, ServingModel};
use pnr_data::Dataset;
use pnr_telemetry::{Counter, Span, SpanKind, TelemetrySink};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The supervisor's window into the serving daemon. [`DaemonClient`]
/// implements it over TCP; tests implement it in memory.
pub trait ModelPublisher {
    /// Envelope checksum of the model currently serving.
    fn active_checksum(&mut self) -> Result<String, String>;
    /// Offers a candidate artifact; the daemon validates and either
    /// swaps or rejects.
    fn publish(&mut self, path: &Path) -> Result<PublishOutcome, String>;
    /// Switches the daemon's degraded flag.
    fn degrade(&mut self, on: bool, reason: &str) -> Result<(), String>;
}

impl ModelPublisher for DaemonClient {
    fn active_checksum(&mut self) -> Result<String, String> {
        self.stats().map(|s| s.active_checksum)
    }

    fn publish(&mut self, path: &Path) -> Result<PublishOutcome, String> {
        self.swap(path)
    }

    fn degrade(&mut self, on: bool, reason: &str) -> Result<(), String> {
        DaemonClient::degrade(self, on, reason)
    }
}

/// Supervisor knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Refit attempts (`backoff.attempts`) before declaring the episode
    /// lost and degrading, and the delay between them (jitter from its
    /// seed, not wall clock).
    pub backoff: Backoff,
    /// Windowed-refit options (holdout stride, recall tolerance, params).
    pub refit: RefitOptions,
    /// Where candidate artifacts are written.
    pub out_dir: PathBuf,
    /// Test hook: deliberately corrupt every saved candidate before
    /// publication. The daemon must reject it and keep last-known-good —
    /// this is how the CI drift-smoke job proves the rollback path.
    pub corrupt_artifacts: bool,
}

impl SupervisorConfig {
    /// A config writing under `out_dir` with defaults everywhere else.
    pub fn new(out_dir: impl Into<PathBuf>) -> Self {
        SupervisorConfig {
            backoff: Backoff::new(
                3,
                std::time::Duration::from_millis(50),
                std::time::Duration::from_secs(2),
            ),
            refit: RefitOptions::default(),
            out_dir: out_dir.into(),
            corrupt_artifacts: false,
        }
    }
}

/// How a supervised refit episode ended.
#[derive(Debug)]
pub enum RefitOutcome {
    /// A validated candidate is now serving.
    Published {
        /// Path of the published artifact.
        path: PathBuf,
        /// Daemon epoch now serving it.
        epoch: u64,
        /// Checksum of the model it replaced.
        parent_checksum: String,
        /// Validation numbers of the winning candidate.
        eval: RefitEval,
        /// Attempts consumed (1 = first try).
        attempts: u32,
    },
    /// Every attempt failed; the daemon was told to degrade and the
    /// last-known-good model keeps serving.
    Degraded {
        /// Attempts consumed.
        attempts: u32,
        /// The last failure, for the log line.
        last_error: String,
    },
}

/// Flips one byte of the serialized body so the envelope checksum no
/// longer verifies — the candidate becomes exactly the "corrupted refit"
/// the rollback path must survive.
fn corrupt_file(path: &Path) -> Result<(), String> {
    let mut bytes =
        std::fs::read(path).map_err(|e| format!("corrupt hook: read {}: {e}", path.display()))?;
    if let Some(last) = bytes.last_mut() {
        *last ^= 0x01;
    }
    std::fs::write(path, bytes).map_err(|e| format!("corrupt hook: write {}: {e}", path.display()))
}

/// Runs one refit episode for `window_id` over the labeled `window`.
/// Returns `Err` only for environment failures (unreadable baseline,
/// unwritable out dir, lost daemon); refit failures are data, not
/// errors — they come back as [`RefitOutcome::Degraded`].
pub fn supervise_refit(
    window: &Dataset,
    target_class: &str,
    baseline_path: &Path,
    window_id: u64,
    publisher: &mut dyn ModelPublisher,
    config: &SupervisorConfig,
    sink: &Arc<dyn TelemetrySink>,
) -> Result<RefitOutcome, String> {
    std::fs::create_dir_all(&config.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", config.out_dir.display()))?;
    let attempts = config.backoff.attempts.max(1);
    let mut last_error = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(config.backoff.delay(attempt - 1));
        }
        sink.add(Counter::RefitAttempts, 1);
        // reload per attempt: last-known-good may have changed, and a
        // prior corrupt candidate must never become the new baseline
        let baseline_artifact = load_with_retry(baseline_path, &Backoff::default())
            .map_err(|e| format!("cannot load baseline {}: {e}", baseline_path.display()))?;
        let baseline = ServingModel::new(baseline_artifact).with_sink(sink.clone());
        let (candidate, eval) =
            match pnr_core::refit_window(window, target_class, &baseline, &config.refit, sink) {
                Ok(pair) => pair,
                Err(e) => {
                    sink.add(Counter::RefitRollbacks, 1);
                    last_error = format!("attempt {}: {e}", attempt + 1);
                    eprintln!("refit {last_error}; keeping last-known-good");
                    continue;
                }
            };
        let parent_checksum = publisher.active_checksum()?;
        let candidate = candidate.with_lineage(ArtifactLineage {
            parent_checksum: parent_checksum.clone(),
            window_id,
            verdict: DriftVerdict::Refit.name().to_string(),
        });
        let path = config
            .out_dir
            .join(format!("refit-w{window_id}-a{}.artifact", attempt + 1));
        let published = {
            let _span = Span::enter(sink.as_ref(), SpanKind::RefitPublish, "");
            if let Err(e) = candidate.save(&path) {
                sink.add(Counter::RefitRollbacks, 1);
                last_error = format!("attempt {}: save failed: {e}", attempt + 1);
                eprintln!("refit {last_error}");
                continue;
            }
            if config.corrupt_artifacts {
                corrupt_file(&path)?;
            }
            publisher.publish(&path)?
        };
        match published {
            Ok(swapped) => {
                sink.add(Counter::RefitPublishes, 1);
                return Ok(RefitOutcome::Published {
                    path,
                    epoch: swapped.epoch,
                    parent_checksum,
                    eval,
                    attempts: attempt + 1,
                });
            }
            Err(rejected) => {
                sink.add(Counter::RefitRollbacks, 1);
                last_error = format!(
                    "attempt {}: daemon rejected ({}): {}",
                    attempt + 1,
                    rejected.error,
                    rejected.detail
                );
                eprintln!("refit {last_error}; last-known-good keeps serving");
            }
        }
    }
    publisher.degrade(
        true,
        &format!("drift window {window_id}: {attempts} refit attempt(s) failed; {last_error}"),
    )?;
    Ok(RefitOutcome::Degraded {
        attempts,
        last_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_core::{ModelArtifact, PnruleLearner, PnruleParams};
    use pnr_serve::protocol::{ErrorReply, SwapReply};
    use pnr_telemetry::RecordingSink;

    /// In-memory daemon stand-in with scriptable accept/reject.
    struct FakeDaemon {
        checksum: String,
        accept: bool,
        epoch: u64,
        degraded: Option<String>,
        published: Vec<PathBuf>,
    }

    impl FakeDaemon {
        fn new(checksum: &str, accept: bool) -> Self {
            FakeDaemon {
                checksum: checksum.to_string(),
                accept,
                epoch: 1,
                degraded: None,
                published: Vec::new(),
            }
        }
    }

    impl ModelPublisher for FakeDaemon {
        fn active_checksum(&mut self) -> Result<String, String> {
            Ok(self.checksum.clone())
        }

        fn publish(&mut self, path: &Path) -> Result<PublishOutcome, String> {
            let rejected = |error: &str, detail: String| {
                Ok(Err(ErrorReply {
                    error: error.to_string(),
                    detail,
                }))
            };
            // mirror the real daemon: verify the envelope and the lineage
            let artifact = match load_with_retry(path, &Backoff::default()) {
                Ok(a) => a,
                Err(e) => return rejected("swap_failed", e.to_string()),
            };
            if let Some(lin) = &artifact.lineage {
                if lin.parent_checksum != self.checksum {
                    return rejected("lineage_mismatch", "wrong parent".to_string());
                }
            }
            if !self.accept {
                return rejected("swap_failed", "scripted rejection".to_string());
            }
            self.epoch += 1;
            self.checksum = artifact.checksum().map_err(|e| format!("checksum: {e}"))?;
            self.published.push(path.to_path_buf());
            self.degraded = None;
            Ok(Ok(SwapReply {
                epoch: self.epoch,
                target_class: artifact.target_class().to_string(),
                schema_fingerprint: format!("{:016x}", artifact.schema_fingerprint()),
                checksum: self.checksum.clone(),
                parent_checksum: artifact.lineage.map(|lin| lin.parent_checksum),
            }))
        }

        fn degrade(&mut self, on: bool, reason: &str) -> Result<(), String> {
            self.degraded = on.then(|| reason.to_string());
            Ok(())
        }
    }

    fn sink() -> Arc<dyn TelemetrySink> {
        Arc::new(RecordingSink::new())
    }

    fn fast_config(dir: &Path) -> SupervisorConfig {
        let mut cfg = SupervisorConfig::new(dir);
        cfg.backoff = Backoff::new(
            3,
            std::time::Duration::from_millis(1),
            std::time::Duration::from_millis(2),
        )
        .with_jitter_seed(7);
        cfg
    }

    fn train_and_save(dir: &Path, rows: usize, seed: u64) -> (PathBuf, String) {
        let data = pnr_kddsim::generate_train(rows, seed);
        let target = data.class_code("dos").expect("dos class");
        let params = PnruleParams::default();
        let (model, report) = PnruleLearner::new(params.clone()).fit_with_report(&data, target);
        let artifact =
            ModelArtifact::new(model, params, report, data.schema().clone()).expect("artifact");
        let checksum = artifact.checksum().expect("checksum");
        let path = dir.join("baseline.artifact");
        artifact.save(&path).expect("save baseline");
        (path, checksum)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pnr-sentinel-sup-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn successful_refit_publishes_with_parent_lineage() {
        let dir = tmp_dir("ok");
        let (baseline, checksum) = train_and_save(&dir, 1500, 11);
        let mut daemon = FakeDaemon::new(&checksum, true);
        let window = pnr_kddsim::generate_test(2000, 12);
        let s = sink();
        let outcome = supervise_refit(
            &window,
            "dos",
            &baseline,
            5,
            &mut daemon,
            &fast_config(&dir),
            &s,
        )
        .expect("environment ok");
        match outcome {
            RefitOutcome::Published {
                parent_checksum,
                attempts,
                path,
                ..
            } => {
                assert_eq!(parent_checksum, checksum);
                assert_eq!(attempts, 1);
                // the artifact on disk carries the stamped lineage
                let saved = load_with_retry(&path, &Backoff::default()).expect("load");
                let lin = saved.lineage.expect("lineage stamped");
                assert_eq!(lin.parent_checksum, checksum);
                assert_eq!(lin.window_id, 5);
                assert_eq!(lin.verdict, "refit");
            }
            other => panic!("expected Published, got {other:?}"),
        }
        assert!(daemon.degraded.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_candidates_never_replace_last_known_good() {
        let dir = tmp_dir("corrupt");
        let (baseline, checksum) = train_and_save(&dir, 1500, 13);
        let mut daemon = FakeDaemon::new(&checksum, true);
        let window = pnr_kddsim::generate_test(2000, 14);
        let recording = Arc::new(RecordingSink::new());
        let s: Arc<dyn TelemetrySink> = recording.clone();
        let mut cfg = fast_config(&dir);
        cfg.corrupt_artifacts = true;
        let outcome =
            supervise_refit(&window, "dos", &baseline, 6, &mut daemon, &cfg, &s).expect("env ok");
        match outcome {
            RefitOutcome::Degraded {
                attempts,
                last_error,
            } => {
                assert_eq!(attempts, 3);
                assert!(last_error.contains("swap_failed"), "{last_error}");
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        // last-known-good untouched, degradation explicit, rollbacks counted
        assert_eq!(daemon.checksum, checksum);
        assert!(daemon.published.is_empty());
        assert!(daemon
            .degraded
            .as_deref()
            .unwrap_or("")
            .contains("window 6"));
        assert_eq!(recording.value(Counter::RefitRollbacks), 3);
        assert_eq!(recording.value(Counter::RefitPublishes), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_parent_is_a_lineage_rejection() {
        let dir = tmp_dir("lineage");
        let (baseline, _checksum) = train_and_save(&dir, 1500, 15);
        // daemon reports a different active checksum than the lineage
        // the supervisor will stamp? No: the supervisor stamps what the
        // publisher reports, so simulate the race by lying once
        struct LyingDaemon {
            inner: FakeDaemon,
        }
        impl ModelPublisher for LyingDaemon {
            fn active_checksum(&mut self) -> Result<String, String> {
                Ok("0000000000000000".to_string()) // stale/raced value
            }
            fn publish(&mut self, path: &Path) -> Result<PublishOutcome, String> {
                self.inner.publish(path)
            }
            fn degrade(&mut self, on: bool, reason: &str) -> Result<(), String> {
                self.inner.degrade(on, reason)
            }
        }
        let (_, real_checksum) = train_and_save(&dir, 1500, 15);
        let mut daemon = LyingDaemon {
            inner: FakeDaemon::new(&real_checksum, true),
        };
        let window = pnr_kddsim::generate_test(2000, 16);
        let s = sink();
        let outcome = supervise_refit(
            &window,
            "dos",
            &baseline,
            7,
            &mut daemon,
            &fast_config(&dir),
            &s,
        )
        .expect("env ok");
        match outcome {
            RefitOutcome::Degraded { last_error, .. } => {
                assert!(last_error.contains("lineage_mismatch"), "{last_error}");
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert_eq!(daemon.inner.checksum, real_checksum, "LKG survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn too_thin_window_degrades_without_publishing() {
        let dir = tmp_dir("thin");
        let (baseline, checksum) = train_and_save(&dir, 1500, 17);
        let mut daemon = FakeDaemon::new(&checksum, true);
        // 50 rows cannot hold min_target_rows target rows after holdout
        let window = pnr_kddsim::generate_train(50, 18);
        let s = sink();
        let mut cfg = fast_config(&dir);
        cfg.refit.min_target_rows = 200;
        let outcome =
            supervise_refit(&window, "dos", &baseline, 8, &mut daemon, &cfg, &s).expect("env ok");
        assert!(matches!(outcome, RefitOutcome::Degraded { .. }));
        assert!(daemon.published.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
