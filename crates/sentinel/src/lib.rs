//! `pnr-sentinel` — drift monitoring and refit supervision for the
//! scoring daemon.
//!
//! The sentinel closes the serving loop the paper's KDD experiment
//! leaves open: the test distribution *shifts* (probe 0.83% → 1.34%,
//! r2l 0.23% → 5.2%, with novel subclasses), and a model fitted on the
//! old mix silently decays. This crate watches a running `pnr-serve`
//! daemon through its own `stats` protocol and reacts in three stages:
//!
//! 1. **Detect** ([`detect`]): successive stats snapshots are differenced
//!    into per-window rates (positive-decision rate, quarantine rate,
//!    score-mass distribution) and fed to Page-Hinkley and windowed-rate
//!    tests with deterministic thresholds. The result is a typed
//!    [`DriftVerdict`]: `None`, `Warn`, or `Refit`.
//! 2. **Refit** ([`supervisor`]): on `Refit`, a windowed refit runs
//!    through [`pnr_core::refit_window`] — a fit under a budget,
//!    held-back validation slice, recall-regression gate — with
//!    bounded, jitter-seeded retry. Only a candidate that validated is
//!    published, via the daemon's lineage-checked hot-swap; its artifact
//!    envelope records the parent checksum, window id and verdict. A
//!    failed, panicking or regressing refit is a logged no-op: the
//!    daemon keeps serving the **last known good** model.
//! 3. **Degrade**: when every attempt failed, the sentinel tells the
//!    daemon to enter explicit degraded mode, which the daemon surfaces
//!    in `stats` (`"mode":"degraded"`) and in every response envelope
//!    (`"degraded":true`) until a later swap succeeds.
//!
//! The stats reply the sentinel reads is [`pnr_serve::protocol::Stats`],
//! the same type the daemon writes it from; [`client`] is the
//! NDJSON-over-TCP control client with seeded-backoff reconnects.

pub mod client;
pub mod detect;
pub mod supervisor;

pub use client::{DaemonClient, PublishOutcome};
pub use detect::{DetectorConfig, DriftDetector, DriftVerdict, WindowDelta};
pub use supervisor::{supervise_refit, ModelPublisher, RefitOutcome, SupervisorConfig};
