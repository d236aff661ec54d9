//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each `table*`/`figure*` binary in this crate builds the experiment's
//! datasets from [`pnr_synth`] / [`pnr_kddsim`] through [`PaperData`],
//! runs the competing classifiers through a common [`Method`] interface,
//! and prints rows in the paper's format (recall %, precision %, F).
//! Results are also written as JSON for the `EXPERIMENTS.md` record; the
//! result binaries share one `main`, [`run_main`].
//!
//! Scale: the paper trains on 500 000 records. Every binary accepts
//! `--scale <f>` (default 0.2) to shrink the datasets proportionally while
//! preserving the 0.3% target rarity, and `--seed <n>` for the generator.
//! The qualitative shape — who wins, where methods collapse — is stable
//! across scales; absolute numbers move a little.

pub mod artifact_out;
pub mod checkpoint;
pub mod cli;
pub mod experiments;
pub mod methods;
pub mod paper;
pub mod report;
pub mod telemetry_out;

pub use artifact_out::{artifact_path, save_pnrule_artifact};
pub use checkpoint::{CellKey, Checkpoint};
pub use cli::CliOptions;
pub use experiments::{
    categorical_config, run_cells, run_jobs, run_main, CellJob, Job, JobOutcome, PaperData,
};
pub use methods::{run_method, run_pnrule_best, BestPnrule, Method};
pub use report::{
    format_experiment, print_experiment, run_status, write_json, ExperimentResult, ResultRow,
};
