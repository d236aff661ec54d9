//! `pnr-serve`: a fault-tolerant batch scoring daemon for PNrule models.
//!
//! The library behind the `pnr-serve` and `pnr-loadgen` binaries. It
//! turns the repo's [`ServingModel`](pnr_core::ServingModel) into a
//! long-running NDJSON-over-TCP service with the robustness properties a
//! rare-class detector needs in production:
//!
//! * **Panic isolation** ([`pool`]): every request runs on a fixed worker
//!   pool inside the workspace's one panic boundary,
//!   [`pnr_core::panic_capture::run_caught`]; a panicking request becomes
//!   a typed `worker_panic` response and its worker pops the next job.
//! * **Backpressure** ([`queue`]): a bounded queue with an explicit shed
//!   policy (reject with `retry_after_ms`, or drop-oldest), so overload
//!   degrades into typed rejections instead of unbounded memory growth.
//! * **Zero-downtime hot-swap** ([`daemon`]): `swap` validates the new
//!   artifact off the hot path (checksum + schema, with bounded retry on
//!   transient I/O under the default [`pnr_core::Backoff`]) and publishes
//!   it atomically as a new epoch; in-flight requests finish on the epoch
//!   they were admitted against.
//! * **Graceful drain & crash recovery** ([`daemon`], [`state`]):
//!   `shutdown` stops admission, finishes the backlog, prints the final
//!   `stats` record as one NDJSON line and exits 0; a state file remembers
//!   the active artifact so `kill -9` + restart resumes the last
//!   swapped-in model.
//! * **Telemetry-native observability** ([`sink`]): counters and latency
//!   percentiles come out of the same
//!   [`TelemetrySink`](pnr_telemetry::TelemetrySink) interface the
//!   learners use.
//!
//! The wire protocol is documented in [`protocol`], which also types
//! every request and the `stats`/`swap` replies once, for the daemon and
//! every client.

pub mod daemon;
pub mod pool;
pub mod protocol;
pub mod queue;
pub mod sink;
pub mod state;

pub use daemon::{read_addr_file, run, DaemonConfig};
pub use pool::WorkerPool;
pub use protocol::{err_line, ok_line, parse_request, Request};
pub use queue::{BoundedQueue, PushError, PushOutcome, ShedPolicy};
pub use sink::{LatencyHistogram, ServeSink};
pub use state::{persist_active, read_active};
