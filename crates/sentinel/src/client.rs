//! NDJSON-over-TCP control client for the daemon.
//!
//! One lockstep request/reply per call — the sentinel is a control
//! plane, not a load generator, so simplicity beats pipelining. Connects
//! (and reconnects) under the shared [`pnr_core::retry`] bounded backoff
//! with seeded jitter, so a daemon that is still binding its port or
//! briefly restarting does not kill the monitor.

use pnr_core::retry::{self, Backoff, RetryError};
use pnr_data::LineReader;
use pnr_serve::protocol::{decode_reply, ErrorReply, Request, Stats, SwapReply};
use serde::Content;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// Reply to a publish (`swap`) attempt: the daemon swapped to the
/// candidate, or rejected it (`swap_failed`, `lineage_mismatch`, ...) and
/// the old model keeps serving.
pub type PublishOutcome = Result<SwapReply, ErrorReply>;

/// A connected control client.
#[derive(Debug)]
pub struct DaemonClient {
    lines: LineReader<BufReader<TcpStream>>,
    writer: TcpStream,
}

impl DaemonClient {
    /// Connects with bounded, seeded-jitter retry: every refused or
    /// timed-out attempt backs off per `backoff` until exhaustion.
    pub fn connect(addr: &str, backoff: &Backoff) -> Result<DaemonClient, String> {
        let stream = retry::run(
            backoff,
            |_e: &String| true,
            |_attempt| TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}")),
        )
        .map_err(|e| match e {
            RetryError::Fatal(msg) => msg,
            RetryError::Exhausted { attempts, last } => {
                format!("gave up connecting after {attempts} attempt(s): {last}")
            }
        })?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("cannot set read timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        Ok(DaemonClient {
            lines: LineReader::new(BufReader::new(stream)),
            writer,
        })
    }

    /// Sends one line, reads one reply line.
    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("write failed: {e}"))?;
        match self.lines.next_line() {
            Ok(Some((_, Ok(reply)))) => Ok(reply.trim().to_string()),
            Ok(Some((_, Err(e)))) => Err(format!("reply line is not UTF-8: {e}")),
            Ok(None) => Err("daemon closed the connection".to_string()),
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    /// Fetches and decodes a stats snapshot.
    pub fn stats(&mut self) -> Result<Stats, String> {
        let reply = self.roundtrip(&Request::Stats.to_line())?;
        Stats::parse(&reply)
    }

    /// Asks the daemon to hot-swap to the artifact at `path`. A rejected
    /// swap is an `Ok(Err(..))` — the request worked, the daemon said no
    /// — while transport failures are `Err`.
    pub fn swap(&mut self, path: &Path) -> Result<PublishOutcome, String> {
        let request = Request::Swap {
            path: path.display().to_string(),
        };
        decode_reply(&self.roundtrip(&request.to_line())?, "swap")
    }

    /// Sets or clears the daemon's degraded mode.
    pub fn degrade(&mut self, on: bool, reason: &str) -> Result<(), String> {
        let request = Request::Degrade {
            on,
            reason: reason.to_string(),
        };
        let reply = self.roundtrip(&request.to_line())?;
        match decode_reply::<Content>(&reply, "degrade")? {
            Ok(_) => Ok(()),
            Err(rejected) => Err(format!("degrade rejected: {rejected}")),
        }
    }

    /// Asks the daemon to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.roundtrip(&Request::Shutdown.to_line()).map(|_| ())
    }
}
