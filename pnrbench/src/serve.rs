//! The serving path: the real `pnr-serve` binary, driven over one TCP
//! connection. Open loop, two threads share it: a sender that writes
//! each pre-rendered request at its due time, and a reader that only
//! timestamps reply lines and pulls out their `id`. Closed loop, one
//! thread keeps a fixed number of requests in flight. Parsing and
//! checking the replies happens after timing.

use crate::stats::sorted;
use pnr_core::{ColumnMap, ServingModel};
use pnr_data::Dataset;
use serde::Content;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Longest a pass may wait for its last reply once sending stopped.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A running daemon. Dropping it kills the process if it is still up,
/// so no error path leaves one behind.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Starts the `pnr-serve` built next to this binary and waits for its
    /// `listening on` line.
    pub fn spawn(model: &Path, flags: &[&str]) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate pnr-bench: {e}"))?;
        let bin = exe.with_file_name("pnr-serve");
        let mut child = Command::new(&bin)
            .arg("--model")
            .arg(model)
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("daemon stdout not captured")?;
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read daemon banner: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("pnr-serve listening on ")
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the drained daemon to exit (after `shutdown`) and checks
    /// it exited 0.
    pub fn wait(mut self) -> Result<(), String> {
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        let status = self.child.wait().map_err(|e| format!("wait daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Rendered request bodies plus the answer each row must get.
#[derive(Debug)]
pub struct Traffic {
    /// The `rows` array of each request, as JSON.
    pub bodies: Vec<String>,
    /// Per body, per row: the in-process `score_fields` result as
    /// `(score bits, decision)`.
    pub expected: Vec<Vec<(u64, bool)>>,
    /// Per body, per row: whether the row belongs to the target class.
    pub labels: Vec<Vec<bool>>,
}

impl Traffic {
    /// Deals the rows of `data`, shuffled by `seed`, into bodies of
    /// `rows_per_request` rows and scores every row in process for the
    /// later bit-identity check. The generators emit one subclass after
    /// another; unshuffled, the cost of a request would drift through a
    /// pass and its median would sit on the edge between two blocks.
    pub fn build(
        data: &Dataset,
        rows_per_request: usize,
        seed: u64,
        serving: &ServingModel,
        map: &ColumnMap,
        target: u32,
    ) -> Result<Traffic, String> {
        let order = shuffled(data.n_rows(), seed);
        let requests = data.n_rows() / rows_per_request;
        let mut traffic = Traffic {
            bodies: Vec::with_capacity(requests),
            expected: Vec::with_capacity(requests),
            labels: Vec::with_capacity(requests),
        };
        for k in 0..requests {
            let mut rows = Vec::with_capacity(rows_per_request);
            let mut expected = Vec::with_capacity(rows_per_request);
            let mut labels = Vec::with_capacity(rows_per_request);
            for &r in &order[k * rows_per_request..(k + 1) * rows_per_request] {
                let fields = pnr_kddsim::row_fields(data, r);
                let rec = serving
                    .score_fields(&fields, map)
                    .map_err(|e| format!("in-process score of row {r}: {e}"))?;
                expected.push((rec.score.to_bits(), rec.decision));
                labels.push(data.label(r) == target);
                rows.push(Content::Seq(fields.into_iter().map(Content::Str).collect()));
            }
            traffic
                .bodies
                .push(serde_json::to_string(&Content::Seq(rows)).map_err(|e| e.to_string())?);
            traffic.expected.push(expected);
            traffic.labels.push(labels);
        }
        Ok(traffic)
    }

    /// The full request line for request `id` carrying body `body`.
    pub fn line(&self, id: u64, body: usize, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(b"{\"cmd\":\"score\",\"id\":\"");
        out.extend_from_slice(id.to_string().as_bytes());
        out.extend_from_slice(b"\",\"rows\":");
        out.extend_from_slice(self.bodies[body].as_bytes());
        out.extend_from_slice(b"}\n");
    }
}

/// `0..n` in a random order drawn from `seed` (Fisher–Yates over
/// SplitMix64).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

/// One pass of traffic: what was sent when, and what came back when.
/// Times are nanoseconds since the pass's base instant.
#[derive(Debug, Default)]
pub struct Pass {
    pub first_id: u64,
    /// Traffic body of the pass's first request (bodies then cycle).
    pub first_body: usize,
    /// Requests written.
    pub sent: usize,
    /// When each request was due: its slot in the schedule (open loop)
    /// or the moment it went out (closed loop).
    pub due_ns: Vec<u64>,
    /// Open loop: send time minus due time, per request.
    pub late_ns: Vec<u64>,
    pub recv_ns: Vec<Option<u64>>,
    pub replies: Vec<Option<String>>,
}

impl Pass {
    fn new(first_id: u64, first_body: usize, due_ns: Vec<u64>) -> Pass {
        let n = due_ns.len();
        Pass {
            first_id,
            first_body,
            due_ns,
            recv_ns: vec![None; n],
            replies: vec![None; n],
            ..Pass::default()
        }
    }

    pub fn is_ok(&self, i: usize) -> bool {
        matches!(&self.replies[i], Some(r) if r.starts_with("{\"ok\":true"))
    }

    /// Requests without an ok reply (refused, shed, expired or lost).
    pub fn failures(&self) -> usize {
        (0..self.sent).filter(|&i| !self.is_ok(i)).count()
    }

    /// Latency of every ok reply, due time → arrival, in ms, sorted.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let v: Vec<f64> = (0..self.sent)
            .filter(|&i| self.is_ok(i))
            .filter_map(|i| self.recv_ns[i].map(|r| r.saturating_sub(self.due_ns[i]) as f64 / 1e6))
            .collect();
        sorted(&v)
    }

    /// Replies per second between the first and the last arrival.
    pub fn reply_rate(&self) -> f64 {
        let arrivals = self.recv_ns.iter().flatten();
        let (first, last) = (arrivals.clone().min(), arrivals.max());
        match (first, last) {
            (Some(&a), Some(&b)) if b > a => (self.sent - 1) as f64 * 1e9 / (b - a) as f64,
            _ => 0.0,
        }
    }

    /// Files one reply line under the request its `id` names.
    fn file(&mut self, line: String, t: u64) -> Result<(), String> {
        let idx = reply_id(&line)
            .and_then(|id| id.checked_sub(self.first_id))
            .and_then(|i| usize::try_from(i).ok())
            .filter(|&i| i < self.recv_ns.len())
            .ok_or_else(|| format!("reply with unknown id: {line}"))?;
        if self.recv_ns[idx].is_some() {
            return Err(format!("second reply for request {idx}"));
        }
        self.recv_ns[idx] = Some(t);
        self.replies[idx] = Some(line);
        Ok(())
    }
}

/// The benchmark's one connection to the daemon.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    /// Score requests written so far on this connection.
    pub submissions: u64,
}

impl Client {
    /// Connects and declares the column header (lockstep `hello`).
    pub fn connect(addr: &str, columns: &[&str]) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(|e| format!("set read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut client = Client {
            stream,
            reader,
            next_id: 0,
            submissions: 0,
        };
        let columns = Content::Seq(
            columns
                .iter()
                .map(|c| Content::Str(c.to_string()))
                .collect(),
        );
        let hello = serde_json::to_string(&Content::Map(vec![
            ("cmd".to_string(), Content::Str("hello".to_string())),
            ("columns".to_string(), columns),
        ]))
        .map_err(|e| e.to_string())?;
        let reply = client.control(&hello)?;
        if !reply.starts_with("{\"ok\":true") {
            return Err(format!("hello refused: {reply}"));
        }
        Ok(client)
    }

    /// Sends one control line and waits for its reply.
    pub fn control(&mut self, line: &str) -> Result<String, String> {
        (&self.stream)
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        read_line(&mut self.reader)
    }

    /// Open loop: sends `count` requests at `rate` per second on
    /// schedule, whatever the replies do, and collects every reply.
    pub fn open_loop(
        &mut self,
        traffic: &Traffic,
        first_body: usize,
        count: usize,
        rate: f64,
    ) -> Result<Pass, String> {
        let gap_ns = 1e9 / rate;
        let due: Vec<u64> = (0..count).map(|i| (gap_ns * i as f64) as u64).collect();
        let mut pass = Pass::new(self.next_id, first_body, due);
        let sent = AtomicUsize::new(0);
        let sending = AtomicBool::new(true);
        let base = Instant::now() + Duration::from_millis(1);
        let (first_id, due, stream) = (pass.first_id, pass.due_ns.clone(), &self.stream);
        let (reader, pass_mut) = (&mut self.reader, &mut pass);
        let late = std::thread::scope(|s| {
            let sender = s.spawn(|| -> Result<Vec<u64>, String> {
                let mut late = Vec::with_capacity(count);
                let mut buf = Vec::new();
                let mut out = stream;
                let mut result = Ok(());
                for (i, &due) in due.iter().enumerate() {
                    let body = (first_body + i) % traffic.bodies.len();
                    traffic.line(first_id + i as u64, body, &mut buf);
                    wait_until(base, due);
                    late.push(nanos_since(base).saturating_sub(due));
                    if let Err(e) = out.write_all(&buf) {
                        result = Err(format!("write request: {e}"));
                        break;
                    }
                    sent.store(i + 1, Ordering::SeqCst);
                }
                sending.store(false, Ordering::SeqCst);
                result.map(|()| late)
            });
            let read = read_replies(reader, pass_mut, base, &sent, &sending);
            let late = sender
                .join()
                .map_err(|_| "sender thread panicked".to_string())?;
            read.and(late)
        });
        pass.late_ns = late?;
        pass.sent = sent.load(Ordering::SeqCst);
        self.next_id += pass.sent as u64;
        self.submissions += pass.sent as u64;
        Ok(pass)
    }

    /// Closed loop: keeps `window` requests in flight for `span`, sending
    /// the next as each reply comes back. The reply rate is the most the
    /// daemon completes; the backlog never exceeds the window.
    pub fn closed_loop(
        &mut self,
        traffic: &Traffic,
        first_body: usize,
        window: usize,
        span: Duration,
    ) -> Result<Pass, String> {
        let mut pass = Pass::new(self.next_id, first_body, Vec::new());
        let base = Instant::now();
        let mut buf = Vec::new();
        let mut in_flight = 0usize;
        loop {
            while in_flight < window && base.elapsed() < span {
                let i = pass.due_ns.len();
                let body = (first_body + i) % traffic.bodies.len();
                traffic.line(pass.first_id + i as u64, body, &mut buf);
                pass.due_ns.push(nanos_since(base));
                pass.recv_ns.push(None);
                pass.replies.push(None);
                (&self.stream)
                    .write_all(&buf)
                    .map_err(|e| format!("write request: {e}"))?;
                in_flight += 1;
            }
            if in_flight == 0 {
                break;
            }
            let line = read_line(&mut self.reader)?;
            pass.file(line, nanos_since(base))?;
            in_flight -= 1;
        }
        pass.sent = pass.due_ns.len();
        self.next_id += pass.sent as u64;
        self.submissions += pass.sent as u64;
        Ok(pass)
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn nanos_since(base: Instant) -> u64 {
    Instant::now()
        .checked_duration_since(base)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Reads one whole reply line, riding out read timeouts (a partial line
/// stays in the buffer) for at most [`REPLY_TIMEOUT`].
fn read_line(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let deadline = Instant::now() + REPLY_TIMEOUT;
    let mut buf = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return Err("daemon closed the connection".to_string()),
            Ok(_) if buf.ends_with(b"\n") => {
                crate::sys::quick_ack(reader.get_ref());
                buf.pop();
                return String::from_utf8(buf).map_err(|e| format!("reply is not UTF-8: {e}"));
            }
            Ok(_) => {}
            Err(e) if is_timeout(&e) && Instant::now() < deadline => {}
            Err(e) => return Err(format!("read reply: {e}")),
        }
    }
}

/// Sleeps while the due time is far, then yields until it arrives:
/// timer sleeps overshoot by tens of microseconds, more than the gap at
/// the single-row rate.
fn wait_until(base: Instant, due_ns: u64) {
    loop {
        let now = nanos_since(base);
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > 300_000 {
            std::thread::sleep(Duration::from_nanos(left - 200_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The reader half of an open-loop pass: timestamps each reply line and
/// files it by the id it carries. Returns once every sent request has
/// its reply.
fn read_replies(
    reader: &mut BufReader<TcpStream>,
    pass: &mut Pass,
    base: Instant,
    sent: &AtomicUsize,
    sending: &AtomicBool,
) -> Result<(), String> {
    let mut received = 0usize;
    let mut buf = Vec::with_capacity(4096);
    let mut idle_since: Option<Instant> = None;
    loop {
        if !sending.load(Ordering::SeqCst) && received >= sent.load(Ordering::SeqCst) {
            return Ok(());
        }
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return Err("daemon closed the connection mid-pass".to_string()),
            Ok(_) if buf.ends_with(b"\n") => {
                let t = nanos_since(base);
                buf.pop();
                let line = String::from_utf8(std::mem::take(&mut buf))
                    .map_err(|e| format!("reply is not UTF-8: {e}"))?;
                pass.file(line, t)?;
                crate::sys::quick_ack(reader.get_ref());
                received += 1;
                idle_since = None;
            }
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                let since = *idle_since.get_or_insert_with(Instant::now);
                if !sending.load(Ordering::SeqCst) && since.elapsed() > REPLY_TIMEOUT {
                    return Err(format!(
                        "{} of {} replies missing after {REPLY_TIMEOUT:?}",
                        sent.load(Ordering::SeqCst) - received,
                        sent.load(Ordering::SeqCst)
                    ));
                }
            }
            Err(e) => return Err(format!("read reply: {e}")),
        }
    }
}

/// The decimal `id` a reply echoes (`"id":"123"`).
pub fn reply_id(line: &str) -> Option<u64> {
    const KEY: &str = "\"id\":\"";
    let start = line.find(KEY)? + KEY.len();
    let rest = &line[start..];
    rest[..rest.find('"')?].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(100, 7);
        let mut sorted_a = a.clone();
        sorted_a.sort_unstable();
        assert_eq!(sorted_a, (0..100).collect::<Vec<_>>());
        assert_eq!(a, shuffled(100, 7));
        assert_ne!(a, shuffled(100, 8));
    }

    #[test]
    fn reply_ids_are_read_from_ok_and_error_replies() {
        assert_eq!(
            reply_id("{\"ok\":true,\"reply\":\"score\",\"id\":\"42\",\"epoch\":1}"),
            Some(42)
        );
        assert_eq!(
            reply_id("{\"ok\":false,\"error\":\"queue_full\",\"detail\":\"x\",\"id\":\"7\"}"),
            Some(7)
        );
        assert_eq!(reply_id("{\"ok\":true,\"reply\":\"stats\"}"), None);
    }

    #[test]
    fn a_pass_files_replies_by_id_and_refuses_duplicates() {
        let mut pass = Pass::new(10, 0, vec![0, 1_000_000]);
        pass.sent = 2;
        pass.file("{\"ok\":true,\"id\":\"11\"}".to_string(), 3_000_000)
            .unwrap();
        assert!(pass
            .file("{\"ok\":true,\"id\":\"11\"}".to_string(), 4_000_000)
            .is_err());
        assert!(pass
            .file("{\"ok\":true,\"id\":\"99\"}".to_string(), 1)
            .is_err());
        assert_eq!(pass.failures(), 1, "request 10 never got a reply");
        assert_eq!(pass.latencies_ms(), vec![2.0]);
    }
}
