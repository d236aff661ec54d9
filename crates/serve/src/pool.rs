//! The panic-isolated worker pool.
//!
//! A fixed number of workers pop jobs from a shared [`BoundedQueue`] and
//! run them under a panic boundary: a job that panics produces a typed
//! error (via the pool's `on_panic` callback, which still owns the job
//! and can answer its submitter) instead of killing the daemon, and the
//! worker **respawns itself** — the panicking thread hands its slot to a
//! fresh thread and exits, so pool capacity never decays and no panic
//! can poison state shared through the queue.
//!
//! The boundary is [`pnr_core::panic_capture::run_caught`], the one the
//! experiment runner and the sentinel's refit also use: the panic message
//! and its source location are captured without printing to stderr.

use crate::queue::{BoundedQueue, PopResult};
use pnr_core::panic_capture::run_caught;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long an idle worker waits before re-checking for drain. Bounds
/// shutdown latency without busy-waiting.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// A handle to a spawned pool. Workers run until the queue is closed and
/// drained; the handle only carries observability (live worker count and
/// respawn total for `stats`).
#[derive(Debug)]
pub struct WorkerPool {
    workers: usize,
    alive: Arc<AtomicUsize>,
    respawns: Arc<AtomicU64>,
}

impl WorkerPool {
    /// Spawns `workers` threads popping from `queue`. `work` runs each
    /// job by reference under the panic boundary; if it panics,
    /// `on_panic` receives the job back (by value) together with the
    /// captured panic message, and the worker respawns.
    pub fn spawn<T, W, P>(workers: usize, queue: Arc<BoundedQueue<T>>, work: W, on_panic: P) -> Self
    where
        T: Send + 'static,
        W: Fn(&T) + Send + Sync + 'static,
        P: Fn(T, String) + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let pool = WorkerPool {
            workers,
            alive: Arc::new(AtomicUsize::new(0)),
            respawns: Arc::new(AtomicU64::new(0)),
        };
        let work = Arc::new(work);
        let on_panic = Arc::new(on_panic);
        for slot in 0..workers {
            pool.alive.fetch_add(1, Ordering::SeqCst);
            spawn_worker(
                slot,
                queue.clone(),
                work.clone(),
                on_panic.clone(),
                pool.alive.clone(),
                pool.respawns.clone(),
            );
        }
        pool
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Workers currently running their loop.
    pub fn alive(&self) -> usize {
        self.alive.load(Ordering::SeqCst)
    }

    /// Total workers respawned after a caught panic.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::SeqCst)
    }
}

/// Starts the thread for `slot`, which the caller has already counted in
/// `alive`: the pool before the thread exists, or a panicking worker
/// handing over its own slot. So the gauge is exact from the moment the
/// pool is spawned and never dips during a respawn. A failed spawn gives
/// the slot back.
fn spawn_worker<T, W, P>(
    slot: usize,
    queue: Arc<BoundedQueue<T>>,
    work: Arc<W>,
    on_panic: Arc<P>,
    alive: Arc<AtomicUsize>,
    respawns: Arc<AtomicU64>,
) where
    T: Send + 'static,
    W: Fn(&T) + Send + Sync + 'static,
    P: Fn(T, String) + Send + Sync + 'static,
{
    let name = format!("pnr-serve-worker-{slot}");
    let counted = alive.clone();
    let spawned = std::thread::Builder::new().name(name).spawn(move || {
        loop {
            match queue.pop_timeout(IDLE_POLL) {
                PopResult::TimedOut => continue,
                PopResult::Closed => break,
                PopResult::Item(job) => {
                    if let Err(msg) = run_caught(|| work(&job)) {
                        // Count the respawn before answering, so a client
                        // that reads the panic reply and then asks for
                        // `stats` sees it. Then hand this slot, still
                        // counted, to a fresh thread: the panicking stack
                        // dies here and pool capacity stays constant.
                        respawns.fetch_add(1, Ordering::SeqCst);
                        on_panic(job, msg);
                        spawn_worker(slot, queue, work, on_panic, alive, respawns);
                        return;
                    }
                }
            }
        }
        alive.fetch_sub(1, Ordering::SeqCst);
    });
    if spawned.is_err() {
        // Thread spawn failed (resource exhaustion). The slot is lost but
        // the daemon keeps serving on the remaining workers; the alive
        // gauge makes the degradation visible in `stats`.
        counted.fetch_sub(1, Ordering::SeqCst);
        eprintln!("warn: could not spawn worker thread for slot {slot}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ShedPolicy;
    use std::sync::mpsc;
    use std::time::Instant;

    struct TestJob {
        value: u32,
        explode: bool,
        reply: mpsc::Sender<Result<u32, String>>,
    }

    fn pool_with(workers: usize, capacity: usize) -> (Arc<BoundedQueue<TestJob>>, WorkerPool) {
        let queue = Arc::new(BoundedQueue::new(capacity, ShedPolicy::Reject));
        let pool = WorkerPool::spawn(
            workers,
            queue.clone(),
            |job: &TestJob| {
                if job.explode {
                    panic!("boom on {}", job.value);
                }
                job.reply.send(Ok(job.value * 2)).unwrap();
            },
            |job: TestJob, msg: String| {
                job.reply.send(Err(msg)).unwrap();
            },
        );
        (queue, pool)
    }

    #[test]
    fn jobs_run_and_reply() {
        let (queue, _pool) = pool_with(2, 16);
        let (tx, rx) = mpsc::channel();
        for value in 0..8 {
            queue
                .push(TestJob {
                    value,
                    explode: false,
                    reply: tx.clone(),
                })
                .unwrap();
        }
        let mut got: Vec<u32> = (0..8)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, [0, 2, 4, 6, 8, 10, 12, 14]);
        queue.close();
    }

    #[test]
    fn a_panicking_job_is_isolated_and_the_worker_respawns() {
        let (queue, pool) = pool_with(1, 16);
        let (tx, rx) = mpsc::channel();
        queue
            .push(TestJob {
                value: 13,
                explode: true,
                reply: tx.clone(),
            })
            .unwrap();
        let err = rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap_err();
        assert!(err.contains("boom on 13"), "{err}");
        assert!(err.contains("pool.rs"), "panic location captured: {err}");

        // the replacement worker serves the next job
        queue
            .push(TestJob {
                value: 4,
                explode: false,
                reply: tx,
            })
            .unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap(), 8);
        assert_eq!(pool.respawns(), 1);
        queue.close();
    }

    #[test]
    fn capacity_and_respawns_are_exact_when_the_panic_reply_arrives() {
        // bookkeeping that lags the reply shows in some rounds only
        for round in 0..200 {
            let (queue, pool) = pool_with(2, 16);
            let (tx, rx) = mpsc::channel();
            queue
                .push(TestJob {
                    value: round,
                    explode: true,
                    reply: tx,
                })
                .unwrap();
            rx.recv_timeout(Duration::from_secs(5))
                .unwrap()
                .unwrap_err();
            assert_eq!(pool.alive(), 2, "round {round}: capacity never dips");
            assert_eq!(pool.respawns(), 1, "round {round}: respawn counted");
            queue.close();
        }
    }

    #[test]
    fn workers_exit_on_close_after_draining() {
        let (queue, pool) = pool_with(3, 16);
        let (tx, rx) = mpsc::channel();
        for value in 0..5 {
            queue
                .push(TestJob {
                    value,
                    explode: false,
                    reply: tx.clone(),
                })
                .unwrap();
        }
        queue.close();
        // every queued job is still answered
        for _ in 0..5 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.alive() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(pool.alive(), 0, "all workers exited after drain");
    }
}
