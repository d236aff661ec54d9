//! The panic-isolated worker pool.
//!
//! A fixed number of workers pop jobs from a shared [`BoundedQueue`] and
//! run them under a panic boundary: a job that panics produces a typed
//! error (via the pool's `on_panic` callback, which still owns the job
//! and can answer its submitter) instead of killing the daemon, and the
//! same thread goes on to pop the next job, so pool capacity never
//! decays. A job runs outside the queue's lock, so its panic cannot
//! poison the queue the other workers share.
//!
//! The boundary is [`pnr_core::panic_capture::run_caught`], the one the
//! experiment runner and the sentinel's refit also use: the panic message
//! and its source location are captured without printing to stderr.

use crate::queue::BoundedQueue;
use pnr_core::panic_capture::run_caught;
use std::io;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A handle to a spawned pool: one thread per worker, each running until
/// the queue is closed and drained.
#[derive(Debug)]
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one) popping from `queue`.
    /// `work` runs each job by reference under the panic boundary; if it
    /// panics, `on_panic` receives the job back (by value) together with
    /// the captured panic message, and the worker pops the next job.
    ///
    /// If the OS refuses a thread, the queue is closed so the workers
    /// already started exit, and the error is returned.
    pub fn spawn<T, W, P>(
        workers: usize,
        queue: Arc<BoundedQueue<T>>,
        work: W,
        on_panic: P,
    ) -> io::Result<Self>
    where
        T: Send + 'static,
        W: Fn(&T) + Send + Sync + 'static,
        P: Fn(T, String) + Send + Sync + 'static,
    {
        let work = Arc::new(work);
        let on_panic = Arc::new(on_panic);
        let spawned: io::Result<Vec<_>> = (0..workers.max(1))
            .map(|slot| {
                let (jobs, work, on_panic) = (queue.clone(), work.clone(), on_panic.clone());
                thread::Builder::new()
                    .name(format!("pnr-serve-worker-{slot}"))
                    .spawn(move || {
                        while let Some(job) = jobs.pop() {
                            if let Err(msg) = run_caught(|| work(&job)) {
                                on_panic(job, msg);
                            }
                        }
                    })
            })
            .collect();
        if spawned.is_err() {
            // the workers already started exit once the queue is closed
            queue.close();
        }
        Ok(WorkerPool { handles: spawned? })
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Waits until every worker has exited, which they do once the queue
    /// is closed and drained, or until `deadline`. True when all exited.
    pub fn exited_by(&self, deadline: Instant) -> bool {
        while !self.handles.iter().all(JoinHandle::is_finished) {
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(5));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ShedPolicy;
    use std::collections::HashSet;
    use std::sync::mpsc;
    use std::thread::ThreadId;

    /// What a worker sends back for one job: the job's value, the thread
    /// that ran it, and the doubled value or the captured panic message.
    struct Answer {
        value: u32,
        thread: ThreadId,
        result: Result<u32, String>,
    }

    struct TestJob {
        value: u32,
        explode: bool,
        reply: mpsc::Sender<Answer>,
    }

    fn pool_with(workers: usize, capacity: usize) -> (Arc<BoundedQueue<TestJob>>, WorkerPool) {
        let queue = Arc::new(BoundedQueue::new(capacity, ShedPolicy::Reject));
        let answer = |job: &TestJob, result| {
            let thread = thread::current().id();
            let value = job.value;
            job.reply
                .send(Answer {
                    value,
                    thread,
                    result,
                })
                .unwrap();
        };
        let pool = WorkerPool::spawn(
            workers,
            queue.clone(),
            move |job: &TestJob| {
                if job.explode {
                    panic!("boom on {}", job.value);
                }
                answer(job, Ok(job.value * 2));
            },
            move |job: TestJob, msg: String| answer(&job, Err(msg)),
        )
        .unwrap();
        (queue, pool)
    }

    fn push(
        queue: &BoundedQueue<TestJob>,
        value: u32,
        explode: bool,
        reply: &mpsc::Sender<Answer>,
    ) {
        let reply = reply.clone();
        queue
            .push(TestJob {
                value,
                explode,
                reply,
            })
            .unwrap();
    }

    fn recv(rx: &mpsc::Receiver<Answer>) -> Answer {
        rx.recv_timeout(Duration::from_secs(5)).unwrap()
    }

    #[test]
    fn jobs_run_and_reply() {
        let (queue, _pool) = pool_with(2, 16);
        let (tx, rx) = mpsc::channel();
        for value in 0..8 {
            push(&queue, value, false, &tx);
        }
        let mut got: Vec<u32> = (0..8).map(|_| recv(&rx).result.unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, [0, 2, 4, 6, 8, 10, 12, 14]);
        queue.close();
    }

    #[test]
    fn a_panicking_job_is_isolated_and_its_worker_serves_on() {
        let (queue, pool) = pool_with(1, 16);
        let (tx, rx) = mpsc::channel();
        push(&queue, 13, true, &tx);
        let panicked = recv(&rx);
        let err = panicked.result.unwrap_err();
        assert!(err.contains("boom on 13"), "{err}");
        assert!(err.contains("pool.rs"), "panic location captured: {err}");

        // the same thread serves the next job
        push(&queue, 4, false, &tx);
        let next = recv(&rx);
        assert_eq!(next.result.unwrap(), 8);
        assert_eq!(
            next.thread, panicked.thread,
            "the worker outlived its panic"
        );
        assert_eq!(pool.workers(), 1);
        queue.close();
    }

    #[test]
    fn every_job_is_answered_once_and_panics_start_no_thread() {
        let (queue, pool) = pool_with(2, 256);
        let (tx, rx) = mpsc::channel();
        for value in 0..200 {
            push(&queue, value, value % 5 == 4, &tx);
        }
        drop(tx);
        queue.close();
        let mut answers = [0u32; 200];
        let mut threads = HashSet::new();
        // ends once every job's sender is gone, or when an answer is overdue
        for answer in std::iter::from_fn(|| rx.recv_timeout(Duration::from_secs(5)).ok()) {
            let value = answer.value;
            answers[value as usize] += 1;
            threads.insert(answer.thread);
            let panics = value % 5 == 4;
            match answer.result {
                Ok(doubled) => assert!(!panics && doubled == value * 2, "job {value}"),
                Err(msg) => assert!(panics && msg.contains("boom on"), "job {value}: {msg}"),
            }
        }
        assert_eq!(answers, [1; 200], "each job is answered exactly once");
        assert!(threads.len() <= 2, "{} threads ran jobs", threads.len());
        assert!(pool.exited_by(Instant::now() + Duration::from_secs(5)));
    }

    #[test]
    fn workers_exit_on_close_after_draining() {
        let (queue, pool) = pool_with(3, 16);
        let (tx, rx) = mpsc::channel();
        for value in 0..5 {
            push(&queue, value, false, &tx);
        }
        assert!(
            !pool.exited_by(Instant::now() + Duration::from_millis(20)),
            "workers wait while the queue is open"
        );
        queue.close();
        // every queued job is still answered
        for _ in 0..5 {
            recv(&rx).result.unwrap();
        }
        assert!(
            pool.exited_by(Instant::now() + Duration::from_secs(5)),
            "all workers exited after drain"
        );
    }
}
