//! A bounded MPMC job queue with explicit load-shedding.
//!
//! The daemon's admission point: connection threads push scoring jobs,
//! workers pop them. Capacity is fixed at construction; what happens when
//! it is exceeded is a *policy*, not an accident:
//!
//! * [`ShedPolicy::Reject`] — the new job is refused; the caller turns
//!   the refusal into a typed `queue_full` response carrying a
//!   retry-after hint. Favors in-flight work (FIFO fairness).
//! * [`ShedPolicy::DropOldest`] — the oldest queued job is evicted and
//!   handed back to the caller (so *its* submitter gets a typed shed
//!   response), and the new job is admitted. Favors fresh work
//!   (freshness under overload).
//!
//! Either way nothing is silently lost: every admitted or evicted job is
//! accounted for by the caller, which is what lets the fault suite assert
//! `requests_served + requests_shed == requests_submitted` exactly.
//!
//! [`BoundedQueue::close`] flips the queue into drain mode: pops continue
//! until the backlog is empty, further pushes are refused, and blocked
//! workers wake up and get `None`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// What to do with a push that would exceed capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Refuse the incoming job (default).
    #[default]
    Reject,
    /// Evict the oldest queued job and admit the incoming one.
    DropOldest,
}

impl ShedPolicy {
    /// Parses the CLI spelling (`reject` | `drop-oldest`).
    pub fn parse(s: &str) -> Option<ShedPolicy> {
        match s {
            "reject" => Some(ShedPolicy::Reject),
            "drop-oldest" => Some(ShedPolicy::DropOldest),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            ShedPolicy::Reject => "reject",
            ShedPolicy::DropOldest => "drop-oldest",
        }
    }
}

/// Outcome of an accepted push.
#[derive(Debug)]
pub enum PushOutcome<T> {
    /// The job was enqueued within capacity.
    Enqueued,
    /// The job was enqueued after evicting the oldest queued job, which
    /// is returned so the caller can answer its submitter.
    DroppedOldest(T),
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity and the policy is [`ShedPolicy::Reject`].
    Full,
    /// The queue is draining; no new work is admitted.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded MPMC queue. All methods are `&self`; share it via `Arc`.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
    policy: ShedPolicy,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` jobs (minimum 1).
    pub fn new(capacity: usize, policy: ShedPolicy) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            policy,
        }
    }

    /// A poisoned lock means a holder panicked mid-section; the queue's
    /// state (a deque and a flag) is valid after any interleaving, so
    /// serving continues rather than cascading the panic.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured shed policy.
    pub fn policy(&self) -> ShedPolicy {
        self.policy
    }

    /// Current backlog length.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the backlog is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// Admits a job, sheds per policy, or refuses it.
    pub fn push(&self, item: T) -> Result<PushOutcome<T>, PushError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        let outcome = if inner.items.len() < self.capacity {
            inner.items.push_back(item);
            PushOutcome::Enqueued
        } else {
            match self.policy {
                ShedPolicy::Reject => return Err(PushError::Full),
                ShedPolicy::DropOldest => {
                    let evicted = inner.items.pop_front();
                    inner.items.push_back(item);
                    match evicted {
                        Some(old) => PushOutcome::DroppedOldest(old),
                        // unreachable (len >= capacity >= 1), but never panic
                        None => PushOutcome::Enqueued,
                    }
                }
            }
        };
        drop(inner);
        self.not_empty.notify_one();
        Ok(outcome)
    }

    /// Waits until a job arrives or the queue is closed. `None` means
    /// closed and fully drained: the worker should exit.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Switches to drain mode: refuses new pushes, keeps serving the
    /// backlog, and wakes every blocked worker.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("policy", &self.policy)
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(4, ShedPolicy::Reject);
        for i in 0..4 {
            assert!(matches!(q.push(i), Ok(PushOutcome::Enqueued)));
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn reject_policy_refuses_at_capacity() {
        let q = BoundedQueue::new(2, ShedPolicy::Reject);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3).unwrap_err(), PushError::Full);
        assert_eq!(q.len(), 2, "refused push leaves the backlog intact");
    }

    #[test]
    fn drop_oldest_policy_evicts_the_head() {
        let q = BoundedQueue::new(2, ShedPolicy::DropOldest);
        q.push(1).unwrap();
        q.push(2).unwrap();
        match q.push(3) {
            Ok(PushOutcome::DroppedOldest(old)) => assert_eq!(old, 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(q.pop(), Some(2), "head is now the second job");
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = BoundedQueue::new(4, ShedPolicy::Reject);
        q.push(7).unwrap();
        q.close();
        assert_eq!(q.push(8).unwrap_err(), PushError::Closed);
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1, ShedPolicy::Reject));
        let waiter = {
            let q = q.clone();
            // blocks until close() wakes it
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        assert_eq!(
            waiter.join().unwrap(),
            None,
            "blocked pop observed the close"
        );
    }

    #[test]
    fn policy_parses_cli_spellings() {
        assert_eq!(ShedPolicy::parse("reject"), Some(ShedPolicy::Reject));
        assert_eq!(
            ShedPolicy::parse("drop-oldest"),
            Some(ShedPolicy::DropOldest)
        );
        assert_eq!(ShedPolicy::parse("nope"), None);
        assert_eq!(ShedPolicy::DropOldest.name(), "drop-oldest");
    }
}
