//! Reusable bounded retry with deterministic, seeded backoff jitter.
//!
//! This is the one schedule type ([`Backoff`]) the workspace shares, and
//! the one retry loop ([`run`]): artifact loading
//! ([`crate::artifact::load_with_retry`]) and the sentinel's daemon
//! reconnects run through it. The sentinel's refit episodes keep a loop
//! of their own, since each attempt reloads the baseline, refits and
//! publishes, but they sleep the same [`Backoff`] between attempts and
//! stop after its `attempts`. Delays grow exponentially
//! (`base_delay * 2^i`, capped at `max_delay`) and are optionally
//! jittered by a seeded LCG — **never** by wall-clock randomness — so two
//! runs with the same seed sleep the same schedule and a retry trace is
//! reproducible bit for bit.

use std::time::Duration;

/// Knuth's MMIX LCG multiplier/increment; full-period over `u64`.
const LCG_MULT: u64 = 6364136223846793005;
const LCG_INC: u64 = 1442695040888963407;

/// One LCG step: deterministic, allocation-free pseudo-randomness for
/// backoff jitter. Not a statistical RNG and not meant to be one.
fn lcg_step(state: u64) -> u64 {
    state.wrapping_mul(LCG_MULT).wrapping_add(LCG_INC)
}

/// Bounded exponential backoff schedule. `jitter_seed == 0` means no
/// jitter; a non-zero seed adds a deterministic extra delay in
/// `[0, delay/2]` derived from `(seed, attempt)` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Total attempts (including the first); at least 1 is always made.
    pub attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single un-jittered delay.
    pub max_delay: Duration,
    /// Seed for the LCG jitter; 0 disables jitter.
    pub jitter_seed: u64,
}

impl Default for Backoff {
    /// 4 attempts, 10 ms → 20 ms → 40 ms backoff (max 200 ms), no jitter:
    /// long enough to ride out an editor or publisher replacing a file,
    /// short enough that a hot-swap control command stays interactive.
    /// Every artifact load with retry uses it.
    fn default() -> Self {
        Backoff::new(4, Duration::from_millis(10), Duration::from_millis(200))
    }
}

impl Backoff {
    /// An un-jittered schedule.
    pub fn new(attempts: u32, base_delay: Duration, max_delay: Duration) -> Self {
        Backoff {
            attempts,
            base_delay,
            max_delay,
            jitter_seed: 0,
        }
    }

    /// Enables deterministic jitter keyed on `seed` (0 keeps it off).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The delay before retry number `i` (0-based): saturating
    /// exponential growth capped at `max_delay`, plus the seeded jitter.
    pub fn delay(&self, i: u32) -> Duration {
        let factor = 1u32.checked_shl(i).unwrap_or(u32::MAX);
        let base = self.base_delay.saturating_mul(factor).min(self.max_delay);
        if self.jitter_seed == 0 || base.is_zero() {
            return base;
        }
        // Jitter in [0, base/2], a pure function of (seed, attempt) — no
        // wall clock, no thread-local RNG, so schedules replay exactly.
        let word = lcg_step(lcg_step(self.jitter_seed).wrapping_add(u64::from(i)));
        let half_ns = u64::try_from((base / 2).as_nanos()).unwrap_or(u64::MAX);
        if half_ns == 0 {
            return base;
        }
        base.saturating_add(Duration::from_nanos(word % (half_ns + 1)))
    }
}

/// Why a [`run`] call gave up.
#[derive(Debug)]
pub enum RetryError<E> {
    /// The operation failed with a non-transient error; retrying would
    /// only repeat it. Returned after however many attempts had run.
    Fatal(E),
    /// Every attempt failed transiently; `last` is the final error.
    Exhausted {
        /// How many attempts were made before giving up.
        attempts: u32,
        /// The error of the last attempt.
        last: E,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for RetryError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryError::Fatal(e) => write!(f, "Fatal: {e}"),
            RetryError::Exhausted { attempts, last } => write!(
                f,
                "Exhausted: gave up after {attempts} attempt(s); last error: {last}"
            ),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for RetryError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RetryError::Fatal(e) | RetryError::Exhausted { last: e, .. } => Some(e),
        }
    }
}

/// Runs `op` under `backoff`: transient failures (per `transient`) are
/// retried after [`Backoff::delay`]; the first non-transient failure
/// short-circuits as [`RetryError::Fatal`]; exhausting every attempt
/// yields [`RetryError::Exhausted`] with the last error. `op` receives
/// the 0-based attempt index so callers can log or vary behaviour.
pub fn run<T, E>(
    backoff: &Backoff,
    mut transient: impl FnMut(&E) -> bool,
    mut op: impl FnMut(u32) -> Result<T, E>,
) -> Result<T, RetryError<E>> {
    let attempts = backoff.attempts.max(1);
    let mut i = 0u32;
    loop {
        match op(i) {
            Ok(v) => return Ok(v),
            Err(e) => {
                if !transient(&e) {
                    return Err(RetryError::Fatal(e));
                }
                i += 1;
                if i >= attempts {
                    return Err(RetryError::Exhausted { attempts, last: e });
                }
                std::thread::sleep(backoff.delay(i - 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_and_cap_without_jitter() {
        let b = Backoff::new(5, Duration::from_millis(10), Duration::from_millis(25));
        assert_eq!(b.delay(0), Duration::from_millis(10));
        assert_eq!(b.delay(1), Duration::from_millis(20));
        assert_eq!(b.delay(2), Duration::from_millis(25));
        assert_eq!(b.delay(40), Duration::from_millis(25));
    }

    #[test]
    fn jitter_is_deterministic_in_the_seed_and_bounded() {
        let b = Backoff::new(4, Duration::from_millis(10), Duration::from_millis(80))
            .with_jitter_seed(42);
        let again = Backoff::new(4, Duration::from_millis(10), Duration::from_millis(80))
            .with_jitter_seed(42);
        let other = b.with_jitter_seed(43);
        let mut any_differs = false;
        for i in 0..4 {
            let base = Backoff::new(4, Duration::from_millis(10), Duration::from_millis(80));
            assert_eq!(b.delay(i), again.delay(i), "same seed, same schedule");
            assert!(b.delay(i) >= base.delay(i), "jitter never shortens");
            assert!(
                b.delay(i) <= base.delay(i) + base.delay(i) / 2,
                "jitter bounded by half the base delay"
            );
            any_differs |= b.delay(i) != other.delay(i);
        }
        assert!(any_differs, "different seeds produce different schedules");
    }

    #[test]
    fn fatal_errors_short_circuit() {
        let b = Backoff::new(10, Duration::ZERO, Duration::ZERO);
        let mut calls = 0;
        let r: Result<(), _> = run(
            &b,
            |_e: &&str| false,
            |_| {
                calls += 1;
                Err("boom")
            },
        );
        assert!(matches!(r, Err(RetryError::Fatal("boom"))));
        assert_eq!(calls, 1);
    }

    #[test]
    fn transient_errors_retry_to_exhaustion() {
        let b = Backoff::new(3, Duration::ZERO, Duration::ZERO);
        let mut calls = 0;
        let r: Result<(), _> = run(
            &b,
            |_e: &&str| true,
            |i| {
                assert_eq!(i, calls);
                calls += 1;
                Err("busy")
            },
        );
        match r {
            Err(RetryError::Exhausted { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert_eq!(last, "busy");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(calls, 3);
    }

    #[test]
    fn success_after_transients_is_returned() {
        let b = Backoff::new(5, Duration::ZERO, Duration::ZERO);
        let r = run(
            &b,
            |_e: &&str| true,
            |i| if i < 2 { Err("busy") } else { Ok(i) },
        );
        assert!(matches!(r, Ok(2)));
    }

    #[test]
    fn zero_attempts_still_runs_once() {
        let b = Backoff::new(0, Duration::ZERO, Duration::ZERO);
        let mut calls = 0;
        let r: Result<(), _> = run(
            &b,
            |_e: &&str| true,
            |_| {
                calls += 1;
                Err("busy")
            },
        );
        assert!(matches!(r, Err(RetryError::Exhausted { attempts: 1, .. })));
        assert_eq!(calls, 1);
    }
}
