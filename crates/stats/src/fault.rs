//! Shared fault-tolerance plumbing: deterministic fault-injection gates
//! and capped-exponential retry backoff.
//!
//! Both `lf-bench` (`--inject-fault panic:<rate>|...`) and `lf-verify`
//! (`--inject-bug-rate`) need to decide *deterministically* whether a
//! given run or case is selected for an injected fault: the decision must
//! be a pure function of the item's stable identity so a re-run selects
//! exactly the same victims, and so a failure report names items that
//! actually reproduce. [`rate_gate`] is that shared decision: a salted
//! hash of the identity mapped to `[0, 1)` and compared against the
//! requested rate.
//!
//! [`Backoff`] is the retry schedule used for transient I/O failures
//! (run-cache stores, artifact writes): exponential growth from a base
//! delay, capped so a persistently failing resource cannot stall a
//! campaign for long.

use crate::fingerprint::Fingerprint;
use std::time::Duration;

/// Deterministic Bernoulli gate: returns `true` for roughly `rate` of all
/// `id` values, decided by a salted hash so the same `(id, salt)` always
/// answers the same way. `rate <= 0` never fires; `rate >= 1` always
/// fires.
pub fn rate_gate(id: u64, salt: &str, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let mut fp = Fingerprint::new();
    fp.str(salt).u64(id);
    // Top 53 bits → an f64 uniform in [0, 1).
    let u = (fp.finish() >> 11) as f64 / (1u64 << 53) as f64;
    u < rate
}

/// Capped exponential backoff schedule: yields `attempts` delays starting
/// at `base`, doubling each step, never exceeding `cap`.
#[derive(Debug, Clone)]
pub struct Backoff {
    next: Duration,
    cap: Duration,
    remaining: u32,
}

impl Backoff {
    /// A schedule of `attempts` delays starting at `base`, capped at `cap`.
    pub fn new(attempts: u32, base: Duration, cap: Duration) -> Backoff {
        Backoff { next: base, cap, remaining: attempts }
    }
}

impl Iterator for Backoff {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let d = self.next.min(self.cap);
        self.next = (self.next * 2).min(self.cap);
        Some(d)
    }
}

/// Runs `f` up to `1 + attempts` times, sleeping per [`Backoff`] between
/// tries. Returns the first success, or the last error once the schedule
/// is exhausted. The attempt count (1 = first try succeeded) is returned
/// alongside the value so callers can count retries in telemetry.
pub fn retry<T, E>(
    attempts: u32,
    base: Duration,
    cap: Duration,
    mut f: impl FnMut() -> Result<T, E>,
) -> (u32, Result<T, E>) {
    let mut tried = 1;
    let mut last = f();
    if last.is_ok() {
        return (tried, last);
    }
    for delay in Backoff::new(attempts, base, cap) {
        std::thread::sleep(delay);
        tried += 1;
        last = f();
        if last.is_ok() {
            break;
        }
    }
    (tried, last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_gate_is_deterministic_and_roughly_calibrated() {
        let hits: usize = (0..10_000).filter(|&i| rate_gate(i, "test", 0.05)).count();
        assert!((300..700).contains(&hits), "5% of 10k should land near 500, got {hits}");
        for i in 0..100 {
            assert_eq!(rate_gate(i, "test", 0.05), rate_gate(i, "test", 0.05));
        }
        // Different salts select different victims.
        let a: Vec<u64> = (0..1000).filter(|&i| rate_gate(i, "a", 0.1)).collect();
        let b: Vec<u64> = (0..1000).filter(|&i| rate_gate(i, "b", 0.1)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn rate_gate_extremes() {
        assert!(!rate_gate(42, "x", 0.0));
        assert!(rate_gate(42, "x", 1.0));
        assert!(!rate_gate(42, "x", -1.0));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let delays: Vec<u64> =
            Backoff::new(5, Duration::from_millis(10), Duration::from_millis(50))
                .map(|d| d.as_millis() as u64)
                .collect();
        assert_eq!(delays, vec![10, 20, 40, 50, 50]);
    }

    #[test]
    fn retry_counts_attempts() {
        let mut calls = 0;
        let (tried, r) = retry(3, Duration::from_millis(1), Duration::from_millis(1), || {
            calls += 1;
            if calls < 3 {
                Err("transient")
            } else {
                Ok(calls)
            }
        });
        assert_eq!(r, Ok(3));
        assert_eq!(tried, 3);

        let (tried, r): (u32, Result<(), &str>) =
            retry(2, Duration::from_millis(1), Duration::from_millis(1), || Err("hard"));
        assert_eq!(r, Err("hard"));
        assert_eq!(tried, 3, "one initial try plus two retries");
    }
}
