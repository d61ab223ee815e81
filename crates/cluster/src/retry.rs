//! Bounded retries with decorrelated jitter.
//!
//! Transient faults (injected I/O errors, kv shard brown-outs) are
//! absorbed by a small, budgeted retry loop. Backoff follows the
//! decorrelated-jitter rule — `sleep = min(cap, uniform(base, 3 * prev))`
//! — which spreads contending retriers apart without the synchronised
//! thundering herds of plain exponential backoff. The jitter stream is
//! seeded from a caller-supplied token (typically the object id), so a
//! deterministic fault schedule yields a deterministic retry schedule.

use crate::cluster::ClusterError;
use crate::fault::Clock;
use crate::node::NodeError;
use ech_core::hash::mix64;
use ech_core::placement::PlacementError;
use ech_kvstore::KvError;
use std::time::Duration;

/// Retryable-or-permanent verdict for a data-path error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// A retry may succeed (transient fault, brown-out, lost quorum).
    Retryable,
    /// Retrying cannot help; surface the error to the caller.
    Permanent,
}

/// The single source of truth for error classification on the degraded
/// data path. Every error enum the put/get/repair/re-integration paths
/// can construct is classified **here**, variant by variant, with no
/// wildcard arms — the analyzer's D3 rule cross-checks that each variant
/// of these enums appears below, so adding a variant without deciding
/// its retry class fails `ech-analyzer` rather than silently defaulting.
pub trait Classify {
    /// This error's retry class.
    fn class(&self) -> ErrorClass;

    /// Convenience: is the error worth retrying?
    fn is_retryable_class(&self) -> bool {
        self.class() == ErrorClass::Retryable
    }
}

impl Classify for NodeError {
    fn class(&self) -> ErrorClass {
        match self {
            // A fresh attempt rolls a fresh fault decision.
            NodeError::Io => ErrorClass::Retryable,
            // A lost message may be a one-off drop; the retransmit rolls
            // a fresh verdict (the deadline budget bounds the bill).
            NodeError::Timeout => ErrorClass::Retryable,
            // Partition windows heal on the clock; retrying toward the
            // heal is correct and the deadline budget keeps it bounded.
            NodeError::Partitioned => ErrorClass::Retryable,
            // An open breaker rejects every send until its cooldown
            // elapses — retrying into it only burns budget. Fail fast
            // and let quorum accounting route around the replica.
            NodeError::BreakerOpen => ErrorClass::Permanent,
            // Power state and membership only change via resize/repair.
            NodeError::PoweredOff => ErrorClass::Permanent,
            NodeError::NotFound => ErrorClass::Permanent,
            NodeError::DiskFull { .. } => ErrorClass::Permanent,
        }
    }
}

impl NodeError {
    /// Did the link fail rather than the object? A lost or refused
    /// message says nothing about what the node holds: reads report it
    /// as unavailable, writes never let it veto the quorum, and a
    /// migration it blocks is re-planned instead of stamped.
    pub fn is_link_failure(&self) -> bool {
        match self {
            NodeError::Io | NodeError::Timeout | NodeError::Partitioned => true,
            NodeError::BreakerOpen => true,
            NodeError::PoweredOff | NodeError::NotFound | NodeError::DiskFull { .. } => false,
        }
    }
}

impl Classify for KvError {
    fn class(&self) -> ErrorClass {
        match self {
            // Shard brown-out windows close as kv ops advance the fault
            // clock, so retrying through one always exits it.
            KvError::Unavailable { .. } => ErrorClass::Retryable,
            KvError::WrongType { .. } => ErrorClass::Permanent,
            // A snapshot that does not fit stays that way on a retry.
            KvError::VersionOutOfRange { .. } => ErrorClass::Permanent,
        }
    }
}

impl Classify for PlacementError {
    fn class(&self) -> ErrorClass {
        match self {
            PlacementError::InsufficientActiveServers { .. } => ErrorClass::Permanent,
            PlacementError::ZeroReplicas => ErrorClass::Permanent,
            PlacementError::Internal(_) => ErrorClass::Permanent,
            // A version ahead of the pinned snapshot means a concurrent
            // membership change won the race; a fresh view resolves it.
            PlacementError::UnknownVersion(_) => ErrorClass::Retryable,
        }
    }
}

impl Classify for ClusterError {
    fn class(&self) -> ErrorClass {
        match self {
            ClusterError::Unavailable => ErrorClass::Retryable,
            ClusterError::QuorumNotReached { .. } => ErrorClass::Retryable,
            ClusterError::Placement(e) => e.class(),
            ClusterError::NotFound => ErrorClass::Permanent,
            ClusterError::Node(e) => e.class(),
            // The budget is spent; any further attempt would start
            // already expired.
            ClusterError::DeadlineExceeded => ErrorClass::Permanent,
            ClusterError::Internal(_) => ErrorClass::Permanent,
        }
    }
}

/// A per-operation deadline budget on an injected [`Clock`].
///
/// A deadline is an absolute clock reading, fixed once when the
/// operation starts and threaded by value through retries, replica
/// probes and per-replica sends — every layer asks the same question
/// ("expired yet?") against the same instant, so nested retry loops
/// cannot each spend a full budget of their own. On a
/// [`crate::fault::VirtualClock`] the budget is consumed purely by
/// injected sleeps (backoff, message delays, rpc timeouts), which keeps
/// deadline behaviour deterministic under a seeded fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// Absolute expiry on the operation's clock; `None` = unbounded.
    at: Option<Duration>,
}

impl Deadline {
    /// No deadline: the operation may take as long as its retry budget
    /// allows.
    pub fn unbounded() -> Self {
        Deadline { at: None }
    }

    /// A deadline `budget` from now on `clock`.
    pub fn after(clock: &dyn Clock, budget: Duration) -> Self {
        Deadline {
            at: Some(clock.now().saturating_add(budget)),
        }
    }

    /// [`Deadline::after`] when a budget is configured, unbounded
    /// otherwise.
    pub fn from_config(clock: &dyn Clock, budget: Option<Duration>) -> Self {
        match budget {
            Some(b) => Deadline::after(clock, b),
            None => Deadline::unbounded(),
        }
    }

    /// Has the budget run out?
    pub fn expired(&self, clock: &dyn Clock) -> bool {
        self.at.is_some_and(|at| clock.now() >= at)
    }

    /// Budget left on the clock; `None` = unbounded.
    pub fn remaining(&self, clock: &dyn Clock) -> Option<Duration> {
        self.at.map(|at| at.saturating_sub(clock.now()))
    }
}

/// A bounded retry policy. `Default` gives every operation 4 attempts
/// with sleeps between 100 µs and 2 ms — sized for an in-process store
/// where "I/O" is a lock acquisition, not a disk seek.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Minimum sleep between attempts.
    pub base: Duration,
    /// Per-sleep cap; also bounds the op's total budget at
    /// `(max_attempts - 1) * cap`.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Run `op`, retrying while `retryable` approves the error, attempts
    /// remain and `deadline` has budget left, sleeping on `clock`.
    /// Returns the final result and the number of retries spent (0 =
    /// first try decided). This is the only runner: every data-path
    /// retry loop threads its operation's [`Deadline`] through it
    /// (analyzer rule D8), and callers that do not count retries drop
    /// the second field.
    ///
    /// Backoff sleeps are clamped to the remaining budget so the loop
    /// never overshoots the expiry by more than the op itself takes. An
    /// already-expired deadline still allows the first attempt — the
    /// caller decides whether to even start — but no retries. The loop
    /// structure keeps the data path panic-free (analyzer rule D2): the
    /// final attempt's error is returned, never unwrapped.
    pub fn run_counted_deadline<T, E>(
        &self,
        clock: &dyn Clock,
        deadline: Deadline,
        token: u64,
        retryable: impl Fn(&E) -> bool,
        mut op: impl FnMut() -> Result<T, E>,
    ) -> (Result<T, E>, u32) {
        let attempts = self.max_attempts.max(1);
        let mut rng = mix64(token ^ 0x5EED_0F0F_5EED_0F0F);
        let mut prev = self.base;
        let mut retry = 0;
        loop {
            match op() {
                Ok(v) => return (Ok(v), retry),
                Err(e) if retry + 1 < attempts && retryable(&e) && !deadline.expired(clock) => {
                    rng = mix64(rng);
                    let base_ns = self.base.as_nanos() as u64;
                    let span =
                        (prev.as_nanos() as u64).saturating_mul(3).max(base_ns + 1) - base_ns;
                    let mut sleep_ns = (base_ns + rng % span).min(self.cap.as_nanos() as u64);
                    if let Some(left) = deadline.remaining(clock) {
                        sleep_ns = sleep_ns.min(left.as_nanos() as u64);
                    }
                    prev = Duration::from_nanos(sleep_ns);
                    clock.sleep(prev);
                    retry += 1;
                }
                Err(e) => return (Err(e), retry),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::VirtualClock;

    /// The runner with no deadline, on a fresh virtual clock the caller
    /// can inspect afterwards.
    fn run<T, E>(
        p: &RetryPolicy,
        clock: &VirtualClock,
        token: u64,
        retryable: impl Fn(&E) -> bool,
        op: impl FnMut() -> Result<T, E>,
    ) -> (Result<T, E>, u32) {
        p.run_counted_deadline(clock, Deadline::unbounded(), token, retryable, op)
    }

    #[test]
    fn succeeds_first_try_without_sleeping() {
        let clock = VirtualClock::new();
        let (r, retries) = run(
            &RetryPolicy::default(),
            &clock,
            1,
            |_: &()| true,
            || Ok::<_, ()>(7),
        );
        assert_eq!(r, Ok(7));
        assert_eq!(retries, 0);
        assert_eq!(
            clock.now(),
            Duration::ZERO,
            "a first-try success never sleeps"
        );
    }

    #[test]
    fn retries_transient_errors_until_success() {
        let p = RetryPolicy {
            max_attempts: 5,
            base: Duration::from_micros(1),
            cap: Duration::from_micros(10),
        };
        let mut calls = 0;
        let (r, retries) = run(
            &p,
            &VirtualClock::new(),
            9,
            |_: &&str| true,
            || {
                calls += 1;
                if calls < 3 {
                    Err("transient")
                } else {
                    Ok(calls)
                }
            },
        );
        assert_eq!(r, Ok(3));
        assert_eq!(retries, 2);
    }

    #[test]
    fn exhausts_budget_and_returns_last_error() {
        let p = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_micros(1),
            cap: Duration::from_micros(5),
        };
        let mut calls = 0;
        let (r, retries) = run(
            &p,
            &VirtualClock::new(),
            2,
            |_: &&str| true,
            || {
                calls += 1;
                Err::<(), _>("still down")
            },
        );
        assert_eq!(r, Err("still down"));
        assert_eq!(calls, 3);
        assert_eq!(retries, 2);
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        let mut calls = 0;
        let (r, retries) = run(
            &RetryPolicy::default(),
            &VirtualClock::new(),
            3,
            |e: &&str| *e == "transient",
            || {
                calls += 1;
                Err::<(), _>("fatal")
            },
        );
        assert_eq!(r, Err("fatal"));
        assert_eq!((calls, retries), (1, 0));
    }

    #[test]
    fn retry_sleeps_run_on_the_injected_clock() {
        let clock = VirtualClock::new();
        let p = RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(50),
            cap: Duration::from_millis(200),
        };
        let (r, retries) = run(&p, &clock, 11, |_: &&str| true, || Err::<(), _>("down"));
        assert_eq!(r, Err("down"));
        assert_eq!(retries, 3);
        // All backoff time was virtual: the clock advanced by the sleeps
        // (at least base per retry) without blocking the thread.
        assert!(clock.now() >= Duration::from_millis(150));
    }

    #[test]
    fn every_data_path_error_is_classified() {
        use ech_core::ids::{ObjectId, VersionId};
        use ech_core::placement::PlacementError;
        use ech_kvstore::KvError;
        assert_eq!(NodeError::Io.class(), ErrorClass::Retryable);
        assert_eq!(
            NodeError::Timeout.class(),
            ErrorClass::Retryable,
            "a retransmit rolls a fresh drop verdict"
        );
        assert_eq!(
            NodeError::Partitioned.class(),
            ErrorClass::Retryable,
            "partition windows heal on the clock"
        );
        assert_eq!(
            NodeError::BreakerOpen.class(),
            ErrorClass::Permanent,
            "retrying into an open breaker only burns budget"
        );
        assert_eq!(NodeError::PoweredOff.class(), ErrorClass::Permanent);
        assert_eq!(NodeError::NotFound.class(), ErrorClass::Permanent);
        assert_eq!(
            NodeError::DiskFull {
                capacity: 1,
                needed: 2
            }
            .class(),
            ErrorClass::Permanent
        );
        assert_eq!(
            KvError::Unavailable { shard: 0 }.class(),
            ErrorClass::Retryable
        );
        assert_eq!(
            KvError::WrongType {
                expected: "list",
                found: "hash"
            }
            .class(),
            ErrorClass::Permanent
        );
        assert_eq!(
            KvError::VersionOutOfRange {
                oid: ObjectId(1),
                version: VersionId(1 << 63)
            }
            .class(),
            ErrorClass::Permanent
        );
        assert_eq!(ClusterError::Unavailable.class(), ErrorClass::Retryable);
        assert_eq!(
            ClusterError::QuorumNotReached {
                written: 1,
                required: 2
            }
            .class(),
            ErrorClass::Retryable
        );
        assert_eq!(ClusterError::NotFound.class(), ErrorClass::Permanent);
        assert_eq!(
            ClusterError::Node(NodeError::Io).class(),
            ErrorClass::Retryable,
            "Node wraps delegate to the inner class"
        );
        assert_eq!(
            ClusterError::Placement(PlacementError::ZeroReplicas).class(),
            ErrorClass::Permanent
        );
        assert_eq!(
            ClusterError::DeadlineExceeded.class(),
            ErrorClass::Permanent,
            "a spent budget cannot be retried into"
        );
        assert_eq!(
            ClusterError::Internal("invariant").class(),
            ErrorClass::Permanent
        );
        assert_eq!(
            PlacementError::Internal("invariant").class(),
            ErrorClass::Permanent
        );
        assert_eq!(
            PlacementError::UnknownVersion(ech_core::ids::VersionId(9)).class(),
            ErrorClass::Retryable,
            "a racing reader re-resolves on a fresh view"
        );
    }

    #[test]
    fn deadline_cuts_retries_short() {
        let clock = VirtualClock::new();
        let p = RetryPolicy {
            max_attempts: 10,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(2),
        };
        // Budget for roughly two backoff sleeps, not nine.
        let deadline = Deadline::after(&clock, Duration::from_millis(5));
        let mut calls = 0;
        let (r, retries) = p.run_counted_deadline(
            &clock,
            deadline,
            5,
            |_: &&str| true,
            || {
                calls += 1;
                Err::<(), _>("down")
            },
        );
        assert_eq!(r, Err("down"));
        assert!(
            (1..9).contains(&retries),
            "deadline must stop the loop early, got {retries} retries"
        );
        assert_eq!(calls, retries + 1);
        assert!(deadline.expired(&clock), "loop ran the budget out");
        // The clamp keeps the overshoot below one full backoff step.
        assert!(clock.now() <= Duration::from_millis(5 + 2));
    }

    #[test]
    fn unbounded_deadline_never_expires() {
        let clock = VirtualClock::new();
        let d = Deadline::unbounded();
        clock.advance(Duration::from_secs(3600));
        assert!(!d.expired(&clock));
        assert_eq!(d.remaining(&clock), None);
        assert_eq!(Deadline::from_config(&clock, None), Deadline::unbounded());
    }

    #[test]
    fn deadline_remaining_counts_down_and_saturates() {
        let clock = VirtualClock::new();
        let d = Deadline::after(&clock, Duration::from_millis(10));
        assert_eq!(d.remaining(&clock), Some(Duration::from_millis(10)));
        clock.advance(Duration::from_millis(4));
        assert_eq!(d.remaining(&clock), Some(Duration::from_millis(6)));
        clock.advance(Duration::from_millis(20));
        assert_eq!(d.remaining(&clock), Some(Duration::ZERO));
        assert!(d.expired(&clock));
    }

    #[test]
    fn none_policy_never_retries() {
        let mut calls = 0;
        let (r, retries) = run(
            &RetryPolicy::none(),
            &VirtualClock::new(),
            4,
            |_: &&str| true,
            || {
                calls += 1;
                Err::<(), _>("transient")
            },
        );
        assert!(r.is_err());
        assert_eq!((calls, retries), (1, 0));
    }
}
