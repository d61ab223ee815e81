//! The live cluster's event counters: one set for the data path, the
//! fault injector, the message fabric and the circuit breakers.
//!
//! A cluster builds one [`Counters`] and hands an `Arc` of it to every
//! part it builds, and to the coordinator a restart assembles, so every
//! count survives a restart. Call sites bump a field in place with a
//! relaxed `fetch_add`; [`crate::Cluster::counters`] reads the whole set
//! as one plain [`CounterSnapshot`].

use crate::sync::{counter_u64, AtomicU64, Ordering};

/// The live counters: relaxed atomics shared by `&`, one per
/// [`CounterSnapshot`] field.
#[derive(Debug)]
pub struct Counters {
    pub(crate) retries: AtomicU64,
    pub(crate) quorum_acks: AtomicU64,
    pub(crate) replicas_missed: AtomicU64,
    pub(crate) unavailable_errors: AtomicU64,
    pub(crate) deadline_exceeded: AtomicU64,
    pub(crate) io_errors: AtomicU64,
    pub(crate) crashes: AtomicU64,
    pub(crate) kv_unavailable: AtomicU64,
    pub(crate) net_sends: AtomicU64,
    pub(crate) net_dropped: AtomicU64,
    pub(crate) net_duplicated: AtomicU64,
    pub(crate) net_delayed: AtomicU64,
    pub(crate) net_reordered: AtomicU64,
    pub(crate) net_partitioned_sends: AtomicU64,
    pub(crate) breaker_trips: AtomicU64,
    pub(crate) breaker_fastfails: AtomicU64,
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            retries: counter_u64(0),
            quorum_acks: counter_u64(0),
            replicas_missed: counter_u64(0),
            unavailable_errors: counter_u64(0),
            deadline_exceeded: counter_u64(0),
            io_errors: counter_u64(0),
            crashes: counter_u64(0),
            kv_unavailable: counter_u64(0),
            net_sends: counter_u64(0),
            net_dropped: counter_u64(0),
            net_duplicated: counter_u64(0),
            net_delayed: counter_u64(0),
            net_reordered: counter_u64(0),
            net_partitioned_sends: counter_u64(0),
            breaker_trips: counter_u64(0),
            breaker_fastfails: counter_u64(0),
        }
    }
}

impl Counters {
    /// A point-in-time copy, one relaxed load per field.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            retries: self.retries.load(Ordering::Relaxed),
            quorum_acks: self.quorum_acks.load(Ordering::Relaxed),
            replicas_missed: self.replicas_missed.load(Ordering::Relaxed),
            unavailable_errors: self.unavailable_errors.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            kv_unavailable: self.kv_unavailable.load(Ordering::Relaxed),
            net_sends: self.net_sends.load(Ordering::Relaxed),
            net_dropped: self.net_dropped.load(Ordering::Relaxed),
            net_duplicated: self.net_duplicated.load(Ordering::Relaxed),
            net_delayed: self.net_delayed.load(Ordering::Relaxed),
            net_reordered: self.net_reordered.load(Ordering::Relaxed),
            net_partitioned_sends: self.net_partitioned_sends.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_fastfails: self.breaker_fastfails.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`Counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Retry attempts spent by puts (beyond each replica write's first
    /// try).
    pub retries: u64,
    /// Writes acknowledged at quorum with at least one replica missed.
    pub quorum_acks: u64,
    /// Replica writes recorded as missed (healed later via the dirty
    /// table).
    pub replicas_missed: u64,
    /// Reads that found only transiently failing replicas.
    pub unavailable_errors: u64,
    /// Operations that ran out their deadline budget before completing.
    pub deadline_exceeded: u64,
    /// Transient I/O errors injected into node ops.
    pub io_errors: u64,
    /// Node crashes triggered.
    pub crashes: u64,
    /// Key-value operations rejected as shard-unavailable.
    pub kv_unavailable: u64,
    /// Messages routed through the fabric.
    pub net_sends: u64,
    /// Messages lost in flight (requests and responses).
    pub net_dropped: u64,
    /// Requests delivered twice.
    pub net_duplicated: u64,
    /// Messages charged a latency delay.
    pub net_delayed: u64,
    /// Messages overtaken by later traffic (delivered late).
    pub net_reordered: u64,
    /// Sends refused by an active partition window.
    pub net_partitioned_sends: u64,
    /// Times a breaker tripped open.
    pub breaker_trips: u64,
    /// Sends rejected fast by an open breaker.
    pub breaker_fastfails: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_each_field() {
        let c = Counters::default();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
        // Field `i` (in declaration order) is bumped `i + 1` times, so a
        // snapshot that copied one field into another would show it.
        let fields = [
            &c.retries,
            &c.quorum_acks,
            &c.replicas_missed,
            &c.unavailable_errors,
            &c.deadline_exceeded,
            &c.io_errors,
            &c.crashes,
            &c.kv_unavailable,
            &c.net_sends,
            &c.net_dropped,
            &c.net_duplicated,
            &c.net_delayed,
            &c.net_reordered,
            &c.net_partitioned_sends,
            &c.breaker_trips,
            &c.breaker_fastfails,
        ];
        for (i, f) in fields.iter().enumerate() {
            f.fetch_add(i as u64 + 1, Ordering::Relaxed);
        }
        let s = c.snapshot();
        assert_eq!(
            [
                s.retries,
                s.quorum_acks,
                s.replicas_missed,
                s.unavailable_errors,
                s.deadline_exceeded,
                s.io_errors,
                s.crashes,
                s.kv_unavailable,
                s.net_sends,
                s.net_dropped,
                s.net_duplicated,
                s.net_delayed,
                s.net_reordered,
                s.net_partitioned_sends,
                s.breaker_trips,
                s.breaker_fastfails,
            ],
            std::array::from_fn(|i| i as u64 + 1)
        );
    }
}
