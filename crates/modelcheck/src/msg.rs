//! Message-fate enumeration: the explorer's model of the network.
//!
//! In message-scheduler mode (a non-zero [`crate::Config::msg_budget`])
//! every `Cluster::rpc` send asks the scheduler what happens to the
//! message *before* it happens, via [`crate::sync::msg_fate`]. The
//! scheduler answers with a [`MsgFate`]: deliver it, lose the request or
//! the response, duplicate it, reorder (delay) it, or cut it on a
//! partitioned link — and each answer is an explored decision, exactly
//! like a thread grant or a weak-memory flush. The seed-hashed
//! `NetFabric` decides nothing under this mode; the DFS enumerates the
//! fates itself, so "what if *this particular* ack was the one lost?"
//! becomes a branch, not a probability.
//!
//! Fault fates are rationed by a per-schedule *fault budget*
//! ([`crate::Config::msg_budget`]): once `budget` faults have been
//! injected, every remaining send is a forced `Deliver` and records no
//! decision — the same compaction rule as single-choice thread grants.
//! That keeps the fate dimension bounded the same way
//! `max_preemptions` bounds the thread dimension (the CHESS insight
//! transferred to message faults: most protocol bugs need very few).
//!
//! Encoding: scheduler choice values `>= MSG_BASE` denote "the message
//! gets fate `choice - MSG_BASE`", rendered `m<code>` in `v3:` traces.
//! The band sits above `crate::weak::FLUSH_BASE`, so
//! [`crate::preempt_delta`] already treats fate decisions as
//! non-preemptions — a lost message is the network's doing, not an
//! involuntary context switch.

/// Scheduler-choice encoding offset for message fates (`m<code>` in
/// traces). Above [`crate::weak::FLUSH_BASE`] so fate choices are never
/// counted as preemptions.
pub(crate) const MSG_BASE: usize = 1 << 20;

/// The fate the scheduler assigned to one message send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgFate {
    /// The request and its response both arrive.
    Deliver,
    /// The request never reaches the replica: the op does not execute;
    /// the sender burns an rpc timeout.
    DropRequest,
    /// The request executes but the ack is lost: the sender burns an
    /// rpc timeout and must treat the op as failed.
    DropResponse,
    /// The request arrives twice (a retransmit raced the original): the
    /// op executes twice; the first result is the one acked.
    Duplicate,
    /// The message is delayed past its neighbours: delivered, but only
    /// after an extra timeout's worth of clock.
    Reorder,
    /// An inbound partition: the request is lost on the way in.
    PartitionedInbound,
    /// An outbound partition: the request executes, the ack is lost.
    PartitionedOutbound,
}

impl MsgFate {
    /// Number of fates (codes `0..COUNT`).
    pub(crate) const COUNT: usize = 7;

    /// All fates, code order — `Deliver` first, so the deterministic
    /// default policy (`enabled[0]`) is the fault-free execution.
    pub(crate) const ALL: [MsgFate; MsgFate::COUNT] = [
        MsgFate::Deliver,
        MsgFate::DropRequest,
        MsgFate::DropResponse,
        MsgFate::Duplicate,
        MsgFate::Reorder,
        MsgFate::PartitionedInbound,
        MsgFate::PartitionedOutbound,
    ];

    /// Trace code of this fate (the `<code>` in `m<code>`).
    pub(crate) fn code(self) -> usize {
        match self {
            MsgFate::Deliver => 0,
            MsgFate::DropRequest => 1,
            MsgFate::DropResponse => 2,
            MsgFate::Duplicate => 3,
            MsgFate::Reorder => 4,
            MsgFate::PartitionedInbound => 5,
            MsgFate::PartitionedOutbound => 6,
        }
    }

    /// Fate for a trace code, if valid.
    pub(crate) fn from_code(code: usize) -> Option<MsgFate> {
        MsgFate::ALL.get(code).copied()
    }

    /// Every fate except `Deliver` spends one unit of the fault budget.
    pub fn is_fault(self) -> bool {
        self != MsgFate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for (i, f) in MsgFate::ALL.iter().enumerate() {
            assert_eq!(f.code(), i);
            assert_eq!(MsgFate::from_code(i), Some(*f));
        }
        assert_eq!(MsgFate::from_code(MsgFate::COUNT), None);
    }

    #[test]
    fn only_deliver_is_free() {
        for f in MsgFate::ALL {
            assert_eq!(f.is_fault(), f != MsgFate::Deliver);
        }
    }

    #[test]
    fn band_sits_above_flush_base() {
        const { assert!(MSG_BASE > crate::weak::FLUSH_BASE) };
        // preempt_delta must treat fate choices as non-preemptions.
        assert_eq!(
            crate::preempt_delta(Some(0), &[0, MSG_BASE], MSG_BASE + 3),
            0
        );
    }
}
