//! The deterministic network fault plane: message-level faults between
//! the coordinator and the storage nodes.
//!
//! The node-op injector ([`crate::fault`]) faults the *disk* side of an
//! operation; this module faults the *messages* that carry it: one
//! drop / duplicate / reorder / delay distribution for every link and scripted
//! (possibly asymmetric) partition windows. Every probabilistic verdict
//! is a pure hash of `(seed, link, per-link message counter)` and every
//! window is keyed on the cluster's injected [`Clock`], so a drill on a
//! [`crate::fault::VirtualClock`] is wall-clock-free end to end: the
//! same plan and the same send order reproduce the same verdicts.
//!
//! The fabric only *decides*; the cluster's rpc layer executes the
//! verdict. A lost message costs the sender the plan's rpc timeout (on
//! the clock) before it surfaces as [`crate::node::NodeError::Timeout`]
//! — that cost is what makes per-operation deadline budgets bite, and
//! what the per-replica circuit breaker ([`ReplicaBreakers`]) exists to
//! stop paying over and over against a partitioned replica.
//!
//! Message kinds routed through the fabric are the data-plane puts and
//! gets (client writes/reads, healing, repair and re-integration
//! copies). Replica removes and header restamps are reconciliation
//! messages the coordinator can repeat at will; they are modelled as a
//! reliable queue and bypass the fabric (see DESIGN §8).

use crate::counters::Counters;
use crate::fault::{unit, Clock};
use crate::sync::{counter_u64, AtomicBool, AtomicU64, Ordering};
use ech_core::hash::mix64;
use std::sync::Arc;
use std::time::Duration;

/// Golden-gamma Weyl increment: steps a per-link SplitMix64 stream by
/// message number, same construction as the node-op injector.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Salts separating the per-message decision rolls (drop, lost side,
/// duplicate, delay, reorder) so one stream value yields independent
/// verdicts.
const SALT_DROP: u64 = 0x4445_4C49_5645_5201;
const SALT_SIDE: u64 = 0x4445_4C49_5645_5202;
const SALT_DUP: u64 = 0x4445_4C49_5645_5203;
const SALT_DELAY: u64 = 0x4445_4C49_5645_5204;
const SALT_REORDER: u64 = 0x4445_4C49_5645_5205;

/// Message-fault behaviour of one coordinator→node link. The default is
/// a fault-free link: zero probabilities, no delay.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaultSpec {
    /// Probability that a message is lost in flight. Half the losses
    /// take the request (the op never executes), half take the response
    /// (the op executes but the sender never learns) — the asymmetry
    /// that makes at-least-once retries observable.
    pub drop_prob: f64,
    /// Probability that a delivered request is retransmitted and
    /// executes twice (node ops are idempotent, so only the op counters
    /// observe the duplicate).
    pub dup_prob: f64,
    /// Probability that a delivered message is overtaken by logically
    /// later traffic. In a synchronous rpc plane a reordering surfaces
    /// as the overtaken message's extra latency, so the fabric models it
    /// as an added delay of one full delay span.
    pub reorder_prob: f64,
    /// Per-message latency, uniform in `[min, max]`, charged to the
    /// sender's clock. `None` delivers instantly.
    pub delay: Option<(Duration, Duration)>,
}

/// Which direction of a partition window is cut, relative to the
/// isolated set. The coordinator sits on the majority side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionDirection {
    /// No traffic crosses the cut in either direction.
    #[default]
    Both,
    /// Messages *into* the isolated set are lost; with coordinator-
    /// initiated rpc this cuts requests before they execute.
    Inbound,
    /// Messages *out of* the isolated set are lost: requests still reach
    /// an isolated node and execute, but the response never returns —
    /// the sender times out on an op that actually happened.
    Outbound,
}

/// A scripted partition: between `from` (inclusive) and `until`
/// (exclusive) on the injected clock, the `isolated` servers are cut off
/// from the coordinator in the given direction. Windows compose; any
/// covering window cuts the link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Window start on the injected clock.
    pub from: Duration,
    /// Window end (exclusive); `Duration::MAX` holds until an explicit
    /// [`NetFabric::heal_partitions`].
    pub until: Duration,
    /// Server indices on the minority side of the cut.
    pub isolated: Vec<u32>,
    /// Which direction of traffic the cut loses.
    pub direction: PartitionDirection,
}

impl PartitionWindow {
    /// Is the window active at `now`?
    pub fn covers(&self, now: Duration) -> bool {
        self.from <= now && now < self.until
    }

    /// Is server `index` on the isolated side?
    fn isolates(&self, index: u32) -> bool {
        self.isolated.contains(&index)
    }
}

/// A declarative message-fault schedule for every coordinator→node link.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetPlan {
    /// Seed of the decision hash; same seed + same send order = same
    /// verdicts.
    pub seed: u64,
    /// Fault spec applied to every link.
    pub default_link: LinkFaultSpec,
    /// Scripted partition windows on the injected clock.
    pub partitions: Vec<PartitionWindow>,
    /// What a lost message costs the sender before it gives up — the
    /// budget a dropped or partitioned send burns from the operation's
    /// deadline.
    pub rpc_timeout: Duration,
}

impl NetPlan {
    /// A plan applying `spec` to every link (no partitions), with the
    /// default 2 ms rpc timeout.
    pub fn uniform(seed: u64, spec: LinkFaultSpec) -> Self {
        NetPlan {
            seed,
            default_link: spec,
            partitions: Vec::new(),
            rpc_timeout: Self::default_rpc_timeout(),
        }
    }

    /// The default budget cost of a lost message, sized to the retry
    /// policy's sleep cap so one loss costs about one backoff step.
    pub fn default_rpc_timeout() -> Duration {
        Duration::from_millis(2)
    }

    /// The effective rpc timeout (zero in a plan built field-by-field
    /// falls back to the default so a lost message always costs budget).
    fn effective_rpc_timeout(&self) -> Duration {
        if self.rpc_timeout.is_zero() {
            Self::default_rpc_timeout()
        } else {
            self.rpc_timeout
        }
    }
}

/// The fabric's verdict on one message send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendVerdict {
    /// Deliver, after an optional latency charge; `duplicate` requests
    /// execute twice.
    Deliver {
        /// Latency charged to the sender's clock before the op runs.
        delay: Option<Duration>,
        /// The request was retransmitted and executes a second time.
        duplicate: bool,
    },
    /// The request is lost in flight: the op never executes and the
    /// sender times out.
    DropRequest,
    /// The response is lost: the op executes but the sender times out
    /// anyway (at-least-once delivery made visible).
    DropResponse,
    /// A partition window cuts the link. With `request_delivered` the
    /// cut is outbound-only: the op executes, the ack is lost.
    Partitioned {
        /// The request crossed before the cut direction lost the reply.
        request_delivered: bool,
    },
}

impl SendVerdict {
    /// The verdict the model checker's message-scheduler mode assigned
    /// to the send the caller is about to make: the explorer enumerates
    /// seven fates, and each is exactly one fabric verdict (`rpc_timeout`
    /// is what a reordered message arrives late by). `None` when the
    /// mode is off — and constantly `None` without the `modelcheck`
    /// feature — in which case the seed-hashed fabric stays in charge.
    #[cfg(feature = "modelcheck")]
    pub(crate) fn from_explorer(rpc_timeout: impl FnOnce() -> Duration) -> Option<SendVerdict> {
        use crate::sync::MsgFate;
        let deliver = |delay, duplicate| SendVerdict::Deliver { delay, duplicate };
        Some(match crate::sync::msg_fate()? {
            MsgFate::Deliver => deliver(None, false),
            MsgFate::DropRequest => SendVerdict::DropRequest,
            MsgFate::DropResponse => SendVerdict::DropResponse,
            MsgFate::Duplicate => deliver(None, true),
            MsgFate::Reorder => deliver(Some(rpc_timeout()), false),
            MsgFate::PartitionedInbound => SendVerdict::Partitioned {
                request_delivered: false,
            },
            MsgFate::PartitionedOutbound => SendVerdict::Partitioned {
                request_delivered: true,
            },
        })
    }

    /// No explorer in this build: the fabric always rules.
    #[cfg(not(feature = "modelcheck"))]
    #[inline(always)]
    pub(crate) fn from_explorer(_rpc_timeout: impl FnOnce() -> Duration) -> Option<SendVerdict> {
        None
    }
}

/// Executes a [`NetPlan`] deterministically.
///
/// Probabilistic verdicts are pure functions of `(seed, link, per-link
/// message counter)`; partition windows read the injected clock. The
/// counters are lock-free atomics, so concurrent senders perturb only
/// the interleaving of message numbers, never the verdict for a given
/// number.
#[derive(Debug)]
pub struct NetFabric {
    plan: NetPlan,
    link_ops: Vec<AtomicU64>,
    /// Set by [`NetFabric::heal_partitions`]: every partition window is
    /// ignored from then on (a scripted heal ahead of its window).
    healed: AtomicBool,
    counters: Arc<Counters>,
    clock: Arc<dyn Clock>,
}

impl NetFabric {
    /// A fabric for `nodes` links running `plan` on `clock`, counting
    /// its verdicts in `counters`.
    pub fn new(
        nodes: usize,
        plan: NetPlan,
        clock: Arc<dyn Clock>,
        counters: Arc<Counters>,
    ) -> Self {
        NetFabric {
            link_ops: (0..nodes).map(|_| counter_u64(0)).collect(),
            healed: AtomicBool::new(false),
            counters,
            plan,
            clock,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &NetPlan {
        &self.plan
    }

    /// The budget cost of a lost message.
    pub fn rpc_timeout(&self) -> Duration {
        self.plan.effective_rpc_timeout()
    }

    /// Heal every partition window immediately, regardless of its
    /// scripted end. Link-level faults (drops, delays, duplicates) keep
    /// running; only the cuts lift.
    pub fn heal_partitions(&self) {
        self.healed.store(true, Ordering::Release);
    }

    /// Is any partition window cutting traffic right now?
    pub fn partition_active(&self) -> bool {
        if self.healed.load(Ordering::Acquire) {
            return false;
        }
        let now = self.clock.now();
        self.plan.partitions.iter().any(|w| w.covers(now))
    }

    /// Decide the fate of the next message to server `dst`. Advances the
    /// link's message counter (partition verdicts do not consume a
    /// counter tick: the message never entered the link).
    pub fn before_send(&self, dst: usize) -> SendVerdict {
        self.counters.net_sends.fetch_add(1, Ordering::Relaxed);
        if !self.healed.load(Ordering::Acquire) {
            let now = self.clock.now();
            if let Some(w) = self
                .plan
                .partitions
                .iter()
                .find(|w| w.covers(now) && w.isolates(dst as u32))
            {
                self.counters
                    .net_partitioned_sends
                    .fetch_add(1, Ordering::Relaxed);
                return SendVerdict::Partitioned {
                    request_delivered: w.direction == PartitionDirection::Outbound,
                };
            }
        }
        let spec = &self.plan.default_link;
        let op = self
            .link_ops
            .get(dst)
            // ech-allow(D5): `c` is one of the per-link message counters
            // built with `counter_u64` in `new`; the closure binding
            // hides the constructed field from the counter
            // classification.
            .map_or(0, |c| c.fetch_add(1, Ordering::Relaxed));
        let lane = mix64(self.plan.seed ^ ((dst as u64) << 40) ^ 0x4E45_5446_4142_5249);
        let stream = lane.wrapping_add(op.wrapping_mul(GOLDEN_GAMMA));
        if spec.drop_prob > 0.0 && unit(mix64(stream ^ SALT_DROP)) < spec.drop_prob {
            self.counters.net_dropped.fetch_add(1, Ordering::Relaxed);
            return if mix64(stream ^ SALT_SIDE) & 1 == 0 {
                SendVerdict::DropRequest
            } else {
                SendVerdict::DropResponse
            };
        }
        let duplicate = spec.dup_prob > 0.0 && unit(mix64(stream ^ SALT_DUP)) < spec.dup_prob;
        if duplicate {
            self.counters.net_duplicated.fetch_add(1, Ordering::Relaxed);
        }
        let mut delay = None;
        if let Some((lo, hi)) = spec.delay {
            let lo_ns = lo.as_nanos() as u64;
            let hi_ns = (hi.as_nanos() as u64).max(lo_ns);
            let span = hi_ns - lo_ns;
            let jitter = if span > 0 {
                mix64(stream ^ SALT_DELAY) % (span + 1)
            } else {
                0
            };
            delay = Some(Duration::from_nanos(lo_ns + jitter));
            self.counters.net_delayed.fetch_add(1, Ordering::Relaxed);
        }
        if spec.reorder_prob > 0.0 && unit(mix64(stream ^ SALT_REORDER)) < spec.reorder_prob {
            // Late delivery: charge one extra delay span so logically
            // later messages overtake this one.
            let extra = spec
                .delay
                .map(|(_, hi)| hi)
                .unwrap_or_else(|| self.rpc_timeout() / 4);
            delay = Some(delay.unwrap_or(Duration::ZERO).saturating_add(extra));
            self.counters.net_reordered.fetch_add(1, Ordering::Relaxed);
        }
        SendVerdict::Deliver { delay, duplicate }
    }
}

/// Circuit-breaker configuration for per-replica health tracking.
///
/// States per replica: **Closed** (healthy, every send allowed) →
/// **Open** after `failure_threshold` consecutive message-level failures
/// (sends fail fast with `BreakerOpen` instead of burning an rpc timeout
/// each) → **HalfOpen** once `cooldown` elapses on the injected clock
/// (the next send probes the link; success closes the breaker, failure
/// re-opens it for another cooldown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u64,
    /// How long an open breaker rejects sends before allowing a probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 4,
            cooldown: Duration::from_millis(10),
        }
    }
}

/// Per-replica breaker state: consecutive-failure count and the clock
/// reading until which the breaker stays open.
#[derive(Debug)]
struct BreakerState {
    fails: AtomicU64,
    open_until_nanos: AtomicU64,
}

/// Per-replica health table with a circuit breaker per server.
///
/// The rpc layer consults [`ReplicaBreakers::try_acquire`] before every
/// send and reports the outcome back; an open breaker converts repeated
/// rpc-timeout burns against a partitioned replica into immediate
/// `BreakerOpen` failures, which quorum writes then record as ordinary
/// misses (dirty-table entries) — degrading instead of stalling.
#[derive(Debug)]
pub struct ReplicaBreakers {
    cfg: BreakerConfig,
    states: Vec<BreakerState>,
    counters: Arc<Counters>,
}

impl ReplicaBreakers {
    /// A breaker table for `nodes` replicas, counting trips and
    /// fast-failed sends in `counters`.
    pub fn new(nodes: usize, cfg: BreakerConfig, counters: Arc<Counters>) -> Self {
        ReplicaBreakers {
            cfg,
            states: (0..nodes)
                .map(|_| BreakerState {
                    fails: counter_u64(0),
                    open_until_nanos: counter_u64(0),
                })
                .collect(),
            counters,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &BreakerConfig {
        &self.cfg
    }

    /// May a send to replica `index` proceed at clock reading `now`?
    /// `false` means the breaker is open; the denial is counted.
    pub fn try_acquire(&self, index: usize, now: Duration) -> bool {
        let Some(s) = self.states.get(index) else {
            return true;
        };
        // ech-allow(D5): `open_until_nanos` is built with `counter_u64`;
        // the `.get` binding hides the constructed field.
        let open = (now.as_nanos() as u64) < s.open_until_nanos.load(Ordering::Relaxed);
        if open {
            self.counters
                .breaker_fastfails
                .fetch_add(1, Ordering::Relaxed);
        }
        !open
    }

    /// Record a successful send: the breaker closes and the failure
    /// streak resets.
    pub fn record_success(&self, index: usize) {
        if let Some(s) = self.states.get(index) {
            // ech-allow(D5): counter reset on recovery; both fields are
            // counter_u64-built and read with Relaxed only.
            s.fails.store(0, Ordering::Relaxed);
            s.open_until_nanos.store(0, Ordering::Relaxed);
        }
    }

    /// Record a message-level failure at clock reading `now`. Reaching
    /// the threshold (re-)opens the breaker for one cooldown; a trip is
    /// counted only when the breaker was not already holding the link
    /// open.
    pub fn record_failure(&self, index: usize, now: Duration) {
        let Some(s) = self.states.get(index) else {
            return;
        };
        let fails = s.fails.fetch_add(1, Ordering::Relaxed) + 1;
        if fails >= self.cfg.failure_threshold.max(1) {
            let now_ns = now.as_nanos() as u64;
            let until = now_ns.saturating_add(self.cfg.cooldown.as_nanos() as u64);
            // ech-allow(D5): counter_u64-built field; the previous
            // deadline distinguishes a fresh trip from extending an
            // already-open window. The load/store pair is not atomic —
            // two racing failures may both count a trip — which is an
            // acceptable slack for a diagnostic counter.
            let prev = s.open_until_nanos.load(Ordering::Relaxed);
            s.open_until_nanos.store(until, Ordering::Relaxed);
            if prev <= now_ns {
                self.counters.breaker_trips.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::VirtualClock;

    /// A four-link fabric on a virtual clock, counting into its own set.
    fn fabric(plan: NetPlan) -> (NetFabric, Arc<VirtualClock>, Arc<Counters>) {
        let clock = Arc::new(VirtualClock::new());
        let counters = Arc::new(Counters::default());
        let f = NetFabric::new(4, plan, clock.clone(), counters.clone());
        (f, clock, counters)
    }

    #[test]
    fn verdicts_are_deterministic_per_message_number() {
        let plan = NetPlan::uniform(
            42,
            LinkFaultSpec {
                drop_prob: 0.3,
                dup_prob: 0.1,
                reorder_prob: 0.1,
                delay: Some((Duration::from_micros(10), Duration::from_micros(90))),
            },
        );
        let (a, _, counters) = fabric(plan.clone());
        let (b, _, _) = fabric(plan);
        let run =
            |f: &NetFabric| -> Vec<SendVerdict> { (0..300).map(|_| f.before_send(2)).collect() };
        assert_eq!(run(&a), run(&b));
        let s = counters.snapshot();
        assert!(
            s.net_dropped > 0 && s.net_dropped < 300,
            "0.3 over 300 must bite"
        );
        assert!(s.net_duplicated > 0);
        assert!(s.net_reordered > 0);
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = NetPlan::uniform(
            7,
            LinkFaultSpec {
                drop_prob: 0.10,
                ..LinkFaultSpec::default()
            },
        );
        let (f, _, counters) = fabric(plan);
        let n = 20_000;
        for _ in 0..n {
            f.before_send(0);
        }
        let rate = counters.snapshot().net_dropped as f64 / n as f64;
        assert!((rate - 0.10).abs() < 0.01, "observed drop rate {rate}");
    }

    #[test]
    fn delays_stay_in_the_configured_band() {
        let lo = Duration::from_micros(20);
        let hi = Duration::from_micros(120);
        let plan = NetPlan::uniform(
            3,
            LinkFaultSpec {
                delay: Some((lo, hi)),
                ..LinkFaultSpec::default()
            },
        );
        let (f, _, counters) = fabric(plan);
        for _ in 0..500 {
            match f.before_send(1) {
                SendVerdict::Deliver {
                    delay: Some(d),
                    duplicate,
                } => {
                    assert!((lo..=hi).contains(&d), "delay {d:?} out of band");
                    assert!(!duplicate);
                }
                other => panic!("expected a delayed delivery, got {other:?}"),
            }
        }
        assert_eq!(counters.snapshot().net_delayed, 500);
    }

    #[test]
    fn partition_window_cuts_by_direction_and_heals_on_time() {
        let plan = NetPlan {
            partitions: vec![
                PartitionWindow {
                    from: Duration::from_millis(1),
                    until: Duration::from_millis(3),
                    isolated: vec![2],
                    direction: PartitionDirection::Both,
                },
                PartitionWindow {
                    from: Duration::from_millis(1),
                    until: Duration::from_millis(3),
                    isolated: vec![3],
                    direction: PartitionDirection::Outbound,
                },
            ],
            ..NetPlan::default()
        };
        let (f, clock, counters) = fabric(plan);
        // Before the window: everything delivers.
        assert!(matches!(f.before_send(2), SendVerdict::Deliver { .. }));
        assert!(!f.partition_active());
        clock.advance(Duration::from_millis(2));
        assert!(f.partition_active());
        assert_eq!(
            f.before_send(2),
            SendVerdict::Partitioned {
                request_delivered: false
            },
            "a Both cut loses the request"
        );
        assert_eq!(
            f.before_send(3),
            SendVerdict::Partitioned {
                request_delivered: true
            },
            "an Outbound cut delivers the request but loses the ack"
        );
        // Unrelated links are untouched.
        assert!(matches!(f.before_send(0), SendVerdict::Deliver { .. }));
        // The window closes on the clock.
        clock.advance(Duration::from_millis(2));
        assert!(!f.partition_active());
        assert!(matches!(f.before_send(2), SendVerdict::Deliver { .. }));
        assert_eq!(counters.snapshot().net_partitioned_sends, 2);
    }

    #[test]
    fn heal_partitions_overrides_open_windows() {
        let plan = NetPlan {
            partitions: vec![PartitionWindow {
                from: Duration::ZERO,
                until: Duration::MAX,
                isolated: vec![0, 1],
                direction: PartitionDirection::Both,
            }],
            ..NetPlan::default()
        };
        let (f, _, _) = fabric(plan);
        assert!(f.partition_active());
        assert!(matches!(f.before_send(0), SendVerdict::Partitioned { .. }));
        f.heal_partitions();
        assert!(!f.partition_active());
        assert!(matches!(f.before_send(0), SendVerdict::Deliver { .. }));
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_opens_after_cooldown() {
        let cfg = BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(5),
        };
        let counters = Arc::new(Counters::default());
        let b = ReplicaBreakers::new(2, cfg, counters.clone());
        let t0 = Duration::ZERO;
        assert!(b.try_acquire(0, t0));
        b.record_failure(0, t0);
        b.record_failure(0, t0);
        assert!(b.try_acquire(0, t0), "below threshold stays closed");
        b.record_failure(0, t0);
        assert!(!b.try_acquire(0, t0), "third consecutive failure trips it");
        assert!(b.try_acquire(1, t0), "other replicas unaffected");
        let snap = counters.snapshot();
        assert_eq!(snap.breaker_trips, 1);
        assert_eq!(snap.breaker_fastfails, 1);
        // Cooldown elapses: half-open, one probe allowed.
        let t1 = Duration::from_millis(6);
        assert!(b.try_acquire(0, t1));
        // Probe fails: re-opens immediately (streak still past the
        // threshold) and counts a fresh trip.
        b.record_failure(0, t1);
        assert!(!b.try_acquire(0, t1));
        assert_eq!(counters.snapshot().breaker_trips, 2);
        // Next probe succeeds: breaker closes fully.
        let t2 = Duration::from_millis(12);
        assert!(b.try_acquire(0, t2));
        b.record_success(0);
        b.record_failure(0, t2);
        assert!(
            b.try_acquire(0, t2),
            "one failure after a success must not trip a reset breaker"
        );
    }
}
