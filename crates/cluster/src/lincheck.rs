//! Linearizability-recording facade over the `Cluster` public API.
//!
//! Mirrors the [`crate::sync`] facade's cfg discipline: with the
//! `lincheck` feature a cluster's [`Recorder`] feeds the `ech-lincheck`
//! session that was open on the thread that built it (and nothing when
//! there was none — recording is scoped, never process-global);
//! without the feature `Recorder` is zero-sized, every hook is an empty
//! `#[inline]` shim and the data path compiles to exactly the
//! un-instrumented code (analyzer rule D10 keeps this module the only
//! place in the crate that names `ech_lincheck`).
//!
//! Hooks deliberately do **not** touch the instrumented sync
//! primitives: recording must not add yield points or footprint
//! accesses, or opening a session would perturb the schedule spaces
//! the model checker explores (and break byte-identical trace
//! regressions). Timestamps come from the cluster's own clock, so
//! recorded histories line up with the VirtualClock the suites run on.

#[cfg(feature = "lincheck")]
mod armed {
    use crate::cluster::ClusterError;
    use crate::fault::Clock;
    use bytes::Bytes;
    use ech_core::ids::ObjectId;
    pub use ech_lincheck::recorder::Span;
    use ech_lincheck::{recorder, Op, Ret};

    fn now(clock: &dyn Clock) -> u64 {
        clock.now().as_nanos() as u64
    }

    /// A cluster's handle onto the recording session it was built under.
    #[derive(Debug, Clone, Default)]
    pub struct Recorder(recorder::Recorder);

    impl Recorder {
        /// Attach to the session open on the calling thread, if any
        /// (cluster construction calls this; a restart inherits the
        /// handle instead).
        pub fn attach() -> Self {
            Recorder(recorder::Recorder::current())
        }

        fn invoke(&self, op: impl FnOnce(&recorder::Recorder) -> Op, clock: &dyn Clock) -> Span {
            if !self.0.active() {
                return Span::disarmed();
            }
            self.0.invoke(op(&self.0), now(clock))
        }

        /// Record a `put` invocation.
        pub fn inv_put(&self, oid: ObjectId, data: &Bytes, clock: &dyn Clock) -> Span {
            let key = oid.raw();
            self.invoke(
                |r| Op::Put {
                    key,
                    val: r.intern(data),
                },
                clock,
            )
        }

        /// Record a `put` response. An error leaves the write's effect
        /// uncertain — the checker branches both ways — so every failure
        /// maps to [`Ret::Err`]; only an ack is a commitment.
        pub fn ret_put<T>(&self, span: Span, result: &Result<T, ClusterError>, clock: &dyn Clock) {
            let r = match result {
                Ok(_) => Ret::Ok,
                Err(_) => Ret::Err,
            };
            self.0.ret(span, r, now(clock));
        }

        /// Record a `get` invocation (any read entry point).
        pub fn inv_get(&self, oid: ObjectId, clock: &dyn Clock) -> Span {
            self.invoke(|_| Op::Get { key: oid.raw() }, clock)
        }

        /// Record a `get` response. `ClusterError::NotFound` is the
        /// cluster's *authoritative* miss and is recorded as such — every
        /// other failure (transient faults, quorum shortfalls, spent
        /// deadlines, placement races) is information-free.
        pub fn ret_get(&self, span: Span, result: &Result<Bytes, ClusterError>, clock: &dyn Clock) {
            let r = match result {
                Ok(data) => Ret::Val(self.0.intern(data)),
                Err(ClusterError::NotFound) => Ret::NotFound,
                Err(_) => Ret::Unavailable,
            };
            self.0.ret(span, r, now(clock));
        }

        /// Record a `resize` invocation (an atomic view transition).
        pub fn inv_resize(&self, active: usize, clock: &dyn Clock) -> Span {
            self.invoke(
                |_| Op::Resize {
                    active: active as u32,
                },
                clock,
            )
        }

        /// Record a `heal_dirty` invocation (spec-level no-op).
        pub fn inv_heal(&self, clock: &dyn Clock) -> Span {
            self.invoke(|_| Op::Heal, clock)
        }

        /// Record a re-integration invocation (step, batch or full drain —
        /// all spec-level no-ops).
        pub fn inv_reintegrate(&self, clock: &dyn Clock) -> Span {
            self.invoke(|_| Op::Reintegrate, clock)
        }

        /// Record the response of an operation that cannot fail at the
        /// spec level: a resize, a heal pass, a re-integration step or
        /// drain (idle is still an ack — the no-op happened, observably
        /// nothing changed).
        pub fn ret_ok(&self, span: Span, clock: &dyn Clock) {
            self.0.ret(span, Ret::Ok, now(clock));
        }
    }

    #[cfg(test)]
    mod tests {
        use crate::{Cluster, ClusterConfig, ClusterError};
        use bytes::Bytes;
        use ech_core::ids::ObjectId;
        use ech_lincheck::recorder::Session;
        use ech_lincheck::{EventKind, Op};
        use std::sync::Barrier;

        /// Two sessions on two threads plus a cluster built under no
        /// session, all doing puts and gets on the *same* key at once:
        /// each recording holds exactly its own cluster's events. The
        /// barriers force the overlap; under the old process-global
        /// recorder the three streams landed in one history.
        #[test]
        fn concurrent_sessions_see_only_their_own_clusters() {
            const OPS: usize = 40;
            let traffic = |c: &Cluster, tag: u64| {
                for i in 0..OPS {
                    let oid = ObjectId(7);
                    c.put(oid, Bytes::from(format!("{tag}-{i}"))).expect("put");
                    assert_eq!(c.get(ObjectId(1_000 + tag)), Err(ClusterError::NotFound));
                }
            };
            let barrier = Barrier::new(3);
            std::thread::scope(|s| {
                let sessions: Vec<_> = (0..2u64)
                    .map(|tag| {
                        let (barrier, traffic) = (&barrier, &traffic);
                        s.spawn(move || {
                            let session = Session::begin();
                            let c = Cluster::new(ClusterConfig::paper());
                            barrier.wait();
                            traffic(&c, tag);
                            barrier.wait();
                            session.finish()
                        })
                    })
                    .collect();
                let unattached = Cluster::new(ClusterConfig::paper());
                barrier.wait();
                traffic(&unattached, 2);
                barrier.wait();
                for (tag, handle) in sessions.into_iter().enumerate() {
                    let rec = handle.join().expect("session thread");
                    assert_eq!(rec.events.len(), 4 * OPS, "invoke + return per op");
                    assert_eq!(rec.vals.len(), OPS, "only this session's payloads");
                    for e in &rec.events {
                        assert_eq!(e.tid, 0, "one recording thread per session");
                        if let EventKind::Invoke(Op::Get { key }) = e.kind {
                            assert_eq!(key, 1_000 + tag as u64, "foreign get recorded");
                        }
                    }
                }
            });
        }
    }
}

#[cfg(feature = "lincheck")]
pub use armed::*;

#[cfg(not(feature = "lincheck"))]
mod disarmed {
    use crate::cluster::ClusterError;
    use crate::fault::Clock;
    use bytes::Bytes;
    use ech_core::ids::ObjectId;

    /// Zero-sized stand-in for the recorder span.
    #[derive(Debug, Clone, Copy)]
    pub struct Span;

    /// Zero-sized stand-in for the recorder handle; every hook below is
    /// an empty inline shim the optimiser erases.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Recorder;

    impl Recorder {
        /// No-op (production build).
        #[inline(always)]
        pub fn attach() -> Self {
            Recorder
        }

        /// No-op (production build).
        #[inline(always)]
        pub fn inv_put(&self, _oid: ObjectId, _data: &Bytes, _clock: &dyn Clock) -> Span {
            Span
        }

        /// No-op (production build).
        #[inline(always)]
        pub fn ret_put<T>(&self, _: Span, _result: &Result<T, ClusterError>, _clock: &dyn Clock) {}

        /// No-op (production build).
        #[inline(always)]
        pub fn inv_get(&self, _oid: ObjectId, _clock: &dyn Clock) -> Span {
            Span
        }

        /// No-op (production build).
        #[inline(always)]
        pub fn ret_get(&self, _: Span, _: &Result<Bytes, ClusterError>, _clock: &dyn Clock) {}

        /// No-op (production build).
        #[inline(always)]
        pub fn inv_resize(&self, _active: usize, _clock: &dyn Clock) -> Span {
            Span
        }

        /// No-op (production build).
        #[inline(always)]
        pub fn inv_heal(&self, _clock: &dyn Clock) -> Span {
            Span
        }

        /// No-op (production build).
        #[inline(always)]
        pub fn inv_reintegrate(&self, _clock: &dyn Clock) -> Span {
            Span
        }

        /// No-op (production build).
        #[inline(always)]
        pub fn ret_ok(&self, _span: Span, _clock: &dyn Clock) {}
    }
}

#[cfg(not(feature = "lincheck"))]
pub use disarmed::*;
