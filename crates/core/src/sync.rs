//! Synchronisation facade: real primitives in production, instrumented
//! ones under the model checker.
//!
//! Every concurrency primitive the hot path uses is imported from this
//! module, never from `std::sync` or `parking_lot` directly (analyzer
//! rule D5 enforces that). With the default feature set the re-exports
//! are the plain production types — the facade compiles away entirely.
//! With the `modelcheck` feature they are the `ech-modelcheck`
//! instrumented equivalents, so the interleaving explorer schedules and
//! happens-before-checks the *actual* data-path code, not a model of it.
//!
//! Two atomic constructor families exist because the checker treats them
//! differently:
//!
//! * [`AtomicU64::new`] / [`AtomicBool::new`] — a *synchronisation*
//!   atomic: the checker yields at every access and flags `Relaxed`
//!   operations on it (the dynamic analogue of rule D5).
//! * [`counter_u64`] — a pure statistics counter: never a scheduling
//!   point, `Relaxed` is fine, no happens-before obligations. Use this
//!   for monotonic tallies whose readers tolerate slack.
//! * [`counter_observed_u64`] — a counter whose *coherence* is itself
//!   under test (e.g. the packed cache hit/miss pair): the checker
//!   schedules around it but permits `Relaxed`.
//!
//! The counter constructors matter beyond semantics: counters are often
//! bumped while an **uninstrumented** lock is held, and a scheduling
//! yield there would deadlock the virtual scheduler. `counter_u64` is
//! guaranteed yield-free.

#[cfg(feature = "modelcheck")]
pub use ech_modelcheck::sync::{
    footprint_read, footprint_write, msg_fate, AtomicBool, AtomicU64, MsgFate, Mutex, MutexGuard,
    Ordering,
};

/// A once-initialised cell, the same type in both builds: a cell's
/// initialiser runs no scheduling point (it only computes), so the
/// explorer needs no instrumented twin to schedule around it.
pub use std::sync::OnceLock;

#[cfg(not(feature = "modelcheck"))]
pub use parking_lot::{Mutex, MutexGuard};
#[cfg(not(feature = "modelcheck"))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Declare a *read* of coarse shared state the model checker's
/// instrumentation cannot see (raw-locked maps, kv-store backed tables)
/// under the caller-chosen footprint key. Production shim: compiles
/// away. Under the `modelcheck` feature this feeds the partial-order
/// reduction's dependence relation — two turns touching the same
/// footprint key (at least one writing) do not commute.
#[cfg(not(feature = "modelcheck"))]
#[inline]
pub fn footprint_read(_key: u64) {}

/// Declare a *write* of coarse shared state; see [`footprint_read`].
#[cfg(not(feature = "modelcheck"))]
#[inline]
pub fn footprint_write(_key: u64) {}

/// A statistics counter: monotonic tally, `Relaxed` access allowed,
/// never a model-checker scheduling point.
#[cfg(not(feature = "modelcheck"))]
pub const fn counter_u64(v: u64) -> AtomicU64 {
    AtomicU64::new(v)
}

/// A statistics counter: monotonic tally, `Relaxed` access allowed,
/// never a model-checker scheduling point.
#[cfg(feature = "modelcheck")]
pub const fn counter_u64(v: u64) -> AtomicU64 {
    AtomicU64::new_counter(v)
}

/// A counter whose coherent observation is itself model-checked: the
/// explorer schedules around accesses but permits `Relaxed` orderings.
#[cfg(not(feature = "modelcheck"))]
pub const fn counter_observed_u64(v: u64) -> AtomicU64 {
    AtomicU64::new(v)
}

/// A counter whose coherent observation is itself model-checked: the
/// explorer schedules around accesses but permits `Relaxed` orderings.
#[cfg(feature = "modelcheck")]
pub const fn counter_observed_u64(v: u64) -> AtomicU64 {
    AtomicU64::new_counter_observed(v)
}
