//! `ech-lincheck`: linearizability checking for the cluster data path.
//!
//! Three layers (DESIGN.md §14):
//!
//! - [`history`] — invocation/response event streams with
//!   VirtualClock timestamps and recorder-assigned thread ids, plus
//!   the replayable `l1:<model>:<events…>` witness schema.
//! - [`spec`] — the sequential specification of the paper's KV
//!   semantics: a per-key last-write-wins register where `NotFound` is
//!   authoritative, `Unavailable` is information-free, degraded quorum
//!   writes are visible-after-ack, and resize/heal/re-integration are
//!   spec-level no-ops.
//! - [`check`] — a Wing–Gong checker with Lowe-style per-key
//!   partitioning and memoized state caching; deterministic,
//!   allocation-bounded, and emitting minimal non-linearizable
//!   witnesses.
//!
//! [`recorder`] is the scoped recording session the cluster's
//! cfg-gated `lincheck` facade feeds. The crate is dependency-free so
//! every layer of the workspace can link against it, exactly like
//! `ech-modelcheck`.

pub mod check;
pub mod history;
pub mod recorder;
pub mod spec;

pub use check::{check_kv, verify_witness, Outcome, Verdict, DEFAULT_BUDGET};
pub use history::{render_witness, Event, EventKind, Op, Ret, Val};
