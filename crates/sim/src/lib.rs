//! # ech-sim — a fluid simulator for elastic storage clusters
//!
//! The paper evaluates on a 10-node Sheepdog testbed; this crate is the
//! simulation substrate that stands in for that hardware. It models the
//! observables the evaluation actually reports — active-server counts over
//! time (Figure 2) and client throughput under contention with background
//! migration (Figures 3 and 7) — while running the *real* `ech-core`
//! placement, dirty-tracking and re-integration code underneath.
//!
//! See `DESIGN.md` (repository root) for the substitution argument:
//! everything measured is bandwidth/latency accounting, so a deterministic
//! time-stepped fluid model exercises the same decision logic as the
//! testbed.
//!
//! * [`config`] — parameter sets; [`SimConfig::paper_testbed`] matches §V-A.
//! * [`power`] — per-server power-state machine with boot/shutdown delays.
//! * [`cluster_sim`] — the engine: placement-driven object writes, dirty
//!   tracking, re-replication gating (original CH), assume-empty full
//!   migration, token-bucket selective re-integration, shared-bandwidth
//!   client throughput.
//! * [`experiments`] — figure drivers: resize agility (Fig. 2) and the
//!   3-phase workload (Figs. 3 and 7).
//! * [`des`] — a request-level discrete-event latency model: per-server
//!   FIFO disk queues shared by client reads and re-integration
//!   transfers, quantifying the latency tail the throughput figures only
//!   hint at.
//! * [`energy`] — per-state power model and energy meter, turning
//!   machine-hours into kWh.

pub mod cluster_sim;
pub mod config;
pub mod des;
pub mod energy;
pub mod experiments;
pub mod power;

pub use cluster_sim::{ClusterSim, Sample, StepEvents};
pub use config::{ElasticityMode, SimConfig};
