//! # ech-traces — synthetic Cloudera-style traces and elasticity policy analysis
//!
//! §V-B of the paper analyses two proprietary Cloudera customer traces
//! (CC-a, CC-b; Table I) to compare machine-hour usage of four sizing
//! policies (Figures 8–9, Table II). This crate:
//!
//! * synthesizes load series calibrated to Table I's envelopes
//!   ([`synth`]) — see DESIGN.md for the substitution rationale;
//! * runs the paper's analytic policy model over any trace ([`policy`]):
//!   Ideal, Original CH (clean-up-gated scale-down, assume-empty
//!   migration), Primary+full, Primary+selective;
//! * reports relative machine-hour usage (Table II) and per-bin server
//!   counts (the Figure 8/9 series).

pub mod policy;
pub mod spec;
pub mod synth;

pub use policy::{analyze, simulate, PolicyKind, PolicyParams, PolicyResult, TraceAnalysis};
pub use spec::{Trace, TraceSpec};
