//! # ech-workload — workload generators for the elastic storage evaluation
//!
//! The paper evaluates with two kinds of load:
//!
//! * the **Filebench-style 3-phase benchmark** of §V-A (write burst /
//!   rate-limited valley / mixed burst) — [`three_phase`];
//! * **offered-load time series** shaped like the Cloudera customer
//!   traces of §V-B — [`series`] (the calibrated CC-a/CC-b instances live
//!   in `ech-traces`).
//!
//! [`objects`] converts byte flows into Sheepdog-style 4 MB object
//! writes, which is what the dirty table ultimately tracks.

pub mod objects;
pub mod series;
pub mod three_phase;

pub use objects::{ObjectAllocator, UniformPicker, ZipfPicker};
pub use series::{ideal_servers, LoadSeries};
pub use three_phase::{PhaseSpec, Workload, GB, MB};
