//! The metric catalogue: every name the benchmark prints, with its unit,
//! its direction, and — for end-to-end metrics — the bound a change may
//! worsen it by. `BENCHMARK.json` at the repo root mirrors these tables (a
//! unit test keeps the two in step) and `benchmark/README.md` says which
//! end-to-end metric each per-layer metric should move, on which workload.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Printed name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; 0 for per-layer metrics, which are not gated).
    pub bound: f64,
    /// True when, at one client and a fixed seed, two runs of one program
    /// must print the very same value: a count or a ratio of counts.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the store sees. Printed by an
/// untraced run, every one of them on every workload.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("ops_s", "ops/s", Higher, 0.25, false),
    e2e("get_p50_ns", "ns", Lower, 0.25, false),
    e2e("put_p50_ns", "ns", Lower, 0.25, false),
    e2e("migrated_per_dirty_byte", "ratio", Lower, 0.03, true),
    e2e("stored_per_user_byte", "ratio", Lower, 0.01, true),
    e2e("peak_rss_mb", "MB", Lower, 0.2, false),
];

/// Per-layer metrics (layer = module). Printed by a traced run; none is
/// gated. `*_ns` probes time the layer's public function on stand-alone
/// state of the workload's size; counts are deltas over one traced
/// repetition's client loop.
pub const PER_LAYER: [MetricDef; 45] = [
    layer("core.hash.object_position_ns", "ns", Lower, false),
    layer("core.engine.lookup_ns", "ns", Lower, false),
    layer("core.engine.remap_fraction", "ratio", Lower, true),
    layer("core.view.place_current_ns", "ns", Lower, false),
    layer("core.view.place_degraded_ns", "ns", Lower, false),
    layer("core.cache.hit_ns", "ns", Lower, false),
    layer("core.cache.miss_ns", "ns", Lower, false),
    layer("core.cache.hit_ratio", "ratio", Higher, true),
    layer("core.cache.lookups_per_get", "ratio", Lower, true),
    layer("core.cache.shard_contention", "count", Lower, true),
    layer("cluster.node.put_ns", "ns", Lower, false),
    layer("cluster.node.get_ns", "ns", Lower, false),
    layer("cluster.node.writes_per_put", "ratio", Lower, true),
    layer("cluster.node.reads_per_get", "ratio", Lower, true),
    layer("kvstore.store.hset_ns", "ns", Lower, false),
    layer("kvstore.store.hget_ns", "ns", Lower, false),
    layer("kvstore.store.rpush_ns", "ns", Lower, false),
    layer("kvstore.store.lpop_n_ns", "ns", Lower, false),
    layer("kvstore.store.hset_2c_ns", "ns", Lower, false),
    layer("cluster.dirty_store.record_write_ns", "ns", Lower, false),
    layer("cluster.dirty_store.header_ns", "ns", Lower, false),
    layer("cluster.dirty_store.push_ns", "ns", Lower, false),
    layer("cluster.dirty_store.pop_batch_ns", "ns", Lower, false),
    layer("cluster.dirty_store.pushes_per_put", "ratio", Lower, true),
    layer("cluster.retry.wrap_ns", "ns", Lower, false),
    layer("cluster.retry.retries", "count", Lower, true),
    layer("cluster.get.mean_ns", "ns", Lower, false),
    layer("cluster.get.p99_ns", "ns", Lower, false),
    layer("cluster.put.mean_ns", "ns", Lower, false),
    layer("cluster.put.p99_ns", "ns", Lower, false),
    layer("cluster.get.unattributed_ns", "ns", Lower, false),
    layer("cluster.put.unattributed_ns", "ns", Lower, false),
    layer("cluster.resize.down_us", "us", Lower, false),
    layer("cluster.resize.up_us", "us", Lower, false),
    layer("cluster.drain.objs_s", "objects/s", Higher, false),
    layer("cluster.heal.busy_s", "s", Lower, false),
    layer("cluster.reintegrate.busy_s", "s", Lower, false),
    layer("cluster.reintegrate.tasks", "count", Lower, true),
    layer("cluster.reintegrate.moves", "count", Lower, true),
    layer("cluster.reintegrate.bytes", "bytes", Lower, true),
    layer("cluster.reintegrate.useful_ratio", "ratio", Higher, true),
    layer("cluster.dirty.entries_per_dirty_obj", "ratio", Lower, true),
    layer(
        "cluster.degraded.stored_per_user_byte",
        "ratio",
        Lower,
        true,
    ),
    layer("bench.harness_self_ns", "ns", Lower, false),
    layer("trace.overhead_ratio", "ratio", Lower, false),
];

/// A measured value, as the result line carries it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measured {
    /// The number as measured, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The last line of a single-workload run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultLine {
    /// Every output check passed.
    pub correct: bool,
    /// Client operations issued plus oracle checks evaluated.
    pub attempted: u64,
    /// Operations that failed or returned the wrong data, plus oracle
    /// checks violated.
    pub failed: u64,
    /// Metric name → value.
    pub metrics: BTreeMap<String, Measured>,
}

/// Collects one tier's values in catalogue order and refuses to finish
/// until the tier is complete.
#[derive(Debug)]
pub struct MetricSet {
    tier: &'static [MetricDef],
    values: BTreeMap<String, Measured>,
}

impl MetricSet {
    /// Empty set for `tier` ([`END_TO_END`] or [`PER_LAYER`]).
    pub fn new(tier: &'static [MetricDef]) -> Self {
        MetricSet {
            tier,
            values: BTreeMap::new(),
        }
    }

    /// Record `name`.
    ///
    /// # Panics
    /// Panics on a name outside the tier or a non-finite value: both are
    /// bugs in the benchmark, and a result line with a hole in it would
    /// be refused downstream with a far less useful message.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = self
            .tier
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in this tier's catalogue"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.values.insert(
            def.name.to_string(),
            Measured {
                value,
                unit: def.unit.to_string(),
            },
        );
    }

    /// The complete tier.
    ///
    /// # Panics
    /// Panics when a catalogue entry was never [`MetricSet::set`].
    pub fn finish(self) -> BTreeMap<String, Measured> {
        for m in self.tier {
            assert!(
                self.values.contains_key(m.name),
                "metric `{}` was never measured",
                m.name
            );
        }
        self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!((0.0..=0.25).contains(&m.bound));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "set-up carries the largest bound");
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn incomplete_tier_is_refused() {
        let mut set = MetricSet::new(&END_TO_END);
        set.set("ops_s", 1.0);
        set.finish();
    }
}
