//! Hot-path throughput harness behind `ech bench hotpath`.
//!
//! Measures the client-visible data path end to end — `Cluster::put` /
//! `Cluster::get` through placement resolution, replication and the kv
//! metadata writes — plus the reintegration drain, and emits one JSON
//! report (`BENCH_hotpath.json`) so every PR has a measured trajectory.
//!
//! Wall-clock timing is intentional here: this crate is a measurement
//! harness, not part of the deterministic placement/sim core, so the D1
//! no-wall-clock rule does not apply.

use crate::rounded;
use bytes::Bytes;
use ech_cluster::{Cluster, ClusterConfig};
use ech_core::ids::ObjectId;
use ech_core::sync::counter_u64;
use serde::{Deserialize, Serialize};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Thread count for the multi-threaded phase (fixed so reports from
/// different machines stay comparable).
pub const THREADS: usize = 8;

/// Payload size used for every object (bytes).
pub const PAYLOAD_BYTES: usize = 128;

/// Single-thread throughput, ops/sec.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SingleThread {
    /// `put` throughput.
    pub put_ops_per_sec: u64,
    /// `get` throughput.
    pub get_ops_per_sec: u64,
    /// Alternating put/get throughput.
    pub mixed_ops_per_sec: u64,
}

/// [`THREADS`]-thread throughput.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiThread {
    /// Alternating put/get throughput, all threads summed (ops/sec).
    pub mixed_ops_per_sec: u64,
    /// `multi mixed / single mixed` — ≥ 1 means the path scales.
    pub scaling_ratio: f64,
}

/// Placement-cache counters observed during the measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheReport {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that computed the placement.
    pub misses: u64,
    /// `hits / (hits + misses)` in `[0, 1]`; 0 when nothing was looked up.
    pub hit_ratio: f64,
    /// Shard-lock contention events.
    pub shard_contention: u64,
}

/// Reintegration drain rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DrainReport {
    /// Objects drained per second.
    pub drain_objects_per_sec: u64,
    /// MB/sec of payload moved.
    pub drain_mb_per_sec: f64,
}

/// One full measurement pass, in the shape it is written as JSON (field
/// order is the file's order; the committed report is diffed across PRs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HotpathReport {
    /// `"smoke"` or `"full"`.
    pub mode: String,
    /// Objects written per phase.
    pub objects: usize,
    /// [`PAYLOAD_BYTES`].
    pub payload_bytes: usize,
    /// [`THREADS`].
    pub threads: usize,
    /// `std::thread::available_parallelism()` on the measuring machine —
    /// the hard ceiling on multi-thread scaling.
    pub available_parallelism: usize,
    /// Single-thread phases.
    pub single_thread: SingleThread,
    /// Multi-thread phase.
    pub multi_thread: MultiThread,
    /// Cache counters.
    pub placement_cache: CacheReport,
    /// Drain phase.
    pub reintegration: DrainReport,
}

/// `BENCH_hotpath.json`: named reports (a third, `baseline`, is history
/// and never compared against).
#[derive(Debug, Deserialize)]
struct HotpathReference {
    current: Option<HotpathReport>,
    smoke: Option<HotpathReport>,
}

impl HotpathReport {
    /// The JSON report `ech bench hotpath` prints.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

fn payload() -> Bytes {
    Bytes::from(vec![0xA5u8; PAYLOAD_BYTES])
}

fn fresh_cluster() -> Arc<Cluster> {
    Cluster::new(ClusterConfig::paper())
}

/// Run the full measurement. `smoke` shrinks the workload for CI.
pub fn run(smoke: bool) -> HotpathReport {
    let objects: usize = if smoke { 2_000 } else { 20_000 };
    let data = payload();

    // Phase 1: single-thread put throughput on a fresh cluster.
    let c = fresh_cluster();
    let t = Instant::now();
    for i in 0..objects {
        c.put(ObjectId(i as u64), data.clone()).expect("put");
    }
    let single_put = objects as f64 / t.elapsed().as_secs_f64();

    // Phase 2: single-thread get throughput over the loaded set (two
    // passes so the measurement is not dominated by cold start).
    let t = Instant::now();
    for pass in 0..2 {
        for i in 0..objects {
            let _ = pass;
            c.get(ObjectId(i as u64)).expect("get");
        }
    }
    let single_get = (2 * objects) as f64 / t.elapsed().as_secs_f64();

    // Phase 3: single-thread mixed (alternating put/get) — the figure the
    // multi-thread phase is compared against.
    let t = Instant::now();
    for i in 0..objects {
        let oid = ObjectId((i % objects) as u64);
        if i % 2 == 0 {
            c.get(oid).expect("get");
        } else {
            c.put(oid, data.clone()).expect("put");
        }
    }
    let single_mixed = objects as f64 / t.elapsed().as_secs_f64();

    // Phase 4: 8-thread mixed put/get. Each thread owns a disjoint write
    // range (no write-write races on one oid) and reads across the whole
    // preloaded set.
    // `counter_u64` declares the counter role: the D5 rule licenses the
    // relaxed tally below from the constructor, and under a modelcheck-
    // unified build the counter stays yield-free.
    let done = counter_u64(0);
    let per_thread = objects / THREADS;
    let t = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let c = &c;
            let data = data.clone();
            let done = &done;
            s.spawn(move || {
                let base = tid * per_thread;
                for i in 0..per_thread {
                    let oid = ObjectId((base + i) as u64);
                    if i % 2 == 0 {
                        let read = ObjectId(((base + i * 7 + tid) % objects) as u64);
                        c.get(read).expect("get");
                    } else {
                        c.put(oid, data.clone()).expect("put");
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let multi_mixed = done.load(Ordering::Relaxed) as f64 / t.elapsed().as_secs_f64();

    let cache = c.cache_stats();

    // Phase 5: reintegration drain. Size down, dirty a quarter of the
    // population, size back up, and time the drain to empty.
    let servers = c.config().servers;
    let dirty_objects = objects / 4;
    c.resize(servers / 2);
    for i in 0..dirty_objects {
        c.put(ObjectId(i as u64), data.clone()).expect("dirty put");
    }
    c.resize(servers);
    let moved_before = c.migrated_bytes();
    let t = Instant::now();
    c.reintegrate_all();
    let dt = t.elapsed().as_secs_f64();
    let moved = c.migrated_bytes() - moved_before;

    HotpathReport {
        mode: if smoke { "smoke" } else { "full" }.to_owned(),
        objects,
        payload_bytes: PAYLOAD_BYTES,
        threads: THREADS,
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        single_thread: SingleThread {
            put_ops_per_sec: single_put.round() as u64,
            get_ops_per_sec: single_get.round() as u64,
            mixed_ops_per_sec: single_mixed.round() as u64,
        },
        multi_thread: MultiThread {
            mixed_ops_per_sec: multi_mixed.round() as u64,
            scaling_ratio: rounded(multi_mixed / single_mixed, 2),
        },
        placement_cache: CacheReport {
            hits: cache.hits,
            misses: cache.misses,
            hit_ratio: match cache.hits + cache.misses {
                0 => 0.0,
                total => rounded(cache.hits as f64 / total as f64, 4),
            },
            shard_contention: cache.shard_contention,
        },
        reintegration: DrainReport {
            drain_objects_per_sec: (dirty_objects as f64 / dt).round() as u64,
            drain_mb_per_sec: rounded(moved as f64 / 1e6 / dt, 2),
        },
    }
}

/// Compare a fresh report against a committed reference JSON, failing on
/// a single-thread put/get regression beyond `tolerance` (e.g. `0.20`).
/// Returns a human-readable verdict on success.
pub fn check_against(
    fresh: &HotpathReport,
    reference_json: &str,
    tolerance: f64,
) -> Result<String, String> {
    let reference: HotpathReference = serde_json::from_str(reference_json)
        .map_err(|e| format!("reference is not a hotpath bench report: {e}"))?;
    let (section, committed) = if fresh.mode == "smoke" {
        ("smoke", reference.smoke)
    } else {
        ("current", reference.current)
    };
    let committed = committed.ok_or_else(|| format!("reference JSON has no {section} section"))?;
    let (put, get) = (
        fresh.single_thread.put_ops_per_sec as f64,
        fresh.single_thread.get_ops_per_sec as f64,
    );
    let ref_put = committed.single_thread.put_ops_per_sec as f64;
    let ref_get = committed.single_thread.get_ops_per_sec as f64;
    let floor_put = ref_put * (1.0 - tolerance);
    let floor_get = ref_get * (1.0 - tolerance);
    if put < floor_put {
        return Err(format!(
            "single-thread put regressed: {put:.0} ops/s vs committed {ref_put:.0} (floor {floor_put:.0})"
        ));
    }
    if get < floor_get {
        return Err(format!(
            "single-thread get regressed: {get:.0} ops/s vs committed {ref_get:.0} (floor {floor_get:.0})"
        ));
    }
    Ok(format!(
        "hotpath check ok: put {put:.0} vs {ref_put:.0}, get {get:.0} vs {ref_get:.0} (tolerance {:.0}%)",
        tolerance * 100.0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_round_trips_through_the_checker() {
        let r = HotpathReport {
            mode: "smoke".to_owned(),
            objects: 100,
            payload_bytes: PAYLOAD_BYTES,
            threads: THREADS,
            available_parallelism: 1,
            single_thread: SingleThread {
                put_ops_per_sec: 1000,
                get_ops_per_sec: 2000,
                mixed_ops_per_sec: 1500,
            },
            multi_thread: MultiThread {
                mixed_ops_per_sec: 1500,
                scaling_ratio: 1.0,
            },
            placement_cache: CacheReport {
                hits: 10,
                misses: 5,
                hit_ratio: rounded(10.0 / 15.0, 4),
                shard_contention: 0,
            },
            reintegration: DrainReport {
                drain_objects_per_sec: 50,
                drain_mb_per_sec: 0.5,
            },
        };
        assert_eq!(
            serde_json::from_str::<HotpathReport>(&r.to_json()).unwrap(),
            r
        );
        let wrapped = format!("{{\n\"smoke\": {}\n}}", r.to_json());
        // Identical numbers pass the 20% gate.
        assert!(check_against(&r, &wrapped, 0.20).is_ok());
        // A big regression fails it.
        let mut slow = r.clone();
        slow.single_thread.put_ops_per_sec = 100;
        assert!(check_against(&slow, &wrapped, 0.20).is_err());
        // A full-mode report finds no `current` section there.
        slow.mode = "full".to_owned();
        assert!(check_against(&slow, &wrapped, 0.20).is_err());
        assert_eq!(r.placement_cache.hit_ratio, 0.6667);
    }

    /// The committed reference (written by the previous hand emitter)
    /// must stay readable: both gated sections parse.
    #[test]
    fn committed_reference_is_accepted() {
        let committed = include_str!("../../../BENCH_hotpath.json");
        let reference: HotpathReference = serde_json::from_str(committed).unwrap();
        for report in [reference.smoke.unwrap(), reference.current.unwrap()] {
            assert!(check_against(&report, committed, 0.0).is_ok());
        }
    }
}
