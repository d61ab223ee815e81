//! Per-layer probes: the workload's key stream replayed against one
//! layer's public function at a time, on stand-alone state of the
//! workload's size. They say what a call into the layer costs by itself;
//! the counters of the traced repetition say how many such calls one
//! client operation makes; what the two do not explain is reported as
//! `unattributed`.

use crate::keys::{payload_pool, pick, KeyStream};
use crate::stats::median;
use crate::workload::{parallelism, DEGRADED_ACTIVE};
use bytes::Bytes;
use ech_cluster::{
    Cluster, Deadline, KvDirtyTable, KvHeaderStore, RetryPolicy, StorageNode, SystemClock,
};
use ech_core::cache::ShardedPlacementCache;
use ech_core::dirty::{DirtyEntry, DirtyTable, HeaderSource};
use ech_core::engine::{
    DxEngine, EngineKind, JumpEngine, PlacementEngine, PowerEngine, RingEngine,
};
use ech_core::hash::object_position;
use ech_core::ids::{ObjectId, ServerId, VersionId};
use ech_core::view::ClusterView;
use ech_kvstore::KvStore;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Calls per timed probe repetition.
const CALLS: u64 = 200_000;
/// Repetitions per probe; the median is reported.
const REPS: usize = 3;
/// Entries one batched pop takes, as the reintegration planner does.
const POP_BATCH: usize = 8;
/// The kv keys `cluster::dirty_store` uses; the probes hit the same
/// shards with the same key lengths.
const HEADER_KEY: &str = "ech:headers";
const DIRTY_KEY: &str = "ech:dirty";

/// ns per call of `body`, median over [`REPS`] runs of [`CALLS`] calls,
/// each handed the next draw of the key stream.
fn ns_per_call(stream: &mut KeyStream, mut body: impl FnMut(u64)) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                body(stream.next_u64());
            }
            t.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    median(&runs)
}

/// ns per entry of a batched pop: [`CALLS`] entries leave the list per
/// repetition, [`POP_BATCH`] per call. The list must hold `REPS * CALLS`.
fn ns_per_popped_entry(mut pop_batch: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS / POP_BATCH as u64 {
                pop_batch();
            }
            t.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    median(&runs)
}

fn engine_lookup_ns<E: PlacementEngine>(engine: &E, keys: u64, stream: &mut KeyStream) -> f64 {
    ns_per_call(stream, |draw| {
        let oid = ObjectId(pick(draw, keys));
        let cursor = engine.start(oid);
        black_box(engine.search(oid, cursor, |_| true));
    })
}

/// Run every probe for a workload of `keys` objects on `cluster`'s
/// configuration. Returns metric name → value.
pub fn run(cluster: &Cluster, keys: u64, seed: u64) -> BTreeMap<&'static str, f64> {
    let cfg = cluster.config();
    let mut out = BTreeMap::new();
    let mut stream = KeyStream::new(seed, 0x50_52_4F_42_45);
    let stream = &mut stream;
    let pool = payload_pool();
    let full = cluster.view_snapshot();
    let mut degraded = ClusterView::clone(&full);
    let full_version = full.current_version();
    let degraded_version = degraded.resize(DEGRADED_ACTIVE);

    out.insert(
        "core.hash.object_position_ns",
        ns_per_call(stream, |draw| {
            black_box(object_position(ObjectId(pick(draw, keys))));
        }),
    );

    let servers = full.server_count();
    out.insert(
        "core.engine.lookup_ns",
        match full.engine() {
            EngineKind::Ring => engine_lookup_ns(&RingEngine::new(full.ring()), keys, stream),
            EngineKind::Jump => engine_lookup_ns(&JumpEngine::new(servers), keys, stream),
            EngineKind::Dx => engine_lookup_ns(&DxEngine::new(servers), keys, stream),
            EngineKind::Power => engine_lookup_ns(&PowerEngine::new(servers), keys, stream),
        },
    );

    let moved = (0..keys)
        .filter(|&k| {
            let at = |version| {
                degraded.place_at(ObjectId(k), version).map(|p| {
                    let mut servers = p.servers().to_vec();
                    servers.sort_unstable();
                    servers
                })
            };
            at(full_version) != at(degraded_version)
        })
        .count();
    out.insert("core.engine.remap_fraction", moved as f64 / keys as f64);

    for (name, view) in [
        ("core.view.place_current_ns", &*full),
        ("core.view.place_degraded_ns", &degraded),
    ] {
        out.insert(
            name,
            ns_per_call(stream, |draw| {
                black_box(view.place_current(ObjectId(pick(draw, keys))).ok());
            }),
        );
    }

    // Hits: a resident set of half the capacity, looked up at random.
    let cache = ShardedPlacementCache::new(cfg.cache_capacity, cfg.cache_shards);
    let resident = (cfg.cache_capacity as u64 / 2).clamp(1, keys);
    for k in 0..resident {
        black_box(cache.place_current(&full, ObjectId(k)).ok());
    }
    out.insert(
        "core.cache.hit_ns",
        ns_per_call(stream, |draw| {
            black_box(
                cache
                    .place_current(&full, ObjectId(pick(draw, resident)))
                    .ok(),
            );
        }),
    );
    // Misses: a full cache asked for keys it has never seen, so every
    // lookup computes the placement, inserts it and evicts the oldest.
    let cache = ShardedPlacementCache::new(cfg.cache_capacity, cfg.cache_shards);
    let mut fresh = 1u64 << 40;
    for _ in 0..cfg.cache_capacity {
        fresh += 1;
        black_box(cache.place_current(&full, ObjectId(fresh)).ok());
    }
    out.insert(
        "core.cache.miss_ns",
        ns_per_call(stream, |_| {
            fresh += 1;
            black_box(cache.place_current(&full, ObjectId(fresh)).ok());
        }),
    );

    // One node holding its share of the workload's replicas.
    let node = StorageNode::new(ServerId(0));
    let per_node = (keys * cfg.replicas as u64 / cfg.servers as u64).max(1);
    let version = VersionId(1);
    for k in 0..per_node {
        let data = pool[(k % 256) as usize].clone();
        node.put(ObjectId(k), data, version, false)
            .expect("stand-alone node accepts writes");
    }
    out.insert(
        "cluster.node.put_ns",
        ns_per_call(stream, |draw| {
            let data = pool[(draw >> 8) as u8 as usize].clone();
            black_box(
                node.put(ObjectId(pick(draw, per_node)), data, version, false)
                    .ok(),
            );
        }),
    );
    out.insert(
        "cluster.node.get_ns",
        ns_per_call(stream, |draw| {
            black_box(node.get(ObjectId(pick(draw, per_node))).ok());
        }),
    );

    // The kv store alone: field names and values are built beforehand, so
    // what `dirty_store` costs beyond these figures is its formatting.
    let kv = KvStore::new(cfg.kv_shards);
    let fields: Vec<String> = (0..keys).map(|k| k.to_string()).collect();
    let value = Bytes::from("1:0");
    for f in &fields {
        kv.hset(HEADER_KEY, f, value.clone()).expect("hash key");
    }
    let field = |draw: u64| -> &String { &fields[pick(draw, keys) as usize] };
    out.insert(
        "kvstore.store.hset_ns",
        ns_per_call(stream, |draw| {
            black_box(kv.hset(HEADER_KEY, field(draw), value.clone()).ok());
        }),
    );
    out.insert(
        "kvstore.store.hget_ns",
        ns_per_call(stream, |draw| {
            black_box(kv.hget(HEADER_KEY, field(draw)).ok());
        }),
    );
    let entry = Bytes::from("123456:7");
    out.insert(
        "kvstore.store.rpush_ns",
        ns_per_call(stream, |_| {
            black_box(kv.rpush(DIRTY_KEY, entry.clone()).ok());
        }),
    );
    // The pushes above left exactly the REPS * CALLS entries popped here.
    out.insert(
        "kvstore.store.lpop_n_ns",
        ns_per_popped_entry(|| {
            black_box(kv.lpop_n(DIRTY_KEY, POP_BATCH).ok());
        }),
    );
    out.insert(
        "kvstore.store.hset_2c_ns",
        hset_two_clients(&kv, &fields, &value, seed),
    );

    let kv = Arc::new(KvStore::new(cfg.kv_shards));
    let headers = KvHeaderStore::new(kv.clone());
    let mut table = KvDirtyTable::new(kv);
    for k in 0..keys {
        headers.record_write(ObjectId(k), version, false);
    }
    out.insert(
        "cluster.dirty_store.record_write_ns",
        ns_per_call(stream, |draw| {
            headers.record_write(ObjectId(pick(draw, keys)), version, false);
        }),
    );
    out.insert(
        "cluster.dirty_store.header_ns",
        ns_per_call(stream, |draw| {
            black_box(headers.header(ObjectId(pick(draw, keys))));
        }),
    );
    let mut pusher = table.clone();
    out.insert(
        "cluster.dirty_store.push_ns",
        ns_per_call(stream, |draw| {
            pusher.push_back(DirtyEntry::new(ObjectId(pick(draw, keys)), version));
        }),
    );
    out.insert(
        "cluster.dirty_store.pop_batch_ns",
        ns_per_popped_entry(|| {
            black_box(table.pop_front_n(POP_BATCH));
        }),
    );

    let policy = RetryPolicy::default();
    let clock = SystemClock::new();
    out.insert(
        "cluster.retry.wrap_ns",
        ns_per_call(stream, |draw| {
            let wrapped = policy.run_counted_deadline(
                &clock,
                Deadline::unbounded(),
                draw,
                |_: &()| false,
                || black_box(Ok::<(), ()>(())),
            );
            black_box(wrapped.0.ok());
        }),
    );
    out
}

/// `hset` into one hash key from `min(2, nproc)` threads at once: wall
/// time per call as each thread sees it.
fn hset_two_clients(kv: &KvStore, fields: &[String], value: &Bytes, seed: u64) -> f64 {
    let threads = parallelism().min(2);
    let runs: Vec<f64> = (0..REPS)
        .map(|rep| {
            let barrier = Barrier::new(threads);
            let spans: Vec<(Instant, Instant)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let barrier = &barrier;
                        s.spawn(move || {
                            let mut stream = KeyStream::new(seed, (rep * threads + t) as u64 + 77);
                            barrier.wait();
                            let start = Instant::now();
                            for _ in 0..CALLS {
                                let f =
                                    &fields[pick(stream.next_u64(), fields.len() as u64) as usize];
                                black_box(kv.hset(HEADER_KEY, f, value.clone()).ok());
                            }
                            (start, Instant::now())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("probe thread panicked"))
                    .collect()
            });
            let start = spans
                .iter()
                .map(|s| s.0)
                .min()
                .expect("at least one thread");
            let end = spans
                .iter()
                .map(|s| s.1)
                .max()
                .expect("at least one thread");
            (end - start).as_nanos() as f64 / CALLS as f64
        })
        .collect();
    median(&runs)
}
