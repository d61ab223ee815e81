//! Multithreaded stress test over the lock-free read path: 8 threads
//! (4 writers, 4 readers) hammer the cluster while the main thread
//! drives elastic resizes and a seeded fault plan injects transient I/O
//! errors. Every reader works off an epoch-pinned view snapshot, so the
//! invariants it checks must hold *within* that snapshot no matter how
//! many membership changes race it:
//!
//! - coherent epoch: the snapshot's current version is recorded in its
//!   own history, and placement under it succeeds;
//! - primary-replica invariant (Algorithm 1): replicas are distinct,
//!   active under the snapshot's membership, and exactly one sits on a
//!   primary server (the resize set keeps >= r-1 active secondaries, so
//!   the §III-B special case never relaxes it);
//! - read-your-write: an acknowledged put is readable through faults.

use ech_cluster::scenario::{self, value, Outcome, Scenario};
use ech_cluster::Cluster;
use ech_core::ids::ObjectId;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Transient-error windows close after this many ops per node.
const IO_WINDOW: u64 = 80;
const WRITERS: u64 = 4;
const PUTS_PER_WRITER: u64 = 150;
/// Resize targets: every size keeps both primaries plus at least
/// `replicas - 1` secondaries active, so placements always carry
/// exactly one primary replica.
const SIZES: &[usize] = &[6, 4, 8, 10];

/// Placement invariants under one pinned snapshot.
fn check_snapshot_invariants(c: &Cluster, oid: u64) {
    let view = c.view_snapshot();
    let ver = view.current_version();
    let membership = view.current_membership();
    let placement = view
        .place_at(ObjectId(oid), ver)
        .expect("the snapshot's own current version is always recorded");
    let servers = placement.servers();
    let distinct: BTreeSet<_> = servers.iter().collect();
    assert_eq!(
        distinct.len(),
        servers.len(),
        "replicas must land on distinct servers (epoch {ver})"
    );
    assert_eq!(servers.len(), view.replicas(), "full replication factor");
    for s in servers {
        assert!(
            membership.is_active(*s),
            "replica on inactive server {s:?} under its own snapshot (epoch {ver})"
        );
    }
    let primaries = servers
        .iter()
        .filter(|s| view.layout().is_primary(**s))
        .count();
    assert_eq!(
        primaries,
        1,
        "exactly one replica on a primary (epoch {ver}, active {})",
        membership.active_count()
    );
}

#[test]
fn concurrent_writers_readers_and_resizes_keep_invariants() {
    let drill = Scenario::r3(
        scenario::disk_faults(10, 0x57E5_5EED, 0.05, IO_WINDOW, &[]),
        0,
    )
    .build();
    let c = Arc::clone(&drill.cluster);

    let acked: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let resize_count = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Readers spin until `done`; set it on every exit path (panics
        // included) or the scope would join against live spinners.
        struct DoneOnDrop(Arc<AtomicBool>);
        impl Drop for DoneOnDrop {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let _done_guard = DoneOnDrop(Arc::clone(&done));
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let c = Arc::clone(&c);
            let acked = Arc::clone(&acked);
            let resize_count = Arc::clone(&resize_count);
            writers.push(s.spawn(move || {
                for i in 0..PUTS_PER_WRITER {
                    // Epoch transitions are driven from inside the load:
                    // every 40th put each writer resizes the cluster, so
                    // transitions always overlap live readers/writers no
                    // matter how a single-CPU box schedules us.
                    if i % 40 == 39 {
                        let k = (w * PUTS_PER_WRITER + i) as usize;
                        c.resize(SIZES[k % SIZES.len()]);
                        resize_count.fetch_add(1, Ordering::Relaxed);
                    }
                    let oid = w * PUTS_PER_WRITER + i;
                    let mut ok = false;
                    for _ in 0..8 {
                        if c.put(ObjectId(oid), value(oid)).is_ok() {
                            ok = true;
                            break;
                        }
                    }
                    assert!(ok, "put {oid} failed through 8 transient retries");
                    acked.lock().unwrap().push(oid);
                }
            }));
        }
        for r in 0..4u64 {
            let c = Arc::clone(&c);
            let acked = Arc::clone(&acked);
            let done = Arc::clone(&done);
            s.spawn(move || {
                let mut rng = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(r + 1);
                let mut checked = 0u64;
                while !done.load(Ordering::Relaxed) || checked == 0 {
                    let sample = {
                        let a = acked.lock().unwrap();
                        if a.is_empty() {
                            None
                        } else {
                            rng = rng
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            Some(a[(rng >> 33) as usize % a.len()])
                        }
                    };
                    let Some(oid) = sample else {
                        std::thread::yield_now();
                        continue;
                    };
                    // Read-your-write through transient faults.
                    let got = (0..8).find_map(|_| c.get(ObjectId(oid)).ok());
                    assert_eq!(
                        got.as_ref(),
                        Some(&value(oid)),
                        "acked object {oid} must read back"
                    );
                    check_snapshot_invariants(&c, oid);
                    checked += 1;
                }
                assert!(checked > 0, "reader {r} verified nothing");
            });
        }
        // Wait out the writers, then release the readers. A writer
        // panic propagates here; the drop guard still frees the
        // readers so the scope can join everything.
        for h in writers {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
        done.store(true, Ordering::Relaxed);
    });
    let resizes = resize_count.load(Ordering::Relaxed);
    assert_eq!(
        resizes,
        WRITERS * (PUTS_PER_WRITER / 40),
        "every in-load epoch transition must have run"
    );

    // Converge; then every acked write is present and fully placed.
    let mut out = Outcome::default();
    drill.end_faults(&mut out);
    drill.converge();
    out.acked = std::mem::take(&mut *acked.lock().unwrap());
    assert_eq!(out.acked.len() as u64, WRITERS * PUTS_PER_WRITER);
    drill.survival(&mut out);
    out.assert_survived();
    // What the read path resolves is exactly Algorithm 1 on the
    // published view, for every object, after all those epochs.
    let view = c.view_snapshot();
    for &oid in &out.acked {
        assert_eq!(
            c.locate(ObjectId(oid)).unwrap(),
            view.place_current(ObjectId(oid)).unwrap(),
            "object {oid}"
        );
    }
}

/// History-level acceptance for the stress mix: record every
/// public-API call of a scaled-down run (3 writers and 2 readers
/// racing in-load resizes) through the lincheck facade, then check
/// the recorded history against the sequential spec offline.
/// Fault-free on purpose — an errored put is ambiguous (the checker
/// must branch on whether it applied), so keeping faults out keeps
/// the per-key searches tight and makes any violation purely an
/// ordering bug in the concurrent read/write/resize protocols.
#[cfg(feature = "lincheck")]
#[test]
fn recorded_stress_history_is_linearizable() {
    use bytes::Bytes;
    use ech_cluster::FaultPlan;
    use ech_lincheck::{check_kv, Outcome, DEFAULT_BUDGET};

    // The cluster attaches to the session open on the thread that
    // builds it; sibling tests' clusters record nothing into it.
    let session = ech_lincheck::recorder::Session::begin();
    let c = Scenario::r3(FaultPlan::default(), 0).build().cluster;

    // Few keys on purpose: contention is what gives the checker real
    // reordering work; per-key op counts stay far under the budget.
    const KEYS: u64 = 4;
    const PUTS: u64 = 10;
    const GETS: u64 = 12;
    std::thread::scope(|s| {
        for w in 0..3u64 {
            let c = Arc::clone(&c);
            s.spawn(move || {
                for i in 0..PUTS {
                    let oid = 1 + (w.wrapping_mul(7).wrapping_add(i)) % KEYS;
                    c.put(ObjectId(oid), Bytes::from(format!("h-{w}-{i}")))
                        .expect("fault-free put");
                    // Epoch transitions overlap the recorded traffic.
                    if i == PUTS / 2 {
                        c.resize(SIZES[w as usize % SIZES.len()]);
                    }
                }
            });
        }
        for r in 0..2u64 {
            let c = Arc::clone(&c);
            s.spawn(move || {
                for i in 0..GETS {
                    let oid = 1 + r.wrapping_add(i) % KEYS;
                    // Any verdict is recorded; a pre-first-put read
                    // legitimately sees the authoritative NotFound.
                    let _ = c.get(ObjectId(oid));
                }
            });
        }
    });
    // Spec-level no-ops close the run: they must not confuse the
    // checker (they never reach the per-key partitions).
    c.resize(10);
    c.heal_dirty();
    c.reintegrate_all();

    let rec = session.finish();
    match check_kv(&rec.events, DEFAULT_BUDGET) {
        Outcome::Linearizable { keys, ops, .. } => {
            assert_eq!(keys as u64, KEYS, "every key reaches the checker");
            assert_eq!(
                ops as u64,
                3 * PUTS + 2 * GETS,
                "every keyed operation reaches the checker"
            );
        }
        other => panic!("recorded stress history rejected: {other:?}"),
    }
}
