//! The data path's allocation budget, counted rather than timed: after
//! warm-up a full-power put or a get allocates nothing — the placement is
//! inline, the header is a typed record, nothing is formatted — and a put
//! below full power adds only the dirty log's amortised growth.

// The counting allocator is the one `unsafe impl` the test needs; the
// vendor shims carry the same allowance.
#![allow(unsafe_code)]

use bytes::Bytes;
use ech_cluster::{Cluster, ClusterConfig};
use ech_core::ids::ObjectId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and reallocations made by this thread. Per thread, so
    /// the harness's own threads do not disturb a count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it neither allocates
// nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const OBJECTS: u64 = 1_000;

fn put_all(c: &Cluster, payload: &Bytes) {
    for k in 0..OBJECTS {
        c.put(ObjectId(k), payload.clone()).unwrap();
    }
}

fn get_all(c: &Cluster, payload: &Bytes) {
    for k in 0..OBJECTS {
        assert_eq!(c.get(ObjectId(k)).unwrap(), *payload);
    }
}

#[test]
fn warm_puts_and_gets_allocate_nothing_and_degraded_puts_only_grow_the_log() {
    let c = Cluster::new(ClusterConfig::paper());
    let payload = Bytes::from(vec![7u8; 128]);

    // Warm-up: first writes grow the node and header tables.
    put_all(&c, &payload);
    get_all(&c, &payload);

    let before = allocations();
    put_all(&c, &payload);
    get_all(&c, &payload);
    assert_eq!(allocations() - before, 0, "full-power overwrites and reads");

    // Below full power every put is offloaded and logged. One round lands
    // the replicas on their offload nodes; the round counted after it
    // overwrites them and appends 1,000 more entries to the log.
    c.resize(5);
    put_all(&c, &payload);
    assert_eq!(c.dirty_len(), OBJECTS as usize);

    let before = allocations();
    put_all(&c, &payload);
    let grown = allocations() - before;
    assert_eq!(c.dirty_len(), 2 * OBJECTS as usize);
    assert!(
        grown <= 12,
        "{grown} allocations in 1,000 degraded puts: more than the log's amortised growth"
    );

    // Reads of offloaded objects resolve two placements and merge them.
    let before = allocations();
    get_all(&c, &payload);
    assert_eq!(allocations() - before, 0, "degraded reads");
}
