//! The space a stored object costs, counted rather than sampled from RSS:
//! the live heap bytes a preload of the paper cluster adds, per object.
//!
//! The figure is the cluster's own metadata — two node-map buckets (one
//! per replica, r = 2), one header-table bucket, and the control bytes and
//! free slots of those tables — since every put here shares one payload
//! buffer. It is exact, and within 0.1 byte of the same for every
//! power-of-two object count from 4,096 to 131,072. At 32,768 objects:
//!
//! - 185.0 bytes with 16-byte `ObjectHeader`s in node map and header table
//!   and a two-word `Bytes` (node bucket 40 B, header bucket 24 B);
//! - 145.0 bytes once both tables hold a one-word `PackedHeader`
//!   (32 B and 16 B);
//! - 115.0 bytes once `Bytes` is one pointer as well (node bucket 24 B).
//!
//! A change that fattens either record fails here, not in a benchmark run.

// The counting allocator is the one `unsafe impl` the test needs; the
// vendor shims carry the same allowance.
#![allow(unsafe_code)]

use bytes::Bytes;
use ech_cluster::{Cluster, ClusterConfig};
use ech_core::ids::ObjectId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread allocated minus those it freed. Per thread, so
    /// the harness's own threads do not disturb the count.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn add_live(bytes: i64) {
    LIVE.with(|n| n.set(n.get() + bytes));
}

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract (the trait's default
// `alloc_zeroed` and `realloc` go through them, so they are counted too);
// the counter is a const-initialised thread-local `Cell` with no
// destructor, so touching it neither allocates nor re-enters the
// allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as i64);
        // SAFETY: the caller's `layout` obligations are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const OBJECTS: u64 = 32_768;

#[test]
fn a_stored_object_costs_at_most_120_heap_bytes() {
    let c = Cluster::new(ClusterConfig::paper());
    let payload = Bytes::from(vec![7u8; 128]);

    let before = LIVE.with(Cell::get);
    for k in 0..OBJECTS {
        c.put(ObjectId(k), payload.clone()).unwrap();
    }
    let per_object = (LIVE.with(Cell::get) - before) as f64 / OBJECTS as f64;
    assert!(
        per_object <= 120.0,
        "{per_object:.1} live heap bytes per stored object (115.0 expected)"
    );
    assert_eq!(c.get(ObjectId(OBJECTS - 1)).unwrap(), payload);
}
