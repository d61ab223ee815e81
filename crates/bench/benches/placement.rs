//! Placement cost: original consistent hashing vs Algorithm 1.
//!
//! The elastic placement adds role checks and possible skips to the ring
//! walk; this bench quantifies that overhead (the paper treats it as
//! negligible — here is the evidence).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ech_core::ids::ObjectId;
use ech_core::layout::Layout;
use ech_core::membership::MembershipTable;
use ech_core::placement::{place_original, place_primary};
use std::hint::black_box;

fn placement(c: &mut Criterion) {
    let mut g = c.benchmark_group("placement");
    g.throughput(Throughput::Elements(1));
    for &n in &[10usize, 100] {
        for &r in &[2usize, 3] {
            let uniform = Layout::uniform(n, n as u32 * 100);
            let uring = uniform.build_ring();
            let equal = Layout::equal_work(n, n as u32 * 100);
            let ering = equal.build_ring();
            let full = MembershipTable::full_power(n);

            g.bench_with_input(BenchmarkId::new(format!("original_r{r}"), n), &n, |b, _| {
                let mut k = 0u64;
                b.iter(|| {
                    k = k.wrapping_add(1);
                    black_box(place_original(&uring, &full, ObjectId(k), r).unwrap())
                });
            });
            g.bench_with_input(BenchmarkId::new(format!("primary_r{r}"), n), &n, |b, _| {
                let mut k = 0u64;
                b.iter(|| {
                    k = k.wrapping_add(1);
                    black_box(place_primary(&ering, &equal, &full, ObjectId(k), r).unwrap())
                });
            });
            // Partial power exercises the skip paths (offloading).
            let partial = MembershipTable::active_prefix(n, (n / 2).max(r));
            g.bench_with_input(
                BenchmarkId::new(format!("primary_offload_r{r}"), n),
                &n,
                |b, _| {
                    let mut k = 0u64;
                    b.iter(|| {
                        k = k.wrapping_add(1);
                        black_box(place_primary(&ering, &equal, &partial, ObjectId(k), r).unwrap())
                    });
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, placement);
criterion_main!(benches);
