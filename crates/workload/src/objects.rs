//! Object streams: turning byte flows into object writes.
//!
//! Sheepdog splits a virtual disk into fixed-size data objects (4 MB in
//! the paper's deployment). Both the live cluster and the simulator need
//! to convert "X bytes written" into a sequence of object IDs — either a
//! fresh allocation (sequential writes to new files, phase 1) or rewrites
//! of existing objects (phase 3's 20 % writes over the same files).

use ech_core::ids::ObjectId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Allocates monotonically increasing object IDs.
#[derive(Debug, Clone)]
pub struct ObjectAllocator {
    next: u64,
}

impl ObjectAllocator {
    /// Start allocating from `first`.
    pub fn new(first: u64) -> Self {
        ObjectAllocator { next: first }
    }

    /// Allocate one object id.
    pub fn alloc(&mut self) -> ObjectId {
        let oid = ObjectId(self.next);
        self.next += 1;
        oid
    }

    /// The id the next allocation will return.
    pub fn peek(&self) -> ObjectId {
        ObjectId(self.next)
    }
}

/// Picks existing objects to rewrite or read, uniformly at random but
/// deterministically per seed.
#[derive(Debug)]
pub struct UniformPicker {
    rng: StdRng,
}

impl UniformPicker {
    /// Deterministic picker.
    pub fn new(seed: u64) -> Self {
        UniformPicker {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Pick one object uniformly from `population` (ids `lo..hi`).
    ///
    /// # Panics
    /// Panics on an empty range.
    pub fn pick(&mut self, lo: u64, hi: u64) -> ObjectId {
        assert!(hi > lo, "empty object range");
        ObjectId(self.rng.random_range(lo..hi))
    }
}

/// Zipf-distributed object picker: rank-`k` object drawn with probability
/// proportional to `1/k^s`. MapReduce and VM-image workloads are heavily
/// skewed toward hot objects; the latency model uses this to stress the
/// high-ranked (data-heavy) servers of the equal-work layout.
#[derive(Debug)]
pub struct ZipfPicker {
    rng: StdRng,
    /// Cumulative probability table over ranks.
    cdf: Vec<f64>,
}

impl ZipfPicker {
    /// Picker over `population` objects with exponent `s` (s = 0 is
    /// uniform; s ≈ 1 is classic web-like skew).
    ///
    /// # Panics
    /// Panics when `population == 0` or `s < 0`.
    pub fn new(population: usize, s: f64, seed: u64) -> Self {
        assert!(population > 0, "empty population");
        assert!(s >= 0.0, "negative Zipf exponent");
        let mut cdf = Vec::with_capacity(population);
        let mut acc = 0.0f64;
        for k in 1..=population {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfPicker {
            rng: StdRng::seed_from_u64(seed),
            cdf,
        }
    }

    /// Draw one object id in `0..population` (rank order: id 0 is the
    /// hottest).
    pub fn pick(&mut self) -> ObjectId {
        let u: f64 = self.rng.random();
        let idx = self.cdf.partition_point(|&c| c < u);
        ObjectId(idx.min(self.cdf.len() - 1) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_is_sequential() {
        let mut a = ObjectAllocator::new(100);
        assert_eq!(a.alloc(), ObjectId(100));
        assert_eq!(a.alloc(), ObjectId(101));
        assert_eq!(a.peek(), ObjectId(102));
    }

    #[test]
    fn picker_is_deterministic_and_in_range() {
        let mut p1 = UniformPicker::new(9);
        let mut p2 = UniformPicker::new(9);
        for _ in 0..100 {
            let a = p1.pick(10, 50);
            let b = p2.pick(10, 50);
            assert_eq!(a, b);
            assert!(a.0 >= 10 && a.0 < 50);
        }
    }

    #[test]
    #[should_panic(expected = "empty object range")]
    fn empty_range_panics() {
        UniformPicker::new(0).pick(5, 5);
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut z = ZipfPicker::new(1_000, 1.0, 5);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..50_000 {
            counts[z.pick().raw() as usize] += 1;
        }
        // Rank 0 should be drawn far more than rank 100.
        assert!(counts[0] > 5 * counts[100].max(1));
        // Top 10 ranks carry a large share under s = 1.
        let top10: u32 = counts[..10].iter().sum();
        assert!(top10 as f64 > 0.25 * 50_000.0);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let mut z = ZipfPicker::new(100, 0.0, 9);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[z.pick().raw() as usize] += 1;
        }
        let mean = 1_000.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - mean).abs() < mean * 0.25,
                "bin {i}: {c} vs mean {mean}"
            );
        }
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let mut a = ZipfPicker::new(500, 0.8, 3);
        let mut b = ZipfPicker::new(500, 0.8, 3);
        for _ in 0..100 {
            assert_eq!(a.pick(), b.pick());
        }
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn zipf_empty_population_panics() {
        ZipfPicker::new(0, 1.0, 0);
    }
}
