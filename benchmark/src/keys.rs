//! Seeded inputs: the key stream and the tagged payload pool.
//!
//! Everything a workload feeds the cluster derives from `--seed`, so the
//! same seed replays the same operations and a different seed a different
//! stream. Nothing here allocates or formats once built: the timed loops
//! only draw `u64`s and clone `Arc`-backed buffers.

use bytes::Bytes;

/// Payload size of every object, bytes.
pub const PAYLOAD_BYTES: usize = 128;
/// Distinct payloads; a tag (`u8`) names one.
pub const POOL_SIZE: usize = 256;

/// SplitMix64: the whole benchmark's only randomness source.
#[derive(Debug, Clone)]
pub struct KeyStream(u64);

impl KeyStream {
    /// Stream for `seed`, decorrelated per `lane` (client thread, probe).
    pub fn new(seed: u64, lane: u64) -> Self {
        KeyStream(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next raw draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Map a raw draw uniformly onto `0..n` (multiply-shift: uses the high
/// bits, leaving the low bits free for the op and tag choice).
#[inline]
pub fn pick(draw: u64, n: u64) -> u64 {
    ((u128::from(draw) * u128::from(n)) >> 64) as u64
}

/// The 256 payloads. Byte 0 is the tag and every other byte follows from
/// it, so a reader that does not know which tag to expect can still tell
/// a pool payload from a torn or foreign one.
pub fn payload_pool() -> Vec<Bytes> {
    (0..POOL_SIZE)
        .map(|tag| {
            let mut buf = vec![0u8; PAYLOAD_BYTES];
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (tag as u8).wrapping_add((i as u8).wrapping_mul(31));
            }
            Bytes::from(buf)
        })
        .collect()
}

/// The tag a payload claims, when the payload is exactly that pool entry.
pub fn tag_of(pool: &[Bytes], data: &[u8]) -> Option<u8> {
    let tag = *data.first()?;
    (pool.get(usize::from(tag))?.as_ref() == data).then_some(tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let draws = |seed, lane| {
            let mut s = KeyStream::new(seed, lane);
            (0..1000).map(|_| s.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7, 0), draws(7, 0));
        assert_ne!(draws(7, 0), draws(8, 0));
        assert_ne!(draws(7, 0), draws(7, 1));
    }

    #[test]
    fn pick_stays_in_range_and_covers_it() {
        let mut s = KeyStream::new(1, 0);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[pick(s.next_u64(), 10) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(pick(u64::MAX, 10), 9);
        assert_eq!(pick(0, 10), 0);
    }

    #[test]
    fn payload_tags_round_trip() {
        let pool = payload_pool();
        assert_eq!(pool.len(), POOL_SIZE);
        for (tag, p) in pool.iter().enumerate() {
            assert_eq!(p.len(), PAYLOAD_BYTES);
            assert_eq!(tag_of(&pool, p), Some(tag as u8));
        }
        let mut torn = pool[3].to_vec();
        torn[100] ^= 1;
        assert_eq!(tag_of(&pool, &torn), None);
        assert_eq!(tag_of(&pool, &[]), None);
        assert_eq!(tag_of(&pool, &pool[3][..64]), None);
    }
}
