//! Pluggable placement engines: the candidate-walk abstraction behind
//! every placement backend.
//!
//! The paper's placement rules (skip inactive servers, exactly one
//! replica on a primary, §III-B's scarce-secondary relaxation) are
//! *adapter* logic: they filter and steer a deterministic per-object
//! stream of candidate servers. Only the stream itself is backend
//! specific. [`PlacementEngine`] captures exactly that stream — a
//! cursor-resumable search over candidates — so the adapter in
//! [`crate::placement`] runs unchanged over four backends:
//!
//! * [`RingEngine`] — the classic weighted hash ring ([`HashRing`]):
//!   candidates are virtual nodes in clockwise order. O(1) lookup via
//!   the successor LUT, but state grows with the vnode count
//!   (`O(Σ weights)` memory).
//! * [`JumpEngine`] — jump consistent hash (Lamping–Veach,
//!   arXiv:1406.2294): the first candidate is `jump(h, n)`
//!   (O(ln n) expected time, **zero** table state); later candidates
//!   re-key the hash.
//! * [`DxEngine`] — DxHash-style pseudo-random sequence
//!   (arXiv:2107.07930): candidates are the hits of a per-key PRS over
//!   a power-of-two cell space, cells `>= n` skipped. O(m/n) = O(1)
//!   expected probes per candidate, zero table state here because
//!   membership filtering lives in the adapter.
//! * [`PowerEngine`] — power-of-two consistent hash: a masked draw
//!   over `m = next_pow2(n)` accepted when `< n`, else re-drawn
//!   (acceptance probability > 1/2, so O(1) expected draws and zero
//!   table state). Growth from `n` to `n+1` only moves keys *into* the
//!   new bucket, the minimal-disruption property.
//!
//! Every engine guarantees **coverage**: every `search` call visits
//! every server at least once before giving up, so the adapter's
//! replication invariants (`r` distinct active servers whenever `r` are
//! active) hold for all backends. The ring re-laps the whole ring per
//! call; the hashed backends treat their stream — a bounded probe phase
//! followed by one deterministic sweep lap over all servers — as
//! *cyclic*, walking exactly one full period from wherever the cursor
//! landed. A candidate one call rejects (say, for a need mismatch) is
//! therefore re-offered to later calls, exactly as on the ring.
//!
//! Engines are pure functions of `(n, oid, cursor)` — no interior state,
//! no clocks, no ambient randomness (analyzer rule D1) — so placements
//! are deterministic across runs and platforms.

use crate::hash::{mix64, object_position};
use crate::ids::{ObjectId, ServerId};
use crate::ring::HashRing;
use std::fmt;

/// Which placement backend a view routes lookups through.
///
/// The ring is the default (and the only *weighted* backend — the
/// hashed engines place uniformly; the equal-work capacity shaping of
/// §III-C is a ring-layout property). All backends uphold the same
/// `Cluster` invariants through the shared adapter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Weighted hash ring with successor LUT (the paper's structure).
    #[default]
    Ring,
    /// Jump consistent hash (Lamping–Veach).
    Jump,
    /// DxHash-style pseudo-random sequence.
    Dx,
    /// Power-of-two consistent hash.
    Power,
}

impl EngineKind {
    /// Every backend, ring first.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Ring,
        EngineKind::Jump,
        EngineKind::Dx,
        EngineKind::Power,
    ];

    /// Stable lowercase name (report and test label).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Ring => "ring",
            EngineKind::Jump => "jump",
            EngineKind::Dx => "dx",
            EngineKind::Power => "power",
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic, cursor-resumable candidate stream per object.
///
/// `search` walks candidates from `cursor`, returning the first server
/// the caller accepts together with the cursor just past it — so the
/// adapter can resume the walk for the next replica exactly where the
/// previous one left off (Algorithm 1's "continue clockwise" rule).
/// Candidates may repeat servers; the adapter's accept closure filters
/// repeats along with inactive and need-mismatched servers. Streams
/// never run dry across calls: each call offers every server at least
/// once (the ring re-laps the ring, the hashed streams are cyclic), so
/// a `None` return means the accept closure rejected every server —
/// not that earlier calls consumed the stream.
pub trait PlacementEngine {
    /// Number of physical servers the engine places over.
    fn server_count(&self) -> usize;

    /// Initial cursor for `oid`'s walk.
    fn start(&self, oid: ObjectId) -> u64;

    /// First accepted candidate at or after `cursor`, plus the advanced
    /// cursor; `None` when the walk is exhausted.
    fn search<F: FnMut(ServerId) -> bool>(
        &self,
        oid: ObjectId,
        cursor: u64,
        accept: F,
    ) -> Option<(ServerId, u64)>;

    /// `search`, but the caller only wants servers in the primary prefix
    /// `0..primaries` — the walk Algorithm 1 lines 11–15 runs when the
    /// last replica still needs a primary.
    ///
    /// The default delegates to the full stream, which is right for the
    /// ring: its equal-work weights concentrate vnode mass on primaries,
    /// so the plain walk reaches one quickly. Uniform hashed streams
    /// don't have that bias — at 10⁴ servers only `p ≈ n/e²` ids qualify,
    /// so all `PROBES` probes miss ~87% of the time each and the coverage
    /// sweep then scans O(n) consecutive ids hunting the prefix. Hashed
    /// engines therefore override this with a draw *over the prefix
    /// itself*: same probes-then-sweep shape, domain `0..primaries`, O(1)
    /// expected and O(primaries) worst case.
    ///
    /// The cursor handed in is whatever the full-stream walk advanced to
    /// — possibly far past the band stream's period. Implementations must
    /// still cover the whole prefix (the hashed engines' band walk is
    /// cyclic, so any cursor value works), and a `None` return means no
    /// acceptable primary exists at all; the caller's relaxed pass then
    /// re-searches the full stream from the same cursor.
    fn search_primaries<F: FnMut(ServerId) -> bool>(
        &self,
        oid: ObjectId,
        cursor: u64,
        _primaries: u32,
        accept: F,
    ) -> Option<(ServerId, u64)> {
        self.search(oid, cursor, accept)
    }
}

// ---------------------------------------------------------------------
// Ring backend
// ---------------------------------------------------------------------

/// The weighted hash ring as a placement engine: candidates are virtual
/// nodes in clockwise order from the object's hash position, and the
/// cursor is a ring position (resuming just past the previously chosen
/// vnode — exactly Algorithm 1's walk).
#[derive(Debug, Clone, Copy)]
pub struct RingEngine<'a> {
    ring: &'a HashRing,
}

impl<'a> RingEngine<'a> {
    /// Wrap an existing ring.
    pub fn new(ring: &'a HashRing) -> Self {
        RingEngine { ring }
    }
}

impl PlacementEngine for RingEngine<'_> {
    fn server_count(&self) -> usize {
        self.ring.server_count()
    }

    fn start(&self, oid: ObjectId) -> u64 {
        object_position(oid)
    }

    fn search<F: FnMut(ServerId) -> bool>(
        &self,
        _oid: ObjectId,
        cursor: u64,
        mut accept: F,
    ) -> Option<(ServerId, u64)> {
        for v in self.ring.walk_from(cursor) {
            if accept(v.server) {
                return Some((v.server, v.position.wrapping_add(1)));
            }
        }
        None
    }
}

// ---------------------------------------------------------------------
// Hashed backends: shared probe-then-sweep scaffold
// ---------------------------------------------------------------------

/// Number of hashed probes before the walk falls back to the coverage
/// sweep. Probes are where the backend's distribution properties live;
/// the sweep only exists so heavily powered-down memberships still find
/// their `r` active servers deterministically.
const PROBES: u64 = 16;

/// Golden-ratio increment for re-keying successive probes.
const REKEY: u64 = 0x9E37_79B9_7F4A_7C15;

/// Salt for the power engine's rejection re-draws.
const POWER_SALT: u64 = 0xD1B5_4A32_D192_ED03;

/// Salt stepping the Dx engine's pseudo-random sequence.
const DX_SALT: u64 = 0x8CB9_2BA7_2F3D_8DD7;

/// The `i`-th probe key for base hash `h` (probe 0 uses `h` itself, so
/// the first candidate is the backend's genuine single-lookup answer).
#[inline]
fn rekey(h: u64, attempt: u64) -> u64 {
    if attempt == 0 {
        h
    } else {
        mix64(h ^ attempt.wrapping_mul(REKEY))
    }
}

/// Shared candidate walk for the hashed engines: a *cyclic* stream of
/// period `PROBES + n` — `PROBES` re-keyed probes, then one
/// deterministic lap over all servers starting at the key's owner.
/// Cursor = number of candidates already offered; each call walks
/// exactly one full period from `cursor % period`, so every server is
/// offered at least once per call no matter how far earlier searches
/// advanced the cursor. That mirrors the ring (which re-laps per
/// `search`) and is what keeps two adapter paths correct: the relaxed
/// `Any` pass after need-mismatch rejections consumed most of a lap,
/// and the forced-primary band walk fed a full-stream cursor far past
/// the band's own period.
///
/// `probe` must return values in `0..servers` — each backend's bucket
/// function already guarantees that, and a defensive `% servers` here
/// would put a ~25-cycle integer divide on the per-lookup critical path.
fn probe_then_sweep<F, P>(
    servers: u32,
    h: u64,
    cursor: u64,
    mut accept: F,
    probe: P,
) -> Option<(ServerId, u64)>
where
    F: FnMut(ServerId) -> bool,
    P: Fn(u64, u64) -> u32,
{
    let n = u64::from(servers);
    let period = PROBES + n;
    for step in 0..period {
        let at = cursor.wrapping_add(step);
        let pos = at % period;
        let idx = if pos < PROBES {
            let b = probe(h, pos);
            debug_assert!(b < servers, "probe out of range: {b} >= {servers}");
            b
        } else {
            ((u64::from(probe(h, 0)) + (pos - PROBES)) % n) as u32
        };
        let s = ServerId(idx);
        if accept(s) {
            return Some((s, at.wrapping_add(1)));
        }
    }
    None
}

/// Lamping–Veach jump consistent hash: `O(ln n)` expected time, no
/// state. Consistent in the textbook sense — growing `buckets` by one
/// moves exactly `1/(buckets+1)` of keys, all into the new bucket.
fn jump_bucket(mut key: u64, buckets: u32) -> u32 {
    let buckets = buckets.max(1);
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < i64::from(buckets) {
        b = j;
        key = key.wrapping_mul(2862933555777941757).wrapping_add(1);
        j = (((b.wrapping_add(1)) as f64) * (f64::from(1u32 << 31) / (((key >> 33) + 1) as f64)))
            as i64;
    }
    // The loop runs at least once (j starts at 0 < buckets), so b >= 0.
    b.max(0) as u32
}

/// Power-of-two consistent hash: draw over `m = next_pow2(buckets)`
/// masked bits; accept when `< buckets`, else re-draw with a stepped
/// salt. Acceptance probability exceeds 1/2 (`m/2 < buckets <= m`), so
/// the expected draw count is below 2 — O(1) with zero table state.
/// Within one power-of-two band, growing `buckets` only moves keys into
/// the new bucket (draws accepted before stay accepted first).
///
/// `key` must *already* be a uniform hash (an `object_position` or
/// `rekey` output): no leading `mix64`, because the mixes sit on a
/// serial dependency chain (mask needs mix needs key), and one
/// avoidable ~4 ns latency link per probe is visible at 10⁷
/// lookups/sec.
#[inline]
fn power_draw(key: u64, buckets: u32) -> u32 {
    let buckets = buckets.max(1);
    let m = u64::from(buckets).next_power_of_two();
    let mask = m - 1;
    // Rejection re-draws consume successive bit windows of the same
    // mixed key before paying another mix: `buckets <= 2^32`, so a
    // 64-bit key holds at least two independent windows, and shifting
    // by 16 yields four for any `m <= 2^16` (all realistic cluster
    // sizes). All-windows-miss probability is < 2^-4, so the expected
    // serial `mix64` count per draw is ~0.03 instead of ~0.5. The
    // minimal-disruption property survives: within one power-of-two
    // band the window values are fixed, so growing `buckets` can only
    // newly accept an earlier window whose value lies in the grown
    // range — i.e. keys move only *into* new buckets.
    let mut draw = key;
    for round in 0..16u64 {
        for shift in 0..4u32 {
            let cand = (draw >> (16 * shift)) & mask;
            if cand < u64::from(buckets) {
                return cand as u32;
            }
        }
        draw = mix64(draw ^ POWER_SALT.wrapping_add(round));
    }
    // 64 window rejections at p < 1/2 each: probability < 2^-64.
    // Deterministic uniform-ish fallback keeps the path total without
    // panicking (D2).
    (mix64(key ^ POWER_SALT) % u64::from(buckets)) as u32
}

/// The `attempt`-th *hit* of the per-key pseudo-random sequence over
/// `slots` cells (cells `>= servers` are empty and skipped) — DxHash's
/// search loop. `slots/servers <= 2`, so each step hits with
/// probability >= 1/2 and the scan is O(attempt) expected.
fn dx_hit(h: u64, attempt: u64, servers: u32, slots: u32) -> u32 {
    let mask = u64::from(slots.max(1)) - 1;
    // `h` is already a uniform hash, so the sequence starts at `h`
    // itself and mixes *between* steps: the common first-hit case then
    // costs zero serial `mix64` latency links (see `power_draw`).
    let mut state = h;
    let mut hits = 0u64;
    // Enough steps to find PROBES hits with overwhelming probability.
    let scan_max = 64 + 4 * PROBES;
    for _ in 0..scan_max {
        let cell = state & mask;
        if cell < u64::from(servers) {
            if hits == attempt {
                return cell as u32;
            }
            hits += 1;
        }
        state = mix64(state ^ DX_SALT);
    }
    // Astronomically unlikely; deterministic fallback (D2: no panic).
    (mix64(h ^ attempt) % u64::from(servers.max(1))) as u32
}

// ---------------------------------------------------------------------
// Hashed backend types
// ---------------------------------------------------------------------

/// Jump consistent hash backend. State is just the server count: the
/// whole lookup structure is arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JumpEngine {
    servers: u32,
}

impl JumpEngine {
    /// Engine over `servers` physical servers (clamped to at least 1).
    pub fn new(servers: usize) -> Self {
        JumpEngine {
            servers: servers.clamp(1, u32::MAX as usize) as u32,
        }
    }
}

impl PlacementEngine for JumpEngine {
    fn server_count(&self) -> usize {
        self.servers as usize
    }

    fn start(&self, _oid: ObjectId) -> u64 {
        0
    }

    fn search<F: FnMut(ServerId) -> bool>(
        &self,
        oid: ObjectId,
        cursor: u64,
        accept: F,
    ) -> Option<(ServerId, u64)> {
        let h = object_position(oid);
        probe_then_sweep(self.servers, h, cursor, accept, |h, i| {
            jump_bucket(rekey(h, i), self.servers)
        })
    }

    fn search_primaries<F: FnMut(ServerId) -> bool>(
        &self,
        oid: ObjectId,
        cursor: u64,
        primaries: u32,
        accept: F,
    ) -> Option<(ServerId, u64)> {
        let band = primaries.clamp(1, self.servers);
        let h = object_position(oid);
        probe_then_sweep(band, h, cursor, accept, |h, i| {
            jump_bucket(rekey(h, i), band)
        })
    }
}

/// DxHash-style backend: candidates are successive hits of a per-key
/// pseudo-random sequence over a power-of-two cell space. The classic
/// DxHash NSArray (cell → server map) degenerates to the identity here
/// because elastic membership is the adapter's job, so the resident
/// state is two integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DxEngine {
    servers: u32,
    /// `next_pow2(servers)` — the PRS cell space.
    slots: u32,
}

impl DxEngine {
    /// Engine over `servers` physical servers (clamped to at least 1).
    pub fn new(servers: usize) -> Self {
        let servers = servers.clamp(1, (u32::MAX >> 1) as usize) as u32;
        DxEngine {
            servers,
            slots: servers.next_power_of_two().max(2),
        }
    }
}

impl PlacementEngine for DxEngine {
    fn server_count(&self) -> usize {
        self.servers as usize
    }

    fn start(&self, _oid: ObjectId) -> u64 {
        0
    }

    fn search<F: FnMut(ServerId) -> bool>(
        &self,
        oid: ObjectId,
        cursor: u64,
        accept: F,
    ) -> Option<(ServerId, u64)> {
        let h = object_position(oid);
        probe_then_sweep(self.servers, h, cursor, accept, |h, i| {
            dx_hit(h, i, self.servers, self.slots)
        })
    }

    fn search_primaries<F: FnMut(ServerId) -> bool>(
        &self,
        oid: ObjectId,
        cursor: u64,
        primaries: u32,
        accept: F,
    ) -> Option<(ServerId, u64)> {
        let band = primaries.clamp(1, self.servers);
        let slots = band.next_power_of_two().max(2);
        let h = object_position(oid);
        probe_then_sweep(band, h, cursor, accept, |h, i| dx_hit(h, i, band, slots))
    }
}

/// Power-of-two consistent hash backend: masked draw plus rejection
/// re-draws, O(1) expected, zero table state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerEngine {
    servers: u32,
}

impl PowerEngine {
    /// Engine over `servers` physical servers (clamped to at least 1).
    pub fn new(servers: usize) -> Self {
        PowerEngine {
            servers: servers.clamp(1, u32::MAX as usize) as u32,
        }
    }
}

impl PlacementEngine for PowerEngine {
    fn server_count(&self) -> usize {
        self.servers as usize
    }

    fn start(&self, _oid: ObjectId) -> u64 {
        0
    }

    fn search<F: FnMut(ServerId) -> bool>(
        &self,
        oid: ObjectId,
        cursor: u64,
        accept: F,
    ) -> Option<(ServerId, u64)> {
        let h = object_position(oid);
        // `rekey` output (and `h` itself at probe 0) is already mixed,
        // as `power_draw` requires.
        probe_then_sweep(self.servers, h, cursor, accept, |h, i| {
            power_draw(rekey(h, i), self.servers)
        })
    }

    fn search_primaries<F: FnMut(ServerId) -> bool>(
        &self,
        oid: ObjectId,
        cursor: u64,
        primaries: u32,
        accept: F,
    ) -> Option<(ServerId, u64)> {
        let band = primaries.clamp(1, self.servers);
        let h = object_position(oid);
        probe_then_sweep(band, h, cursor, accept, |h, i| {
            power_draw(rekey(h, i), band)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_all<E: PlacementEngine>(engine: &E, oid: ObjectId) -> Vec<ServerId> {
        let mut out = Vec::new();
        let mut cursor = engine.start(oid);
        loop {
            let mut chosen = None;
            let found = engine.search(oid, cursor, |s| {
                if out.contains(&s) {
                    false
                } else {
                    chosen = Some(s);
                    true
                }
            });
            match found {
                Some((s, next)) => {
                    out.push(s);
                    cursor = next;
                }
                None => return out,
            }
        }
    }

    #[test]
    fn jump_bucket_matches_reference_properties() {
        // In range, deterministic, and single-bucket degenerate case.
        for n in [1u32, 2, 3, 10, 1000] {
            for k in 0..200u64 {
                let b = jump_bucket(k, n);
                assert!(b < n, "jump({k}, {n}) = {b}");
                assert_eq!(b, jump_bucket(k, n));
            }
        }
        for k in 0..50u64 {
            assert_eq!(jump_bucket(k, 1), 0);
        }
    }

    #[test]
    fn jump_is_monotone_minimal_disruption() {
        // Growing n by one moves keys only into the new bucket.
        let keys = 20_000u64;
        for n in [9u32, 99] {
            let mut moved = 0u64;
            for k in 0..keys {
                let a = jump_bucket(k, n);
                let b = jump_bucket(k, n + 1);
                if a != b {
                    assert_eq!(b, n, "moved key must land in the new bucket");
                    moved += 1;
                }
            }
            let frac = moved as f64 / keys as f64;
            let expect = 1.0 / f64::from(n + 1);
            assert!(
                (frac - expect).abs() < expect * 0.5,
                "n={n}: moved {frac:.4}, expected ~{expect:.4}"
            );
        }
    }

    #[test]
    fn power_bucket_is_uniform_enough_and_monotone() {
        let keys = 120_000u64;
        for n in [3u32, 10, 100, 1000] {
            let mut counts = vec![0u64; n as usize];
            for k in 0..keys {
                let b = power_draw(mix64(k), n);
                assert!(b < n);
                counts[b as usize] += 1;
            }
            let mean = keys as f64 / f64::from(n);
            for (i, &c) in counts.iter().enumerate() {
                assert!(
                    (c as f64) > mean * 0.5 && (c as f64) < mean * 1.6,
                    "n={n} bucket {i}: {c} vs mean {mean:.1}"
                );
            }
        }
        // Monotone within a power-of-two band: n -> n+1 moves keys only
        // into bucket n.
        for n in [9u32, 12] {
            for k in 0..20_000u64 {
                let a = power_draw(mix64(k), n);
                let b = power_draw(mix64(k), n + 1);
                if a != b {
                    assert_eq!(b, n, "key {k} moved to {b}, not the new bucket");
                }
            }
        }
    }

    #[test]
    fn hashed_engines_cover_all_servers() {
        for n in [1usize, 2, 5, 17, 64] {
            let jump = JumpEngine::new(n);
            let dx = DxEngine::new(n);
            let power = PowerEngine::new(n);
            for k in [0u64, 7, 12345] {
                let oid = ObjectId(k);
                for servers in [
                    collect_all(&jump, oid),
                    collect_all(&dx, oid),
                    collect_all(&power, oid),
                ] {
                    assert_eq!(servers.len(), n, "n={n} oid={k}");
                    let mut idx: Vec<usize> = servers.iter().map(|s| s.index()).collect();
                    idx.sort_unstable();
                    assert_eq!(idx, (0..n).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn primary_prefix_search_covers_exactly_the_prefix() {
        // The prefix-restricted walk must offer every server in `0..p`
        // (and nothing else), deterministically — it is the coverage
        // guarantee behind the last-replica primary hunt.
        let n = 50usize;
        let p = 7u32;
        fn collect_band<E: PlacementEngine>(engine: &E, oid: ObjectId, band: u32) -> Vec<ServerId> {
            let mut out: Vec<ServerId> = Vec::new();
            let mut cursor = 0u64;
            loop {
                match engine.search_primaries(oid, cursor, band, |s| !out.contains(&s)) {
                    Some((s, next)) => {
                        out.push(s);
                        cursor = next;
                    }
                    None => return out,
                }
            }
        }
        for k in [0u64, 7, 12345] {
            let oid = ObjectId(k);
            let jump = JumpEngine::new(n);
            let dx = DxEngine::new(n);
            let power = PowerEngine::new(n);
            let walks: Vec<Vec<ServerId>> = vec![
                collect_band(&jump, oid, p),
                collect_band(&dx, oid, p),
                collect_band(&power, oid, p),
            ];
            for servers in walks {
                assert_eq!(servers.len(), p as usize, "oid={k}");
                let mut idx: Vec<usize> = servers.iter().map(|s| s.index()).collect();
                idx.sort_unstable();
                assert_eq!(idx, (0..p as usize).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn search_relaps_after_consuming_the_stream() {
        // Regression: candidates rejected by one call must be re-offered
        // by later calls. A call that accepts only the *last* server of
        // the distinct walk advances the cursor near the stream period;
        // a follow-up call from there hunting the *first* server used to
        // hit the old non-wrapping end and return None — turning a
        // placeable put into PlacementError::Internal.
        fn check<E: PlacementEngine>(engine: &E, oid: ObjectId) {
            let order = collect_all(engine, oid);
            let (first, last) = (order[0], *order.last().unwrap());
            let (got, cursor) = engine
                .search(oid, engine.start(oid), |s| s == last)
                .expect("last server reachable");
            assert_eq!(got, last);
            let (got, _) = engine
                .search(oid, cursor, |s| s == first)
                .expect("stream must wrap: earlier candidates re-offered");
            assert_eq!(got, first);
        }
        for n in [2usize, 5, 17, 64] {
            for k in [0u64, 7, 12345] {
                let oid = ObjectId(k);
                check(&JumpEngine::new(n), oid);
                check(&DxEngine::new(n), oid);
                check(&PowerEngine::new(n), oid);
            }
        }
    }

    #[test]
    fn primary_band_is_covered_from_any_cursor() {
        // Regression: the forced-primary pass hands search_primaries the
        // *full-stream* cursor, which under heavy power-down sits far
        // past the band stream's own period. The band walk must still
        // offer every primary (the old walk ended at PROBES + band and
        // returned None immediately, letting the relaxed pass place a
        // secondary and break the exactly-one-primary invariant).
        let n = 64usize;
        let p = 5u32;
        fn check<E: PlacementEngine>(engine: &E, oid: ObjectId, band: u32, start: u64) {
            let mut out: Vec<ServerId> = Vec::new();
            let mut cursor = start;
            while let Some((s, next)) =
                engine.search_primaries(oid, cursor, band, |s| !out.contains(&s))
            {
                out.push(s);
                cursor = next;
            }
            let mut idx: Vec<usize> = out.iter().map(|s| s.index()).collect();
            idx.sort_unstable();
            assert_eq!(
                idx,
                (0..band as usize).collect::<Vec<_>>(),
                "band not covered from cursor {start}"
            );
        }
        for start in [0u64, 7, PROBES + u64::from(p), PROBES + n as u64, 10_000] {
            for k in [0u64, 7, 12345] {
                let oid = ObjectId(k);
                check(&JumpEngine::new(n), oid, p, start);
                check(&DxEngine::new(n), oid, p, start);
                check(&PowerEngine::new(n), oid, p, start);
            }
        }
    }

    #[test]
    fn ring_engine_matches_distinct_walk_order() {
        let ring = HashRing::build(&[64u32; 8]);
        let engine = RingEngine::new(&ring);
        for k in 0..200u64 {
            let oid = ObjectId(k);
            let via_engine = collect_all(&engine, oid);
            let via_walk: Vec<ServerId> =
                ring.distinct_servers_from(object_position(oid)).collect();
            assert_eq!(via_engine, via_walk, "oid {k}");
        }
    }

    #[test]
    fn searches_are_deterministic_and_cursor_resumable() {
        let engines: Vec<Box<dyn Fn(ObjectId) -> Vec<ServerId>>> = vec![
            Box::new(|oid| collect_all(&JumpEngine::new(23), oid)),
            Box::new(|oid| collect_all(&DxEngine::new(23), oid)),
            Box::new(|oid| collect_all(&PowerEngine::new(23), oid)),
        ];
        for f in &engines {
            for k in 0..50u64 {
                assert_eq!(f(ObjectId(k)), f(ObjectId(k)));
            }
        }
    }

    #[test]
    fn first_candidates_spread_uniformly() {
        // The owner (first candidate) distribution of each hashed engine
        // should be near-uniform over the servers.
        let n = 50usize;
        let keys = 50_000u64;
        for kind in [EngineKind::Jump, EngineKind::Dx, EngineKind::Power] {
            let mut counts = vec![0u64; n];
            for k in 0..keys {
                let oid = ObjectId(k);
                let first = match kind {
                    EngineKind::Jump => {
                        let e = JumpEngine::new(n);
                        e.search(oid, e.start(oid), |_| true).unwrap().0
                    }
                    EngineKind::Dx => {
                        let e = DxEngine::new(n);
                        e.search(oid, e.start(oid), |_| true).unwrap().0
                    }
                    EngineKind::Power => {
                        let e = PowerEngine::new(n);
                        e.search(oid, e.start(oid), |_| true).unwrap().0
                    }
                    EngineKind::Ring => unreachable!(),
                };
                counts[first.index()] += 1;
            }
            let mean = keys as f64 / n as f64;
            for (i, &c) in counts.iter().enumerate() {
                assert!(
                    (c as f64) > mean * 0.6 && (c as f64) < mean * 1.5,
                    "{kind}: server {i} owns {c} keys vs mean {mean:.0}"
                );
            }
        }
    }
}
