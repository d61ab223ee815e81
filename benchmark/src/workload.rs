//! The five workloads and the machinery that drives them against a live
//! `ech_cluster::Cluster`: seeded closed-loop clients, the elastic cycle,
//! and the correctness oracle that rides along with both.

use crate::keys::{payload_pool, pick, tag_of, KeyStream, PAYLOAD_BYTES};
use crate::trace::{SpanId, SpanKind, Tracer, NO_PARENT};
use bytes::Bytes;
use ech_cluster::{Cluster, ClusterConfig, ReintegrationStats};
use ech_core::ids::ObjectId;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Which operations a client loop issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 100 % `Cluster::get`, keys uniform.
    Get,
    /// 100 % `Cluster::put` overwrites, keys uniform.
    Put,
    /// Put or get by a bit of the key stream, keys uniform.
    Half,
    /// Strictly alternating put/get; the puts walk the key range in order
    /// so that `ops / 2` of them dirty exactly `ops / 2` distinct objects,
    /// the gets are uniform.
    Sweep,
}

/// One workload's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// Objects preloaded; the key stream draws from `0..keys`.
    pub keys: u64,
    /// Client threads wanted (capped at the machine's parallelism).
    pub clients: usize,
    /// Operation mix of the timed loop.
    pub mix: Mix,
    /// Operations per client per repetition.
    pub ops: u64,
    /// Each repetition is a whole elastic cycle around the client loop.
    pub cycle: bool,
}

/// Sizes are relative to the program's own cache, the 65,536-entry
/// placement cache of `ClusterConfig::paper()`.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "get_fit",
        why: "reads over half the placement cache: the cache-hit path, header read and node get do the work, engine and Algorithm 1 idle",
        keys: 32_768,
        clients: 1,
        mix: Mix::Get,
        ops: 300_000,
        cycle: false,
    },
    Spec {
        name: "get_spill",
        why: "reads over 4x the placement cache: most lookups miss and FIFO-evict, so engine, Algorithm 1 and cache insert dominate; must not move get_fit",
        keys: 262_144,
        clients: 1,
        mix: Mix::Get,
        ops: 150_000,
        cycle: false,
    },
    Spec {
        name: "put_full",
        why: "overwrites at full power bypass the cache: uncached placement, two node writes and one header HSET, dirty log idle",
        keys: 131_072,
        clients: 1,
        mix: Mix::Put,
        ops: 150_000,
        cycle: false,
    },
    Spec {
        name: "mixed_2c",
        why: "two clients, half puts half gets: the same layers contended on the header hash, node locks and cache shards; a concurrency fix shows only here",
        keys: 65_536,
        clients: 2,
        mix: Mix::Half,
        ops: 112_500,
        cycle: false,
    },
    Spec {
        name: "elastic_cycle",
        why: "the paper's scenario: size down to 5, mixed traffic offloaded and dirty-logged, size up, selective reintegration to an empty dirty table",
        keys: 131_072,
        clients: 1,
        mix: Mix::Half,
        ops: 60_000,
        cycle: true,
    },
];

/// Servers left active while degraded (of the paper config's 10).
pub const DEGRADED_ACTIVE: usize = 5;
/// Key range of a closing cycle: small enough for every workload's
/// preloaded set, and swept whole so its dirty set is the same objects at
/// every seed.
pub const CLOSING_KEYS: u64 = 16_384;
/// Operations of a closing cycle: one put per key, one get per put.
pub const CLOSING_OPS: u64 = 2 * CLOSING_KEYS;
/// Keys whose placement is inspected after every size-down.
const PRIMARY_SAMPLES: u64 = 4_096;
/// An untraced loop times every 8th get and every 8th put (counted per
/// kind, so a strictly alternating mix still samples both).
const SAMPLE_EVERY: u64 = 8;

/// What one client loop (all clients merged) did.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Gets issued.
    pub gets: u64,
    /// Puts issued.
    pub puts: u64,
    /// Operations that returned `Err` or the wrong payload.
    pub failed: u64,
    /// Objects written for the first time in this cycle.
    pub distinct_puts: u64,
    /// Sampled (untraced) or complete (traced) get latencies, ns.
    pub get_ns: Vec<u32>,
    /// Same for puts.
    pub put_ns: Vec<u32>,
    /// First client start to last client end, seconds.
    pub wall_s: f64,
}

impl PhaseOut {
    /// Client operations per second of wall time.
    pub fn ops_s(&self) -> f64 {
        (self.gets + self.puts) as f64 / self.wall_s
    }
}

/// The cluster's own public counters: a snapshot, or — from
/// [`Counters::since`] — their movement across one client loop.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Placement-cache hits.
    pub hits: u64,
    /// Placement-cache misses.
    pub misses: u64,
    /// Placement-cache shard locks found busy.
    pub contention: u64,
    /// Node-store reads, all nodes.
    pub reads: u64,
    /// Node-store writes, all nodes.
    pub writes: u64,
    /// Retries spent by the data path.
    pub retries: u64,
    /// Dirty-table length; as movement, the entries pushed (nothing pops
    /// during a client loop).
    pub pushes: u64,
}

impl Counters {
    fn since(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            contention: self.contention - before.contention,
            reads: self.reads - before.reads,
            writes: self.writes - before.writes,
            retries: self.retries - before.retries,
            pushes: self.pushes.saturating_sub(before.pushes),
        }
    }
}

/// The elastic part of a cycle.
#[derive(Debug, Default, Clone, Copy)]
pub struct CycleOut {
    /// `resize(5)`, µs.
    pub down_us: f64,
    /// `resize(10)`, µs.
    pub up_us: f64,
    /// Size-up to empty dirty table, seconds.
    pub drain_s: f64,
    /// Of which `heal_dirty` (traced cycles only).
    pub heal_s: f64,
    /// Of which `reintegrate_batch` calls (traced cycles only).
    pub reintegrate_s: f64,
    /// Dirty-table length at size-up.
    pub dirty_entries: u64,
    /// `migrated_bytes()` moved by the drain.
    pub migrated: u64,
    /// What the drain reported.
    pub reintegration: ReintegrationStats,
    /// Σ `bytes_stored()` over user bytes while degraded.
    pub degraded_stored_ratio: f64,
    /// Same, after the drain.
    pub stored_ratio: f64,
}

/// One repetition's results.
#[derive(Debug)]
pub struct RepOut {
    /// The client loop.
    pub phase: PhaseOut,
    /// Counter movement across it.
    pub delta: Counters,
    /// The elastic part, when the repetition was a cycle.
    pub cycle: Option<CycleOut>,
    /// Self time of the harness around the operations (traced only), ns.
    pub harness_self_ns: u64,
}

/// A cluster loaded for one workload, plus the oracle's view of it.
pub struct Bench {
    /// The cluster under test.
    pub cluster: Arc<Cluster>,
    spec: Spec,
    clients: usize,
    seed: u64,
    pool: Vec<Bytes>,
    /// Tag last written to each key.
    expected: Vec<u8>,
    /// Cycle that last wrote each key.
    stamp: Vec<u32>,
    cycle_id: u32,
    lane: u64,
    epoch: Instant,
    /// One span buffer per client; empty when the run is untraced.
    pub tracers: Vec<Tracer>,
    /// Client operations issued plus oracle checks evaluated.
    pub attempted: u64,
    /// Failed operations plus violated checks.
    pub failed: u64,
}

/// Hardware threads available to this process.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

impl Bench {
    /// Set up: build the paper cluster, preload every key, run one
    /// warm-up pass of the workload's own mix. With `traced`, also
    /// preallocate the span buffers.
    pub fn setup(spec: Spec, seed: u64, traced: bool) -> Bench {
        let clients = spec.clients.min(parallelism()).max(1);
        let epoch = Instant::now();
        let tracers = if traced {
            // A traced repetition clears the buffer; at most one closing
            // cycle follows before the next one does.
            let capacity = (spec.ops + 2 * CLOSING_OPS) as usize + 65_536;
            (0..clients).map(|_| Tracer::new(epoch, capacity)).collect()
        } else {
            Vec::new()
        };
        let mut bench = Bench {
            cluster: Cluster::new(ClusterConfig::paper()),
            spec,
            clients,
            seed,
            pool: payload_pool(),
            expected: vec![0; spec.keys as usize],
            stamp: vec![0; spec.keys as usize],
            cycle_id: 0,
            lane: 0,
            epoch,
            tracers,
            attempted: 0,
            failed: 0,
        };
        bench.preload();
        bench.phase(
            clients,
            spec.keys / clients as u64,
            spec.mix,
            spec.keys,
            None,
        );
        bench
    }

    fn preload(&mut self) {
        let mut stream = KeyStream::new(self.seed, u64::MAX);
        for key in 0..self.spec.keys {
            let tag = stream.next_u64() as u8;
            self.attempted += 1;
            match self
                .cluster
                .put(ObjectId(key), self.pool[usize::from(tag)].clone())
            {
                Ok(_) => self.expected[key as usize] = tag,
                Err(_) => self.failed += 1,
            }
        }
    }

    /// Client threads this workload runs.
    pub fn clients(&self) -> usize {
        self.clients
    }

    fn user_bytes(&self) -> u64 {
        self.spec.keys * PAYLOAD_BYTES as u64
    }

    fn stored_bytes(&self) -> u64 {
        self.cluster.nodes().iter().map(|n| n.bytes_stored()).sum()
    }

    fn counters(&self) -> Counters {
        let cache = self.cluster.cache_stats();
        let (reads, writes) = self
            .cluster
            .nodes()
            .iter()
            .map(|n| n.op_counts())
            .fold((0, 0), |(r, w), (nr, nw)| (r + nr, w + nw));
        Counters {
            hits: cache.hits,
            misses: cache.misses,
            contention: cache.shard_contention,
            reads,
            writes,
            retries: self.cluster.counters().retries,
            pushes: self.cluster.dirty_len() as u64,
        }
    }

    /// `n` oracle checks of which `bad` were violated: they count as
    /// attempted and failed like client operations do (reason on stderr).
    fn check_many(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            eprintln!("oracle: {what} ({bad} of {n})");
        }
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.check_many(1, u64::from(!ok), what);
    }

    /// Run `ops` operations on each of `clients` closed-loop client
    /// threads over keys `0..keys`. Each client writes only its own
    /// contiguous share of the keys and reads everywhere; it checks the
    /// exact tag on keys it owns and that the payload is an intact pool
    /// entry on the rest. `traced` names the parent span.
    fn phase(
        &mut self,
        clients: usize,
        ops: u64,
        mix: Mix,
        keys: u64,
        traced: Option<SpanId>,
    ) -> PhaseOut {
        self.lane += 1;
        let share = keys.div_ceil(clients as u64) as usize;
        let barrier = Barrier::new(clients);
        let (cluster, pool, epoch) = (&*self.cluster, &self.pool[..], self.epoch);
        let (seed, lane, cycle_id) = (self.seed, self.lane, self.cycle_id);
        let mut tracers = self.tracers.iter_mut();
        let shares = self.expected[..keys as usize]
            .chunks_mut(share)
            .zip(self.stamp[..keys as usize].chunks_mut(share));
        let outs: Vec<ClientOut> = std::thread::scope(|s| {
            let handles: Vec<_> = shares
                .enumerate()
                .map(|(c, (expected, stamp))| {
                    let tracer = traced.and_then(|parent| {
                        let parent = if c == 0 { parent } else { NO_PARENT };
                        tracers.next().map(|t| (t, parent))
                    });
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut client = Client {
                            cluster,
                            pool,
                            keys,
                            own_start: (c * share) as u64,
                            expected,
                            stamp,
                            cycle_id,
                            stream: KeyStream::new(seed, lane * 16 + c as u64),
                            epoch,
                        };
                        let capacity = if tracer.is_some() {
                            ops
                        } else {
                            ops / SAMPLE_EVERY + 1
                        } as usize;
                        let mut out = ClientOut {
                            get_ns: Vec::with_capacity(capacity),
                            put_ns: Vec::with_capacity(capacity),
                            ..ClientOut::default()
                        };
                        barrier.wait();
                        client.run(ops, mix, tracer, &mut out);
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut merged = PhaseOut::default();
        let start = outs.iter().map(|o| o.start_ns).min().unwrap_or(0);
        let end = outs.iter().map(|o| o.end_ns).max().unwrap_or(0);
        merged.wall_s = (end - start) as f64 / 1e9;
        for mut o in outs {
            merged.gets += o.gets;
            merged.puts += o.puts;
            merged.failed += o.failed;
            merged.distinct_puts += o.distinct_puts;
            merged.get_ns.append(&mut o.get_ns);
            merged.put_ns.append(&mut o.put_ns);
        }
        self.attempted += merged.gets + merged.puts;
        self.failed += merged.failed;
        merged
    }

    /// One repetition of the workload's timed section.
    pub fn rep(&mut self, traced: bool) -> RepOut {
        let spec = self.spec;
        if traced {
            for t in &mut self.tracers {
                t.clear();
            }
        }
        let rep_span = traced.then(|| self.tracers[0].open(SpanKind::Rep, NO_PARENT));
        let out = if spec.cycle {
            self.cycle(spec.ops, spec.mix, spec.keys, rep_span)
        } else {
            let before = self.counters();
            let phase = self.phase(self.clients, spec.ops, spec.mix, spec.keys, rep_span);
            let delta = self.counters().since(before);
            RepOut {
                phase,
                delta,
                cycle: None,
                harness_self_ns: 0,
            }
        };
        self.close_rep(rep_span, out)
    }

    /// One closing cycle: every workload whose repetitions are not cycles
    /// now and then sizes down, dirties each of the first [`CLOSING_KEYS`]
    /// objects exactly once, sizes up and drains — the paper's contract
    /// has to hold after any traffic, and this is where such a workload
    /// gets its reintegration figures and the latency of the operation
    /// its own loop never issues.
    pub fn closing_cycle(&mut self, traced: bool) -> RepOut {
        let rep_span = traced.then(|| self.tracers[0].open(SpanKind::Rep, NO_PARENT));
        let out = self.cycle(CLOSING_OPS, Mix::Sweep, CLOSING_KEYS, rep_span);
        self.close_rep(rep_span, out)
    }

    fn close_rep(&mut self, rep_span: Option<SpanId>, mut out: RepOut) -> RepOut {
        if let Some(span) = rep_span {
            self.tracers[0].close(span);
            out.harness_self_ns = self
                .tracers
                .iter()
                .map(|t| crate::trace::self_time_of(t.spans(), SpanKind::Phase))
                .sum();
        }
        out
    }

    /// The paper's scenario around one single-client loop: size down,
    /// run the loop degraded, size up, reintegrate to an empty dirty
    /// table — with the oracle's checks at every step.
    fn cycle(&mut self, ops: u64, mix: Mix, keys: u64, rep_span: Option<SpanId>) -> RepOut {
        self.cycle_id += 1;
        let full = self.cluster.config().servers;
        let replicas = self.cluster.config().replicas as u64;
        let mut out = CycleOut::default();

        let stored_before = self.stored_bytes();
        let migrated_before = self.cluster.migrated_bytes();
        out.down_us = self.timed(SpanKind::ResizeDown, rep_span, |c| {
            c.resize(DEGRADED_ACTIVE);
        }) * 1e6;
        // No cleanup on size-down: nothing moved, nothing was dropped.
        let unchanged = self.stored_bytes() == stored_before
            && self.cluster.migrated_bytes() == migrated_before;
        self.check(unchanged, "size-down moved or dropped bytes");
        self.check_primaries(keys);

        let before = self.counters();
        let phase = self.phase(1, ops, mix, keys, rep_span);
        let delta = self.counters().since(before);
        out.dirty_entries = self.cluster.dirty_len() as u64;
        out.degraded_stored_ratio = self.stored_bytes() as f64 / self.user_bytes() as f64;

        out.up_us = self.timed(SpanKind::ResizeUp, rep_span, |c| {
            c.resize(full);
        }) * 1e6;
        let migrated_before = self.cluster.migrated_bytes();
        let t = Instant::now();
        match rep_span {
            Some(parent) => self.drain_traced(parent, &mut out),
            None => {
                // A pass can end early only on message faults, which the
                // paper config has switched off; the bound keeps a broken
                // drain from hanging the run.
                for _ in 0..16 {
                    out.reintegration.absorb(self.cluster.reintegrate_all());
                    if self.cluster.dirty_len() == 0 {
                        break;
                    }
                }
            }
        }
        out.drain_s = t.elapsed().as_secs_f64();
        out.migrated = self.cluster.migrated_bytes() - migrated_before;
        out.stored_ratio = self.stored_bytes() as f64 / self.user_bytes() as f64;

        self.check(
            self.cluster.dirty_len() == 0,
            "dirty table not empty after the drain",
        );
        self.check(
            self.stored_bytes() == replicas * self.user_bytes(),
            "bytes stored per user byte did not return to the replica count",
        );
        // Only objects written while degraded had anything to reintegrate;
        // the final oracle sweeps the rest.
        let misplaced = (0..keys)
            .filter(|&k| self.stamp[k as usize] == self.cycle_id)
            .filter(|&k| !self.cluster.is_fully_placed(ObjectId(k)))
            .count() as u64;
        self.check_many(
            phase.distinct_puts,
            misplaced,
            "objects written while degraded are not fully placed after the drain",
        );
        RepOut {
            phase,
            delta,
            cycle: Some(out),
            harness_self_ns: 0,
        }
    }

    /// Time one call into the cluster; as a span too when traced.
    fn timed(&mut self, kind: SpanKind, parent: Option<SpanId>, f: impl FnOnce(&Cluster)) -> f64 {
        let cluster = &*self.cluster;
        let t = Instant::now();
        match parent {
            Some(p) => self.tracers[0].time(kind, p, || f(cluster)),
            None => f(cluster),
        }
        t.elapsed().as_secs_f64()
    }

    /// `reintegrate_all`'s own body, with a span around each call so the
    /// drain splits into healing and batched migration.
    fn drain_traced(&mut self, parent: SpanId, out: &mut CycleOut) {
        let cluster = &*self.cluster;
        let tracer = &mut self.tracers[0];
        let batch = cluster.config().reintegration_batch.max(1);
        let drain = tracer.open(SpanKind::Drain, parent);
        for _ in 0..16 {
            let t = Instant::now();
            tracer.time(SpanKind::Heal, drain, || cluster.heal_dirty());
            out.heal_s += t.elapsed().as_secs_f64();
            loop {
                let t = Instant::now();
                let step = tracer.time(SpanKind::ReintegrateBatch, drain, || {
                    cluster.reintegrate_batch(batch)
                });
                out.reintegrate_s += t.elapsed().as_secs_f64();
                match step {
                    Ok(s) => {
                        out.reintegration.absorb(s);
                        if s.moves == 0 && s.failed_moves > 0 {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            if cluster.dirty_len() == 0 {
                break;
            }
        }
        tracer.close(drain);
    }

    /// After a size-down, exactly one replica of every sampled key's
    /// placement sits on a primary server.
    fn check_primaries(&mut self, keys: u64) {
        let view = self.cluster.view_snapshot();
        let mut stream = KeyStream::new(self.seed, u64::MAX - u64::from(self.cycle_id));
        let mut bad = 0u64;
        for _ in 0..PRIMARY_SAMPLES {
            let oid = ObjectId(pick(stream.next_u64(), keys));
            let one_primary = self
                .cluster
                .locate(oid)
                .is_ok_and(|p| p.primary_replicas(view.layout()).count() == 1);
            bad += u64::from(!one_primary);
        }
        self.check_many(
            PRIMARY_SAMPLES,
            bad,
            "sampled placements without exactly one primary replica",
        );
    }

    /// The last word of the oracle: every key reads back the tag last
    /// written to it, and the cluster is fully placed at two copies each.
    pub fn final_oracle(&mut self) {
        let mut wrong = 0u64;
        for key in 0..self.spec.keys {
            let want = &self.pool[usize::from(self.expected[key as usize])];
            let ok = self
                .cluster
                .get(ObjectId(key))
                .is_ok_and(|data| data.as_ref() == want.as_ref());
            wrong += u64::from(!ok);
        }
        self.check_many(
            self.spec.keys,
            wrong,
            "keys that did not read back the tag last written to them",
        );
        let replicas = self.cluster.config().replicas as u64;
        self.check(
            self.stored_bytes() == replicas * self.user_bytes(),
            "bytes stored per user byte is not the replica count at the end",
        );
        self.check(
            self.cluster.under_replicated() == 0,
            "objects under-replicated at the end",
        );
    }
}

#[derive(Debug, Default)]
struct ClientOut {
    gets: u64,
    puts: u64,
    failed: u64,
    distinct_puts: u64,
    get_ns: Vec<u32>,
    put_ns: Vec<u32>,
    start_ns: u64,
    end_ns: u64,
}

struct Client<'a> {
    cluster: &'a Cluster,
    pool: &'a [Bytes],
    keys: u64,
    own_start: u64,
    expected: &'a mut [u8],
    stamp: &'a mut [u32],
    cycle_id: u32,
    stream: KeyStream,
    epoch: Instant,
}

impl Client<'_> {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The closed loop. Untraced, every 8th operation is timed; traced,
    /// every operation is, and becomes a span with its own operation id.
    fn run(
        &mut self,
        ops: u64,
        mix: Mix,
        mut tracer: Option<(&mut Tracer, SpanId)>,
        out: &mut ClientOut,
    ) {
        let own_len = self.expected.len() as u64;
        let phase_span = tracer
            .as_mut()
            .map(|(t, parent)| t.open(SpanKind::Phase, *parent));
        out.start_ns = self.now_ns();
        for i in 0..ops {
            let draw = self.stream.next_u64();
            let is_put = match mix {
                Mix::Get => false,
                Mix::Put => true,
                Mix::Half => draw & 1 == 1,
                Mix::Sweep => i & 1 == 0,
            };
            let nth_of_kind = if is_put { out.puts } else { out.gets };
            let timed = tracer.is_some() || nth_of_kind % SAMPLE_EVERY == 0;
            let (kind, t0, t1);
            if is_put {
                let slot = match mix {
                    Mix::Sweep => (i / 2) % own_len,
                    _ => pick(draw, own_len),
                } as usize;
                let tag = (draw >> 8) as u8;
                let data = self.pool[usize::from(tag)].clone();
                let oid = ObjectId(self.own_start + slot as u64);
                t0 = if timed { self.now_ns() } else { 0 };
                let result = self.cluster.put(oid, data);
                t1 = if timed { self.now_ns() } else { 0 };
                kind = SpanKind::Put;
                out.puts += 1;
                match result {
                    Ok(_) => {
                        self.expected[slot] = tag;
                        if self.stamp[slot] != self.cycle_id {
                            self.stamp[slot] = self.cycle_id;
                            out.distinct_puts += 1;
                        }
                    }
                    Err(_) => out.failed += 1,
                }
                if timed {
                    out.put_ns.push((t1 - t0) as u32);
                }
            } else {
                let key = pick(draw, self.keys);
                t0 = if timed { self.now_ns() } else { 0 };
                let result = self.cluster.get(ObjectId(key));
                t1 = if timed { self.now_ns() } else { 0 };
                kind = SpanKind::Get;
                out.gets += 1;
                let ok = result.is_ok_and(|data| {
                    match key.checked_sub(self.own_start).filter(|&s| s < own_len) {
                        Some(slot) => {
                            let want = &self.pool[usize::from(self.expected[slot as usize])];
                            data.as_ref() == want.as_ref()
                        }
                        None => tag_of(self.pool, &data).is_some(),
                    }
                });
                out.failed += u64::from(!ok);
                if timed {
                    out.get_ns.push((t1 - t0) as u32);
                }
            }
            if let (Some((t, _)), Some(parent)) = (tracer.as_mut(), phase_span) {
                let op = t.next_op();
                t.record(kind, parent, op, t0, t1);
            }
        }
        out.end_ns = self.now_ns();
        if let (Some((t, _)), Some(span)) = (tracer.as_mut(), phase_span) {
            t.close(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(clients: usize, cycle: bool) -> Spec {
        Spec {
            name: "tiny",
            why: "unit test",
            keys: 4_096,
            clients,
            mix: Mix::Half,
            ops: 8_192,
            cycle,
        }
    }

    /// Everything a cycle counts, nothing it times.
    fn counts(seed: u64) -> (u64, u64, u64, [u64; 6], u64, u64, ReintegrationStats) {
        let mut bench = Bench::setup(tiny(1, true), seed, false);
        let rep = bench.rep(false);
        assert_eq!(bench.failed, 0);
        let c = rep.cycle.expect("a cycle");
        let d = rep.delta;
        (
            rep.phase.gets,
            rep.phase.puts,
            rep.phase.distinct_puts,
            [d.hits, d.misses, d.reads, d.writes, d.retries, d.pushes],
            c.dirty_entries,
            c.migrated,
            c.reintegration,
        )
    }

    #[test]
    fn same_seed_gives_identical_counts_and_another_seed_does_not() {
        let a = counts(11);
        assert_eq!(a, counts(11));
        assert_ne!(a, counts(12));
        // Every degraded put is logged, and what the drain reports moved
        // is what the cluster's own counter says.
        assert_eq!(a.3[5], a.1);
        assert_eq!(a.4, a.1);
        assert_eq!(a.5, a.6.bytes);
    }

    #[test]
    fn oracle_catches_a_write_it_did_not_make() {
        let mut bench = Bench::setup(tiny(1, false), 3, false);
        bench.final_oracle();
        assert_eq!(bench.failed, 0);
        let foreign = usize::from(bench.expected[5].wrapping_add(1));
        bench
            .cluster
            .put(ObjectId(5), bench.pool[foreign].clone())
            .unwrap();
        bench.final_oracle();
        assert_eq!(bench.failed, 1);
    }

    #[test]
    fn two_clients_own_disjoint_halves() {
        let mut bench = Bench::setup(tiny(2, false), 5, false);
        let rep = bench.rep(false);
        let clients = bench.clients() as u64;
        assert_eq!(rep.phase.gets + rep.phase.puts, clients * 8_192);
        assert_eq!(rep.delta.writes, 2 * rep.phase.puts);
        bench.final_oracle();
        assert_eq!(bench.failed, 0);
    }

    #[test]
    fn traced_cycle_draws_the_span_tree() {
        let mut bench = Bench::setup(tiny(1, true), 7, true);
        let rep = bench.rep(true);
        let spans = bench.tracers[0].spans();
        let of = |kind| spans.iter().filter(|s| s.kind == kind).count() as u64;
        assert_eq!(of(SpanKind::Rep), 1);
        assert_eq!(of(SpanKind::Phase), 1);
        assert_eq!(of(SpanKind::Get), rep.phase.gets);
        assert_eq!(of(SpanKind::Put), rep.phase.puts);
        assert_eq!(of(SpanKind::ResizeDown) + of(SpanKind::ResizeUp), 2);
        assert_eq!(of(SpanKind::Drain), 1);
        assert!(of(SpanKind::Heal) >= 1 && of(SpanKind::ReintegrateBatch) >= 1);
        // Operations hang off the phase, the phase off the repetition.
        let phase = spans
            .iter()
            .position(|s| s.kind == SpanKind::Phase)
            .unwrap();
        assert_eq!(spans[phase].parent, 0);
        assert!(spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Get | SpanKind::Put))
            .all(|s| s.parent as usize == phase && s.op > 0));
        let c = rep.cycle.unwrap();
        assert!(c.heal_s + c.reintegrate_s <= c.drain_s);
        assert!(rep.harness_self_ns > 0);
        assert_eq!(bench.tracers[0].dropped(), 0);
    }
}
