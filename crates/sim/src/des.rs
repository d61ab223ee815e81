//! Request-level discrete-event latency model.
//!
//! The fluid simulator ([`crate::cluster_sim`]) reproduces the paper's
//! *throughput* curves; this module answers the question the paper leaves
//! implicit: what does re-integration traffic do to **per-request
//! latency**? Each storage server is modelled as a FIFO disk queue;
//! client requests and migration transfers compete for the same queues,
//! so an un-throttled migration inflates the read tail exactly the way
//! §II-C describes qualitatively ("consumed substantial IO bandwidth").
//!
//! The model is intentionally simple — deterministic service times
//! (object_size / disk_bw), jittered arrivals, least-loaded replica
//! choice for reads — but it runs the *real* placement and the *real*
//! re-integration plan from `ech-core`, so migration traffic lands on
//! exactly the servers Algorithm 2 would touch.

use ech_core::dirty::{DirtyEntry, DirtyTable, InMemoryDirtyTable, NoHeaders};
use ech_core::ids::ObjectId;
use ech_core::layout::Layout;
use ech_core::placement::Strategy;
use ech_core::reintegration::Reintegrator;
use ech_core::view::ClusterView;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a latency run.
#[derive(Debug, Clone, Copy)]
pub struct DesConfig {
    /// Cluster size.
    pub servers: usize,
    /// Replication factor.
    pub replicas: usize,
    /// Per-server disk bandwidth, bytes/s.
    pub disk_bw: f64,
    /// Object size, bytes (also the request size).
    pub object_size: u64,
    /// Virtual-node base for the equal-work layout.
    pub layout_base: u32,
    /// RNG seed for arrival jitter and object choice.
    pub seed: u64,
}

impl DesConfig {
    /// The paper-testbed shape.
    pub fn paper() -> Self {
        DesConfig {
            servers: 10,
            replicas: 2,
            disk_bw: 60.0e6,
            object_size: 4 * 1024 * 1024,
            layout_base: 10_000,
            seed: 7,
        }
    }
}

/// Latency distribution summary (seconds).
#[derive(Debug, Clone, Copy)]
pub struct LatencyStats {
    /// Number of completed requests.
    pub count: usize,
    /// Mean latency.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observed.
    pub max: f64,
}

impl LatencyStats {
    fn from_samples(mut samples: Vec<f64>) -> LatencyStats {
        assert!(!samples.is_empty(), "no requests completed");
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let pick = |p: f64| samples[((samples.len() - 1) as f64 * p) as usize];
        LatencyStats {
            count: samples.len(),
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
            max: *samples.last().expect("nonempty"),
        }
    }
}

/// How migration traffic is injected during the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MigrationLoad {
    /// No background traffic (the post-re-integration steady state).
    None,
    /// Selective re-integration throttled to `bytes_per_sec` of payload.
    RateLimited {
        /// Payload rate limit, bytes/s.
        bytes_per_sec: f64,
    },
    /// Un-throttled: every planned move is issued back-to-back as fast as
    /// the source/destination queues accept it (original-CH behaviour).
    Unthrottled,
}

/// Run an open-loop read workload against a cluster that has just
/// resized from `down_to` back to full power, with `dirty_objects`
/// offloaded writes to re-integrate, and measure read latency.
///
/// * `read_rate` — client read arrivals per second (each `object_size`).
/// * `duration` — simulated seconds.
pub fn read_latency_under_reintegration(
    cfg: DesConfig,
    down_to: usize,
    preload_objects: u64,
    dirty_objects: u64,
    read_rate: f64,
    duration: f64,
    migration: MigrationLoad,
) -> LatencyStats {
    assert!(read_rate > 0.0 && duration > 0.0);
    let mut view = ClusterView::new(
        Layout::equal_work(cfg.servers, cfg.layout_base),
        Strategy::Primary,
        cfg.replicas,
    );
    // History: full power -> scaled down (dirty writes) -> full power.
    view.resize(down_to);
    let write_version = view.current_version();
    let mut dirty = InMemoryDirtyTable::new();
    for k in preload_objects..preload_objects + dirty_objects {
        dirty.push_back(DirtyEntry::new(ObjectId(k), write_version));
    }
    view.resize(cfg.servers);

    // Plan the real migration.
    let mut engine = Reintegrator::new();
    let tasks = engine.drain(&view, &mut dirty, &NoHeaders);

    let service = cfg.object_size as f64 / cfg.disk_bw;
    let mut free_at = vec![0.0f64; cfg.servers];
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Build the merged job stream: migration transfers at their issue
    // times (back-to-back when unthrottled, spaced by object/rate when
    // limited) and client reads at jittered arrival times. Jobs are then
    // processed in arrival order against FIFO per-server queues, so the
    // two streams interleave the way real disk queues would.
    enum Job {
        Read { t: f64, oid: ObjectId },
        Move { t: f64, from: usize, to: usize },
    }
    let mut jobs: Vec<Job> = Vec::new();

    if migration != MigrationLoad::None {
        let mut issue_t = 0.0f64;
        for task in &tasks {
            for m in &task.moves {
                jobs.push(Job::Move {
                    t: issue_t,
                    from: m.from.index(),
                    to: m.to.index(),
                });
                if let MigrationLoad::RateLimited { bytes_per_sec } = migration {
                    issue_t += cfg.object_size as f64 / bytes_per_sec;
                }
            }
        }
    }

    let population = preload_objects + dirty_objects;
    let mean_gap = 1.0 / read_rate;
    let mut t = 0.0f64;
    loop {
        t += rng.random_range(0.2 * mean_gap..1.8 * mean_gap);
        if t >= duration {
            break;
        }
        let oid = ObjectId(rng.random_range(0..population));
        jobs.push(Job::Read { t, oid });
    }

    jobs.sort_by(|a, b| {
        let ta = match a {
            Job::Read { t, .. } | Job::Move { t, .. } => *t,
        };
        let tb = match b {
            Job::Read { t, .. } | Job::Move { t, .. } => *t,
        };
        ta.partial_cmp(&tb).expect("finite times")
    });

    let mut latencies = Vec::new();
    for job in jobs {
        match job {
            Job::Move { t, from, to } => {
                let start_src = free_at[from].max(t);
                let done_src = start_src + service;
                free_at[from] = done_src;
                let start_dst = free_at[to].max(done_src);
                free_at[to] = start_dst + service;
            }
            Job::Read { t, oid } => {
                let placement = view.place_current(oid).expect("full power places");
                let server = placement
                    .servers()
                    .iter()
                    .copied()
                    .min_by(|a, b| {
                        free_at[a.index()]
                            .partial_cmp(&free_at[b.index()])
                            .expect("finite")
                    })
                    .expect("nonempty placement");
                let start = free_at[server.index()].max(t);
                let done = start + service;
                free_at[server.index()] = done;
                latencies.push(done - t);
            }
        }
    }
    LatencyStats::from_samples(latencies)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(migration: MigrationLoad) -> LatencyStats {
        read_latency_under_reintegration(
            DesConfig::paper(),
            6,
            4_000,
            2_000,
            40.0, // 40 reads/s of 4 MB = 160 MB/s offered
            60.0,
            migration,
        )
    }

    #[test]
    fn baseline_latency_is_near_service_time() {
        let s = run(MigrationLoad::None);
        let service = 4.0 * 1024.0 * 1024.0 / 60.0e6;
        assert!(s.p50 >= service, "p50 below service time");
        assert!(
            s.p50 < service * 4.0,
            "uncontended median should be a few service times, got {}",
            s.p50
        );
    }

    #[test]
    fn unthrottled_migration_inflates_the_tail() {
        let none = run(MigrationLoad::None);
        let full = run(MigrationLoad::Unthrottled);
        assert!(
            full.p99 > 3.0 * none.p99,
            "unthrottled p99 {:.3}s should dwarf baseline {:.3}s",
            full.p99,
            none.p99
        );
    }

    #[test]
    fn rate_limited_migration_keeps_the_tail_close_to_baseline() {
        let none = run(MigrationLoad::None);
        let limited = run(MigrationLoad::RateLimited {
            bytes_per_sec: 40.0e6,
        });
        let full = run(MigrationLoad::Unthrottled);
        assert!(
            limited.p99 < full.p99,
            "rate limiting must beat unthrottled: {:.3} vs {:.3}",
            limited.p99,
            full.p99
        );
        assert!(
            limited.p99 < 3.0 * none.p99,
            "rate-limited p99 {:.3}s should stay near baseline {:.3}s",
            limited.p99,
            none.p99
        );
    }

    #[test]
    fn stats_are_ordered() {
        let s = run(MigrationLoad::Unthrottled);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        assert!(s.mean > 0.0 && s.count > 1_000);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(MigrationLoad::RateLimited {
            bytes_per_sec: 40.0e6,
        });
        let b = run(MigrationLoad::RateLimited {
            bytes_per_sec: 40.0e6,
        });
        assert_eq!(a.p99, b.p99);
        assert_eq!(a.count, b.count);
    }
}
