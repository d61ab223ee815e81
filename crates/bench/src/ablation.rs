//! Ablations of the design choices DESIGN.md §5 names.

use crate::row;
use ech_core::dirty::{DirtyEntry, DirtyTable, HeaderMap, InMemoryDirtyTable, NoHeaders};
use ech_core::ids::{ObjectId, VersionId};
use ech_core::layout::{primary_count, Layout};
use ech_core::membership::MembershipTable;
use ech_core::placement::{place_primary, Strategy};
use ech_core::reintegration::Reintegrator;
use ech_core::stats::{divergence_from_expected, imbalance, replica_distribution};
use ech_core::view::ClusterView;
use ech_sim::{ClusterSim, ElasticityMode, SimConfig};
use ech_workload::three_phase::Workload;

/// Virtual-node fairness base `B` vs distribution quality. §III-C: `B`
/// must be "large enough for data distribution fairness"; the worked
/// example uses 1000. Measures how per-rank replica counts diverge from
/// the analytic equal-work expectation as `B` shrinks.
pub(crate) fn vnode_fairness(out: &mut String) {
    let oids: Vec<ObjectId> = (0..50_000).map(ObjectId).collect();

    row(out, &["B", "divergence", "imbalance", "primary%"]);
    for &base in &[100u32, 500, 1_000, 5_000, 10_000, 40_000, 100_000] {
        let layout = Layout::equal_work(10, base);
        let expected = layout.expected_fractions();
        let view = ClusterView::new(layout, Strategy::Primary, 2);
        let d = replica_distribution(&view, &oids, VersionId(1));
        // The primary constraint puts one replica per object on ranks 1-2;
        // compare only the first-copy-like spread via total counts against
        // the weight-derived expectation.
        let div = divergence_from_expected(&d, &expected);
        let imb = imbalance(&d);
        let primary_share = (d[0] + d[1]) as f64 / d.iter().sum::<u64>() as f64;
        row(
            out,
            &[
                base.to_string(),
                format!("{div:.4}"),
                format!("{imb:.3}"),
                format!("{:.1}", primary_share * 100.0),
            ],
        );
    }
}

/// Run the 3-phase experiment at a selective rate of `rate_mbps` and
/// report (drain time after size-up, mean phase-3 throughput).
fn drain_at_rate(rate_mbps: f64) -> (f64, f64) {
    let mut cfg = SimConfig::paper_testbed(ElasticityMode::PrimarySelective);
    cfg.selective_rate = rate_mbps * 1e6;
    let n = cfg.servers;
    let mut sim = ClusterSim::new(cfg);
    sim.start_workload(&Workload::three_phase_figure(120.0));

    let mut phase2_end = None;
    let mut drain_done = None;
    let mut tp_sum = 0.0;
    let mut tp_n = 0usize;
    while sim.time() < 2_000.0 {
        let ev = sim.step();
        if let Some(p) = ev.phase_ended {
            match p {
                0 => {
                    sim.set_target(n - 4);
                }
                1 => {
                    sim.set_target(n);
                    phase2_end = Some(sim.time());
                }
                _ => {}
            }
        }
        if let Some(t0) = phase2_end {
            let s = sim.sample();
            if s.phase == 3 {
                tp_sum += s.client_throughput;
                tp_n += 1;
            }
            if sim.dirty_len() == 0 && drain_done.is_none() {
                drain_done = Some(sim.time() - t0);
            }
            if ev.workload_done && drain_done.is_some() {
                break;
            }
        }
    }
    (
        drain_done.unwrap_or(f64::INFINITY),
        tp_sum / tp_n.max(1) as f64,
    )
}

/// Selective-migration rate limit vs recovery latency and client
/// throughput: §III-E motivates limiting the migration rate, and a
/// higher limit drains the dirty backlog sooner but competes with
/// client I/O while it runs.
pub(crate) fn rate_limit(out: &mut String) {
    row(out, &["rate(MB/s)", "drain(s)", "ph3 MB/s"]);
    for &rate in &[5.0f64, 10.0, 20.0, 40.0, 80.0, 160.0] {
        let (drain, tp) = drain_at_rate(rate);
        row(
            out,
            &[
                format!("{rate:.0}"),
                if drain.is_finite() {
                    format!("{drain:.0}")
                } else {
                    "never".to_owned()
                },
                format!("{:.1}", tp / 1e6),
            ],
        );
    }
}

/// Number of primaries `p` vs minimum power state and write capacity.
/// The paper fixes `p = ceil(n/e²)`; the explicit-p layout sweeps it:
/// smaller `p` lowers the power floor but tightens the write bottleneck
/// (every object writes exactly one replica into the primary set).
pub(crate) fn primary_count_sweep(out: &mut String) {
    let n = 10usize;
    let base = 40_000u32;
    let objects = 40_000u64;

    outln!(
        out,
        "paper's choice for n={n}: p = ceil(n/e^2) = {}",
        primary_count(n)
    );
    outln!(out);
    row(out, &["p", "floor(W)%", "prim-write%", "prim/srv%"]);
    let membership = MembershipTable::full_power(n);
    for p in 1..=5usize {
        let layout = Layout::equal_work_with_primaries(n, base, p);
        let ring = layout.build_ring();
        let mut on_primary = 0u64;
        let mut total = 0u64;
        for k in 0..objects {
            let placement = place_primary(&ring, &layout, &membership, ObjectId(k), 2)
                .expect("full power places");
            total += placement.len() as u64;
            on_primary += placement.primary_replicas(&layout).count() as u64;
        }
        row(
            out,
            &[
                p.to_string(),
                format!("{:.0}", 100.0 * p as f64 / n as f64),
                format!("{:.1}", 100.0 * on_primary as f64 / total as f64),
                format!("{:.1}", 100.0 * on_primary as f64 / total as f64 / p as f64),
            ],
        );
    }
}

/// Build a rewrite-heavy history: `objects` objects written at v2 and
/// rewritten at v3 (both scaled down), then full power at v4. Returns
/// (view, dirty, headers).
fn rewrite_history(objects: u64) -> (ClusterView, InMemoryDirtyTable, HeaderMap) {
    let mut view = ClusterView::new(Layout::equal_work(10, 10_000), Strategy::Primary, 2);
    let mut dirty = InMemoryDirtyTable::new();
    let mut headers = HeaderMap::new();
    view.resize(5); // v2
    let v2 = view.current_version();
    for k in 0..objects {
        dirty.push_back(DirtyEntry::new(ObjectId(k), v2));
        headers.record_write(ObjectId(k), v2, true);
    }
    view.resize(6); // v3: every object rewritten
    let v3 = view.current_version();
    for k in 0..objects {
        dirty.push_back(DirtyEntry::new(ObjectId(k), v3));
        headers.record_write(ObjectId(k), v3, true);
    }
    view.resize(10); // v4: full power
    (view, dirty, headers)
}

/// Object-header version tracking vs redundant migrations. The dirty
/// table may hold several entries for one object (rewrites at different
/// versions); tracking the latest version in the object header
/// (§III-E2) lets Algorithm 2 skip moves a rewrite superseded. Counts
/// the replica moves it plans with and without headers.
pub(crate) fn header_tracking(out: &mut String) {
    row(out, &["objects", "with hdrs", "without", "saved%"]);
    for &objects in &[1_000u64, 5_000, 20_000] {
        // With headers: entries for the v2 write plan from the v3 (latest)
        // placement, so each object moves at most once.
        let (view, mut dirty, headers) = rewrite_history(objects);
        let with: usize = Reintegrator::new()
            .drain(&view, &mut dirty, &headers)
            .iter()
            .map(|t| t.moves.len())
            .sum();

        // Without headers: the v2 entry re-plans from the stale v2
        // placement — moves that were already superseded by the rewrite.
        let (view, mut dirty, _) = rewrite_history(objects);
        let without: usize = Reintegrator::new()
            .drain(&view, &mut dirty, &NoHeaders)
            .iter()
            .map(|t| t.moves.len())
            .sum();

        row(
            out,
            &[
                objects.to_string(),
                with.to_string(),
                without.to_string(),
                format!(
                    "{:.1}",
                    100.0 * (without.saturating_sub(with)) as f64 / without.max(1) as f64
                ),
            ],
        );
    }
}
