//! Extensions beyond the paper: its stated future work, its related
//! work, and the rest of the five-trace family.

use crate::row;
use ech_sim::controller::{
    evaluate, MovingAverageController, ReactiveController, ResizeController, SizerConfig,
    TrendController,
};
use ech_sim::des::{read_latency_under_reintegration, DesConfig, MigrationLoad};
use ech_traces::{analyze, simulate, synth, PolicyKind, PolicyParams};

/// Resize-policy controllers (the paper's future work: "a resizing
/// policy based on workload profiling and prediction"): reactive,
/// moving-average and trend-predictive sizing on the CC-a load profile
/// under a 3-bin boot delay, scored on machine-hours vs the fraction of
/// bins where serving capacity fell below the offered load.
pub(crate) fn resize_controllers(out: &mut String) {
    let trace = synth::cc_a();
    let params = PolicyParams::for_trace(&trace);
    let cfg = SizerConfig {
        per_server_rate: params.per_server_rate,
        min: params.primary_floor(),
        max: params.max_servers,
        headroom: 0.15,
    };
    let boot_bins = 3;

    let mut controllers: Vec<Box<dyn ResizeController>> = vec![
        Box::new(ReactiveController::new(cfg, 1, 1)),
        Box::new(ReactiveController::new(cfg, 5, 3)),
        Box::new(MovingAverageController::new(cfg, 10, 5, 3)),
        Box::new(TrendController::new(cfg, 10, boot_bins + 2)),
    ];

    row(
        out,
        &["controller", "mach-hours", "vs ideal", "viol%", "resizes"],
    );
    for c in controllers.iter_mut() {
        let e = evaluate(c.as_mut(), &trace.load, cfg, boot_bins);
        row(
            out,
            &[
                e.name.clone(),
                format!("{:.0}", e.machine_hours),
                format!("{:.2}x", e.relative_machine_hours()),
                format!("{:.2}", 100.0 * e.violation_fraction),
                e.resizes.to_string(),
            ],
        );
    }
}

/// GreenCHT tier granularity (§VI related work: "our elastic consistent
/// hashing is able to achieve finer granularity of resizing with one
/// server as the smallest resizing unit"): the CC-a analysis with
/// GreenCHT at several tier counts against one-server primary+selective.
pub(crate) fn greencht_comparison(out: &mut String) {
    let trace = synth::cc_a();
    let base = PolicyParams::for_trace(&trace);
    let ideal = simulate(&trace, &base, PolicyKind::Ideal).machine_hours;

    row(out, &["scheme", "unit(srv)", "mach-hours", "vs ideal"]);
    let sel = simulate(&trace, &base, PolicyKind::PrimarySelective);
    row(
        out,
        &[
            "primary+selective".to_owned(),
            "1".to_owned(),
            format!("{:.0}", sel.machine_hours),
            format!("{:.2}x", sel.machine_hours / ideal),
        ],
    );
    for tiers in [10usize, 8, 4, 2] {
        let mut p = base;
        p.greencht_tiers = tiers;
        let unit = p.max_servers.div_ceil(tiers);
        let r = simulate(&trace, &p, PolicyKind::GreenCht);
        row(
            out,
            &[
                format!("GreenCHT {tiers} tiers"),
                unit.to_string(),
                format!("{:.0}", r.machine_hours),
                format!("{:.2}x", r.machine_hours / ideal),
            ],
        );
    }
}

/// Per-request read-latency tails during re-integration: the request
/// queue model (`ech_sim::des`) gives the latency side of Figures 3/7's
/// throughput, with no migration, rate-limited selective migration and
/// un-throttled migration.
pub(crate) fn des_tail_latency(out: &mut String) {
    let limited = |mb: f64| MigrationLoad::RateLimited {
        bytes_per_sec: mb * 1e6,
    };
    let cases = [
        ("no migration", MigrationLoad::None),
        ("selective 20 MB/s", limited(20.0)),
        ("selective 40 MB/s", limited(40.0)),
        ("selective 80 MB/s", limited(80.0)),
        ("unthrottled (orig.)", MigrationLoad::Unthrottled),
    ];

    row(out, &["case", "p50(ms)", "p90(ms)", "p99(ms)", "max(ms)"]);
    for (label, migration) in cases {
        let s = read_latency_under_reintegration(
            DesConfig::paper(),
            6,
            4_000,
            2_000,
            40.0,
            120.0,
            migration,
        );
        row(
            out,
            &[
                label.to_owned(),
                format!("{:.1}", s.p50 * 1e3),
                format!("{:.1}", s.p90 * 1e3),
                format!("{:.1}", s.p99 * 1e3),
                format!("{:.1}", s.max * 1e3),
            ],
        );
    }
}

/// The full five-trace family (§V-B: "there are totally 5 of these
/// traces but we do not have enough page space to show all of them"):
/// the Table II analysis over CC-a/b (calibrated to the paper) and
/// CC-c/d/e (siblings spanning spiky to steady).
pub(crate) fn all_traces(out: &mut String) {
    row(
        out,
        &[
            "trace",
            "machines",
            "origCH",
            "prim+full",
            "prim+sel",
            "sel-save%",
        ],
    );
    for trace in synth::all_traces() {
        let a = analyze(&trace, &PolicyParams::for_trace(&trace));
        row(
            out,
            &[
                trace.spec.name.clone(),
                trace.spec.machines.to_string(),
                format!("{:.2}", a.relative_machine_hours(PolicyKind::OriginalCh)),
                format!("{:.2}", a.relative_machine_hours(PolicyKind::PrimaryFull)),
                format!(
                    "{:.2}",
                    a.relative_machine_hours(PolicyKind::PrimarySelective)
                ),
                format!(
                    "{:.1}",
                    100.0 * a.savings_vs_original(PolicyKind::PrimarySelective)
                ),
            ],
        );
    }
}
