//! Extensions beyond the paper: its stated future work, its related
//! work, and the rest of the five-trace family.

use crate::row;
use ech_core::writebalance::{relayout_fraction, WriteBalancer};
use ech_sim::closed_loop::run_closed_loop;
use ech_sim::controller::{
    evaluate, MovingAverageController, ReactiveController, ResizeController, SizerConfig,
    TrendController,
};
use ech_sim::des::{read_latency_under_reintegration, DesConfig, MigrationLoad};
use ech_sim::{ElasticityMode, SimConfig};
use ech_traces::{analyze, simulate, synth, PolicyKind, PolicyParams};
use ech_workload::series::generate;

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

/// Dynamic primary count (SpringFS-style write balancing; §I notes that
/// "the small number of primary servers limits the write performance"):
/// the static trade of write ceiling vs power floor vs re-layout cost
/// per `p`, then the [`WriteBalancer`] over a bursty write profile.
pub(crate) fn dynamic_primaries(out: &mut String) {
    let n = 10usize;
    let base = 10_000u32;

    outln!(
        out,
        "static trade (n = {n}, r = 2, 30 MB/s primary write rate):"
    );
    row(out, &["p", "write-ceil", "floor", "relayout%"]);
    for p in [2usize, 3, 4, 5] {
        // Ceiling: primary tier absorbs 1/r of client writes.
        let ceiling_mbps = p as f64 * 30.0 * 2.0;
        row(
            out,
            &[
                p.to_string(),
                format!("{ceiling_mbps:.0} MB/s"),
                format!("{p} srv"),
                format!("{:.1}", 100.0 * relayout_fraction(n, base, 2, p)),
            ],
        );
    }

    outln!(out);
    outln!(out, "dynamic run over a bursty write profile (60 s bins):");
    let writes = generate::bursty(240, 60.0, 60.0e6, 0.05, 5.0, 0.6, 0.05, 21);
    let mut balancer = WriteBalancer::new(n, 2, 30.0e6, 15);
    let mut changes = 0usize;
    let mut relayout_total = 0.0f64;
    let mut p_hours = 0.0f64;
    let mut prev_p = balancer.current();
    for &w in &writes.load {
        if let Some(new_p) = balancer.observe(w) {
            changes += 1;
            relayout_total += relayout_fraction(n, base, prev_p, new_p);
            prev_p = new_p;
        }
        p_hours += balancer.current() as f64 / 60.0;
    }
    outln!(out, "  p changes: {changes}");
    outln!(
        out,
        "  cumulative re-layout bill: {:.1}% of the keyspace",
        100.0 * relayout_total
    );
    outln!(
        out,
        "  mean power floor: {:.2} servers (static p=5 would pin 5.00)",
        p_hours / (writes.load.len() as f64 / 60.0)
    );
}

/// The closed loop: controller + elastic mechanisms + fluid cluster end
/// to end. A bursty offered-load series drives the paper-testbed cluster
/// in Primary+selective mode under four controllers: power saved,
/// demand delivered, and the data selective re-integration moved.
pub(crate) fn closed_loop(out: &mut String) {
    // 40 minutes of bursty load at 10 s bins against the 10-node testbed.
    let series = generate::bursty(240, 10.0, 60.0e6, 0.04, 4.0, 0.75, 0.05, 33);
    let sizer = SizerConfig {
        per_server_rate: 40.0e6,
        min: 2,
        max: 10,
        headroom: 0.25,
    };

    let mut controllers: Vec<Box<dyn ResizeController>> = vec![
        Box::new(ReactiveController::new(sizer, 1, 1)),
        Box::new(ReactiveController::new(sizer, 4, 2)),
        Box::new(MovingAverageController::new(sizer, 6, 4, 2)),
        Box::new(TrendController::new(sizer, 6, 4)),
    ];

    let full_power_ms = 10.0 * series.duration_seconds();
    row(
        out,
        &[
            "controller",
            "mach-sec",
            "saved%",
            "delivery%",
            "migrated MB",
            "peak dirty",
        ],
    );
    for ctl in controllers.iter_mut() {
        let run = run_closed_loop(
            SimConfig::paper_testbed(ElasticityMode::PrimarySelective),
            &series,
            0.3,
            ctl.as_mut(),
        );
        row(
            out,
            &[
                run.controller.clone(),
                format!("{:.0}", run.machine_seconds),
                format!("{:.1}", 100.0 * (1.0 - run.machine_seconds / full_power_ms)),
                format!("{:.1}", 100.0 * run.delivery_ratio()),
                format!("{:.1}", run.migrated_bytes / 1e6),
                run.peak_dirty.to_string(),
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
