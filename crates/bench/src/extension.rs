//! Extensions beyond the paper: its related work (GreenCHT) and the
//! latency side of its throughput figures.

use crate::row;
use ech_sim::des::{read_latency_under_reintegration, DesConfig, MigrationLoad};
use ech_traces::{simulate, synth, PolicyKind, PolicyParams};

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
