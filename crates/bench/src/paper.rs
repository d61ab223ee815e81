//! The paper's own evaluation: §II-C's motivation figures and §V's
//! figures and tables.

use crate::{mbps, row};
use ech_core::dirty::{DirtyEntry, DirtyTable, InMemoryDirtyTable, NoHeaders};
use ech_core::ids::{ObjectId, VersionId};
use ech_core::layout::Layout;
use ech_core::placement::Strategy;
use ech_core::reintegration::Reintegrator;
use ech_core::stats::replica_distribution;
use ech_core::view::ClusterView;
use ech_sim::experiments::{fig2_schedule, resize_agility, three_phase, ThreePhaseRun};
use ech_sim::ElasticityMode;
use ech_traces::{analyze, synth, PolicyKind, PolicyParams, Trace};

/// Figure 2 — "Resizing a consistent hashing based distributed storage
/// system": the desired schedule removes 2 servers every 30 s down to 2,
/// then adds 2 back every 30 s; original CH lags on the way down (each
/// departure must wait for re-replication) and catches up on the way up.
/// One row per 5 s with the ideal and actual server counts, plus the
/// mean lag; the `elastic` column runs the same schedule under the
/// paper's primary/equal-work design.
pub(crate) fn fig2_resize_agility(out: &mut String) {
    let schedule = fig2_schedule();
    let orig = resize_agility(ElasticityMode::OriginalCh, &schedule, 330.0, 3500);
    let elastic = resize_agility(ElasticityMode::PrimarySelective, &schedule, 330.0, 3500);

    row(out, &["t(s)", "ideal", "original CH", "elastic"]);
    for (i, &t) in orig.times.iter().enumerate() {
        if (t * 10.0).round() as i64 % 50 != 0 {
            continue; // print every 5 s
        }
        row(
            out,
            &[
                format!("{t:.0}"),
                orig.ideal[i].to_string(),
                orig.actual[i].to_string(),
                elastic.actual[i].to_string(),
            ],
        );
    }

    outln!(out);
    outln!(
        out,
        "mean |actual - ideal|: original CH {:.2} servers, elastic {:.2} servers",
        orig.mean_gap(),
        elastic.mean_gap()
    );
    outln!(
        out,
        "excess machine-seconds vs ideal: original CH {:.0}, elastic {:.0}",
        orig.excess_machine_seconds(0.5),
        elastic.excess_machine_seconds(0.5)
    );
}

/// Append the header row, then one row per 10 s of the runs' client
/// throughput in MB/s (a run's value at the first sample at or after
/// `t`), with empty cells for header columns beyond the runs.
fn throughput_series(out: &mut String, header: &[&str], runs: &[ThreePhaseRun]) {
    row(out, header);
    let max_t = runs
        .iter()
        .map(|r| r.samples.last().map(|s| s.time).unwrap_or(0.0))
        .fold(0.0, f64::max);
    let mut t = 0.0;
    while t <= max_t {
        let mut cells = vec![format!("{t:.0}")];
        for r in runs {
            let at = r.samples.iter().find(|s| s.time >= t);
            cells.push(mbps(at.map(|s| s.client_throughput).unwrap_or(0.0)));
        }
        cells.resize(header.len(), String::new());
        row(out, &cells);
        t += 10.0;
    }
}

/// Figure 3 — "Performance impact of resizing": the 3-phase workload
/// under original consistent hashing, with resizing (4 servers off during
/// the valley) vs without. The resizing run's throughput collapses after
/// phase 2 while the assume-empty migration consumes disk bandwidth.
pub(crate) fn fig3_resize_impact(out: &mut String) {
    let runs = [
        three_phase(ElasticityMode::NoResizing, 120.0, 1500.0),
        three_phase(ElasticityMode::OriginalCh, 120.0, 1500.0),
    ];

    throughput_series(out, &["t(s)", "no-resize", "with-resize", "(MB/s)"], &runs);

    outln!(out);
    for r in &runs {
        outln!(
            out,
            "{:<12} phase ends at {:?}s, recovery delay (80% of peak): {:.1}s, \
             migrated {:.1} GB, machine-seconds {:.0}",
            r.mode_label,
            r.phase_ends
                .iter()
                .map(|t| t.round() as i64)
                .collect::<Vec<_>>(),
            r.recovery_delay(0.8).unwrap_or(0.0),
            r.migrated_bytes / 1e9,
            r.machine_seconds
        );
    }
}

/// Figure 5 — "The Equal-Work Data Layout and Data Re-Integration
/// Between Versions": per-rank data-block counts in three versions
/// (v1: 10 active; v2: 8 active with 50,000 new objects; v3: 10 active
/// again), plus the re-integration mass (the figure's shaded area).
pub(crate) fn fig5_equal_work_layout(out: &mut String) {
    let mut view = ClusterView::new(Layout::equal_work(10, 40_000), Strategy::Primary, 2);

    // Version 1: 100,000 objects written at full power.
    let v1_oids: Vec<ObjectId> = (0..100_000).map(ObjectId).collect();

    // Version 2: two servers off; 50,000 more objects written (dirty).
    view.resize(8);
    let v2 = view.current_version();
    let v2_oids: Vec<ObjectId> = (100_000..150_000).map(ObjectId).collect();
    let mut dirty = InMemoryDirtyTable::new();
    for &oid in &v2_oids {
        dirty.push_back(DirtyEntry::new(oid, v2));
    }

    // Version 3: full power again.
    view.resize(10);
    let v3 = view.current_version();

    // Distributions: v1 data at v1 placement; v2 state = v1 data (still at
    // v1 placement; nothing moves on power-down) + v2 writes at v2
    // placement; v3 = everything at full-power placement.
    let d1 = replica_distribution(&view, &v1_oids, VersionId(1));
    let d2_new = replica_distribution(&view, &v2_oids, v2);
    let d3_new_target = replica_distribution(&view, &v2_oids, v3);

    row(out, &["rank", "v1(10 act)", "v2(8 act)", "v3(10 act)"]);
    for i in 0..10 {
        row(
            out,
            &[
                (i + 1).to_string(),
                d1[i].to_string(),
                (d1[i] + d2_new[i]).to_string(),
                (d1[i] + d3_new_target[i]).to_string(),
            ],
        );
    }

    // The shaded area: replicas the selective engine must migrate to
    // recover the layout.
    let mut engine = Reintegrator::new();
    let tasks = engine.drain(&view, &mut dirty, &NoHeaders);
    let moves: usize = tasks.iter().map(|t| t.moves.len()).sum();
    outln!(out);
    outln!(
        out,
        "data to re-integrate (shaded area): {} replicas of {} dirty objects \
         ({} tasks; {:.1}% of the v2 writes)",
        moves,
        v2_oids.len(),
        tasks.len(),
        100.0 * tasks.len() as f64 / v2_oids.len() as f64
    );
}

/// Figure 7 — "Evaluating the performance of resizing with 3-phase
/// workload": no-resizing vs original CH vs consistent hashing with
/// selective data re-integration, as a throughput series and a summary
/// of recovery delay, data moved and machine time per case.
pub(crate) fn fig7_selective_reintegration(out: &mut String) {
    let runs = [
        three_phase(ElasticityMode::NoResizing, 120.0, 1500.0),
        three_phase(ElasticityMode::OriginalCh, 120.0, 1500.0),
        three_phase(ElasticityMode::PrimarySelective, 120.0, 1500.0),
    ];

    throughput_series(out, &["t(s)", "no-resize", "original", "selective"], &runs);

    outln!(out);
    row(out, &["case", "recov(s)", "moved(GB)", "mach-sec", "kWh"]);
    for r in &runs {
        row(
            out,
            &[
                r.mode_label.clone(),
                format!("{:.1}", r.recovery_delay(0.8).unwrap_or(0.0)),
                format!("{:.2}", r.migrated_bytes / 1e9),
                format!("{:.0}", r.machine_seconds),
                format!("{:.3}", r.energy_kwh),
            ],
        );
    }
}

/// Figures 8 and 9 — "CC-a Trace" / "CC-b Trace": servers over time for
/// the Ideal, Original CH, Primary+full and Primary+selective policies
/// over the synthetic `trace` (calibrated to Table I's envelope) in the
/// paper's 250-minute window, then whole-trace machine-hours and the
/// savings beside the paper's pair, `paper_savings` (in %).
pub(crate) fn trace_policies(out: &mut String, trace: Trace, paper_savings: [f64; 2]) {
    let params = PolicyParams::for_trace(&trace);
    let a = analyze(&trace, &params);

    row(
        out,
        &["t(min)", "ideal", "orig CH", "prim+full", "prim+sel"],
    );
    for minute in (0..=250).step_by(5) {
        let idx = minute.min(trace.load.len() - 1);
        let cells: Vec<String> = std::iter::once(minute.to_string())
            .chain(
                PolicyKind::all()
                    .iter()
                    .map(|&k| a.result(k).servers[idx].to_string()),
            )
            .collect();
        row(out, &cells);
    }

    outln!(out);
    outln!(out, "whole-trace machine-hours (ratio to ideal):");
    for k in PolicyKind::all() {
        outln!(
            out,
            "  {:<18} {:>12.0} h   ({:.2}x)",
            k.label(),
            a.result(k).machine_hours,
            a.relative_machine_hours(k)
        );
    }
    outln!(out);
    outln!(
        out,
        "savings vs original CH: primary+full {:.1}%, primary+selective {:.1}% \
         (paper: {:.1}% and {:.1}%)",
        100.0 * a.savings_vs_original(PolicyKind::PrimaryFull),
        100.0 * a.savings_vs_original(PolicyKind::PrimarySelective),
        paper_savings[0],
        paper_savings[1]
    );
}

/// Table I — "The specification of the real-world traces": the envelope
/// of the synthetic CC-a/CC-b traces, plus generator diagnostics showing
/// the calibration holds (duration, bytes, burstiness, resize frequency).
pub(crate) fn table1_trace_specs(out: &mut String) {
    let traces = [synth::cc_a(), synth::cc_b()];
    row(out, &["Trace", "Machines", "Length", "Bytes"]);
    for trace in &traces {
        let (name, machines, length, bytes) = trace.table1_row();
        row(out, &[name, machines, length, bytes]);
    }

    outln!(out);
    outln!(out, "generator diagnostics:");
    for trace in &traces {
        trace.validate().expect("calibration holds");
        let mean_servers_rate = trace.spec.mean_load();
        outln!(
            out,
            "  {:<5} bins {:>6} x {:>3.0}s | total {:>6.1} TB | mean {:>6.1} MB/s | \
             peak/mean {:>5.1} | ideal resizes/bin {:.3}",
            trace.spec.name,
            trace.load.len(),
            trace.load.bin_seconds,
            trace.load.total_bytes() / 1e12,
            trace.load.mean() / 1e6,
            trace.load.peak() / trace.load.mean(),
            trace
                .load
                .resize_frequency(mean_servers_rate / 15.0, 2, trace.spec.machines)
                as f64
                / trace.load.len() as f64,
        );
    }
}

/// Table II — "Relative machine hour usage relative to the ideal case":
/// both traces, all three non-ideal policies, side by side with the
/// paper's reported ratios.
pub(crate) fn table2_machine_hours(out: &mut String) {
    let paper = [("CC-a", [1.32, 1.24, 1.21]), ("CC-b", [1.51, 1.37, 1.33])];
    let policies = [
        PolicyKind::OriginalCh,
        PolicyKind::PrimaryFull,
        PolicyKind::PrimarySelective,
    ];

    row(
        out,
        &[
            "Trace",
            "OriginalCH",
            "(paper)",
            "Prim+full",
            "(paper)",
            "Prim+sel",
            "(paper)",
        ],
    );
    for (trace, (name, expect)) in [synth::cc_a(), synth::cc_b()].into_iter().zip(paper) {
        let a = analyze(&trace, &PolicyParams::for_trace(&trace));
        let mut cells = vec![name.to_string()];
        for (k, paper_value) in policies.into_iter().zip(expect) {
            cells.push(format!("{:.2}", a.relative_machine_hours(k)));
            cells.push(format!("{paper_value:.2}"));
        }
        row(out, &cells);
    }
}
