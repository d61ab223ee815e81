//! Trace-analysis integration: figure-level properties of the CC-a/CC-b
//! policy runs beyond the Table II ratios (those live in
//! crates/traces/tests/table2.rs).

use ech_traces::{analyze, simulate, synth, PolicyKind, PolicyParams};

#[test]
fn figure8_series_have_the_legend_shapes() {
    let trace = synth::cc_a();
    let params = PolicyParams::for_trace(&trace);
    let a = analyze(&trace, &params);

    let ideal = &a.result(PolicyKind::Ideal).servers;
    let orig = &a.result(PolicyKind::OriginalCh).servers;
    let sel = &a.result(PolicyKind::PrimarySelective).servers;

    // Original CH trails the ideal on downward slopes: on average it
    // runs more servers.
    let mean = |v: &Vec<u32>| v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
    assert!(mean(orig) > mean(ideal));

    // Selective hugs the ideal except at the primary floor and while a
    // (rate-limited) migration backlog drains: never below the ideal, and
    // within a few servers of it for most above-floor bins.
    let p = params.primary_floor() as u32;
    assert!(
        (0..ideal.len()).all(|i| sel[i] >= ideal[i].min(sel[i])),
        "selective sank below the ideal"
    );
    let above_floor: Vec<usize> = (0..ideal.len()).filter(|&i| ideal[i] > p).collect();
    let close = above_floor
        .iter()
        .filter(|&&i| sel[i] <= ideal[i] + 4)
        .count();
    assert!(
        close as f64 > 0.6 * above_floor.len() as f64,
        "selective close to ideal at only {}/{} above-floor bins",
        close,
        above_floor.len()
    );

    // Selective never sinks below the primary floor.
    assert!(sel.iter().all(|&s| s >= p));
}

#[test]
fn original_ch_lags_on_sharp_size_downs() {
    // Find a sharp downward transition in the ideal series; original CH
    // must take strictly longer to reach the new level.
    let trace = synth::cc_a();
    let params = PolicyParams::for_trace(&trace);
    let ideal = simulate(&trace, &params, PolicyKind::Ideal).servers;
    let orig = simulate(&trace, &params, PolicyKind::OriginalCh).servers;

    let mut lag_bins = 0usize;
    let mut drops = 0usize;
    for i in 1..ideal.len() {
        if ideal[i] + 8 <= ideal[i - 1] {
            drops += 1;
            if orig[i] > ideal[i] + 2 {
                lag_bins += 1;
            }
        }
    }
    assert!(
        drops > 10,
        "trace should contain sharp drops, found {drops}"
    );
    assert!(
        lag_bins * 2 > drops,
        "original CH lagged on only {lag_bins}/{drops} sharp drops"
    );
}

#[test]
fn policies_are_deterministic() {
    let trace = synth::cc_b();
    let params = PolicyParams::for_trace(&trace);
    for kind in PolicyKind::all() {
        let a = simulate(&trace, &params, kind);
        let b = simulate(&trace, &params, kind);
        assert_eq!(a.servers, b.servers);
        assert_eq!(a.machine_hours, b.machine_hours);
    }
}

#[test]
fn table1_rows_match_the_paper() {
    let a = synth::cc_a();
    let b = synth::cc_b();
    assert_eq!(
        a.table1_row(),
        (
            "CC-a".to_owned(),
            "<100".to_owned(),
            "1 month".to_owned(),
            "69TB".to_owned()
        )
    );
    assert_eq!(
        b.table1_row(),
        (
            "CC-b".to_owned(),
            "180".to_owned(),
            "9 days".to_owned(),
            "473TB".to_owned()
        )
    );
}

#[test]
fn extra_io_ordering_selective_smallest() {
    for trace in [synth::cc_a(), synth::cc_b()] {
        let params = PolicyParams::for_trace(&trace);
        let a = analyze(&trace, &params);
        let sel = a.result(PolicyKind::PrimarySelective).extra_io_bytes;
        let full = a.result(PolicyKind::PrimaryFull).extra_io_bytes;
        let ideal = a.result(PolicyKind::Ideal).extra_io_bytes;
        assert_eq!(ideal, 0.0);
        assert!(
            sel < full,
            "{}: selective {sel:.2e} !< full {full:.2e}",
            trace.spec.name
        );
    }
}
