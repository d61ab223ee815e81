//! `ech chaos`: the deterministic fault-injection survival drill on a
//! live cluster, run as a scenario of `ech_cluster::scenario`.

use ech_cli::args::{Args, ParseError};
use std::fmt::Write as _;

pub fn chaos_cmd(args: &Args) -> Result<String, ParseError> {
    use ech_cluster::scenario::{self, Scenario, Step, FLAKY_LINK};
    use ech_cluster::{NetPlan, PartitionDirection};
    use ech_core::hash::mix64;
    args.allow_only(&[
        "seed",
        "objects",
        "error-rate",
        "crash1",
        "crash2",
        "servers",
        "replicas",
        "net",
    ])?;
    let seed: u64 = args.get_or("seed", 0xEC0_5EED)?;
    let objects: u64 = args.get_or("objects", 200)?;
    let servers: usize = args.get_or("servers", 10)?;
    let replicas: usize = args.get_or("replicas", 3)?;
    let rate: f64 = args.get_or("error-rate", 0.08)?;
    let crash1: u64 = args.get_or("crash1", 12)?;
    let crash2: u64 = args.get_or("crash2", 25)?;
    let net: bool = args.get_or("net", false)?;
    if servers < 2 {
        return Err(ParseError("--servers must be at least 2".into()));
    }
    if replicas == 0 || replicas > servers {
        return Err(ParseError(format!(
            "--replicas {replicas} out of 1..={servers}"
        )));
    }
    if !(0.0..1.0).contains(&rate) {
        return Err(ParseError("--error-rate must be within [0, 1)".into()));
    }
    if objects == 0 {
        return Err(ParseError("--objects must be at least 1".into()));
    }

    // Transient-error windows must outlive both crash events so every
    // planned fault provably fires before the convergence phase.
    let window = 150u64.max(crash1.max(crash2) + 1);
    let node_a = (mix64(seed) % servers as u64) as usize;
    let node_b =
        ((node_a as u64 + 1 + mix64(seed ^ 1) % (servers as u64 - 1)) % servers as u64) as usize;
    let crashes = [(node_a, crash1), (node_b, crash2)];
    let mut sc = Scenario::r3(
        scenario::disk_faults(servers, seed, rate, window, &crashes),
        objects,
    );
    (sc.cfg.servers, sc.cfg.replicas, sc.maintain) = (servers, replicas, true);
    // `--net true` layers the message fault plane on top of the disk
    // faults: flaky links everywhere, plus an asymmetric partition
    // cutting requests into the high-index ~30% of the ring for the
    // whole write phase. Breakers and the per-operation deadline budget
    // come on with it.
    if net {
        let dark = servers.div_ceil(3).min(servers - 1);
        let isolated = ((servers - dark) as u32..servers as u32).collect();
        let cut = scenario::cut(isolated, PartitionDirection::Inbound);
        sc.plan.net = Some(NetPlan {
            partitions: vec![cut],
            ..NetPlan::uniform(seed, FLAKY_LINK)
        });
        sc.cfg = scenario::with_budget(sc.cfg);
    }
    // Power resizes at the quarter marks of the write phase.
    if objects >= 8 {
        sc.schedule = vec![
            (objects / 4, Step::Resize(replicas.max(servers / 2))),
            (objects / 2, Step::Resize(replicas.max(3 * servers / 4))),
            (3 * objects / 4, Step::Resize(servers)),
        ];
    }
    let (_, outcome) = sc.run();

    let counts = outcome.counters;
    let mut rows = vec![
        ("writes_attempted", objects),
        ("writes_acked", outcome.acked.len() as u64),
        ("io_errors_injected", counts.io_errors),
        ("crashes_injected", counts.crashes),
        ("kv_unavailable_injected", counts.kv_unavailable),
        ("retries", counts.retries),
        ("quorum_degraded_acks", counts.quorum_acks),
        ("replicas_missed", counts.replicas_missed),
        ("unavailable_errors", counts.unavailable_errors),
        ("under_replicated", outcome.under_replicated as u64),
        ("dirty_entries", outcome.dirty_entries as u64),
        (
            "acked_readable",
            (outcome.acked.len() - outcome.lost.len()) as u64,
        ),
    ];
    // Message-plane metrics are reported only when `--net true`
    // installed the fabric; the base report stays byte-identical
    // without it.
    if net {
        rows.extend([
            ("net_sends", counts.net_sends),
            ("net_dropped", counts.net_dropped),
            ("net_duplicated", counts.net_duplicated),
            ("net_delayed", counts.net_delayed),
            ("net_reordered", counts.net_reordered),
            ("net_partitioned_sends", counts.net_partitioned_sends),
            ("breaker_trips", counts.breaker_trips),
            ("breaker_fastfails", counts.breaker_fastfails),
            ("deadline_exceeded", counts.deadline_exceeded),
        ]);
    }
    let mut out = String::from("metric,value\n");
    for (name, v) in rows {
        writeln!(out, "{name},{v}").expect("write to string");
    }
    let verdict = match outcome.lost.len() {
        0 => "SURVIVED".to_owned(),
        lost => format!("LOST {lost}"),
    };
    writeln!(
        out,
        "# verdict={verdict} seed={seed} crash_nodes={},{}",
        node_a + 1,
        node_b + 1
    )
    .expect("write to string");
    Ok(out)
}
