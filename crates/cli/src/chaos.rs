//! `ech chaos`: the deterministic fault-injection survival drill on a
//! live cluster.

use ech_cli::args::{Args, ParseError};
use ech_core::ids::ObjectId;
use std::fmt::Write as _;

pub fn chaos_cmd(args: &Args) -> Result<String, ParseError> {
    use bytes::Bytes;
    use ech_cluster::{
        BreakerConfig, Cluster, ClusterConfig, FaultPlan, LinkFaultSpec, NetPlan,
        PartitionDirection, PartitionWindow, VirtualClock,
    };
    use ech_core::hash::mix64;
    use std::sync::Arc;
    use std::time::Duration;
    args.allow_only(&[
        "seed",
        "objects",
        "error-rate",
        "crash1",
        "crash2",
        "servers",
        "replicas",
        "net",
        "placement",
    ])?;
    let seed: u64 = args.get_or("seed", 0xEC0_5EED)?;
    let objects: u64 = args.get_or("objects", 200)?;
    let servers: usize = args.get_or("servers", 10)?;
    let replicas: usize = args.get_or("replicas", 3)?;
    let rate: f64 = args.get_or("error-rate", 0.08)?;
    let crash1: u64 = args.get_or("crash1", 12)?;
    let crash2: u64 = args.get_or("crash2", 25)?;
    let net: bool = args.get_or("net", false)?;
    // `--placement` overrides the engine of `ClusterConfig::paper()`;
    // absent, the ring stands.
    let placement: Option<ech_core::engine::EngineKind> = match args.options.get("placement") {
        Some(v) => Some(v.parse().map_err(ParseError)?),
        None => None,
    };
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
    let mut plan = FaultPlan::uniform_io_errors(servers, seed, rate);
    for spec in &mut plan.node_faults {
        spec.io_error_until_op = window;
    }
    plan.node_faults[node_a].crash_at_op = Some(crash1);
    plan.node_faults[node_b].crash_at_op = Some(crash2);

    // `--net true` layers the message fault plane on top of the disk
    // faults: flaky links everywhere, plus an asymmetric partition
    // cutting requests into the high-index ~30% of the ring for the
    // whole write phase (healed before convergence). Breakers and the
    // per-operation deadline budget come on with it.
    let breaker_cooldown = Duration::from_millis(10);
    if net {
        let dark = servers.div_ceil(3).min(servers - 1);
        plan.net = Some(NetPlan {
            seed,
            default_link: LinkFaultSpec {
                drop_prob: 0.02,
                dup_prob: 0.01,
                reorder_prob: 0.01,
                delay: Some((Duration::from_micros(20), Duration::from_micros(120))),
            },
            partitions: vec![PartitionWindow {
                from: Duration::ZERO,
                until: Duration::MAX, // healed explicitly after the write phase
                isolated: ((servers - dark) as u32..servers as u32).collect(),
                direction: PartitionDirection::Inbound,
            }],
            rpc_timeout: Duration::from_millis(2),
        });
    }

    let mut cfg = ClusterConfig::paper();
    cfg.servers = servers;
    cfg.replicas = replicas;
    if let Some(kind) = placement {
        cfg.placement = kind;
    }
    if net {
        cfg.op_deadline = Some(Duration::from_millis(100));
        cfg.breaker = Some(BreakerConfig {
            failure_threshold: 4,
            cooldown: breaker_cooldown,
        });
    }
    // A virtual clock makes the whole drill wall-clock-free: retry
    // backoff, brown-out waits and hedged-read thresholds advance the
    // same logical nanoseconds on every run, so replays are exact.
    let clock = Arc::new(VirtualClock::new());
    let c = Cluster::with_faults(cfg, plan, clock.clone());
    let value = |i: u64| Bytes::from(format!("chaos-object-{i}"));

    // Write phase under fire, with power resizes at the quarter marks.
    let mut acked: Vec<u64> = Vec::new();
    for i in 0..objects {
        if objects >= 8 {
            if i == objects / 4 {
                c.resize(replicas.max(servers / 2));
            } else if i == objects / 2 {
                c.resize(replicas.max(3 * servers / 4));
            } else if i == 3 * objects / 4 {
                c.resize(servers);
            }
        }
        let oid = ObjectId(i);
        let mut ok = false;
        for attempt in 0..3 {
            match c.put(oid, value(i)) {
                Ok(_) => {
                    ok = true;
                    break;
                }
                Err(_) if attempt < 2 => {
                    // A failed write may mean a silent crash: fix the
                    // membership, re-replicate, and try again.
                    c.detect_and_mark_crashed();
                    c.repair();
                }
                Err(_) => {}
            }
        }
        if ok {
            acked.push(i);
        }
        if !c.detect_and_mark_crashed().is_empty() {
            c.repair();
        }
    }

    // Exhaust every node's fault window (op counters are the fault
    // clock), firing any crash the workload did not reach.
    let inj = c.fault_injector().expect("chaos cluster has an injector");
    for (i, node) in c.nodes().iter().enumerate() {
        while inj.node_ops(i) < window {
            let _ = node.get(ObjectId(u64::MAX));
        }
    }

    // Lift the partition before converging, and let the breaker
    // cooldowns elapse — the virtual clock only moves when something
    // sleeps, and breaker fast-fails deliberately don't.
    if let Some(fabric) = c.net_fabric() {
        fabric.heal_partitions();
        clock.advance(breaker_cooldown * 2);
    }

    // Converge: fix membership, re-replicate, return to full power, heal
    // degraded writes and drain the dirty table.
    c.detect_and_mark_crashed();
    c.repair();
    c.resize(servers);
    c.repair();
    c.reintegrate_all();
    c.repair();

    let readable = acked
        .iter()
        .filter(|&&i| c.get(ObjectId(i)).map(|v| v == value(i)).unwrap_or(false))
        .count();
    let lost = acked.len() - readable;
    let counts = c.counters();
    let mut out = String::new();
    writeln!(out, "metric,value").expect("write to string");
    for (name, v) in [
        ("writes_attempted", objects),
        ("writes_acked", acked.len() as u64),
        ("io_errors_injected", counts.io_errors),
        ("crashes_injected", counts.crashes),
        ("delays_injected", counts.delays),
        ("kv_unavailable_injected", counts.kv_unavailable),
        ("retries", counts.retries),
        ("quorum_degraded_acks", counts.quorum_acks),
        ("replicas_missed", counts.replicas_missed),
        ("hedged_reads", counts.hedged_reads),
        ("unavailable_errors", counts.unavailable_errors),
        ("under_replicated", c.under_replicated() as u64),
        ("dirty_entries", c.dirty_len() as u64),
        ("acked_readable", readable as u64),
    ] {
        writeln!(out, "{name},{v}").expect("write to string");
    }
    // Message-plane metrics are reported only when `--net true`
    // installed the fabric; the base report stays byte-identical
    // without it.
    if net {
        for (name, v) in [
            ("net_sends", counts.net_sends),
            ("net_dropped", counts.net_dropped),
            ("net_duplicated", counts.net_duplicated),
            ("net_delayed", counts.net_delayed),
            ("net_reordered", counts.net_reordered),
            ("net_partitioned_sends", counts.net_partitioned_sends),
            ("breaker_trips", counts.breaker_trips),
            ("breaker_fastfails", counts.breaker_fastfails),
            ("deadline_exceeded", counts.deadline_exceeded),
        ] {
            writeln!(out, "{name},{v}").expect("write to string");
        }
    }
    let verdict = if lost == 0 {
        "SURVIVED".to_owned()
    } else {
        format!("LOST {lost}")
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
