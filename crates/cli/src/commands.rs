//! Subcommand implementations. Each returns its output as a `String` so
//! tests can assert on it without capturing stdout.

use ech_cli::args::{Args, ParseError};
use ech_core::ids::ObjectId;
use ech_core::layout::{primary_count, CapacityPlan, Layout};
use ech_core::membership::MembershipTable;
use ech_core::placement::{place, Strategy};
use ech_sim::experiments::{fig2_schedule, resize_agility, three_phase};
use ech_sim::ElasticityMode;
use ech_traces::{analyze, synth, PolicyKind, PolicyParams};
use std::fmt::Write as _;

/// The dispatch table, in `help` order.
const COMMANDS: &[(&str, ech_cli::Command)] = &[
    ("layout", layout),
    ("place", place_cmd),
    ("three-phase", three_phase_cmd),
    ("resize-agility", resize_agility_cmd),
    ("trace", trace_cmd),
    ("latency", latency_cmd),
    ("chaos", crate::chaos::chaos_cmd),
    ("help", help),
];

/// Run a parsed command, returning its printable output.
pub fn run(args: &Args) -> Result<String, ParseError> {
    ech_cli::dispatch(COMMANDS, args).unwrap_or_else(|| {
        Err(ParseError(match args.command.as_str() {
            checker @ ("modelcheck" | "lincheck") => format!(
                "`{checker}` is a subcommand of the `ech-check` binary: run `ech-check {checker}`"
            ),
            "lint" => "`lint` is the `ech-analyzer` binary: run `ech-analyzer --root .`".to_owned(),
            other => format!("unknown subcommand `{other}`; try `ech help`"),
        }))
    })
}

fn help(_: &Args) -> Result<String, ParseError> {
    Ok("\
ech — elastic consistent hashing toolkit

USAGE: ech <command> [--flag value]...

COMMANDS:
  layout          print equal-work weights and the capacity plan
                  [--servers N] [--base B] [--primaries P] [--data-gb G]
  place           compute replica placement for an object
                  [--servers N] [--oid K] [--replicas R] [--active A]
                  [--strategy primary|original]
  three-phase     run the §V-A 3-phase simulation, CSV to stdout
                  [--mode no-resizing|original|full|selective] [--valley S]
  resize-agility  run the Figure 2 schedule, CSV to stdout
                  [--mode no-resizing|original|full|selective] [--objects N]
  trace           trace-driven policy analysis (Table II style)
                  [--name cc-a|cc-b]
  latency         read-latency tail during re-integration (queue model)
                  [--migration none|selective|unthrottled] [--rate MBps]
  chaos           run a deterministic fault-injection survival drill on a
                  live cluster and print the report
                  [--seed S] [--objects N] [--error-rate P]
                  [--crash1 OP] [--crash2 OP] [--servers N] [--replicas R]
                  [--net true]  add the message fault plane: flaky links,
                  an asymmetric partition, breakers and deadline budgets
  help            this text

The checker hosts — modelcheck, lincheck, bench modelcheck — are the
`ech-check` binary; see `ech-check help`. The invariant analyzer is the
`ech-analyzer` binary.
"
    .to_owned())
}

/// `--servers` and `--base`, as the commands that build a layout take
/// them.
fn servers_and_base(args: &Args) -> Result<(usize, u32), ParseError> {
    let n: usize = args.get_or("servers", 10)?;
    if n == 0 {
        return Err(ParseError("--servers must be at least 1".into()));
    }
    Ok((n, args.get_or("base", 10_000)?))
}

/// Reject the shapes `Layout::equal_work_with_primaries` asserts against.
pub(crate) fn check_layout(n: usize, base: u32, p: usize) -> Result<(), ParseError> {
    if p == 0 || p > n || (base as usize) < n {
        return Err(ParseError(format!(
            "invalid layout: servers {n}, primaries {p}, base {base}"
        )));
    }
    Ok(())
}

fn layout(args: &Args) -> Result<String, ParseError> {
    args.allow_only(&["servers", "base", "primaries", "data-gb"])?;
    let (n, base) = servers_and_base(args)?;
    let p: usize = args.get_or("primaries", primary_count(n))?;
    let data_gb: u64 = args.get_or("data-gb", 1_000)?;
    check_layout(n, base, p)?;
    const GB: u64 = 1 << 30;
    let data = data_gb
        .checked_mul(GB)
        .ok_or_else(|| ParseError(format!("--data-gb must be at most {}", u64::MAX / GB)))?;
    let layout = Layout::equal_work_with_primaries(n, base, p);
    let tiers = [
        2000 * GB,
        1500 * GB,
        1000 * GB,
        750 * GB,
        500 * GB,
        320 * GB,
    ];
    let plan = CapacityPlan::fit(&layout, &tiers, data, 0.2);
    let mut out = String::new();
    writeln!(out, "rank,role,vnodes,share,capacity_gb").expect("write to string");
    for (i, (&w, f)) in layout
        .weights()
        .iter()
        .zip(layout.expected_fractions())
        .enumerate()
    {
        let server = ech_core::ids::ServerId(i as u32);
        writeln!(
            out,
            "{},{},{},{:.4},{}",
            i + 1,
            if layout.is_primary(server) {
                "primary"
            } else {
                "secondary"
            },
            w,
            f,
            plan.capacity(server) / GB
        )
        .expect("write to string");
    }
    Ok(out)
}

fn place_cmd(args: &Args) -> Result<String, ParseError> {
    args.allow_only(&["servers", "oid", "replicas", "active", "strategy", "base"])?;
    let (n, base) = servers_and_base(args)?;
    let oid: u64 = args.get_or("oid", 0)?;
    let r: usize = args.get_or("replicas", 2)?;
    let active: usize = args.get_or("active", n)?;
    let strategy = match args.str_or("strategy", "primary") {
        "primary" => Strategy::Primary,
        "original" => Strategy::Original,
        other => return Err(ParseError(format!("unknown strategy {other}"))),
    };
    if active == 0 || active > n {
        return Err(ParseError(format!("--active {active} out of 1..={n}")));
    }
    check_layout(n, base, primary_count(n))?;
    let layout = Layout::for_strategy(strategy, n, base);
    let ring = layout.build_ring();
    let membership = MembershipTable::active_prefix(n, active);
    let placement = place(strategy, &ring, &layout, &membership, ObjectId(oid), r)
        .map_err(|e| ParseError(format!("placement failed: {e}")))?;
    let mut out = String::new();
    writeln!(out, "oid,replica,server,role").expect("write to string");
    for (i, &s) in placement.servers().iter().enumerate() {
        writeln!(
            out,
            "{},{},{},{}",
            oid,
            i + 1,
            s.index() + 1,
            if layout.is_primary(s) {
                "primary"
            } else {
                "secondary"
            }
        )
        .expect("write to string");
    }
    Ok(out)
}

fn parse_mode(s: &str) -> Result<ElasticityMode, ParseError> {
    Ok(match s {
        "no-resizing" => ElasticityMode::NoResizing,
        "original" => ElasticityMode::OriginalCh,
        "full" => ElasticityMode::PrimaryFull,
        "selective" => ElasticityMode::PrimarySelective,
        other => return Err(ParseError(format!("unknown mode {other}"))),
    })
}

fn three_phase_cmd(args: &Args) -> Result<String, ParseError> {
    args.allow_only(&["mode", "valley"])?;
    let mode = parse_mode(args.str_or("mode", "selective"))?;
    let valley: f64 = args.get_or("valley", 120.0)?;
    if !(1.0..=3600.0).contains(&valley) {
        return Err(ParseError(
            "--valley must be within 1..=3600 seconds".into(),
        ));
    }
    let run = three_phase(mode, valley, 2_000.0);
    let mut out = String::new();
    writeln!(out, "time_s,throughput_mbps,active,powered,phase").expect("write to string");
    for s in run.samples.iter().step_by(4) {
        writeln!(
            out,
            "{:.1},{:.1},{},{},{}",
            s.time,
            s.client_throughput / 1e6,
            s.active,
            s.powered,
            s.phase
        )
        .expect("write to string");
    }
    writeln!(
        out,
        "# recovery_delay_s={:.1} migrated_gb={:.2} machine_seconds={:.0}",
        run.recovery_delay(0.8).unwrap_or(0.0),
        run.migrated_bytes / 1e9,
        run.machine_seconds
    )
    .expect("write to string");
    Ok(out)
}

/// Largest `resize-agility --objects`: the preload is held in memory,
/// and 10⁶ objects already take most of a second to run.
const MAX_AGILITY_OBJECTS: usize = 1_000_000;

fn resize_agility_cmd(args: &Args) -> Result<String, ParseError> {
    args.allow_only(&["mode", "objects"])?;
    let mode = parse_mode(args.str_or("mode", "original"))?;
    let objects: usize = args.get_or("objects", 3_500)?;
    if objects > MAX_AGILITY_OBJECTS {
        let msg = format!("--objects must be at most {MAX_AGILITY_OBJECTS}");
        return Err(ParseError(msg));
    }
    let run = resize_agility(mode, &fig2_schedule(), 330.0, objects);
    let mut out = String::new();
    writeln!(out, "time_s,ideal,actual").expect("write to string");
    for i in (0..run.times.len()).step_by(10) {
        writeln!(
            out,
            "{:.1},{},{}",
            run.times[i], run.ideal[i], run.actual[i]
        )
        .expect("write to string");
    }
    writeln!(out, "# mean_gap={:.2}", run.mean_gap()).expect("write to string");
    Ok(out)
}

fn trace_cmd(args: &Args) -> Result<String, ParseError> {
    args.allow_only(&["name"])?;
    let trace = match args.str_or("name", "cc-a") {
        "cc-a" => synth::cc_a(),
        "cc-b" => synth::cc_b(),
        other => return Err(ParseError(format!("unknown trace {other}"))),
    };
    let params = PolicyParams::for_trace(&trace);
    let analysis = analyze(&trace, &params);
    let mut out = String::new();
    writeln!(out, "policy,machine_hours,relative_to_ideal").expect("write to string");
    for k in PolicyKind::all() {
        writeln!(
            out,
            "{},{:.0},{:.3}",
            k.label(),
            analysis.result(k).machine_hours,
            analysis.relative_machine_hours(k)
        )
        .expect("write to string");
    }
    Ok(out)
}

fn latency_cmd(args: &Args) -> Result<String, ParseError> {
    use ech_sim::des::{read_latency_under_reintegration, DesConfig, MigrationLoad};
    args.allow_only(&["migration", "rate"])?;
    let rate: f64 = args.get_or("rate", 40.0)?;
    if !(rate.is_finite() && rate > 0.0) {
        return Err(ParseError("--rate must be finite and positive".into()));
    }
    let migration = match args.str_or("migration", "selective") {
        "none" => MigrationLoad::None,
        "selective" => MigrationLoad::RateLimited {
            bytes_per_sec: rate * 1e6,
        },
        "unthrottled" => MigrationLoad::Unthrottled,
        other => return Err(ParseError(format!("unknown migration mode {other}"))),
    };
    let s = read_latency_under_reintegration(
        DesConfig::paper(),
        6,
        4_000,
        2_000,
        40.0,
        120.0,
        migration,
    );
    let mut out = String::new();
    writeln!(out, "metric,milliseconds").expect("write to string");
    for (name, v) in [
        ("mean", s.mean),
        ("p50", s.p50),
        ("p90", s.p90),
        ("p99", s.p99),
        ("max", s.max),
    ] {
        writeln!(out, "{},{:.2}", name, v * 1e3).expect("write to string");
    }
    writeln!(out, "# requests={}", s.count).expect("write to string");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ech_cli::args::parse;

    fn run_line(line: &str) -> Result<String, ParseError> {
        run(&parse(line.split_whitespace().map(str::to_owned)).unwrap())
    }

    /// The survival drill CI replays, with and without `--net true`.
    const CI_DRILL: &str = "chaos --seed 247488237 --objects 200 --error-rate 0.08";

    /// `help` lists exactly the subcommands the dispatch table accepts,
    /// and the checker subcommands point at the binary that has them.
    #[test]
    fn help_lists_all_commands() {
        let h = run_line("help").unwrap();
        let listed: Vec<&str> = h
            .lines()
            .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let dispatched: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
        assert_eq!(listed, dispatched);
        for cmd in ["modelcheck", "lincheck"] {
            let err = run_line(cmd).unwrap_err();
            assert!(err.0.contains(&format!("ech-check {cmd}")), "{}", err.0);
            assert_eq!(err.0.lines().count(), 1, "pointer is one line: {}", err.0);
        }
        let err = run_line("lint").unwrap_err();
        assert!(err.0.contains("ech-analyzer --root"), "{}", err.0);
        assert_eq!(err.0.lines().count(), 1, "pointer is one line: {}", err.0);
    }

    #[test]
    fn layout_prints_all_ranks() {
        let out = run_line("layout --servers 10 --base 1000").unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 11); // header + 10 ranks
        assert!(lines[1].starts_with("1,primary,500,"));
        assert!(lines[10].starts_with("10,secondary,100,"));
    }

    #[test]
    fn layout_rejects_bad_shapes() {
        assert!(run_line("layout --servers 0").is_err());
        assert!(run_line("layout --servers 10 --primaries 11").is_err());
        assert!(run_line("layout --servers 10 --base 5").is_err());
        // 2^34 GB is 2^64 bytes: the largest size that fits is accepted.
        assert!(run_line("layout --data-gb 17179869183").is_ok());
        assert_eq!(
            run_line("layout --data-gb 17179869184").unwrap_err().0,
            "--data-gb must be at most 17179869183"
        );
    }

    #[test]
    fn place_outputs_r_rows_with_one_primary() {
        let out = run_line("place --servers 10 --oid 10010 --replicas 2").unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        let primaries = lines[1..].iter().filter(|l| l.ends_with("primary")).count();
        assert_eq!(primaries, 1);
    }

    #[test]
    fn place_respects_active_prefix() {
        let out = run_line("place --servers 10 --oid 7 --active 4").unwrap();
        for line in out.lines().skip(1) {
            let server: usize = line.split(',').nth(2).unwrap().parse().unwrap();
            assert!(server <= 4, "placed on inactive server: {line}");
        }
        assert!(run_line("place --servers 10 --active 0").is_err());
    }

    /// A base below the server count is rejected as `ech layout` rejects
    /// it, not left to the layout's assert.
    #[test]
    fn place_rejects_bad_shapes() {
        for line in ["place --base 5", "place --base 0", "layout --base 5"] {
            assert_eq!(
                run_line(line).unwrap_err().0,
                "invalid layout: servers 10, primaries 2, base ".to_owned()
                    + line.rsplit(' ').next().unwrap(),
                "`{line}`"
            );
        }
        for line in ["place --servers 0", "layout --servers 0"] {
            assert_eq!(
                run_line(line).unwrap_err().0,
                "--servers must be at least 1",
                "`{line}`"
            );
        }
    }

    #[test]
    fn place_original_strategy_works() {
        let out = run_line("place --strategy original --oid 5").unwrap();
        assert_eq!(out.lines().count(), 3);
        assert!(run_line("place --strategy bogus").is_err());
    }

    #[test]
    fn trace_emits_four_policies() {
        // Use the smaller CC-b? Both are fast in release; in debug the
        // CC-a run is ~1 s, acceptable for a test.
        let out = run_line("trace --name cc-a").unwrap();
        assert_eq!(out.lines().count(), 5);
        assert!(out.contains("Primary+selective"));
        assert!(run_line("trace --name bogus").is_err());
    }

    #[test]
    fn three_phase_csv_has_expected_columns() {
        let out = run_line("three-phase --mode no-resizing --valley 30").unwrap();
        let header = out.lines().next().unwrap();
        assert_eq!(header, "time_s,throughput_mbps,active,powered,phase");
        assert!(out
            .lines()
            .last()
            .unwrap()
            .starts_with("# recovery_delay_s="));
        assert!(run_line("three-phase --valley 0").is_err());
        assert!(run_line("three-phase --mode warp").is_err());
    }

    /// Every mode the help lists runs.
    #[test]
    fn resize_agility_csv() {
        let help = run_line("help").unwrap();
        assert!(help.contains("[--mode no-resizing|original|full|selective] [--objects N]"));
        for mode in ["no-resizing", "original", "full", "selective"] {
            let out = run_line(&format!("resize-agility --mode {mode} --objects 500")).unwrap();
            assert!(out.starts_with("time_s,ideal,actual"), "{mode}");
            assert!(out.contains("# mean_gap="), "{mode}");
        }
    }

    /// The preload is capped before it is allocated: an oversized
    /// `--objects` is a parse error, not an allocator abort.
    #[test]
    fn resize_agility_caps_objects() {
        for n in ["1000001", "99999999999999"] {
            let err = run_line(&format!("resize-agility --objects {n}")).unwrap_err();
            assert_eq!(err.0, "--objects must be at most 1000000", "--objects {n}");
        }
    }

    #[test]
    fn latency_outputs_percentiles() {
        let out = run_line("latency --migration none").unwrap();
        assert!(out.starts_with("metric,milliseconds"));
        assert_eq!(out.lines().count(), 7);
        assert!(run_line("latency --migration warp").is_err());
        assert!(run_line("latency --rate 0").is_err());
    }

    /// A non-finite rate is rejected before it reaches the queue model.
    #[test]
    fn latency_rejects_non_finite_rates() {
        for rate in ["NaN", "inf", "-inf"] {
            assert_eq!(
                run_line(&format!("latency --rate {rate}")).unwrap_err().0,
                "--rate must be finite and positive",
                "--rate {rate}"
            );
        }
    }

    #[test]
    fn trace_knows_the_paper_traces() {
        for name in ["cc-a", "cc-b"] {
            let out = run_line(&format!("trace --name {name}")).unwrap();
            assert_eq!(out.lines().count(), 5, "{name}:\n{out}");
        }
        assert_eq!(
            run_line("trace --name cc-c").unwrap_err().0,
            "unknown trace cc-c"
        );
    }

    #[test]
    fn chaos_survival_report() {
        let out = run_line("chaos --objects 40 --seed 7 --error-rate 0.06").unwrap();
        assert!(out.starts_with("metric,value"));
        for metric in [
            "writes_attempted,40",
            "crashes_injected,2",
            "under_replicated,0",
            "dirty_entries,0",
        ] {
            assert!(out.contains(metric), "report missing `{metric}`:\n{out}");
        }
        assert!(out.contains("# verdict=SURVIVED"), "report:\n{out}");
        // Same seed, same drill, byte-identical report.
        assert_eq!(
            out,
            run_line("chaos --objects 40 --seed 7 --error-rate 0.06").unwrap()
        );
        // The CI drills are frozen as golden files: a refactor of the
        // data path reproduces them byte for byte or says why not.
        assert_eq!(
            run_line(CI_DRILL).unwrap(),
            include_str!("../golden/chaos_plain.txt")
        );
    }

    /// The message fault plane composes with the disk-fault drill: the
    /// partition and link faults must actually fire, the drill must
    /// still converge with zero acked-write loss, and the seeded report
    /// must replay byte-identically. Without `--net` the report must not
    /// change shape (no message-plane rows).
    #[test]
    fn chaos_net_report_is_deterministic_and_survives() {
        let base = run_line("chaos --objects 40 --seed 7 --error-rate 0.06").unwrap();
        assert!(
            !base.contains("net_sends"),
            "message-plane rows leaked into the base report:\n{base}"
        );
        let out = run_line("chaos --objects 40 --seed 7 --error-rate 0.06 --net true").unwrap();
        for metric in [
            "writes_attempted,40",
            "under_replicated,0",
            "dirty_entries,0",
        ] {
            assert!(out.contains(metric), "report missing `{metric}`:\n{out}");
        }
        for row in ["net_sends", "net_partitioned_sends", "net_dropped"] {
            let v: u64 = out
                .lines()
                .find_map(|l| l.strip_prefix(&format!("{row},")))
                .unwrap_or_else(|| panic!("report missing `{row}`:\n{out}"))
                .parse()
                .expect("numeric metric");
            assert!(v > 0, "`{row}` never fired:\n{out}");
        }
        assert!(out.contains("# verdict=SURVIVED"), "report:\n{out}");
        // Same seed, same drill, byte-identical report.
        assert_eq!(
            out,
            run_line("chaos --objects 40 --seed 7 --error-rate 0.06 --net true").unwrap()
        );
        assert_eq!(
            run_line(&format!("{CI_DRILL} --net true")).unwrap(),
            include_str!("../golden/chaos_net.txt")
        );
    }

    /// Loss is reported, not asserted: at two servers and r = 2 both
    /// nodes crash, and the report keeps saying how many acked writes
    /// went with them.
    #[test]
    fn chaos_reports_loss() {
        assert_eq!(
            run_line("chaos --servers 2 --replicas 2").unwrap(),
            include_str!("../golden/chaos_lost.txt")
        );
    }

    #[test]
    fn chaos_rejects_bad_shapes() {
        assert!(run_line("chaos --servers 1").is_err());
        assert!(run_line("chaos --replicas 0").is_err());
        assert!(run_line("chaos --servers 4 --replicas 5").is_err());
        assert!(run_line("chaos --error-rate 1.5").is_err());
        assert!(run_line("chaos --objects 0").is_err());
        // The paper layout's base of 10,000 vnodes covers at most 10,000
        // servers; one more is rejected before any cluster is built.
        assert_eq!(
            run_line("chaos --servers 10001 --objects 10")
                .unwrap_err()
                .0,
            "invalid layout: servers 10001, primaries 1354, base 10000"
        );
    }

    /// The fault windows run to the later crash op: an unbounded one
    /// ticks every node once per op up to it, or overflows the window.
    #[test]
    fn chaos_rejects_unbounded_crash_ops() {
        for (line, err) in [
            (
                "chaos --crash1 18446744073709551615",
                "--crash1 must be at most 1000000",
            ),
            ("chaos --crash1 1000001", "--crash1 must be at most 1000000"),
            ("chaos --crash2 1000001", "--crash2 must be at most 1000000"),
        ] {
            assert_eq!(run_line(line).unwrap_err().0, err, "{line}");
        }
    }

    /// The write phase makes one put per object: an oversized
    /// `--objects` is a parse error, not a drill that never ends.
    #[test]
    fn chaos_caps_objects() {
        for n in ["1000001", "100000000000"] {
            let err = run_line(&format!("chaos --objects {n}")).unwrap_err();
            assert_eq!(
                err.0, "--objects must be within 1..=1000000",
                "--objects {n}"
            );
        }
    }

    #[test]
    fn unknown_command_and_flags_error() {
        assert!(run_line("frobnicate").is_err());
        assert!(run_line("layout --bogus 3").is_err());
        assert!(run_line("place stray").is_err());
    }

    /// `ech` has no `bench` subcommand and `chaos` no `--placement` flag:
    /// the cluster always places on the ring.
    #[test]
    fn retired_placement_surface_is_rejected() {
        let err = run_line("bench placement").unwrap_err();
        assert!(err.0.contains("unknown subcommand `bench`"), "{}", err.0);
        let err = run_line("chaos --placement jump").unwrap_err();
        assert!(err.0.starts_with("unknown flag --placement"), "{}", err.0);
    }
}
