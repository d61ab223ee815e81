//! One workload, one process: set-up, repetitions, closing cycles, final
//! oracle, and the metrics of the requested tier.

use crate::metrics::{Measured, MetricSet, ResultLine, END_TO_END, PER_LAYER};
use crate::stats::{latency_summary, median, percentile};
use crate::workload::{Bench, Counters, CycleOut, RepOut, Spec};
use crate::{probes, trace};
use std::collections::BTreeMap;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Keys a run preloads over all its set-ups: a workload with fewer keys
/// sets up more often (3 to 9 times, fixed per workload), because a short
/// set-up is the noisier one. `setup_s` is the median.
const SETUP_KEYS: u64 = 786_432;
/// Timed repetitions a run never goes below, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Same, per kind, when untraced and traced repetitions alternate.
const MIN_REPS_EACH_TRACED: usize = 2;
/// A workload whose repetitions are not cycles runs one closing cycle after
/// every this many of them, so that the cycles' figures are medians over
/// the same stretch of the machine's time as the repetitions' are.
const REPS_PER_CLOSING_CYCLE: usize = 2;
/// Closing cycles such a run never goes below.
const MIN_CLOSING_CYCLES: usize = 3;

/// Where trace files and reports go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Latency of one operation type over one repetition.
#[derive(Debug, Clone)]
struct Latency {
    p50: f64,
    p99: f64,
    mean: f64,
    text: String,
}

impl Latency {
    fn of(samples: &mut [u32]) -> Option<Latency> {
        if samples.is_empty() {
            return None;
        }
        Some(Latency {
            p50: f64::from(percentile(samples, 0.5)),
            p99: f64::from(percentile(samples, 0.99)),
            mean: samples.iter().map(|&s| f64::from(s)).sum::<f64>() / samples.len() as f64,
            text: latency_summary(samples),
        })
    }
}

/// A repetition reduced to the numbers the report needs, so that sample
/// buffers do not pile up across repetitions.
#[derive(Debug, Clone)]
struct Rep {
    ops_s: f64,
    gets: u64,
    puts: u64,
    distinct_puts: u64,
    get: Option<Latency>,
    put: Option<Latency>,
    delta: Counters,
    cycle: Option<CycleOut>,
    harness_self_ns: u64,
}

impl Rep {
    fn of(mut out: RepOut) -> Rep {
        Rep {
            ops_s: out.phase.ops_s(),
            gets: out.phase.gets,
            puts: out.phase.puts,
            distinct_puts: out.phase.distinct_puts,
            get: Latency::of(&mut out.phase.get_ns),
            put: Latency::of(&mut out.phase.put_ns),
            delta: out.delta,
            cycle: out.cycle,
            harness_self_ns: out.harness_self_ns,
        }
    }

    fn cycle(&self) -> &CycleOut {
        self.cycle
            .as_ref()
            .expect("cycle figures are only read from repetitions that are cycles")
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One figure of every repetition, in order, for the `#` lines.
fn each(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> String {
    let each: Vec<String> = reps.iter().map(|r| format!("{:.0}", f(r))).collect();
    each.join(" ")
}

/// Distinct objects written while degraded per second of wall time from
/// size-up to an empty dirty table. The numerator is the workload's, so
/// de-duplicating the table reads as a gain, not as a smaller job.
fn drain_objs_s(cycle: &Rep) -> f64 {
    cycle.distinct_puts as f64 / cycle.cycle().drain_s
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// The repetitions a figure about `op` comes from: the workload's own if
/// its loop issues that operation, its closing cycles otherwise.
fn source<'a>(main: &'a [Rep], closing: &'a [Rep], has: impl Fn(&Rep) -> bool) -> &'a [Rep] {
    if main.first().is_some_and(has) {
        main
    } else {
        closing
    }
}

fn get_of(rep: &Rep) -> &Latency {
    rep.get
        .as_ref()
        .expect("a repetition chosen for its gets timed some")
}

fn put_of(rep: &Rep) -> &Latency {
    rep.put
        .as_ref()
        .expect("a repetition chosen for its puts timed some")
}

/// CPU time the hypervisor took from this machine so far, in clock ticks
/// (the `steal` column of `/proc/stat`); 0 where the file has none.
fn stolen_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.strip_prefix("cpu ")?;
            cpu.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Run `spec` and return its result line, printing every figure by name
/// on the way.
pub fn run(spec: Spec, seed: u64, seconds: f64, traced_run: bool) -> ResultLine {
    let (mut attempted, mut failed) = (0, 0);
    let stolen_before = stolen_ticks();
    let setups = (SETUP_KEYS / spec.keys).clamp(3, 9);
    let mut setup_s = Vec::new();
    let mut bench: Option<Bench> = None;
    for _ in 0..setups {
        // The previous cluster goes first, so peak memory is one cluster's.
        if let Some(old) = bench.take() {
            attempted += old.attempted;
            failed += old.failed;
        }
        let t = Instant::now();
        bench = Some(Bench::setup(spec, seed, traced_run));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");

    bench.rep(false); // discarded
    let (mut plain, mut traced, mut closing) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss = None;
    let start = Instant::now();
    loop {
        let nth = plain.len() + traced.len();
        let trace_this = traced_run && nth % 2 == 1;
        let rep = Rep::of(bench.rep(trace_this));
        if trace_this {
            traced.push(rep);
        } else {
            plain.push(rep);
        }
        if !spec.cycle && (nth + 1) % REPS_PER_CLOSING_CYCLE == 0 {
            closing.push(Rep::of(bench.closing_cycle(traced_run)));
        }
        let enough_reps = if traced_run {
            plain.len().min(traced.len()) >= MIN_REPS_EACH_TRACED
        } else {
            plain.len() >= MIN_REPS
        };
        let enough = enough_reps && (spec.cycle || closing.len() >= MIN_CLOSING_CYCLES);
        if enough {
            // Taken once, after the same work in every run: memory grows a
            // little with every cycle, and how many fit varies.
            peak_rss.get_or_insert_with(peak_rss_mb);
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }
    bench.final_oracle();
    attempted += bench.attempted;
    failed += bench.failed;

    println!("# {}: {}", spec.name, spec.why);
    println!(
        "# {} seed={seed} clients={} keys={} ops/rep/client={} reps: {} untraced, {} traced, {} closing cycles",
        spec.name,
        bench.clients(),
        spec.keys,
        spec.ops,
        plain.len(),
        traced.len(),
        closing.len()
    );
    println!(
        "# ops/s by untraced repetition: {}",
        each(&plain, |r| r.ops_s)
    );
    println!(
        "# drained objects/s by cycle: {}",
        each(if spec.cycle { &plain } else { &closing }, drain_objs_s)
    );
    // Not a metric, but the first thing to look at when two runs disagree:
    // a host that takes a vCPU away halves everything that uses two.
    println!(
        "# cpu stolen by the host during this run: {} ticks",
        stolen_ticks() - stolen_before
    );
    let metrics = if traced_run {
        let path = out_dir().join(format!("trace-{}.json", spec.name));
        write_trace(&path, spec.name, seed, &bench).expect("write the trace file");
        println!("# spans written to {}", path.display());
        per_layer(spec, seed, &bench, &plain, &traced, &closing)
    } else {
        let peak_rss = peak_rss.expect("the loop ends only after taking it");
        end_to_end(spec, median(&setup_s), peak_rss, &plain, &closing)
    };
    println!(
        "attempted {attempted} count\nfailed {failed} count\nfail_ratio {} ratio",
        ratio(failed, attempted)
    );
    ResultLine {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

fn write_trace(path: &Path, workload: &str, seed: u64, bench: &Bench) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = BufWriter::new(std::fs::File::create(path)?);
    let threads: Vec<&trace::Tracer> = bench.tracers.iter().collect();
    trace::write_json(&mut file, workload, seed, &threads)?;
    std::io::Write::flush(&mut file)
}

fn print_latency(op: &str, reps: &[Rep], pick: impl Fn(&Rep) -> Option<&Latency>) {
    if let Some(l) = reps.first().and_then(pick) {
        println!("# {op} latency, first repetition: {}", l.text);
    }
}

fn finish(set: MetricSet) -> BTreeMap<String, Measured> {
    let values = set.finish();
    for (name, m) in &values {
        println!("{name} {} {}", m.value, m.unit);
    }
    values
}

fn end_to_end(
    spec: Spec,
    setup_s: f64,
    peak_rss_mb: f64,
    plain: &[Rep],
    closing: &[Rep],
) -> BTreeMap<String, Measured> {
    let gets = source(plain, closing, |r| r.get.is_some());
    let puts = source(plain, closing, |r| r.put.is_some());
    let cycles = if spec.cycle { plain } else { closing };
    print_latency("get", gets, |r| r.get.as_ref());
    print_latency("put", puts, |r| r.put.as_ref());
    println!("# get p50 by repetition: {}", each(gets, |r| get_of(r).p50));
    println!("# put p50 by repetition: {}", each(puts, |r| put_of(r).p50));
    let first = cycles[0].cycle();
    let dirty_bytes = cycles[0].distinct_puts * crate::keys::PAYLOAD_BYTES as u64;

    let mut set = MetricSet::new(&END_TO_END);
    set.set("setup_s", setup_s);
    set.set("ops_s", median_of(plain, |r| r.ops_s));
    set.set("get_p50_ns", median_of(gets, |r| get_of(r).p50));
    set.set("put_p50_ns", median_of(puts, |r| put_of(r).p50));
    set.set(
        "migrated_per_dirty_byte",
        ratio(first.migrated, dirty_bytes),
    );
    set.set("stored_per_user_byte", first.stored_ratio);
    set.set("peak_rss_mb", peak_rss_mb);
    finish(set)
}

fn per_layer(
    spec: Spec,
    seed: u64,
    bench: &Bench,
    plain: &[Rep],
    traced: &[Rep],
    closing: &[Rep],
) -> BTreeMap<String, Measured> {
    let probe = probes::run(&bench.cluster, spec.keys, seed);
    let gets = source(traced, closing, |r| r.get.is_some());
    let puts = source(traced, closing, |r| r.put.is_some());
    let cycles = if spec.cycle { traced } else { closing };
    print_latency("get", gets, |r| r.get.as_ref());
    print_latency("put", puts, |r| r.put.as_ref());

    let mut set = MetricSet::new(&PER_LAYER);
    for (name, value) in &probe {
        set.set(name, *value);
    }

    // Counts: the first traced repetition's client loop.
    let counted = &traced[0];
    let d = counted.delta;
    set.set("core.cache.hit_ratio", ratio(d.hits, d.hits + d.misses));
    set.set(
        "core.cache.lookups_per_get",
        ratio(d.hits + d.misses, counted.gets),
    );
    set.set("core.cache.shard_contention", d.contention as f64);
    set.set("cluster.node.writes_per_put", ratio(d.writes, counted.puts));
    set.set("cluster.node.reads_per_get", ratio(d.reads, counted.gets));
    set.set(
        "cluster.dirty_store.pushes_per_put",
        ratio(d.pushes, counted.puts),
    );
    set.set("cluster.retry.retries", d.retries as f64);

    // Root spans, and what the probes leave unexplained of their mean.
    let get_mean = median_of(gets, |r| get_of(r).mean);
    let put_mean = median_of(puts, |r| put_of(r).mean);
    set.set("cluster.get.mean_ns", get_mean);
    set.set("cluster.get.p99_ns", median_of(gets, |r| get_of(r).p99));
    set.set("cluster.put.mean_ns", put_mean);
    set.set("cluster.put.p99_ns", median_of(puts, |r| put_of(r).p99));
    let (g, gd) = (&gets[0], gets[0].delta);
    let hit_ratio = ratio(gd.hits, gd.hits + gd.misses);
    let get_explained = probe["cluster.retry.wrap_ns"]
        + probe["cluster.dirty_store.header_ns"]
        + ratio(gd.hits + gd.misses, g.gets)
            * (hit_ratio * probe["core.cache.hit_ns"]
                + (1.0 - hit_ratio) * probe["core.cache.miss_ns"])
        + ratio(gd.reads, g.gets) * probe["cluster.node.get_ns"];
    set.set("cluster.get.unattributed_ns", get_mean - get_explained);
    let (p, pd) = (&puts[0], puts[0].delta);
    let place = if p.cycle.is_some() {
        probe["core.view.place_degraded_ns"]
    } else {
        probe["core.view.place_current_ns"]
    };
    let put_explained = place
        + ratio(pd.writes, p.puts)
            * (probe["cluster.node.put_ns"] + probe["cluster.retry.wrap_ns"])
        + probe["cluster.dirty_store.record_write_ns"]
        + ratio(pd.pushes, p.puts) * probe["cluster.dirty_store.push_ns"];
    set.set("cluster.put.unattributed_ns", put_mean - put_explained);

    // The elastic machinery: counts from the first cycle, times medians.
    let first = &cycles[0];
    let c = first.cycle();
    set.set(
        "cluster.resize.down_us",
        median_of(cycles, |r| r.cycle().down_us),
    );
    set.set(
        "cluster.resize.up_us",
        median_of(cycles, |r| r.cycle().up_us),
    );
    set.set("cluster.drain.objs_s", median_of(cycles, drain_objs_s));
    set.set(
        "cluster.heal.busy_s",
        median_of(cycles, |r| r.cycle().heal_s),
    );
    set.set(
        "cluster.reintegrate.busy_s",
        median_of(cycles, |r| r.cycle().reintegrate_s),
    );
    set.set("cluster.reintegrate.tasks", c.reintegration.tasks as f64);
    set.set("cluster.reintegrate.moves", c.reintegration.moves as f64);
    set.set("cluster.reintegrate.bytes", c.reintegration.bytes as f64);
    set.set(
        "cluster.reintegrate.useful_ratio",
        ratio(c.reintegration.tasks as u64, c.dirty_entries),
    );
    set.set(
        "cluster.dirty.entries_per_dirty_obj",
        ratio(c.dirty_entries, first.distinct_puts),
    );
    set.set(
        "cluster.degraded.stored_per_user_byte",
        c.degraded_stored_ratio,
    );

    set.set(
        "bench.harness_self_ns",
        median_of(traced, |r| ratio(r.harness_self_ns, r.gets + r.puts)),
    );
    set.set(
        "trace.overhead_ratio",
        median_of(plain, |r| r.ops_s) / median_of(traced, |r| r.ops_s),
    );
    finish(set)
}
