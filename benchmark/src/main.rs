//! The repo benchmark: five workloads over the live `ech_cluster::Cluster`,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one. See `benchmark/README.md`.
//!
//! ```text
//! ech-benchmark run [--seed N] [--seconds S] [--out FILE]      all workloads, both passes
//! ech-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1]
//! ech-benchmark compare A.json B.json
//! ```

mod compare;
mod keys;
mod metrics;
mod probes;
mod runner;
mod stats;
mod trace;
mod workload;

use metrics::ResultLine;
use serde::{Deserialize, Serialize};
use std::process::{Command, ExitCode, Stdio};
use workload::{Spec, WORKLOADS};

/// Seconds one run measures for when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Where a report's numbers came from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Provenance {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Cargo features of the measured build. The package defines none and
    /// lives in its own workspace, so nothing can switch on the
    /// instrumented sync facades.
    pub features: Vec<String>,
    /// `std::thread::available_parallelism()`.
    pub available_parallelism: u64,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// `release` or `debug`.
    pub profile: String,
    /// Placement engine of `ClusterConfig::paper()` (`ECH_PLACEMENT`).
    pub placement: String,
    /// CPU model and architecture.
    pub machine: String,
}

/// Both passes of one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: String,
    /// The untraced pass.
    pub end_to_end: ResultLine,
    /// The traced pass.
    pub per_layer: ResultLine,
}

/// What `run` without `--workload` writes and `compare` reads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Where the numbers came from.
    pub provenance: Provenance,
    /// One entry per workload.
    pub workloads: Vec<WorkloadReport>,
}

fn provenance(seed: u64, seconds: f64) -> Provenance {
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown cpu".to_string());
    Provenance {
        seed,
        seconds,
        features: Vec::new(),
        available_parallelism: workload::parallelism() as u64,
        rustc,
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .to_string(),
        placement: ech_cluster::ClusterConfig::paper().placement.to_string(),
        machine: format!("{cpu} ({})", std::env::consts::ARCH),
    }
}

struct RunArgs {
    workload: Option<Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let spec = WORKLOADS.iter().find(|w| w.name == value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!(
                        "unknown workload `{value}` (available: {})",
                        names.join(", ")
                    )
                })?;
                parsed.workload = Some(*spec);
            }
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in 0..=60".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => parsed.out = Some(value.clone()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(parsed)
}

/// One workload in this process; the result is the last line of stdout.
fn run_one(spec: Spec, args: &RunArgs) -> ExitCode {
    let result = runner::run(spec, args.seed, args.seconds, args.trace);
    println!(
        "{}",
        serde_json::to_string(&result).expect("serialize the result line")
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run `spec` as a child process (each workload gets a fresh address
/// space, so set-up time and peak memory are its own) and parse the
/// result line off the end of its output.
fn run_child(spec: &Spec, args: &RunArgs, trace: bool) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let child = Command::new(exe)
        .args(["run", "--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("start {}: {e}", spec.name))?;
    // Reads to end of output, then reaps the child.
    let output = child
        .wait_with_output()
        .map_err(|e| format!("wait for {}: {e}", spec.name))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let (body, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{body}");
    serde_json::from_str(last).map_err(|e| {
        format!(
            "{} (trace {}) ended with {} and no result line: {e}",
            spec.name,
            u8::from(trace),
            output.status
        )
    })
}

/// Every workload, untraced then traced; writes the report.
fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let mut report = Report {
        provenance: provenance(args.seed, args.seconds),
        workloads: Vec::new(),
    };
    println!(
        "# provenance {}",
        serde_json::to_string(&report.provenance).map_err(|e| e.to_string())?
    );
    let pass = |trace| -> Result<Vec<ResultLine>, String> {
        WORKLOADS
            .iter()
            .map(|spec| run_child(spec, args, trace))
            .collect()
    };
    let end_to_end = pass(false)?;
    let per_layer = pass(true)?;
    for ((spec, end_to_end), per_layer) in WORKLOADS.iter().zip(end_to_end).zip(per_layer) {
        report.workloads.push(WorkloadReport {
            name: spec.name.to_string(),
            end_to_end,
            per_layer,
        });
    }
    let path = match &args.out {
        Some(p) => std::path::PathBuf::from(p),
        None => runner::out_dir().join(format!("report-seed{}.json", args.seed)),
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    std::fs::write(&path, json + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# report written to {}", path.display());
    let failed: u64 = report
        .workloads
        .iter()
        .map(|w| w.end_to_end.failed + w.per_layer.failed)
        .sum();
    if failed > 0 {
        println!("# FAILED: {failed} operations or checks failed");
        return Ok(ExitCode::FAILURE);
    }
    println!("# all checks passed on every workload");
    Ok(ExitCode::SUCCESS)
}

fn read_report(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|run| match run.workload {
            Some(spec) => Ok(run_one(spec, &run)),
            None => run_all(&run),
        }),
        Some((cmd, [a, b])) if cmd == "compare" => read_report(a).and_then(|a| {
            let b = read_report(b)?;
            let verdict = compare::compare(&a, &b);
            print!("{}", verdict.text);
            Ok(if verdict.passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }),
        _ => Err("usage: run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] | compare A.json B.json".to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The measured binary must carry the production sync facades: if a
    /// checker crate ever resolves into this workspace, Cargo's feature
    /// unification has handed the cluster its instrumented primitives.
    #[test]
    fn lock_file_names_no_checker_crate() {
        let lock = include_str!("../Cargo.lock");
        for banned in ["ech-modelcheck", "ech-lincheck"] {
            assert!(
                !lock.contains(banned),
                "{banned} resolved into benchmark/Cargo.lock"
            );
        }
        assert!(lock.contains("name = \"ech-cluster\""));
    }

    #[test]
    fn run_flags_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_run(&args("--workload get_spill --seed 9 --seconds 2 --trace 1")).unwrap();
        assert_eq!(ok.workload.map(|w| w.name), Some("get_spill"));
        assert_eq!((ok.seed, ok.seconds, ok.trace), (9, 2.0, true));
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--trace 2")).is_err());
        assert!(parse_run(&args("--seconds 0")).is_err());
        assert!(parse_run(&args("--seed")).is_err());
        assert!(parse_run(&args("--bogus 1")).is_err());
    }

    /// `BENCHMARK.json` is written by hand; it has to say what the
    /// catalogue and the workload table say.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        let better = |m: &metrics::MetricDef| match m.better {
            metrics::Better::Lower => "lower",
            metrics::Better::Higher => "higher",
        };
        for w in &WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", w.name)),
                "workload {}",
                w.name
            );
            assert!(text.contains(w.why), "why of {}", w.name);
            assert!(w.why.len() <= 200);
        }
        for m in &metrics::END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m),
                m.bound
            );
            assert!(text.contains(&entry), "missing or stale: {entry}");
        }
        for m in &metrics::PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m)
            );
            assert!(text.contains(&entry), "missing or stale: {entry}");
        }
        assert!(text.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }
}
