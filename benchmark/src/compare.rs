//! `compare A.json B.json`: B against A (parent against change, or two
//! runs of one commit), metric by metric, workload by workload.

use crate::metrics::{self, Better, MetricDef, ResultLine};
use crate::workload::WORKLOADS;
use crate::Report;
use std::fmt::Write;

/// What `compare` prints and whether B stays within every bound.
pub struct Verdict {
    /// The table.
    pub text: String,
    /// No gated metric worsened past its bound, no exact metric moved at
    /// an equal seed, and nothing failed.
    pub passed: bool,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

fn value(line: &ResultLine, name: &str) -> Option<f64> {
    line.metrics.get(name).map(|m| m.value)
}

/// Compare report `b` against report `a`.
pub fn compare(a: &Report, b: &Report) -> Verdict {
    let mut text = String::new();
    let mut passed = true;
    let same_seed = a.provenance.seed == b.provenance.seed;
    // Infallible: writing to a String.
    let _ = writeln!(
        text,
        "A: seed {} on {} ({} threads, {}, {})\nB: seed {} on {} ({} threads, {}, {})",
        a.provenance.seed,
        a.provenance.machine,
        a.provenance.available_parallelism,
        a.provenance.rustc,
        a.provenance.profile,
        b.provenance.seed,
        b.provenance.machine,
        b.provenance.available_parallelism,
        b.provenance.rustc,
        b.provenance.profile,
    );
    let _ = writeln!(
        text,
        "{:<14} {:<26} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            let _ = writeln!(text, "{:<14} missing from B", wa.name);
            passed = false;
            continue;
        };
        let one_client = WORKLOADS
            .iter()
            .any(|s| s.name == wa.name && s.clients == 1);
        for def in &metrics::END_TO_END {
            let (Some(va), Some(vb)) = (
                value(&wa.end_to_end, def.name),
                value(&wb.end_to_end, def.name),
            ) else {
                let _ = writeln!(text, "{:<14} {:<26} missing", wa.name, def.name);
                passed = false;
                continue;
            };
            let worse = worsening(def, va, vb);
            let verdict = if same_seed && one_client && def.exact && va != vb {
                passed = false;
                "EXACT METRIC MOVED"
            } else if worse > def.bound {
                passed = false;
                "REGRESSION"
            } else {
                "ok"
            };
            let _ = writeln!(
                text,
                "{:<14} {:<26} {:>16.4} {:>16.4} {:>+8.2}% {:>6.1}%  {verdict}",
                wa.name,
                def.name,
                va,
                vb,
                worse * 100.0,
                def.bound * 100.0
            );
        }
        if same_seed && one_client {
            for def in metrics::PER_LAYER.iter().filter(|d| d.exact) {
                let (va, vb) = (
                    value(&wa.per_layer, def.name),
                    value(&wb.per_layer, def.name),
                );
                if va != vb {
                    passed = false;
                    let _ = writeln!(
                        text,
                        "{:<14} {:<26} {va:?} vs {vb:?}  EXACT COUNTER MOVED",
                        wa.name, def.name
                    );
                }
            }
        }
        for (pass, la, lb) in [
            ("untraced", &wa.end_to_end, &wb.end_to_end),
            ("traced", &wa.per_layer, &wb.per_layer),
        ] {
            if la.failed + lb.failed > 0 {
                passed = false;
                let _ = writeln!(
                    text,
                    "{:<14} {pass} pass failed {} of {} in A, {} of {} in B  FAILED",
                    wa.name, la.failed, la.attempted, lb.failed, lb.attempted
                );
            }
        }
    }
    let _ = writeln!(
        text,
        "{}",
        if passed {
            "B is within every bound of A"
        } else {
            "B is NOT within the bounds of A"
        }
    );
    Verdict { text, passed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Measured;
    use crate::{Provenance, WorkloadReport};

    fn line(tier: &[MetricDef], tweak: impl Fn(&str) -> f64) -> ResultLine {
        ResultLine {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: tier
                .iter()
                .map(|m| {
                    let measured = Measured {
                        value: 100.0 * tweak(m.name),
                        unit: m.unit.to_string(),
                    };
                    (m.name.to_string(), measured)
                })
                .collect(),
        }
    }

    fn report(seed: u64, workload: &str, tweak: impl Fn(&str) -> f64 + Copy) -> Report {
        Report {
            provenance: Provenance {
                seed,
                seconds: 10.0,
                features: Vec::new(),
                available_parallelism: 2,
                rustc: "rustc".into(),
                profile: "release".into(),
                placement: "ring".into(),
                machine: "test".into(),
            },
            workloads: vec![WorkloadReport {
                name: workload.into(),
                end_to_end: line(&metrics::END_TO_END, tweak),
                per_layer: line(&metrics::PER_LAYER, tweak),
            }],
        }
    }

    #[test]
    fn within_bounds_passes_and_past_a_bound_fails() {
        let bound = |name| {
            let def = metrics::END_TO_END.iter().find(|m| m.name == name);
            def.expect("catalogued").bound
        };
        let a = report(1, "get_fit", |_| 1.0);
        let with = |name: &'static str, factor: f64| {
            report(1, "get_fit", move |m| if m == name { factor } else { 1.0 })
        };
        // Higher is better: just short of the bound passes, just past fails.
        let b = bound("ops_s");
        assert!(compare(&a, &with("ops_s", 1.0 - b + 0.01)).passed);
        let verdict = compare(&a, &with("ops_s", 1.0 - b - 0.01));
        assert!(!verdict.passed);
        assert!(verdict.text.contains("REGRESSION"));
        assert!(compare(&a, &with("ops_s", 2.0)).passed);
        // Lower is better: the other way round.
        let b = bound("get_p50_ns");
        assert!(compare(&a, &with("get_p50_ns", 1.0 + b - 0.01)).passed);
        assert!(!compare(&a, &with("get_p50_ns", 1.0 + b + 0.01)).passed);
        assert!(compare(&a, &with("get_p50_ns", 0.5)).passed);
    }

    #[test]
    fn exact_metrics_must_not_move_at_an_equal_seed() {
        let a = report(1, "get_fit", |_| 1.0);
        let nudged = |seed, w| {
            report(seed, w, |m| {
                if m == "core.cache.hit_ratio" {
                    1.001
                } else {
                    1.0
                }
            })
        };
        let verdict = compare(&a, &nudged(1, "get_fit"));
        assert!(!verdict.passed);
        assert!(verdict.text.contains("EXACT COUNTER MOVED"));
        // Another seed, or two clients, and counts may legitimately differ.
        assert!(compare(&a, &nudged(2, "get_fit")).passed);
        let two = report(1, "mixed_2c", |_| 1.0);
        assert!(compare(&two, &nudged(1, "mixed_2c")).passed);
    }

    #[test]
    fn failures_and_missing_workloads_fail() {
        let a = report(1, "get_fit", |_| 1.0);
        let mut b = report(1, "get_fit", |_| 1.0);
        b.workloads[0].end_to_end.failed = 1;
        assert!(!compare(&a, &b).passed);
        let other = report(1, "put_full", |_| 1.0);
        assert!(!compare(&a, &other).passed);
    }
}
