//! `ech-check bench modelcheck`: measure what the partial-order reduction
//! buys at the declared per-model bounds.
//!
//! Every registered model runs twice per mode — reduction on and off —
//! in each mode where it is meaningful (sequentially consistent always,
//! weak memory always, message fates when the model declares a budget).
//! Schedule counts are fully deterministic (rule D1: the explorer is
//! seed-free DFS), so the committed `BENCH_modelcheck.json` doubles as a
//! regression gate: the CI smoke job re-runs the grid and compares
//! every entry's counts exactly. The aggregate reduction ratio is
//! reported, not gated: a simpler data path can shrink the full count
//! more than the reduced one, and a floor on their ratio would fail CI
//! for that.
//!
//! Wall times are reported for context but never gated on — they vary
//! with the machine; the schedule counts do not.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schedule budget per run: generous enough that every model stays
/// exhaustive at its declared bound even with reduction off.
const MAX_SCHEDULES: usize = 500_000;

/// Round to `digits` decimals, so a JSON report carries the precision
/// the measurement supports rather than seventeen digits of noise.
pub fn rounded(x: f64, digits: i32) -> f64 {
    let scale = 10f64.powi(digits);
    (x * scale).round() / scale
}

/// One (model, mode) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Entry {
    pub model: String,
    pub mode: String,
    pub bound: usize,
    pub msg_budget: usize,
    /// Schedules explored with reduction off.
    pub full_schedules: usize,
    /// Schedules run to completion with reduction on.
    pub reduced_schedules: usize,
    /// Runs abandoned mid-execution by the sleep set (reduction on).
    pub reduced_blocked: usize,
    /// Wall times: context only, never compared.
    pub full_ms: f64,
    pub reduced_ms: f64,
}

/// The whole grid plus aggregates, in the shape of
/// `BENCH_modelcheck.json` (field order is the file's order; the
/// committed report is diffed across PRs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McBenchReport {
    pub bench: String,
    pub entries: Vec<Entry>,
    pub total_full_schedules: usize,
    pub total_reduced_schedules: usize,
    /// `total_full / total_reduced` — the factor the reduction removes
    /// (information only; [`check_against`] does not gate on it).
    pub reduction_ratio: f64,
}

impl McBenchReport {
    /// The JSON report `ech-check bench modelcheck` prints.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// Explore `model` once under `cfg`, returning (schedules, blocked,
/// wall ms). Expected-failure mutants stop at the planted violation in
/// both configurations, so their counts are comparable too.
fn measure(
    m: &'static crate::mc_models::Model,
    weak: bool,
    msg_budget: usize,
    reduce: bool,
) -> (usize, usize, f64) {
    let cfg = ech_modelcheck::Config {
        max_preemptions: m.bound,
        max_schedules: MAX_SCHEDULES,
        weak,
        msg_budget,
        reduce,
    };
    let t = Instant::now();
    let report = ech_modelcheck::explore(m.name, &cfg, |env| m.build(env));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (report.schedules, report.blocked, ms)
}

/// Run the measurement grid. `smoke` currently runs the identical grid
/// (the schedule space is small enough for CI); the flag is accepted
/// for symmetry with the other bench groups.
pub fn run(_smoke: bool) -> McBenchReport {
    let mut entries = Vec::new();
    for m in crate::mc_models::MODELS {
        let mut modes: Vec<(&'static str, bool, usize)> = vec![("sc", false, 0), ("weak", true, 0)];
        if m.msg_budget > 0 {
            modes.push(("msg", false, m.msg_budget));
        }
        for (mode, weak, budget) in modes {
            let (full, _, full_ms) = measure(m, weak, budget, false);
            let (reduced, blocked, reduced_ms) = measure(m, weak, budget, true);
            entries.push(Entry {
                model: m.name.to_owned(),
                mode: mode.to_owned(),
                bound: m.bound,
                msg_budget: budget,
                full_schedules: full,
                reduced_schedules: reduced,
                reduced_blocked: blocked,
                full_ms: rounded(full_ms, 1),
                reduced_ms: rounded(reduced_ms, 1),
            });
        }
    }
    let total_full: usize = entries.iter().map(|e| e.full_schedules).sum();
    let total_reduced: usize = entries.iter().map(|e| e.reduced_schedules).sum();
    McBenchReport {
        bench: "modelcheck".to_owned(),
        entries,
        total_full_schedules: total_full,
        total_reduced_schedules: total_reduced,
        reduction_ratio: match total_reduced {
            0 => 0.0,
            n => rounded(total_full as f64 / n as f64, 2),
        },
    }
}

/// Did `e`'s runs explore their whole bounded schedule space? Not for a
/// mutant caught in `e`'s mode: both DFSs stop at the planted bug, and
/// the reduced one may reach it later.
fn exhaustive(e: &Entry) -> bool {
    crate::mc_models::MODELS
        .iter()
        .find(|m| m.name == e.model)
        .is_some_and(|m| !m.expects_failure_with(e.mode == "weak", e.mode == "msg", false))
}

/// Compare fresh numbers against the committed reference. Schedule
/// counts must match exactly (they are deterministic), and no entry
/// whose runs are exhaustive may explore more schedules with reduction
/// on than off. Returns a verdict line on success, an error description
/// on any mismatch.
pub fn check_against(report: &McBenchReport, reference: &str) -> Result<String, String> {
    let parsed: McBenchReport = serde_json::from_str(reference)
        .map_err(|e| format!("reference is not a valid modelcheck bench report: {e}"))?;
    let mut problems = Vec::new();
    if report.total_full_schedules != parsed.total_full_schedules {
        problems.push(format!(
            "total full-DFS schedules changed: reference {}, fresh {}",
            parsed.total_full_schedules, report.total_full_schedules
        ));
    }
    if report.total_reduced_schedules != parsed.total_reduced_schedules {
        problems.push(format!(
            "total reduced schedules changed: reference {}, fresh {}",
            parsed.total_reduced_schedules, report.total_reduced_schedules
        ));
    }
    for e in report.entries.iter().filter(|e| exhaustive(e)) {
        if e.reduced_schedules > e.full_schedules {
            problems.push(format!(
                "reduction explored more than the full DFS: {} ({}) reduced {} > full {}",
                e.model, e.mode, e.reduced_schedules, e.full_schedules
            ));
        }
    }
    // Per-entry drill-down so a drift names the model, not just totals.
    for (e, r) in report.entries.iter().zip(&parsed.entries) {
        let same = r.model == e.model
            && r.mode == e.mode
            && r.full_schedules == e.full_schedules
            && r.reduced_schedules == e.reduced_schedules;
        if !same {
            problems.push(format!(
                "entry drifted: {} ({}) now full {} / reduced {} (reference: {} ({}) full {} / reduced {})",
                e.model,
                e.mode,
                e.full_schedules,
                e.reduced_schedules,
                r.model,
                r.mode,
                r.full_schedules,
                r.reduced_schedules
            ));
        }
    }
    if parsed.entries.len() != report.entries.len() {
        problems.push(format!(
            "entry count changed: reference {}, fresh {}",
            parsed.entries.len(),
            report.entries.len()
        ));
    }
    if problems.is_empty() {
        Ok(format!(
            "modelcheck bench check: ok ({} -> {} schedules, {:.2}x reduction)",
            report.total_full_schedules, report.total_reduced_schedules, report.reduction_ratio
        ))
    } else {
        Err(format!(
            "modelcheck bench check failed: {}",
            problems.join("; ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(model: &str, full: usize, reduced: usize) -> Entry {
        Entry {
            model: model.to_owned(),
            mode: "sc".to_owned(),
            bound: 2,
            msg_budget: 0,
            full_schedules: full,
            reduced_schedules: reduced,
            reduced_blocked: 0,
            full_ms: 0.0,
            reduced_ms: 0.0,
        }
    }

    fn report(entries: Vec<Entry>) -> McBenchReport {
        let full = entries.iter().map(|e| e.full_schedules).sum();
        let reduced = entries.iter().map(|e| e.reduced_schedules).sum();
        McBenchReport {
            bench: "modelcheck".to_owned(),
            entries,
            total_full_schedules: full,
            total_reduced_schedules: reduced,
            reduction_ratio: full as f64 / reduced as f64,
        }
    }

    #[test]
    fn check_gates_reduced_above_full_per_entry_not_the_aggregate_ratio() {
        // Reduction buys nothing here (ratio 1.0): matching counts pass.
        let flat = report(vec![
            entry("publish-vs-read", 3, 3),
            entry("cache-coherence", 2, 2),
        ]);
        assert!(check_against(&flat, &flat.to_json()).is_ok());
        // An exhaustive entry exploring more with reduction on fails,
        // even though the aggregate ratio is above 1 and the counts
        // match the file.
        let worse = report(vec![
            entry("publish-vs-read", 40, 2),
            entry("cache-coherence", 2, 3),
        ]);
        let err = check_against(&worse, &worse.to_json()).unwrap_err();
        assert!(
            err.contains("cache-coherence (sc) reduced 3 > full 2"),
            "{err}"
        );
        assert!(!err.contains("publish-vs-read"), "{err}");
        // A mutant's counts are schedules until the bug is caught, which
        // reduction does not order.
        let caught = report(vec![entry("seeded-stamp-bug", 2, 8)]);
        assert!(check_against(&caught, &caught.to_json()).is_ok());
    }
}
