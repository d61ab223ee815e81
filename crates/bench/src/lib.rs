//! # ech-bench — experiment harnesses
//!
//! One binary per table/figure of the paper's evaluation (run with
//! `cargo run -p ech-bench --release --bin <name>`):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig2_resize_agility` | Figure 2 — resize agility, original CH vs ideal |
//! | `fig3_resize_impact` | Figure 3 — 3-phase throughput, resizing vs not |
//! | `fig5_equal_work_layout` | Figure 5 — per-rank distribution across versions |
//! | `fig7_selective_reintegration` | Figure 7 — selective vs original re-integration |
//! | `fig8_cc_a` | Figure 8 — CC-a policy comparison |
//! | `fig9_cc_b` | Figure 9 — CC-b policy comparison |
//! | `table1_trace_specs` | Table I — trace envelopes |
//! | `table2_machine_hours` | Table II — relative machine-hours |
//! | `ablation_vnode_fairness` | ablation: fairness base `B` vs imbalance |
//! | `ablation_rate_limit` | ablation: migration rate limit vs recovery |
//! | `ablation_primary_count` | ablation: primary count vs minimum power |
//! | `ablation_header_tracking` | ablation: header tracking vs redundant moves |
//! | `ext_resize_controllers` | extension: reactive/smoothed/predictive sizing |
//! | `ext_greencht_comparison` | extension: GreenCHT tier granularity (§VI) |
//! | `ext_des_tail_latency` | extension: read-latency tails under migration |
//! | `ext_dynamic_primaries` | extension: SpringFS-style dynamic primary count |
//! | `ext_closed_loop` | extension: controller + cluster end to end |
//!
//! Performance of the live cluster is measured by the repo benchmark
//! (`benchmark/`), not here.

use std::fmt::Display;

/// Print a header line for an experiment harness.
pub fn banner(id: &str, caption: &str) {
    println!("================================================================");
    println!("{id}: {caption}");
    println!("================================================================");
}

/// Print one aligned data row (12-char columns).
pub fn row<D: Display>(cells: &[D]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>12}")).collect();
    println!("{}", line.join(" "));
}

/// Format bytes/s as MB/s with one decimal.
pub fn mbps(bytes_per_sec: f64) -> String {
    format!("{:.1}", bytes_per_sec / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbps_formats() {
        assert_eq!(mbps(20_000_000.0), "20.0");
        assert_eq!(mbps(312_500_000.0), "312.5");
    }
}
