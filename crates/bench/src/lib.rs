//! # ech-bench — the paper's evaluation as one experiment table
//!
//! [`EXPERIMENTS`] holds one row per reproduced table or figure of the
//! paper's evaluation (§II-C and §V), per design-choice ablation and per
//! extension beyond the paper. The `ech-bench` binary prints every row
//! in table order, or one row with `--only <id>`. Its full output is
//! frozen as `golden/reproduce.txt`: the crate's tests rebuild it
//! in-process and compare byte for byte, and check every block that
//! EXPERIMENTS.md quotes from it.
//!
//! Performance of the live cluster is measured by the repo benchmark
//! (`benchmark/`), not here.

use std::fmt::Display;

/// `println!` into an experiment's output buffer.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

mod ablation;
mod extension;
mod paper;

/// One experiment: a row of [`EXPERIMENTS`].
pub struct Experiment {
    /// The name `--only` selects the experiment by.
    pub id: &'static str,
    /// The title of the banner printed above the experiment's output.
    pub caption: &'static str,
    /// Appends the experiment's output, banner excluded.
    pub run: fn(&mut String),
}

/// Every experiment, in the order `ech-bench` prints them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "fig2_resize_agility",
        caption: "Figure 2: resize agility: ideal schedule vs consistent hashing",
        run: paper::fig2_resize_agility,
    },
    Experiment {
        id: "fig3_resize_impact",
        caption: "Figure 3: 3-phase workload: original CH with resizing vs no resizing",
        run: paper::fig3_resize_impact,
    },
    Experiment {
        id: "fig5_equal_work_layout",
        caption: "Figure 5: equal-work data layout and data re-integration between versions",
        run: paper::fig5_equal_work_layout,
    },
    Experiment {
        id: "fig7_selective_reintegration",
        caption: "Figure 7: 3-phase workload: selective vs original CH vs no resizing",
        run: paper::fig7_selective_reintegration,
    },
    Experiment {
        id: "fig8_cc_a",
        caption: "Figure 8: CC-a trace: servers needed under four policies",
        run: |out| paper::trace_policies(out, ech_traces::synth::cc_a(), [6.3, 8.5]),
    },
    Experiment {
        id: "fig9_cc_b",
        caption: "Figure 9: CC-b trace: servers needed under four policies",
        run: |out| paper::trace_policies(out, ech_traces::synth::cc_b(), [9.3, 12.1]),
    },
    Experiment {
        id: "table1_trace_specs",
        caption: "Table I: trace specifications (synthetic, Table-I calibrated)",
        run: paper::table1_trace_specs,
    },
    Experiment {
        id: "table2_machine_hours",
        caption: "Table II: machine-hour usage relative to the ideal case",
        run: paper::table2_machine_hours,
    },
    Experiment {
        id: "ablation_vnode_fairness",
        caption: "Ablation: fairness base B vs equal-work layout fidelity (n=10, r=2, 50k objects)",
        run: ablation::vnode_fairness,
    },
    Experiment {
        id: "ablation_rate_limit",
        caption: "Ablation: selective re-integration rate limit (3-phase workload, 120s valley)",
        run: ablation::rate_limit,
    },
    Experiment {
        id: "ablation_primary_count",
        caption: "Ablation: primary count p: power floor vs primary-set write load (n=10, r=2)",
        run: ablation::primary_count_sweep,
    },
    Experiment {
        id: "ablation_header_tracking",
        caption: "Ablation: header tracking vs redundant migration moves (rewrite-heavy history)",
        run: ablation::header_tracking,
    },
    Experiment {
        id: "ext_greencht_comparison",
        caption: "Extension: GreenCHT tier granularity vs one-server elastic resizing (CC-a)",
        run: extension::greencht_comparison,
    },
    Experiment {
        id: "ext_des_tail_latency",
        caption: "Extension: read-latency tail under re-integration (4 MB reads @160 MB/s offered)",
        run: extension::des_tail_latency,
    },
];

/// Run `ech-bench` on its arguments, program name excluded: no
/// arguments give every experiment's output in table order, and
/// `--only <id>` gives one experiment's. Anything else is an error
/// whose text is the usage and the list of ids.
pub fn cli(args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    match args {
        [] => EXPERIMENTS.iter().for_each(|e| render(e, &mut out)),
        [flag, id] if flag == "--only" => match EXPERIMENTS.iter().find(|e| e.id == id) {
            Some(e) => render(e, &mut out),
            None => return Err(format!("error: unknown experiment `{id}`\n{}", usage())),
        },
        _ => return Err(usage()),
    }
    Ok(out)
}

fn usage() -> String {
    let mut text = String::from("usage: ech-bench [--only <id>]\n\nids:\n");
    for e in EXPERIMENTS {
        outln!(text, "  {:<30} {}", e.id, e.caption);
    }
    text
}

fn render(e: &Experiment, out: &mut String) {
    banner(out, e.caption);
    (e.run)(out);
}

/// Append the banner that opens an experiment's output.
fn banner(out: &mut String, caption: &str) {
    outln!(
        out,
        "================================================================"
    );
    outln!(out, "{caption}");
    outln!(
        out,
        "================================================================"
    );
}

/// Append one aligned data row (12-char columns).
fn row<D: Display>(out: &mut String, cells: &[D]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>12}")).collect();
    outln!(out, "{}", line.join(" "));
}

/// Format bytes/s as MB/s with one decimal.
fn mbps(bytes_per_sec: f64) -> String {
    format!("{:.1}", bytes_per_sec / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &str = include_str!("../golden/reproduce.txt");

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    /// Experiment `i`'s slice of the golden: from its banner to the
    /// next experiment's.
    fn slice(i: usize) -> &'static str {
        let start = |i: usize| {
            EXPERIMENTS.get(i).map_or(GOLDEN.len(), |e| {
                let mut b = String::new();
                banner(&mut b, e.caption);
                GOLDEN.find(&b).expect("every banner is in the golden")
            })
        };
        &GOLDEN[start(i)..start(i + 1)]
    }

    fn doc(name: &str) -> String {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// The `(id, block)` pairs EXPERIMENTS.md quotes: a line
    /// `<!-- reproduce:<id> -->`, a fenced `text` block, then a line
    /// `<!-- /reproduce -->`.
    fn quotes(doc: &str) -> Vec<(String, String)> {
        let mut found = Vec::new();
        let mut lines = doc.lines();
        while let Some(line) = lines.next() {
            let Some(id) = line
                .strip_prefix("<!-- reproduce:")
                .and_then(|l| l.strip_suffix(" -->"))
            else {
                continue;
            };
            assert_eq!(lines.next(), Some("```text"), "quote of `{id}` opens");
            let mut body = String::new();
            for line in lines.by_ref().take_while(|l| *l != "```") {
                body.push_str(line);
                body.push('\n');
            }
            assert_eq!(
                lines.next(),
                Some("<!-- /reproduce -->"),
                "quote of `{id}` closes"
            );
            found.push((id.to_owned(), body));
        }
        found
    }

    #[test]
    fn mbps_formats() {
        assert_eq!(mbps(20_000_000.0), "20.0");
        assert_eq!(mbps(312_500_000.0), "312.5");
    }

    /// The experiments are a pure function of the code: a change that
    /// moves any number regenerates the golden and says why
    /// (`ech-bench > crates/bench/golden/reproduce.txt`).
    #[test]
    fn full_run_matches_the_golden() {
        assert_eq!(cli(&[]).expect("no arguments run everything"), GOLDEN);
    }

    /// Run alone, each experiment prints exactly its slice of the full
    /// run, so no experiment depends on state an earlier one left.
    #[test]
    fn each_only_run_is_its_slice_of_the_golden() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            let out = cli(&args(&["--only", e.id])).expect("a table id runs");
            assert_eq!(out, slice(i), "`--only {}`", e.id);
        }
    }

    #[test]
    fn ids_and_captions_are_unique() {
        for (i, a) in EXPERIMENTS.iter().enumerate() {
            for b in &EXPERIMENTS[i + 1..] {
                assert_ne!(a.id, b.id);
                assert_ne!(a.caption, b.caption, "slices are found by banner");
            }
        }
    }

    #[test]
    fn bad_arguments_print_usage_with_every_id() {
        for bad in [
            &["--only", "fig4"][..],
            &["--only"],
            &["reproduce"],
            &["--only", "a", "b"],
        ] {
            let err = cli(&args(bad)).expect_err("rejected");
            assert!(err.contains("usage: ech-bench"), "{bad:?}: {err}");
            for e in EXPERIMENTS {
                assert!(err.contains(e.id), "{bad:?} does not list `{}`", e.id);
            }
        }
        assert!(cli(&args(&["--only", "fig4"]))
            .unwrap_err()
            .contains("unknown experiment `fig4`"));
    }

    /// Every number EXPERIMENTS.md quotes is the golden's, under the
    /// experiment that printed it, and every experiment is quoted.
    #[test]
    fn experiments_md_quotes_match_the_golden() {
        let quotes = quotes(&doc("EXPERIMENTS.md"));
        for (id, body) in &quotes {
            let i = EXPERIMENTS
                .iter()
                .position(|e| e.id == id)
                .unwrap_or_else(|| panic!("EXPERIMENTS.md quotes unknown id `{id}`"));
            assert!(!body.trim().is_empty(), "empty quote of `{id}`");
            assert!(
                format!("\n{}", slice(i)).contains(&format!("\n{body}")),
                "EXPERIMENTS.md's quote of `{id}` is not in its golden slice:\n{body}"
            );
        }
        for e in EXPERIMENTS {
            assert!(
                quotes.iter().any(|(id, _)| id == e.id),
                "`{}` is never quoted",
                e.id
            );
        }
    }

    #[test]
    fn docs_name_only_table_ids() {
        for name in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
            let text = doc(name);
            for (at, flag) in text.match_indices("--only ") {
                let id: String = text[at + flag.len()..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                assert!(
                    id.is_empty() || EXPERIMENTS.iter().any(|e| e.id == id),
                    "{name} runs `--only {id}`, which is no experiment"
                );
            }
        }
    }
}
