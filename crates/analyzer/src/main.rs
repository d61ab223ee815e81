//! `ech-analyzer [--root DIR]`: the workspace's one lint gate. Lints
//! `crates/*/src` under DIR and exits 1 on any finding.

use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

/// Print every finding and return the exit code: 0 when there are
/// none, 1 when there are any, 2 on a usage or read error.
fn run(args: &[String]) -> i32 {
    let root = match args {
        [] => PathBuf::from("."),
        [flag, dir] if flag == "--root" => PathBuf::from(dir),
        [flag] if flag == "--help" || flag == "-h" => {
            println!(
                "ech-analyzer: workspace invariant linter (rules D1-D10)\n\n\
                 USAGE: ech-analyzer [--root DIR]\n\n\
                 Lints crates/*/src under DIR (default: .) and exits 1 on any finding;\n\
                 `// ech-allow(<rule>): reason` suppresses one line."
            );
            return 0;
        }
        _ => {
            eprintln!("error: unexpected arguments {args:?} (try --help)");
            return 2;
        }
    };
    let files = match ech_analyzer::collect_workspace_sources(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "error: cannot read workspace sources under {}: {e}",
                root.display()
            );
            return 2;
        }
    };
    let findings = ech_analyzer::analyze(&files);
    for f in &findings {
        println!("error[{}]: {}", f.rule, f.message);
        println!("  --> {}:{}", f.file, f.line);
    }
    println!("{} finding(s)", findings.len());
    i32::from(!findings.is_empty())
}
