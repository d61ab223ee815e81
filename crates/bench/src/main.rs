//! `ech-bench`: prints every experiment of [`ech_bench::EXPERIMENTS`] in
//! table order, or one with `--only <id>`. Any other arguments print the
//! usage and the ids to stderr and exit with status 2.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match ech_bench::cli(&args) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(usage) => {
            eprint!("{usage}");
            ExitCode::from(2)
        }
    }
}
