//! `ech-check` — the checker hosts: the model-checker scenarios, the
//! linearizability harness and the reduction bench. They build the
//! cluster stack with the instrumented sync facades, which is why they
//! are not subcommands of `ech`. See `ech-check help` for usage.

mod bench_mc;
mod commands;
mod mc_models;
#[cfg(test)]
mod reduction_soundness;

fn main() -> std::process::ExitCode {
    ech_cli::main_with(commands::run)
}
