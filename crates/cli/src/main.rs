//! `ech` — command-line interface to the elastic consistent hashing
//! toolkit. See `ech help` for usage.

mod chaos;
mod commands;

fn main() -> std::process::ExitCode {
    ech_cli::main_with(commands::run)
}
