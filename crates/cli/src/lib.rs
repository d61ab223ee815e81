//! What the `ech` and `ech-check` binaries share: the flag parser, the
//! table dispatch and the parse → run → print driver. The subcommands themselves live with
//! each binary, so `ech` links the production sync facades and only
//! `ech-check` (`crates/check`) builds the cluster stack instrumented.

pub mod args;

use args::{Args, ParseError};
use std::process::ExitCode;

/// A subcommand: parsed arguments in, printable output out.
pub type Command = fn(&Args) -> Result<String, ParseError>;

/// Run `args.command` from a dispatch table; `None` when the table has
/// no such subcommand.
pub fn dispatch(table: &[(&str, Command)], args: &Args) -> Option<Result<String, ParseError>> {
    let (_, command) = table.iter().find(|(name, _)| *name == args.command)?;
    // Only `bench` takes a positional (the benchmark group name).
    if args.command != "bench" {
        if let Err(e) = args.no_positionals() {
            return Some(Err(e));
        }
    }
    Some(command(args))
}

/// Parse the process arguments, run the subcommand through `run`, and
/// print its output — or `error: ...` on stderr with a failing exit code.
pub fn main_with(run: fn(&Args) -> Result<String, ParseError>) -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(tokens).and_then(|parsed| run(&parsed)) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
