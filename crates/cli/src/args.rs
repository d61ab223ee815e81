//! Minimal flag parser (std-only, keeping the dependency set tight).
//!
//! Supports `--key value` pairs and bare subcommands. Unknown flags are
//! errors so typos fail loudly rather than silently using defaults.

use std::collections::HashMap;

/// Parsed command line: a subcommand plus positionals and `--key value`
/// options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The first positional token.
    pub command: String,
    /// Positional tokens after the subcommand (e.g. `modelcheck` in
    /// `ech-check bench modelcheck`). Most commands take none and reject them
    /// via [`Args::no_positionals`]; a grouped command takes exactly one
    /// via [`Args::one_of`].
    pub positionals: Vec<String>,
    /// `--key value` pairs.
    pub options: HashMap<String, String>,
}

/// Parse errors with user-facing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Parse a token stream (without the program name).
pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ParseError> {
    let mut it = tokens.into_iter();
    let command = it
        .next()
        .ok_or_else(|| ParseError("missing subcommand; try `help`".into()))?;
    if command.starts_with("--") {
        return Err(ParseError(format!(
            "expected a subcommand before flags, found {command}"
        )));
    }
    let mut positionals = Vec::new();
    let mut options = HashMap::new();
    while let Some(tok) = it.next() {
        let Some(key) = tok.strip_prefix("--") else {
            positionals.push(tok);
            continue;
        };
        let value = it
            .next()
            .ok_or_else(|| ParseError(format!("flag --{key} needs a value")))?;
        if options.insert(key.to_owned(), value).is_some() {
            return Err(ParseError(format!("flag --{key} given twice")));
        }
    }
    Ok(Args {
        command,
        positionals,
        options,
    })
}

impl Args {
    /// Fetch an option parsed as `T`, or the default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ParseError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse::<T>()
                .map_err(|_| ParseError(format!("invalid value for --{key}: {raw}"))),
        }
    }

    /// Fetch a string option or a default.
    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// Fail when positional arguments were given (for commands that take
    /// only flags — catches stray tokens).
    pub fn no_positionals(&self) -> Result<(), ParseError> {
        match self.positionals.first() {
            None => Ok(()),
            Some(tok) => Err(ParseError(format!(
                "unexpected positional argument {tok} for `{}`",
                self.command
            ))),
        }
    }

    /// The contents of the file a path-valued option names, if given.
    pub fn read_file(&self, key: &str) -> Result<Option<String>, ParseError> {
        let Some(path) = self.options.get(key) else {
            return Ok(None);
        };
        std::fs::read_to_string(path)
            .map(Some)
            .map_err(|e| ParseError(format!("cannot read --{key} {path}: {e}")))
    }

    /// The single positional a grouped command takes (`bench <group>`),
    /// which must be one of `choices`. A missing, extra or unknown name
    /// fails with the list of choices.
    pub fn one_of<'a>(&'a self, what: &str, choices: &[&str]) -> Result<&'a str, ParseError> {
        let available = choices.join(", ");
        match self.positionals.as_slice() {
            [] => Err(ParseError(format!(
                "`{}` needs a {what} (available: {available})",
                self.command
            ))),
            [one] if choices.contains(&one.as_str()) => Ok(one),
            [one] => Err(ParseError(format!(
                "unknown `{}` {what} `{one}` (available: {available})",
                self.command
            ))),
            more => Err(ParseError(format!(
                "`{}` takes one {what}, got {}",
                self.command,
                more.len()
            ))),
        }
    }

    /// Fail on options outside the allowed set (catches typos).
    pub fn allow_only(&self, allowed: &[&str]) -> Result<(), ParseError> {
        for key in self.options.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(ParseError(format!(
                    "unknown flag --{key} for `{}` (allowed: {})",
                    self.command,
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(toks("layout --servers 10 --base 1000")).unwrap();
        assert_eq!(a.command, "layout");
        assert_eq!(a.get_or("servers", 0usize).unwrap(), 10);
        assert_eq!(a.get_or("base", 0u32).unwrap(), 1000);
        assert_eq!(a.get_or("missing", 7u32).unwrap(), 7);
    }

    #[test]
    fn rejects_missing_value_and_duplicates() {
        assert!(parse(toks("place --oid")).is_err());
        assert!(parse(toks("place --oid 1 --oid 2")).is_err());
        assert!(parse(toks("--servers 10")).is_err());
        assert!(parse(Vec::new()).is_err());
    }

    #[test]
    fn positionals_are_collected_and_rejectable() {
        let a = parse(toks("bench modelcheck --smoke true")).unwrap();
        assert_eq!(a.command, "bench");
        assert_eq!(a.positionals, vec!["modelcheck".to_owned()]);
        assert!(a.no_positionals().is_err());
        assert_eq!(a.one_of("group", &["modelcheck"]).unwrap(), "modelcheck");
        let err = a.one_of("group", &["lincheck"]).unwrap_err();
        assert!(err.0.contains("available: lincheck"), "{}", err.0);
        assert!(parse(toks("bench a b"))
            .unwrap()
            .one_of("group", &["a"])
            .is_err());
        let b = parse(toks("place --oid 1")).unwrap();
        assert!(b.positionals.is_empty());
        assert!(b.no_positionals().is_ok());
        let err = b.one_of("group", &["placement"]).unwrap_err();
        assert!(err.0.contains("available: placement"), "{}", err.0);
    }

    #[test]
    fn rejects_bad_values_and_unknown_flags() {
        let a = parse(toks("layout --servers banana")).unwrap();
        assert!(a.get_or("servers", 0usize).is_err());
        let a = parse(toks("layout --nope 1")).unwrap();
        assert!(a.allow_only(&["servers", "base"]).is_err());
        let a = parse(toks("layout --servers 3")).unwrap();
        assert!(a.allow_only(&["servers", "base"]).is_ok());
    }

    #[test]
    fn str_or_defaults() {
        let a = parse(toks("trace --name cc-b")).unwrap();
        assert_eq!(a.str_or("name", "cc-a"), "cc-b");
        assert_eq!(a.str_or("policy", "all"), "all");
    }
}
