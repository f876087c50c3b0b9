//! The one command-line reader behind every binary in the workspace
//! (`smtselect`, `repro`, `calibrate`, `inspect`).
//!
//! A command pulls exactly the flags it reads from [`Flags`], each with
//! its default, then calls [`Flags::finish`]: whatever flag is left over
//! is one no command asked for and is rejected, so per-command flag
//! validity needs no per-command lists. [`main`] is the single place a
//! binary turns an [`Error`] into an exit code.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use smt_sim::Error;

/// A command line, consumed flag by flag. A flag given twice keeps its
/// last value; a value never starts with `--`, so `--out --json` is a
/// missing value, not a file named `--json`.
#[derive(Debug)]
pub struct Flags {
    args: Vec<Option<String>>,
}

impl Flags {
    /// Wrap the arguments after the program (and command) name.
    pub fn new(args: impl IntoIterator<Item = String>) -> Flags {
        Flags {
            args: args.into_iter().map(Some).collect(),
        }
    }

    /// The value of `name` parsed as `T`, or `None` when it is absent. A
    /// missing or unparsable value is an [`Error::Config`] naming the flag.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, Error>
    where
        T::Err: Display,
    {
        let mut out = None;
        for i in 0..self.args.len() {
            if self.args[i].as_deref() != Some(name) {
                continue;
            }
            self.args[i] = None;
            let raw = self
                .args
                .get_mut(i + 1)
                .and_then(|next| next.take_if(|v| !v.starts_with("--")))
                .ok_or_else(|| Error::Config(format!("{name} needs a value")))?;
            let parsed = raw
                .parse()
                .map_err(|e| Error::Config(format!("{name} {raw:?}: {e}")))?;
            out = Some(parsed);
        }
        Ok(out)
    }

    /// The value of `name` parsed as `T`, or `default` when it is absent.
    pub fn get<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, Error>
    where
        T::Err: Display,
    {
        Ok(self.value(name)?.unwrap_or(default))
    }

    /// Whether the value-less flag `name` was given.
    pub fn switch(&mut self, name: &str) -> bool {
        let mut seen = false;
        for arg in self.args.iter_mut().filter(|a| a.as_deref() == Some(name)) {
            *arg = None;
            seen = true;
        }
        seen
    }

    /// The positional arguments, in order, once every flag the command
    /// reads has been taken. Any flag still present is unknown here.
    pub fn finish(self) -> Result<Vec<String>, Error> {
        let rest: Vec<String> = self.args.into_iter().flatten().collect();
        match rest.iter().find(|a| a.starts_with('-') && a.len() > 1) {
            Some(flag) => Err(Error::Config(format!("unknown flag {flag}"))),
            None => Ok(rest),
        }
    }
}

/// Positional argument `index` (named `name` in errors) parsed as `T`, or
/// `default` when there are fewer positionals.
pub fn positional<T: FromStr>(
    args: &[String],
    index: usize,
    name: &str,
    default: T,
) -> Result<T, Error>
where
    T::Err: Display,
{
    match args.get(index) {
        Some(raw) => raw
            .parse()
            .map_err(|e| Error::Config(format!("{name} {raw:?}: {e}"))),
        None => Ok(default),
    }
}

/// Whether `e` is the caller's mistake (exit 2) rather than a failure
/// while running (exit 1).
fn is_usage_error(e: &Error) -> bool {
    matches!(
        e,
        Error::Config(_) | Error::InvalidMachine(_) | Error::InvalidWorkload(_)
    )
}

/// Run a binary: `--help` or `-h` anywhere prints `usage`; otherwise
/// `run` gets the arguments after the program name, and an error prints
/// once as `<bin>: <error>` and exits 2 for a usage error or 1 for
/// anything else.
pub fn main(
    bin: &str,
    usage: &str,
    run: impl FnOnce(Vec<String>) -> Result<(), Error>,
) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{usage}");
        return ExitCode::SUCCESS;
    }
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{bin}: {e}");
            ExitCode::from(if is_usage_error(&e) { 2 } else { 1 })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(line: &str) -> Flags {
        Flags::new(line.split_whitespace().map(String::from))
    }

    #[test]
    fn values_switches_and_positionals_come_apart() -> Result<(), Error> {
        let mut f = flags("EP --scale 0.5 --json --machine nhm extra");
        assert_eq!(f.get("--scale", 0.3)?, 0.5);
        assert_eq!(f.get("--windows", 32u64)?, 32);
        assert_eq!(f.value::<String>("--machine")?.as_deref(), Some("nhm"));
        assert!(f.switch("--json"));
        assert!(!f.switch("--verify"));
        assert_eq!(f.finish()?, ["EP", "extra"]);
        Ok(())
    }

    #[test]
    fn the_last_repeat_wins() -> Result<(), Error> {
        let mut f = flags("--scale 0.1 --scale 0.2");
        assert_eq!(f.get("--scale", 0.3)?, 0.2);
        assert!(f.finish()?.is_empty());
        Ok(())
    }

    #[test]
    fn bad_values_name_the_flag() {
        for line in ["--scale abc", "--scale", "--scale --json"] {
            let mut f = flags(line);
            match f.get("--scale", 0.3) {
                Err(Error::Config(msg)) => assert!(msg.contains("--scale"), "{msg}"),
                other => panic!("{line}: expected a config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn unread_flags_are_rejected() {
        let mut f = flags("--windos 8 --json");
        assert!(f.switch("--json"));
        match f.finish() {
            Err(Error::Config(msg)) => assert_eq!(msg, "unknown flag --windos"),
            other => panic!("expected an unknown-flag error, got {other:?}"),
        }
    }

    #[test]
    fn negative_numbers_are_values() -> Result<(), Error> {
        let mut f = flags("--threshold -0.5");
        assert_eq!(f.get("--threshold", 0.1)?, -0.5);
        Ok(())
    }

    #[test]
    fn positionals_parse_strictly_with_defaults() -> Result<(), Error> {
        let args = flags("0.05 nhm").finish()?;
        assert_eq!(positional(&args, 0, "scale", 0.25)?, 0.05);
        assert_eq!(positional(&args, 1, "machine", String::new())?, "nhm");
        assert_eq!(positional(&args, 2, "extra", 7)?, 7);
        assert!(matches!(
            positional(&args, 1, "scale", 0.25),
            Err(Error::Config(msg)) if msg.contains("scale")
        ));
        Ok(())
    }

    #[test]
    fn usage_errors_are_the_input_kinds() {
        assert!(is_usage_error(&Error::Config(String::new())));
        assert!(is_usage_error(&Error::InvalidMachine(String::new())));
        assert!(is_usage_error(&Error::InvalidWorkload(String::new())));
        assert!(!is_usage_error(&Error::Io(String::new())));
        assert!(!is_usage_error(&Error::InvalidMeasurement(String::new())));
    }
}
