//! The one command-line parser of every pmcs binary.
//!
//! Flags are the only way to configure a run. A binary walks its
//! arguments with [`Args::parse`], matching the flags it accepts and
//! reading their values through [`Args::value`] (or [`Args::jobs`] for
//! the worker count); analysis flags write straight into an
//! [`AnalysisConfig`] that starts from [`analysis_defaults`]. Every
//! binary answers the command line the same way, before it does any
//! work:
//!
//! * `-h` / `--help` prints the usage on stdout and exits 0;
//! * an unknown flag, a missing value or a malformed value prints the
//!   error and the usage on stderr and exits 2.

use std::fmt;
use std::str::FromStr;

use pmcs_analysis::AnalysisConfig;

/// Why argument parsing stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `-h` or `--help` was given.
    Help,
    /// The command line is malformed; the message says where.
    Usage(String),
}

impl CliError {
    /// An argument the binary does not accept.
    pub fn unknown(arg: &str) -> Self {
        CliError::Usage(format!("unknown argument {arg:?}"))
    }
}

/// The arguments of one invocation, consumed front to back.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// Arguments `args` (without the program name) of a binary whose
    /// help text is `usage`.
    fn new(usage: &'static str, args: impl IntoIterator<Item = String>) -> Self {
        Args {
            usage,
            rest: args.into_iter().collect::<Vec<_>>().into_iter(),
        }
    }

    /// The arguments of the running process.
    pub fn from_env(usage: &'static str) -> Self {
        Args::new(usage, std::env::args().skip(1))
    }

    /// Hands every argument, in order, to `on_arg`, which may consume the
    /// flag's value through `args`. Help and usage errors end the
    /// process (exit 0 and 2, see the module docs).
    pub fn parse(&mut self, on_arg: impl FnMut(&str, &mut Args) -> Result<(), CliError>) {
        match self.try_parse(on_arg) {
            Ok(()) => {}
            Err(CliError::Help) => {
                println!("{}", self.usage.trim_end());
                std::process::exit(0);
            }
            Err(CliError::Usage(msg)) => self.fail(msg),
        }
    }

    /// [`parse`](Args::parse) without the process exit: stops at the
    /// first help request or usage error and returns it.
    fn try_parse(
        &mut self,
        mut on_arg: impl FnMut(&str, &mut Args) -> Result<(), CliError>,
    ) -> Result<(), CliError> {
        while let Some(arg) = self.rest.next() {
            if arg == "-h" || arg == "--help" {
                return Err(CliError::Help);
            }
            on_arg(&arg, self)?;
        }
        Ok(())
    }

    /// The value following `flag`, parsed as `T`.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        self.value_with(flag, |v| v.parse().ok())
    }

    /// The worker count following `flag`, clamped to at least 1.
    pub fn jobs(&mut self, flag: &str) -> Result<usize, CliError> {
        Ok(self.value::<usize>(flag)?.max(1))
    }

    /// The value following `flag`, converted by `parse` (`None` rejects
    /// it as malformed).
    pub fn value_with<T>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, CliError> {
        let value = self
            .rest
            .next()
            .ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))?;
        parse(&value).ok_or_else(|| CliError::Usage(format!("invalid value {value:?} for {flag}")))
    }

    /// Reports a usage error found after parsing (a missing or unknown
    /// command, say): the message and the usage on stderr, exit 2.
    pub fn fail(&self, msg: impl fmt::Display) -> ! {
        eprintln!("error: {msg}\n{}", self.usage.trim_end());
        std::process::exit(2);
    }
}

/// The analysis configuration of a command-line run before any flag:
/// [`AnalysisConfig::default`] with one worker per available core.
pub fn analysis_defaults() -> AnalysisConfig {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    AnalysisConfig::default().with_jobs(cores)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new("usage: demo", list.iter().map(|s| s.to_string()))
    }

    /// A miniature binary: `--jobs N`, `--emit-certs`, `--cores M` (M ≥ 1)
    /// and positional words.
    fn run(list: &[&str]) -> Result<(AnalysisConfig, usize, Vec<String>), CliError> {
        let mut cfg = analysis_defaults();
        let mut cores = 1;
        let mut words = Vec::new();
        args(list).try_parse(|arg, args| {
            match arg {
                "--jobs" => cfg.jobs = args.jobs(arg)?,
                "--emit-certs" => cfg.emit_certs = true,
                "--cores" => {
                    cores = args.value_with(arg, |v| v.parse().ok().filter(|&m| m >= 1))?
                }
                word if !word.starts_with('-') => words.push(word.to_string()),
                _ => return Err(CliError::unknown(arg)),
            }
            Ok(())
        })?;
        Ok((cfg, cores, words))
    }

    fn usage_error(list: &[&str]) -> String {
        match run(list) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("{list:?} parsed as {other:?}"),
        }
    }

    #[test]
    fn flags_fill_the_config_in_order() {
        let (cfg, cores, words) = run(&["a", "--jobs", "3", "--emit-certs", "--cores", "4", "b"])
            .expect("valid command line");
        assert_eq!(cfg.jobs, 3);
        assert!(cfg.emit_certs);
        assert_eq!(cores, 4);
        assert_eq!(words, ["a", "b"]);
    }

    #[test]
    fn defaults_use_every_core_and_clamp_jobs() {
        let (cfg, ..) = run(&[]).expect("empty command line");
        assert!(cfg.jobs >= 1);
        assert_eq!(AnalysisConfig { jobs: 1, ..cfg }, AnalysisConfig::default());
        assert_eq!(run(&["--jobs", "0"]).expect("zero jobs").0.jobs, 1);
    }

    #[test]
    fn help_stops_parsing() {
        assert_eq!(run(&["--help", "--no-such-flag"]), Err(CliError::Help));
        assert_eq!(run(&["-h"]), Err(CliError::Help));
    }

    #[test]
    fn malformed_command_lines_are_usage_errors() {
        assert!(usage_error(&["--no-such-flag"]).contains("\"--no-such-flag\""));
        assert_eq!(usage_error(&["--jobs"]), "--jobs requires a value");
        assert_eq!(
            usage_error(&["--jobs", "x"]),
            "invalid value \"x\" for --jobs"
        );
        assert_eq!(
            usage_error(&["--cores", "0"]),
            "invalid value \"0\" for --cores"
        );
    }
}
