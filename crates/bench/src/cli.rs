//! Typed command-line handling shared by every study binary.
//!
//! This module parses the command-line surface the studies share, once,
//! with validation:
//!
//! * the shared boolean flags `--smoke`, `--quick`, `--no-artifact`;
//! * `--format text|json` (rejecting anything else up front);
//! * `--out DIR` with a per-study default;
//! * typed lookups for study-specific `--flag value` pairs, where a
//!   malformed value is a diagnosed error instead of a silently ignored
//!   `None`.
//!
//! Binaries call [`StudyArgs::parse`], which exits with a diagnosis on
//! invalid input; the fallible [`StudyArgs::from_vec`] is the testable
//! core.

use crate::artifact::OutputFormat;
use std::path::PathBuf;

/// The parsed command line of a study binary.
#[derive(Debug, Clone)]
pub struct StudyArgs {
    /// `--smoke`: tiny run plus self-checks, no root artifact.
    pub smoke: bool,
    /// `--quick`: reduced workload.
    pub quick: bool,
    /// `--no-artifact`: skip writing the root `BENCH_*.json`.
    pub no_artifact: bool,
    /// `--format text|json` (default text).
    pub format: OutputFormat,
    args: Vec<String>,
}

impl StudyArgs {
    /// Parse the process arguments; print a diagnosis and exit 2 on
    /// invalid input (e.g. an unknown `--format`).
    pub fn parse() -> StudyArgs {
        match StudyArgs::from_vec(std::env::args().skip(1).collect()) {
            Ok(args) => args,
            Err(message) => {
                eprintln!("error: {message}");
                std::process::exit(2);
            }
        }
    }

    /// The testable core of [`parse`](StudyArgs::parse); `args` excludes
    /// the program name.
    pub fn from_vec(args: Vec<String>) -> Result<StudyArgs, String> {
        let mut parsed = StudyArgs {
            smoke: false,
            quick: false,
            no_artifact: false,
            format: OutputFormat::Text,
            args,
        };
        parsed.smoke = parsed.flag("--smoke");
        parsed.quick = parsed.flag("--quick");
        parsed.no_artifact = parsed.flag("--no-artifact");
        parsed.format = match parsed.value("--format") {
            None | Some("text") => OutputFormat::Text,
            Some("json") => OutputFormat::Json,
            Some(other) => return Err(format!("--format must be text or json, got {other:?}")),
        };
        Ok(parsed)
    }

    /// True when the bare flag is present.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The value following a `--flag value` pair.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// A `--flag N` pair as a `usize`; a malformed value is an error, not a
    /// silent default.
    pub fn usize_value(&self, name: &str) -> Result<Option<usize>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name} wants a non-negative integer, got {v:?}")),
        }
    }

    /// A `--flag N` pair as a `u64`.
    pub fn u64_value(&self, name: &str) -> Result<Option<u64>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name} wants a non-negative integer, got {v:?}")),
        }
    }

    /// The `--out` directory, or the study's default.
    pub fn out_dir(&self, default: &str) -> PathBuf {
        PathBuf::from(self.value("--out").unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<StudyArgs, String> {
        StudyArgs::from_vec(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn shared_flags_and_defaults() {
        let a = parse(&[]).unwrap();
        assert!(!a.smoke && !a.quick && !a.no_artifact);
        assert!(a.format.is_text());
        assert_eq!(a.out_dir("target/x"), PathBuf::from("target/x"));

        let a = parse(&["--smoke", "--quick", "--no-artifact", "--format", "json"]).unwrap();
        assert!(a.smoke && a.quick && a.no_artifact);
        assert_eq!(a.format, OutputFormat::Json);
    }

    #[test]
    fn typed_lookups_diagnose_bad_values() {
        let a = parse(&["--jobs", "24", "--out", "somewhere", "--seed", "9"]).unwrap();
        assert_eq!(a.usize_value("--jobs").unwrap(), Some(24));
        assert_eq!(a.u64_value("--seed").unwrap(), Some(9));
        assert_eq!(a.usize_value("--workers").unwrap(), None);
        assert_eq!(a.out_dir("target/x"), PathBuf::from("somewhere"));

        let a = parse(&["--jobs", "many"]).unwrap();
        assert!(a.usize_value("--jobs").is_err());
    }

    #[test]
    fn unknown_format_is_rejected() {
        assert!(parse(&["--format", "xml"]).is_err());
    }

    #[test]
    fn value_at_end_of_args_is_none() {
        let a = parse(&["--jobs"]).unwrap();
        assert_eq!(a.value("--jobs"), None);
        assert_eq!(a.usize_value("--jobs").unwrap(), None);
    }
}
