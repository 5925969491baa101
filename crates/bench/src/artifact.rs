//! Schema-versioned benchmark artifact envelopes.
//!
//! Every study binary that leaves a machine-readable artifact behind
//! writes the same shape to the repo root (`BENCH_metrics.json`,
//! `BENCH_throughput.json`, `BENCH_profile.json`):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "artifact": "metrics",
//!   "git_rev": "abc123…",
//!   "config": { "jobs": "12", "workers": "4" },
//!   "metrics": { "farm_job_run_ns_p99": 183500.0, "farm_jobs_per_sec": 41.2 }
//! }
//! ```
//!
//! `config` records how the numbers were produced (all values strings, so
//! the shape never depends on flag types); `metrics` is a flat name→number
//! map — exactly what the regression gate diffs. Serialization is
//! hand-rolled (the workspace has no serde); envelopes are checked on
//! write and read back with the `obs::json` parser.

use obs::json::{self, Json};
use std::path::{Path, PathBuf};

/// Version of the envelope shape. Bump when renaming fields; the gate
/// refuses to compare envelopes across versions.
pub const SCHEMA_VERSION: u64 = 1;

/// One artifact's contents: provenance plus a flat metrics map.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Artifact family: `"metrics"`, `"throughput"`, `"profile"`, …
    pub artifact: String,
    /// `git rev-parse HEAD` at write time (`"unknown"` outside a checkout).
    pub git_rev: String,
    /// How the run was configured, as string pairs, in insertion order.
    pub config: Vec<(String, String)>,
    /// Flat metric name → finite number, in insertion order.
    pub metrics: Vec<(String, f64)>,
}

impl Envelope {
    /// An empty envelope for `artifact`, stamped with the current git rev.
    pub fn new(artifact: &str) -> Envelope {
        Envelope {
            artifact: artifact.to_string(),
            git_rev: git_rev(),
            config: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Append a config pair (builder form).
    pub fn with_config(mut self, key: &str, value: impl std::fmt::Display) -> Envelope {
        self.config.push((key.to_string(), value.to_string()));
        self
    }

    /// Append one metric. Non-finite values are recorded as 0 so the
    /// artifact always stays valid JSON.
    pub fn push_metric(&mut self, name: &str, value: f64) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), v));
    }

    /// Look up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a config value by key.
    pub fn config_value(&self, key: &str) -> Option<&str> {
        self.config.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Serialize to a pretty-printed JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"artifact\": {},\n", json_str(&self.artifact)));
        out.push_str(&format!("  \"git_rev\": {},\n", json_str(&self.git_rev)));
        out.push_str("  \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            out.push_str(&format!("{sep}    {}: {}", json_str(k), json_str(v)));
        }
        out.push_str(if self.config.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            out.push_str(&format!("{sep}    {}: {}", json_str(k), json::finite(*v)));
        }
        out.push_str(if self.metrics.is_empty() { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }

    /// Parse an envelope written by [`Envelope::to_json`] (or by hand, as
    /// long as the shape matches). Rejects other schema versions.
    pub fn from_json(text: &str) -> Result<Envelope, String> {
        let v = json::parse(text)?;
        let version =
            v.get("schema_version").and_then(Json::as_f64).ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION as f64 {
            return Err(format!("schema_version {version} != supported {SCHEMA_VERSION}"));
        }
        let artifact =
            v.get("artifact").and_then(Json::as_str).ok_or("missing artifact")?.to_string();
        let git_rev = v.get("git_rev").and_then(Json::as_str).unwrap_or("unknown").to_string();
        let mut config = Vec::new();
        if let Some(obj) = v.get("config").and_then(Json::as_obj) {
            for (k, val) in obj {
                let s = val.as_str().ok_or(format!("config.{k} is not a string"))?;
                config.push((k.clone(), s.to_string()));
            }
        }
        let mut metrics = Vec::new();
        let obj = v.get("metrics").and_then(Json::as_obj).ok_or("missing metrics object")?;
        for (k, val) in obj {
            let n = val.as_f64().ok_or(format!("metrics.{k} is not a number"))?;
            metrics.push((k.clone(), n));
        }
        Ok(Envelope { artifact, git_rev, config, metrics })
    }

    /// Serialize, self-check by parsing the text back, and write
    /// atomically enough for an artifact (write + rename is overkill here;
    /// a torn artifact just fails validation on the next read).
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let text = self.to_json();
        Envelope::from_json(&text).map_err(|e| format!("envelope round-trip failed: {e}"))?;
        std::fs::write(path, &text).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

/// The repository root (two levels above this crate's manifest).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

/// Canonical path of a root artifact: `<repo>/BENCH_<artifact>.json`.
pub fn bench_artifact_path(artifact: &str) -> PathBuf {
    repo_root().join(format!("BENCH_{artifact}.json"))
}

/// `git rev-parse HEAD`, or `"unknown"` when git or the repo is absent.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Output mode shared by the study binaries (`--format text|json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    Text,
    Json,
}

impl OutputFormat {
    /// True in the default human-readable mode.
    pub fn is_text(self) -> bool {
        self == OutputFormat::Text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Envelope {
        let mut e = Envelope::new("selftest")
            .with_config("jobs", 12)
            .with_config("label", "quoted \"name\"");
        e.push_metric("run_ns_p99", 1234.5);
        e.push_metric("jobs_per_sec", 88.0);
        e.push_metric("bad", f64::INFINITY);
        e
    }

    #[test]
    fn envelope_round_trips_through_json() {
        let e = sample();
        let text = e.to_json();
        json::parse(&text).expect("envelope is valid JSON");
        let back = Envelope::from_json(&text).expect("parse back");
        assert_eq!(back.artifact, "selftest");
        assert_eq!(back.config_value("jobs"), Some("12"));
        assert_eq!(back.config_value("label"), Some("quoted \"name\""));
        assert_eq!(back.metric("run_ns_p99"), Some(1234.5));
        assert_eq!(back.metric("jobs_per_sec"), Some(88.0));
        assert_eq!(back.metric("bad"), Some(0.0), "non-finite sanitized to 0");
        assert_eq!(back.metric("missing"), None);
    }

    #[test]
    fn empty_envelope_is_still_valid() {
        let text = Envelope::new("empty").to_json();
        json::parse(&text).expect("valid JSON");
        let back = Envelope::from_json(&text).expect("parse back");
        assert!(back.metrics.is_empty() && back.config.is_empty());
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let text = sample().to_json().replace("\"schema_version\": 1", "\"schema_version\": 2");
        assert!(Envelope::from_json(&text).unwrap_err().contains("schema_version"));
    }

    #[test]
    fn write_and_reload() {
        let path =
            std::env::temp_dir().join(format!("raxml-envelope-test-{}.json", std::process::id()));
        sample().write(&path).expect("write");
        let back = Envelope::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back.metric("run_ns_p99"), Some(1234.5));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repo_root_contains_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
        assert!(bench_artifact_path("x").ends_with("BENCH_x.json"));
    }
}
