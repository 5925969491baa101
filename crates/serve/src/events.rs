//! Structured operational event log, shared by the client and server tiers.
//!
//! Where the [`obs`] registry aggregates (counters, histograms) and
//! [`obs::trace`] reconstructs per-job causality, this module records the
//! *discrete operational incidents* in between: client reconnects and
//! backoff pauses, server-side connection deadline evictions, drains. Each
//! event is one JSON line carrying a severity level plus the three
//! correlation keys the rest of the observability stack speaks — tenant,
//! job id, and trace id — so an incident line joins against both the
//! journal and a span tree.
//!
//! The file is an [`obs::applog`] log like `journal.jsonl`: a versioned
//! `#` header line, then one JSON object per line. Opening heals a torn
//! tail before the first new event; [`EventLog::read`] skips it and any
//! complete line that fails to parse. Events are never synced.

use crate::wire::{self, JsonObj};
use obs::applog::{self, AppendLog};
use obs::json;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Event log header; a version bump invalidates old logs loudly.
pub const EVENTS_HEADER: &str = "#RAXML-CELL-SERVE-EVENTS v1";

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    Info,
    Warn,
    Error,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// One parsed event line. `tenant` is empty and `job`/`trace` are 0 when
/// the emitter had no binding for them (e.g. a reconnect that precedes any
/// submission).
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Nanoseconds since the emitting log was opened.
    pub at_ns: u64,
    pub level: Level,
    /// Machine-readable event name, e.g. `"reconnect"`, `"backoff"`,
    /// `"conn_deadline"`, `"drain"`.
    pub kind: String,
    pub tenant: String,
    pub job: u64,
    pub trace: u64,
    /// Free-form human context.
    pub detail: String,
}

#[derive(Debug)]
struct Inner {
    log: Mutex<AppendLog>,
    epoch: Instant,
    path: PathBuf,
}

/// An append-only JSONL event sink. Clones share one file handle and one
/// epoch, so the client and server sides of a test can interleave into a
/// single coherent timeline.
#[derive(Debug, Clone)]
pub struct EventLog {
    inner: Arc<Inner>,
}

impl EventLog {
    /// Open (or create) the log at `path` for appending.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<EventLog> {
        let path = path.into();
        let log = AppendLog::open(&path, EVENTS_HEADER, false)?;
        Ok(EventLog {
            inner: Arc::new(Inner { log: Mutex::new(log), epoch: Instant::now(), path }),
        })
    }

    /// Where this log writes.
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// Append one event line. Write failures are swallowed — an event log
    /// on a full disk must never take the serving path down with it.
    pub fn emit(&self, level: Level, kind: &str, tenant: &str, job: u64, trace: u64, detail: &str) {
        let at_ns = self.inner.epoch.elapsed().as_nanos() as u64;
        let line = JsonObj::new()
            .u64("ts_ns", at_ns)
            .str("level", level.as_str())
            .str("kind", kind)
            .str("tenant", tenant)
            .u64("job", job)
            .u64("trace", trace)
            .str("detail", detail)
            .finish();
        let _ = self.inner.log.lock().expect("event log").append(&line);
    }

    /// Parse every well-formed event line of the file at `path`, skipping
    /// lines that fail to parse and a torn final line.
    pub fn read(path: impl AsRef<Path>) -> std::io::Result<Vec<EventRecord>> {
        let mut lines = applog::read(path.as_ref(), EVENTS_HEADER)?;
        let mut events = Vec::new();
        while let Some(line) = lines.next_line()? {
            let Some(v) = std::str::from_utf8(line).ok().and_then(|l| json::parse(l).ok()) else {
                continue;
            };
            let (Some(level), Some(kind)) =
                (wire::get_str(&v, "level").and_then(Level::parse), wire::get_str(&v, "kind"))
            else {
                continue;
            };
            events.push(EventRecord {
                at_ns: wire::get_u64(&v, "ts_ns").unwrap_or(0),
                level,
                kind: kind.to_string(),
                tenant: wire::get_str(&v, "tenant").unwrap_or("").to_string(),
                job: wire::get_u64(&v, "job").unwrap_or(0),
                trace: wire::get_u64(&v, "trace").unwrap_or(0),
                detail: wire::get_str(&v, "detail").unwrap_or("").to_string(),
            });
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("raxml-cell-events-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.jsonl"));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn events_round_trip_with_all_fields() {
        let path = unique_path("round-trip");
        let log = EventLog::open(&path).unwrap();
        log.emit(Level::Info, "reconnect", "", 0, 0, "127.0.0.1:9");
        log.emit(Level::Warn, "backoff", "acme \"lab\"", 7, u64::MAX - 3, "attempt 2");
        drop(log);

        let events = EventLog::read(&path).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "reconnect");
        assert_eq!(events[0].level, Level::Info);
        assert_eq!(events[1].tenant, "acme \"lab\"");
        assert_eq!(events[1].job, 7);
        assert_eq!(events[1].trace, u64::MAX - 3, "big trace ids survive JSON");
        assert!(events[1].at_ns >= events[0].at_ns, "one shared epoch orders events");
    }

    #[test]
    fn reader_tolerates_torn_tail_and_garbage() {
        let path = unique_path("torn-tail");
        let log = EventLog::open(&path).unwrap();
        log.emit(Level::Error, "drain", "", 0, 0, "leaked 1");
        drop(log);
        // Simulate a crash mid-append plus an unknown-level line.
        let mut raw = std::fs::read_to_string(&path).unwrap();
        raw.push_str("{\"level\":\"loud\",\"kind\":\"x\"}\n");
        raw.push_str("{\"ts_ns\":12,\"level\":\"info\",\"ki");
        std::fs::write(&path, raw).unwrap();

        let events = EventLog::read(&path).unwrap();
        assert_eq!(events.len(), 1, "torn tail and bad level skipped, not fatal");
        assert_eq!(events[0].kind, "drain");

        // An event emitted after the torn tail is kept, not glued onto it.
        EventLog::open(&path).unwrap().emit(Level::Info, "after", "", 0, 0, "");
        let kinds = |path: &Path| -> Vec<String> {
            EventLog::read(path).unwrap().into_iter().map(|e| e.kind).collect()
        };
        assert_eq!(kinds(&path), ["drain", "after"]);

        // A one-byte non-UTF-8 tail is torn debris too, for reader and writer.
        let mut raw = std::fs::read(&path).unwrap();
        raw.push(0xce);
        std::fs::write(&path, raw).unwrap();
        assert_eq!(kinds(&path), ["drain", "after"]);
        EventLog::open(&path).unwrap().emit(Level::Info, "later", "", 0, 0, "");
        assert_eq!(kinds(&path), ["drain", "after", "later"]);

        // A log written by another format version is refused by both.
        let text = std::fs::read_to_string(&path).unwrap();
        let v2 = text.replacen(EVENTS_HEADER, "#RAXML-CELL-SERVE-EVENTS v2", 1);
        std::fs::write(&path, v2).unwrap();
        assert_eq!(EventLog::read(&path).unwrap_err().kind(), std::io::ErrorKind::InvalidData);
        assert!(EventLog::open(&path).is_err(), "the writer refuses it too");
    }

    #[test]
    fn reopening_appends_instead_of_truncating() {
        let path = unique_path("reopen");
        EventLog::open(&path).unwrap().emit(Level::Info, "a", "", 0, 0, "");
        EventLog::open(&path).unwrap().emit(Level::Info, "b", "", 0, 0, "");
        let kinds: Vec<String> =
            EventLog::read(&path).unwrap().into_iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["a", "b"]);
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.lines().filter(|l| l.starts_with('#')).count(), 1, "one header");
    }
}
