//! Append-only record logs: the one file framing behind every log in the
//! workspace — the service job journal, the service incident log and the
//! bootstrap job store.
//!
//! A log is a fixed header (one or more lines) followed by records, one
//! newline-terminated line each. The whole contract lives here:
//!
//! * **Header.** The file must start with the expected header text
//!   exactly; anything else is an `InvalidData` error naming the found and
//!   the expected header, so a version bump invalidates old logs loudly.
//!   A file that is empty, or holds only a prefix of the header (a crash
//!   while creating it), counts as new.
//! * **Records.** Each record goes out as a single `write_all` of the line
//!   plus its `\n`, so a crash can tear at most the final line.
//! * **Torn tail.** Whatever follows the last `\n` — UTF-8 or not — is a
//!   torn tail. [`AppendLog::open`] truncates it before the first new
//!   record, so an append never glues onto crash debris; [`read`] skips it
//!   and leaves the file alone.
//! * **Replay.** [`Lines`] streams records through one reusable buffer, so
//!   replay memory is O(longest record), not O(file).
//! * **Durability.** A durable log issues `sync_data` after writing the
//!   header (and syncs the directory holding a new file), after every
//!   append and after every truncation (`sync_data` persists a changed
//!   file length too). A non-durable log leaves its bytes to the OS page
//!   cache.
//!
//! What a record *means*, and what to do with a complete line that does
//! not parse, stays with each caller.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// An append-only record log opened for writing.
#[derive(Debug)]
pub struct AppendLog {
    file: File,
    /// Header length in bytes: where the first record starts.
    body_start: u64,
    durable: bool,
    /// Staging buffer for record + `\n`, reused so an append is one
    /// `write_all` without a fresh allocation.
    buf: Vec<u8>,
}

impl AppendLog {
    /// Open (or create) the log at `path` for appending. Checks the
    /// header (writing it if the file is new) and truncates a torn tail.
    /// `header` is the header text without its final newline.
    pub fn open(path: &Path, header: &str, durable: bool) -> io::Result<AppendLog> {
        let file = OpenOptions::new().read(true).append(true).create(true).open(path)?;
        let header = header_line(header);
        let mut log = AppendLog { file, body_start: header.len() as u64, durable, buf: Vec::new() };
        let len = log.file.metadata()?.len();
        if check_header(&log.file, path, &header)? {
            let complete = complete_len(&log.file, log.body_start, len)?;
            if complete < len {
                log.truncate(complete)?;
            }
        } else {
            log.file.set_len(0)?;
            log.file.write_all(&header)?;
            log.sync()?;
            if durable {
                // A new file's directory entry must reach the disk too, or
                // a crash can lose the whole log with every synced record.
                let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
                File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
            }
        }
        Ok(log)
    }

    /// Stream the records already in the log, from the first one.
    pub fn lines(&self) -> io::Result<Lines<BufReader<&File>>> {
        let mut file = &self.file;
        file.seek(SeekFrom::Start(self.body_start))?;
        Ok(Lines { inner: BufReader::new(file), buf: Vec::new(), end: self.body_start })
    }

    /// Append one record: `record` must not contain a newline.
    pub fn append(&mut self, record: &str) -> io::Result<()> {
        debug_assert!(!record.contains('\n'), "a record is a single line");
        self.buf.clear();
        self.buf.extend_from_slice(record.as_bytes());
        self.buf.push(b'\n');
        self.file.write_all(&self.buf)?;
        self.sync()
    }

    /// Cut the log back to `len` bytes — a [`Lines::end`] offset — so it
    /// ends after that record. For callers that end a log at its first
    /// record that fails to parse.
    pub fn truncate(&mut self, len: u64) -> io::Result<()> {
        assert!(len >= self.body_start, "truncating into the log header");
        self.file.set_len(len)?;
        self.sync()
    }

    fn sync(&self) -> io::Result<()> {
        if self.durable {
            self.file.sync_data()
        } else {
            Ok(())
        }
    }
}

/// Open the log at `path` read-only and stream its records. The header is
/// checked as in [`AppendLog::open`]; a new (empty or torn-header) file
/// has no records. A torn tail is skipped and the file is never modified.
pub fn read(path: &Path, header: &str) -> io::Result<Lines<BufReader<File>>> {
    let file = File::open(path)?;
    let header = header_line(header);
    let present = check_header(&file, path, &header)?;
    // `check_header` leaves the cursor just past what it read: at the
    // first record, or at the end of a new file.
    let end = if present { header.len() as u64 } else { file.metadata()?.len() };
    Ok(Lines { inner: BufReader::new(file), buf: Vec::new(), end })
}

/// A streaming record reader over one reusable buffer.
#[derive(Debug)]
pub struct Lines<R> {
    inner: R,
    buf: Vec<u8>,
    end: u64,
}

impl<R: BufRead> Lines<R> {
    /// The next complete record without its `\n`, or `None` at the end of
    /// the log (a torn tail is not a record). The slice borrows the
    /// internal buffer until the next call.
    pub fn next_line(&mut self) -> io::Result<Option<&[u8]>> {
        self.buf.clear();
        let n = self.inner.read_until(b'\n', &mut self.buf)?;
        if self.buf.pop() != Some(b'\n') {
            return Ok(None);
        }
        self.end += n as u64;
        Ok(Some(&self.buf))
    }

    /// File offset just past the last record returned (the header's end
    /// before the first): the length [`AppendLog::truncate`] keeps to end
    /// the log after that record.
    pub fn end(&self) -> u64 {
        self.end
    }
}

fn header_line(header: &str) -> Vec<u8> {
    let mut line = header.as_bytes().to_vec();
    line.push(b'\n');
    line
}

/// `Ok(true)` if the file starts with `header`, `Ok(false)` if it is new
/// (empty, or only a prefix of the header), `InvalidData` otherwise.
fn check_header(file: &File, path: &Path, header: &[u8]) -> io::Result<bool> {
    let mut found = Vec::with_capacity(header.len());
    let mut file = file;
    file.seek(SeekFrom::Start(0))?;
    file.take(header.len() as u64).read_to_end(&mut found)?;
    if found == header {
        return Ok(true);
    }
    if header.starts_with(&found) {
        return Ok(false);
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{}: log header {:?} does not match the expected {:?}",
            path.display(),
            String::from_utf8_lossy(&found).trim_end(),
            String::from_utf8_lossy(header).trim_end(),
        ),
    ))
}

/// Length of the file's complete-line prefix: one past the last `\n` at or
/// after `from`, else `from`. Scans backwards, so healing costs O(tail).
fn complete_len(file: &File, from: u64, len: u64) -> io::Result<u64> {
    let mut file = file;
    let mut chunk = [0u8; 4096];
    let mut end = len;
    while end > from {
        let start = end.saturating_sub(chunk.len() as u64).max(from);
        let window = &mut chunk[..(end - start) as usize];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(window)?;
        if let Some(i) = window.iter().rposition(|&b| b == b'\n') {
            return Ok(start + i as u64 + 1);
        }
        end = start;
    }
    Ok(from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const HEADER: &str = "#TEST-LOG v1\nkind demo";

    fn fresh(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("raxml-cell-applog-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.log"));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn records(path: &Path) -> Vec<String> {
        let mut lines = read(path, HEADER).unwrap();
        let mut out = Vec::new();
        while let Some(line) = lines.next_line().unwrap() {
            out.push(String::from_utf8_lossy(line).into_owned());
        }
        out
    }

    fn raw_append(path: &Path, bytes: &[u8]) {
        let mut f = OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(bytes).unwrap();
    }

    #[test]
    fn records_round_trip_with_offsets() {
        let path = fresh("round-trip");
        let mut log = AppendLog::open(&path, HEADER, true).unwrap();
        log.append("a").unwrap();
        log.append("bb").unwrap();
        let mut lines = log.lines().unwrap();
        let body = (HEADER.len() + 1) as u64;
        assert_eq!(lines.end(), body);
        assert_eq!(lines.next_line().unwrap(), Some(&b"a"[..]));
        assert_eq!(lines.end(), body + 2);
        assert_eq!(lines.next_line().unwrap(), Some(&b"bb"[..]));
        assert_eq!(lines.end(), body + 5);
        assert_eq!(lines.next_line().unwrap(), None);
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, format!("{HEADER}\na\nbb\n"), "one header, one line per record");
    }

    #[test]
    fn open_heals_a_torn_tail_before_appending() {
        let path = fresh("heal");
        AppendLog::open(&path, HEADER, false).unwrap().append("first").unwrap();
        raw_append(&path, b"{\"half\":");
        assert_eq!(records(&path), ["first"], "readers skip the tail");
        assert!(std::fs::read(&path).unwrap().ends_with(b"{\"half\":"), "and leave it alone");

        AppendLog::open(&path, HEADER, false).unwrap().append("second").unwrap();
        assert_eq!(records(&path), ["first", "second"], "the append did not glue onto debris");
    }

    #[test]
    fn a_non_utf8_tail_is_torn_debris_too() {
        let path = fresh("non-utf8");
        AppendLog::open(&path, HEADER, true).unwrap().append("ok").unwrap();
        raw_append(&path, b"\xce");
        assert_eq!(records(&path), ["ok"]);
        AppendLog::open(&path, HEADER, true).unwrap().append("next").unwrap();
        assert_eq!(records(&path), ["ok", "next"]);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{HEADER}\nok\nnext\n"));
    }

    #[test]
    fn a_torn_header_counts_as_new() {
        let path = fresh("torn-header");
        std::fs::write(&path, &HEADER.as_bytes()[..9]).unwrap();
        assert!(records(&path).is_empty(), "a torn header has no records");
        AppendLog::open(&path, HEADER, true).unwrap().append("r").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{HEADER}\nr\n"));
        // An empty file is new as well.
        std::fs::write(&path, b"").unwrap();
        assert!(records(&path).is_empty());
        AppendLog::open(&path, HEADER, true).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{HEADER}\n"));
    }

    #[test]
    fn a_mismatched_header_is_refused_by_name() {
        let path = fresh("mismatch");
        std::fs::write(&path, "#TEST-LOG v2\nkind demo\nrecord\n").unwrap();
        for err in
            [AppendLog::open(&path, HEADER, true).unwrap_err(), read(&path, HEADER).unwrap_err()]
        {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains("#TEST-LOG v2") && msg.contains("#TEST-LOG v1"), "{msg}");
        }
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "#TEST-LOG v2\nkind demo\nrecord\n",
            "a refused log is left untouched"
        );
    }

    #[test]
    fn truncate_ends_the_log_after_a_record() {
        let path = fresh("truncate");
        let mut log = AppendLog::open(&path, HEADER, true).unwrap();
        for r in ["keep", "bad", "after"] {
            log.append(r).unwrap();
        }
        let mut lines = log.lines().unwrap();
        lines.next_line().unwrap();
        let keep_end = lines.end();
        drop(lines);
        log.truncate(keep_end).unwrap();
        log.append("new").unwrap();
        assert_eq!(records(&path), ["keep", "new"]);
    }

    #[test]
    fn a_long_torn_tail_heals_across_scan_chunks() {
        let path = fresh("long-tail");
        AppendLog::open(&path, HEADER, false).unwrap().append(&"x".repeat(10_000)).unwrap();
        raw_append(&path, "y".repeat(9_000).as_bytes());
        AppendLog::open(&path, HEADER, false).unwrap().append("z").unwrap();
        let got = records(&path);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].len(), 10_000);
        assert_eq!(got[1], "z");
    }
}
