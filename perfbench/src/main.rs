//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones, timed
//! without any per-call instrumentation; with `--trace 1` the workload runs
//! twice — untraced, then traced — and the metrics are the per-layer ones,
//! read from the benchmark's own stopwatches around public calls and from
//! instruments the program already exports. Human-readable tables go to
//! standard error. `BENCHMARK.json` at the repository root lists the
//! workloads and metrics; `perfbench/RATIONALE.md` explains them.

mod batch;
mod layers;
mod ledger;
mod loadgen;
mod profile;
mod replica;
mod scale;
mod served;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// One run's result: the correctness verdict, job accounting and the
/// metric map printed as the final JSON line.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<String, (f64, &'static str)>,
    problems: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report { correct: true, ..Report::default() }
    }

    /// Record metric `name` in `unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Record a failed output check: the run still reports, but as
    /// incorrect, and the reason goes to standard error.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.correct = false;
        self.problems.push(problem.into());
    }

    /// `fail` unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.fail(problem());
        }
    }

    fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Scratch space for one run inside the checkout: next to the build output
/// (`$CARGO_TARGET_DIR`, default `.bench_build`), removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    fn create(workload: &str) -> Result<WorkDir, String> {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(".bench_build"));
        let path = base.join("perfbench-work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.path.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// `n` job seeds drawn from `salt` alone, the same in every run.
pub fn seed_pool(salt: u64, n: usize) -> Vec<u64> {
    let mut state = salt;
    (0..n)
        .map(|_| {
            state = obs::trace::splitmix64(state);
            state
        })
        .collect()
}

/// `seed_pool(salt, n)` in an order drawn from the run `seed`. Search time
/// varies a lot from one job seed to the next, so a run of a few dozen
/// freshly drawn jobs would measure the draw more than the program; with a
/// fixed pool every run does the same work and the seed only changes the
/// order it arrives in.
pub fn shuffled_pool(salt: u64, n: usize, seed: u64) -> Vec<u64> {
    let mut pool = seed_pool(salt, n);
    let mut r = seed;
    for i in (1..n).rev() {
        r = obs::trace::splitmix64(r);
        pool.swap(i, (r % (i as u64 + 1)) as usize);
    }
    pool
}

/// Worker and load-thread count: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Restart the `VmHWM` peak at the current resident set, so that
/// `peak_rss_mb` covers the measured work and not the set-ups repeated to
/// time `setup_s`. Best effort: a kernel without the reset leaves the
/// process-lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Run `setup` `times` times and return the median wall time in seconds
/// together with the product of the last run (earlier products are
/// dropped, releasing whatever they hold).
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let product = setup()?;
        walls.push(t0.elapsed().as_secs_f64());
        last = Some(product);
    }
    Ok((stats::median(&walls), last.expect("setup ran at least once")))
}

/// Set-up repetitions in an untraced run (the median is `setup_s`); a
/// traced run reports no set-up time and sets up once.
pub fn setup_repeats(args: &Args) -> usize {
    if args.trace {
        1
    } else {
        3
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let work = WorkDir::create(&args.workload)?;
    match args.workload.as_str() {
        "batch_aln42" => batch::run(args),
        "serve_aln42" => served::run(args, &work, served::Mix::Aln42),
        "serve_small" => served::run(args, &work, served::Mix::Small),
        "scale_1000x2000" => scale::run(args, &work),
        other => Err(format!(
            "unknown workload {other:?} (batch_aln42, serve_aln42, serve_small, scale_1000x2000)"
        )),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for p in &report.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    match report.to_json() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
