//! Hermetic stand-in for the `criterion` crate.
//!
//! This workspace builds without network access, so the real criterion
//! cannot be fetched. This crate re-implements the slice of its API used
//! by the gtlb bench targets, keeping every `benches/*.rs` file
//! source-compatible: [`Criterion`] with `bench_function` and
//! `benchmark_group`, [`BenchmarkGroup`] with
//! `sample_size`/`throughput`/`bench_with_input`/`finish`,
//! [`BenchmarkId`], [`Throughput`], [`Bencher::iter`], and the
//! `criterion_group!`/`criterion_main!` macros.
//!
//! Measurement is deliberately simple: after a short calibration run,
//! each benchmark takes `sample_size` wall-clock samples and reports the
//! minimum and mean time per iteration (plus element throughput when
//! configured). There is no statistical outlier analysis, plotting, or
//! baseline comparison.
//!
//! Like upstream, running a harness-less bench binary without the
//! `--bench` flag (which is what `cargo test` does) executes each
//! benchmark body exactly once as a smoke test instead of timing it.
//! The binary also reads the libtest arguments upstream reads:
//! `--list` prints one `name: benchmark` line per benchmark and runs
//! none, and a positional filter runs only the benchmarks whose full
//! name contains it (`--exact`: equals it), in either mode.
//!
//! Two environment variables adapt the harness to CI:
//!
//! * `GTLB_BENCH_QUICK=1` — quick mode: smaller calibration targets and
//!   at most [`QUICK_SAMPLE_SIZE`] samples per benchmark, trading
//!   precision for wall-clock time (the bench-smoke job's setting);
//! * `GTLB_BENCH_JSON=<path>` — after all groups run, write a JSON
//!   report to `<path>`: a [`meta_json`] provenance block (git SHA,
//!   thread count, quick-mode flag) plus a `results` array of
//!   measurements (`name`, `mean_ns`, `min_ns`, `elements`),
//!   machine-readable for perf gates. Nothing is written when no
//!   measurement ran (`cargo test` executes bench binaries in smoke
//!   mode; an ambient `GTLB_BENCH_JSON` must not clobber a real
//!   artifact with an empty report).

#![forbid(unsafe_code)]

use std::fmt;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Identifies one benchmark within a group, `function_name/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Id combining a function name and a parameter value.
    pub fn new(function_name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self { id: format!("{function_name}/{parameter}") }
    }

    /// Id from the parameter value alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self { id: parameter.to_string() }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Units of work per iteration, used to report a rate next to the time.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements (jobs, events, ...) processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Runs closures handed to it by a benchmark body and accumulates the
/// timing result.
pub struct Bencher {
    test_mode: bool,
    sample_size: usize,
    result: Option<SampleStats>,
}

#[derive(Debug, Clone, Copy)]
struct SampleStats {
    mean_ns: f64,
    min_ns: f64,
}

/// Samples per benchmark in quick mode (`GTLB_BENCH_QUICK=1`).
pub const QUICK_SAMPLE_SIZE: usize = 10;

/// Whether quick mode (`GTLB_BENCH_QUICK=1`) is on — read once per
/// process. Public so experiment binaries can scale their scenario
/// sizes the same way the bench targets do.
pub fn quick_mode() -> bool {
    static QUICK: OnceLock<bool> = OnceLock::new();
    *QUICK.get_or_init(|| std::env::var("GTLB_BENCH_QUICK").is_ok_and(|v| v == "1"))
}

/// The self-describing provenance block of the JSON report, as one JSON
/// object: `{"git_sha": …, "threads": …, "quick": …}`. The SHA comes
/// from `GITHUB_SHA` (CI) or `git rev-parse HEAD` (local), `"unknown"`
/// when neither resolves; the thread count from `RAYON_NUM_THREADS` or
/// the machine's available parallelism. Public so experiment binaries
/// can stamp their own `BENCH_*.json` artifacts identically.
#[must_use]
pub fn meta_json() -> String {
    let sha = std::env::var("GITHUB_SHA")
        .ok()
        .filter(|s| !s.is_empty())
        .or_else(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
        })
        .unwrap_or_else(|| "unknown".into());
    // SHAs are hex; strip anything else so the value needs no escaping.
    let sha: String = sha.chars().filter(char::is_ascii_alphanumeric).collect();
    let threads = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    format!("{{\"git_sha\": \"{sha}\", \"threads\": {threads}, \"quick\": {}}}", quick_mode())
}

impl Bencher {
    /// Times `routine`, or runs it once in test mode.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.test_mode {
            std::hint::black_box(routine());
            return;
        }
        let (calib_ms, sample_ns, samples) = if quick_mode() {
            (1.0, 2.0e6, self.sample_size.min(QUICK_SAMPLE_SIZE))
        } else {
            (5.0, 10.0e6, self.sample_size)
        };
        // Calibrate: double the batch size until one batch is long enough
        // that per-sample timing error from `Instant` resolution is small.
        let mut batch: u64 = 1;
        let per_iter_ns = loop {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_micros((calib_ms * 1e3) as u64) || batch >= 1 << 30 {
                break elapsed.as_nanos() as f64 / batch as f64;
            }
            batch *= 2;
        };
        // Fixed time budget per sample, bounded so the whole benchmark
        // stays in the hundreds of milliseconds.
        let iters = ((sample_ns / per_iter_ns).ceil() as u64).clamp(1, 1 << 24);
        let mut mean_acc = 0.0;
        let mut min_ns = f64::INFINITY;
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let ns = start.elapsed().as_nanos() as f64 / iters as f64;
            mean_acc += ns;
            min_ns = min_ns.min(ns);
        }
        self.result = Some(SampleStats { mean_ns: mean_acc / samples as f64, min_ns });
    }
}

/// What the command line asks of a bench binary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Args {
    /// `--bench` (which `cargo bench` passes): time the benchmarks.
    /// Without it, each selected body runs once.
    bench: bool,
    /// `--list`: print the selected benchmarks' names, run none.
    list: bool,
    /// The positional filter: run only names containing it.
    filter: Option<String>,
    /// `--exact`: the filter must equal the whole name.
    exact: bool,
}

/// libtest options that take a value, which must not be mistaken for
/// the positional filter.
const VALUED_OPTIONS: &[&str] =
    &["--format", "--color", "--logfile", "--skip", "--test-threads", "--shuffle-seed", "-Z"];

impl Args {
    /// Reads the arguments after the program name. Unknown flags are
    /// ignored, as upstream ignores the libtest flags it does not use.
    fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--bench" => out.bench = true,
                "--list" => out.list = true,
                "--exact" => out.exact = true,
                flag if VALUED_OPTIONS.contains(&flag) => {
                    args.next();
                }
                flag if flag.starts_with('-') => {}
                _ => out.filter = Some(arg),
            }
        }
        out
    }

    /// Whether the benchmark named `name` is selected.
    fn selects(&self, name: &str) -> bool {
        match &self.filter {
            None => true,
            Some(f) if self.exact => name == f,
            Some(f) => name.contains(f.as_str()),
        }
    }
}

/// The benchmark manager: entry point handed to every `criterion_group!`
/// function.
pub struct Criterion {
    args: Args,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo bench` passes `--bench` to harness-less targets;
        // `cargo test` does not. Without it we only smoke-test.
        Self { args: Args::parse(std::env::args().skip(1)) }
    }
}

const DEFAULT_SAMPLE_SIZE: usize = 30;

impl Criterion {
    /// Benchmarks `f` under `id` with default settings.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&self.args, &id.to_string(), DEFAULT_SAMPLE_SIZE, None, f);
        self
    }

    /// Starts a named group whose settings (sample size, throughput)
    /// apply to every benchmark registered on it.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: DEFAULT_SAMPLE_SIZE,
            throughput: None,
        }
    }
}

/// A set of related benchmarks sharing a name prefix and settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of timing samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Declares the work per iteration so a rate is reported.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benchmarks `f` under `group_name/id`.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        run_one(&self.criterion.args, &full, self.sample_size, self.throughput, f);
        self
    }

    /// Benchmarks `f`, passing `input` through to the closure.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (kept for upstream compatibility; settings are
    /// per-group already so there is nothing to flush).
    pub fn finish(self) {}
}

/// One finished measurement, as serialized by [`write_json_report`].
#[derive(Debug, Clone)]
struct Record {
    name: String,
    mean_ns: f64,
    min_ns: f64,
    /// Elements per iteration when the group declared
    /// [`Throughput::Elements`] (1 otherwise), so rates are computable
    /// downstream.
    elements: u64,
}

fn records() -> &'static Mutex<Vec<Record>> {
    static RECORDS: OnceLock<Mutex<Vec<Record>>> = OnceLock::new();
    RECORDS.get_or_init(|| Mutex::new(Vec::new()))
}

fn run_one<F>(args: &Args, name: &str, sample_size: usize, throughput: Option<Throughput>, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    if !args.selects(name) {
        return;
    }
    if args.list {
        println!("{name}: benchmark");
        return;
    }
    let test_mode = !args.bench;
    let mut bencher = Bencher { test_mode, sample_size, result: None };
    f(&mut bencher);
    if test_mode {
        println!("{name}: ok (test mode, 1 iteration)");
        return;
    }
    match bencher.result {
        Some(stats) => {
            let rate = throughput.map(|t| match t {
                Throughput::Elements(n) => {
                    format!("  thrpt: {}/s", si(n as f64 / (stats.mean_ns * 1e-9)))
                }
                Throughput::Bytes(n) => {
                    format!("  thrpt: {}B/s", si(n as f64 / (stats.mean_ns * 1e-9)))
                }
            });
            println!(
                "{name}: time/iter [min {}s, mean {}s]{}",
                si(stats.min_ns * 1e-9),
                si(stats.mean_ns * 1e-9),
                rate.unwrap_or_default(),
            );
            let elements = match throughput {
                Some(Throughput::Elements(n)) => n,
                _ => 1,
            };
            records().lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(Record {
                name: name.to_string(),
                mean_ns: stats.mean_ns,
                min_ns: stats.min_ns,
                elements,
            });
        }
        None => println!("{name}: no measurement (body never called Bencher::iter)"),
    }
}

/// Serializes `recs` as the report object — a [`meta_json`] block plus
/// the `results` array (no external serializer: names are escaped by
/// hand, numbers printed with full precision).
fn render_json(recs: &[Record]) -> String {
    let mut out = String::from("{\n\"meta\": ");
    out.push_str(&meta_json());
    out.push_str(",\n\"results\": [\n");
    for (i, r) in recs.iter().enumerate() {
        let mut name = String::with_capacity(r.name.len());
        for ch in r.name.chars() {
            match ch {
                '"' => name.push_str("\\\""),
                '\\' => name.push_str("\\\\"),
                c if (c as u32) < 0x20 => name.push_str(&format!("\\u{:04x}", c as u32)),
                c => name.push(c),
            }
        }
        out.push_str(&format!(
            "  {{\"name\": \"{name}\", \"mean_ns\": {}, \"min_ns\": {}, \"elements\": {}}}{}\n",
            r.mean_ns,
            r.min_ns,
            r.elements,
            if i + 1 < recs.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n}\n");
    out
}

/// Writes the accumulated measurements to the path named by
/// `GTLB_BENCH_JSON`, if set. Called by `criterion_main!` after all
/// groups finish; a no-op without the variable (or in test mode, which
/// records nothing).
pub fn write_json_report() {
    let Ok(path) = std::env::var("GTLB_BENCH_JSON") else { return };
    if path.is_empty() {
        return;
    }
    let recs = records().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if recs.is_empty() {
        // Smoke-test runs (`cargo test` on a harness-less bench binary)
        // measure nothing; don't clobber a real artifact.
        return;
    }
    if let Err(e) = std::fs::write(&path, render_json(&recs)) {
        eprintln!("criterion shim: failed to write {path}: {e}");
    } else {
        println!("wrote {} benchmark records to {path}", recs.len());
    }
}

/// Formats a positive quantity with an SI prefix, three significant
/// digits (e.g. `1.23 M`, `456 n`).
fn si(x: f64) -> String {
    const PREFIXES: [(f64, &str); 7] =
        [(1e9, "G"), (1e6, "M"), (1e3, "k"), (1.0, ""), (1e-3, "m"), (1e-6, "µ"), (1e-9, "n")];
    for (scale, prefix) in PREFIXES {
        if x >= scale {
            let v = x / scale;
            let digits = if v >= 100.0 {
                0
            } else if v >= 10.0 {
                1
            } else {
                2
            };
            return format!("{v:.digits$} {prefix}");
        }
    }
    format!("{x:.3e} ")
}

/// Bundles benchmark functions into one group function, mirroring
/// upstream's macro shape (configuration arm not supported).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generates `main` running the given groups, then flushing the JSON
/// report when `GTLB_BENCH_JSON` is set.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
            $crate::write_json_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_like_upstream() {
        assert_eq!(BenchmarkId::new("NASH_P", 4).to_string(), "NASH_P/4");
        assert_eq!(BenchmarkId::from_parameter(10).to_string(), "10");
    }

    #[test]
    fn si_prefixes() {
        assert_eq!(si(1.234e6), "1.23 M");
        assert_eq!(si(456.0e-9), "456 n");
        assert_eq!(si(12.5e-3), "12.5 m");
    }

    #[test]
    fn json_report_is_well_formed() {
        let recs = vec![
            Record { name: "g/a".into(), mean_ns: 12.5, min_ns: 11.0, elements: 1 },
            Record { name: "quo\"te\\p".into(), mean_ns: 3.0, min_ns: 2.0, elements: 40_000 },
        ];
        let json = render_json(&recs);
        assert!(json.starts_with("{\n\"meta\": {\"git_sha\": \""), "{json}");
        assert!(json.ends_with("]\n}\n"), "{json}");
        assert!(json.contains("\"threads\": ") && json.contains("\"quick\": "), "{json}");
        assert!(json.contains(",\n\"results\": [\n"), "{json}");
        assert!(json.contains(r#""name": "g/a", "mean_ns": 12.5, "min_ns": 11, "elements": 1"#));
        assert!(json.contains(r#""quo\"te\\p""#), "quotes and backslashes escape: {json}");
        // Outer object + meta + two result objects; one separating
        // comma between results, none trailing.
        assert_eq!(json.matches('{').count(), 4);
        assert!(json.contains("},\n  {") && !json.contains("},\n]"));
        assert!(render_json(&[]).contains("\"results\": [\n]\n}"), "meta survives empty results");
    }

    #[test]
    fn meta_json_is_one_flat_object() {
        let meta = meta_json();
        assert!(meta.starts_with("{\"git_sha\": \"") && meta.ends_with('}'), "{meta}");
        assert!(meta.contains("\"threads\": ") && meta.contains("\"quick\": "), "{meta}");
        assert_eq!(meta.matches('{').count(), 1, "{meta}");
        assert!(!meta.contains('\\'), "sha needs no escaping: {meta}");
    }

    #[test]
    fn empty_report_is_not_written() {
        // Nothing records in test mode; an ambient GTLB_BENCH_JSON (e.g.
        // exported in a developer shell) must not produce a file.
        let path =
            std::env::temp_dir().join(format!("gtlb_shim_empty_{}.json", std::process::id()));
        std::env::set_var("GTLB_BENCH_JSON", &path);
        write_json_report();
        std::env::remove_var("GTLB_BENCH_JSON");
        assert!(!path.exists(), "empty report must not be written");
    }

    fn args(line: &[&str]) -> Args {
        Args::parse(line.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn libtest_arguments_parse_like_upstream() {
        assert_eq!(args(&[]), Args::default(), "cargo test: smoke-run everything");
        assert!(args(&["--bench"]).bench);
        let listed = args(&["--list", "--format", "terse"]);
        assert!(listed.list && !listed.bench && listed.filter.is_none(), "{listed:?}");
        let filtered = args(&["--bench", "--test-threads", "1", "-q", "detector"]);
        assert_eq!(filtered.filter.as_deref(), Some("detector"), "valued options skip their value");
        assert!(filtered.bench);
        assert!(filtered.selects("failover_detector/phi") && !filtered.selects("routing/alias"));
        let exact = args(&["--exact", "g/a"]);
        assert!(exact.selects("g/a") && !exact.selects("g/ab"));
    }

    #[test]
    fn list_and_filter_select_what_runs() {
        let mut c = Criterion { args: args(&["--list"]) };
        let mut calls = 0;
        c.bench_function("listed", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 0, "--list runs no body");
        let mut c = Criterion { args: args(&["wanted"]) };
        let mut group = c.benchmark_group("g");
        group.bench_function("wanted", |b| b.iter(|| calls += 1));
        group.bench_function("other", |b| b.iter(|| calls += 10));
        group.finish();
        assert_eq!(calls, 1, "only the name containing the filter runs");
    }

    #[test]
    fn test_mode_runs_body_once() {
        let mut c = Criterion { args: Args::default() };
        let mut calls = 0;
        c.bench_function("smoke", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 1);
        let mut group = c.benchmark_group("g");
        group.sample_size(5).throughput(Throughput::Elements(10));
        let mut with_input = 0;
        group.bench_with_input(BenchmarkId::new("f", 1), &3u32, |b, &x| b.iter(|| with_input += x));
        group.finish();
        assert_eq!(with_input, 3);
    }
}
