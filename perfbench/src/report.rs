//! Metric catalogue, output checks, and the result line.

use crate::Args;
use rain_serve::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// The metric catalogue is `BENCHMARK.json` at the repository root,
/// compiled in so the names and units printed cannot drift from the ones
/// declared. Every workload reports every metric of its mode: the
/// `end_to_end` list with `--trace 0`, `per_layer` with `--trace 1`.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric of one mode, in declaration order.
fn catalogue(trace: bool) -> Vec<(String, String)> {
    let spec = rain_serve::json::parse(SPEC).expect("BENCHMARK.json is valid JSON");
    let list = if trace { "per_layer" } else { "end_to_end" };
    let field = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {list} entry without {key}"))
            .to_string()
    };
    spec.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Everything one workload run reports.
pub struct Outcome {
    workload: String,
    catalogue: Vec<(String, String)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, (f64, usize)>,
    context: Vec<(String, Json)>,
}

impl Outcome {
    pub fn new(args: &Args) -> Outcome {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut o = Outcome {
            workload: args.workload.clone(),
            catalogue: catalogue(args.trace),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            context: Vec::new(),
        };
        o.context("workload", Json::str(&args.workload));
        o.context("seed", Json::num(args.seed as f64));
        o.context("seconds", Json::num(args.seconds));
        o.context("trace", Json::Bool(args.trace));
        o.context("host_cores", Json::num(cores as f64));
        o
    }

    /// Record one run-context entry (input sizes, thread counts, ...).
    pub fn context(&mut self, key: &str, value: Json) {
        self.context.push((key.to_string(), value));
    }

    /// Count one attempted operation and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Count `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// An output check: a false `ok` makes the whole run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            let msg = what();
            eprintln!("perfbench: CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
        ok
    }

    /// Report metric `name` (which must be in the catalogue of this run's
    /// mode) measured over `samples` samples.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            self.catalogue.iter().any(|(n, _)| n == name),
            "metric {name} is not in this mode's catalogue"
        );
        self.metrics.insert(name, (value, samples));
    }

    /// Print the run context, one line per metric, and the result line;
    /// exit non-zero when any output check failed.
    pub fn finish(self) -> ExitCode {
        let mut failures = self.failures;
        for (name, _) in &self.catalogue {
            if !self.metrics.contains_key(name.as_str()) {
                failures.push(format!("metric {name} was not measured"));
            }
        }
        if self.attempted == 0 {
            failures.push("no operation was attempted".into());
        }
        if self.failed > 0 {
            failures.push(format!(
                "{} of {} operations failed",
                self.failed, self.attempted
            ));
        }
        let correct = failures.is_empty();

        println!("context {}", Json::Obj(self.context));
        let mut metrics = Vec::new();
        for (name, unit) in &self.catalogue {
            let Some(&(value, samples)) = self.metrics.get(name.as_str()) else {
                continue;
            };
            println!("{name:<34} {value:>14.6} {unit:<6} samples={samples}");
            metrics.push((
                name.clone(),
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
            ));
        }
        for f in &failures {
            println!("failed check: {f}");
        }
        println!(
            "{}",
            Json::obj(vec![
                ("correct", Json::Bool(correct)),
                ("attempted", Json::num(self.attempted as f64)),
                ("failed", Json::num(self.failed as f64)),
                ("metrics", Json::Obj(metrics)),
            ])
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            eprintln!("perfbench: {} failed its output checks", self.workload);
            ExitCode::FAILURE
        }
    }
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-quantile, or `None` unless at least ten samples lie
/// beyond it (fewer cannot resolve a tail).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let idx = ((p * n as f64).ceil() as usize).max(1) - 1;
    (n - idx > 10).then(|| s[idx])
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time a closure, returning its result and elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Benchmark-side spans: total seconds and call count per name, recorded
/// around the public calls the benchmark makes into each layer.
#[derive(Default)]
pub struct Spans {
    totals: BTreeMap<&'static str, (f64, usize)>,
}

impl Spans {
    /// Run `f` under span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, secs) = timed(f);
        let e = self.totals.entry(name).or_insert((0.0, 0));
        e.0 += secs;
        e.1 += 1;
        out
    }

    /// Mean seconds per entry of span `name` (0 if never entered).
    pub fn mean(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |&(secs, n)| secs / n as f64)
    }
}

/// A scratch directory inside the working directory (the benchmark
/// touches nothing outside its checkout), removed on drop.
pub struct ScratchDir {
    pub path: std::path::PathBuf,
}

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        let path = std::path::Path::new(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory");
        ScratchDir { path }
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either (fails harmlessly when
        // another run still uses it).
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}
