//! Shared measurement plumbing: run configuration, correctness tallies,
//! latency samples, per-layer accumulators and the result line.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// How large a workload's inputs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// Seconds-scale smoke size (the self-test).
    Tiny,
    /// The benchmark's stated input size.
    Full,
}

/// One run's settings, fixed before any input is generated.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub seed: u64,
    /// Service time a timed pass accumulates before it stops.
    pub seconds: f64,
    pub size: Size,
    /// Times a timed pass serves its requests, each time from a freshly
    /// started service; every serving is a latency sample.
    pub replays: usize,
    /// Negative control: flip one precomputed reference answer.
    pub flip_reference: bool,
}

impl Config {
    pub fn full(&self) -> bool {
        self.size == Size::Full
    }

    /// Requests one pass serves: `--seconds` of service time at the
    /// workload's nominal `rate` (requests per second on the reference
    /// host), split over the replays. A fixed count, not a deadline, keeps
    /// the inputs of a seed (and the memory they grow) independent of how
    /// fast the host happens to run.
    pub fn requests(&self, rate: f64) -> usize {
        ((self.seconds * rate / self.replays as f64).ceil() as usize).max(1)
    }

    /// Idles for one replay's share of `--seconds` before the next replay,
    /// so the replays sample the host over a longer window than the
    /// service time alone.
    pub fn pause_before_replay(&self) {
        std::thread::sleep(std::time::Duration::from_secs_f64(
            self.seconds / self.replays as f64,
        ));
    }
}

/// Correctness and budget tally of the requests a pass served.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Requests that finished within their budget (`Done`).
    pub decided: u64,
}

impl Tally {
    /// Records one request: `ok` is "no `Err` and no answer differing
    /// from the reference"; `decided` is "returned `Done`".
    pub fn record(&mut self, ok: bool, decided: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.decided += u64::from(decided);
    }

    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.decided += o.decided;
    }
}

/// What a timed (untraced) pass measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Durations of the repeated set-ups, in seconds; `setup_s` is their
    /// median. Set-ups are spread over the run (a group after each
    /// replay), so they sample more than one period of the host.
    pub setups: Vec<f64>,
    /// Service time of every serving of every request, nanoseconds.
    pub latencies_ns: Vec<u64>,
    pub tally: Tally,
    /// Input properties, printed on every run.
    pub properties: Vec<(String, String)>,
}

impl Timed {
    pub fn busy_s(&self) -> f64 {
        self.latencies_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Servings per second of service time, over all replays: one
    /// closed-loop client with zero think time, so the client's own
    /// checking between requests is not charged to the program.
    pub fn throughput(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.busy_s().max(1e-12)
    }

    /// Marks the start of the timed passes, once inputs and references
    /// are ready: makes room for `samples` latencies (touching the pages,
    /// so the samples' own memory is already resident), resets the peak
    /// RSS and records the resident set at this point as the
    /// `rss_at_start_mib` property.
    pub fn start(&mut self, samples: usize) -> Result<(), String> {
        self.latencies_ns.resize(samples, 0);
        self.latencies_ns.clear();
        let rss = reset_peak_rss()?;
        self.property("rss_at_start_mib", rss);
        Ok(())
    }

    pub fn property(&mut self, key: &str, value: impl std::fmt::Display) {
        self.properties.push((key.to_owned(), value.to_string()));
    }
}

/// Nearest-rank percentile of unsorted samples (`q` in `[0, 1]`).
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1
}

/// Median of a small set of measurements.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// A `/proc/self/status` size field (`VmHWM`, `VmRSS`), MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident set size of this process (`VmHWM`) since the last
/// [`reset_peak_rss`], MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}

/// Resets `VmHWM` to the current resident set, so the peak covers only
/// what follows. Returns the resident set at that point, MiB.
fn reset_peak_rss() -> Result<f64, String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS: {e}"))?;
    Ok(status_mib("VmRSS"))
}

/// Times `f`, returning its value and the elapsed nanoseconds.
pub fn clock<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_nanos() as u64)
}

/// Mean-time accumulator of one layer's public call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub ns: u64,
    pub calls: u64,
}

impl Acc {
    pub fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.calls += 1;
    }

    /// Times `f` into this accumulator.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (v, ns) = clock(f);
        self.add(ns);
        v
    }

    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Per-layer metrics of one traced pass, by name (units are listed with
/// the names in `main.rs`).
#[derive(Debug, Default)]
pub struct Layers {
    pub metrics: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    /// Requests served per second of service time while traced.
    pub throughput: f64,
    /// Human-readable notes printed with the traced run.
    pub notes: Vec<String>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets a mean-µs metric from an accumulator that saw calls.
    pub fn set_us(&mut self, name: &'static str, acc: &Acc) {
        if acc.calls > 0 {
            self.set(name, acc.mean_us());
        }
    }
}

/// A file path in the directory of this executable (inside the build
/// directory of the checkout), unique to this process.
pub fn snapshot_path(stem: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    // A per-process counter; no data is published through it.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{stem}-{}-{n}.snap", std::process::id()))
}

/// Least-squares slope of `ln y` against `ln x`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// Zipf(1) sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut impl ssd_base::rng::Rng) -> usize {
        let u = unit(rng);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A uniform draw in `[0, 1)`.
pub fn unit(rng: &mut impl ssd_base::rng::Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}
