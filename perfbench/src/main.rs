//! The repository benchmark: one command that generates a workload from a
//! seed, serves it closed-loop from one client thread, checks every
//! answer against an independent reference, and prints end-to-end metrics
//! (`--trace 0`) or per-layer metrics (`--trace 1`).
//!
//! ```text
//! perfbench --workload <lint-service|table2-cold|ingest> --seed <n>
//!           --seconds <s> --trace <0|1> [--size tiny|full] [--flip-reference]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--size tiny` and
//! `--flip-reference` (which inverts one reference answer, a negative
//! control) exist for the benchmark's self-test.

mod common;
mod ingest;
mod lint_service;
mod table2_cold;

use common::{peak_rss_mib, percentile, Config, Layers, Size, Tally, Timed};

/// The end-to-end metrics of `--trace 0`, with units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("decided_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics of `--trace 1`, with units.
const PER_LAYER: [(&str, &str); 36] = [
    ("query.parse_us", "us"),
    ("query.classify_us", "us"),
    ("schema.parse_us", "us"),
    ("schema.classify_us", "us"),
    ("schema.type_graph_us", "us"),
    ("core.feas_key_us", "us"),
    ("core.verdict_hit_us", "us"),
    ("core.verdict_miss_us", "us"),
    ("core.feas_memo.hit_ratio", "ratio"),
    ("core.type_graph.hit_ratio", "ratio"),
    ("core.evicted", "count"),
    ("core.trace_product_us", "us"),
    ("core.bounded_joins_us", "us"),
    ("core.tagged_suffix_us", "us"),
    ("core.general_search_us", "us"),
    ("core.exhausted", "count"),
    ("core.infer_us", "us"),
    ("core.typecheck_us", "us"),
    ("core.ptime_slope", "1"),
    ("core.np_growth_per_var", "x"),
    ("automata.hit_ratio", "ratio"),
    ("automata.misses", "count"),
    ("automata.compiled_bytes", "bytes"),
    ("automata.evicted", "count"),
    ("lint.lint_us", "us"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.sections_loaded", "count"),
    ("obs.telemetry_ratio", "ratio"),
    ("model.parse_mib_s", "MiB/s"),
    ("schema.conform_tagged_us", "us"),
    ("schema.conform_untagged_us", "us"),
    ("optimizer.adaptive_us", "us"),
    ("optimizer.edges_explored", "count"),
    ("optimizer.edges_naive", "count"),
    ("trace_overhead_ratio", "ratio"),
];

const WORKLOADS: [&str; 3] = ["lint-service", "table2-cold", "ingest"];

/// Servings of each request in a timed run (see [`Config::replays`]).
const REPLAYS: usize = 4;

struct Args {
    workload: String,
    trace: bool,
    cfg: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut size, mut flip) = (Size::Full, false);
    while let Some(flag) = it.next() {
        if flag == "--flip-reference" {
            flip = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "tiny" => Size::Tiny,
                    "full" => Size::Full,
                    _ => return Err("--size takes tiny or full".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        trace: trace.ok_or("--trace is required")?,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            size,
            replays: REPLAYS,
            flip_reference: flip,
        },
    })
}

fn timed(workload: &str, cfg: &Config) -> Result<Timed, String> {
    match workload {
        "lint-service" => lint_service::timed(cfg),
        "table2-cold" => table2_cold::timed(cfg),
        _ => ingest::timed(cfg),
    }
}

fn traced(workload: &str, cfg: &Config) -> Result<Layers, String> {
    match workload {
        "lint-service" => lint_service::traced(cfg),
        "table2-cold" => table2_cold::traced(cfg),
        _ => ingest::traced(cfg),
    }
}

/// A JSON number: finite values print with all their digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_line(tally: Tally, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// A run's tally and its metrics as (name, unit, value).
type RunResult = Result<(Tally, Vec<(&'static str, &'static str, f64)>), String>;

fn run_timed(args: &Args) -> RunResult {
    let mut t = timed(&args.workload, &args.cfg)?;
    for (k, v) in &t.properties {
        println!("property {k}={v}");
    }
    let n = t.latencies_ns.len();
    let p50 = percentile(&mut t.latencies_ns, 0.50) as f64 / 1e3;
    let p99 = percentile(&mut t.latencies_ns, 0.99) as f64 / 1e3;
    let tally = t.tally;
    println!(
        "latency samples={n} (p99 has {} beyond it); failed_ratio={}",
        n - (0.99 * n as f64).ceil() as usize,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let values = [
        common::median(std::mem::take(&mut t.setups)),
        t.throughput(),
        p50,
        p99,
        tally.decided as f64 / tally.attempted.max(1) as f64,
        peak_rss_mib(),
    ];
    Ok((
        tally,
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), v)| (*name, *unit, v))
            .collect(),
    ))
}

/// The traced run: a single timed pass and a traced pass of the workload,
/// half the seconds each (their throughputs give `trace_overhead_ratio`).
/// A layer the workload does not exercise reads 0 and is named on the
/// `not-exercised` line; every layer is exercised by some workload.
fn run_traced(args: &Args) -> RunResult {
    let half = Config {
        seconds: args.cfg.seconds / 2.0,
        replays: 1,
        ..args.cfg
    };
    let timed_pass = timed(&args.workload, &half)?;
    let mut own = traced(&args.workload, &half)?;
    let mut tally = timed_pass.tally;
    tally.merge(own.tally);
    own.set(
        "trace_overhead_ratio",
        timed_pass.throughput() / own.throughput.max(1e-12),
    );
    for note in &own.notes {
        println!("{note}");
    }
    let absent: Vec<&str> = PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !own.metrics.contains_key(name))
        .collect();
    println!("not-exercised: {}", absent.join(" "));
    let out = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, own.metrics.get(name).copied().unwrap_or(0.0)))
        .collect();
    Ok((tally, out))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} size={:?} threads=1 cores={}",
        args.workload,
        args.cfg.seed,
        args.cfg.seconds,
        u8::from(args.trace),
        args.cfg.size,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_timed(&args)
    };
    match result {
        Ok((tally, metrics)) => println!("{}", result_line(tally, &metrics)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
