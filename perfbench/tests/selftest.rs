//! Self-test of the benchmark itself: a tiny run of every workload emits
//! every metric `BENCHMARK.json` names, with its unit, and has no failed
//! request; every per-layer metric is exercised by some workload; a
//! negative control with one reference answer flipped reports failures.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use ssd_obs::json::JsonValue;

const WORKLOADS: [&str; 3] = ["lint-service", "table2-cold", "ingest"];

fn manifest() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    JsonValue::parse(&text).expect("BENCHMARK.json is JSON")
}

/// (name, unit) of every metric in one section of the manifest.
fn listed(section: &str) -> Vec<(String, String)> {
    let m = manifest();
    m.get(section)
        .and_then(JsonValue::as_array)
        .expect("section is a list")
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).and_then(JsonValue::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark at tiny size; returns its standard output and its
/// parsed last line.
fn run(workload: &str, trace: bool, flip: bool) -> (String, JsonValue) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"]);
    if flip {
        cmd.arg("--flip-reference");
    }
    let out = cmd.output().expect("the benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = JsonValue::parse(last).expect("the result line is JSON");
    (stdout, result)
}

fn count(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).expect(key)
}

fn assert_metrics(workload: &str, result: &JsonValue, section: &str) {
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{workload}"
    );
    assert!(count(result, "attempted") >= 1, "{workload}");
    assert_eq!(
        count(result, "failed"),
        0,
        "{workload}: failed_ratio must be 0"
    );
    let metrics = result
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics object");
    let want = listed(section);
    assert_eq!(
        metrics.len(),
        want.len(),
        "{workload}: exactly the {section} metrics"
    );
    for (name, unit) in want {
        let m = result
            .get("metrics")
            .and_then(|ms| ms.get(&name))
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let v = m
            .get("value")
            .and_then(JsonValue::as_f64)
            .expect("numeric value");
        assert!(v.is_finite(), "{workload}: {name} = {v}");
    }
}

#[test]
fn tiny_runs_emit_every_end_to_end_metric() {
    for w in WORKLOADS {
        assert_metrics(w, &run(w, false, false).1, "end_to_end");
    }
}

#[test]
fn tiny_traced_runs_emit_every_per_layer_metric() {
    let mut unexercised: Vec<String> = listed("per_layer").into_iter().map(|m| m.0).collect();
    for w in WORKLOADS {
        let (stdout, result) = run(w, true, false);
        assert_metrics(w, &result, "per_layer");
        let absent: Vec<&str> = stdout
            .lines()
            .find_map(|l| l.strip_prefix("not-exercised:"))
            .unwrap_or_else(|| panic!("{w}: a not-exercised line"))
            .split_whitespace()
            .collect();
        unexercised.retain(|name| absent.contains(&name.as_str()));
    }
    assert!(
        unexercised.is_empty(),
        "no workload exercises {unexercised:?}"
    );
}

#[test]
fn a_flipped_reference_answer_is_counted_as_failed() {
    for w in WORKLOADS {
        let (_, r) = run(w, false, true);
        assert!(
            count(&r, "failed") > 0,
            "{w}: the negative control must fail"
        );
        assert_eq!(r.get("correct"), Some(&JsonValue::Bool(false)), "{w}");
    }
}
