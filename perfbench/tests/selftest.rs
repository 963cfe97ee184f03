//! Self-test of the benchmark, on `--quick` runs: the metric names and
//! units it prints are exactly those `BENCHMARK.json` declares, the
//! virtual outputs and counts of a run repeat exactly, and the grid's
//! virtual latencies are the pinned values below.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use hera_integration::minijson::{self, Value};
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    minijson::parse(&text).expect("BENCHMARK.json parses")
}

/// Run the benchmark in quick mode from the repository root and return
/// the parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--quick",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = minijson::parse(last).expect("result line is JSON");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    result
}

/// `(name, unit)` pairs of a result's metrics, sorted.
fn printed(result: &Value) -> Vec<(String, String)> {
    let mut v: Vec<_> = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    v.sort();
    v
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list, sorted.
fn declared(list: &str) -> Vec<(String, String)> {
    let bench = benchmark_json();
    let mut v: Vec<_> = bench
        .get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let get = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (get("name"), get("unit"))
        })
        .collect();
    v.sort();
    v
}

fn value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name}"))
}

fn workloads() -> Vec<String> {
    benchmark_json()
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Metrics that are functions of the simulated system alone (no host
/// time), and so must repeat exactly.
fn is_virtual(name: &str, unit: &str) -> bool {
    matches!(unit, "count" | "vcycles" | "bytes")
        || name.ends_with("hit_ratio")
        || name.ends_with("goodput")
}

/// Every workload the command runs. `BENCHMARK.json` measures a subset:
/// `fleet-recovery` is left out of it (see README.md, "Time budget").
const WORKLOADS: [&str; 3] = ["vm-grid", "fleet-recovery", "fleet-traffic"];

#[test]
fn workloads_print_exactly_the_declared_end_to_end_metrics_and_repeat() {
    assert_eq!(workloads(), ["vm-grid", "fleet-traffic"]);
    for w in WORKLOADS {
        let a = run(w, 7, false);
        assert_eq!(printed(&a), declared("end_to_end"), "{w}");
        let b = run(w, 7, false);
        for (name, unit) in printed(&a) {
            if is_virtual(&name, &unit) {
                assert_eq!(
                    value(&a, &name),
                    value(&b, &name),
                    "{w}: {name} did not repeat"
                );
            }
        }
    }
}

#[test]
fn traced_run_prints_exactly_the_declared_layer_metrics_and_repeats() {
    let a = run("fleet-traffic", 11, true);
    assert_eq!(printed(&a), declared("per_layer"));
    let b = run("fleet-traffic", 11, true);
    let mut compared = 0;
    for (name, unit) in printed(&a) {
        if is_virtual(&name, &unit) {
            assert_eq!(value(&a, &name), value(&b, &name), "{name} did not repeat");
            compared += 1;
        }
    }
    assert!(
        compared >= 40,
        "only {compared} virtual layer metrics compared"
    );
}

#[test]
fn quick_grid_virtual_latencies_are_pinned() {
    // Median and maximum wall cycles of the nine grid cells at the quick
    // scale (0.05); the grid's inputs are compiled-in constants, so these
    // are independent of the seed.
    let r = run("vm-grid", 3, false);
    assert_eq!(value(&r, "p50_vcycles"), 3_296_442.0);
    assert_eq!(value(&r, "p95_vcycles"), 6_195_720.0);
    assert_eq!(value(&r, "p999_vcycles"), 6_195_720.0);
    assert_eq!(value(&r, "goodput"), 1.0);
}
