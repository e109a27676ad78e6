//! The workload and metric names the benchmark prints must be exactly the
//! ones `BENCHMARK.json` declares.

use pcor_perfbench::spec::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str_value(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    match value.field(key) {
        Value::Array(items) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn string<'a>(value: &'a Value, key: &str) -> &'a str {
    match value.field(key) {
        Value::String(s) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

fn assert_metrics(declared: &[Value], printed: &[MetricDef]) {
    let declared: Vec<(&str, &str, &str)> = declared
        .iter()
        .map(|m| (string(m, "name"), string(m, "unit"), string(m, "better")))
        .collect();
    let printed: Vec<(&str, &str, &str)> =
        printed.iter().map(|m| (m.name, m.unit, m.better)).collect();
    assert_eq!(declared, printed);
}

#[test]
fn workload_names_match() {
    let json = benchmark_json();
    let declared: Vec<&str> = array(&json, "workloads").iter().map(|w| string(w, "name")).collect();
    assert_eq!(declared, WORKLOADS);
}

#[test]
fn end_to_end_metrics_match() {
    assert_metrics(array(&benchmark_json(), "end_to_end"), &END_TO_END);
}

#[test]
fn per_layer_metrics_match() {
    assert_metrics(array(&benchmark_json(), "per_layer"), &PER_LAYER);
}

#[test]
fn command_builds_this_package() {
    let json = benchmark_json();
    let command: Vec<&str> = array(&json, "command")
        .iter()
        .map(|v| match v {
            Value::String(s) => s.as_str(),
            other => panic!("command entry {other:?}"),
        })
        .collect();
    assert!(command.contains(&"perfbench/Cargo.toml"), "{command:?}");
}
