//! Smoke test of the benchmark command: every workload named in
//! `BENCHMARK.json`, at a tiny size, in both modes, must pass its
//! correctness gate and print every metric `BENCHMARK.json` names for
//! that mode, with the unit it declares.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

use serde::{Deserialize, Error, Value};

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Workload>,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
}

#[derive(Deserialize)]
struct MetricDef {
    name: String,
    unit: String,
}

/// Any JSON value (the result's metric map has open keys).
struct Raw(Value);

impl Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Raw(v.clone()))
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_llamcat-perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("UTF-8 output"),
    )
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec: Benchmark = serde_json::from_str(
        &std::fs::read_to_string(&spec).expect("BENCHMARK.json at the repository root"),
    )
    .expect("BENCHMARK.json parses");
    assert_eq!(spec.workloads.len(), 3);
    for w in &spec.workloads {
        for (trace, metrics) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
            let what = format!("{} --trace {trace}", w.name);
            let (ok, stdout) = run(&[
                "--workload",
                &w.name,
                "--seed",
                "7",
                "--seconds",
                "0.2",
                "--trace",
                trace,
                "--tiny",
            ]);
            assert!(ok, "{what} failed:\n{stdout}");
            let last = stdout.lines().last().expect("some output");
            let Raw(result) = serde_json::from_str(last).expect("last line is JSON");
            assert_eq!(
                field(&result, "correct"),
                Some(&Value::Bool(true)),
                "{what}"
            );
            assert_eq!(field(&result, "failed"), Some(&Value::U64(0)), "{what}");
            assert!(
                matches!(field(&result, "attempted"), Some(Value::U64(n)) if *n >= 1),
                "{what}"
            );
            let printed = field(&result, "metrics")
                .and_then(Value::as_map)
                .expect("metrics object");
            assert_eq!(
                printed.len(),
                metrics.len(),
                "{what}: extra or missing metrics"
            );
            for m in metrics.iter() {
                let got = printed
                    .iter()
                    .find(|(k, _)| *k == m.name)
                    .map(|(_, v)| v)
                    .unwrap_or_else(|| panic!("{what}: {} not printed", m.name));
                assert_eq!(
                    field(got, "unit").and_then(Value::as_str),
                    Some(m.unit.as_str()),
                    "{what}: unit of {}",
                    m.name
                );
                assert!(
                    matches!(
                        field(got, "value"),
                        Some(Value::F64(_) | Value::U64(_) | Value::I64(_))
                    ),
                    "{what}: {} has no numeric value",
                    m.name
                );
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "serve-kv", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok, "{args:?} should fail");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}
