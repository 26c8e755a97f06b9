//! The benchmark's own test: each workload runs briefly, twice traced
//! with one seed and once end to end, one after another. Every count of work must repeat
//! exactly, and the printed metric names and units must be the ones
//! `BENCHMARK.json` declares.

use std::process::Command;
use tdb::prelude::Json;

/// Per-layer metrics that count work: a fixed seed reproduces them.
const EXACT_COUNTS: &[&str] = &[
    "algebra.rows_scanned",
    "algebra.sort_rows",
    "algebra.comparisons",
    "algebra.rows_offered",
    "storage.pages_read",
    "storage.bytes_read",
    "stream.workspace_peak",
    "net.reply_bytes",
    "net.chunks",
    "storage.append_pages_read_per_chunk",
    "wal.fsyncs_per_chunk",
    "wal.bytes_per_row",
];

const SEED: &str = "7";

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of each metric in a `BENCHMARK.json` list.
fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run once; returns `(name, unit, value)` of every printed metric.
fn run(workload: &str, trace: &str) -> Vec<(String, String, f64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_tdbbench"))
        .args(["--workload", workload, "--seed", SEED, "--seconds", "1"])
        .args(["--trace", trace])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let doc = Json::parse(last).expect("result line is JSON");
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("failed").and_then(Json::as_i64), Some(0));
    assert!(doc.get("attempted").and_then(Json::as_i64) >= Some(1));
    doc.get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).expect("unit").into(),
                m.get("value").and_then(Json::as_f64).expect("value"),
            )
        })
        .collect()
}

fn names(metrics: &[(String, String, f64)]) -> Vec<(String, String)> {
    let mut v: Vec<_> = metrics
        .iter()
        .map(|(n, u, _)| (n.clone(), u.clone()))
        .collect();
    v.sort();
    v
}

fn check(doc: &Json, workload: &str) {
    let mut e2e = declared(doc, "end_to_end");
    let mut layers = declared(doc, "per_layer");
    e2e.sort();
    layers.sort();

    assert_eq!(names(&run(workload, "0")), e2e, "end-to-end names/units");

    let first = run(workload, "1");
    let second = run(workload, "1");
    assert_eq!(names(&first), layers, "per-layer names/units");
    assert_eq!(names(&second), layers, "per-layer names/units");
    for name in EXACT_COUNTS {
        let value = |m: &[(String, String, f64)]| {
            m.iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, _, v)| *v)
                .expect("count metric printed")
        };
        assert_eq!(
            value(&first),
            value(&second),
            "{workload}: {name} differs between two runs of seed {SEED}"
        );
    }
}

#[test]
fn every_workload_repeats() {
    let doc = benchmark_json();
    let mut workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name").into())
        .collect();
    // Runnable, though left out of BENCHMARK.json (see README.md).
    workloads.push("join_limit".into());
    for w in &workloads {
        check(&doc, w);
    }
}
