//! Metric names, sample statistics, run context and the result line.
//!
//! The two tables below must match `BENCHMARK.json`: every run prints
//! exactly the end-to-end metrics (`--trace 0`) or exactly the per-layer
//! metrics (`--trace 1`), by these names and units. The benchmark's own
//! test checks the two agree.

use std::collections::BTreeMap;
use tdb::prelude::{jobj, Json};

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("rows_per_s", "1/s"),
    ("write_bytes_per_row", "B/row"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("quel.compile_us", "us"),
    ("algebra.optimize_us", "us"),
    ("analyze.verify_us", "us"),
    ("algebra.execute_us", "us"),
    ("algebra.rows_scanned", "count"),
    ("algebra.sort_rows", "count"),
    ("algebra.comparisons", "count"),
    ("algebra.rows_offered", "count"),
    ("algebra.useful_ratio", "ratio"),
    ("algebra.wrap_sort_us", "us"),
    ("storage.scan_us", "us"),
    ("storage.pages_read", "count"),
    ("storage.bytes_read", "B"),
    ("stream.kernel_us", "us"),
    ("stream.workspace_peak", "count"),
    ("stream.parallel_us", "us"),
    ("engine.execute_us", "us"),
    ("engine.encode_us", "us"),
    ("net.reply_bytes", "B"),
    ("net.chunks", "count"),
    ("net.rtt_us", "us"),
    ("live.ingest_us", "us"),
    ("storage.append_pages_read_per_chunk", "count"),
    ("wal.fsyncs_per_chunk", "count"),
    ("wal.fsync_us", "us"),
    ("wal.bytes_per_row", "B/row"),
    ("obs.spans_overhead", "ratio"),
    ("obs.span_parse_us", "us"),
    ("obs.span_plan_us", "us"),
    ("obs.span_analyze_us", "us"),
    ("obs.span_execute_us", "us"),
    ("obs.span_operator_us", "us"),
    ("obs.operator_start_gap_us", "us"),
    ("unattributed_us", "us"),
];

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` by the nearest-rank rule (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Process peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of a git checkout at `root`, read from `.git` without
/// spawning git; `"none"` outside a git checkout.
fn git_commit(root: &std::path::Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
        None if !head.is_empty() => Some(head.to_string()),
        None => None,
    };
    commit.unwrap_or_else(|| "none".to_string())
}

/// The run context recorded next to every result.
pub fn context(workload: &str, seed: u64, seconds: u64, trace: bool, flush: &str) -> Json {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(std::path::Path::to_path_buf)
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    jobj! {
        "workload" => workload,
        "seed" => seed as i64,
        "seconds" => seconds as i64,
        "trace" => trace,
        "nproc" => nproc,
        "profile" => if cfg!(debug_assertions) { "debug" } else { "release" },
        "git_commit" => git_commit(&root),
        "flush_policy" => flush,
    }
}

/// What one run observed.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Print the result line (last line of stdout) for `table`; returns
/// whether the run was correct. A metric missing from `metrics`, or not
/// finite, makes the run incorrect.
pub fn print_result(out: &Outcome, table: &[(&'static str, &'static str)]) -> bool {
    let mut correct = out.failed == 0 && out.attempted > 0;
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            other => {
                eprintln!("metric {name} missing or not finite: {other:?}");
                correct = false;
                0.0
            }
        };
        metrics.push((name.to_string(), jobj! { "value" => value, "unit" => unit }));
    }
    let line = jobj! {
        "correct" => correct,
        "attempted" => out.attempted as i64,
        "failed" => out.failed as i64,
        "metrics" => Json::Object(metrics),
    };
    println!("{line}");
    correct
}
