//! tdbbench — the tdb benchmark.
//!
//! ```text
//! tdbbench --workload <filter|join_limit|join_full|ingest> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` generates the workload's inputs from the seed, loads them,
//! serves them with `tdb_net::serve` in-process and drives the server
//! through `tdb_net::Client` over loopback TCP in a closed loop for
//! `--seconds`, checking every reply against oracles computed from the
//! generated tuples. `--trace 1` runs the traced ledger instead (see
//! `ledger.rs`). The last line of stdout is the result object; the line
//! before it is the run context. See `README.md` for the workloads and
//! metrics.

mod data;
mod ledger;
mod report;
mod wire;

use report::{median, peak_rss_mb, quantile, Outcome, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tdb::prelude::{jobj, TdbResult};
use wire::Inputs;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Filter,
    JoinLimit,
    JoinFull,
    Ingest,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "filter" => Some(Workload::Filter),
            "join_limit" => Some(Workload::JoinLimit),
            "join_full" => Some(Workload::JoinFull),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Filter => "filter",
            Workload::JoinLimit => "join_limit",
            Workload::JoinFull => "join_full",
            Workload::Ingest => "ingest",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.as_str(), v.as_str());
            }
            _ => return Err(format!("bad arguments: {argv:?}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let workload = Workload::parse(get("--workload")?).ok_or("unknown --workload")?;
    let seed = get("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The end-to-end run: repeated set-ups, then the closed loop on the last.
fn end_to_end(args: &Args, work: &std::path::Path) -> TdbResult<Outcome> {
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (served, inputs) = wire::setup(args.workload, args.seed, work, i)?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some((old, _)) = kept.replace((served, inputs)) {
            wire::Served::teardown(old);
        }
    }
    let (mut served, inputs) = kept.expect("at least one set-up");
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (tally, written, stored) = match &inputs {
        Inputs::Table(t) => {
            let tally = wire::query_loop(
                args.workload,
                args.seed,
                t,
                &mut served.client,
                deadline,
                &mut |_| {},
            );
            let load_bytes = served.load_bytes;
            served.teardown();
            (tally, load_bytes, t.tuples.len() as u64)
        }
        Inputs::Episodes(episodes) => {
            let tally = wire::ingest_loop(args.seed, episodes, served, work, deadline, &mut |_| {});
            let (written, rows) = (tally.written_bytes, tally.rows);
            (tally, written, rows)
        }
    };

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("setup_s", median(&setups));
    m.insert("latency_p50_ms", median(&tally.latency_ms));
    m.insert("latency_p90_ms", quantile(&tally.latency_ms, 0.9));
    m.insert("requests_per_s", tally.requests as f64 / tally.wall_s);
    m.insert("rows_per_s", tally.rows as f64 / tally.wall_s);
    m.insert("write_bytes_per_row", written as f64 / stored.max(1) as f64);
    m.insert("peak_rss_mb", peak_rss_mb());
    m.insert(
        "success_ratio",
        1.0 - tally.failed as f64 / tally.requests.max(1) as f64,
    );
    eprintln!(
        "{}: {} requests ({} timed) in {:.2} s, {} failed",
        args.workload.name(),
        tally.requests,
        tally.latency_ms.len(),
        tally.wall_s,
        tally.failed
    );
    if !tally.read_ms.is_empty() {
        // The concurrent reader's latency is shown here, not gated: its
        // percentiles swing more between runs than any bound allows.
        eprintln!(
            "reader: {} selections, p50 {:.2} ms, p90 {:.2} ms",
            tally.read_ms.len(),
            median(&tally.read_ms),
            quantile(&tally.read_ms, 0.9)
        );
    }
    Ok(Outcome {
        attempted: tally.requests,
        failed: tally.failed,
        metrics: m,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tdbbench: {e}");
            eprintln!(
                "usage: tdbbench --workload <filter|join_limit|join_full|ingest> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let work: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "work",
        &format!("{}-{}", args.workload.name(), std::process::id()),
    ]
    .iter()
    .collect();
    let flush = if args.workload == Workload::Ingest {
        tdb::prelude::FlushPolicy::default().name()
    } else {
        "none"
    };
    let context = report::context(
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        flush,
    );
    let result = if args.trace {
        ledger::run(args.workload, args.seed, args.seconds, &work).map(|(a, f, m)| Outcome {
            attempted: a,
            failed: f,
            metrics: m,
        })
    } else {
        end_to_end(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tdbbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    println!("{}", jobj! { "context" => context });
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if !report::print_result(&outcome, table) {
        std::process::exit(1);
    }
}
