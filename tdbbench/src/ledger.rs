//! The traced run: the same work, timed layer by layer from outside.
//!
//! No span inside the program is used for these timings. The benchmark
//! calls each layer's public entry point itself — `quel::compile`,
//! `conventional_optimize`, `plan_verified`, `PhysicalPlan::execute`,
//! `Catalog::scan`, the stream kernels, `Engine::execute`, the wire
//! `Frame` encoder, `Engine::ingest_rows` — and times the call. The
//! engine's own stage spans (`\trace export`) are recorded next to these
//! outside-in timings so the two can be compared.
//!
//! A layer the workload's requests never reach reports 0 (for example
//! `live.ingest_us` on `filter`, or `stream.kernel_us` on a selection).

use crate::data::{self, Relation, Selections};
use crate::report::{median, quantile, PER_LAYER};
use crate::wire::{self, err, Inputs, Served, CHUNK_ROWS, EPISODE_ROWS, X_BASE_ROWS};
use crate::Workload;
use bytes::BytesMut;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use tdb::prelude::{
    compile, conventional_optimize, plan_verified, Catalog, ExecOptions, FlushPolicy, IoStats,
    Json, LimitSink, OpConfig, ParallelPattern, Period, PeriodRow, PlannerConfig, Row, RowSink,
    StreamOrder, TdbResult,
};
use tdb::stream::{parallel_join_each, run_join_kind_each, StreamOpKind};
use tdb_engine::{parse_arrivals, ClientState, Engine, Response};
use tdb_net::wire::Frame;
use tdb_net::Client;

/// Share of the run spent on the wire phase (end-to-end reference and
/// stage-span exports); the rest goes to in-process ledger rounds.
const WIRE_SHARE: f64 = 0.3;
/// Selections per ledger round (`filter`, and the `ingest` reader).
const SELECTIONS_PER_ROUND: usize = 8;
/// Partitions for `stream.parallel_us` (`join_limit`'s `\set parallelism`).
const PARALLEL_K: usize = 2;
/// Result bytes per streamed reply chunk, as the server slices them.
const CHUNK_BYTES: u64 = 4 << 20;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time samples (pooled over rounds, reported as medians) and counts
/// (from the first round, reported as per-request means).
#[derive(Default)]
struct Ledger {
    times: BTreeMap<&'static str, Vec<f64>>,
    /// Spans-on / spans-off engine times, for `obs.spans_overhead`.
    spans_on: Vec<f64>,
    spans_off: Vec<f64>,
}

impl Ledger {
    fn time(&mut self, name: &'static str, v: f64) {
        self.times.entry(name).or_default().push(v);
    }
}

/// One query's counts, summed over a round and divided at its end.
#[derive(Default)]
struct RoundCounts {
    n: f64,
    sums: BTreeMap<&'static str, f64>,
}

impl RoundCounts {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }
}

/// The shape of the workload's query as the ledger times it.
#[derive(Clone, Copy)]
struct Shape {
    /// Relations scanned (`T` twice for the self-join).
    inputs: usize,
    /// Contain-join kernel emit limit (`None` = a selection, no kernel).
    join_limit: Option<usize>,
    /// Partition count (`1` = serial).
    parallelism: usize,
    /// The connection's `\set limit`.
    row_limit: usize,
}

fn shape(workload: Workload) -> Shape {
    match workload {
        Workload::Filter | Workload::Ingest => Shape {
            inputs: 1,
            join_limit: None,
            parallelism: 1,
            row_limit: data::FILTER_LIMIT,
        },
        Workload::JoinLimit => Shape {
            inputs: 2,
            join_limit: Some(data::JOIN_LIMIT),
            parallelism: 2,
            row_limit: data::JOIN_LIMIT,
        },
        Workload::JoinFull => Shape {
            inputs: 2,
            join_limit: Some(usize::MAX),
            parallelism: 1,
            row_limit: data::JOIN_FULL_LIMIT,
        },
    }
}

/// Wrap scanned rows (`Id, Seq, ValidFrom, ValidTo`) as period rows.
fn wrap(rows: Vec<Row>) -> TdbResult<Vec<PeriodRow>> {
    rows.into_iter()
        .map(|row| {
            let ts = row.get(2).as_time().ok_or_else(|| err("ValidFrom"))?;
            let te = row.get(3).as_time().ok_or_else(|| err("ValidTo"))?;
            Ok(PeriodRow::new(row, Period::new(ts, te)?))
        })
        .collect()
}

/// An emit closure that takes `limit` rows, then stops the producer.
fn take_rows(limit: usize) -> impl FnMut(Vec<(PeriodRow, PeriodRow)>) -> TdbResult<bool> {
    let mut taken = 0usize;
    move |chunk| {
        taken = taken.saturating_add(chunk.len());
        Ok(taken < limit)
    }
}

/// The reply frames the server would write for `resp`: one `Reply`, or a
/// `QueryStream` header plus `ReplyChunk`s for a result over 4 MiB.
fn reply_frames(resp: Response) -> Vec<Frame> {
    let size = |rows: &[Row]| -> u64 { rows.iter().map(tdb::stream::row_bytes).sum() };
    match resp {
        Response::Query(mut q) if size(&q.rows.rows) > CHUNK_BYTES => {
            let query_id = q.query_id;
            let rows = std::mem::take(&mut q.rows.rows);
            let mut frames = vec![Frame::Reply {
                query_id,
                response: Box::new(Response::QueryStream(q)),
            }];
            let (mut chunk, mut budget, total) = (Vec::new(), 0u64, rows.len());
            for (i, row) in rows.into_iter().enumerate() {
                budget += tdb::stream::row_bytes(&row);
                chunk.push(row);
                let last = i + 1 == total;
                if budget >= CHUNK_BYTES || last {
                    frames.push(Frame::ReplyChunk {
                        query_id,
                        seq: frames.len() as u32 - 1,
                        last,
                        rows: std::mem::take(&mut chunk),
                    });
                    budget = 0;
                }
            }
            frames
        }
        other => {
            let query_id = match &other {
                Response::Query(q) => q.query_id,
                _ => 0,
            };
            vec![Frame::Reply {
                query_id,
                response: Box::new(other),
            }]
        }
    }
}

/// Time one query through every layer it reaches.
fn measure_query(
    engine: &mut Engine,
    ctx: &mut ClientState,
    text: &str,
    relation: &str,
    sh: Shape,
    ledger: &mut Ledger,
    counts: &mut RoundCounts,
) -> TdbResult<()> {
    let config = ctx.config;
    let catalog: &Catalog = engine.catalog();

    // quel → algebra → analyze, as the engine chains them.
    let t = Instant::now();
    let (logical, _) = compile(text, catalog)?;
    ledger.time("quel.compile_us", us(t.elapsed()));
    let t = Instant::now();
    let optimized = conventional_optimize(logical);
    ledger.time("algebra.optimize_us", us(t.elapsed()));
    let t = Instant::now();
    let (physical, _analysis) = plan_verified(&optimized, config, catalog)?;
    ledger.time("analyze.verify_us", us(t.elapsed()));

    // The executor, into the workload's sink.
    let mut sink = LimitSink::new(sh.row_limit);
    let t = Instant::now();
    let out = physical.execute(
        catalog,
        ExecOptions::new()
            .with_batch_rows(config.batch_rows)
            .with_sink(&mut sink),
    )?;
    ledger.time("algebra.execute_us", us(t.elapsed()));
    let offered = sink.finish().rows as f64;
    counts.add("algebra.rows_scanned", out.stats.rows_scanned as f64);
    counts.add("algebra.sort_rows", out.stats.sort_rows as f64);
    counts.add("algebra.comparisons", out.stats.comparisons as f64);
    counts.add("algebra.rows_offered", offered);
    counts.add(
        "algebra.useful_ratio",
        if offered > 0.0 {
            sink.rows().len() as f64 / offered
        } else {
            1.0
        },
    );

    // storage: one heap scan per input.
    let mut scanned = Vec::new();
    let mut scan_us = 0.0;
    for _ in 0..sh.inputs {
        let io0 = catalog.io().snapshot();
        let t = Instant::now();
        let rows = catalog.scan(relation)?;
        scan_us += us(t.elapsed());
        let io = catalog.io().snapshot().since(&io0);
        counts.add("storage.pages_read", io.pages_read as f64);
        counts.add("storage.bytes_read", io.bytes_read as f64);
        scanned.push(rows);
    }
    ledger.time("storage.scan_us", scan_us);

    // stream: the Contain-join kernel over inputs sorted here.
    if let Some(limit) = sh.join_limit {
        let right = scanned.pop().ok_or_else(|| err("join needs two inputs"))?;
        let left = scanned.pop().ok_or_else(|| err("join needs two inputs"))?;
        let t = Instant::now();
        let x = wrap(left)?;
        let mut y = wrap(right)?;
        StreamOrder::TE_ASC.sort(&mut y);
        ledger.time("algebra.wrap_sort_us", us(t.elapsed()));
        let cfg = OpConfig::new().with_batch_rows(config.batch_rows);
        let (xk, yk) = (x.clone(), y.clone());
        let t = Instant::now();
        let (_, rep) = run_join_kind_each(
            StreamOpKind::ContainJoinTsTe,
            cfg,
            xk,
            StreamOrder::TS_ASC,
            yk,
            StreamOrder::TE_ASC,
            &mut take_rows(limit),
        )?;
        ledger.time("stream.kernel_us", us(t.elapsed()));
        counts.add("stream.workspace_peak", rep.max_workspace() as f64);
        // The partition layer under `join_limit`'s settings (K=2, stop
        // after 20 rows), on every join workload's inputs. The partitioned
        // driver sorts its inputs itself: hand it scan order, as the
        // executor does.
        let mut y_scan = y;
        StreamOrder::TS_ASC.sort(&mut y_scan);
        let t = Instant::now();
        let run = parallel_join_each(
            ParallelPattern::Contains,
            x,
            y_scan,
            PARALLEL_K,
            cfg,
            &mut take_rows(data::JOIN_LIMIT),
        )?;
        ledger.time("stream.parallel_us", us(t.elapsed()));
        std::hint::black_box(run.dispatched);
    }

    // engine: the whole in-process request, spans on (the default), then
    // the same request with spans off for the overhead ratio.
    let t = Instant::now();
    let resp = engine.execute(ctx, text);
    let on = us(t.elapsed());
    ledger.time("engine.execute_us", on);
    if !matches!(resp, Response::Query(_)) {
        return Err(err(format!("engine answered {resp:?}")));
    }
    engine.set_spans_enabled(false);
    let t = Instant::now();
    let off_resp = engine.execute(ctx, text);
    let off = us(t.elapsed());
    engine.set_spans_enabled(true);
    std::hint::black_box(off_resp);
    ledger.spans_on.push(on);
    ledger.spans_off.push(off);

    // engine → net: encode the reply into its wire frames.
    let t = Instant::now();
    let frames = reply_frames(resp);
    let mut bytes = 0usize;
    for f in &frames {
        let mut buf = BytesMut::new();
        f.encode(&mut buf);
        bytes += buf.len();
    }
    ledger.time("engine.encode_us", us(t.elapsed()));
    counts.add("net.reply_bytes", bytes as f64);
    counts.add("net.chunks", (frames.len() - 1) as f64);
    counts.n += 1.0;
    Ok(())
}

/// Stage spans of the last query, from `\trace export`, as
/// `(stage, start_us, elapsed_us)`.
fn export_spans(client: &mut Client) -> Option<Vec<(String, f64, f64)>> {
    let Ok(Response::Info(text)) = client.request("\\trace export") else {
        return None;
    };
    let doc = Json::parse(text.trim()).ok()?;
    doc.get("spans")?
        .as_array()?
        .iter()
        .map(|s| {
            Some((
                s.get("stage")?.as_str()?.to_string(),
                s.get("start_us")?.as_f64()?,
                s.get("elapsed_us")?.as_f64()?,
            ))
        })
        .collect()
}

/// What the wire phase saw: end-to-end latency (µs), the client's RTT
/// samples, and the engine's exported spans per request.
#[derive(Default)]
struct WireSide {
    e2e_us: Vec<f64>,
    rtt_us: Vec<f64>,
    spans: Vec<Vec<(String, f64, f64)>>,
    requests: u64,
    failed: u64,
}

fn record_after(side: &mut WireSide) -> impl FnMut(&mut Client) + '_ {
    move |c: &mut Client| {
        if let Some(s) = c.rtt_samples().last() {
            side.rtt_us.push(s.rtt_us as f64);
        }
        if let Some(spans) = export_spans(c) {
            side.spans.push(spans);
        }
    }
}

fn span_metrics(side: &WireSide, scan_us: f64, out: &mut BTreeMap<&'static str, f64>) {
    let stage = |name: &str| -> Vec<f64> {
        side.spans
            .iter()
            .filter_map(|spans| spans.iter().find(|s| s.0 == name).map(|s| s.2))
            .collect()
    };
    for (metric, name) in [
        ("obs.span_parse_us", "parse"),
        ("obs.span_plan_us", "plan"),
        ("obs.span_analyze_us", "analyze"),
        ("obs.span_execute_us", "execute"),
        ("obs.span_operator_us", "operator"),
    ] {
        out.insert(metric, median(&stage(name)));
    }
    // Where the operator span says the kernel began, relative to the
    // execute span, against where it must begin from outside: after the
    // input scans.
    let offsets: Vec<f64> = side
        .spans
        .iter()
        .filter_map(|spans| {
            let exec = spans.iter().find(|s| s.0 == "execute")?;
            let op = spans.iter().find(|s| s.0 == "operator")?;
            Some(op.1 - exec.1)
        })
        .collect();
    let gap = if offsets.is_empty() {
        0.0
    } else {
        scan_us - median(&offsets)
    };
    out.insert("obs.operator_start_gap_us", gap);
}

/// The ingest ledger: one episode through an in-process durable engine.
fn ingest_round(
    dir: &Path,
    (x, y): &(Relation, Relation),
    seed: u64,
    ledger: &mut Ledger,
    counts: &mut RoundCounts,
    query_counts: &mut RoundCounts,
) -> TdbResult<()> {
    let _ = std::fs::remove_dir_all(dir);
    Catalog::open(dir, IoStats::new())?.create_relation(
        "X",
        tdb_engine::interval_schema()?,
        &x.rows(X_BASE_ROWS),
        vec![StreamOrder::TS_ASC],
    )?;
    let mut engine = Engine::open_durable(dir, FlushPolicy::default())?;
    let mut ctx = ClientState {
        row_limit: data::FILTER_LIMIT,
        ..ClientState::default()
    };
    let (wal0, fsync_us0, bytes0) = wal_counters(&engine);
    let io0 = engine.catalog().io().snapshot();
    let mut ingest = |engine: &mut Engine, rel: &str, r: &Relation, i: usize| -> TdbResult<()> {
        let rows = parse_arrivals(&r.lines(i, i + CHUNK_ROWS))?;
        let t = Instant::now();
        engine.ingest_rows(rel, rows)?;
        ledger.time("live.ingest_us", us(t.elapsed()));
        Ok(())
    };
    ingest(&mut engine, "X", x, X_BASE_ROWS)?;
    ingest(&mut engine, "Y", y, 0)?;
    match engine.execute(&mut ctx, wire::SUBSCRIPTION) {
        Response::Subscribed(_) => {}
        other => return Err(err(format!("subscribe answered {other:?}"))),
    }
    for i in (CHUNK_ROWS..EPISODE_ROWS).step_by(CHUNK_ROWS) {
        ingest(&mut engine, "X", x, X_BASE_ROWS + i)?;
        ingest(&mut engine, "Y", y, i)?;
    }
    let chunks = (2 * EPISODE_ROWS / CHUNK_ROWS) as f64;
    let (wal1, fsync_us1, bytes1) = wal_counters(&engine);
    let io = engine.catalog().io().snapshot().since(&io0);
    counts.add(
        "storage.append_pages_read_per_chunk",
        io.pages_read as f64 / chunks,
    );
    counts.add("wal.fsyncs_per_chunk", (wal1 - wal0) as f64 / chunks);
    counts.add(
        "wal.bytes_per_row",
        (bytes1 - bytes0) as f64 / (2 * EPISODE_ROWS) as f64,
    );
    counts.n += 1.0;
    if wal1 > wal0 {
        ledger.time(
            "wal.fsync_us",
            (fsync_us1 - fsync_us0) as f64 / (wal1 - wal0) as f64,
        );
    }
    for rel in ["X", "Y"] {
        if !matches!(
            engine.execute(&mut ctx, &format!("\\live close {rel}")),
            Response::Sealed(_)
        ) {
            return Err(err(format!("seal {rel} failed")));
        }
    }
    // The reader's selections, over the sealed X.
    let mut selections = Selections::new(seed ^ 0x5EED);
    for _ in 0..SELECTIONS_PER_ROUND {
        let sel = selections.next(x, "X");
        measure_query(
            &mut engine,
            &mut ctx,
            &sel.text,
            "X",
            shape(Workload::Ingest),
            ledger,
            query_counts,
        )?;
    }
    // The subscription's kernel: X ⋈ Y, drained.
    let cfg = OpConfig::new().with_batch_rows(ctx.config.batch_rows);
    let xs = wrap(engine.catalog().scan("X")?)?;
    let mut ys = wrap(engine.catalog().scan("Y")?)?;
    StreamOrder::TE_ASC.sort(&mut ys);
    let t = Instant::now();
    let (_, rep) = run_join_kind_each(
        StreamOpKind::ContainJoinTsTe,
        cfg,
        xs,
        StreamOrder::TS_ASC,
        ys,
        StreamOrder::TE_ASC,
        &mut take_rows(usize::MAX),
    )?;
    ledger.time("stream.kernel_us", us(t.elapsed()));
    counts.add("stream.workspace_peak", rep.max_workspace() as f64);
    drop(engine);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

fn wal_counters(engine: &Engine) -> (u64, u64, u64) {
    engine.live().wal_metrics().map_or((0, 0, 0), |m| {
        (m.fsyncs.get(), m.fsync_micros.sum(), m.bytes_written.get())
    })
}

/// The traced run: `(attempted, failed, per-layer metrics)`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    work: &Path,
) -> TdbResult<(u64, u64, BTreeMap<&'static str, f64>)> {
    let (mut served, inputs) = wire::setup(workload, seed, work, 0)?;
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let wire_deadline = start + budget.mul_f64(WIRE_SHARE);
    let deadline = start + budget;

    let mut side = WireSide::default();
    let mut ledger = Ledger::default();
    let mut counts = RoundCounts::default();
    let mut query_counts = RoundCounts::default();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();

    match &inputs {
        Inputs::Table(t) => {
            let tally = wire::query_loop(
                workload,
                seed,
                t,
                &mut served.client,
                wire_deadline,
                &mut record_after(&mut side),
            );
            side.e2e_us = tally.latency_ms.iter().map(|ms| ms * 1e3).collect();
            side.requests = tally.requests;
            side.failed = tally.failed;
            let made = ledger_rounds_query(
                workload,
                seed,
                t,
                &served,
                deadline,
                &mut ledger,
                &mut query_counts,
            );
            served.teardown();
            side.requests += made?;
        }
        Inputs::Episodes(episodes) => {
            let mut reader_side = WireSide::default();
            let tally = {
                let mut after = record_after(&mut reader_side);
                wire::ingest_loop(seed, episodes, served, work, wire_deadline, &mut after)
            };
            side.e2e_us = tally.latency_ms.iter().map(|ms| ms * 1e3).collect();
            side.rtt_us = reader_side.rtt_us;
            side.spans = reader_side.spans;
            side.requests = tally.requests;
            side.failed = tally.failed;
            let dir = work.join("ledger");
            let mut rounds = 0;
            while rounds == 0 || Instant::now() < deadline {
                let mut c = RoundCounts::default();
                let mut qc = RoundCounts::default();
                ingest_round(&dir, &episodes[0], seed, &mut ledger, &mut c, &mut qc)?;
                if rounds == 0 {
                    counts = c;
                    query_counts = qc;
                }
                rounds += 1;
                side.requests += 1;
            }
        }
    }

    for (name, v) in &ledger.times {
        out.insert(name, median(v));
    }
    for rc in [&counts, &query_counts] {
        for (name, sum) in &rc.sums {
            out.insert(name, sum / rc.n.max(1.0));
        }
    }
    // Layers the workload's requests never reach read 0.
    for &(name, _) in PER_LAYER {
        out.entry(name).or_insert(0.0);
    }
    out.insert(
        "obs.spans_overhead",
        median(&ledger.spans_on) / median(&ledger.spans_off).max(1e-9),
    );
    out.insert("net.rtt_us", median(&side.rtt_us));
    span_metrics(&side, out["storage.scan_us"], &mut out);
    let e2e = median(&side.e2e_us);
    let attributed = if workload == Workload::Ingest {
        out["live.ingest_us"]
    } else {
        [
            "quel.compile_us",
            "algebra.optimize_us",
            "analyze.verify_us",
            "algebra.execute_us",
            "engine.encode_us",
        ]
        .iter()
        .map(|k| out[k])
        .sum()
    };
    out.insert("unattributed_us", e2e - attributed);
    eprintln!(
        "traced: e2e p50 {:.1} us (p90 {:.1}), attributed {:.1} us",
        e2e,
        quantile(&side.e2e_us, 0.9),
        attributed
    );
    Ok((side.requests, side.failed, out))
}

/// Ledger rounds over `T` until `deadline` (at least one). Returns the
/// requests made.
fn ledger_rounds_query(
    workload: Workload,
    seed: u64,
    t: &Relation,
    served: &Served,
    deadline: Instant,
    ledger: &mut Ledger,
    counts_out: &mut RoundCounts,
) -> TdbResult<u64> {
    let sh = shape(workload);
    let mut engine = Engine::open(&served.dir)?;
    let mut ctx = ClientState {
        row_limit: sh.row_limit,
        config: PlannerConfig::stream().with_parallelism(sh.parallelism),
        ..ClientState::default()
    };
    let mut requests = 0u64;
    let mut rounds = 0;
    while rounds == 0 || Instant::now() < deadline {
        let mut counts = RoundCounts::default();
        let mut selections = Selections::new(seed);
        let texts: Vec<String> = if sh.join_limit.is_some() {
            vec![data::JOIN_QUERY.to_string()]
        } else {
            (0..SELECTIONS_PER_ROUND)
                .map(|_| selections.next(t, "T").text)
                .collect()
        };
        for text in &texts {
            measure_query(&mut engine, &mut ctx, text, "T", sh, ledger, &mut counts)?;
            requests += 1;
        }
        if rounds == 0 {
            *counts_out = counts;
        }
        rounds += 1;
    }
    Ok(requests)
}
