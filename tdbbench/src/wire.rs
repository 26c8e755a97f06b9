//! The wire-level load generator: set-up, and the closed loops that drive
//! `tdb_net::serve` through `tdb_net::Client` over loopback TCP.

use crate::data::{self, Relation, Rng, Selections};
use crate::Workload;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tdb::prelude::{Catalog, IoStats, Row, StreamOrder, TdbError, TdbResult};
use tdb_engine::Response;
use tdb_net::{serve, Client, NetConfig, ServerHandle, StreamEvent};

/// Arrival rows per ingest request.
pub const CHUNK_ROWS: usize = 200;
/// Arrivals per relation in one ingest episode (the E17 soak size).
pub const EPISODE_ROWS: usize = 4_000;
/// Rows of `X` loaded before an episode's arrivals: a relation the size of
/// `T`. Per-chunk promotion and re-evaluation cost, and the reader's scan,
/// then stay nearly constant through the episode instead of growing from
/// nothing.
pub const X_BASE_ROWS: usize = data::T_ROWS;
/// Mean pause of the ingest reader between a reply and its next
/// selection, drawn exponentially so that selections arrive at random
/// points of the writer's cycle. With no pause, each selection either
/// slips into the writer's gap between chunks or waits out a whole
/// promotion, alternately, and the read percentiles jump between the two
/// from run to run.
const READER_THINK_MS: f64 = 100.0;
/// Distinct episodes generated at set-up; a longer run cycles through
/// them.
const EPISODE_POOL: usize = 4;
/// How long a client waits for pushed deltas it is owed.
const PUSH_WAIT: Duration = Duration::from_secs(10);

/// A served data directory with its connected, configured clients.
pub struct Served {
    pub server: ServerHandle,
    pub dir: PathBuf,
    /// The request connection (the writer, for `ingest`).
    pub client: Client,
    /// The concurrent reader connection (`ingest` only).
    pub reader: Option<Client>,
    /// Bytes the loading catalog wrote (heap pages).
    pub load_bytes: u64,
}

impl Served {
    /// Close the clients, stop the server and delete its directory.
    pub fn teardown(self) {
        self.client.close();
        if let Some(r) = self.reader {
            r.close();
        }
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The generated inputs of one workload.
pub enum Inputs {
    /// `T`, for the query workloads.
    Table(Relation),
    /// `(X, Y)` arrival streams, one pair per ingest episode.
    Episodes(Vec<(Relation, Relation)>),
}

/// A benchmark-side failure, as an engine error.
pub fn err(msg: impl Into<String>) -> TdbError {
    TdbError::Eval(msg.into())
}

/// Generate the workload's inputs from `seed`.
fn generate(workload: Workload, seed: u64) -> Inputs {
    match workload {
        Workload::Ingest => Inputs::Episodes(
            (0..EPISODE_POOL as u64)
                .map(|e| {
                    let s = seed.wrapping_mul(1_000).wrapping_add(2 * e);
                    let n = X_BASE_ROWS + EPISODE_ROWS;
                    let x = Relation::poisson("x", n, (3.0, 30.0), s, 0);
                    // Y arrives alongside X's arrivals, after X's base.
                    let y_start = x.tuples[X_BASE_ROWS].ts;
                    let y = Relation::poisson("y", EPISODE_ROWS, (3.0, 8.0), s + 1, y_start);
                    (x, y)
                })
                .collect(),
        ),
        _ => Inputs::Table(Relation::poisson(
            "S",
            data::T_ROWS,
            (data::T_GAP, data::T_DURATION),
            seed,
            0,
        )),
    }
}

/// Send a command and insist on an informational reply.
fn command(client: &mut Client, text: &str) -> TdbResult<()> {
    match client.request(text)? {
        Response::Info(_) => Ok(()),
        other => Err(err(format!("`{text}` answered {other:?}"))),
    }
}

/// The per-connection settings of a workload's request connection.
fn session_commands(workload: Workload) -> Vec<String> {
    match workload {
        Workload::Filter | Workload::Ingest => vec![format!("\\set limit {}", data::FILTER_LIMIT)],
        Workload::JoinLimit => vec![
            format!("\\set limit {}", data::JOIN_LIMIT),
            "\\set parallelism 2".to_string(),
        ],
        Workload::JoinFull => vec![format!("\\set limit {}", data::JOIN_FULL_LIMIT)],
    }
}

/// One set-up: generate, load, serve and connect, in a fresh directory
/// under `work`.
pub fn setup(
    workload: Workload,
    seed: u64,
    work: &Path,
    tag: usize,
) -> TdbResult<(Served, Inputs)> {
    let inputs = generate(workload, seed);
    let dir = work.join(format!("{}-{tag}", workload.name()));
    let served = match &inputs {
        Inputs::Table(t) => open(workload, ("T", t.rows(t.tuples.len())), &dir)?,
        Inputs::Episodes(eps) => open(workload, ("X", eps[0].0.rows(X_BASE_ROWS)), &dir)?,
    };
    Ok((served, inputs))
}

/// Load `rows` as relation `name` into `dir`, serve it, and connect the
/// workload's configured clients.
fn open(workload: Workload, (name, rows): (&str, Vec<Row>), dir: &Path) -> TdbResult<Served> {
    let _ = std::fs::remove_dir_all(dir);
    let io = IoStats::new();
    Catalog::open(dir, io.clone())?.create_relation(
        name,
        tdb_engine::interval_schema()?,
        &rows,
        vec![StreamOrder::TS_ASC],
    )?;
    let config = NetConfig {
        durable: workload == Workload::Ingest,
        ..NetConfig::default()
    };
    let server = serve(dir, "127.0.0.1:0", config)?;
    let mut client = Client::connect(server.addr())?;
    let session = if workload == Workload::Ingest {
        // The writer only ingests; the reader carries the query settings.
        vec!["\\set limit 1".to_string()]
    } else {
        session_commands(workload)
    };
    for c in &session {
        command(&mut client, c)?;
    }
    let reader = if workload == Workload::Ingest {
        let mut r = Client::connect(server.addr())?;
        for c in session_commands(workload) {
            command(&mut r, &c)?;
        }
        Some(r)
    } else {
        None
    };
    Ok(Served {
        server,
        dir: dir.to_path_buf(),
        client,
        reader,
        load_bytes: io.snapshot().bytes_written,
    })
}

/// Everything a closed loop observed.
#[derive(Default)]
pub struct Tally {
    /// Request latencies (ms): queries, or ingest acks.
    pub latency_ms: Vec<f64>,
    /// Read-query latencies (ms) of the `ingest` reader.
    pub read_ms: Vec<f64>,
    /// Requests completed, every kind and connection.
    pub requests: u64,
    /// Requests that errored or answered wrongly.
    pub failed: u64,
    /// Result rows delivered (queries) or arrivals acknowledged (ingest).
    pub rows: u64,
    /// Seconds the loop ran.
    pub wall_s: f64,
    /// Heap plus WAL bytes written during the loop (`ingest`).
    pub written_bytes: u64,
}

impl Tally {
    fn fail(&mut self, what: &str) {
        eprintln!("wrong or failed request: {what}");
        self.failed += 1;
    }
}

/// One query round trip: `(latency_ms, rows)`, streamed chunks included.
/// `keep` retains the rows for checking; otherwise they are only counted.
fn timed_query(client: &mut Client, text: &str, keep: bool) -> TdbResult<(f64, Vec<Row>, u64)> {
    let mut kept: Vec<Row> = Vec::new();
    let mut n = 0u64;
    let start = Instant::now();
    let resp = client.request_with(text, |ev| {
        if let StreamEvent::Rows(rows) = ev {
            n += rows.len() as u64;
            if keep {
                kept.extend(rows);
            }
        }
    })?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match resp {
        Response::Query(q) => {
            n += q.rows.rows.len() as u64;
            if keep {
                kept.extend(q.rows.rows);
            }
            Ok((ms, kept, n))
        }
        Response::QueryStream(_) => Ok((ms, kept, n)),
        other => Err(err(format!("query answered {other:?}"))),
    }
}

/// The query workloads' closed loop: one connection, one request at a
/// time, until `deadline`. `after` runs after each request, outside the
/// timed span (the traced run exports spans there).
pub fn query_loop(
    workload: Workload,
    seed: u64,
    t: &Relation,
    client: &mut Client,
    deadline: Instant,
    after: &mut dyn FnMut(&mut Client),
) -> Tally {
    let mut tally = Tally::default();
    let mut selections = Selections::new(seed);
    let pairs = t.contain_pairs();
    let start = Instant::now();
    while Instant::now() < deadline {
        tally.requests += 1;
        match workload {
            Workload::Filter => {
                let sel = selections.next(t, "T");
                match timed_query(client, &sel.text, true) {
                    Ok((ms, rows, n)) => {
                        tally.latency_ms.push(ms);
                        tally.rows += n;
                        if !data::selection_ok(t, &sel, &rows, false) {
                            tally.fail(&sel.text);
                        }
                    }
                    Err(e) => tally.fail(&e.to_string()),
                }
            }
            Workload::JoinLimit | Workload::JoinFull => {
                let limited = workload == Workload::JoinLimit;
                match timed_query(client, data::JOIN_QUERY, limited) {
                    Ok((ms, rows, n)) => {
                        tally.latency_ms.push(ms);
                        tally.rows += n;
                        let ok = if limited {
                            n == data::JOIN_LIMIT as u64 && data::contain_rows_ok(t, &rows)
                        } else {
                            n == pairs
                        };
                        if !ok {
                            tally.fail(&format!("join returned {n} rows (pairs {pairs})"));
                        }
                    }
                    Err(e) => tally.fail(&e.to_string()),
                }
            }
            Workload::Ingest => unreachable!("ingest runs ingest_loop"),
        }
        after(client);
    }
    tally.wall_s = start.elapsed().as_secs_f64();
    tally
}

/// The standing query each ingest episode holds.
pub const SUBSCRIPTION: &str = "\\subscribe range of a is X range of b is Y \
                                retrieve (P=a.Id, Q=b.Id) \
                                where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo";

/// The concurrent reader: `filter`-style selections on `X`, in a closed
/// loop until `stop`. A reply may hold any promoted prefix of the
/// expected rows.
fn reader_loop(
    (selections, think): (&mut Selections, &mut Rng),
    x: &Relation,
    stop: &AtomicBool,
    client: &mut Client,
    after: &mut (dyn FnMut(&mut Client) + Send),
) -> Tally {
    let mut tally = Tally::default();
    while !stop.load(Ordering::SeqCst) {
        let sel = selections.next(x, "X");
        tally.requests += 1;
        match timed_query(client, &sel.text, true) {
            Ok((ms, rows, _)) => {
                tally.read_ms.push(ms);
                if !data::selection_ok(x, &sel, &rows, true) {
                    tally.fail(&sel.text);
                }
            }
            Err(e) => tally.fail(&e.to_string()),
        }
        after(client);
        std::thread::sleep(Duration::from_secs_f64(
            think.exponential(READER_THINK_MS) / 1e3,
        ));
    }
    tally
}

fn wal_bytes(client: &mut Client) -> TdbResult<u64> {
    match client.stats()? {
        Response::Stats(s) => Ok(s.wal.map_or(0, |w| w.bytes_written)),
        other => Err(err(format!("stats answered {other:?}"))),
    }
}

/// Total size of the heap files of `X` and `Y` in `dir`.
fn heap_bytes(dir: &Path) -> u64 {
    ["X", "Y"]
        .iter()
        .filter_map(|n| std::fs::metadata(dir.join(format!("{n}.heap"))).ok())
        .map(|m| m.len())
        .sum()
}

/// The writer's side of one episode: arrival chunks alternate `X` (after
/// its loaded base) and
/// `Y`; the writer holds the contain-join subscription and drains its
/// pushes between chunks, then seals both relations and checks row counts
/// and delivered == emitted == the exact join size.
fn write_episode(
    w: &mut Client,
    (x, y): &(Relation, Relation),
    tally: &mut Tally,
) -> TdbResult<()> {
    let ack = |w: &mut Client, rel: &str, r: &Relation, i: usize, tally: &mut Tally| {
        let lines = r.lines(i, i + CHUNK_ROWS);
        tally.requests += 1;
        let start = Instant::now();
        let reply = w.ingest(rel, &lines);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match reply {
            Ok(Response::Ingest(rep)) if rep.offered == CHUNK_ROWS as u64 => {
                tally.latency_ms.push(ms);
                tally.rows += rep.offered;
            }
            other => tally.fail(&format!("ingest into {rel}: {other:?}")),
        }
    };
    // The first chunks register X and Y for live ingest; the subscription
    // needs Y to exist.
    ack(w, "X", x, X_BASE_ROWS, tally);
    ack(w, "Y", y, 0, tally);
    tally.requests += 1;
    let sub = match w.request(SUBSCRIPTION)? {
        Response::Subscribed(s) => s,
        other => return Err(err(format!("subscribe answered {other:?}"))),
    };
    let mut delivered = sub.initial.rows.len() as u64;
    for i in (CHUNK_ROWS..EPISODE_ROWS).step_by(CHUNK_ROWS) {
        ack(w, "X", x, X_BASE_ROWS + i, tally);
        ack(w, "Y", y, i, tally);
        while let Some(d) = w.try_push() {
            delivered += d.rows.len() as u64;
        }
    }
    for rel in ["X", "Y"] {
        tally.requests += 1;
        match w.request(&format!("\\live close {rel}"))? {
            Response::Sealed(_) => {}
            other => return Err(err(format!("seal {rel} answered {other:?}"))),
        }
    }
    tally.requests += 1;
    let emitted = match w.request("\\live")? {
        Response::Live(l) => l
            .subscriptions
            .iter()
            .find(|s| s.id == sub.id)
            .map(|s| s.emitted)
            .ok_or_else(|| err("subscription vanished"))?,
        other => return Err(err(format!("\\live answered {other:?}"))),
    };
    while delivered < emitted {
        let d = w
            .wait_push(PUSH_WAIT)
            .ok_or_else(|| err(format!("pushes stalled at {delivered} of {emitted} rows")))?;
        delivered += d.rows.len() as u64;
    }
    let pairs = x.contain_pairs_with(y);
    if delivered != emitted || emitted != pairs {
        tally.fail(&format!(
            "delivered {delivered}, emitted {emitted}, pairs {pairs}"
        ));
    }
    tally.requests += 1;
    match w.request("\\tables")? {
        Response::Tables(tables) => {
            for (name, want) in [("X", x.tuples.len()), ("Y", y.tuples.len())] {
                let rows = tables.iter().find(|t| t.name == name).map(|t| t.rows);
                if rows != Some(want as u64) {
                    tally.fail(&format!("{name} holds {rows:?} rows, {want} stored"));
                }
            }
        }
        other => return Err(err(format!("\\tables answered {other:?}"))),
    }
    Ok(())
}

/// One episode on a freshly served durable directory: the writer, and
/// the reader on its own thread. Adds the heap and WAL bytes the episode
/// wrote to `tally.written_bytes`.
fn episode(
    served: &mut Served,
    pair: &(Relation, Relation),
    reader_rng: (&mut Selections, &mut Rng),
    tally: &mut Tally,
    reader_after: &mut (dyn FnMut(&mut Client) + Send),
) -> TdbResult<()> {
    let heap_before = heap_bytes(&served.dir);
    let stop = &AtomicBool::new(false);
    let mut reader = served.reader.take().expect("ingest set-up opens a reader");
    let (written, reads) = std::thread::scope(|s| {
        let handle =
            s.spawn(move || reader_loop(reader_rng, &pair.0, stop, &mut reader, reader_after));
        let written = write_episode(&mut served.client, pair, tally);
        stop.store(true, Ordering::SeqCst);
        let reads = handle.join().expect("reader thread panicked");
        (written, reads)
    });
    tally.read_ms.extend(reads.read_ms);
    tally.requests += reads.requests;
    tally.failed += reads.failed;
    written?;
    let heap = heap_bytes(&served.dir) - heap_before;
    tally.written_bytes += heap + wal_bytes(&mut served.client)?;
    Ok(())
}

/// The `ingest` loop: episodes until `deadline` (the last one finishes).
/// Each episode runs on a fresh durable server with `X`'s base loaded, so
/// every episode starts from the same state; only time inside episodes
/// counts as run time.
pub fn ingest_loop(
    seed: u64,
    episodes: &[(Relation, Relation)],
    first: Served,
    work: &Path,
    deadline: Instant,
    reader_after: &mut (dyn FnMut(&mut Client) + Send),
) -> Tally {
    let mut tally = Tally::default();
    let mut selections = Selections::new(seed ^ 0x5EED);
    let mut think = Rng::new(seed, 0x7A1);
    let mut next = Some(first);
    let mut e = 0usize;
    while e == 0 || Instant::now() < deadline {
        let pair = &episodes[e % episodes.len()];
        let served = match next.take() {
            Some(s) => Ok(s),
            None => {
                let base = ("X", pair.0.rows(X_BASE_ROWS));
                open(Workload::Ingest, base, &work.join(format!("episode-{e}")))
            }
        };
        let mut served = match served {
            Ok(s) => s,
            Err(err) => {
                tally.fail(&err.to_string());
                break;
            }
        };
        let start = Instant::now();
        let reader_rng = (&mut selections, &mut think);
        let outcome = episode(&mut served, pair, reader_rng, &mut tally, reader_after);
        tally.wall_s += start.elapsed().as_secs_f64();
        served.teardown();
        if let Err(err) = outcome {
            tally.fail(&err.to_string());
            break;
        }
        e += 1;
    }
    tally
}
