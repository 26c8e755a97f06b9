//! Sink-vs-materialized equivalence and chunked wire streaming.
//!
//! Two layers of guarantees around the push-based [`RowSink`] redesign:
//!
//! 1. **Plan-level equivalence (proptest)** — for arbitrary generated
//!    two-variable temporal queries, executing through an external
//!    [`CollectSink`] must produce exactly the rows, counters, and
//!    workspace peaks of the materialized path, across batch sizes
//!    {1, 64, 1024} × parallelism {1, 4}; the count-only path
//!    ([`CountSink`], `wants_rows() == false`) must agree on
//!    cardinality; and a [`LimitSink`] must retain exactly the prefix
//!    while stopping the producer early.
//!
//! 2. **Wire streaming (integration)** — a result set larger than the
//!    64 MiB frame cap must cross `tdb-net` as a `QueryStream` header
//!    plus bounded `ReplyChunk` frames and reassemble losslessly. The
//!    same mechanism must be transparent to `Client::request`.

use proptest::prelude::*;
use tdb::prelude::*;
use tdb_engine::Response;
use tdb_net::{serve, Client, NetConfig, StreamEvent};

const ATTRS: [&str; 4] = ["Name", "Rank", "ValidFrom", "ValidTo"];

fn shared_catalog() -> &'static Catalog {
    use std::sync::OnceLock;
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let faculty = FacultyGen {
            n_faculty: 60,
            seed: 1234,
            continuous_employment: false,
            ..FacultyGen::default()
        }
        .generate();
        let dir = std::env::temp_dir().join(format!("tdb-sink-eq-{}", std::process::id()));
        tdb::faculty_catalog(dir, &faculty).unwrap()
    })
}

/// Atoms for each Allen operator, as the Quel front end desugars them.
fn temporal_atoms(which: u8) -> Vec<Atom> {
    use tdb::quel::ast::TemporalOp;
    use tdb::quel::translate::desugar_temporal;
    let op = match which % 10 {
        0 => TemporalOp::Overlap,
        1 => TemporalOp::Overlaps,
        2 => TemporalOp::During,
        3 => TemporalOp::Contains,
        4 => TemporalOp::Before,
        5 => TemporalOp::After,
        6 => TemporalOp::Meets,
        7 => TemporalOp::Starts,
        8 => TemporalOp::Finishes,
        _ => TemporalOp::Equal,
    };
    desugar_temporal("a", op, "b")
}

fn build_query(temporal: u8, name_eq: bool) -> LogicalPlan {
    let mut atoms = temporal_atoms(temporal);
    if name_eq {
        atoms.push(Atom::cols("a", "Name", CompOp::Eq, "b", "Name"));
    }
    LogicalPlan::scan("Faculty", "a", &ATTRS)
        .product(LogicalPlan::scan("Faculty", "b", &ATTRS))
        .select(atoms)
        .project(vec![
            (ColumnRef::new("a", "Name"), "A".into()),
            (ColumnRef::new("a", "ValidFrom"), "AF".into()),
            (ColumnRef::new("b", "Name"), "B".into()),
            (ColumnRef::new("b", "ValidFrom"), "BF".into()),
        ])
}

fn plan_for(logical: &LogicalPlan, batch_rows: usize, parallelism: usize) -> PhysicalPlan {
    let config = PlannerConfig {
        batch_rows,
        parallelism,
        ..PlannerConfig::stream()
    };
    let optimized = conventional_optimize(logical.clone());
    plan(&optimized, config).unwrap()
}

const BATCHES: [usize; 3] = [1, 64, 1024];
const PARALLELISM: [usize; 2] = [1, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The external-sink path is byte-identical to the materialized
    /// path: same rows in the same order, same comparison counts, same
    /// workspace peaks; the count-only path agrees on cardinality.
    #[test]
    fn sink_matches_materialized_across_batch_and_parallelism(
        temporal in 0u8..10,
        name_eq in any::<bool>(),
    ) {
        let q = build_query(temporal, name_eq);
        let cat = shared_catalog();
        for batch_rows in BATCHES {
            for parallelism in PARALLELISM {
                let physical = plan_for(&q, batch_rows, parallelism);
                let label = format!("batch={batch_rows} k={parallelism}");

                let mat = physical.execute(cat, ExecOptions::default()).unwrap();

                let mut collect = CollectSink::new();
                let out = physical
                    .execute(cat, ExecOptions::new().with_sink(&mut collect))
                    .unwrap();
                let stats = collect.finish();
                prop_assert!(out.rows.is_empty(), "external sink owns the rows ({label})");
                prop_assert_eq!(
                    collect.rows(), &mat.rows[..],
                    "sink rows differ from materialized ({})", &label
                );
                prop_assert_eq!(
                    stats.rows as usize, mat.rows.len(),
                    "SinkStats.rows miscounts ({})", &label
                );
                prop_assert_eq!(
                    stats.bytes,
                    mat.rows.iter().map(tdb::stream::row_bytes).sum::<u64>(),
                    "SinkStats.bytes miscounts ({})", &label
                );
                prop_assert!(!stats.truncated, "CollectSink never truncates ({label})");
                prop_assert_eq!(
                    out.stats.output_rows, mat.stats.output_rows,
                    "offered-row counters diverge ({})", &label
                );
                prop_assert_eq!(
                    out.stats.comparisons, mat.stats.comparisons,
                    "comparison counters diverge ({})", &label
                );
                prop_assert_eq!(
                    out.stats.max_workspace, mat.stats.max_workspace,
                    "workspace peaks diverge ({})", &label
                );

                let mut count = CountSink::new();
                physical
                    .execute(cat, ExecOptions::new().with_sink(&mut count))
                    .unwrap();
                prop_assert_eq!(
                    count.count() as usize, mat.rows.len(),
                    "count-only path disagrees on cardinality ({})", &label
                );
            }
        }
    }
}

/// A limiting sink retains exactly the first `limit` rows of the
/// materialized order and stops the producer before the full result is
/// offered (for results meaningfully larger than the limit).
#[test]
fn limit_sink_retains_prefix_and_stops_early() {
    let q = build_query(0, false); // Overlap self-join: thousands of rows.
    let cat = shared_catalog();
    for batch_rows in BATCHES {
        let physical = plan_for(&q, batch_rows, 1);
        let full = physical.execute(cat, ExecOptions::default()).unwrap();
        // > 1024 so even the largest batch size must stop before the
        // full result has been offered.
        assert!(
            full.rows.len() > 1024,
            "population too small to exercise the limit: {}",
            full.rows.len()
        );

        let limit = 5;
        let mut sink = LimitSink::new(limit);
        let out = physical
            .execute(cat, ExecOptions::new().with_sink(&mut sink))
            .unwrap();
        let stats = sink.finish();
        assert!(sink.full(), "limit sink should fill (batch={batch_rows})");
        assert_eq!(
            sink.into_rows(),
            full.rows[..limit].to_vec(),
            "retained rows are not the materialized prefix (batch={batch_rows})"
        );
        assert!(
            stats.rows >= limit as u64,
            "offered count below the limit (batch={batch_rows})"
        );
        assert!(
            out.stats.output_rows < full.rows.len(),
            "producer did not stop early: offered {} of {} (batch={batch_rows})",
            out.stats.output_rows,
            full.rows.len()
        );
    }
}

/// One ingest line per row: `ts te id seq`, with an id long enough to
/// inflate the result past the wire's frame cap.
fn long_id_lines(start: usize, n: usize, id_len: usize) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(n * (id_len + 24));
    for i in start..start + n {
        let id = format!("{i:08}{}", "x".repeat(id_len - 8));
        writeln!(out, "{} {} {id} {i}", i as i64, i as i64 + 10).unwrap();
    }
    out
}

/// A > 64 MiB result set crosses the wire as a `QueryStream` header
/// plus many bounded `ReplyChunk` frames — impossible as a single
/// reply, which the 64 MiB frame cap would reject — and the streamed
/// chunks reassemble to exactly the rows the engine retained. A
/// smaller-but-still-chunked result reassembles transparently through
/// `Client::request`.
#[test]
fn oversized_result_streams_in_bounded_chunks() {
    const ID_LEN: usize = 4096;
    const ROWS: usize = 20_000;
    const FRAME_CAP: u64 = 64 << 20;

    let root = std::env::temp_dir().join(format!("tdb-sink-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = serve(root.join("srv"), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Ingest in four frames, each well under the cap; then seal so the
    // whole relation is query-visible.
    for batch in 0..4 {
        let text = long_id_lines(batch * (ROWS / 4), ROWS / 4, ID_LEN);
        match client.ingest("Big", &text).unwrap() {
            Response::Ingest(_) => {}
            other => panic!("expected ingest report, got {other:?}"),
        }
    }
    match client.request("\\live close Big").unwrap() {
        Response::Sealed(_) => {}
        other => panic!("expected seal report, got {other:?}"),
    }

    // A result past the 4 MiB chunk threshold but below the row limit
    // round-trips transparently through `request` (reassembly).
    client.request("\\set limit 2500").unwrap();
    let reply = client
        .request("range of t is Big retrieve (X=t.Id);")
        .unwrap();
    let Response::Query(q) = reply else {
        panic!("expected reassembled query report");
    };
    assert_eq!(q.rows.rows.len(), 2500, "reassembled row count");
    assert!(
        q.rows.rows.iter().map(tdb::stream::row_bytes).sum::<u64>() > 4 << 20,
        "reassembly test result should exceed one chunk"
    );

    // The full result is bigger than any legal frame; stream it.
    client.request("\\set limit 100000").unwrap();
    let mut chunk_frames = 0u64;
    let mut streamed: Vec<Row> = Vec::new();
    let mut header_rows = usize::MAX;
    let outcome = client
        .request_with("range of t is Big retrieve (X=t.Id);", |ev| match ev {
            StreamEvent::Header(q) => header_rows = q.rows.rows.len(),
            StreamEvent::Rows(rows) => {
                chunk_frames += 1;
                streamed.extend(rows);
            }
        })
        .unwrap();
    match outcome {
        Response::QueryStream(q) => assert_eq!(q.rows.total, ROWS as u64, "offered total"),
        other => panic!("expected stream header outcome, got {other:?}"),
    }
    assert_eq!(header_rows, 0, "stream header must carry no rows");
    assert_eq!(streamed.len(), ROWS, "every retained row arrives");
    let bytes: u64 = streamed.iter().map(tdb::stream::row_bytes).sum();
    assert!(
        bytes > FRAME_CAP,
        "result too small to prove chunking: {bytes} bytes"
    );
    assert!(
        chunk_frames > 2,
        "a {bytes}-byte result should span many chunk frames, got {chunk_frames}"
    );
    // Rows come back in scan order with their ingested ids intact.
    for (i, row) in streamed.iter().enumerate() {
        let Some(tdb::core::Value::Str(id)) = row.values().first() else {
            panic!("row {i} has no id column");
        };
        assert!(
            id.starts_with(&format!("{i:08}")),
            "row {i} out of order or corrupted: id prefix {}",
            &id[..8.min(id.len())]
        );
    }

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
