//! Randomized equivalence of the batched (columnar) kernels and their
//! row-at-a-time oracles.
//!
//! The batch kernels of `tdb_stream::batch_ops` are the only serving
//! implementation of each dispatchable operator kind; the row operators of
//! the same kinds are kept as their oracles and built directly here. For
//! every kind, every batch size, and every parallelism degree, the batched
//! run must produce the **same output sequence**, the **same
//! read/comparison/emit counters**, and the **same observed workspace
//! peak** as the row operator. The workspace invariance is what lets the
//! static analyzer's workspace-cap proofs, derived from the paper's
//! Tables 1–3 for the row operators, hold for the kernels — a
//! batch-size-dependent peak would invalidate every certificate.

use proptest::prelude::*;
use tdb::prelude::*;
use tdb::stream::{
    pull_each, run_join_kind_each, run_semijoin_kind_each, Emit, StreamOpKind, DEFAULT_BATCH_ROWS,
};

/// The batch sizes (items per output chunk) under test: degenerate (1),
/// sub-default (64), and the default (1024, larger than most generated
/// results, so the whole output usually lands in one chunk).
const BATCH_SIZES: [usize; 3] = [1, 64, 1024];

/// Distinct surrogates make sequence comparison exact even when periods
/// repeat.
fn tuples(raw: &[(i64, i64)]) -> Vec<TsTuple> {
    raw.iter()
        .enumerate()
        .map(|(i, &(start, dur))| {
            TsTuple::new(i as i64, Value::Null, start, start + dur.max(1)).unwrap()
        })
        .collect()
}

fn interval_vec() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..400, 1i64..60), 0..120)
}

fn sorted(mut v: Vec<TsTuple>, o: StreamOrder) -> Vec<TsTuple> {
    o.sort(&mut v);
    v
}

/// The dispatchable join kinds with their required input orders.
fn join_cases() -> Vec<(StreamOpKind, StreamOrder, StreamOrder, OpConfig)> {
    vec![
        (
            StreamOpKind::ContainJoinTsTe,
            StreamOrder::TS_ASC,
            StreamOrder::TE_ASC,
            OpConfig::new(),
        ),
        (
            StreamOpKind::OverlapJoin,
            StreamOrder::TS_ASC,
            StreamOrder::TS_ASC,
            OpConfig::new().with_mode(OverlapMode::General),
        ),
        (
            StreamOpKind::OverlapJoin,
            StreamOrder::TS_ASC,
            StreamOrder::TS_ASC,
            OpConfig::new().with_mode(OverlapMode::Strict),
        ),
    ]
}

/// The dispatchable semijoin kinds with their required input orders.
fn semijoin_cases() -> Vec<(StreamOpKind, StreamOrder, StreamOrder, OpConfig)> {
    vec![
        (
            StreamOpKind::ContainSemijoinStab,
            StreamOrder::TS_ASC,
            StreamOrder::TE_ASC,
            OpConfig::new(),
        ),
        (
            StreamOpKind::ContainedSemijoinStab,
            StreamOrder::TE_ASC,
            StreamOrder::TS_ASC,
            OpConfig::new(),
        ),
        (
            StreamOpKind::OverlapSemijoin,
            StreamOrder::TS_ASC,
            StreamOrder::TS_ASC,
            OpConfig::new().with_mode(OverlapMode::General),
        ),
        (
            StreamOpKind::OverlapSemijoin,
            StreamOrder::TS_ASC,
            StreamOrder::TS_ASC,
            OpConfig::new().with_mode(OverlapMode::Strict),
        ),
    ]
}

/// Drain a row operator to completion with its report.
fn drain<S: TupleStream + Instrumented>(mut op: S) -> (Vec<S::Item>, OpReport) {
    let mut out = Vec::new();
    assert!(pull_each(&mut op, DEFAULT_BATCH_ROWS, &mut out).unwrap());
    (out, op.report())
}

/// The row-operator oracle of a dispatchable join kind.
fn row_join(
    kind: StreamOpKind,
    cfg: OpConfig,
    x: Vec<TsTuple>,
    xo: StreamOrder,
    y: Vec<TsTuple>,
    yo: StreamOrder,
) -> (Vec<(TsTuple, TsTuple)>, OpReport) {
    let (x, y) = (
        from_sorted_vec(x, xo).unwrap(),
        from_sorted_vec(y, yo).unwrap(),
    );
    match kind {
        StreamOpKind::ContainJoinTsTe => drain(cfg.contain_join_ts_te(x, y).unwrap()),
        StreamOpKind::OverlapJoin => drain(cfg.overlap_join(x, y).unwrap()),
        other => unreachable!("no join case for {other}"),
    }
}

/// The row-operator oracle of a dispatchable semijoin kind.
fn row_semijoin(
    kind: StreamOpKind,
    cfg: OpConfig,
    x: Vec<TsTuple>,
    xo: StreamOrder,
    y: Vec<TsTuple>,
    yo: StreamOrder,
) -> (Vec<TsTuple>, OpReport) {
    let (x, y) = (
        from_sorted_vec(x, xo).unwrap(),
        from_sorted_vec(y, yo).unwrap(),
    );
    match kind {
        StreamOpKind::ContainSemijoinStab => drain(cfg.contain_semijoin_stab(x, y).unwrap()),
        StreamOpKind::ContainedSemijoinStab => drain(cfg.contained_semijoin_stab(x, y).unwrap()),
        StreamOpKind::OverlapSemijoin => drain(cfg.overlap_semijoin(x, y).unwrap()),
        other => unreachable!("no semijoin case for {other}"),
    }
}

/// The chunk contract every producer keeps: with the consumer taking
/// everything, each chunk holds at most `rows` items; a consumer that
/// declines its first chunk has received at most `rows` items.
fn assert_chunk_contract<T>(rows: usize, what: &str, mut run: impl FnMut(&mut dyn Emit<T>)) {
    let mut lens = Vec::new();
    run(&mut |chunk: Vec<T>| {
        lens.push(chunk.len());
        Ok(true)
    });
    assert!(
        lens.iter().all(|&n| n <= rows),
        "{what}: chunk lengths {lens:?} exceed {rows}"
    );
    let mut seen = 0;
    run(&mut |chunk: Vec<T>| {
        seen += chunk.len();
        Ok(false)
    });
    assert!(
        seen <= rows,
        "{what}: {seen} items received before declining the first chunk"
    );
}

/// Reports must agree on every externally observable counter, not just
/// the output: reads, comparisons, emits, and the workspace peak.
fn assert_reports_match(batched: &OpReport, row: &OpReport, what: &str) {
    assert_eq!(
        batched.metrics, row.metrics,
        "{what}: throughput counters diverged"
    );
    assert_eq!(
        batched.max_workspace(),
        row.max_workspace(),
        "{what}: workspace peak must be batch-size-invariant"
    );
    assert_eq!(
        batched.workspace.discarded, row.workspace.discarded,
        "{what}: GC eviction counts diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Joins: the row operator's output sequence and report at every
    /// batch size.
    #[test]
    fn batched_joins_match_row_execution(xs in interval_vec(), ys in interval_vec()) {
        let xs = tuples(&xs);
        let ys = tuples(&ys);
        for (kind, xo, yo, cfg) in join_cases() {
            let x = sorted(xs.clone(), xo);
            let y = sorted(ys.clone(), yo);
            let (row_out, row_rep) = row_join(kind, cfg, x.clone(), xo, y.clone(), yo);
            for rows in BATCH_SIZES {
                let mut out: Vec<(TsTuple, TsTuple)> = Vec::new();
                let (_, rep) = run_join_kind_each(
                    kind, cfg.with_batch_rows(rows), x.clone(), xo, y.clone(), yo, &mut out,
                ).unwrap();
                prop_assert_eq!(&out, &row_out, "{} batch {}", kind, rows);
                assert_reports_match(&rep, &row_rep, &format!("{kind} batch {rows}"));
                assert_chunk_contract(rows, &format!("{kind} batch {rows}"), |emit| {
                    run_join_kind_each(
                        kind, cfg.with_batch_rows(rows), x.clone(), xo, y.clone(), yo, emit,
                    ).unwrap();
                });
            }
        }
    }

    /// Semijoins: the row operator's kept-tuple sequence and report at
    /// every batch size.
    #[test]
    fn batched_semijoins_match_row_execution(xs in interval_vec(), ys in interval_vec()) {
        let xs = tuples(&xs);
        let ys = tuples(&ys);
        for (kind, xo, yo, cfg) in semijoin_cases() {
            let x = sorted(xs.clone(), xo);
            let y = sorted(ys.clone(), yo);
            let (row_out, row_rep) = row_semijoin(kind, cfg, x.clone(), xo, y.clone(), yo);
            for rows in BATCH_SIZES {
                let mut out: Vec<TsTuple> = Vec::new();
                let (_, rep) = run_semijoin_kind_each(
                    kind, cfg.with_batch_rows(rows), x.clone(), xo, y.clone(), yo, &mut out,
                ).unwrap();
                prop_assert_eq!(&out, &row_out, "{} batch {}", kind, rows);
                assert_reports_match(&rep, &row_rep, &format!("{kind} batch {rows}"));
                assert_chunk_contract(rows, &format!("{kind} batch {rows}"), |emit| {
                    run_semijoin_kind_each(
                        kind, cfg.with_batch_rows(rows), x.clone(), xo, y.clone(), yo, emit,
                    ).unwrap();
                });
            }
        }
    }

    /// Partitioned-parallel execution: for K ∈ {1, 4}, every batch size
    /// must reproduce the batch-1 run's deduplicated output and
    /// per-partition workspace peaks exactly. (Kernel ≡ row operator is
    /// pinned by the serial properties above over arbitrary inputs, and
    /// parallel ≡ serial by `tests/parallel_equivalence.rs`.)
    #[test]
    fn batched_parallel_runs_match_row_execution(xs in interval_vec(), ys in interval_vec()) {
        let xs = tuples(&xs);
        let ys = tuples(&ys);
        for pattern in [
            ParallelPattern::Contains,
            ParallelPattern::During,
            ParallelPattern::GeneralOverlap,
            ParallelPattern::AllenOverlaps,
        ] {
            for k in [1usize, 4] {
                let run = |rows: usize| {
                    let cfg = OpConfig::new().with_batch_rows(rows);
                    let mut pairs = Vec::new();
                    let join = parallel_join_each(
                        pattern, xs.clone(), ys.clone(), k, cfg, &mut pairs,
                    ).unwrap();
                    let mut kept = Vec::new();
                    let semi = parallel_semijoin_each(
                        pattern, xs.clone(), ys.clone(), k, cfg, &mut kept,
                    ).unwrap();
                    (pairs, kept, join.report.max_workspace(), semi.report.max_workspace())
                };
                let (base_pairs, base_kept, base_jpeak, base_speak) = run(BATCH_SIZES[0]);
                for rows in &BATCH_SIZES[1..] {
                    let (pairs, kept, jpeak, speak) = run(*rows);
                    prop_assert_eq!(
                        &pairs, &base_pairs,
                        "{:?} join K={} batch {}", pattern, k, rows
                    );
                    prop_assert_eq!(
                        jpeak, base_jpeak,
                        "{:?} join K={} batch {}: workspace peak", pattern, k, rows
                    );
                    prop_assert_eq!(
                        &kept, &base_kept,
                        "{:?} semijoin K={} batch {}", pattern, k, rows
                    );
                    prop_assert_eq!(
                        speak, base_speak,
                        "{:?} semijoin K={} batch {}: workspace peak", pattern, k, rows
                    );
                }
            }
        }
    }
}
