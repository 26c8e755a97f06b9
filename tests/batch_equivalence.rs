//! Randomized equivalence of batched (columnar) and row-at-a-time
//! execution.
//!
//! The batch kernels of `tdb_stream::batch_ops` are a pure execution-path
//! change: for every dispatchable operator kind, every batch size, and
//! every parallelism degree, the batched run must produce the **same
//! output sequence**, the **same read/comparison/emit counters**, and the
//! **same observed workspace peak** as the row operators. The workspace
//! invariance is what lets the static analyzer's workspace-cap proofs
//! carry over to the batched path unchanged — a batch-size-dependent peak
//! would invalidate every certificate.

use proptest::prelude::*;
use tdb::prelude::*;
use tdb::stream::{run_join_kind_each, run_semijoin_kind_each, StreamOpKind};

/// The batch sizes under test: degenerate (1), sub-default (64), and the
/// default (1024, larger than every generated input so a whole side lands
/// in one batch). `0` is the row-at-a-time baseline.
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

    /// Joins: identical output sequence and identical reports across
    /// every batch size.
    #[test]
    fn batched_joins_match_row_execution(xs in interval_vec(), ys in interval_vec()) {
        let xs = tuples(&xs);
        let ys = tuples(&ys);
        for (kind, xo, yo, cfg) in join_cases() {
            let x = sorted(xs.clone(), xo);
            let y = sorted(ys.clone(), yo);
            let mut row_out: Vec<(TsTuple, TsTuple)> = Vec::new();
            let (_, row_rep) = run_join_kind_each(
                kind, cfg.with_batch_rows(0), x.clone(), xo, y.clone(), yo, &mut row_out,
            ).unwrap();
            for rows in BATCH_SIZES {
                let mut out: Vec<(TsTuple, TsTuple)> = Vec::new();
                let (_, rep) = run_join_kind_each(
                    kind, cfg.with_batch_rows(rows), x.clone(), xo, y.clone(), yo, &mut out,
                ).unwrap();
                prop_assert_eq!(&out, &row_out, "{} batch {}", kind, rows);
                assert_reports_match(&rep, &row_rep, &format!("{kind} batch {rows}"));
            }
        }
    }

    /// Semijoins: identical kept-tuple sequence and identical reports
    /// across every batch size.
    #[test]
    fn batched_semijoins_match_row_execution(xs in interval_vec(), ys in interval_vec()) {
        let xs = tuples(&xs);
        let ys = tuples(&ys);
        for (kind, xo, yo, cfg) in semijoin_cases() {
            let x = sorted(xs.clone(), xo);
            let y = sorted(ys.clone(), yo);
            let mut row_out: Vec<TsTuple> = Vec::new();
            let (_, row_rep) = run_semijoin_kind_each(
                kind, cfg.with_batch_rows(0), x.clone(), xo, y.clone(), yo, &mut row_out,
            ).unwrap();
            for rows in BATCH_SIZES {
                let mut out: Vec<TsTuple> = Vec::new();
                let (_, rep) = run_semijoin_kind_each(
                    kind, cfg.with_batch_rows(rows), x.clone(), xo, y.clone(), yo, &mut out,
                ).unwrap();
                prop_assert_eq!(&out, &row_out, "{} batch {}", kind, rows);
                assert_reports_match(&rep, &row_rep, &format!("{kind} batch {rows}"));
            }
        }
    }

    /// Partitioned-parallel execution: for K ∈ {1, 4}, the batched
    /// workers must reproduce the row workers' deduplicated output and
    /// per-partition workspace peaks exactly.
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
                let row_cfg = OpConfig::new().with_batch_rows(0);
                let mut row_pairs = Vec::new();
                let row_join = parallel_join_each(
                    pattern, xs.clone(), ys.clone(), k, row_cfg, &mut row_pairs,
                ).unwrap();
                let mut row_kept = Vec::new();
                let row_semi = parallel_semijoin_each(
                    pattern, xs.clone(), ys.clone(), k, row_cfg, &mut row_kept,
                ).unwrap();
                for rows in BATCH_SIZES {
                    let cfg = OpConfig::new().with_batch_rows(rows);
                    let mut pairs = Vec::new();
                    let join = parallel_join_each(
                        pattern, xs.clone(), ys.clone(), k, cfg, &mut pairs,
                    ).unwrap();
                    prop_assert_eq!(
                        &pairs, &row_pairs,
                        "{:?} join K={} batch {}", pattern, k, rows
                    );
                    prop_assert_eq!(
                        join.report.max_workspace(), row_join.report.max_workspace(),
                        "{:?} join K={} batch {}: workspace peak", pattern, k, rows
                    );
                    let mut kept = Vec::new();
                    let semi = parallel_semijoin_each(
                        pattern, xs.clone(), ys.clone(), k, cfg, &mut kept,
                    ).unwrap();
                    prop_assert_eq!(
                        &kept, &row_kept,
                        "{:?} semijoin K={} batch {}", pattern, k, rows
                    );
                    prop_assert_eq!(
                        semi.report.max_workspace(), row_semi.report.max_workspace(),
                        "{:?} semijoin K={} batch {}: workspace peak", pattern, k, rows
                    );
                }
            }
        }
    }
}
