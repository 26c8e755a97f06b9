//! The push dispatch: one entry point per operator family.
//!
//! Every call site that runs a stream temporal operator over materialized,
//! sortable inputs — the query executor, the partitioned-parallel workers,
//! and the experiment harness — goes through [`run_join_kind_each`] or
//! [`run_semijoin_kind_each`]. They centralize the construction sequence:
//! each supported kind has exactly one serving implementation, the
//! columnar kernel of [`crate::batch_ops`], which sweeps both inputs whole
//! as [`RowBatch`]es. Output goes to an [`Emit`] consumer in chunks of at
//! most [`OpConfig::batch_rows`] items (`0` is clamped to 1): a closure
//! that keeps every chunk materializes the result, one that returns
//! `false` stops the producer, and one that declines items
//! ([`Emit::wants_items`]) receives one count — the join kernels then run
//! count-only.
//!
//! The row-at-a-time operators of the same kinds ([`crate::contain_join`],
//! [`crate::overlap_join`], [`crate::stab_semijoin`]) are the kernels'
//! oracles: `tests/batch_equivalence.rs` pins that a kernel emits the row
//! operator's sequence and the same [`OpReport`] at every batch size.
//! Kinds without a kernel (Before/After, the self semijoins) run as row
//! operators drained by [`pull_each`] under the same chunk contract.
//!
//! Inputs must already be sorted into the orders the operator's registry
//! entry requires ([`StreamOpKind::requirement`]); the claimed order is
//! re-verified in O(n) and fails with `OrderViolation` otherwise.

use crate::batch::RowBatch;
use crate::batch_ops::{
    contain_join_ts_te, overlap_join, overlap_semijoin, stab_semijoin, StabSide,
};
use crate::report::{OpConfig, OpReport};
use crate::required::StreamOpKind;
use crate::sink::{Chunker, Emit};
use crate::stream::TupleStream;
use tdb_core::{StreamOrder, TdbError, TdbResult, Temporal};

/// Pull a row operator to completion, handing its output to `emit` in
/// chunks of at most `rows` items (a counting consumer gets the total).
/// Returns `false` if `emit` stopped the run early.
pub fn pull_each<S>(op: &mut S, rows: usize, emit: &mut dyn Emit<S::Item>) -> TdbResult<bool>
where
    S: TupleStream,
{
    let mut out = Chunker::new(emit, rows);
    while let Some(item) = op.next()? {
        if !out.push(item)? {
            return Ok(false);
        }
    }
    out.finish()
}

/// Run a stream temporal **join** of `kind` over pre-sorted inputs and
/// hand the matched pairs to `emit` in chunks of at most
/// `cfg.batch_rows`. The returned flag is `false` when `emit` stopped the
/// run early; the [`OpReport`] then covers only the work done up to that
/// point.
///
/// When `emit` declines items, the kernel runs in count-only mode
/// — the probe pass sums hits over the endpoint columns and never clones a
/// payload — and `emit` receives one [`Emit::push_count`]. Metrics in the
/// report are identical to the item-producing run's.
///
/// Supported kinds: [`StreamOpKind::ContainJoinTsTe`] and
/// [`StreamOpKind::OverlapJoin`] (mode from [`OpConfig::mode`]) — the
/// kinds the planner emits for materialized two-sided joins. Side swaps
/// (e.g. `During` running the `Contains` operator) are the caller's
/// concern.
pub fn run_join_kind_each<X, Y>(
    kind: StreamOpKind,
    cfg: OpConfig,
    x: Vec<X>,
    x_order: StreamOrder,
    y: Vec<Y>,
    y_order: StreamOrder,
    emit: &mut dyn Emit<(X, Y)>,
) -> TdbResult<(bool, OpReport)>
where
    X: Temporal + Clone,
    Y: Temporal + Clone,
{
    let kernel = match kind {
        StreamOpKind::ContainJoinTsTe => contain_join_ts_te,
        StreamOpKind::OverlapJoin => overlap_join,
        other => return Err(TdbError::Plan(format!("no join dispatch for {other}"))),
    };
    let x = RowBatch::from_sorted(x, x_order)?;
    let y = RowBatch::from_sorted(y, y_order)?;
    kernel(x, y, cfg, emit)
}

/// Run a stream temporal **semijoin** of `kind` (left rows kept) over
/// pre-sorted inputs and hand the kept left rows to `emit` in chunks of at
/// most `cfg.batch_rows` (one count, if `emit` declines items). The flag
/// is `false` on early termination.
///
/// Supported kinds: [`StreamOpKind::ContainSemijoinStab`],
/// [`StreamOpKind::ContainedSemijoinStab`] (X sorted `ValidTo ↑`, Y — the
/// containers — sorted `ValidFrom ↑`, exactly the row operator's input
/// convention), and [`StreamOpKind::OverlapSemijoin`] (mode from
/// [`OpConfig::mode`]).
pub fn run_semijoin_kind_each<X, Y>(
    kind: StreamOpKind,
    cfg: OpConfig,
    x: Vec<X>,
    x_order: StreamOrder,
    y: Vec<Y>,
    y_order: StreamOrder,
    emit: &mut dyn Emit<X>,
) -> TdbResult<(bool, OpReport)>
where
    X: Temporal + Clone,
    Y: Temporal + Clone,
{
    let kept = match kind {
        StreamOpKind::ContainSemijoinStab => Some(StabSide::Container),
        StreamOpKind::ContainedSemijoinStab => Some(StabSide::Containee),
        StreamOpKind::OverlapSemijoin => None,
        other => return Err(TdbError::Plan(format!("no semijoin dispatch for {other}"))),
    };
    let x = RowBatch::from_sorted(x, x_order)?;
    let y = RowBatch::from_sorted(y, y_order)?;
    match kept {
        Some(kept) => stab_semijoin(x, y, kept, cfg, emit),
        None => overlap_semijoin(x, y, cfg, emit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlap_join::OverlapMode;
    use crate::report::Instrumented;
    use crate::sink::Counter;
    use crate::stream::from_sorted_vec;
    use crate::DEFAULT_BATCH_ROWS;
    use tdb_core::TsTuple;

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    fn workload(n: i64) -> (Vec<TsTuple>, Vec<TsTuple>) {
        let xs: Vec<_> = (0..n)
            .map(|i| iv(i * 3 % 97, i * 3 % 97 + 5 + (i % 7) * 11))
            .collect();
        let ys: Vec<_> = (0..n)
            .map(|i| iv(i * 5 % 89, i * 5 % 89 + 1 + (i % 5) * 9))
            .collect();
        (xs, ys)
    }

    fn sorted(mut v: Vec<TsTuple>, o: StreamOrder) -> Vec<TsTuple> {
        o.sort(&mut v);
        v
    }

    /// Drain a row operator — the kernels' oracle — to completion.
    fn drain<S: TupleStream + Instrumented>(mut op: S) -> (Vec<S::Item>, OpReport) {
        let mut out = Vec::new();
        assert!(pull_each(&mut op, DEFAULT_BATCH_ROWS, &mut out).unwrap());
        (out, op.report())
    }

    type Pairs = Vec<(TsTuple, TsTuple)>;

    fn contain_join(cfg: OpConfig, xs: &[TsTuple], ys: &[TsTuple]) -> (Pairs, OpReport) {
        let mut out = Vec::new();
        let (completed, report) = run_join_kind_each(
            StreamOpKind::ContainJoinTsTe,
            cfg,
            xs.to_vec(),
            StreamOrder::TS_ASC,
            ys.to_vec(),
            StreamOrder::TE_ASC,
            &mut out,
        )
        .unwrap();
        assert!(completed);
        (out, report)
    }

    #[test]
    fn join_dispatch_paths_agree() {
        let (xs, ys) = workload(80);
        let xs = sorted(xs, StreamOrder::TS_ASC);
        let ys = sorted(ys, StreamOrder::TE_ASC);
        let row = drain(
            OpConfig::new()
                .contain_join_ts_te(
                    from_sorted_vec(xs.clone(), StreamOrder::TS_ASC).unwrap(),
                    from_sorted_vec(ys.clone(), StreamOrder::TE_ASC).unwrap(),
                )
                .unwrap(),
        );
        for rows in [1usize, 64, 1024] {
            let batched = contain_join(OpConfig::new().with_batch_rows(rows), &xs, &ys);
            assert_eq!(batched, row, "rows {rows}");
        }
    }

    /// Count-only consumers agree with the collected run, and a consumer
    /// that declines further chunks stops the producer mid-run.
    #[test]
    fn sink_dispatch_matches_materialized_and_stops_early() {
        let (xs, ys) = workload(80);
        let xs = sorted(xs, StreamOrder::TS_ASC);
        let ys = sorted(ys, StreamOrder::TE_ASC);
        let (pairs, report) = contain_join(OpConfig::new(), &xs, &ys);
        for rows in [1usize, 64, 1024] {
            let cfg = OpConfig::new().with_batch_rows(rows);
            let mut counter = Counter(0);
            let (completed, creport) = run_join_kind_each(
                StreamOpKind::ContainJoinTsTe,
                cfg,
                xs.clone(),
                StreamOrder::TS_ASC,
                ys.clone(),
                StreamOrder::TE_ASC,
                &mut counter,
            )
            .unwrap();
            assert!(completed);
            assert_eq!(counter.0, pairs.len(), "rows {rows}");
            assert_eq!(creport.metrics, report.metrics, "rows {rows}");
            assert_eq!(creport.max_workspace(), report.max_workspace());
            let mut seen = 0usize;
            let (completed, _) = run_join_kind_each(
                StreamOpKind::ContainJoinTsTe,
                OpConfig::new().with_batch_rows(rows.min(8)),
                xs.clone(),
                StreamOrder::TS_ASC,
                ys.clone(),
                StreamOrder::TE_ASC,
                &mut |chunk: Pairs| {
                    seen += chunk.len();
                    Ok(false)
                },
            )
            .unwrap();
            assert!(!completed);
            assert!(
                seen <= rows.min(8),
                "stopped after {seen} of {}",
                pairs.len()
            );
        }
    }

    fn semijoin_cases() -> [(StreamOpKind, StreamOrder, StreamOrder, OverlapMode); 3] {
        [
            (
                StreamOpKind::ContainSemijoinStab,
                StreamOrder::TS_ASC,
                StreamOrder::TE_ASC,
                OverlapMode::General,
            ),
            (
                StreamOpKind::ContainedSemijoinStab,
                StreamOrder::TE_ASC,
                StreamOrder::TS_ASC,
                OverlapMode::General,
            ),
            (
                StreamOpKind::OverlapSemijoin,
                StreamOrder::TS_ASC,
                StreamOrder::TS_ASC,
                OverlapMode::Strict,
            ),
        ]
    }

    fn semijoin(
        kind: StreamOpKind,
        cfg: OpConfig,
        x: &[TsTuple],
        xo: StreamOrder,
        y: &[TsTuple],
        yo: StreamOrder,
    ) -> (Vec<TsTuple>, OpReport) {
        let mut kept = Vec::new();
        let (completed, report) =
            run_semijoin_kind_each(kind, cfg, x.to_vec(), xo, y.to_vec(), yo, &mut kept).unwrap();
        assert!(completed);
        (kept, report)
    }

    #[test]
    fn semijoin_dispatch_paths_agree() {
        let (xs, ys) = workload(70);
        for (kind, xo, yo, mode) in semijoin_cases() {
            let x = sorted(xs.clone(), xo);
            let y = sorted(ys.clone(), yo);
            let cfg = OpConfig::new().with_mode(mode);
            let (xr, yr) = (
                from_sorted_vec(x.clone(), xo).unwrap(),
                from_sorted_vec(y.clone(), yo).unwrap(),
            );
            let row = match kind {
                StreamOpKind::ContainSemijoinStab => {
                    drain(cfg.contain_semijoin_stab(xr, yr).unwrap())
                }
                StreamOpKind::ContainedSemijoinStab => {
                    drain(cfg.contained_semijoin_stab(xr, yr).unwrap())
                }
                _ => drain(cfg.overlap_semijoin(xr, yr).unwrap()),
            };
            for rows in [1usize, 128] {
                let batched = semijoin(kind, cfg.with_batch_rows(rows), &x, xo, &y, yo);
                assert_eq!(batched, row, "{kind} rows {rows}");
            }
        }
    }

    /// A counting consumer sees the collected run's cardinality and report.
    #[test]
    fn sink_semijoin_dispatch_matches_materialized() {
        let (xs, ys) = workload(70);
        for (kind, xo, yo, mode) in semijoin_cases() {
            let x = sorted(xs.clone(), xo);
            let y = sorted(ys.clone(), yo);
            for rows in [1usize, 128] {
                let cfg = OpConfig::new().with_mode(mode).with_batch_rows(rows);
                let (kept, report) = semijoin(kind, cfg, &x, xo, &y, yo);
                let mut counter = Counter(0);
                let (completed, creport) =
                    run_semijoin_kind_each(kind, cfg, x.clone(), xo, y.clone(), yo, &mut counter)
                        .unwrap();
                assert!(completed);
                assert_eq!(counter.0, kept.len(), "{kind} rows {rows}");
                assert_eq!(creport, report, "{kind} rows {rows}");
            }
        }
    }

    #[test]
    fn unsupported_kinds_are_planning_errors() {
        let err = run_join_kind_each::<TsTuple, TsTuple>(
            StreamOpKind::BeforeJoin,
            OpConfig::new(),
            vec![],
            StreamOrder::TS_ASC,
            vec![],
            StreamOrder::TS_ASC,
            &mut |_: Pairs| Ok(true),
        )
        .unwrap_err();
        assert!(matches!(err, TdbError::Plan(_)));
        let err = run_semijoin_kind_each::<TsTuple, TsTuple>(
            StreamOpKind::BeforeSemijoin,
            OpConfig::new(),
            vec![],
            StreamOrder::TS_ASC,
            vec![],
            StreamOrder::TS_ASC,
            &mut |_: Vec<TsTuple>| Ok(true),
        )
        .unwrap_err();
        assert!(matches!(err, TdbError::Plan(_)));
    }
}
