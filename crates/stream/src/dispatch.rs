//! The push dispatch: one entry point per operator family.
//!
//! Every call site that runs a stream temporal operator over materialized,
//! sortable inputs — the query executor, the partitioned-parallel workers,
//! and the experiment harness — goes through [`run_join_kind_each`] or
//! [`run_semijoin_kind_each`]. They centralize the `from_sorted_vec` +
//! [`OpConfig`] constructor sequence and the execution-path decision: when
//! [`OpConfig::batched`] holds (`batch_rows > 0`) the vectorized kernels of
//! [`crate::batch_ops`] run over [`VecBatchStream`] columnar batches;
//! otherwise the row-at-a-time pull operators run. Output goes to an
//! [`Emit`] consumer chunk by chunk: a closure that keeps every chunk
//! materializes the result, one that returns `false` stops the producer,
//! and one that declines items ([`Emit::wants_items`]) receives counts —
//! the join kernels then run count-only. By the equivalence pinned in
//! `tests/batch_equivalence.rs` both paths emit the same sequence and the
//! same [`OpReport`] — only wall-clock differs.
//!
//! Inputs must already be sorted into the orders the operator's registry
//! entry requires ([`StreamOpKind::requirement`]); both paths re-verify the
//! claimed order in O(n) and fail with `OrderViolation` otherwise.

use crate::batch::{VecBatchStream, DEFAULT_BATCH_ROWS};
use crate::batch_ops::{
    drive_each, BatchContainJoinTsTe, BatchContainSemijoinStab, BatchContainedSemijoinStab,
    BatchOp, BatchOverlapJoin, BatchOverlapSemijoin,
};
use crate::report::{Instrumented, OpConfig, OpReport};
use crate::required::StreamOpKind;
use crate::sink::Emit;
use crate::stream::{from_sorted_vec, TupleStream};
use tdb_core::{StreamOrder, TdbError, TdbResult, Temporal};

/// Pull a row operator to completion, handing its output to `emit` in
/// chunks of [`DEFAULT_BATCH_ROWS`] — the row-path twin of
/// [`drive_each`]. Returns `false` if `emit` stopped the run early.
pub fn pull_each<S>(op: &mut S, emit: &mut dyn Emit<S::Item>) -> TdbResult<bool>
where
    S: TupleStream,
{
    let mut chunk = Vec::new();
    while let Some(item) = op.next()? {
        chunk.push(item);
        if chunk.len() >= DEFAULT_BATCH_ROWS && !emit.offer(std::mem::take(&mut chunk))? {
            return Ok(false);
        }
    }
    if !chunk.is_empty() && !emit.offer(chunk)? {
        return Ok(false);
    }
    Ok(true)
}

/// Drive a batched kernel over two columnar streams into `emit`.
fn drive_batched<K: BatchOp>(
    mut op: K,
    mut left: VecBatchStream<K::LeftItem>,
    mut right: VecBatchStream<K::RightItem>,
    emit: &mut dyn Emit<K::Out>,
) -> TdbResult<(bool, OpReport)> {
    let completed = drive_each(&mut op, &mut left, &mut right, emit)?;
    Ok((completed, op.report()))
}

/// Run a stream temporal **join** of `kind` over pre-sorted inputs,
/// selecting the row or batched path per `cfg.batch_rows`, and hand each
/// output chunk to `emit` as the operator drains. The returned flag is
/// `false` when `emit` stopped the run early; the [`OpReport`] then covers
/// only the work done up to that point.
///
/// When `emit` declines items, the batched kernels run in count-only mode
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
    let count_only = !emit.wants_items();
    let (completed, report) = match kind {
        StreamOpKind::ContainJoinTsTe if cfg.batched() => {
            let op = BatchContainJoinTsTe::new();
            drive_batched(
                if count_only { op.count_only() } else { op },
                VecBatchStream::from_sorted_vec(x, x_order, cfg.batch_rows)?,
                VecBatchStream::from_sorted_vec(y, y_order, cfg.batch_rows)?,
                emit,
            )?
        }
        StreamOpKind::ContainJoinTsTe => {
            let mut op =
                cfg.contain_join_ts_te(from_sorted_vec(x, x_order)?, from_sorted_vec(y, y_order)?)?;
            return Ok((pull_each(&mut op, emit)?, op.report()));
        }
        StreamOpKind::OverlapJoin if cfg.batched() => {
            let op = BatchOverlapJoin::new(cfg.mode, cfg.policy);
            drive_batched(
                if count_only { op.count_only() } else { op },
                VecBatchStream::from_sorted_vec(x, x_order, cfg.batch_rows)?,
                VecBatchStream::from_sorted_vec(y, y_order, cfg.batch_rows)?,
                emit,
            )?
        }
        StreamOpKind::OverlapJoin => {
            let mut op =
                cfg.overlap_join(from_sorted_vec(x, x_order)?, from_sorted_vec(y, y_order)?)?;
            return Ok((pull_each(&mut op, emit)?, op.report()));
        }
        other => return Err(TdbError::Plan(format!("no join dispatch for {other}"))),
    };
    if count_only {
        return Ok((emit.push_count(report.metrics.emitted)?, report));
    }
    Ok((completed, report))
}

/// Run a stream temporal **semijoin** of `kind` (left rows kept) over
/// pre-sorted inputs, selecting the row or batched path per
/// `cfg.batch_rows`, and hand kept left rows to `emit` in chunks as the
/// operator drains (counts, if `emit` declines items). The flag is
/// `false` on early termination.
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
    match kind {
        StreamOpKind::ContainSemijoinStab if cfg.batched() => drive_batched(
            BatchContainSemijoinStab::new(),
            VecBatchStream::from_sorted_vec(x, x_order, cfg.batch_rows)?,
            VecBatchStream::from_sorted_vec(y, y_order, cfg.batch_rows)?,
            emit,
        ),
        StreamOpKind::ContainSemijoinStab => {
            let mut op = cfg.contain_semijoin_stab(
                from_sorted_vec(x, x_order)?,
                from_sorted_vec(y, y_order)?,
            )?;
            Ok((pull_each(&mut op, emit)?, op.report()))
        }
        // The batched kernel's left input is the container (Y) side,
        // mirroring the row operator's read_left accounting.
        StreamOpKind::ContainedSemijoinStab if cfg.batched() => drive_batched(
            BatchContainedSemijoinStab::new(),
            VecBatchStream::from_sorted_vec(y, y_order, cfg.batch_rows)?,
            VecBatchStream::from_sorted_vec(x, x_order, cfg.batch_rows)?,
            emit,
        ),
        StreamOpKind::ContainedSemijoinStab => {
            let mut op = cfg.contained_semijoin_stab(
                from_sorted_vec(x, x_order)?,
                from_sorted_vec(y, y_order)?,
            )?;
            Ok((pull_each(&mut op, emit)?, op.report()))
        }
        StreamOpKind::OverlapSemijoin if cfg.batched() => drive_batched(
            BatchOverlapSemijoin::new(cfg.mode, cfg.policy),
            VecBatchStream::from_sorted_vec(x, x_order, cfg.batch_rows)?,
            VecBatchStream::from_sorted_vec(y, y_order, cfg.batch_rows)?,
            emit,
        ),
        StreamOpKind::OverlapSemijoin => {
            let mut op =
                cfg.overlap_semijoin(from_sorted_vec(x, x_order)?, from_sorted_vec(y, y_order)?)?;
            Ok((pull_each(&mut op, emit)?, op.report()))
        }
        other => Err(TdbError::Plan(format!("no semijoin dispatch for {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlap_join::OverlapMode;
    use crate::sink::Counter;
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
        let row = contain_join(OpConfig::new().with_batch_rows(0), &xs, &ys);
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
        for rows in [0usize, 64, 1024] {
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
                seen < pairs.len(),
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
            let row = semijoin(kind, cfg.with_batch_rows(0), &x, xo, &y, yo);
            let batched = semijoin(kind, cfg.with_batch_rows(128), &x, xo, &y, yo);
            assert_eq!(batched, row, "{kind}");
        }
    }

    /// A counting consumer sees the collected run's cardinality and report.
    #[test]
    fn sink_semijoin_dispatch_matches_materialized() {
        let (xs, ys) = workload(70);
        for (kind, xo, yo, mode) in semijoin_cases() {
            let x = sorted(xs.clone(), xo);
            let y = sorted(ys.clone(), yo);
            for rows in [0usize, 128] {
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
