//! The unified construction and instrumentation surface for stream
//! operators.
//!
//! Historically every operator grew its own constructor shape (policy here,
//! mode there) and its own reporting accessors (`workspace()` returning one
//! stat, a pair of stats, or nothing). This module normalizes both sides:
//!
//! * [`OpConfig`] is a builder holding the cross-cutting knobs — the
//!   [`ReadPolicy`] for two-sided sweeps and the [`OverlapMode`] for
//!   overlap operators — with one construction method per operator;
//! * [`Instrumented`] is implemented by every operator and returns an
//!   [`OpReport`] bundling [`OpMetrics`] with a single [`WorkspaceStats`]
//!   (two-state operators report the *stacked* combination, so
//!   `report().workspace.max_resident` always equals the operator's
//!   historical `max_workspace()`).
//!
//! The executor, the experiments harness and the parallel partition driver
//! consume only this surface.

use crate::aggregate::GroupedSum;
use crate::before::{BeforeJoin, BeforeSemijoin};
use crate::buffered_join::BufferedJoin;
use crate::coalesce::Coalesce;
use crate::contain_join::{ContainJoinTsTe, ContainJoinTsTs};
use crate::event_join::EventMergeJoin;
use crate::merge_join::MergeEquiJoin;
use crate::metrics::OpMetrics;
use crate::nested_loop::NestedLoopJoin;
use crate::overlap_join::{OverlapJoin, OverlapMode, OverlapSemijoin};
use crate::read_policy::ReadPolicy;
use crate::self_semijoin::{ContainSelfSemijoin, ContainSelfSemijoinDesc, ContainedSelfSemijoin};
use crate::stab_semijoin::{ContainSemijoinStab, ContainedSemijoinStab};
use crate::stream::TupleStream;
use crate::sweep_semijoin::SweepSemijoin;
use crate::timeslice::Timeslice;
use crate::workspace::WorkspaceStats;
use std::fmt;
use tdb_core::{TdbResult, Temporal, TimePoint, Value};

/// Everything an operator reports about one run: throughput counters plus
/// workspace statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpReport {
    /// Read/comparison/emit counters.
    pub metrics: OpMetrics,
    /// State-set statistics (stacked across a two-sided operator's states).
    pub workspace: WorkspaceStats,
}

impl OpReport {
    /// Bundle metrics and workspace stats.
    pub fn new(metrics: OpMetrics, workspace: WorkspaceStats) -> OpReport {
        OpReport { metrics, workspace }
    }

    /// Peak resident state tuples — the paper's workspace figure.
    pub fn max_workspace(&self) -> usize {
        self.workspace.max_resident
    }

    /// Aggregate the report of another instance of the *same* operator run
    /// over a disjoint partition in parallel: reads, comparisons and emits
    /// sum; workspace peaks take the max (each worker owns its state);
    /// passes take the max (the partitioned run is still one logical pass).
    pub fn combine_parallel(self, other: OpReport) -> OpReport {
        OpReport {
            metrics: OpMetrics {
                read_left: self.metrics.read_left + other.metrics.read_left,
                read_right: self.metrics.read_right + other.metrics.read_right,
                comparisons: self.metrics.comparisons + other.metrics.comparisons,
                emitted: self.metrics.emitted + other.metrics.emitted,
                passes: self.metrics.passes.max(other.metrics.passes),
            },
            workspace: self.workspace.combine_parallel(other.workspace),
        }
    }
}

impl fmt::Display for OpReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}; workspace {}", self.metrics, self.workspace)
    }
}

/// Implemented by every stream operator: a uniform way to read metrics and
/// workspace statistics after (or during) a run.
pub trait Instrumented {
    /// The operator's combined report.
    fn report(&self) -> OpReport;

    /// Peak resident state tuples.
    fn max_workspace(&self) -> usize {
        self.report().workspace.max_resident
    }
}

/// Builder for stream operators, holding the knobs shared across the
/// family; per-operator inputs are supplied at construction time.
///
/// ```
/// use tdb_stream::{from_sorted_vec, Instrumented, OpConfig, TupleStream};
/// use tdb_core::{StreamOrder, TsTuple};
///
/// let xs = vec![TsTuple::interval(0, 10)?, TsTuple::interval(4, 6)?];
/// let ys = vec![TsTuple::interval(5, 6)?];
/// let x = from_sorted_vec(xs, StreamOrder::TS_ASC)?;
/// let y = from_sorted_vec(ys, StreamOrder::TS_ASC)?;
/// let mut op = OpConfig::new().contain_join_ts_ts(x, y)?;
/// let pairs = op.collect_vec()?;
/// let report = op.report();
/// assert_eq!(pairs.len(), report.metrics.emitted);
/// # Ok::<(), tdb_core::TdbError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpConfig {
    /// Which input a two-sided sweep advances when both buffers are full.
    pub policy: ReadPolicy,
    /// Which overlap predicate the overlap operators evaluate.
    pub mode: OverlapMode,
    /// Items per output chunk a producer hands to its [`crate::Emit`]
    /// consumer — the [`crate::batch_ops`] kernels, [`crate::pull_each`]
    /// and the [`crate::partition`] drivers (`0` is clamped to 1). The row
    /// constructors below ignore it.
    pub batch_rows: usize,
}

impl Default for OpConfig {
    fn default() -> OpConfig {
        OpConfig {
            policy: ReadPolicy::MinKey,
            mode: OverlapMode::General,
            batch_rows: crate::batch::DEFAULT_BATCH_ROWS,
        }
    }
}

impl OpConfig {
    /// The default configuration: `MinKey` policy, general overlap,
    /// [`crate::batch::DEFAULT_BATCH_ROWS`] rows per batch.
    pub fn new() -> OpConfig {
        OpConfig::default()
    }

    /// Set the read policy for two-sided sweeps.
    pub fn with_policy(mut self, policy: ReadPolicy) -> OpConfig {
        self.policy = policy;
        self
    }

    /// Set the overlap predicate mode.
    pub fn with_mode(mut self, mode: OverlapMode) -> OpConfig {
        self.mode = mode;
        self
    }

    /// Set the items per output chunk (`0` is clamped to 1).
    pub fn with_batch_rows(mut self, batch_rows: usize) -> OpConfig {
        self.batch_rows = batch_rows;
        self
    }

    /// Contain-join under `(ValidFrom ↑, ValidFrom ↑)` — Table 1 state (a).
    pub fn contain_join_ts_ts<X, Y>(&self, x: X, y: Y) -> TdbResult<ContainJoinTsTs<X, Y>>
    where
        X: TupleStream,
        Y: TupleStream,
        X::Item: Temporal + Clone,
        Y::Item: Temporal + Clone,
    {
        ContainJoinTsTs::new(x, y, self.policy)
    }

    /// Contain-join under `(ValidFrom ↑, ValidTo ↑)` — Table 1 state (b).
    pub fn contain_join_ts_te<X, Y>(&self, x: X, y: Y) -> TdbResult<ContainJoinTsTe<X, Y>>
    where
        X: TupleStream,
        Y: TupleStream,
        X::Item: Temporal + Clone,
        Y::Item: Temporal + Clone,
    {
        ContainJoinTsTe::new(x, y)
    }

    /// Overlap join over `(ValidFrom ↑, ValidFrom ↑)` using the configured
    /// mode — Table 2 state (a).
    pub fn overlap_join<X, Y>(&self, x: X, y: Y) -> TdbResult<OverlapJoin<X, Y>>
    where
        X: TupleStream,
        Y: TupleStream,
        X::Item: Temporal + Clone,
        Y::Item: Temporal + Clone,
    {
        OverlapJoin::new(x, y, self.mode, self.policy)
    }

    /// Overlap semijoin using the configured mode — Table 2 state (b) in
    /// general mode.
    pub fn overlap_semijoin<X, Y>(&self, x: X, y: Y) -> TdbResult<OverlapSemijoin<X, Y>>
    where
        X: TupleStream,
        Y: TupleStream,
        X::Item: Temporal + Clone,
        Y::Item: Temporal + Clone,
    {
        OverlapSemijoin::new(x, y, self.mode, self.policy)
    }

    /// Contain-semijoin under `(ValidFrom ↑, ValidFrom ↑)` — Table 1
    /// state (c).
    pub fn contain_semijoin<X, Y>(&self, x: X, y: Y) -> TdbResult<SweepSemijoin<X, Y>>
    where
        X: TupleStream,
        Y: TupleStream,
        X::Item: Temporal + Clone,
        Y::Item: Temporal + Clone,
    {
        SweepSemijoin::contain(x, y, self.policy)
    }

    /// Contained-semijoin under `(ValidFrom ↑, ValidFrom ↑)` — Table 1
    /// state (c).
    pub fn contained_semijoin<X, Y>(&self, x: X, y: Y) -> TdbResult<SweepSemijoin<X, Y>>
    where
        X: TupleStream,
        Y: TupleStream,
        X::Item: Temporal + Clone,
        Y::Item: Temporal + Clone,
    {
        SweepSemijoin::contained(x, y, self.policy)
    }

    /// Two-buffer Contain-semijoin (X: `ValidFrom ↑`, Y: `ValidTo ↑`) —
    /// Table 1 state (d).
    pub fn contain_semijoin_stab<X, Y>(&self, x: X, y: Y) -> TdbResult<ContainSemijoinStab<X, Y>>
    where
        X: TupleStream,
        Y: TupleStream,
        X::Item: Temporal + Clone,
        Y::Item: Temporal + Clone,
    {
        ContainSemijoinStab::new(x, y)
    }

    /// Two-buffer Contained-semijoin (X: `ValidTo ↑`, Y: `ValidFrom ↑`) —
    /// Table 1 state (d).
    pub fn contained_semijoin_stab<X, Y>(
        &self,
        x: X,
        y: Y,
    ) -> TdbResult<ContainedSemijoinStab<X, Y>>
    where
        X: TupleStream,
        Y: TupleStream,
        X::Item: Temporal + Clone,
        Y::Item: Temporal + Clone,
    {
        ContainedSemijoinStab::new(x, y)
    }

    /// Single-scan Contain-semijoin(X, X) — Table 3 state (b).
    pub fn contain_self_semijoin<S>(&self, input: S) -> TdbResult<ContainSelfSemijoin<S>>
    where
        S: TupleStream,
        S::Item: Temporal + Clone,
    {
        ContainSelfSemijoin::new(input)
    }

    /// Single-scan Contained-semijoin(X, X) — Table 3 state (a).
    pub fn contained_self_semijoin<S>(&self, input: S) -> TdbResult<ContainedSelfSemijoin<S>>
    where
        S: TupleStream,
        S::Item: Temporal + Clone,
    {
        ContainedSelfSemijoin::new(input)
    }

    /// Before-join: pairs `x` with every later `y`.
    pub fn before_join<X, Y>(&self, x: X, y: Y) -> TdbResult<BeforeJoin<X, Y>>
    where
        X: TupleStream,
        Y: TupleStream,
        X::Item: Temporal + Clone,
        Y::Item: Temporal + Clone,
    {
        BeforeJoin::new(x, y)
    }

    /// Before-semijoin: keeps `x` preceding some `y`.
    pub fn before_semijoin<X, Y>(&self, x: X, y: Y) -> TdbResult<BeforeSemijoin<X>>
    where
        X: TupleStream,
        Y: TupleStream,
        X::Item: Temporal + Clone,
        Y::Item: Temporal,
    {
        BeforeSemijoin::new(x, y)
    }

    /// Nested-loop theta-join — the conventional §3 baseline.
    pub fn nested_loop<X, Y, P>(
        &self,
        x: X,
        y: Y,
        predicate: P,
    ) -> TdbResult<NestedLoopJoin<X, Y, P>>
    where
        X: TupleStream,
        Y: TupleStream,
        X::Item: Temporal + Clone,
        Y::Item: Temporal + Clone,
        P: Fn(&X::Item, &Y::Item) -> bool,
    {
        NestedLoopJoin::new(x, y, predicate)
    }

    /// Buffered (no-GC) join: the degenerate "-" configuration that keeps
    /// every tuple.
    pub fn buffered_join<X, Y, P>(
        &self,
        x: X,
        y: Y,
        predicate: P,
    ) -> TdbResult<BufferedJoin<X, Y, P>>
    where
        X: TupleStream,
        Y: TupleStream,
        X::Item: Temporal + Clone,
        Y::Item: Temporal + Clone,
        P: Fn(&X::Item, &Y::Item) -> bool,
    {
        Ok(BufferedJoin::new(x, y, predicate))
    }
}

impl<X, Y> Instrumented for ContainJoinTsTs<X, Y>
where
    X: TupleStream,
    Y: TupleStream,
    X::Item: Temporal + Clone,
    Y::Item: Temporal + Clone,
{
    fn report(&self) -> OpReport {
        let (wx, wy) = self.workspace();
        OpReport::new(self.metrics(), wx.combine_stacked(wy))
    }
}

impl<X, Y> Instrumented for ContainJoinTsTe<X, Y>
where
    X: TupleStream,
    Y: TupleStream,
    X::Item: Temporal + Clone,
    Y::Item: Temporal + Clone,
{
    fn report(&self) -> OpReport {
        OpReport::new(self.metrics(), self.workspace())
    }
}

impl<X, Y> Instrumented for OverlapJoin<X, Y>
where
    X: TupleStream,
    Y: TupleStream,
    X::Item: Temporal + Clone,
    Y::Item: Temporal + Clone,
{
    fn report(&self) -> OpReport {
        let (wx, wy) = self.workspace();
        OpReport::new(self.metrics(), wx.combine_stacked(wy))
    }
}

impl<X, Y> Instrumented for OverlapSemijoin<X, Y>
where
    X: TupleStream,
    Y: TupleStream,
    X::Item: Temporal + Clone,
    Y::Item: Temporal + Clone,
{
    fn report(&self) -> OpReport {
        OpReport::new(self.metrics(), self.workspace())
    }
}

impl<X, Y> Instrumented for SweepSemijoin<X, Y>
where
    X: TupleStream,
    Y: TupleStream,
    X::Item: Temporal + Clone,
    Y::Item: Temporal + Clone,
{
    fn report(&self) -> OpReport {
        let (wx, wy) = self.workspace();
        OpReport::new(self.metrics(), wx.combine_stacked(wy))
    }
}

impl<X, Y> Instrumented for ContainSemijoinStab<X, Y>
where
    X: TupleStream,
    Y: TupleStream,
    X::Item: Temporal + Clone,
    Y::Item: Temporal + Clone,
{
    fn report(&self) -> OpReport {
        // Table 1 state (d): the workspace is the two input buffers; no
        // state tuples beyond them.
        OpReport::new(self.metrics(), WorkspaceStats::default())
    }
}

impl<X, Y> Instrumented for ContainedSemijoinStab<X, Y>
where
    X: TupleStream,
    Y: TupleStream,
    X::Item: Temporal + Clone,
    Y::Item: Temporal + Clone,
{
    fn report(&self) -> OpReport {
        OpReport::new(self.metrics(), WorkspaceStats::default())
    }
}

impl<S> Instrumented for ContainSelfSemijoin<S>
where
    S: TupleStream,
    S::Item: Temporal + Clone,
{
    fn report(&self) -> OpReport {
        OpReport::new(self.metrics(), self.workspace())
    }
}

impl<S> Instrumented for ContainedSelfSemijoin<S>
where
    S: TupleStream,
    S::Item: Temporal + Clone,
{
    fn report(&self) -> OpReport {
        OpReport::new(
            self.metrics(),
            WorkspaceStats::of_resident(self.max_workspace()),
        )
    }
}

impl<S> Instrumented for ContainSelfSemijoinDesc<S>
where
    S: TupleStream,
    S::Item: Temporal + Clone,
{
    fn report(&self) -> OpReport {
        OpReport::new(
            self.metrics(),
            WorkspaceStats::of_resident(self.max_workspace()),
        )
    }
}

impl<X, Y> Instrumented for BeforeJoin<X, Y>
where
    X: TupleStream,
    Y: TupleStream,
    X::Item: Temporal + Clone,
    Y::Item: Temporal + Clone,
{
    fn report(&self) -> OpReport {
        OpReport::new(
            self.metrics(),
            WorkspaceStats::of_resident(self.max_workspace()),
        )
    }
}

impl<X> Instrumented for BeforeSemijoin<X>
where
    X: TupleStream,
    X::Item: Temporal + Clone,
{
    fn report(&self) -> OpReport {
        OpReport::new(
            self.metrics(),
            WorkspaceStats::of_resident(self.max_workspace()),
        )
    }
}

impl<X, Y, P> Instrumented for NestedLoopJoin<X, Y, P>
where
    X: TupleStream,
    Y: TupleStream,
    X::Item: Temporal + Clone,
    Y::Item: Temporal + Clone,
    P: Fn(&X::Item, &Y::Item) -> bool,
{
    fn report(&self) -> OpReport {
        OpReport::new(
            self.metrics(),
            WorkspaceStats::of_resident(self.max_workspace()),
        )
    }
}

impl<X, Y, P> Instrumented for BufferedJoin<X, Y, P>
where
    X: TupleStream,
    Y: TupleStream,
    X::Item: Temporal + Clone,
    Y::Item: Temporal + Clone,
    P: Fn(&X::Item, &Y::Item) -> bool,
{
    fn report(&self) -> OpReport {
        let (wx, wy) = self.workspace();
        OpReport::new(self.metrics(), wx.combine_stacked(wy))
    }
}

impl<X, Y, KX, KY> Instrumented for MergeEquiJoin<X, Y, KX, KY>
where
    X: TupleStream,
    Y: TupleStream,
    X::Item: Clone,
    Y::Item: Clone,
    KX: Fn(&X::Item) -> Value,
    KY: Fn(&Y::Item) -> Value,
{
    fn report(&self) -> OpReport {
        OpReport::new(
            self.metrics(),
            WorkspaceStats::of_resident(self.max_workspace()),
        )
    }
}

impl<X, Y> Instrumented for EventMergeJoin<X, Y>
where
    X: TupleStream,
    Y: TupleStream,
    X::Item: Temporal + Clone,
    Y::Item: Temporal + Clone,
{
    fn report(&self) -> OpReport {
        OpReport::new(
            self.metrics(),
            WorkspaceStats::of_resident(self.max_workspace()),
        )
    }
}

impl<S, K, V> Instrumented for GroupedSum<S, K, V>
where
    S: TupleStream,
    K: Fn(&S::Item) -> Value,
    V: Fn(&S::Item) -> i64,
{
    fn report(&self) -> OpReport {
        OpReport::new(
            self.metrics(),
            WorkspaceStats::of_resident(self.max_workspace()),
        )
    }
}

impl<S: TupleStream<Item = tdb_core::TsTuple>> Instrumented for Coalesce<S> {
    fn report(&self) -> OpReport {
        OpReport::new(
            self.metrics(),
            WorkspaceStats::of_resident(self.max_workspace()),
        )
    }
}

impl<S> Instrumented for Timeslice<S>
where
    S: TupleStream,
    S::Item: Temporal,
{
    fn report(&self) -> OpReport {
        // Pure filter: no state beyond the slice point.
        OpReport::new(self.metrics(), WorkspaceStats::default())
    }
}

/// Build a `Timeslice` through the config surface (kept here rather than on
/// [`OpConfig`] methods above because it takes a time point, not a policy).
pub fn timeslice<S>(input: S, at: TimePoint) -> Timeslice<S>
where
    S: TupleStream,
    S::Item: Temporal,
{
    Timeslice::new(input, at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::from_sorted_vec;
    use tdb_core::{StreamOrder, TsTuple};

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    fn ts_asc(v: Vec<TsTuple>) -> crate::stream::VecStream<TsTuple> {
        from_sorted_vec(v, StreamOrder::TS_ASC).unwrap()
    }

    #[test]
    fn report_matches_legacy_accessors() {
        let xs = vec![iv(0, 10), iv(2, 8), iv(4, 6)];
        let ys = vec![iv(1, 3), iv(5, 6)];
        let mut op = OpConfig::new()
            .contain_join_ts_ts(ts_asc(xs), ts_asc(ys))
            .unwrap();
        op.collect_vec().unwrap();
        let report = op.report();
        assert_eq!(report.metrics, op.metrics());
        assert_eq!(report.max_workspace(), op.max_workspace());
        assert_eq!(report.metrics.emitted, 3);
    }

    #[test]
    fn overlap_config_controls_mode_and_policy() {
        let xs = vec![iv(0, 10)];
        let ys = vec![iv(3, 8)];
        // Containment matches general overlap but not strict Allen overlap.
        let cfg = OpConfig::new().with_mode(OverlapMode::Strict);
        let mut op = cfg
            .overlap_join(ts_asc(xs.clone()), ts_asc(ys.clone()))
            .unwrap();
        assert!(op.collect_vec().unwrap().is_empty());
        let cfg = cfg
            .with_mode(OverlapMode::General)
            .with_policy(ReadPolicy::Alternate);
        let mut op = cfg.overlap_join(ts_asc(xs), ts_asc(ys)).unwrap();
        assert_eq!(op.collect_vec().unwrap().len(), 1);
        assert_eq!(op.report().metrics.emitted, 1);
    }

    #[test]
    fn stab_semijoin_reports_zero_state() {
        let xs = vec![iv(0, 10)];
        let ys = from_sorted_vec(vec![iv(2, 5)], StreamOrder::TE_ASC).unwrap();
        let mut op = OpConfig::new()
            .contain_semijoin_stab(ts_asc(xs), ys)
            .unwrap();
        assert_eq!(op.collect_vec().unwrap().len(), 1);
        assert_eq!(op.report().max_workspace(), 0);
        assert_eq!(op.report().metrics.emitted, 1);
    }

    #[test]
    fn combine_parallel_sums_counters_and_maxes_workspace() {
        let run = |xs: Vec<TsTuple>, ys: Vec<TsTuple>| {
            let mut op = OpConfig::new()
                .contain_join_ts_ts(ts_asc(xs), ts_asc(ys))
                .unwrap();
            op.collect_vec().unwrap();
            op.report()
        };
        let a = run(vec![iv(0, 10), iv(1, 9)], vec![iv(2, 3)]);
        let b = run(vec![iv(20, 30)], vec![iv(21, 22)]);
        let c = a.combine_parallel(b);
        assert_eq!(c.metrics.emitted, a.metrics.emitted + b.metrics.emitted);
        assert_eq!(
            c.metrics.read_left,
            a.metrics.read_left + b.metrics.read_left
        );
        assert_eq!(
            c.workspace.max_resident,
            a.workspace.max_resident.max(b.workspace.max_resident)
        );
        assert_eq!(c.metrics.passes, 1);
    }

    #[test]
    fn before_and_nested_loop_report_materialized_inner() {
        let xs = vec![iv(0, 2)];
        let ys = vec![iv(5, 6), iv(7, 8)];
        let mut op = OpConfig::new()
            .before_join(
                crate::stream::from_vec(xs.clone()),
                crate::stream::from_vec(ys.clone()),
            )
            .unwrap();
        assert_eq!(op.collect_vec().unwrap().len(), 2);
        assert_eq!(op.report().max_workspace(), 2);
        let mut op = OpConfig::new()
            .nested_loop(
                crate::stream::from_vec(xs),
                crate::stream::from_vec(ys),
                |x, y| x.period.before(&y.period),
            )
            .unwrap();
        assert_eq!(op.collect_vec().unwrap().len(), 2);
        assert_eq!(op.report().max_workspace(), 2);
    }
}
