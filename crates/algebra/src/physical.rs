//! Physical plans and the executor.
//!
//! A [`PhysicalPlan`] binds each logical operator to an implementation:
//! sequential scans over the catalog's heap files, filters, projections,
//! merge equi-joins, the §4 stream temporal operators, and nested-loop
//! fallbacks. The executor is one push pipeline: every node pushes its
//! output rows into a [`RowSink`], and a node that needs its inputs
//! materialized runs them into a [`CollectSink`]. The stream operators
//! of `tdb-stream` run inside the join nodes over [`PeriodRow`] wrappers,
//! emit chunk by chunk as they drain, and report their workspace
//! high-water marks into [`ExecStats`].
//!
//! Sorting is performed lazily inside the nodes that need it: if the input
//! already satisfies the required order (verified in O(n)) the sort is
//! skipped and *not* counted — making "interesting orders" measurable, as
//! §4.1's tradeoff demands.

use crate::expr::{
    display_conjunction, eval_conjunction, resolve_all, Atom, ColumnRef, ResolvedAtom,
};
use crate::logical::Scope;
use crate::pattern::TemporalPattern;
use std::fmt;
use std::time::Instant;
use tdb_core::{PeriodRow, Row, StreamOrder, TdbError, TdbResult, Temporal};
use tdb_storage::Catalog;
use tdb_stream::{
    from_sorted_vec, from_vec, parallel_join_each, parallel_semijoin_each, pull_each,
    run_join_kind_each, run_semijoin_kind_each, CollectSink, Emit, Instrumented, MergeEquiJoin,
    OpConfig, OpMetrics, OpReport, ParallelPattern, RowSink, SinkStats, StreamOpKind, TupleStream,
    WorkspaceStats, DEFAULT_BATCH_ROWS,
};

/// Executor-level options: what to collect, how the stream temporal
/// operators execute, and where output rows go. Built fluently:
///
/// ```ignore
/// let mut sink = LimitSink::new(20);
/// plan.execute(&catalog, ExecOptions::new().with_sink(&mut sink))?;
/// ```
pub struct ExecOptions<'a> {
    /// Collect per-operator [`OpObservation`]s (disable for the
    /// instrumentation-overhead baseline).
    pub collect_trace: bool,
    /// Rows per columnar batch on the vectorized execution path; `0` runs
    /// the row-at-a-time operators.
    pub batch_rows: usize,
    /// Push-mode output sink. When set, result rows are pushed into it as
    /// operators drain — chunk by chunk, honoring its early-termination
    /// signal — and [`QueryOutput::rows`] comes back empty. When `None`,
    /// the executor collects the rows internally and returns them in
    /// [`QueryOutput::rows`].
    pub sink: Option<&'a mut dyn RowSink>,
}

impl<'a> Default for ExecOptions<'a> {
    fn default() -> ExecOptions<'a> {
        ExecOptions {
            collect_trace: true,
            batch_rows: DEFAULT_BATCH_ROWS,
            sink: None,
        }
    }
}

impl fmt::Debug for ExecOptions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecOptions")
            .field("collect_trace", &self.collect_trace)
            .field("batch_rows", &self.batch_rows)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl<'a> ExecOptions<'a> {
    /// Default options: trace collection on, default batch size, no sink.
    pub fn new() -> ExecOptions<'a> {
        ExecOptions::default()
    }

    /// Set whether per-operator observations are collected.
    pub fn with_trace(mut self, collect_trace: bool) -> ExecOptions<'a> {
        self.collect_trace = collect_trace;
        self
    }

    /// Set the columnar batch size (`0` = row-at-a-time operators).
    pub fn with_batch_rows(mut self, batch_rows: usize) -> ExecOptions<'a> {
        self.batch_rows = batch_rows;
        self
    }

    /// Push output rows into `sink` instead of materializing them.
    pub fn with_sink(mut self, sink: &'a mut dyn RowSink) -> ExecOptions<'a> {
        self.sink = Some(sink);
        self
    }

    /// The per-operator configuration these options induce.
    fn op_config(&self) -> OpConfig {
        OpConfig::new().with_batch_rows(self.batch_rows)
    }
}

/// Aggregate execution statistics of one query run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Base-relation rows read.
    pub rows_scanned: usize,
    /// Predicate evaluations / comparisons across all operators.
    pub comparisons: u64,
    /// Rows flowing between operators (intermediate result sizes).
    pub intermediate_rows: usize,
    /// Explicit sorts performed (inputs that were not already ordered).
    pub sorts_performed: usize,
    /// Rows passed through those sorts.
    pub sort_rows: usize,
    /// Maximum stream-operator workspace (state tuples) observed.
    pub max_workspace: usize,
    /// Rows in the final result.
    pub output_rows: usize,
}

impl ExecStats {
    /// Fold a stream operator occurrence over `partitions` — begun at
    /// `started`, ending now — into the totals and, when tracing, record
    /// its observation.
    fn observe(
        &mut self,
        trace: Option<&mut Vec<OpObservation>>,
        kind: StreamOpKind,
        partitions: usize,
        report: OpReport,
        started: Instant,
    ) {
        self.comparisons += report.metrics.comparisons as u64;
        self.max_workspace = self.max_workspace.max(report.max_workspace());
        if let Some(t) = trace {
            t.push(OpObservation {
                operator: kind.to_string(),
                kind: Some(kind),
                partitions,
                report,
                started,
                elapsed_us: started.elapsed().as_micros() as u64,
            });
        }
    }
}

/// The result of executing a physical plan.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Result rows.
    pub rows: Vec<Row>,
    /// Qualified column names of the result.
    pub scope: Scope,
    /// Execution statistics.
    pub stats: ExecStats,
    /// Per-operator observations, in execution (bottom-up) order; empty
    /// when collection was disabled via [`ExecOptions::with_trace`].
    pub trace: Vec<OpObservation>,
}

/// One instrumented operator occurrence observed during a query run: the
/// raw material of a query trace, before the engine pairs it with the
/// analyzer's predicted workspace cap and λ·E\[D\] expectation.
#[derive(Debug, Clone, PartialEq)]
pub struct OpObservation {
    /// Display name of the operator.
    pub operator: String,
    /// The stream-operator registry kind this occurrence ran as, `None`
    /// for instrumented non-temporal operators (the merge equi-join).
    pub kind: Option<StreamOpKind>,
    /// Partition fan-out: 1 for a serial run, k under a parallel driver.
    pub partitions: usize,
    /// The operator's instrumented report (parallel runs report the
    /// partition-aggregated view: counters summed, workspace peak maxed).
    pub report: OpReport,
    /// When this occurrence began its own work: after its inputs were
    /// produced, so a span placed here starts where the operator did.
    pub started: Instant,
    /// Wall-clock microseconds this operator occurrence spent doing its
    /// own work (sorting, streaming, residual filtering) — child plans
    /// excluded, so the engine can build a stage span per operator.
    pub elapsed_us: u64,
}

/// A physical operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Sequential scan of a catalog relation, qualified by a range
    /// variable.
    SeqScan {
        /// Relation name.
        relation: String,
        /// Range variable.
        var: String,
    },
    /// Filter by a conjunction.
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Conjunction of atoms.
        atoms: Vec<Atom>,
    },
    /// Projection with renaming.
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Columns to keep and their output names.
        columns: Vec<(ColumnRef, String)>,
    },
    /// Cartesian product.
    Product {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// Nested-loop theta-join (the conventional strategy of §3).
    NestedLoop {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Join predicate.
        atoms: Vec<Atom>,
    },
    /// Merge equi-join on one column pair plus residual predicate.
    MergeEqui {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Left join key.
        left_key: ColumnRef,
        /// Right join key.
        right_key: ColumnRef,
        /// Residual atoms applied to joined rows.
        residual: Vec<Atom>,
    },
    /// A §4 stream temporal join on the periods of two range variables.
    StreamTemporal {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Variable whose period drives the left side.
        left_var: String,
        /// Variable whose period drives the right side.
        right_var: String,
        /// The recognized relationship.
        pattern: TemporalPattern,
        /// Residual atoms applied to joined rows.
        residual: Vec<Atom>,
    },
    /// A §4 stream temporal semijoin (left rows kept).
    StreamSemijoin {
        /// Left (output) input.
        left: Box<PhysicalPlan>,
        /// Right (existential) input.
        right: Box<PhysicalPlan>,
        /// Variable whose period drives the left side.
        left_var: String,
        /// Variable whose period drives the right side.
        right_var: String,
        /// The recognized relationship (must cover the whole predicate).
        pattern: TemporalPattern,
    },
    /// Time-partitioned parallel execution of a stream temporal join or
    /// semijoin: the time axis is split into `partitions` disjoint ranges,
    /// tuples are replicated into every range their lifespan intersects
    /// (*fringe replication*), one serial operator instance runs per range
    /// on its own thread, and boundary duplicates are removed
    /// deterministically. Only intersection-witnessed patterns
    /// (containment and overlap) are eligible; `Before`/`After` children
    /// run serially.
    Parallel {
        /// Number of time-range partitions (threads).
        partitions: usize,
        /// The stream temporal join/semijoin to parallelize.
        child: Box<PhysicalPlan>,
    },
    /// The §4.2.3 single-scan self semijoin.
    SelfSemijoin {
        /// The shared input (scanned once).
        input: Box<PhysicalPlan>,
        /// Variable whose period is compared.
        var: String,
        /// `true` = Contained-semijoin(X,X); `false` = Contain-semijoin.
        contained: bool,
    },
    /// Merge equi-semijoin: keep left rows whose key appears on the right.
    MergeSemijoin {
        /// Left (output) input.
        left: Box<PhysicalPlan>,
        /// Right (existential) input.
        right: Box<PhysicalPlan>,
        /// Left match key.
        left_key: ColumnRef,
        /// Right match key.
        right_key: ColumnRef,
    },
    /// Nested-loop semijoin fallback.
    NestedSemijoin {
        /// Left (output) input.
        left: Box<PhysicalPlan>,
        /// Right (existential) input.
        right: Box<PhysicalPlan>,
        /// Match predicate over the concatenated scope.
        atoms: Vec<Atom>,
    },
}

impl PhysicalPlan {
    /// The output scope of this plan.
    pub fn scope(&self, catalog: &Catalog) -> TdbResult<Scope> {
        Ok(match self {
            PhysicalPlan::SeqScan { relation, var } => {
                let meta = catalog.meta(relation)?;
                let attrs: Vec<String> = meta
                    .schema
                    .schema
                    .fields()
                    .iter()
                    .map(|f| f.name.clone())
                    .collect();
                Scope::for_var(var, &attrs)
            }
            PhysicalPlan::Filter { input, .. } => input.scope(catalog)?,
            PhysicalPlan::Project { columns, .. } => Scope::new(
                columns
                    .iter()
                    .map(|(_, name)| ColumnRef::new("", name.clone()))
                    .collect(),
            ),
            PhysicalPlan::Product { left, right }
            | PhysicalPlan::NestedLoop { left, right, .. }
            | PhysicalPlan::MergeEqui { left, right, .. }
            | PhysicalPlan::StreamTemporal { left, right, .. } => {
                left.scope(catalog)?.concat(&right.scope(catalog)?)
            }
            PhysicalPlan::StreamSemijoin { left, .. }
            | PhysicalPlan::MergeSemijoin { left, .. }
            | PhysicalPlan::NestedSemijoin { left, .. } => left.scope(catalog)?,
            PhysicalPlan::SelfSemijoin { input, .. } => input.scope(catalog)?,
            PhysicalPlan::Parallel { child, .. } => child.scope(catalog)?,
        })
    }

    /// Execute the plan against `catalog` under `opts` — the single
    /// execution entry point.
    ///
    /// Output rows flow through a push [`RowSink`]: the one in `opts`, or
    /// an internal collector whose contents come back in
    /// [`QueryOutput::rows`] when none is given. Either way
    /// [`ExecStats::output_rows`] counts the rows offered to the sink
    /// (which a limiting sink may have declined to retain).
    pub fn execute(&self, catalog: &Catalog, opts: ExecOptions<'_>) -> TdbResult<QueryOutput> {
        let cfg = opts.op_config();
        let mut stats = ExecStats::default();
        let mut trace = Vec::new();
        let collect_trace = opts.collect_trace.then_some(&mut trace);
        let scope = self.scope(catalog)?;
        let mut rows = CollectSink::new();
        let sink: &mut dyn RowSink = match opts.sink {
            Some(sink) => sink,
            None => &mut rows,
        };
        stats.output_rows = self.run(catalog, cfg, &mut stats, collect_trace, sink)?;
        Ok(QueryOutput {
            rows: rows.into_rows(),
            scope,
            stats,
            trace,
        })
    }

    /// The executor: run the plan, pushing output rows into `sink` as they
    /// are produced, and return the number of rows offered to it.
    ///
    /// Stream temporal joins/semijoins emit chunk by chunk as their
    /// kernels drain — serially, or time-partitioned under a `Parallel`
    /// node — and stop when the sink says it has seen enough; a sink that
    /// declines rows ([`RowSink::wants_rows`] `false`) with no residual
    /// predicate gets bare counts from the count-only kernels. `Project`
    /// streams through a projecting adapter. Every other node runs its
    /// inputs into a collector ([`PhysicalPlan::collect`]) and hands
    /// its finished result to the sink in one push.
    fn run(
        &self,
        catalog: &Catalog,
        cfg: OpConfig,
        stats: &mut ExecStats,
        mut trace: Option<&mut Vec<OpObservation>>,
        sink: &mut dyn RowSink,
    ) -> TdbResult<usize> {
        // A `Parallel` node runs its stream child over K time partitions;
        // every other node runs serially (K = 1).
        let (node, k) = match self {
            PhysicalPlan::Parallel { partitions, child } => (&**child, *partitions),
            _ => (self, 1),
        };
        match node {
            PhysicalPlan::SeqScan { relation, .. } => {
                let snapshot = catalog.rows(relation)?;
                stats.rows_scanned += snapshot.len();
                push_rows(sink, snapshot.to_vec())
            }
            PhysicalPlan::Filter { input, atoms } => {
                let scope = input.scope(catalog)?;
                let resolved = resolve_all(atoms, |c| scope.index_of(c))?;
                let keep = |r: &Row| eval_conjunction(&resolved, r);
                let (offered, rows): (usize, Vec<Row>) = match &**input {
                    // Over a base relation the conjunction runs on the
                    // shared snapshot: only surviving rows are cloned.
                    PhysicalPlan::SeqScan { relation, .. } => {
                        let snapshot = catalog.rows(relation)?;
                        stats.rows_scanned += snapshot.len();
                        let kept = snapshot.iter().filter(|r| keep(r)).cloned().collect();
                        (snapshot.len(), kept)
                    }
                    _ => {
                        let (rows, _) = input.collect(catalog, cfg, stats, trace)?;
                        (rows.len(), rows.into_iter().filter(|r| keep(r)).collect())
                    }
                };
                stats.comparisons += (offered * atoms.len()) as u64;
                stats.intermediate_rows += rows.len();
                push_rows(sink, rows)
            }
            PhysicalPlan::Project { input, columns } => {
                let cscope = input.scope(catalog)?;
                let indices: Vec<usize> = columns
                    .iter()
                    .map(|(c, _)| cscope.index_of(c))
                    .collect::<TdbResult<_>>()?;
                let mut adapter = ProjectSink {
                    indices,
                    inner: sink,
                    buf: Vec::new(),
                };
                let pushed = input.run(catalog, cfg, stats, trace, &mut adapter)?;
                stats.intermediate_rows += pushed;
                Ok(pushed)
            }
            PhysicalPlan::Product { left, right } => {
                let (lrows, _) = left.collect(catalog, cfg, stats, trace.as_deref_mut())?;
                let (rrows, _) = right.collect(catalog, cfg, stats, trace)?;
                let mut out = Vec::with_capacity(lrows.len() * rrows.len());
                for l in &lrows {
                    for r in &rrows {
                        out.push(l.concat(r));
                    }
                }
                stats.intermediate_rows += out.len();
                push_rows(sink, out)
            }
            PhysicalPlan::NestedLoop { left, right, atoms } => {
                let (lrows, lscope) = left.collect(catalog, cfg, stats, trace.as_deref_mut())?;
                let (rrows, rscope) = right.collect(catalog, cfg, stats, trace)?;
                let scope = lscope.concat(&rscope);
                let resolved = resolve_all(atoms, |c| scope.index_of(c))?;
                let mut out = Vec::new();
                for l in &lrows {
                    for r in &rrows {
                        stats.comparisons += atoms.len().max(1) as u64;
                        let joined = l.concat(r);
                        if eval_conjunction(&resolved, &joined) {
                            out.push(joined);
                        }
                    }
                }
                stats.intermediate_rows += out.len();
                push_rows(sink, out)
            }
            PhysicalPlan::MergeEqui {
                left,
                right,
                left_key,
                right_key,
                residual,
            } => {
                let (lrows, lscope) = left.collect(catalog, cfg, stats, trace.as_deref_mut())?;
                let (rrows, rscope) = right.collect(catalog, cfg, stats, trace.as_deref_mut())?;
                let op_t0 = Instant::now();
                let li = lscope.index_of(left_key)?;
                let ri = rscope.index_of(right_key)?;
                let lrows = sort_rows_by_key(lrows, li, stats);
                let rrows = sort_rows_by_key(rrows, ri, stats);
                let mut join = MergeEquiJoin::new(
                    from_vec(lrows),
                    from_vec(rrows),
                    move |r: &Row| r.get(li).clone(),
                    move |r: &Row| r.get(ri).clone(),
                );
                let scope = lscope.concat(&rscope);
                let resolved = resolve_all(residual, |c| scope.index_of(c))?;
                let mut out = Vec::new();
                while let Some((l, r)) = join.next()? {
                    stats.comparisons += residual.len() as u64;
                    let joined = l.concat(&r);
                    if eval_conjunction(&resolved, &joined) {
                        out.push(joined);
                    }
                }
                let report = join.report();
                stats.comparisons += report.metrics.comparisons as u64;
                stats.max_workspace = stats.max_workspace.max(report.max_workspace());
                stats.intermediate_rows += out.len();
                if let Some(t) = trace {
                    t.push(OpObservation {
                        operator: "MergeEquiJoin".into(),
                        kind: None,
                        partitions: 1,
                        report,
                        started: op_t0,
                        elapsed_us: op_t0.elapsed().as_micros() as u64,
                    });
                }
                push_rows(sink, out)
            }
            PhysicalPlan::StreamTemporal {
                left,
                right,
                left_var,
                right_var,
                pattern,
                residual,
            } => {
                let (lrows, lscope) = left.collect(catalog, cfg, stats, trace.as_deref_mut())?;
                let (rrows, rscope) = right.collect(catalog, cfg, stats, trace.as_deref_mut())?;
                let op_t0 = Instant::now();
                let lwrapped = wrap_rows(lrows, lscope.period_of_var(left_var)?)?;
                let rwrapped = wrap_rows(rrows, rscope.period_of_var(right_var)?)?;
                let scope = lscope.concat(&rscope);
                let mut emit = JoinEmit {
                    residual: resolve_all(residual, |c| scope.index_of(c))?,
                    sink,
                    pushed: 0,
                    comparisons: 0,
                };
                let (partitions, report) =
                    stream_join(*pattern, k, cfg, lwrapped, rwrapped, stats, &mut emit)?;
                stats.comparisons += emit.comparisons;
                stats.observe(trace, pattern.join_op().0, partitions, report, op_t0);
                stats.intermediate_rows += emit.pushed;
                Ok(emit.pushed)
            }
            PhysicalPlan::StreamSemijoin {
                left,
                right,
                left_var,
                right_var,
                pattern,
            } => {
                let (lrows, lscope) = left.collect(catalog, cfg, stats, trace.as_deref_mut())?;
                let (rrows, rscope) = right.collect(catalog, cfg, stats, trace.as_deref_mut())?;
                let op_t0 = Instant::now();
                let lwrapped = wrap_rows(lrows, lscope.period_of_var(left_var)?)?;
                let rwrapped = wrap_rows(rrows, rscope.period_of_var(right_var)?)?;
                let mut emit = SemiEmit { sink, pushed: 0 };
                let (partitions, report) =
                    stream_semijoin(*pattern, k, cfg, lwrapped, rwrapped, stats, &mut emit)?;
                stats.observe(trace, pattern.semijoin_op().0, partitions, report, op_t0);
                stats.intermediate_rows += emit.pushed;
                Ok(emit.pushed)
            }
            // A `Parallel` directly under a `Parallel`: the inner fan-out
            // applies.
            PhysicalPlan::Parallel { .. } => node.run(catalog, cfg, stats, trace, sink),
            PhysicalPlan::SelfSemijoin {
                input,
                var,
                contained,
            } => {
                let (rows, scope) = input.collect(catalog, cfg, stats, trace.as_deref_mut())?;
                let op_t0 = Instant::now();
                let p = scope.period_of_var(var)?;
                let wrapped = wrap_rows(rows, p)?;
                let order = StreamOrder::TS_ASC_TE_ASC;
                let sorted = sort_wrapped(wrapped, order, stats);
                let input_stream = from_sorted_vec(sorted, order)?;
                let (out_rows, report): (Vec<PeriodRow>, OpReport) = if *contained {
                    let mut op = cfg.contained_self_semijoin(input_stream)?;
                    let v = op.collect_vec()?;
                    (v, op.report())
                } else {
                    let mut op = cfg.contain_self_semijoin(input_stream)?;
                    let v = op.collect_vec()?;
                    (v, op.report())
                };
                let kind = if *contained {
                    StreamOpKind::ContainedSelfSemijoin
                } else {
                    StreamOpKind::ContainSelfSemijoin
                };
                stats.observe(trace, kind, 1, report, op_t0);
                let out: Vec<Row> = out_rows.into_iter().map(|p| p.row).collect();
                stats.intermediate_rows += out.len();
                push_rows(sink, out)
            }
            PhysicalPlan::MergeSemijoin {
                left,
                right,
                left_key,
                right_key,
            } => {
                let (lrows, lscope) = left.collect(catalog, cfg, stats, trace.as_deref_mut())?;
                let (rrows, rscope) = right.collect(catalog, cfg, stats, trace)?;
                let li = lscope.index_of(left_key)?;
                let ri = rscope.index_of(right_key)?;
                let lrows = sort_rows_by_key(lrows, li, stats);
                let mut rkeys: Vec<tdb_core::Value> =
                    rrows.iter().map(|r| r.get(ri).clone()).collect();
                rkeys.sort();
                rkeys.dedup();
                stats.comparisons += (lrows.len() as u64) * u64::from(rkeys.len().max(2).ilog2());
                let out: Vec<Row> = lrows
                    .into_iter()
                    .filter(|l| rkeys.binary_search(l.get(li)).is_ok())
                    .collect();
                stats.intermediate_rows += out.len();
                push_rows(sink, out)
            }
            PhysicalPlan::NestedSemijoin { left, right, atoms } => {
                let (lrows, lscope) = left.collect(catalog, cfg, stats, trace.as_deref_mut())?;
                let (rrows, rscope) = right.collect(catalog, cfg, stats, trace)?;
                let scope = lscope.concat(&rscope);
                let resolved = resolve_all(atoms, |c| scope.index_of(c))?;
                let mut out = Vec::new();
                for l in &lrows {
                    let mut matched = false;
                    for r in &rrows {
                        stats.comparisons += atoms.len().max(1) as u64;
                        if eval_conjunction(&resolved, &l.concat(r)) {
                            matched = true;
                            break;
                        }
                    }
                    if matched {
                        out.push(l.clone());
                    }
                }
                stats.intermediate_rows += out.len();
                push_rows(sink, out)
            }
        }
    }

    /// Run the plan into a row vector, for nodes that need their
    /// inputs materialized; returns the rows with the plan's scope.
    fn collect(
        &self,
        catalog: &Catalog,
        cfg: OpConfig,
        stats: &mut ExecStats,
        trace: Option<&mut Vec<OpObservation>>,
    ) -> TdbResult<(Vec<Row>, Scope)> {
        let mut rows = CollectSink::new();
        self.run(catalog, cfg, stats, trace, &mut rows)?;
        Ok((rows.into_rows(), self.scope(catalog)?))
    }

    /// Render the physical plan as an indented tree (EXPLAIN output).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, 0);
        out
    }

    fn render(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            PhysicalPlan::SeqScan { relation, var } => {
                out.push_str(&format!("{pad}SeqScan {relation} as {var}\n"));
            }
            PhysicalPlan::Filter { input, atoms } => {
                out.push_str(&format!("{pad}Filter [{}]\n", display_conjunction(atoms)));
                input.render(out, depth + 1);
            }
            PhysicalPlan::Project { input, columns } => {
                let cols: Vec<String> = columns.iter().map(|(c, n)| format!("{c}→{n}")).collect();
                out.push_str(&format!("{pad}Project [{}]\n", cols.join(", ")));
                input.render(out, depth + 1);
            }
            PhysicalPlan::Product { left, right } => {
                out.push_str(&format!("{pad}Product\n"));
                left.render(out, depth + 1);
                right.render(out, depth + 1);
            }
            PhysicalPlan::NestedLoop { left, right, atoms } => {
                out.push_str(&format!(
                    "{pad}NestedLoopJoin [{}]\n",
                    display_conjunction(atoms)
                ));
                left.render(out, depth + 1);
                right.render(out, depth + 1);
            }
            PhysicalPlan::MergeEqui {
                left,
                right,
                left_key,
                right_key,
                residual,
            } => {
                out.push_str(&format!(
                    "{pad}MergeEquiJoin [{left_key} = {right_key}] residual [{}]\n",
                    display_conjunction(residual)
                ));
                left.render(out, depth + 1);
                right.render(out, depth + 1);
            }
            PhysicalPlan::StreamTemporal {
                left,
                right,
                left_var,
                right_var,
                pattern,
                residual,
            } => {
                out.push_str(&format!(
                    "{pad}StreamTemporalJoin {pattern:?}({left_var}, {right_var}) residual [{}]\n",
                    display_conjunction(residual)
                ));
                left.render(out, depth + 1);
                right.render(out, depth + 1);
            }
            PhysicalPlan::StreamSemijoin {
                left,
                right,
                left_var,
                right_var,
                pattern,
            } => {
                out.push_str(&format!(
                    "{pad}StreamSemijoin {pattern:?}({left_var}, {right_var})\n"
                ));
                left.render(out, depth + 1);
                right.render(out, depth + 1);
            }
            PhysicalPlan::Parallel { partitions, child } => {
                out.push_str(&format!(
                    "{pad}Parallel ×{partitions} (time-partitioned, fringe replication)\n"
                ));
                child.render(out, depth + 1);
            }
            PhysicalPlan::SelfSemijoin {
                input,
                var,
                contained,
            } => {
                let kind = if *contained { "Contained" } else { "Contain" };
                out.push_str(&format!("{pad}{kind}SelfSemijoin({var}) — single scan\n"));
                input.render(out, depth + 1);
            }
            PhysicalPlan::MergeSemijoin {
                left,
                right,
                left_key,
                right_key,
            } => {
                out.push_str(&format!("{pad}MergeSemijoin [{left_key} = {right_key}]\n"));
                left.render(out, depth + 1);
                right.render(out, depth + 1);
            }
            PhysicalPlan::NestedSemijoin { left, right, atoms } => {
                out.push_str(&format!(
                    "{pad}NestedLoopSemijoin [{}]\n",
                    display_conjunction(atoms)
                ));
                left.render(out, depth + 1);
                right.render(out, depth + 1);
            }
        }
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// Hand a finished result to `sink` in one push (a bare count, if the sink
/// declines rows); returns the number of rows offered.
fn push_rows(sink: &mut dyn RowSink, mut rows: Vec<Row>) -> TdbResult<usize> {
    let n = rows.len();
    if !sink.wants_rows() {
        sink.push_count(n)?;
    } else if n > 0 {
        sink.push(&mut rows)?;
    }
    Ok(n)
}

/// Sink adapter that projects every pushed row through `indices` before
/// forwarding, letting `Project` stream (and `\set limit` early-terminate)
/// instead of materializing its input.
struct ProjectSink<'a> {
    indices: Vec<usize>,
    inner: &'a mut dyn RowSink,
    buf: Vec<Row>,
}

impl RowSink for ProjectSink<'_> {
    fn wants_rows(&self) -> bool {
        self.inner.wants_rows()
    }

    fn push(&mut self, rows: &mut Vec<Row>) -> TdbResult<bool> {
        self.buf.clear();
        self.buf.reserve(rows.len());
        self.buf
            .extend(rows.drain(..).map(|r| r.project(&self.indices)));
        self.inner.push(&mut self.buf)
    }

    fn push_count(&mut self, n: usize) -> TdbResult<bool> {
        self.inner.push_count(n)
    }

    fn finish(&mut self) -> SinkStats {
        self.inner.finish()
    }
}

/// The consumer of a stream join's pairs: widens each pair into a joined
/// row, applies the residual predicate and pushes the survivors into the
/// sink. With no residual, a sink that declines rows gets bare counts —
/// and the join runs its count-only kernels.
struct JoinEmit<'a> {
    residual: Vec<ResolvedAtom>,
    sink: &'a mut dyn RowSink,
    /// Rows offered to the sink.
    pushed: usize,
    /// Residual-predicate evaluations.
    comparisons: u64,
}

impl Emit<(PeriodRow, PeriodRow)> for JoinEmit<'_> {
    fn wants_items(&self) -> bool {
        self.sink.wants_rows() || !self.residual.is_empty()
    }

    fn push(&mut self, chunk: Vec<(PeriodRow, PeriodRow)>) -> TdbResult<bool> {
        let mut out = Vec::with_capacity(chunk.len());
        for (l, r) in chunk {
            self.comparisons += self.residual.len() as u64;
            let joined = l.row.concat(&r.row);
            if eval_conjunction(&self.residual, &joined) {
                out.push(joined);
            }
        }
        self.pushed += out.len();
        if out.is_empty() {
            return Ok(true);
        }
        self.sink.push(&mut out)
    }

    fn push_count(&mut self, n: usize) -> TdbResult<bool> {
        self.pushed += n;
        self.sink.push_count(n)
    }
}

/// The consumer of a stream semijoin's kept left rows: pushes them (or,
/// to a sink that declines rows, their count) into the sink.
struct SemiEmit<'a> {
    sink: &'a mut dyn RowSink,
    /// Rows offered to the sink.
    pushed: usize,
}

impl Emit<PeriodRow> for SemiEmit<'_> {
    fn wants_items(&self) -> bool {
        self.sink.wants_rows()
    }

    fn push(&mut self, chunk: Vec<PeriodRow>) -> TdbResult<bool> {
        self.pushed += chunk.len();
        let mut out: Vec<Row> = chunk.into_iter().map(|p| p.row).collect();
        self.sink.push(&mut out)
    }

    fn push_count(&mut self, n: usize) -> TdbResult<bool> {
        self.pushed += n;
        self.sink.push_count(n)
    }
}

/// Hands pairs an operator produced with its sides swapped (`During` runs
/// the `Contains` operator, `After` the `Before` one) on in (left, right)
/// order.
struct Unswap<'a>(&'a mut dyn Emit<(PeriodRow, PeriodRow)>);

impl Emit<(PeriodRow, PeriodRow)> for Unswap<'_> {
    fn wants_items(&self) -> bool {
        self.0.wants_items()
    }

    fn push(&mut self, chunk: Vec<(PeriodRow, PeriodRow)>) -> TdbResult<bool> {
        self.0
            .push(chunk.into_iter().map(|(a, b)| (b, a)).collect())
    }

    fn push_count(&mut self, n: usize) -> TdbResult<bool> {
        self.0.push_count(n)
    }
}

fn wrap_rows(rows: Vec<Row>, (ts, te): (usize, usize)) -> TdbResult<Vec<PeriodRow>> {
    rows.into_iter()
        .map(|row| {
            let s = row
                .get(ts)
                .as_time()
                .ok_or_else(|| TdbError::Eval(format!("ValidFrom column holds {}", row.get(ts))))?;
            let e = row
                .get(te)
                .as_time()
                .ok_or_else(|| TdbError::Eval(format!("ValidTo column holds {}", row.get(te))))?;
            Ok(PeriodRow::new(row, tdb_core::Period::new(s, e)?))
        })
        .collect()
}

fn sort_rows_by_key(mut rows: Vec<Row>, key: usize, stats: &mut ExecStats) -> Vec<Row> {
    let sorted = rows.windows(2).all(|w| w[0].get(key) <= w[1].get(key));
    if !sorted {
        stats.sorts_performed += 1;
        stats.sort_rows += rows.len();
        rows.sort_by(|a, b| a.get(key).cmp(b.get(key)));
    }
    rows
}

fn sort_wrapped(
    mut rows: Vec<PeriodRow>,
    order: StreamOrder,
    stats: &mut ExecStats,
) -> Vec<PeriodRow> {
    if order.first_violation(&rows).is_some() {
        stats.sorts_performed += 1;
        stats.sort_rows += rows.len();
        order.sort(&mut rows);
    }
    rows
}

/// Map a planner pattern to its partitioned-parallel counterpart; `None`
/// for `Before`/`After`, which no time-range decomposition localizes.
pub(crate) fn parallel_pattern(pattern: TemporalPattern) -> Option<ParallelPattern> {
    match pattern {
        TemporalPattern::Contains => Some(ParallelPattern::Contains),
        TemporalPattern::During => Some(ParallelPattern::During),
        TemporalPattern::GeneralOverlap => Some(ParallelPattern::GeneralOverlap),
        TemporalPattern::AllenOverlaps => Some(ParallelPattern::AllenOverlaps),
        TemporalPattern::Before | TemporalPattern::After => None,
    }
}

/// Count the sorts the parallel driver will perform internally, mirroring
/// [`sort_wrapped`]'s "only if violated" accounting. The per-worker
/// orderings come from the operator registry, so this stays in lock-step
/// with what the driver actually requires.
fn note_parallel_sorts(
    pattern: ParallelPattern,
    join: bool,
    l: &[PeriodRow],
    r: &[PeriodRow],
    stats: &mut ExecStats,
) {
    let (lo, ro) = pattern.worker_orders(join);
    for (rows, order) in [(l, lo), (r, ro)] {
        if order.first_violation(rows).is_some() {
            stats.sorts_performed += 1;
            stats.sort_rows += rows.len();
        }
    }
}

/// The (left, right) input orders `kind`'s registry entry requires.
fn required_orders(kind: StreamOpKind) -> (StreamOrder, StreamOrder) {
    let req = kind.requirement();
    (
        req.left().unwrap_or(StreamOrder::TS_ASC),
        req.right().unwrap_or(StreamOrder::TS_ASC),
    )
}

/// Sound static workspace cap for `kind` over these concrete inputs,
/// derived from sweep statistics by [`crate::cost::workspace_cap`]. Debug
/// builds — and release builds with the `check` feature, as the CI soak
/// jobs run them — cross-check every stream operator's runtime
/// `OpReport.workspace` high-water mark against this bound.
#[cfg(any(debug_assertions, feature = "check"))]
fn static_ws_cap(kind: StreamOpKind, x: &[PeriodRow], y: &[PeriodRow]) -> usize {
    let xs = tdb_core::TemporalStats::compute(x);
    let ys = tdb_core::TemporalStats::compute(y);
    crate::cost::workspace_cap(kind, &xs, Some(&ys))
}

/// Run the §4 stream join for `pattern` over wrapped inputs, pushing the
/// matched (left, right) pairs into `emit`: time-partitioned over `fan_out`
/// ranges when `fan_out > 1` and the pattern partitions, serially otherwise.
/// The operator and its input orders come from the registry entry the
/// planner committed to, so the executor cannot drift from the Table 1
/// preconditions the analyzer certifies. Returns the partition fan-out
/// used and the operator's report.
fn stream_join(
    pattern: TemporalPattern,
    fan_out: usize,
    cfg: OpConfig,
    l: Vec<PeriodRow>,
    r: Vec<PeriodRow>,
    stats: &mut ExecStats,
    emit: &mut dyn Emit<(PeriodRow, PeriodRow)>,
) -> TdbResult<(usize, OpReport)> {
    // `During` and `After` run the `Contains` / `Before` operator with
    // the sides swapped.
    let (kind, swap) = pattern.join_op();
    #[cfg(any(debug_assertions, feature = "check"))]
    let ws_cap = if swap {
        static_ws_cap(kind, &r, &l)
    } else {
        static_ws_cap(kind, &l, &r)
    };
    let (partitions, report) = match parallel_pattern(pattern) {
        // The partitioned driver takes (left, right) and normalizes
        // `During` itself.
        Some(ppat) if fan_out > 1 => {
            note_parallel_sorts(ppat, true, &l, &r, stats);
            (
                fan_out,
                parallel_join_each(ppat, l, r, fan_out, cfg, emit)?.report,
            )
        }
        ppat => {
            let (x, y) = if swap { (r, l) } else { (l, r) };
            let mut unswap = Unswap(emit);
            let emit: &mut dyn Emit<_> = if swap { &mut unswap } else { &mut *unswap.0 };
            let report = match ppat {
                Some(ppat) => {
                    let (x_ord, y_ord) = required_orders(kind);
                    let x = sort_wrapped(x, x_ord, stats);
                    let y = sort_wrapped(y, y_ord, stats);
                    let cfg = ppat.worker_config(cfg);
                    run_join_kind_each(kind, cfg, x, x_ord, y, y_ord, emit)?.1
                }
                // Before/After: no sort order bounds the Before-join's
                // state, so it runs over the inputs as they come.
                None => {
                    let mut op = cfg.before_join(from_vec(x), from_vec(y))?;
                    pull_each(&mut op, emit)?;
                    op.report()
                }
            };
            (1, report)
        }
    };
    #[cfg(any(debug_assertions, feature = "check"))]
    assert!(
        report.max_workspace() <= ws_cap,
        "{kind} ×{partitions} workspace {} exceeded the static cap {ws_cap}",
        report.max_workspace()
    );
    Ok((partitions, report))
}

/// Run the §4 stream semijoin for `pattern` (left rows kept) over wrapped
/// inputs, pushing the kept rows into `emit`: time-partitioned over `fan_out`
/// ranges when `fan_out > 1` and the pattern partitions, serially otherwise.
/// Returns the partition fan-out used and the operator's report.
fn stream_semijoin(
    pattern: TemporalPattern,
    fan_out: usize,
    cfg: OpConfig,
    l: Vec<PeriodRow>,
    r: Vec<PeriodRow>,
    stats: &mut ExecStats,
    emit: &mut dyn Emit<PeriodRow>,
) -> TdbResult<(usize, OpReport)> {
    let (kind, _) = pattern.semijoin_op();
    #[cfg(any(debug_assertions, feature = "check"))]
    let ws_cap = static_ws_cap(kind, &l, &r);
    let (partitions, report) = match parallel_pattern(pattern) {
        Some(ppat) if fan_out > 1 => {
            note_parallel_sorts(ppat, false, &l, &r, stats);
            (
                fan_out,
                parallel_semijoin_each(ppat, l, r, fan_out, cfg, emit)?.report,
            )
        }
        Some(ppat) => {
            let (l_ord, r_ord) = required_orders(kind);
            let l = sort_wrapped(l, l_ord, stats);
            let r = sort_wrapped(r, r_ord, stats);
            let cfg = ppat.worker_config(cfg);
            (
                1,
                run_semijoin_kind_each(kind, cfg, l, l_ord, r, r_ord, emit)?.1,
            )
        }
        None if pattern == TemporalPattern::Before => {
            let mut op = cfg.before_semijoin(from_vec(l), from_vec(r))?;
            pull_each(&mut op, emit)?;
            (1, op.report())
        }
        None => {
            // x after y ⇔ ∃y: y.TE < x.TS — keep x with x.TS > min(y.TE).
            let read_left = l.len();
            let read_right = r.len();
            let kept: Vec<PeriodRow> = match r.iter().map(|p| p.te()).min() {
                Some(m) => l.into_iter().filter(|x| m < x.ts()).collect(),
                None => Vec::new(),
            };
            let report = OpReport::new(
                OpMetrics {
                    read_left,
                    read_right,
                    comparisons: 0,
                    emitted: kept.len(),
                    passes: 1,
                },
                WorkspaceStats::of_resident(1),
            );
            pull_each(&mut from_vec(kept), emit)?;
            (1, report)
        }
    };
    #[cfg(any(debug_assertions, feature = "check"))]
    assert!(
        report.max_workspace() <= ws_cap,
        "{kind} ×{partitions} workspace {} exceeded the static cap {ws_cap}",
        report.max_workspace()
    );
    Ok((partitions, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CompOp;
    use tdb_core::{TemporalSchema, Value};
    use tdb_storage::IoStats;

    fn test_catalog(name: &str) -> Catalog {
        let dir =
            std::env::temp_dir().join(format!("tdb-algebra-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cat = Catalog::open(dir, IoStats::new()).unwrap();
        let schema = TemporalSchema::time_sequence("Name", "Rank");
        let rows: Vec<Row> = tdb_gen::FacultyGen::figure1_instance()
            .iter()
            .map(|t| t.to_row())
            .collect();
        cat.create_relation("Faculty", schema, &rows, vec![])
            .unwrap();
        cat
    }

    fn scan(var: &str) -> PhysicalPlan {
        PhysicalPlan::SeqScan {
            relation: "Faculty".into(),
            var: var.into(),
        }
    }

    #[test]
    fn seq_scan_and_filter() {
        let cat = test_catalog("scan");
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan("f")),
            atoms: vec![Atom::col_const("f", "Rank", CompOp::Eq, "Associate")],
        };
        let out = plan.execute(&cat, ExecOptions::default()).unwrap();
        assert_eq!(out.rows.len(), 3); // Smith, Jones, Brown associates
        assert_eq!(out.stats.rows_scanned, 8);
    }

    #[test]
    fn project_renames() {
        let cat = test_catalog("proj");
        let plan = PhysicalPlan::Project {
            input: Box::new(scan("f")),
            columns: vec![(ColumnRef::new("f", "Name"), "who".into())],
        };
        let out = plan.execute(&cat, ExecOptions::default()).unwrap();
        assert_eq!(out.rows[0].arity(), 1);
        assert_eq!(out.scope.columns()[0], ColumnRef::new("", "who"));
    }

    #[test]
    fn nested_loop_equijoin() {
        let cat = test_catalog("nl");
        let plan = PhysicalPlan::NestedLoop {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            atoms: vec![Atom::cols("f1", "Name", CompOp::Eq, "f2", "Name")],
        };
        let out = plan.execute(&cat, ExecOptions::default()).unwrap();
        // Smith 3², Jones 3², Brown 2² = 9 + 9 + 4.
        assert_eq!(out.rows.len(), 22);
        assert_eq!(out.stats.comparisons, 64);
    }

    #[test]
    fn merge_equi_matches_nested_loop() {
        let cat = test_catalog("merge");
        let nl = PhysicalPlan::NestedLoop {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            atoms: vec![Atom::cols("f1", "Name", CompOp::Eq, "f2", "Name")],
        };
        let me = PhysicalPlan::MergeEqui {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_key: ColumnRef::new("f1", "Name"),
            right_key: ColumnRef::new("f2", "Name"),
            residual: vec![],
        };
        let mut a = nl.execute(&cat, ExecOptions::default()).unwrap().rows;
        let mut b = me.execute(&cat, ExecOptions::default()).unwrap().rows;
        a.sort_by_key(|r| format!("{r}"));
        b.sort_by_key(|r| format!("{r}"));
        assert_eq!(a, b);
    }

    #[test]
    fn stream_temporal_contains_join() {
        let cat = test_catalog("stream");
        // Pairs (f1, f2) where f1's lifespan contains f2's.
        let stream = PhysicalPlan::StreamTemporal {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::Contains,
            residual: vec![],
        };
        let nl = PhysicalPlan::NestedLoop {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            atoms: vec![
                Atom::cols("f1", "ValidFrom", CompOp::Lt, "f2", "ValidFrom"),
                Atom::cols("f2", "ValidTo", CompOp::Lt, "f1", "ValidTo"),
            ],
        };
        let mut a = stream.execute(&cat, ExecOptions::default()).unwrap().rows;
        let mut b = nl.execute(&cat, ExecOptions::default()).unwrap().rows;
        a.sort_by_key(|r| format!("{r}"));
        b.sort_by_key(|r| format!("{r}"));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn parallel_stream_nodes_match_serial_results() {
        let cat = test_catalog("parallel");
        let join = PhysicalPlan::StreamTemporal {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::GeneralOverlap,
            residual: vec![],
        };
        let serial = join.execute(&cat, ExecOptions::default()).unwrap();
        for partitions in [1, 2, 4, 7] {
            let par = PhysicalPlan::Parallel {
                partitions,
                child: Box::new(join.clone()),
            };
            let out = par.execute(&cat, ExecOptions::default()).unwrap();
            let mut a = out.rows.clone();
            let mut b = serial.rows.clone();
            a.sort_by_key(|r| format!("{r}"));
            b.sort_by_key(|r| format!("{r}"));
            assert_eq!(a, b, "partitions={partitions}");
            // Per-partition workspaces never exceed the serial peak (each
            // worker sees a subset of the spanning tuples).
            assert!(out.stats.max_workspace <= serial.stats.max_workspace);
        }
        let semi = PhysicalPlan::StreamSemijoin {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::During,
        };
        let serial = semi.execute(&cat, ExecOptions::default()).unwrap();
        let par = PhysicalPlan::Parallel {
            partitions: 4,
            child: Box::new(semi),
        };
        let out = par.execute(&cat, ExecOptions::default()).unwrap();
        let mut a = out.rows;
        let mut b = serial.rows.clone();
        a.sort_by_key(|r| format!("{r}"));
        b.sort_by_key(|r| format!("{r}"));
        assert_eq!(a, b);
        // A non-partitionable child degrades gracefully to serial.
        let before = PhysicalPlan::StreamTemporal {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::Before,
            residual: vec![],
        };
        let serial = before.execute(&cat, ExecOptions::default()).unwrap();
        let par = PhysicalPlan::Parallel {
            partitions: 4,
            child: Box::new(before),
        };
        let out = par.execute(&cat, ExecOptions::default()).unwrap();
        assert_eq!(out.rows.len(), serial.rows.len());
    }

    #[test]
    fn self_semijoin_runs_single_scan() {
        let cat = test_catalog("selfsj");
        // Associates contained in other associates' periods.
        let assoc = PhysicalPlan::Filter {
            input: Box::new(scan("f")),
            atoms: vec![Atom::col_const("f", "Rank", CompOp::Eq, "Associate")],
        };
        let plan = PhysicalPlan::SelfSemijoin {
            input: Box::new(assoc),
            var: "f".into(),
            contained: true,
        };
        let out = plan.execute(&cat, ExecOptions::default()).unwrap();
        // Smith's associate [5,9) ⊂ Jones's [4,12): Smith kept.
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get(0), &Value::str("Smith"));
        assert!(out.stats.max_workspace <= 1);
        // Only one scan of the 8-row base relation.
        assert_eq!(out.stats.rows_scanned, 8);
    }

    #[test]
    fn stream_semijoin_during() {
        let cat = test_catalog("sj");
        let plan = PhysicalPlan::StreamSemijoin {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::During,
        };
        let nested = PhysicalPlan::NestedSemijoin {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            atoms: vec![
                Atom::cols("f2", "ValidFrom", CompOp::Lt, "f1", "ValidFrom"),
                Atom::cols("f1", "ValidTo", CompOp::Lt, "f2", "ValidTo"),
            ],
        };
        let mut a = plan.execute(&cat, ExecOptions::default()).unwrap().rows;
        let mut b = nested.execute(&cat, ExecOptions::default()).unwrap().rows;
        a.sort_by_key(|r| format!("{r}"));
        b.sort_by_key(|r| format!("{r}"));
        assert_eq!(a, b);
    }

    #[test]
    fn explain_renders_operators() {
        let plan = PhysicalPlan::StreamSemijoin {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::During,
        };
        let text = plan.explain();
        assert!(text.contains("StreamSemijoin During(f1, f2)"));
        assert!(text.contains("SeqScan Faculty as f1"));
    }

    #[test]
    fn sink_execution_matches_materialized_output_and_stats() {
        let cat = test_catalog("sink");
        let join = PhysicalPlan::StreamTemporal {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::GeneralOverlap,
            residual: vec![],
        };
        let project = PhysicalPlan::Project {
            input: Box::new(join.clone()),
            columns: vec![(ColumnRef::new("f1", "Name"), "who".into())],
        };
        for plan in [&join, &project] {
            let baseline = plan.execute(&cat, ExecOptions::default()).unwrap();
            let mut sink = tdb_stream::CollectSink::new();
            let out = plan
                .execute(&cat, ExecOptions::new().with_sink(&mut sink))
                .unwrap();
            assert!(out.rows.is_empty(), "sink runs return no rows inline");
            assert_eq!(sink.rows(), &baseline.rows[..]);
            assert_eq!(out.stats, baseline.stats);
            // Wall-clock per-operator timings are nondeterministic; the
            // equivalence claim is about counters and workspace.
            let epoch = Instant::now();
            let untimed = |trace: &[OpObservation]| -> Vec<OpObservation> {
                trace
                    .iter()
                    .cloned()
                    .map(|mut o| {
                        o.started = epoch;
                        o.elapsed_us = 0;
                        o
                    })
                    .collect()
            };
            assert_eq!(untimed(&out.trace), untimed(&baseline.trace));
            assert_eq!(sink.finish().rows as usize, baseline.rows.len());
        }
    }

    #[test]
    fn limit_sink_stops_stream_join_early() {
        let cat = test_catalog("limitsink");
        let join = PhysicalPlan::StreamTemporal {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::GeneralOverlap,
            residual: vec![],
        };
        let full = join.execute(&cat, ExecOptions::default()).unwrap();
        assert!(full.rows.len() > 2);
        // Tiny kernel batches so output chunks are small enough for the
        // limit to bite mid-run.
        let mut sink = tdb_stream::LimitSink::new(2);
        let out = join
            .execute(
                &cat,
                ExecOptions::new().with_batch_rows(2).with_sink(&mut sink),
            )
            .unwrap();
        assert_eq!(sink.rows().len(), 2);
        assert_eq!(&full.rows[..2], sink.rows());
        assert!(sink.full());
        assert!(
            out.stats.output_rows < full.rows.len(),
            "early termination stopped the producer ({} of {})",
            out.stats.output_rows,
            full.rows.len()
        );
    }

    #[test]
    fn count_sink_skips_widening_but_counts_exactly() {
        let cat = test_catalog("countsink");
        for plan in [
            PhysicalPlan::StreamTemporal {
                left: Box::new(scan("f1")),
                right: Box::new(scan("f2")),
                left_var: "f1".into(),
                right_var: "f2".into(),
                pattern: TemporalPattern::Contains,
                residual: vec![],
            },
            PhysicalPlan::Parallel {
                partitions: 4,
                child: Box::new(PhysicalPlan::StreamSemijoin {
                    left: Box::new(scan("f1")),
                    right: Box::new(scan("f2")),
                    left_var: "f1".into(),
                    right_var: "f2".into(),
                    pattern: TemporalPattern::During,
                }),
            },
        ] {
            let baseline = plan.execute(&cat, ExecOptions::default()).unwrap();
            let mut sink = tdb_stream::CountSink::new();
            let out = plan
                .execute(&cat, ExecOptions::new().with_sink(&mut sink))
                .unwrap();
            assert_eq!(sink.count() as usize, baseline.rows.len());
            assert_eq!(out.stats.output_rows, baseline.rows.len());
            assert_eq!(out.stats.max_workspace, baseline.stats.max_workspace);
        }
    }

    #[test]
    fn sorts_are_counted_only_when_needed() {
        let cat = test_catalog("sorts");
        let plan = PhysicalPlan::StreamTemporal {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::GeneralOverlap,
            residual: vec![],
        };
        let out = plan.execute(&cat, ExecOptions::default()).unwrap();
        // Figure-1 data arrives grouped by name, not by time: both sides
        // need sorting.
        assert_eq!(out.stats.sorts_performed, 2);
        let _ = out.stats.comparisons;
        let filter_time = PhysicalPlan::Filter {
            input: Box::new(scan("f")),
            atoms: vec![Atom::col_const("f", "Rank", CompOp::Eq, "NoSuchRank")],
        };
        let out = filter_time.execute(&cat, ExecOptions::default()).unwrap();
        assert_eq!(out.rows.len(), 0);
    }
}
