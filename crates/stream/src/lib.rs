//! # tdb-stream — stream-processing temporal operators
//!
//! This crate implements Section 4 of Leung & Muntz: temporal joins and
//! semijoins as *stream processors* — single-pass operators over properly
//! sorted inputs that keep a small, garbage-collected local workspace.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | §4.1 stream paradigm, Figure 4 sum processor | [`stream`], [`aggregate`] |
//! | §4.2.1 Contain-join, Figure 5, Table 1 (a)/(b) | [`contain_join`] |
//! | §4.2.2 Contain-/Contained-semijoin, Figure 6, Table 1 (c)/(d) | [`stab_semijoin`], [`sweep_semijoin`] |
//! | §4.2.3 self semijoins, Figure 7, Table 3 | [`self_semijoin`] |
//! | §4.2.4 Overlap operators, Table 2 | [`overlap_join`] |
//! | §4.2.4 Before operators | [`before`] |
//! | footnote 8: equality-temporal operators via merge join | [`event_join`], [`merge_join`] |
//! | conventional baseline (§3) | [`nested_loop`], [`buffered_join`] |
//! | unified construction & instrumentation surface | [`report`] |
//! | time-partitioned parallel execution, fringe replication | [`partition`] |
//!
//! Every operator is generic over items implementing
//! [`tdb_core::Temporal`] + [`Clone`], carries an instrumented
//! [`workspace::Workspace`] whose high-water mark validates the paper's
//! Tables 1–3, and reports a unified [`report::OpReport`] (throughput
//! counters plus workspace statistics) through the [`report::Instrumented`]
//! trait. Operators are constructed through the [`report::OpConfig`]
//! builder, and [`partition`] runs any intersection-witnessed operator
//! across `K` disjoint time ranges in parallel.

pub mod aggregate;
pub mod batch;
pub mod batch_ops;
pub mod before;
pub mod buffered_join;
pub mod coalesce;
pub mod contain_join;
pub mod dispatch;
pub mod event_join;
pub mod gapless;
pub mod merge_join;
pub mod metrics;
pub mod nested_loop;
pub mod overlap_join;
pub mod partition;
pub mod progress;
pub mod read_policy;
pub mod report;
pub mod required;
pub mod self_semijoin;
pub mod sink;
pub mod stab_semijoin;
pub mod stream;
pub mod sweep_semijoin;
pub mod timeslice;
pub mod watermark;
pub mod workspace;

pub use aggregate::{GroupedSum, HashSum};
pub use batch::{RowBatch, DEFAULT_BATCH_ROWS, MAX_BATCH_ROWS};
pub use before::{BeforeJoin, BeforeSemijoin};
pub use buffered_join::BufferedJoin;
pub use coalesce::{coalesce_relation, Coalesce};
pub use contain_join::{ContainJoinTsTe, ContainJoinTsTs};
pub use dispatch::{pull_each, run_join_kind_each, run_semijoin_kind_each};
pub use event_join::EventMergeJoin;
pub use gapless::GaplessWorkspace;
pub use merge_join::MergeEquiJoin;
pub use metrics::OpMetrics;
pub use nested_loop::NestedLoopJoin;
pub use overlap_join::{OverlapJoin, OverlapMode, OverlapSemijoin};
pub use partition::{
    merge_tagged_each, parallel_join_each, parallel_semijoin_each, partition_with_fringe,
    ParallelPattern, ParallelPush, PartitionSpec, Tagged,
};
pub use progress::{Progress, ProgressSnapshot};
pub use read_policy::ReadPolicy;
pub use report::{timeslice, Instrumented, OpConfig, OpReport};
pub use required::{check_stream_order, OrderRequirement, RequiredOrder, StreamOpKind};
pub use self_semijoin::{ContainSelfSemijoin, ContainSelfSemijoinDesc, ContainedSelfSemijoin};
pub use sink::{row_bytes, CollectSink, CountSink, Counter, Emit, LimitSink, RowSink, SinkStats};
pub use stab_semijoin::{ContainSemijoinStab, ContainedSemijoinStab};
pub use stream::{from_sorted_vec, from_vec, OrderChecked, TupleStream, VecStream};
pub use sweep_semijoin::SweepSemijoin;
pub use timeslice::{concurrency_profile, ProfileStep, Timeslice};
pub use watermark::Watermark;
pub use workspace::{Workspace, WorkspaceStats, OCCUPANCY_BOUNDS, OCCUPANCY_CELLS};
