//! Property tests for `OpReport` aggregation under partitioned-parallel
//! runs — the invariant the per-operator observability metrics rely on:
//! the merged report's throughput totals equal the **sum** over the
//! partitions' reports, and its workspace peak equals the **max** (each
//! worker owns its state).

use proptest::prelude::*;
use tdb_core::{StreamOrder, TsTuple};
use tdb_stream::{
    parallel_join_each, parallel_semijoin_each, OpConfig, OpMetrics, OpReport, ParallelPattern,
    ParallelPush, WorkspaceStats,
};

fn workload(spec: &[(i64, i64)]) -> Vec<TsTuple> {
    spec.iter()
        .map(|(s, d)| TsTuple::interval(*s, *s + *d).expect("generated interval is valid"))
        .collect()
}

type Pairs = Vec<(TsTuple, TsTuple)>;

/// A parallel Contains join run to completion, with its delivered pairs.
fn join_run(xs: Vec<TsTuple>, ys: Vec<TsTuple>, k: usize) -> (Pairs, ParallelPush) {
    let mut pairs = Vec::new();
    let run = parallel_join_each(
        ParallelPattern::Contains,
        xs,
        ys,
        k,
        OpConfig::new(),
        &mut pairs,
    )
    .expect("parallel join runs");
    (pairs, run)
}

fn synthetic_report(seed: ((u8, u8), (u8, u8, u8))) -> OpReport {
    let ((rl, rr), (c, e, w)) = seed;
    OpReport::new(
        OpMetrics {
            read_left: usize::from(rl),
            read_right: usize::from(rr),
            comparisons: usize::from(c),
            emitted: usize::from(e),
            passes: 1,
        },
        WorkspaceStats::of_resident(usize::from(w)),
    )
}

/// `report` must relate to `per_partition` as sum-of-counters /
/// max-of-peaks. `emitted` is checked by the callers: the drivers rewrite
/// it to the deduplicated output they delivered.
fn assert_merged(report: &OpReport, parts: &[OpReport]) {
    let m = &report.metrics;
    let sum = |f: fn(&OpReport) -> usize| parts.iter().map(f).sum::<usize>();
    assert_eq!(m.read_left, sum(|p| p.metrics.read_left));
    assert_eq!(m.read_right, sum(|p| p.metrics.read_right));
    assert_eq!(m.comparisons, sum(|p| p.metrics.comparisons));
    assert_eq!(
        report.max_workspace(),
        parts.iter().map(OpReport::max_workspace).max().unwrap_or(0)
    );
    assert_eq!(
        report.workspace.occupancy_histogram().iter().sum::<u64>(),
        parts
            .iter()
            .flat_map(|p| p.workspace.occupancy_histogram())
            .sum::<u64>()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn combine_parallel_fold_sums_totals_and_maxes_peak(
        seeds in proptest::collection::vec(
            ((0u8..=255, 0u8..=255), (0u8..=255, 0u8..=255, 0u8..=255)), 1..8),
    ) {
        let parts: Vec<OpReport> = seeds.into_iter().map(synthetic_report).collect();
        let merged = parts
            .iter()
            .fold(OpReport::default(), |acc, r| acc.combine_parallel(*r));
        assert_merged(&merged, &parts);
        let emitted: usize = parts.iter().map(|p| p.metrics.emitted).sum();
        assert_eq!(merged.metrics.emitted, emitted);
    }

    #[test]
    fn parallel_driver_report_aggregates_its_partitions(
        xs in proptest::collection::vec((0i64..200, 1i64..40), 0..60),
        ys in proptest::collection::vec((0i64..200, 1i64..40), 0..60),
        k in 1usize..6,
        join in proptest::bool::ANY,
    ) {
        let (xs, ys) = (workload(&xs), workload(&ys));
        let workers_emitted =
            |run: &ParallelPush| run.per_partition.iter().map(|p| p.metrics.emitted).sum::<usize>();
        if join {
            let (pairs, run) = join_run(xs, ys, k);
            assert_merged(&run.report, &run.per_partition);
            // Workers emit fringe pairs in every partition that sees both
            // tuples; owner dedup keeps one copy, and the merged report
            // counts the pairs delivered.
            assert_eq!(run.report.metrics.emitted, pairs.len());
            assert!(run.report.metrics.emitted <= workers_emitted(&run));
        } else {
            let mut kept = Vec::new();
            let run = parallel_semijoin_each(
                ParallelPattern::Contains,
                xs,
                ys,
                k,
                OpConfig::new(),
                &mut kept,
            )
            .expect("parallel semijoin runs");
            assert_merged(&run.report, &run.per_partition);
            // Fringe tuples may be kept by several workers; the merged
            // report counts the post-dedup output.
            assert_eq!(run.report.metrics.emitted, kept.len());
            assert!(run.report.metrics.emitted <= workers_emitted(&run));
        }
    }
}

/// The executor's `PhysicalPlan::Parallel` arm consumes exactly
/// `ParallelPush::report`; pin the sorted-entry case too (no fringe, one
/// partition) so the serial and parallel reports coincide.
#[test]
fn single_partition_report_equals_its_only_worker() {
    let xs = workload(&[(0, 30), (5, 3), (12, 4)]);
    let ys = workload(&[(6, 1), (13, 2)]);
    let (pairs, run) = join_run(xs, ys, 1);
    assert_eq!(run.per_partition.len(), 1);
    assert_merged(&run.report, &run.per_partition);
    assert_eq!(run.report.metrics.emitted, pairs.len());
    let _ = StreamOrder::TS_ASC; // order type participates via worker_orders
}

/// K > 1 with fringe duplicates: a container spanning every partition
/// boundary contains several containees whose own lifespans cross
/// boundaries, so several workers emit the same pair. The merged report
/// must count each delivered pair once — not the workers' sum.
#[test]
fn fringe_duplicates_are_counted_once() {
    let xs = workload(&[(0, 100)]);
    let ys = workload(&[(20, 15), (45, 20), (70, 10)]);
    for k in [2usize, 4] {
        let (pairs, run) = join_run(xs.clone(), ys.clone(), k);
        assert_eq!(pairs.len(), 3, "k={k}");
        assert_eq!(run.report.metrics.emitted, pairs.len(), "k={k}");
        let workers: usize = run.per_partition.iter().map(|p| p.metrics.emitted).sum();
        assert!(
            workers > pairs.len(),
            "k={k}: the instance must put fringe duplicates in front of the dedup ({workers})"
        );
    }
}
