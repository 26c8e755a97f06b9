//! Randomized planner equivalence: for arbitrary generated two- and
//! three-variable temporal queries, all planner configurations (stream
//! operators serial and time-partitioned, conventional merge+NL, pure
//! nested loop) must produce identical result sets — the optimizer may
//! never change answers, only cost. The three-variable queries chain a
//! second temporal predicate onto `b`, so a stream join also runs as the
//! input of another join, not only at the plan root.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tdb::prelude::*;

const ATTRS: [&str; 4] = ["Name", "Rank", "ValidFrom", "ValidTo"];

fn shared_catalog() -> &'static Catalog {
    use std::sync::OnceLock;
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let faculty = FacultyGen {
            n_faculty: 60,
            seed: 99,
            continuous_employment: false, // gaps make operators work harder
            ..FacultyGen::default()
        }
        .generate();
        let dir = std::env::temp_dir().join(format!("tdb-planner-eq-{}", std::process::id()));
        tdb::faculty_catalog(dir, &faculty).unwrap()
    })
}

/// Atoms for each Allen operator between `x` and `y`, as the Quel front
/// end desugars them.
fn temporal_atoms(x: &str, which: u8, y: &str) -> Vec<Atom> {
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
    desugar_temporal(x, op, y)
}

fn rank_value(which: u8) -> &'static str {
    match which % 3 {
        0 => "Assistant",
        1 => "Associate",
        _ => "Full",
    }
}

/// A query over `a` and `b`; with `third`, also over `c`, related to `b`
/// by a second temporal operator and restricted to one rank.
fn build_query(
    temporal: u8,
    rank_a: Option<u8>,
    rank_b: Option<u8>,
    name_eq: bool,
    third: Option<(u8, u8)>,
) -> LogicalPlan {
    let mut atoms = temporal_atoms("a", temporal, "b");
    if let Some(r) = rank_a {
        atoms.push(Atom::col_const("a", "Rank", CompOp::Eq, rank_value(r)));
    }
    if let Some(r) = rank_b {
        atoms.push(Atom::col_const("b", "Rank", CompOp::Eq, rank_value(r)));
    }
    if name_eq {
        atoms.push(Atom::cols("a", "Name", CompOp::Eq, "b", "Name"));
    }
    let mut columns = vec![
        (ColumnRef::new("a", "Name"), "A".into()),
        (ColumnRef::new("a", "ValidFrom"), "AF".into()),
        (ColumnRef::new("b", "Name"), "B".into()),
        (ColumnRef::new("b", "ValidFrom"), "BF".into()),
    ];
    let mut product = LogicalPlan::scan("Faculty", "a", &ATTRS)
        .product(LogicalPlan::scan("Faculty", "b", &ATTRS));
    if let Some((temporal_c, rank_c)) = third {
        atoms.extend(temporal_atoms("b", temporal_c, "c"));
        atoms.push(Atom::col_const("c", "Rank", CompOp::Eq, rank_value(rank_c)));
        product = product.product(LogicalPlan::scan("Faculty", "c", &ATTRS));
        columns.push((ColumnRef::new("c", "Name"), "C".into()));
        columns.push((ColumnRef::new("c", "ValidFrom"), "CF".into()));
    }
    product.select(atoms).project(columns)
}

fn run(logical: &LogicalPlan, config: PlannerConfig) -> BTreeSet<String> {
    let optimized = conventional_optimize(logical.clone());
    let physical = plan(&optimized, config).unwrap();
    physical
        .execute(shared_catalog(), ExecOptions::default())
        .unwrap()
        .rows
        .iter()
        .map(|r| r.to_string())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn all_configs_agree_on_random_queries(
        temporal in 0u8..10,
        rank_a in proptest::option::of(0u8..3),
        rank_b in proptest::option::of(0u8..3),
        name_eq in any::<bool>(),
        third in proptest::option::of((0u8..10, 0u8..3)),
    ) {
        let q = build_query(temporal, rank_a, rank_b, name_eq, third);
        let stream = run(&q, PlannerConfig::stream());
        let partitioned = run(&q, PlannerConfig::stream().with_parallelism(4));
        let conventional = run(&q, PlannerConfig::conventional());
        let naive = run(&q, PlannerConfig::naive());
        prop_assert_eq!(&stream, &partitioned, "stream K=1 vs K=4");
        prop_assert_eq!(&stream, &conventional, "stream vs conventional");
        prop_assert_eq!(&stream, &naive, "stream vs naive");
    }
}

#[test]
fn every_allen_operator_produces_rows_on_this_population() {
    // Sanity: the equivalence test is not vacuous — each operator finds
    // matches on the shared population (or is knowably empty).
    let mut nonempty = 0;
    for t in 0..10u8 {
        let q = build_query(t, None, None, false, None);
        if !run(&q, PlannerConfig::stream()).is_empty() {
            nonempty += 1;
        }
    }
    assert!(nonempty >= 8, "only {nonempty}/10 operators matched");
}

#[test]
fn three_variable_queries_put_a_stream_join_under_another_join() {
    // The three-variable generator is only an independent check of a
    // stream join's output as a non-root input if the stream planner
    // actually nests one there.
    let q = build_query(0, None, None, false, Some((3, 2)));
    let optimized = conventional_optimize(q.clone());
    let physical = plan(&optimized, PlannerConfig::stream()).unwrap();
    let text = physical.explain();
    let first = text.find("StreamTemporalJoin").expect("a stream join");
    assert!(
        text[first + 1..].contains("StreamTemporalJoin"),
        "expected nested stream joins:\n{text}"
    );
    assert!(!run(&q, PlannerConfig::stream()).is_empty());
}
