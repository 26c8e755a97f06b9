//! Columnar sweep kernels over whole, sorted [`RowBatch`] inputs.
//!
//! Each kernel here is the serving implementation of an operator kind
//! whose row-at-a-time operator is kept as its test oracle:
//!
//! | kernel | row operator | workspace |
//! |---|---|---|
//! | [`contain_join_ts_te`] | [`crate::ContainJoinTsTe`] | gapless X state |
//! | [`overlap_join`] | [`crate::OverlapJoin`] | gapless X+Y states |
//! | [`overlap_semijoin`] | [`crate::OverlapSemijoin`] | none / gapless |
//! | [`stab_semijoin`] | [`crate::ContainSemijoinStab`], [`crate::ContainedSemijoinStab`] | buffers only |
//!
//! A kernel is one loop: it consumes both inputs whole, sweeps them to the
//! end — or until its [`Emit`] consumer asks it to stop — and hands its
//! output over in chunks of at most [`OpConfig::batch_rows`] items. A
//! consumer that declines items ([`Emit::wants_items`]) gets one count at
//! the end, and the join probes then sum hits without touching a payload.
//!
//! Input cursors count a read the first time a row becomes their head,
//! and each kernel resolves heads exactly when its row twin refills its
//! one-tuple buffer. That is what keeps their [`OpReport`]s — reads,
//! comparisons, emits, and workspace statistics — **identical** to the
//! row operators'. The hot loops, however, run over the dense endpoint
//! columns of [`RowBatch`] and [`GaplessWorkspace`]: branch-light integer
//! comparisons the compiler can unroll and vectorize, with payloads
//! touched only on a match. `tests/batch_equivalence.rs` pins the
//! equivalence; E19 measures the speed difference.

use crate::batch::RowBatch;
use crate::gapless::GaplessWorkspace;
use crate::metrics::OpMetrics;
use crate::overlap_join::OverlapMode;
use crate::read_policy::{Advance, PolicyState, ReadPolicy};
use crate::report::{OpConfig, OpReport};
use crate::sink::{Chunker, Emit};
use crate::workspace::WorkspaceStats;
use tdb_core::{TdbResult, Temporal, TimePoint};

/// A read cursor that consumes one whole input.
///
/// Mirrors the row operators' one-tuple input buffer: `reads` counts a row
/// the first time it becomes the head, exactly when the pull operators
/// count their `refill`. Consumed payloads are moved out, so a row the
/// sweep keeps no copy of is freed as soon as the sweep passes it.
struct Cursor<T> {
    ts: Vec<i64>,
    te: Vec<i64>,
    rows: std::vec::IntoIter<T>,
    idx: usize,
    reads: usize,
}

impl<T> Cursor<T> {
    fn new(batch: RowBatch<T>) -> Cursor<T> {
        Cursor {
            ts: batch.ts,
            te: batch.te,
            rows: batch.payload.into_iter(),
            idx: 0,
            reads: 0,
        }
    }

    /// Resolve the head's `(ts, te)` ticks, counting it as read; `None`
    /// at the end of the input.
    #[inline]
    fn head(&mut self) -> Option<(i64, i64)> {
        let i = self.idx;
        if i >= self.ts.len() {
            return None;
        }
        self.reads = i + 1;
        Some((self.ts[i], self.te[i]))
    }

    /// The head payload (the head must be resolved).
    #[inline]
    fn payload(&self) -> &T {
        &self.rows.as_slice()[0]
    }

    /// Consume the head row (the head must be resolved), returning its
    /// payload.
    #[inline]
    fn take(&mut self) -> T {
        self.idx += 1;
        // Callers resolve the head before consuming it. lint:allow(no-unwrap)
        self.rows.next().expect("resolved head")
    }
}

fn report(
    read_left: usize,
    read_right: usize,
    comparisons: usize,
    emitted: usize,
    workspace: WorkspaceStats,
) -> OpReport {
    OpReport::new(
        OpMetrics {
            read_left,
            read_right,
            comparisons,
            emitted,
            passes: 1,
        },
        workspace,
    )
}

/// Probe `n` state rows with `hit`: a consumer that wants items gets the
/// matching indices in `hits`; a counting one only the tally (and `hits`
/// stays empty). Either way one branch-light pass over the columns.
#[inline]
fn probe<T>(out: &mut Chunker<'_, T>, n: usize, hit: impl Fn(usize) -> bool, hits: &mut Vec<u32>) {
    hits.clear();
    if out.wants_items() {
        for i in 0..n {
            if hit(i) {
                hits.push(i as u32);
            }
        }
    } else {
        out.count((0..n).map(|i| usize::from(hit(i))).sum());
    }
}

// ---------------------------------------------------------------------------
// Contain-join, (ValidFrom ↑, ValidTo ↑).
// ---------------------------------------------------------------------------

/// Contain-join over X sorted `ValidFrom ↑`, Y sorted `ValidTo ↑` (Table 1
/// state (b)) — the columnar twin of [`crate::ContainJoinTsTe`]. Y-driven:
/// per y row it GCs the gapless X state on the `x.TE ≥ y.TE` cutoff, admits
/// X rows up to `y.TS` through the same condition, then probes the state
/// with one branch-light pass over the endpoint columns. Returns `false`
/// if `emit` stopped the sweep, with the report of the work done so far.
pub fn contain_join_ts_te<X: Clone, Y: Clone>(
    x: RowBatch<X>,
    y: RowBatch<Y>,
    cfg: OpConfig,
    emit: &mut dyn Emit<(X, Y)>,
) -> TdbResult<(bool, OpReport)> {
    let (mut cx, mut cy) = (Cursor::new(x), Cursor::new(y));
    let mut out = Chunker::new(emit, cfg.batch_rows);
    let mut state = GaplessWorkspace::new();
    let mut hits = Vec::new();
    let mut comparisons = 0usize;
    // The row twin buffers its first X tuple before reading any Y.
    cx.head();
    let completed = 'sweep: {
        while let Some((yts, yte)) = cy.head() {
            let yrow = cy.take();
            // GC phase: x.TE < y.TE can contain no current or future y
            // (paper-corrected rule).
            state.gc_te_ge(yte);
            // Read/admit phase: pull X rows with x.TS < y.TS; the GC
            // condition doubles as the admission filter.
            while let Some((xts, xte)) = cx.head() {
                comparisons += 1;
                if xts >= yts {
                    break;
                }
                let xrow = cx.take();
                if xte >= yte {
                    state.insert_raw(xts, xte, xrow);
                }
            }
            // Join phase: one pass over the endpoint columns.
            let (ts, te) = (state.ts_col(), state.te_col());
            comparisons += ts.len();
            probe(
                &mut out,
                ts.len(),
                |i| (ts[i] < yts) & (yte < te[i]),
                &mut hits,
            );
            for &i in &hits {
                if !out.push((state.payload(i as usize).clone(), yrow.clone()))? {
                    break 'sweep false;
                }
            }
        }
        out.finish()?
    };
    let rep = report(cx.reads, cy.reads, comparisons, out.emitted, state.stats());
    Ok((completed, rep))
}

// ---------------------------------------------------------------------------
// Overlap join and semijoin.
// ---------------------------------------------------------------------------

/// The two-state sweep shared by [`overlap_join`] and [`overlap_semijoin`]
/// (Table 2): both inputs `ValidFrom ↑`, each side's live rows in a gapless
/// state, GC cutoffs as single passes over the endpoint columns.
struct OverlapSweep<X, Y> {
    cx: Cursor<X>,
    cy: Cursor<Y>,
    sx: GaplessWorkspace<X>,
    sy: GaplessWorkspace<Y>,
    mode: OverlapMode,
    policy: ReadPolicy,
    policy_state: PolicyState,
    gc_pending: bool,
}

impl<X: Temporal, Y: Temporal> OverlapSweep<X, Y> {
    fn new(x: RowBatch<X>, y: RowBatch<Y>, cfg: OpConfig) -> OverlapSweep<X, Y> {
        OverlapSweep {
            cx: Cursor::new(x),
            cy: Cursor::new(y),
            sx: GaplessWorkspace::new(),
            sy: GaplessWorkspace::new(),
            mode: cfg.mode,
            policy: cfg.policy,
            policy_state: PolicyState::default(),
            gc_pending: false,
        }
    }

    /// Resolve both heads, run the GC the previous step left pending, and
    /// pick the side to advance with its head's `(ts, te)`; `None` once no
    /// further match is possible. (The row twin GCs right after refilling;
    /// with the heads resolved to the same tuples, GC-ing here is
    /// observationally identical.)
    fn step(&mut self) -> Option<(Advance, i64, i64)> {
        let (hx, hy) = (self.cx.head(), self.cy.head());
        if self.gc_pending {
            match hy {
                Some((yts, _)) => self.sx.gc_te_gt(yts),
                None => self.sx.clear_discard(),
            }
            match (hx, self.mode) {
                (Some((xts, _)), OverlapMode::General) => self.sy.gc_te_gt(xts),
                (Some((xts, _)), OverlapMode::Strict) => self.sy.gc_ts_gt(xts),
                (None, _) => self.sy.clear_discard(),
            }
        }
        self.gc_pending = true;
        match (hx, hy) {
            (Some((xts, xte)), Some((yts, yte))) => Some(
                match self.policy.decide(
                    &mut self.policy_state,
                    self.cx.payload(),
                    self.cy.payload(),
                    TimePoint::new(xts),
                    TimePoint::new(yts),
                    self.sx.len(),
                    self.sy.len(),
                ) {
                    Advance::Left => (Advance::Left, xts, xte),
                    Advance::Right => (Advance::Right, yts, yte),
                },
            ),
            (Some((xts, xte)), None) if !self.sy.is_empty() => Some((Advance::Left, xts, xte)),
            (None, Some((yts, yte))) if !self.sx.is_empty() => Some((Advance::Right, yts, yte)),
            _ => None,
        }
    }

    fn report(&self, comparisons: usize, emitted: usize) -> OpReport {
        report(
            self.cx.reads,
            self.cy.reads,
            comparisons,
            emitted,
            self.sx.stats().combine_stacked(self.sy.stats()),
        )
    }
}

/// Overlap join over two `ValidFrom ↑` inputs (Table 2 state (a)) — the
/// columnar twin of [`crate::OverlapJoin`], in `cfg.mode` under
/// `cfg.policy`. Both state sets live in gapless columns; probes and GC
/// cutoffs are single passes over them.
pub fn overlap_join<X: Temporal + Clone, Y: Temporal + Clone>(
    x: RowBatch<X>,
    y: RowBatch<Y>,
    cfg: OpConfig,
    emit: &mut dyn Emit<(X, Y)>,
) -> TdbResult<(bool, OpReport)> {
    let mut s = OverlapSweep::new(x, y, cfg);
    let mut out = Chunker::new(emit, cfg.batch_rows);
    let mut hits = Vec::new();
    let mut comparisons = 0usize;
    let completed = 'sweep: {
        while let Some((side, hts, hte)) = s.step() {
            match side {
                Advance::Left => {
                    let (xts, xte, xrow) = (hts, hte, s.cx.take());
                    let (ts, te) = (s.sy.ts_col(), s.sy.te_col());
                    comparisons += ts.len();
                    match s.mode {
                        OverlapMode::General => probe(
                            &mut out,
                            ts.len(),
                            |i| (xts < te[i]) & (ts[i] < xte),
                            &mut hits,
                        ),
                        OverlapMode::Strict => probe(
                            &mut out,
                            ts.len(),
                            |i| (xts < ts[i]) & (xte > ts[i]) & (xte < te[i]),
                            &mut hits,
                        ),
                    }
                    for &i in &hits {
                        if !out.push((xrow.clone(), s.sy.payload(i as usize).clone()))? {
                            break 'sweep false;
                        }
                    }
                    s.sx.insert_raw(xts, xte, xrow);
                }
                Advance::Right => {
                    let (yts, yte, yrow) = (hts, hte, s.cy.take());
                    let (ts, te) = (s.sx.ts_col(), s.sx.te_col());
                    comparisons += ts.len();
                    match s.mode {
                        OverlapMode::General => probe(
                            &mut out,
                            ts.len(),
                            |i| (ts[i] < yte) & (yts < te[i]),
                            &mut hits,
                        ),
                        OverlapMode::Strict => probe(
                            &mut out,
                            ts.len(),
                            |i| (ts[i] < yts) & (te[i] > yts) & (te[i] < yte),
                            &mut hits,
                        ),
                    }
                    for &i in &hits {
                        if !out.push((s.sx.payload(i as usize).clone(), yrow.clone()))? {
                            break 'sweep false;
                        }
                    }
                    s.sy.insert_raw(yts, yte, yrow);
                }
            }
        }
        out.finish()?
    };
    Ok((completed, s.report(comparisons, out.emitted)))
}

/// Overlap **semijoin** (X rows kept) over two `ValidFrom ↑` inputs — the
/// columnar twin of [`crate::OverlapSemijoin`]. General mode is the
/// two-buffer merge of Table 2 state (b) (zero workspace); strict Allen
/// mode sweeps with gapless state and emit-once extraction.
pub fn overlap_semijoin<X: Temporal, Y: Temporal>(
    x: RowBatch<X>,
    y: RowBatch<Y>,
    cfg: OpConfig,
    emit: &mut dyn Emit<X>,
) -> TdbResult<(bool, OpReport)> {
    let mut s = OverlapSweep::new(x, y, cfg);
    let mut out = Chunker::new(emit, cfg.batch_rows);
    let mut comparisons = 0usize;
    let completed = 'sweep: {
        match cfg.mode {
            OverlapMode::General => {
                while let (Some((xts, xte)), Some((yts, yte))) = (s.cx.head(), s.cy.head()) {
                    comparisons += 1;
                    if (xts < yte) & (yts < xte) {
                        if !out.push(s.cx.take())? {
                            break 'sweep false;
                        }
                    } else if xte <= yts {
                        // x ends before y starts; future y start even later.
                        s.cx.take();
                    } else {
                        // y cannot witness this or any future x.
                        s.cy.take();
                    }
                }
            }
            OverlapMode::Strict => {
                while let Some((side, hts, hte)) = s.step() {
                    match side {
                        Advance::Left => {
                            let (xts, xte, xrow) = (hts, hte, s.cx.take());
                            let (ts, te) = (s.sy.ts_col(), s.sy.te_col());
                            comparisons += ts.len();
                            let witnessed = (0..ts.len())
                                .any(|i| (xts < ts[i]) & (xte > ts[i]) & (xte < te[i]));
                            if !witnessed {
                                s.sx.insert_raw(xts, xte, xrow);
                            } else if !out.push(xrow)? {
                                break 'sweep false;
                            }
                        }
                        Advance::Right => {
                            let (yts, yte, yrow) = (hts, hte, s.cy.take());
                            comparisons += s.sx.len();
                            for x in s.sx.extract(|ts, te| (ts < yts) & (te > yts) & (te < yte)) {
                                if !out.push(x)? {
                                    break 'sweep false;
                                }
                            }
                            s.sy.insert_raw(yts, yte, yrow);
                        }
                    }
                }
            }
        }
        out.finish()?
    };
    Ok((completed, s.report(comparisons, out.emitted)))
}

// ---------------------------------------------------------------------------
// Stab semijoins.
// ---------------------------------------------------------------------------

/// Which side of the containment the kept input X of [`stab_semijoin`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StabSide {
    /// X are the containers: `Contain-semijoin(X, Y)`.
    Container,
    /// X are the containees: `Contained-semijoin(X, Y)`.
    Containee,
}

/// The two-buffer stab scan of §4.2.2 / Figure 6, keeping the X rows:
/// containers sorted `ValidFrom ↑`, containees sorted `ValidTo ↑`, zero
/// workspace beyond the two cursor heads. `kept` says which side X is —
/// the columnar twin of [`crate::ContainSemijoinStab`] (X containers) or
/// [`crate::ContainedSemijoinStab`] (X containees). Like the row twins,
/// the report's `read_left` counts the container side.
pub fn stab_semijoin<X, Y>(
    x: RowBatch<X>,
    y: RowBatch<Y>,
    kept: StabSide,
    cfg: OpConfig,
    emit: &mut dyn Emit<X>,
) -> TdbResult<(bool, OpReport)> {
    let (mut cx, mut cy) = (Cursor::new(x), Cursor::new(y));
    let mut out = Chunker::new(emit, cfg.batch_rows);
    let mut comparisons = 0usize;
    let x_contains = kept == StabSide::Container;
    let completed = 'sweep: {
        while let (Some(hx), Some(hy)) = (cx.head(), cy.head()) {
            let ((cts, cte), (ets, ete)) = if x_contains { (hx, hy) } else { (hy, hx) };
            comparisons += 1;
            if ets <= cts {
                // Dead containee: no current or future container starts
                // before it.
                if x_contains {
                    cy.take();
                } else {
                    cx.take();
                }
            } else if ete < cte {
                // Match: c.TS < e.TS ∧ e.TE < c.TE — emit the kept side once.
                if !out.push(cx.take())? {
                    break 'sweep false;
                }
            } else if x_contains {
                // This container can contain no current or future containee.
                cx.take();
            } else {
                cy.take();
            }
        }
        out.finish()?
    };
    let (containers, containees) = if x_contains {
        (cx.reads, cy.reads)
    } else {
        (cy.reads, cx.reads)
    };
    // Table 1 state (d): the workspace is the two cursor heads.
    let rep = report(
        containers,
        containees,
        comparisons,
        out.emitted,
        WorkspaceStats::default(),
    );
    Ok((completed, rep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::pull_each;
    use crate::report::Instrumented;
    use crate::stream::{from_sorted_vec, TupleStream, VecStream};
    use crate::DEFAULT_BATCH_ROWS;
    use tdb_core::{StreamOrder, TsTuple};

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    fn sorted(mut v: Vec<TsTuple>, o: StreamOrder) -> Vec<TsTuple> {
        o.sort(&mut v);
        v
    }

    /// A kernel input over sorted `v`.
    fn batch(v: &[TsTuple], o: StreamOrder) -> RowBatch<TsTuple> {
        RowBatch::from_sorted(v.to_vec(), o).unwrap()
    }

    /// A row-operator input over sorted `v`.
    fn rows(v: &[TsTuple], o: StreamOrder) -> VecStream<TsTuple> {
        from_sorted_vec(v.to_vec(), o).unwrap()
    }

    /// Drain a row operator — the kernels' oracle — to completion.
    fn drain<S: TupleStream + Instrumented>(mut op: S) -> (Vec<S::Item>, OpReport) {
        let mut out = Vec::new();
        assert!(pull_each(&mut op, DEFAULT_BATCH_ROWS, &mut out).unwrap());
        (out, op.report())
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

    /// The Contain-join kernel matches the row operator exactly — output
    /// sequence and full report — for every chunk size.
    #[test]
    fn contain_ts_te_equals_row_operator() {
        let (xs, ys) = workload(120);
        let (ts, te) = (StreamOrder::TS_ASC, StreamOrder::TE_ASC);
        let (x, y) = (sorted(xs, ts), sorted(ys, te));
        let row = drain(
            OpConfig::new()
                .contain_join_ts_te(rows(&x, ts), rows(&y, te))
                .unwrap(),
        );
        for n in [1usize, 7, 64, 1024] {
            let mut got = Vec::new();
            let cfg = OpConfig::new().with_batch_rows(n);
            let (done, rep) =
                contain_join_ts_te(batch(&x, ts), batch(&y, te), cfg, &mut got).unwrap();
            assert!(done);
            assert_eq!((got, rep), row, "batch size {n}");
        }
    }

    /// The Overlap join kernel matches the row operator for both modes and
    /// several policies.
    #[test]
    fn overlap_join_equals_row_operator() {
        let (xs, ys) = workload(100);
        let ts = StreamOrder::TS_ASC;
        let (x, y) = (sorted(xs, ts), sorted(ys, ts));
        for mode in [OverlapMode::General, OverlapMode::Strict] {
            for policy in [ReadPolicy::MinKey, ReadPolicy::Alternate] {
                let cfg = OpConfig::new().with_mode(mode).with_policy(policy);
                let row = drain(cfg.overlap_join(rows(&x, ts), rows(&y, ts)).unwrap());
                for n in [1usize, 13, 256] {
                    let mut got = Vec::new();
                    let cfg = cfg.with_batch_rows(n);
                    let (_, rep) =
                        overlap_join(batch(&x, ts), batch(&y, ts), cfg, &mut got).unwrap();
                    assert_eq!((got, rep), row, "mode {mode:?} policy {policy:?} rows {n}");
                }
            }
        }
    }

    #[test]
    fn overlap_semijoin_equals_row_operator() {
        let (xs, ys) = workload(90);
        let ts = StreamOrder::TS_ASC;
        let (x, y) = (sorted(xs, ts), sorted(ys, ts));
        for mode in [OverlapMode::General, OverlapMode::Strict] {
            let cfg = OpConfig::new().with_mode(mode);
            let row = drain(cfg.overlap_semijoin(rows(&x, ts), rows(&y, ts)).unwrap());
            for n in [1usize, 32, 512] {
                let mut got = Vec::new();
                let cfg = cfg.with_batch_rows(n);
                let (_, rep) =
                    overlap_semijoin(batch(&x, ts), batch(&y, ts), cfg, &mut got).unwrap();
                assert_eq!((got, rep), row, "mode {mode:?} rows {n}");
            }
        }
    }

    #[test]
    fn stab_semijoins_equal_row_operators() {
        let (xs, ys) = workload(110);
        let (ts, te) = (StreamOrder::TS_ASC, StreamOrder::TE_ASC);
        // Contain: X containers TS↑, Y containees TE↑.
        let (cx, ey) = (sorted(xs.clone(), ts), sorted(ys.clone(), te));
        let row = drain(
            OpConfig::new()
                .contain_semijoin_stab(rows(&cx, ts), rows(&ey, te))
                .unwrap(),
        );
        for n in [1usize, 16, 128] {
            let mut got = Vec::new();
            let cfg = OpConfig::new().with_batch_rows(n);
            let (_, rep) = stab_semijoin(
                batch(&cx, ts),
                batch(&ey, te),
                StabSide::Container,
                cfg,
                &mut got,
            )
            .unwrap();
            assert_eq!((got, rep), row, "rows {n}");
        }
        // Contained: X containees TE↑, Y containers TS↑.
        let (ex, cy) = (sorted(xs, te), sorted(ys, ts));
        let row = drain(
            OpConfig::new()
                .contained_semijoin_stab(rows(&ex, te), rows(&cy, ts))
                .unwrap(),
        );
        for n in [1usize, 16, 128] {
            let mut got = Vec::new();
            let cfg = OpConfig::new().with_batch_rows(n);
            let (_, rep) = stab_semijoin(
                batch(&ex, te),
                batch(&cy, ts),
                StabSide::Containee,
                cfg,
                &mut got,
            )
            .unwrap();
            assert_eq!((got, rep), row, "rows {n}");
        }
    }

    /// Edge cases: empty inputs on either side.
    #[test]
    fn empty_inputs_match_row_reports() {
        let (ts, te) = (StreamOrder::TS_ASC, StreamOrder::TE_ASC);
        let x = vec![iv(0, 5), iv(1, 9)];
        // Empty Y: the row twin still buffers (reads) the first X tuple.
        let row = drain(
            OpConfig::new()
                .contain_join_ts_te(rows(&x, ts), rows(&[], te))
                .unwrap(),
        );
        assert!(row.0.is_empty());
        let mut got = Vec::new();
        let (_, rep) =
            contain_join_ts_te(batch(&x, ts), batch(&[], te), OpConfig::new(), &mut got).unwrap();
        assert!(got.is_empty());
        assert_eq!(rep, row.1);
        assert_eq!(rep.metrics.read_left, 1);
    }

    /// Every chunk holds at most `batch_rows` items (`0` counts as 1), and
    /// a consumer that declines its first chunk has received at most that
    /// many.
    #[test]
    fn chunks_hold_at_most_batch_rows() {
        let (xs, ys) = workload(120);
        let (ts, te) = (StreamOrder::TS_ASC, StreamOrder::TE_ASC);
        let (x, y) = (sorted(xs, ts), sorted(ys, te));
        let mut all = Vec::new();
        contain_join_ts_te(batch(&x, ts), batch(&y, te), OpConfig::new(), &mut all).unwrap();
        for n in [0usize, 1, 7, 64] {
            let cfg = OpConfig::new().with_batch_rows(n);
            let mut lens = Vec::new();
            let mut record = |chunk: Vec<(TsTuple, TsTuple)>| {
                lens.push(chunk.len());
                Ok(true)
            };
            contain_join_ts_te(batch(&x, ts), batch(&y, te), cfg, &mut record).unwrap();
            assert!(
                lens.iter().all(|&l| 1 <= l && l <= n.max(1)),
                "rows {n}: {lens:?}"
            );
            assert_eq!(lens.iter().sum::<usize>(), all.len());
            let mut seen = 0;
            let mut decline = |chunk: Vec<(TsTuple, TsTuple)>| {
                seen += chunk.len();
                Ok(false)
            };
            let (done, _) =
                contain_join_ts_te(batch(&x, ts), batch(&y, te), cfg, &mut decline).unwrap();
            assert!(!done);
            assert!(seen <= n.max(1), "rows {n}: {seen} items before the stop");
        }
    }
}
