//! Batched push-mode sweep kernels over columnar [`RowBatch`]es.
//!
//! Each kernel here is the serving implementation of an operator kind
//! whose row-at-a-time operator is kept as its test oracle:
//!
//! | kernel | row operator | workspace |
//! |---|---|---|
//! | [`BatchContainJoinTsTe`] | [`crate::ContainJoinTsTe`] | gapless X state |
//! | [`BatchOverlapJoin`] | [`crate::OverlapJoin`] | gapless X+Y states |
//! | [`BatchOverlapSemijoin`] | [`crate::OverlapSemijoin`] | none / gapless |
//! | [`BatchContainSemijoinStab`] | [`crate::ContainSemijoinStab`] | buffers only |
//! | [`BatchContainedSemijoinStab`] | [`crate::ContainedSemijoinStab`] | buffers only |
//!
//! The kernels are **push**-driven: the caller feeds batches via
//! [`BatchOp::process_batch_left`] / `_right` when [`BatchOp::wants`] asks
//! for that side, and collects output with [`BatchOp::drain`];
//! [`drive_each`] runs that loop over two [`BatchStream`]s. The demand
//! signal makes the kernels consume input exactly as lazily as the pull
//! operators do, which
//! is what keeps their [`OpReport`]s — reads, comparisons, emits, and
//! workspace statistics — **identical** to the row operators' for every
//! batch size. The hot loops, however, run over the dense endpoint columns
//! of [`RowBatch`] and [`GaplessWorkspace`]: branch-light integer
//! comparisons the compiler can unroll and vectorize, with payloads
//! touched only on a match. `tests/batch_equivalence.rs` pins the
//! equivalence; E19 measures the speed difference.

use crate::batch::{BatchStream, RowBatch};
use crate::gapless::GaplessWorkspace;
use crate::metrics::OpMetrics;
use crate::overlap_join::OverlapMode;
use crate::read_policy::{Advance, PolicyState, ReadPolicy};
use crate::report::OpReport;
use crate::sink::Emit;
use crate::workspace::WorkspaceStats;
use std::collections::VecDeque;
use tdb_core::{TdbResult, Temporal, TimePoint};

/// Which input of a two-input kernel a batch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The X (left) input.
    Left,
    /// The Y (right) input.
    Right,
}

/// What a kernel needs next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wants {
    /// A batch (or end-of-stream notice) for the left input.
    Left,
    /// A batch (or end-of-stream notice) for the right input.
    Right,
    /// Nothing — the kernel has produced all output.
    Done,
}

/// A push-mode batched operator.
///
/// Protocol: while [`BatchOp::wants`] is not [`Wants::Done`], feed the
/// requested side one batch via `process_batch_*` or declare it finished
/// via [`BatchOp::finish`]; collect output with [`BatchOp::drain`] at any
/// point. [`drive_each`] implements this loop.
pub trait BatchOp {
    /// Left input row type.
    type LeftItem: Temporal + Clone;
    /// Right input row type.
    type RightItem: Temporal + Clone;
    /// Output row type.
    type Out;

    /// Which input the kernel is blocked on.
    fn wants(&self) -> Wants;

    /// Feed a batch of left-input rows.
    fn process_batch_left(&mut self, batch: RowBatch<Self::LeftItem>) -> TdbResult<()>;

    /// Feed a batch of right-input rows.
    fn process_batch_right(&mut self, batch: RowBatch<Self::RightItem>) -> TdbResult<()>;

    /// Declare one input exhausted.
    fn finish(&mut self, side: Side) -> TdbResult<()>;

    /// Take the output produced so far.
    fn drain(&mut self) -> Vec<Self::Out>;

    /// Metrics and workspace statistics — same accounting as the row twin.
    fn report(&self) -> OpReport;
}

/// Run a [`BatchOp`] to completion over two [`BatchStream`]s, honouring its
/// demand signal, and hand each drained output chunk to `emit`
/// ([`Emit::offer`]: a counting consumer gets its length; a `Vec`
/// collects). `emit` returning `false` stops the run early (the sink has
/// seen enough); the function then returns `false` too, so callers can
/// distinguish a completed run from a truncated one.
pub fn drive_each<K, L, R>(
    op: &mut K,
    left: &mut L,
    right: &mut R,
    emit: &mut dyn Emit<K::Out>,
) -> TdbResult<bool>
where
    K: BatchOp,
    L: BatchStream<Item = K::LeftItem>,
    R: BatchStream<Item = K::RightItem>,
{
    loop {
        let chunk = op.drain();
        if !chunk.is_empty() && !emit.offer(chunk)? {
            return Ok(false);
        }
        match op.wants() {
            Wants::Done => break,
            Wants::Left => match left.next_batch()? {
                Some(b) => op.process_batch_left(b)?,
                None => op.finish(Side::Left)?,
            },
            Wants::Right => match right.next_batch()? {
                Some(b) => op.process_batch_right(b)?,
                None => op.finish(Side::Right)?,
            },
        }
    }
    let chunk = op.drain();
    if !chunk.is_empty() && !emit.offer(chunk)? {
        return Ok(false);
    }
    Ok(true)
}

/// Where a cursor's head stands.
enum Head {
    /// A row is buffered; its `(ts, te)` ticks.
    Row(i64, i64),
    /// The input is exhausted.
    Exhausted,
    /// The queue is empty but the input is not known to be exhausted — the
    /// kernel must suspend and ask the driver for more.
    Starved,
}

/// A read cursor over queued input batches.
///
/// Mirrors the row operators' one-tuple input buffer: `reads` counts a row
/// the first time it becomes the visible head, exactly when the pull
/// operators count their `refill` — so read metrics are batch-size
/// invariant and row-identical, as long as the kernel resolves heads only
/// when the row twin would have refilled.
struct Cursor<T> {
    queue: VecDeque<RowBatch<T>>,
    idx: usize,
    reads: usize,
    counted: bool,
    done: bool,
}

impl<T: Clone> Cursor<T> {
    fn new() -> Cursor<T> {
        Cursor {
            queue: VecDeque::new(),
            idx: 0,
            reads: 0,
            counted: false,
            done: false,
        }
    }

    fn push(&mut self, batch: RowBatch<T>) {
        if !batch.is_empty() {
            self.queue.push_back(batch);
        }
    }

    fn finish(&mut self) {
        self.done = true;
    }

    /// Resolve the head, counting a newly visible row as a read.
    #[inline]
    fn head(&mut self) -> Head {
        loop {
            match self.queue.front() {
                Some(b) if self.idx < b.len() => {
                    if !self.counted {
                        self.reads += 1;
                        self.counted = true;
                    }
                    let (ts, te) = b.endpoints(self.idx);
                    return Head::Row(ts, te);
                }
                Some(_) => {
                    self.queue.pop_front();
                    self.idx = 0;
                }
                None => {
                    return if self.done {
                        Head::Exhausted
                    } else {
                        Head::Starved
                    }
                }
            }
        }
    }

    /// Clone the head payload (head must be resolved to a row).
    fn clone_head(&self) -> T {
        self.queue
            .front()
            // Callers resolve the head before reading it. lint:allow(no-unwrap)
            .expect("resolved head")
            .row(self.idx)
            .clone()
    }

    /// Borrow the head payload (head must be resolved to a row).
    fn head_payload(&self) -> &T {
        // Callers resolve the head before reading it. lint:allow(no-unwrap)
        self.queue.front().expect("resolved head").row(self.idx)
    }

    /// Consume the head row.
    #[inline]
    fn advance(&mut self) {
        self.idx += 1;
        self.counted = false;
    }
}

fn metrics(read_left: usize, read_right: usize, comparisons: usize, emitted: usize) -> OpMetrics {
    OpMetrics {
        read_left,
        read_right,
        comparisons,
        emitted,
        passes: 1,
    }
}

// ---------------------------------------------------------------------------
// Contain-join, (ValidFrom ↑, ValidTo ↑) — batched ContainJoinTsTe.
// ---------------------------------------------------------------------------

/// Batched Contain-join over X sorted `ValidFrom ↑`, Y sorted `ValidTo ↑`
/// (Table 1 state (b)) — the vectorized twin of
/// [`crate::ContainJoinTsTe`]. Y-driven: per y row it GCs the gapless X
/// state on the `x.TE ≥ y.TE` cutoff, admits X rows up to `y.TS` through
/// the same condition, then probes the state with one branch-light pass
/// over the endpoint columns.
pub struct BatchContainJoinTsTe<X: Temporal + Clone, Y: Temporal + Clone> {
    cx: Cursor<X>,
    cy: Cursor<Y>,
    state: GaplessWorkspace<X>,
    cur_y: Option<(i64, i64, Y)>,
    out: Vec<(X, Y)>,
    hits: Vec<u32>,
    comparisons: usize,
    emitted: usize,
    count_only: bool,
    started: bool,
    want: Wants,
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BatchContainJoinTsTe<X, Y> {
    /// An empty kernel awaiting input.
    pub fn new() -> Self {
        BatchContainJoinTsTe {
            cx: Cursor::new(),
            cy: Cursor::new(),
            state: GaplessWorkspace::new(),
            cur_y: None,
            out: Vec::new(),
            hits: Vec::new(),
            comparisons: 0,
            emitted: 0,
            count_only: false,
            started: false,
            want: Wants::Left, // establish the X head first, like refill_x
        }
    }

    /// Count matches instead of materializing pairs: the probe pass sums
    /// hits over the endpoint columns and never touches payloads, so
    /// `report().metrics` stays identical while [`BatchOp::drain`] stays
    /// empty. The compact consumer for count-only sinks.
    pub fn count_only(mut self) -> Self {
        self.count_only = true;
        self
    }

    fn run(&mut self) {
        // The row twin buffers its first X tuple before reading any Y.
        if !self.started {
            if matches!(self.cx.head(), Head::Starved) {
                self.want = Wants::Left;
                return;
            }
            self.started = true;
        }
        loop {
            if self.cur_y.is_none() {
                match self.cy.head() {
                    Head::Starved => {
                        self.want = Wants::Right;
                        return;
                    }
                    Head::Exhausted => {
                        self.want = Wants::Done;
                        return;
                    }
                    Head::Row(yts, yte) => {
                        let y = self.cy.clone_head();
                        self.cy.advance();
                        // GC phase: x.TE < y.TE can contain no current or
                        // future y (paper-corrected rule).
                        self.state.gc_te_ge(yte);
                        self.cur_y = Some((yts, yte, y));
                    }
                }
            }
            let (yts, yte) = {
                // Set by the resolve loop just above. lint:allow(no-unwrap)
                let c = self.cur_y.as_ref().expect("current y");
                (c.0, c.1)
            };
            // Read/admit phase: pull X rows with x.TS < y.TS; the GC
            // condition doubles as the admission filter.
            loop {
                match self.cx.head() {
                    Head::Starved => {
                        self.want = Wants::Left;
                        return;
                    }
                    Head::Exhausted => break,
                    Head::Row(xts, xte) => {
                        self.comparisons += 1;
                        if xts < yts {
                            if xte >= yte {
                                let x = self.cx.clone_head();
                                self.state.insert_raw(xts, xte, x);
                            }
                            self.cx.advance();
                        } else {
                            break;
                        }
                    }
                }
            }
            // Join phase: one pass over the endpoint columns. `cur_y` is
            // still occupied — only this take clears it. lint:allow(no-unwrap)
            let (yts, yte, y) = self.cur_y.take().expect("current y");
            let ts = self.state.ts_col();
            let te = self.state.te_col();
            self.comparisons += ts.len();
            if self.count_only {
                let mut n = 0usize;
                for i in 0..ts.len() {
                    n += usize::from((ts[i] < yts) & (yte < te[i]));
                }
                self.emitted += n;
                let _ = y;
                continue;
            }
            self.hits.clear();
            for i in 0..ts.len() {
                if (ts[i] < yts) & (yte < te[i]) {
                    self.hits.push(i as u32);
                }
            }
            for &i in &self.hits {
                self.out
                    .push((self.state.payload(i as usize).clone(), y.clone()));
                self.emitted += 1;
            }
        }
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> Default for BatchContainJoinTsTe<X, Y> {
    fn default() -> Self {
        Self::new()
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BatchOp for BatchContainJoinTsTe<X, Y> {
    type LeftItem = X;
    type RightItem = Y;
    type Out = (X, Y);

    fn wants(&self) -> Wants {
        self.want
    }

    fn process_batch_left(&mut self, batch: RowBatch<X>) -> TdbResult<()> {
        self.cx.push(batch);
        self.run();
        Ok(())
    }

    fn process_batch_right(&mut self, batch: RowBatch<Y>) -> TdbResult<()> {
        self.cy.push(batch);
        self.run();
        Ok(())
    }

    fn finish(&mut self, side: Side) -> TdbResult<()> {
        match side {
            Side::Left => self.cx.finish(),
            Side::Right => self.cy.finish(),
        }
        self.run();
        Ok(())
    }

    fn drain(&mut self) -> Vec<(X, Y)> {
        std::mem::take(&mut self.out)
    }

    fn report(&self) -> OpReport {
        OpReport::new(
            metrics(self.cx.reads, self.cy.reads, self.comparisons, self.emitted),
            self.state.stats(),
        )
    }
}

// ---------------------------------------------------------------------------
// Overlap join — batched OverlapJoin.
// ---------------------------------------------------------------------------

/// Batched Overlap join over two `ValidFrom ↑` inputs (Table 2 state (a))
/// — the vectorized twin of [`crate::OverlapJoin`]. Both state sets live
/// in gapless columns; probes and GC cutoffs are single passes over them.
pub struct BatchOverlapJoin<X: Temporal + Clone, Y: Temporal + Clone> {
    cx: Cursor<X>,
    cy: Cursor<Y>,
    sx: GaplessWorkspace<X>,
    sy: GaplessWorkspace<Y>,
    mode: OverlapMode,
    policy: ReadPolicy,
    policy_state: PolicyState,
    out: Vec<(X, Y)>,
    hits: Vec<u32>,
    comparisons: usize,
    emitted: usize,
    count_only: bool,
    gc_pending: bool,
    want: Wants,
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BatchOverlapJoin<X, Y> {
    /// An empty kernel with the given overlap mode and read policy.
    pub fn new(mode: OverlapMode, policy: ReadPolicy) -> Self {
        BatchOverlapJoin {
            cx: Cursor::new(),
            cy: Cursor::new(),
            sx: GaplessWorkspace::new(),
            sy: GaplessWorkspace::new(),
            mode,
            policy,
            policy_state: PolicyState::default(),
            out: Vec::new(),
            hits: Vec::new(),
            comparisons: 0,
            emitted: 0,
            count_only: false,
            gc_pending: false,
            want: Wants::Left,
        }
    }

    /// Count matches instead of materializing pairs — see
    /// [`BatchContainJoinTsTe::count_only`].
    pub fn count_only(mut self) -> Self {
        self.count_only = true;
        self
    }

    /// GC keyed off the resolved heads — the row twin's `gc_phase`, with
    /// the cutoffs applied as single passes over the endpoint columns.
    fn gc(&mut self, hx: Option<(i64, i64)>, hy: Option<(i64, i64)>) {
        match hy {
            Some((yts, _)) => self.sx.gc_te_gt(yts),
            None => self.sx.clear_discard(),
        }
        match hx {
            Some((xts, _)) => match self.mode {
                OverlapMode::General => self.sy.gc_te_gt(xts),
                OverlapMode::Strict => self.sy.gc_ts_gt(xts),
            },
            None => self.sy.clear_discard(),
        }
    }

    fn process_x(&mut self, xts: i64, xte: i64) {
        let x = self.cx.clone_head();
        self.cx.advance();
        let (ts, te) = (self.sy.ts_col(), self.sy.te_col());
        self.comparisons += ts.len();
        if self.count_only {
            let mut n = 0usize;
            match self.mode {
                OverlapMode::General => {
                    for i in 0..ts.len() {
                        n += usize::from((xts < te[i]) & (ts[i] < xte));
                    }
                }
                OverlapMode::Strict => {
                    for i in 0..ts.len() {
                        n += usize::from((xts < ts[i]) & (xte > ts[i]) & (xte < te[i]));
                    }
                }
            }
            self.emitted += n;
            self.sx.insert_raw(xts, xte, x);
            return;
        }
        self.hits.clear();
        match self.mode {
            OverlapMode::General => {
                for i in 0..ts.len() {
                    if (xts < te[i]) & (ts[i] < xte) {
                        self.hits.push(i as u32);
                    }
                }
            }
            OverlapMode::Strict => {
                for i in 0..ts.len() {
                    if (xts < ts[i]) & (xte > ts[i]) & (xte < te[i]) {
                        self.hits.push(i as u32);
                    }
                }
            }
        }
        for &i in &self.hits {
            self.out
                .push((x.clone(), self.sy.payload(i as usize).clone()));
            self.emitted += 1;
        }
        self.sx.insert_raw(xts, xte, x);
    }

    fn process_y(&mut self, yts: i64, yte: i64) {
        let y = self.cy.clone_head();
        self.cy.advance();
        let (ts, te) = (self.sx.ts_col(), self.sx.te_col());
        self.comparisons += ts.len();
        if self.count_only {
            let mut n = 0usize;
            match self.mode {
                OverlapMode::General => {
                    for i in 0..ts.len() {
                        n += usize::from((ts[i] < yte) & (yts < te[i]));
                    }
                }
                OverlapMode::Strict => {
                    for i in 0..ts.len() {
                        n += usize::from((ts[i] < yts) & (te[i] > yts) & (te[i] < yte));
                    }
                }
            }
            self.emitted += n;
            self.sy.insert_raw(yts, yte, y);
            return;
        }
        self.hits.clear();
        match self.mode {
            OverlapMode::General => {
                for i in 0..ts.len() {
                    if (ts[i] < yte) & (yts < te[i]) {
                        self.hits.push(i as u32);
                    }
                }
            }
            OverlapMode::Strict => {
                for i in 0..ts.len() {
                    if (ts[i] < yts) & (te[i] > yts) & (te[i] < yte) {
                        self.hits.push(i as u32);
                    }
                }
            }
        }
        for &i in &self.hits {
            self.out
                .push((self.sx.payload(i as usize).clone(), y.clone()));
            self.emitted += 1;
        }
        self.sy.insert_raw(yts, yte, y);
    }

    fn run(&mut self) {
        loop {
            let hx = match self.cx.head() {
                Head::Starved => {
                    self.want = Wants::Left;
                    return;
                }
                Head::Exhausted => None,
                Head::Row(a, b) => Some((a, b)),
            };
            let hy = match self.cy.head() {
                Head::Starved => {
                    self.want = Wants::Right;
                    return;
                }
                Head::Exhausted => None,
                Head::Row(a, b) => Some((a, b)),
            };
            // The row twin GCs right after refilling inside process_*; with
            // heads now resolved to the same tuples, running it here is
            // observationally identical.
            if self.gc_pending {
                self.gc(hx, hy);
                self.gc_pending = false;
            }
            match (hx, hy) {
                (None, None) => {
                    self.want = Wants::Done;
                    return;
                }
                (Some((xts, xte)), None) => {
                    if self.sy.is_empty() {
                        self.want = Wants::Done;
                        return;
                    }
                    self.process_x(xts, xte);
                }
                (None, Some((yts, yte))) => {
                    if self.sx.is_empty() {
                        self.want = Wants::Done;
                        return;
                    }
                    self.process_y(yts, yte);
                }
                (Some((xts, xte)), Some((yts, yte))) => {
                    let d = self.policy.decide(
                        &mut self.policy_state,
                        self.cx.head_payload(),
                        self.cy.head_payload(),
                        TimePoint::new(xts),
                        TimePoint::new(yts),
                        self.sx.len(),
                        self.sy.len(),
                    );
                    match d {
                        Advance::Left => self.process_x(xts, xte),
                        Advance::Right => self.process_y(yts, yte),
                    }
                }
            }
            self.gc_pending = true;
        }
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BatchOp for BatchOverlapJoin<X, Y> {
    type LeftItem = X;
    type RightItem = Y;
    type Out = (X, Y);

    fn wants(&self) -> Wants {
        self.want
    }

    fn process_batch_left(&mut self, batch: RowBatch<X>) -> TdbResult<()> {
        self.cx.push(batch);
        self.run();
        Ok(())
    }

    fn process_batch_right(&mut self, batch: RowBatch<Y>) -> TdbResult<()> {
        self.cy.push(batch);
        self.run();
        Ok(())
    }

    fn finish(&mut self, side: Side) -> TdbResult<()> {
        match side {
            Side::Left => self.cx.finish(),
            Side::Right => self.cy.finish(),
        }
        self.run();
        Ok(())
    }

    fn drain(&mut self) -> Vec<(X, Y)> {
        std::mem::take(&mut self.out)
    }

    fn report(&self) -> OpReport {
        OpReport::new(
            metrics(self.cx.reads, self.cy.reads, self.comparisons, self.emitted),
            self.sx.stats().combine_stacked(self.sy.stats()),
        )
    }
}

// ---------------------------------------------------------------------------
// Overlap semijoin — batched OverlapSemijoin.
// ---------------------------------------------------------------------------

// One kernel exists per operator instance and is never stored in a
// collection, so the General/Strict size gap costs nothing; boxing the
// Strict state would put an indirection on the hot sweep path instead.
#[allow(clippy::large_enum_variant)]
enum SemiKernel<X: Temporal + Clone, Y: Temporal + Clone> {
    General,
    Strict {
        sx: GaplessWorkspace<X>,
        sy: GaplessWorkspace<Y>,
        policy: ReadPolicy,
        policy_state: PolicyState,
        gc_pending: bool,
    },
}

/// Batched Overlap **semijoin** — the vectorized twin of
/// [`crate::OverlapSemijoin`]. General mode is the two-buffer merge of
/// Table 2 state (b) (zero workspace); strict Allen mode sweeps with
/// gapless state and emit-once extraction.
pub struct BatchOverlapSemijoin<X: Temporal + Clone, Y: Temporal + Clone> {
    cx: Cursor<X>,
    cy: Cursor<Y>,
    kernel: SemiKernel<X, Y>,
    out: Vec<X>,
    comparisons: usize,
    emitted: usize,
    started: bool,
    want: Wants,
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BatchOverlapSemijoin<X, Y> {
    /// An empty kernel with the given overlap mode and read policy.
    pub fn new(mode: OverlapMode, policy: ReadPolicy) -> Self {
        let kernel = match mode {
            OverlapMode::General => SemiKernel::General,
            OverlapMode::Strict => SemiKernel::Strict {
                sx: GaplessWorkspace::new(),
                sy: GaplessWorkspace::new(),
                policy,
                policy_state: PolicyState::default(),
                gc_pending: false,
            },
        };
        BatchOverlapSemijoin {
            cx: Cursor::new(),
            cy: Cursor::new(),
            kernel,
            out: Vec::new(),
            comparisons: 0,
            emitted: 0,
            started: false,
            want: Wants::Left,
        }
    }

    fn run(&mut self) {
        if !self.started {
            // The row twin buffers one tuple from each input up front.
            if matches!(self.cx.head(), Head::Starved) {
                self.want = Wants::Left;
                return;
            }
            if matches!(self.cy.head(), Head::Starved) {
                self.want = Wants::Right;
                return;
            }
            self.started = true;
        }
        match &mut self.kernel {
            SemiKernel::General => loop {
                let hx = match self.cx.head() {
                    Head::Starved => {
                        self.want = Wants::Left;
                        return;
                    }
                    Head::Exhausted => None,
                    Head::Row(a, b) => Some((a, b)),
                };
                let hy = match self.cy.head() {
                    Head::Starved => {
                        self.want = Wants::Right;
                        return;
                    }
                    Head::Exhausted => None,
                    Head::Row(a, b) => Some((a, b)),
                };
                let (Some((xts, xte)), Some((yts, yte))) = (hx, hy) else {
                    self.want = Wants::Done;
                    return;
                };
                self.comparisons += 1;
                if (xts < yte) & (yts < xte) {
                    self.out.push(self.cx.clone_head());
                    self.emitted += 1;
                    self.cx.advance();
                } else if xte <= yts {
                    // x ends before y starts; future y start even later.
                    self.cx.advance();
                } else {
                    // y cannot witness this or any future x.
                    self.cy.advance();
                }
            },
            SemiKernel::Strict {
                sx,
                sy,
                policy,
                policy_state,
                gc_pending,
            } => loop {
                let hx = match self.cx.head() {
                    Head::Starved => {
                        self.want = Wants::Left;
                        return;
                    }
                    Head::Exhausted => None,
                    Head::Row(a, b) => Some((a, b)),
                };
                let hy = match self.cy.head() {
                    Head::Starved => {
                        self.want = Wants::Right;
                        return;
                    }
                    Head::Exhausted => None,
                    Head::Row(a, b) => Some((a, b)),
                };
                if *gc_pending {
                    match hy {
                        Some((yts, _)) => sx.gc_te_gt(yts),
                        None => sx.clear_discard(),
                    }
                    match hx {
                        Some((xts, _)) => sy.gc_ts_gt(xts),
                        None => sy.clear_discard(),
                    }
                    *gc_pending = false;
                }
                let advance = match (hx, hy) {
                    (None, None) => {
                        self.want = Wants::Done;
                        return;
                    }
                    (Some(_), None) => {
                        if sy.is_empty() {
                            self.want = Wants::Done;
                            return;
                        }
                        Advance::Left
                    }
                    (None, Some(_)) => {
                        if sx.is_empty() {
                            self.want = Wants::Done;
                            return;
                        }
                        Advance::Right
                    }
                    (Some((xts, _)), Some((yts, _))) => policy.decide(
                        policy_state,
                        self.cx.head_payload(),
                        self.cy.head_payload(),
                        TimePoint::new(xts),
                        TimePoint::new(yts),
                        sx.len(),
                        sy.len(),
                    ),
                };
                match advance {
                    Advance::Left => {
                        // The decide table only yields Left when hx is
                        // Some. lint:allow(no-unwrap)
                        let (xts, xte) = hx.expect("left head");
                        let x = self.cx.clone_head();
                        self.cx.advance();
                        self.comparisons += sy.len();
                        let (ts, te) = (sy.ts_col(), sy.te_col());
                        let witnessed =
                            (0..ts.len()).any(|i| (xts < ts[i]) & (xte > ts[i]) & (xte < te[i]));
                        if witnessed {
                            self.out.push(x);
                            self.emitted += 1;
                        } else {
                            sx.insert_raw(xts, xte, x);
                        }
                    }
                    Advance::Right => {
                        // The decide table only yields Right when hy is
                        // Some. lint:allow(no-unwrap)
                        let (yts, yte) = hy.expect("right head");
                        let y = self.cy.clone_head();
                        self.cy.advance();
                        self.comparisons += sx.len();
                        let witnessed = sx.extract(|ts, te| (ts < yts) & (te > yts) & (te < yte));
                        self.emitted += witnessed.len();
                        self.out.extend(witnessed);
                        sy.insert_raw(yts, yte, y);
                    }
                }
                *gc_pending = true;
            },
        }
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BatchOp for BatchOverlapSemijoin<X, Y> {
    type LeftItem = X;
    type RightItem = Y;
    type Out = X;

    fn wants(&self) -> Wants {
        self.want
    }

    fn process_batch_left(&mut self, batch: RowBatch<X>) -> TdbResult<()> {
        self.cx.push(batch);
        self.run();
        Ok(())
    }

    fn process_batch_right(&mut self, batch: RowBatch<Y>) -> TdbResult<()> {
        self.cy.push(batch);
        self.run();
        Ok(())
    }

    fn finish(&mut self, side: Side) -> TdbResult<()> {
        match side {
            Side::Left => self.cx.finish(),
            Side::Right => self.cy.finish(),
        }
        self.run();
        Ok(())
    }

    fn drain(&mut self) -> Vec<X> {
        std::mem::take(&mut self.out)
    }

    fn report(&self) -> OpReport {
        let workspace = match &self.kernel {
            SemiKernel::General => WorkspaceStats::default(),
            SemiKernel::Strict { sx, sy, .. } => sx.stats().combine_stacked(sy.stats()),
        };
        OpReport::new(
            metrics(self.cx.reads, self.cy.reads, self.comparisons, self.emitted),
            workspace,
        )
    }
}

// ---------------------------------------------------------------------------
// Stab semijoins — batched ContainSemijoinStab / ContainedSemijoinStab.
// ---------------------------------------------------------------------------

/// Which side of the containment a batched stab scan emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StabEmit {
    Container,
    Containee,
}

/// The shared batched two-buffer stab scan (§4.2.2 / Figure 6): containers
/// on the left (`ValidFrom ↑`), containees on the right (`ValidTo ↑`),
/// zero workspace beyond the two cursor heads.
pub struct BatchStabScan<C: Temporal + Clone, E: Temporal + Clone> {
    cc: Cursor<C>,
    ce: Cursor<E>,
    emit: StabEmit,
    out_c: Vec<C>,
    out_e: Vec<E>,
    comparisons: usize,
    emitted: usize,
    started: bool,
    want: Wants,
}

impl<C: Temporal + Clone, E: Temporal + Clone> BatchStabScan<C, E> {
    fn with_emit(emit: StabEmit) -> Self {
        BatchStabScan {
            cc: Cursor::new(),
            ce: Cursor::new(),
            emit,
            out_c: Vec::new(),
            out_e: Vec::new(),
            comparisons: 0,
            emitted: 0,
            started: false,
            want: Wants::Left,
        }
    }

    fn run(&mut self) {
        if !self.started {
            if matches!(self.cc.head(), Head::Starved) {
                self.want = Wants::Left;
                return;
            }
            if matches!(self.ce.head(), Head::Starved) {
                self.want = Wants::Right;
                return;
            }
            self.started = true;
        }
        loop {
            let hc = match self.cc.head() {
                Head::Starved => {
                    self.want = Wants::Left;
                    return;
                }
                Head::Exhausted => None,
                Head::Row(a, b) => Some((a, b)),
            };
            let he = match self.ce.head() {
                Head::Starved => {
                    self.want = Wants::Right;
                    return;
                }
                Head::Exhausted => None,
                Head::Row(a, b) => Some((a, b)),
            };
            let (Some((cts, cte)), Some((ets, ete))) = (hc, he) else {
                self.want = Wants::Done;
                return;
            };
            self.comparisons += 1;
            if ets <= cts {
                // Dead containee: no current or future container starts
                // before it.
                self.ce.advance();
            } else if ete < cte {
                // Match: c.TS < e.TS ∧ e.TE < c.TE — emit once per
                // container or containee depending on configuration.
                match self.emit {
                    StabEmit::Container => {
                        self.out_c.push(self.cc.clone_head());
                        self.emitted += 1;
                        self.cc.advance();
                    }
                    StabEmit::Containee => {
                        self.out_e.push(self.ce.clone_head());
                        self.emitted += 1;
                        self.ce.advance();
                    }
                }
            } else {
                // This container can contain no current or future containee.
                self.cc.advance();
            }
        }
    }

    fn push_left(&mut self, batch: RowBatch<C>) {
        self.cc.push(batch);
        self.run();
    }

    fn push_right(&mut self, batch: RowBatch<E>) {
        self.ce.push(batch);
        self.run();
    }

    fn finish_side(&mut self, side: Side) {
        match side {
            Side::Left => self.cc.finish(),
            Side::Right => self.ce.finish(),
        }
        self.run();
    }

    fn report(&self) -> OpReport {
        // Table 1 state (d): the workspace is the two cursor heads.
        OpReport::new(
            metrics(self.cc.reads, self.ce.reads, self.comparisons, self.emitted),
            WorkspaceStats::default(),
        )
    }
}

/// Batched `Contain-semijoin(X, Y)` (X: `ValidFrom ↑` containers on the
/// left, Y: `ValidTo ↑` containees on the right) — the vectorized twin of
/// [`crate::ContainSemijoinStab`]. Emits containers.
pub struct BatchContainSemijoinStab<X: Temporal + Clone, Y: Temporal + Clone> {
    scan: BatchStabScan<X, Y>,
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BatchContainSemijoinStab<X, Y> {
    /// An empty kernel awaiting input.
    pub fn new() -> Self {
        BatchContainSemijoinStab {
            scan: BatchStabScan::with_emit(StabEmit::Container),
        }
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> Default for BatchContainSemijoinStab<X, Y> {
    fn default() -> Self {
        Self::new()
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BatchOp for BatchContainSemijoinStab<X, Y> {
    type LeftItem = X;
    type RightItem = Y;
    type Out = X;

    fn wants(&self) -> Wants {
        self.scan.want
    }

    fn process_batch_left(&mut self, batch: RowBatch<X>) -> TdbResult<()> {
        self.scan.push_left(batch);
        Ok(())
    }

    fn process_batch_right(&mut self, batch: RowBatch<Y>) -> TdbResult<()> {
        self.scan.push_right(batch);
        Ok(())
    }

    fn finish(&mut self, side: Side) -> TdbResult<()> {
        self.scan.finish_side(side);
        Ok(())
    }

    fn drain(&mut self) -> Vec<X> {
        std::mem::take(&mut self.scan.out_c)
    }

    fn report(&self) -> OpReport {
        self.scan.report()
    }
}

/// Batched `Contained-semijoin(X, Y)` — the vectorized twin of
/// [`crate::ContainedSemijoinStab`]: Y are the containers (left input,
/// `ValidFrom ↑`), X the containees (right input, `ValidTo ↑`); emits the
/// contained X tuples. Note the left/right swap mirrors the row twin,
/// whose `read_left` counts the container (Y) side.
pub struct BatchContainedSemijoinStab<X: Temporal + Clone, Y: Temporal + Clone> {
    scan: BatchStabScan<Y, X>,
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BatchContainedSemijoinStab<X, Y> {
    /// An empty kernel awaiting input.
    pub fn new() -> Self {
        BatchContainedSemijoinStab {
            scan: BatchStabScan::with_emit(StabEmit::Containee),
        }
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> Default for BatchContainedSemijoinStab<X, Y> {
    fn default() -> Self {
        Self::new()
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BatchOp for BatchContainedSemijoinStab<X, Y> {
    type LeftItem = Y;
    type RightItem = X;
    type Out = X;

    fn wants(&self) -> Wants {
        self.scan.want
    }

    fn process_batch_left(&mut self, batch: RowBatch<Y>) -> TdbResult<()> {
        self.scan.push_left(batch);
        Ok(())
    }

    fn process_batch_right(&mut self, batch: RowBatch<X>) -> TdbResult<()> {
        self.scan.push_right(batch);
        Ok(())
    }

    fn finish(&mut self, side: Side) -> TdbResult<()> {
        self.scan.finish_side(side);
        Ok(())
    }

    fn drain(&mut self) -> Vec<X> {
        std::mem::take(&mut self.scan.out_e)
    }

    fn report(&self) -> OpReport {
        self.scan.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::VecBatchStream;
    use crate::report::{Instrumented, OpConfig};
    use crate::stream::{from_sorted_vec, TupleStream};
    use tdb_core::{StreamOrder, TsTuple};

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    fn sorted(mut v: Vec<TsTuple>, o: StreamOrder) -> Vec<TsTuple> {
        o.sort(&mut v);
        v
    }

    fn batched(items: Vec<TsTuple>, order: StreamOrder, rows: usize) -> VecBatchStream<TsTuple> {
        VecBatchStream::from_sorted_vec(items, order, rows).unwrap()
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

    /// Batched ContainJoinTsTe matches the row operator exactly — output
    /// sequence and full report — for every batch size.
    #[test]
    fn contain_ts_te_equals_row_operator() {
        let (xs, ys) = workload(120);
        let xs = sorted(xs, StreamOrder::TS_ASC);
        let ys = sorted(ys, StreamOrder::TE_ASC);

        let mut row = OpConfig::new()
            .contain_join_ts_te(
                from_sorted_vec(xs.clone(), StreamOrder::TS_ASC).unwrap(),
                from_sorted_vec(ys.clone(), StreamOrder::TE_ASC).unwrap(),
            )
            .unwrap();
        let row_out = row.collect_vec().unwrap();

        for rows in [1usize, 7, 64, 1024] {
            let mut op = BatchContainJoinTsTe::new();
            let mut got = Vec::new();
            drive_each(
                &mut op,
                &mut batched(xs.clone(), StreamOrder::TS_ASC, rows),
                &mut batched(ys.clone(), StreamOrder::TE_ASC, rows),
                &mut got,
            )
            .unwrap();
            assert_eq!(got, row_out, "batch size {rows}");
            assert_eq!(op.report(), row.report(), "batch size {rows}");
        }
    }

    /// Batched OverlapJoin matches the row operator for both modes and
    /// several policies.
    #[test]
    fn overlap_join_equals_row_operator() {
        let (xs, ys) = workload(100);
        let xs = sorted(xs, StreamOrder::TS_ASC);
        let ys = sorted(ys, StreamOrder::TS_ASC);
        for mode in [OverlapMode::General, OverlapMode::Strict] {
            for policy in [ReadPolicy::MinKey, ReadPolicy::Alternate] {
                let cfg = OpConfig::new().with_mode(mode).with_policy(policy);
                let mut row = cfg
                    .overlap_join(
                        from_sorted_vec(xs.clone(), StreamOrder::TS_ASC).unwrap(),
                        from_sorted_vec(ys.clone(), StreamOrder::TS_ASC).unwrap(),
                    )
                    .unwrap();
                let row_out = row.collect_vec().unwrap();
                for rows in [1usize, 13, 256] {
                    let mut op = BatchOverlapJoin::new(mode, policy);
                    let mut got = Vec::new();
                    drive_each(
                        &mut op,
                        &mut batched(xs.clone(), StreamOrder::TS_ASC, rows),
                        &mut batched(ys.clone(), StreamOrder::TS_ASC, rows),
                        &mut got,
                    )
                    .unwrap();
                    assert_eq!(got, row_out, "mode {mode:?} policy {policy:?} rows {rows}");
                    assert_eq!(op.report(), row.report(), "mode {mode:?} rows {rows}");
                }
            }
        }
    }

    #[test]
    fn overlap_semijoin_equals_row_operator() {
        let (xs, ys) = workload(90);
        let xs = sorted(xs, StreamOrder::TS_ASC);
        let ys = sorted(ys, StreamOrder::TS_ASC);
        for mode in [OverlapMode::General, OverlapMode::Strict] {
            let cfg = OpConfig::new().with_mode(mode);
            let mut row = cfg
                .overlap_semijoin(
                    from_sorted_vec(xs.clone(), StreamOrder::TS_ASC).unwrap(),
                    from_sorted_vec(ys.clone(), StreamOrder::TS_ASC).unwrap(),
                )
                .unwrap();
            let row_out = row.collect_vec().unwrap();
            for rows in [1usize, 32, 512] {
                let mut op = BatchOverlapSemijoin::new(mode, ReadPolicy::MinKey);
                let mut got = Vec::new();
                drive_each(
                    &mut op,
                    &mut batched(xs.clone(), StreamOrder::TS_ASC, rows),
                    &mut batched(ys.clone(), StreamOrder::TS_ASC, rows),
                    &mut got,
                )
                .unwrap();
                assert_eq!(got, row_out, "mode {mode:?} rows {rows}");
                assert_eq!(op.report(), row.report(), "mode {mode:?} rows {rows}");
            }
        }
    }

    #[test]
    fn stab_semijoins_equal_row_operators() {
        let (xs, ys) = workload(110);
        // Contain: X containers TS↑, Y containees TE↑.
        let cx = sorted(xs.clone(), StreamOrder::TS_ASC);
        let ey = sorted(ys.clone(), StreamOrder::TE_ASC);
        let mut row = OpConfig::new()
            .contain_semijoin_stab(
                from_sorted_vec(cx.clone(), StreamOrder::TS_ASC).unwrap(),
                from_sorted_vec(ey.clone(), StreamOrder::TE_ASC).unwrap(),
            )
            .unwrap();
        let row_out = row.collect_vec().unwrap();
        for rows in [1usize, 16, 128] {
            let mut op = BatchContainSemijoinStab::new();
            let mut got = Vec::new();
            drive_each(
                &mut op,
                &mut batched(cx.clone(), StreamOrder::TS_ASC, rows),
                &mut batched(ey.clone(), StreamOrder::TE_ASC, rows),
                &mut got,
            )
            .unwrap();
            assert_eq!(got, row_out, "rows {rows}");
            assert_eq!(op.report(), row.report(), "rows {rows}");
        }
        // Contained: X containees TE↑ (right input), Y containers TS↑ (left).
        let ex = sorted(xs, StreamOrder::TE_ASC);
        let cyy = sorted(ys, StreamOrder::TS_ASC);
        let mut row = OpConfig::new()
            .contained_semijoin_stab(
                from_sorted_vec(ex.clone(), StreamOrder::TE_ASC).unwrap(),
                from_sorted_vec(cyy.clone(), StreamOrder::TS_ASC).unwrap(),
            )
            .unwrap();
        let row_out = row.collect_vec().unwrap();
        for rows in [1usize, 16, 128] {
            let mut op = BatchContainedSemijoinStab::new();
            let mut got = Vec::new();
            drive_each(
                &mut op,
                &mut batched(cyy.clone(), StreamOrder::TS_ASC, rows),
                &mut batched(ex.clone(), StreamOrder::TE_ASC, rows),
                &mut got,
            )
            .unwrap();
            assert_eq!(got, row_out, "rows {rows}");
            assert_eq!(op.report(), row.report(), "rows {rows}");
        }
    }

    /// Edge cases: empty inputs on either side.
    #[test]
    fn empty_inputs_match_row_reports() {
        let xs = vec![iv(0, 5), iv(1, 9)];
        // Empty Y: the row twin still buffers (reads) the first X tuple.
        let mut row = OpConfig::new()
            .contain_join_ts_te(
                from_sorted_vec(xs.clone(), StreamOrder::TS_ASC).unwrap(),
                from_sorted_vec(Vec::<TsTuple>::new(), StreamOrder::TE_ASC).unwrap(),
            )
            .unwrap();
        assert!(row.collect_vec().unwrap().is_empty());
        let mut op = BatchContainJoinTsTe::<TsTuple, TsTuple>::new();
        let mut got = Vec::new();
        drive_each(
            &mut op,
            &mut batched(xs, StreamOrder::TS_ASC, 4),
            &mut batched(vec![], StreamOrder::TE_ASC, 4),
            &mut got,
        )
        .unwrap();
        assert!(got.is_empty());
        assert_eq!(op.report(), row.report());
        assert_eq!(op.report().metrics.read_left, 1);
    }
}
