//! Push-mode result sinks: the consumer side of streaming execution.
//!
//! The materializing execution path collects every output row into one
//! `Vec<Row>` before anything downstream sees it — at 40 k rows/side that
//! copy dominates the run (E19/E21). A [`RowSink`] inverts the flow: the
//! executor *pushes* row chunks into the sink as operators drain, and the
//! sink decides what to keep. Three consumers cover the common shapes:
//!
//! * [`CollectSink`] — keep everything (`QueryOutput::rows`, and the
//!   inputs of plan nodes that need them materialized);
//! * [`LimitSink`] — keep the first `limit` rows and signal early
//!   termination once full, so `\set limit` stops the producer instead of
//!   truncating a fully-built vector;
//! * [`CountSink`] — keep nothing; with [`RowSink::wants_rows`] `false`
//!   the executor can skip widening pairs into payload rows entirely and
//!   feed the sink bare counts ([`RowSink::push_count`]).
//!
//! Every push returns a *continue* flag; `false` means the sink has seen
//! enough and the producer should stop. [`RowSink::finish`] closes the
//! sink and reports what flowed through it ([`SinkStats`]).

use tdb_core::{Row, TdbResult, Value};

/// Approximate in-memory footprint of one row, in bytes — the basis of the
/// sink-side byte counters surfaced in query traces. Deliberately cheap
/// (no encoding pass): scalar variants count their payload width, strings
/// count their length plus the length prefix, and each row pays a small
/// fixed header.
pub fn row_bytes(row: &Row) -> u64 {
    let values: u64 = row
        .values()
        .iter()
        .map(|v| match v {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) | Value::Time(_) => 8,
            Value::Str(s) => s.len() as u64 + 4,
        })
        .sum();
    values + 8
}

/// What flowed through a sink, reported by [`RowSink::finish`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Rows offered to the sink (including rows it chose to drop).
    pub rows: u64,
    /// Approximate bytes offered ([`row_bytes`] summed; zero for
    /// count-only pushes, which never materialize rows).
    pub bytes: u64,
    /// Number of `push`/`push_count` calls — the chunk granularity the
    /// producer ran at.
    pub batches: u64,
    /// `true` if the sink dropped rows (e.g. a [`LimitSink`] past its
    /// limit) or stopped the producer early — the observed row count is
    /// then a lower bound on the full result.
    pub truncated: bool,
}

/// A push-mode consumer of query output rows.
///
/// Producers call [`RowSink::push`] with each drained chunk (or
/// [`RowSink::push_count`] when the sink declared, via
/// [`RowSink::wants_rows`], that it only counts); a `false` return asks
/// the producer to stop. The chunk vector is passed `&mut` so sinks can
/// drain it without forcing the producer to reallocate per chunk.
pub trait RowSink {
    /// Does this sink need the actual rows? `false` lets the producer
    /// skip widening matches into payload rows and call
    /// [`RowSink::push_count`] instead.
    fn wants_rows(&self) -> bool {
        true
    }

    /// Offer a chunk of rows. The sink takes what it wants from `rows`
    /// (the producer discards whatever is left). Returns `false` when the
    /// sink has seen enough and the producer should stop.
    fn push(&mut self, rows: &mut Vec<Row>) -> TdbResult<bool>;

    /// Offer a bare match count (count-only consumers). Returns `false`
    /// when the sink has seen enough.
    fn push_count(&mut self, n: usize) -> TdbResult<bool>;

    /// Close the sink and report what flowed through it.
    fn finish(&mut self) -> SinkStats;
}

/// The consumer of an operator's output chunks — the `emit` argument of
/// the push dispatch ([`crate::run_join_kind_each`]), [`crate::pull_each`]
/// and the parallel drivers. Any `FnMut(Vec<T>) -> TdbResult<bool>`
/// closure is one (inline closures need an annotated parameter type).
///
/// Every producer keeps one contract: items arrive in chunks of at most
/// the configured `batch_rows`, and a `false` return stops the producer,
/// so a consumer that declines its first chunk has received at most
/// `batch_rows` items. A consumer that only counts overrides
/// [`Emit::wants_items`]; producers then hand it one bare count at the
/// end, and the join kernels run count-only.
pub trait Emit<T> {
    /// Does this consumer need the items? `false` selects count-only
    /// production and [`Emit::push_count`].
    fn wants_items(&self) -> bool {
        true
    }

    /// Offer a chunk of items. Returns `false` when the consumer has seen
    /// enough and the producer should stop.
    fn push(&mut self, chunk: Vec<T>) -> TdbResult<bool>;

    /// Offer a bare item count; only called when [`Emit::wants_items`]
    /// is `false`.
    fn push_count(&mut self, n: usize) -> TdbResult<bool> {
        let _ = n;
        Ok(true)
    }
}

/// The producer side of the [`Emit`] contract, shared by every producer:
/// buffers items and hands them over in chunks of at most `rows` (`0`
/// counts as 1), or — for a consumer that declines items — only counts
/// them and hands over the total in [`Chunker::finish`].
pub(crate) struct Chunker<'e, T> {
    emit: &'e mut dyn Emit<T>,
    chunk: Vec<T>,
    rows: usize,
    wants_items: bool,
    /// Items produced so far, handed over or counted.
    pub(crate) emitted: usize,
}

impl<'e, T> Chunker<'e, T> {
    pub(crate) fn new(emit: &'e mut dyn Emit<T>, rows: usize) -> Chunker<'e, T> {
        let wants_items = emit.wants_items();
        Chunker {
            emit,
            chunk: Vec::new(),
            rows: rows.max(1),
            wants_items,
            emitted: 0,
        }
    }

    /// Does the consumer want items? If not, a producer may tally
    /// matches with [`Chunker::count`] instead of building them.
    #[inline]
    pub(crate) fn wants_items(&self) -> bool {
        self.wants_items
    }

    /// Tally `n` items without building them.
    #[inline]
    pub(crate) fn count(&mut self, n: usize) {
        self.emitted += n;
    }

    /// Produce one item, handing a full chunk to the consumer. Returns
    /// `false` once the consumer has asked the producer to stop.
    #[inline]
    pub(crate) fn push(&mut self, item: T) -> TdbResult<bool> {
        self.emitted += 1;
        if !self.wants_items {
            return Ok(true);
        }
        self.chunk.push(item);
        if self.chunk.len() < self.rows {
            return Ok(true);
        }
        self.emit.push(std::mem::take(&mut self.chunk))
    }

    /// Hand over the last partial chunk, or the total to a counting
    /// consumer. Returns `false` if the consumer stopped.
    pub(crate) fn finish(&mut self) -> TdbResult<bool> {
        if !self.wants_items {
            return self.emit.push_count(self.emitted);
        }
        if self.chunk.is_empty() {
            return Ok(true);
        }
        self.emit.push(std::mem::take(&mut self.chunk))
    }
}

impl<T, F> Emit<T> for F
where
    F: FnMut(Vec<T>) -> TdbResult<bool>,
{
    fn push(&mut self, chunk: Vec<T>) -> TdbResult<bool> {
        self(chunk)
    }
}

/// The count-only [`Emit`] consumer: declines items and tallies how many
/// the producer made.
#[derive(Debug, Default)]
pub struct Counter(pub usize);

/// A vector is the collecting [`Emit`] consumer: it appends every chunk.
impl<T> Emit<T> for Vec<T> {
    fn push(&mut self, mut chunk: Vec<T>) -> TdbResult<bool> {
        self.append(&mut chunk);
        Ok(true)
    }
}

impl<T> Emit<T> for Counter {
    fn wants_items(&self) -> bool {
        false
    }

    fn push(&mut self, chunk: Vec<T>) -> TdbResult<bool> {
        self.0 += chunk.len();
        Ok(true)
    }

    fn push_count(&mut self, n: usize) -> TdbResult<bool> {
        self.0 += n;
        Ok(true)
    }
}

/// Collects every pushed row — the materializing consumer behind
/// `QueryOutput::rows` and behind every plan node that needs its inputs
/// materialized. It takes the first pushed vector whole (a producer's
/// buffer is moved in, not copied again), and it sums [`row_bytes`] over
/// the kept rows only when [`RowSink::finish`] asks, so collecting pays no
/// per-row accounting.
#[derive(Debug, Default)]
pub struct CollectSink {
    rows: Vec<Row>,
    stats: SinkStats,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> CollectSink {
        CollectSink::default()
    }

    /// The rows collected so far.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Consume the sink, yielding the collected rows.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }
}

impl RowSink for CollectSink {
    fn push(&mut self, rows: &mut Vec<Row>) -> TdbResult<bool> {
        self.stats.rows += rows.len() as u64;
        self.stats.batches += 1;
        if self.rows.is_empty() {
            std::mem::swap(&mut self.rows, rows);
        } else {
            self.rows.append(rows);
        }
        Ok(true)
    }

    fn push_count(&mut self, n: usize) -> TdbResult<bool> {
        self.stats.rows += n as u64;
        self.stats.batches += 1;
        Ok(true)
    }

    fn finish(&mut self) -> SinkStats {
        self.stats.bytes = self.rows.iter().map(row_bytes).sum();
        self.stats
    }
}

/// Counts rows without keeping any — `wants_rows` is `false`, so
/// producers that can count matches without widening them (the batch
/// kernels' count-only mode) skip payload materialization entirely.
#[derive(Debug, Default)]
pub struct CountSink {
    stats: SinkStats,
}

impl CountSink {
    /// A zeroed counter.
    pub fn new() -> CountSink {
        CountSink::default()
    }

    /// Rows counted so far.
    pub fn count(&self) -> u64 {
        self.stats.rows
    }
}

impl RowSink for CountSink {
    fn wants_rows(&self) -> bool {
        false
    }

    fn push(&mut self, rows: &mut Vec<Row>) -> TdbResult<bool> {
        self.stats.rows += rows.len() as u64;
        self.stats.bytes += rows.iter().map(row_bytes).sum::<u64>();
        self.stats.batches += 1;
        rows.clear();
        Ok(true)
    }

    fn push_count(&mut self, n: usize) -> TdbResult<bool> {
        self.stats.rows += n as u64;
        self.stats.batches += 1;
        Ok(true)
    }

    fn finish(&mut self) -> SinkStats {
        self.stats
    }
}

/// Keeps the first `limit` rows and asks the producer to stop once full —
/// the `\set limit` consumer. Rows offered past the limit are still
/// *counted* (so a producer that materialized everything anyway reports
/// the true total) but not retained.
#[derive(Debug)]
pub struct LimitSink {
    limit: usize,
    rows: Vec<Row>,
    stats: SinkStats,
}

impl LimitSink {
    /// A sink retaining at most `limit` rows.
    pub fn new(limit: usize) -> LimitSink {
        LimitSink {
            limit,
            rows: Vec::new(),
            stats: SinkStats::default(),
        }
    }

    /// Is the sink at its limit?
    pub fn full(&self) -> bool {
        self.rows.len() >= self.limit
    }

    /// The retained rows (at most `limit`).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Consume the sink, yielding the retained rows.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }
}

impl RowSink for LimitSink {
    fn push(&mut self, rows: &mut Vec<Row>) -> TdbResult<bool> {
        self.stats.batches += 1;
        for row in rows.drain(..) {
            self.stats.rows += 1;
            self.stats.bytes += row_bytes(&row);
            if self.rows.len() < self.limit {
                self.rows.push(row);
            } else {
                self.stats.truncated = true;
            }
        }
        if self.full() && self.stats.rows > self.rows.len() as u64 {
            self.stats.truncated = true;
        }
        Ok(!self.full())
    }

    fn push_count(&mut self, n: usize) -> TdbResult<bool> {
        self.stats.rows += n as u64;
        self.stats.batches += 1;
        Ok(!self.full())
    }

    fn finish(&mut self) -> SinkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i), Value::str("x")])
    }

    #[test]
    fn collect_sink_keeps_everything_and_counts() {
        let mut sink = CollectSink::new();
        let mut chunk = vec![row(1), row(2)];
        assert!(sink.push(&mut chunk).unwrap());
        assert!(chunk.is_empty());
        let mut chunk = vec![row(3)];
        assert!(sink.push(&mut chunk).unwrap());
        let stats = sink.finish();
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.batches, 2);
        assert!(!stats.truncated);
        assert_eq!(stats.bytes, 3 * row_bytes(&row(0)));
        assert_eq!(sink.into_rows().len(), 3);
    }

    #[test]
    fn count_sink_discards_rows_but_counts_bytes() {
        let mut sink = CountSink::new();
        assert!(!sink.wants_rows());
        let mut chunk = vec![row(1), row(2)];
        assert!(sink.push(&mut chunk).unwrap());
        assert!(chunk.is_empty());
        assert!(sink.push_count(5).unwrap());
        assert_eq!(sink.count(), 7);
        let stats = sink.finish();
        assert_eq!(stats.rows, 7);
        assert_eq!(stats.bytes, 2 * row_bytes(&row(0)));
    }

    #[test]
    fn limit_sink_signals_early_termination() {
        let mut sink = LimitSink::new(3);
        let mut chunk = vec![row(1), row(2)];
        assert!(sink.push(&mut chunk).unwrap(), "still has room");
        // This chunk fills the sink: the producer is told to stop.
        let mut chunk = vec![row(3), row(4)];
        assert!(!sink.push(&mut chunk).unwrap());
        let stats = sink.finish();
        assert_eq!(sink.rows().len(), 3);
        assert_eq!(stats.rows, 4, "dropped rows are still counted");
        assert!(stats.truncated);
    }

    #[test]
    fn limit_sink_exact_fit_is_not_truncated() {
        let mut sink = LimitSink::new(2);
        let mut chunk = vec![row(1), row(2)];
        assert!(!sink.push(&mut chunk).unwrap(), "full: stop the producer");
        let stats = sink.finish();
        assert_eq!(stats.rows, 2);
        assert!(!stats.truncated, "nothing was dropped");
    }
}
