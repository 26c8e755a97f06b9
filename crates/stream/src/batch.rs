//! Columnar row batches — the input layout of the sweep kernels.
//!
//! Piatov et al. (PAPERS.md, cache-efficient sweeping) observe that
//! row-at-a-time pull loops leave sweep operators memory-bound: every
//! `next()` call touches a whole tuple (payload included) just to read two
//! timestamps, and the per-call dispatch dominates once the comparison
//! itself is a single integer compare. A [`RowBatch`] fixes both problems
//! structurally: the `ValidFrom`/`ValidTo` endpoint columns are stored as
//! dense `i64` arrays that stay cache-resident while the sweep runs, and
//! payloads are only touched when a tuple actually matches.
//!
//! Each kernel of [`crate::batch_ops`] takes one whole, sorted input per
//! side as a `RowBatch` ([`RowBatch::from_sorted`]) and consumes it in one
//! loop, dropping each payload once the sweep is past it.

use tdb_core::{StreamOrder, TdbError, TdbResult, Temporal};

/// Default number of items per output chunk a producer hands to its
/// consumer ([`crate::Emit`]). 1024 pairs bound what a limit-style
/// consumer receives before it can stop the producer, while keeping the
/// per-chunk call and allocation cost negligible next to the sweep.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// Upper bound accepted for a configured chunk size (engine `\set batch`).
pub const MAX_BATCH_ROWS: usize = 1 << 20;

/// A columnar batch of temporal rows: the `ValidFrom` (TS) and `ValidTo`
/// (TE) endpoints of every row as dense `i64` columns, plus the row
/// payloads in matching positions.
///
/// The endpoint columns are *the* data the sweep loops of
/// [`crate::batch_ops`] iterate; payloads are touched only on a match.
#[derive(Debug, Clone, Default)]
pub struct RowBatch<T> {
    pub(crate) ts: Vec<i64>,
    pub(crate) te: Vec<i64>,
    pub(crate) payload: Vec<T>,
}

impl<T: Temporal> RowBatch<T> {
    /// Take ownership of `items`, verifying the claimed `order` in O(n)
    /// (like [`crate::stream::from_sorted_vec`]), and lay their endpoints
    /// out as the two columns beside the moved payload vector.
    pub fn from_sorted(items: Vec<T>, order: StreamOrder) -> TdbResult<RowBatch<T>> {
        if let Some(i) = order.first_violation(&items) {
            return Err(TdbError::OrderViolation {
                context: "RowBatch",
                detail: format!("claimed {order} violated at index {i}"),
            });
        }
        Ok(RowBatch {
            ts: items.iter().map(|t| t.ts().ticks()).collect(),
            te: items.iter().map(|t| t.te().ticks()).collect(),
            payload: items,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_core::TsTuple;

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    #[test]
    fn batch_splits_columns() {
        let b = RowBatch::from_sorted(vec![iv(0, 5), iv(2, 9)], StreamOrder::TS_ASC).unwrap();
        assert_eq!(b.ts, [0, 2]);
        assert_eq!(b.te, [5, 9]);
        assert_eq!(b.payload, [iv(0, 5), iv(2, 9)]);
    }

    #[test]
    fn from_sorted_validates_order() {
        let bad = RowBatch::from_sorted(vec![iv(5, 9), iv(0, 1)], StreamOrder::TS_ASC);
        assert!(matches!(bad, Err(TdbError::OrderViolation { .. })));
        let ok = RowBatch::from_sorted(vec![iv(0, 1), iv(5, 9)], StreamOrder::TS_ASC).unwrap();
        assert_eq!(ok.payload.len(), 2);
        assert!(RowBatch::<TsTuple>::from_sorted(vec![], StreamOrder::TE_ASC).is_ok());
    }
}
