//! Shared I/O counters.
//!
//! Every component that touches the disk (heap files, run files, the
//! external sorter) increments a shared [`IoStats`] handle, so an
//! experiment can report exactly how many page reads/writes a plan cost —
//! the "number of disk accesses" axis of the paper's Section 4.1 tradeoff.
//! The catalog also counts its row-snapshot hits and misses here, so the
//! same handle shows how often a scan was served without touching disk.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct Counters {
    pages_read: AtomicU64,
    pages_written: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    snapshot_hits: AtomicU64,
    snapshot_misses: AtomicU64,
}

/// A cheaply cloneable handle onto shared I/O counters.
#[derive(Debug, Clone, Default)]
pub struct IoStats {
    inner: Arc<Counters>,
}

/// A point-in-time snapshot of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Pages read from disk.
    pub pages_read: u64,
    /// Pages written to disk.
    pub pages_written: u64,
    /// Bytes read from disk.
    pub bytes_read: u64,
    /// Bytes written to disk.
    pub bytes_written: u64,
    /// Relation reads served from the catalog's decoded row snapshot.
    pub snapshot_hits: u64,
    /// Relation reads that decoded the heap file (each implies page reads).
    pub snapshot_misses: u64,
}

impl IoStats {
    /// A fresh set of counters.
    pub fn new() -> IoStats {
        IoStats::default()
    }

    /// Record a page read of `bytes` bytes.
    pub fn record_read(&self, bytes: u64) {
        self.inner.pages_read.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a page write of `bytes` bytes.
    pub fn record_write(&self, bytes: u64) {
        self.inner.pages_written.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a read served from an in-memory snapshot.
    pub fn record_hit(&self) {
        self.inner.snapshot_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a read that had to go to disk to fill a snapshot.
    pub fn record_miss(&self) {
        self.inner.snapshot_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            pages_read: self.inner.pages_read.load(Ordering::Relaxed),
            pages_written: self.inner.pages_written.load(Ordering::Relaxed),
            bytes_read: self.inner.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.inner.bytes_written.load(Ordering::Relaxed),
            snapshot_hits: self.inner.snapshot_hits.load(Ordering::Relaxed),
            snapshot_misses: self.inner.snapshot_misses.load(Ordering::Relaxed),
        }
    }
}

impl IoSnapshot {
    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            pages_read: self.pages_read - earlier.pages_read,
            pages_written: self.pages_written - earlier.pages_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            snapshot_hits: self.snapshot_hits - earlier.snapshot_hits,
            snapshot_misses: self.snapshot_misses - earlier.snapshot_misses,
        }
    }
}

impl fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read {} pages ({} B), wrote {} pages ({} B), snapshot {}/{} hit/miss",
            self.pages_read,
            self.bytes_read,
            self.pages_written,
            self.bytes_written,
            self.snapshot_hits,
            self.snapshot_misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_read(4096);
        s.record_read(4096);
        s.record_write(8192);
        s.record_hit();
        s.record_miss();
        let snap = s.snapshot();
        assert_eq!(snap.pages_read, 2);
        assert_eq!(snap.bytes_read, 8192);
        assert_eq!(snap.pages_written, 1);
        assert_eq!(snap.snapshot_hits, 1);
        assert_eq!(snap.snapshot_misses, 1);
    }

    #[test]
    fn clones_share_counters() {
        let s = IoStats::new();
        let t = s.clone();
        t.record_write(10);
        assert_eq!(s.snapshot().pages_written, 1);
    }

    #[test]
    fn since_computes_deltas() {
        let s = IoStats::new();
        s.record_read(1);
        let before = s.snapshot();
        s.record_read(1);
        s.record_read(1);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.pages_read, 2);
        assert_eq!(delta.pages_written, 0);
    }

    #[test]
    fn display_mentions_pages() {
        let s = IoStats::new();
        s.record_read(100);
        assert!(s.snapshot().to_string().contains("read 1 pages"));
    }
}
