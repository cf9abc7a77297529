//! Access counters for the emulated memory devices.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative access statistics for a device.
///
/// All counters are monotonically increasing and updated with relaxed
/// atomics; they are read by the benchmark harness after a run, never used
/// for synchronization.
#[derive(Debug, Default)]
pub struct MemStats {
    /// Total bytes written.
    pub bytes_written: AtomicU64,
    /// Total bytes read.
    pub bytes_read: AtomicU64,
    /// Whole-page copies performed on this device (as destination): one
    /// per copy call, however few of its chunks differed.
    pub page_copies: AtomicU64,
    /// Pages currently allocated (incremented by owners, not the device).
    pub pages_allocated: AtomicU64,
    /// Page-copy chunks ([`CHUNK`](crate::latency::CHUNK) bytes) that
    /// differed from the destination and were stored.
    pub chunks_stored: AtomicU64,
    /// Page-copy chunks already equal at the destination, not stored.
    pub chunks_skipped: AtomicU64,
}

impl MemStats {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a write of `n` bytes.
    #[inline]
    pub fn record_write(&self, n: usize) {
        self.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records a read of `n` bytes.
    #[inline]
    pub fn record_read(&self, n: usize) {
        self.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records one whole-page copy landing on this device.
    #[inline]
    pub fn record_page_copy(&self) {
        self.page_copies.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the chunk outcome of one diff page copy.
    #[inline]
    pub fn record_chunks(&self, stored: u64, skipped: u64) {
        self.chunks_stored.fetch_add(stored, Ordering::Relaxed);
        self.chunks_skipped.fetch_add(skipped, Ordering::Relaxed);
    }

    /// Returns a point-in-time snapshot of the counters.
    pub fn snapshot(&self) -> MemStatsSnapshot {
        MemStatsSnapshot {
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            page_copies: self.page_copies.load(Ordering::Relaxed),
            pages_allocated: self.pages_allocated.load(Ordering::Relaxed),
            chunks_stored: self.chunks_stored.load(Ordering::Relaxed),
            chunks_skipped: self.chunks_skipped.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`MemStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStatsSnapshot {
    /// Total bytes written at snapshot time.
    pub bytes_written: u64,
    /// Total bytes read at snapshot time.
    pub bytes_read: u64,
    /// Whole-page copies at snapshot time.
    pub page_copies: u64,
    /// Pages allocated at snapshot time.
    pub pages_allocated: u64,
    /// Page-copy chunks stored at snapshot time.
    pub chunks_stored: u64,
    /// Page-copy chunks skipped (already equal) at snapshot time.
    pub chunks_skipped: u64,
}

impl MemStatsSnapshot {
    /// Returns the difference `self - earlier` field-wise.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is a later snapshot (counters are
    /// monotonic, so subtraction must not underflow).
    pub fn since(&self, earlier: &MemStatsSnapshot) -> MemStatsSnapshot {
        MemStatsSnapshot {
            bytes_written: self.bytes_written - earlier.bytes_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
            page_copies: self.page_copies - earlier.page_copies,
            pages_allocated: self.pages_allocated.saturating_sub(earlier.pages_allocated),
            chunks_stored: self.chunks_stored - earlier.chunks_stored,
            chunks_skipped: self.chunks_skipped - earlier.chunks_skipped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = MemStats::new();
        s.record_write(100);
        s.record_write(28);
        s.record_read(4096);
        s.record_page_copy();
        let snap = s.snapshot();
        assert_eq!(snap.bytes_written, 128);
        assert_eq!(snap.bytes_read, 4096);
        assert_eq!(snap.page_copies, 1);
    }

    #[test]
    fn snapshot_difference() {
        let s = MemStats::new();
        s.record_write(10);
        let a = s.snapshot();
        s.record_write(5);
        s.record_read(7);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.bytes_written, 5);
        assert_eq!(d.bytes_read, 7);
    }
}
