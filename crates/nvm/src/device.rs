//! The emulated NVM device: persistent page frames plus the metadata arena.

use std::sync::Arc;

use parking_lot::RwLock;

use crate::crash::{CrashSchedule, WriteFate};
use crate::crc32::crc32;
use crate::dram::DramPool;
use crate::latency::{LatencyModel, CHUNK};
use crate::meta::MetaArena;
use crate::page::{zeroed_page, DramId, FrameId, PageBuf, PAGE_SIZE};
use crate::persist::{PersistMode, PersistModel, Space, CACHE_LINE};
use crate::stats::MemStats;

/// An emulated byte-addressable non-volatile memory device.
///
/// The device owns a fixed array of page frames (the data area handed to the
/// buddy allocator) and a [`MetaArena`] (the global metadata area of
/// Figure 3 of the paper, holding allocator state, the journal and the
/// checkpoint commit record).
///
/// Everything inside an `NvmDevice` survives a simulated power failure: the
/// crash path of the `treesls` facade drops all volatile state and threads
/// only this value (plus the typed backup-object stores, which conceptually
/// live in its slab space) into recovery.
///
/// Frames are individually locked so that non-leader cores can perform
/// speculative stop-and-copy of disjoint pages in parallel with the leader's
/// capability-tree checkpoint, as in step ❸ of the paper's Figure 5. Lock
/// ordering is by ascending frame id (and DRAM-before-NVM for cross-device
/// copies) to keep concurrent page copies deadlock-free.
///
/// Each frame carries a write *generation* next to its bytes, bumped under
/// the frame's write lock by every mutation (stores, torn prefixes, ADR
/// crash reverts, media faults). Equal generations mean equal bytes, so a
/// reader that remembers `(frame, generation)` can skip re-reading an
/// unchanged page ([`frame_gen`](Self::frame_gen),
/// [`read_gen`](Self::read_gen)).
///
/// Durability semantics are governed by the device's [`PersistModel`]: in
/// eADR mode (default, the paper's testbed) a store is durable on
/// execution; in ADR mode dirty cache lines stay volatile until
/// [`flush_frame`](Self::flush_frame)/[`flush_meta`](Self::flush_meta) +
/// [`fence`](Self::fence), and a simulated crash may drop any still-pending
/// subset ([`settle_crash`](Self::settle_crash)).
#[derive(Debug)]
pub struct NvmDevice {
    frames: Vec<RwLock<Frame>>,
    meta: MetaArena,
    latency: Arc<LatencyModel>,
    stats: Arc<MemStats>,
    /// Crash-injection schedule shared with the metadata arena: every page
    /// write ticks it *before* mutating the frame, so a scheduled crash
    /// lands between two persistent stores exactly like a power failure.
    crash: Arc<CrashSchedule>,
    /// Cache-line durability tracking shared with the metadata arena.
    persist: Arc<PersistModel>,
}

/// One page frame: its bytes plus the write generation that changes with
/// them (both under the same lock).
#[derive(Debug)]
struct Frame {
    data: PageBuf,
    gen: u64,
}

impl Frame {
    /// Bumps the generation; call with the write lock held, alongside the
    /// byte mutation it stands for.
    fn touch(&mut self) -> &mut PageBuf {
        self.gen += 1;
        &mut self.data
    }
}

impl NvmDevice {
    /// Creates a device with `frame_count` zeroed page frames and a zeroed
    /// metadata arena of `meta_len` bytes.
    pub fn new(frame_count: usize, meta_len: usize, latency: Arc<LatencyModel>) -> Self {
        let stats = Arc::new(MemStats::new());
        let crash = Arc::new(CrashSchedule::new());
        let persist = Arc::new(PersistModel::new());
        let frames =
            (0..frame_count).map(|_| RwLock::new(Frame { data: zeroed_page(), gen: 0 })).collect();
        let meta = MetaArena::new(
            meta_len,
            Arc::clone(&latency),
            Arc::clone(&stats),
            Arc::clone(&crash),
            Arc::clone(&persist),
        );
        Self { frames, meta, latency, stats, crash, persist }
    }

    /// The crash-injection schedule covering this device's whole persistent
    /// write stream (metadata + page frames).
    pub fn crash_schedule(&self) -> &Arc<CrashSchedule> {
        &self.crash
    }

    /// The cache-line durability model shared with the metadata arena.
    pub fn persist_model(&self) -> &Arc<PersistModel> {
        &self.persist
    }

    /// Switches the persistence model (eADR / ADR). Pending lines are
    /// considered drained by the switch.
    pub fn set_persist_mode(&self, mode: PersistMode) {
        self.persist.set_mode(mode);
    }

    /// Marks the metadata range for write-back (`clwb`).
    pub fn flush_meta(&self, off: usize, len: usize) {
        self.persist.flush(Space::Meta, off, len);
    }

    /// Marks the frame byte range for write-back (`clwb`).
    pub fn flush_frame(&self, frame: FrameId, off: usize, len: usize) {
        self.persist.flush(Space::Frame(frame.0), off, len);
    }

    /// Store fence: retires every flushed line to media (`sfence`).
    pub fn fence(&self) {
        self.persist.fence();
    }

    /// Flush-everything-and-fence over both spaces — the strongest
    /// ordering point (wraps the checkpoint commit record).
    pub fn persist_barrier(&self) {
        self.persist.persist_barrier();
    }

    /// Simulates the ADR power-failure outcome: a `seed`-selected subset of
    /// the still-pending cache lines never drained and is reverted to its
    /// pre-write media content. Returns the number of dropped lines.
    /// (`seed == u64::MAX` drops every pending line.) No-op under eADR.
    pub fn settle_crash(&self, seed: u64) -> usize {
        let dropped = self.persist.settle_crash(seed);
        for d in &dropped {
            match d.space {
                Space::Meta => self.meta.revert_line(d.line_off, &d.undo),
                Space::Frame(f) => {
                    let mut g = self.frames[f as usize].write();
                    let page = g.touch();
                    let end = (d.line_off + CACHE_LINE).min(page.len());
                    page[d.line_off..end].copy_from_slice(&d.undo[..end - d.line_off]);
                }
            }
        }
        dropped.len()
    }

    /// Number of page frames in the data area.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// The persistent metadata arena.
    pub fn meta(&self) -> &MetaArena {
        &self.meta
    }

    /// The latency model shared by this device.
    pub fn latency(&self) -> &Arc<LatencyModel> {
        &self.latency
    }

    /// Cumulative access statistics.
    pub fn stats(&self) -> &Arc<MemStats> {
        &self.stats
    }

    /// The single internal store path: ticks the crash schedule, tracks
    /// durability, and applies the bytes — in full, or torn at a cache-line
    /// boundary when a [`CrashPoint::TornWrite`](crate::CrashPoint) fires.
    /// Latency/stats accounting stays with the public callers.
    fn frame_store(&self, frame: FrameId, off: usize, data: &[u8]) {
        let fate = self.crash.on_page_write(off, data.len());
        let space = Space::Frame(frame.0);
        match fate {
            WriteFate::Apply => {
                let mut g = self.frames[frame.index()].write();
                self.persist.note_write(space, off, data.len(), |line| {
                    let mut l = [0u8; CACHE_LINE];
                    let end = (line + CACHE_LINE).min(g.data.len());
                    l[..end - line].copy_from_slice(&g.data[line..end]);
                    l
                });
                g.touch()[off..off + data.len()].copy_from_slice(data);
            }
            WriteFate::Torn { keep } => {
                if keep > 0 {
                    let mut g = self.frames[frame.index()].write();
                    g.touch()[off..off + keep].copy_from_slice(&data[..keep]);
                }
                // The applied prefix is what defines the tear: those lines
                // reached media.
                self.persist.retire_prefix(space, off, keep);
                self.crash.crash_now();
            }
        }
    }

    /// Reads `buf.len()` bytes from `frame` starting at byte `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range `off..off + buf.len()` exceeds the page.
    pub fn read(&self, frame: FrameId, off: usize, buf: &mut [u8]) {
        self.read_gen(frame, off, buf);
    }

    /// [`read`](Self::read) that also returns the frame's write
    /// generation for exactly the bytes read (both under one lock hold).
    pub fn read_gen(&self, frame: FrameId, off: usize, buf: &mut [u8]) -> u64 {
        self.latency.charge_read(buf.len());
        self.stats.record_read(buf.len());
        let g = self.frames[frame.index()].read();
        buf.copy_from_slice(&g.data[off..off + buf.len()]);
        g.gen
    }

    /// Writes `data` into `frame` starting at byte `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page.
    pub fn write(&self, frame: FrameId, off: usize, data: &[u8]) {
        self.latency.charge_write(data.len());
        self.stats.record_write(data.len());
        self.frame_store(frame, off, data);
    }

    /// Reads a little-endian `u64` at byte `off` of `frame`.
    pub fn read_u64(&self, frame: FrameId, off: usize) -> u64 {
        let mut b = [0u8; 8];
        self.read(frame, off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at byte `off` of `frame`.
    pub fn write_u64(&self, frame: FrameId, off: usize, v: u64) {
        self.write(frame, off, &v.to_le_bytes());
    }

    /// Copies the full content of `frame` into `out`.
    pub fn read_page(&self, frame: FrameId, out: &mut [u8; PAGE_SIZE]) {
        self.read_gen(frame, 0, out);
    }

    /// The frame's current write generation: a metadata lookup, not a
    /// media read (no latency, no read bytes). A generation equal to one
    /// returned by [`read_gen`](Self::read_gen) means the frame's bytes
    /// have not changed since.
    pub fn frame_gen(&self, frame: FrameId) -> u64 {
        self.frames[frame.index()].read().gen
    }

    /// Overwrites the full content of `frame` from `data`.
    pub fn write_page(&self, frame: FrameId, data: &[u8; PAGE_SIZE]) {
        self.latency.charge_write(PAGE_SIZE);
        self.stats.record_write(PAGE_SIZE);
        self.frame_store(frame, 0, data);
    }

    /// Zeroes the full content of `frame`.
    pub fn zero_page(&self, frame: FrameId) {
        self.latency.charge_write(PAGE_SIZE);
        self.stats.record_write(PAGE_SIZE);
        self.frame_store(frame, 0, &[0u8; PAGE_SIZE]);
    }

    /// Stores the whole-page image `data` into `dst` by writing only the
    /// [`CHUNK`]-sized runs that differ from `dst`'s current bytes (256 B,
    /// the Optane XPLine: the unit the media would write anyway). Each
    /// maximal run of differing chunks is one store through the common
    /// write path, so crash-schedule and torn-write injection see every
    /// run. Latency and byte counters charge the comparison read and the
    /// stored runs only.
    ///
    /// Skipped chunks are not re-stored, so under ADR a skipped chunk may
    /// still be a pending line of an earlier store: callers that need the
    /// copy durable flush the *whole* frame, not just what was stored.
    fn store_diff(&self, dst: FrameId, data: &[u8; PAGE_SIZE]) {
        const NCHUNKS: usize = PAGE_SIZE / CHUNK;
        self.latency.charge_read(PAGE_SIZE);
        self.stats.record_read(PAGE_SIZE);
        let mut differs = [false; NCHUNKS];
        {
            let g = self.frames[dst.index()].read();
            let pairs = g.data.chunks_exact(CHUNK).zip(data.chunks_exact(CHUNK));
            for (d, (a, b)) in differs.iter_mut().zip(pairs) {
                *d = a != b;
            }
        }
        let mut stored = 0;
        let mut i = 0;
        while i < NCHUNKS {
            if !differs[i] {
                i += 1;
                continue;
            }
            let start = i;
            while i < NCHUNKS && differs[i] {
                i += 1;
            }
            let (off, end) = (start * CHUNK, i * CHUNK);
            self.latency.charge_write(end - off);
            self.stats.record_write(end - off);
            self.frame_store(dst, off, &data[off..end]);
            stored += i - start;
        }
        self.stats.record_chunks(stored as u64, (NCHUNKS - stored) as u64);
    }

    /// Copies one NVM page to another NVM page (`src` → `dst`) and
    /// returns the CRC-32 of the copied image.
    ///
    /// The source is snapshotted under its read lock, then diff-stored
    /// into `dst`: only the 256 B chunks that differ from `dst`'s current
    /// content are written, each run of them as one store.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    pub fn copy_frame(&self, src: FrameId, dst: FrameId) -> u32 {
        assert_ne!(src, dst, "copy_frame requires distinct frames");
        self.latency.charge_read(PAGE_SIZE);
        self.stats.record_read(PAGE_SIZE);
        self.stats.record_page_copy();
        let mut tmp = zeroed_page();
        tmp.copy_from_slice(&self.frames[src.index()].read().data[..]);
        self.store_diff(dst, &tmp);
        crc32(&tmp[..])
    }

    /// Copies a DRAM page into an NVM frame (`src` → `dst`), storing only
    /// the chunks that differ, and returns the CRC-32 of the copied image.
    pub fn copy_from_dram(&self, dram: &DramPool, src: DramId, dst: FrameId) -> u32 {
        self.stats.record_page_copy();
        let mut tmp = zeroed_page();
        tmp.copy_from_slice(&dram.lock_page(src)[..]);
        self.store_diff(dst, &tmp);
        crc32(&tmp[..])
    }

    /// Copies an NVM frame into a DRAM page (`src` → `dst`) and returns
    /// the CRC-32 of the copied image (hashed from the DRAM copy, so the
    /// frame is read once).
    ///
    /// Cross-device lock order is DRAM before NVM.
    pub fn copy_to_dram(&self, src: FrameId, dram: &DramPool, dst: DramId) -> u32 {
        self.latency.charge_read(PAGE_SIZE);
        self.stats.record_read(PAGE_SIZE);
        let mut d = dram.lock_page_mut(dst);
        d.copy_from_slice(&self.frames[src.index()].read().data[..]);
        crc32(&d[..])
    }

    /// Returns `true` if the two frames hold identical bytes.
    pub fn pages_equal(&self, a: FrameId, b: FrameId) -> bool {
        if a == b {
            return true;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let ga = self.frames[lo.index()].read();
        let gb = self.frames[hi.index()].read();
        ga.data == gb.data
    }

    /// CRC-32 of the frame's full content — the integrity tag the
    /// checkpoint manager stores alongside each backup page image.
    pub fn page_crc(&self, frame: FrameId) -> u32 {
        self.latency.charge_read(PAGE_SIZE);
        self.stats.record_read(PAGE_SIZE);
        crc32(&self.frames[frame.index()].read().data[..])
    }

    // ------------------------------------------------------------------
    // Media-fault injection (bit rot / poisoned frames). These mutate the
    // media directly — no crash tick, no stats, no durability tracking —
    // exactly like a cosmic ray or a failing cell, not a CPU store. They
    // do bump the frame generation: the bytes changed.
    // ------------------------------------------------------------------

    /// Flips one bit of `frame` at `byte_off` (media fault, not a store).
    pub fn flip_frame_bit(&self, frame: FrameId, byte_off: usize, bit: u8) {
        self.frames[frame.index()].write().touch()[byte_off] ^= 1 << (bit & 7);
    }

    /// Flips one bit of the metadata arena at `off` (media fault).
    pub fn flip_meta_bit(&self, off: usize, bit: u8) {
        self.meta.flip_bit(off, bit);
    }

    /// Poisons a whole frame with a recognizable rot pattern (media fault).
    pub fn poison_frame(&self, frame: FrameId) {
        self.frames[frame.index()].write().touch().fill(0xDE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashPoint;
    use crate::InjectedCrash;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn dev(frames: usize) -> NvmDevice {
        NvmDevice::new(frames, 1024, Arc::new(LatencyModel::disabled()))
    }

    #[test]
    fn frames_start_zeroed() {
        let d = dev(4);
        let mut p = [0xFFu8; PAGE_SIZE];
        d.read_page(FrameId(0), &mut p);
        assert!(p.iter().all(|&b| b == 0));
    }

    #[test]
    fn partial_read_write() {
        let d = dev(2);
        d.write(FrameId(1), 100, b"treesls");
        let mut b = [0u8; 7];
        d.read(FrameId(1), 100, &mut b);
        assert_eq!(&b, b"treesls");
    }

    #[test]
    fn u64_roundtrip() {
        let d = dev(1);
        d.write_u64(FrameId(0), 8, 0xFEED_FACE);
        assert_eq!(d.read_u64(FrameId(0), 8), 0xFEED_FACE);
    }

    #[test]
    fn copy_frame_both_directions() {
        let d = dev(3);
        d.write(FrameId(0), 0, b"abc");
        d.copy_frame(FrameId(0), FrameId(2));
        assert!(d.pages_equal(FrameId(0), FrameId(2)));
        d.write(FrameId(2), 0, b"xyz");
        d.copy_frame(FrameId(2), FrameId(1));
        let mut b = [0u8; 3];
        d.read(FrameId(1), 0, &mut b);
        assert_eq!(&b, b"xyz");
    }

    #[test]
    #[should_panic(expected = "distinct frames")]
    fn copy_frame_rejects_same_frame() {
        dev(1).copy_frame(FrameId(0), FrameId(0));
    }

    #[test]
    fn dram_round_trip() {
        let d = dev(2);
        let pool = DramPool::new(2);
        let page = pool.alloc().expect("dram page");
        d.write(FrameId(0), 0, b"hot");
        d.copy_to_dram(FrameId(0), &pool, page);
        pool.write(page, 3, b"ter");
        d.copy_from_dram(&pool, page, FrameId(1));
        let mut b = [0u8; 6];
        d.read(FrameId(1), 0, &mut b);
        assert_eq!(&b, b"hotter");
    }

    #[test]
    fn stats_track_copies() {
        let d = dev(2);
        d.copy_frame(FrameId(0), FrameId(1));
        assert_eq!(d.stats().snapshot().page_copies, 1);
    }

    #[test]
    fn concurrent_disjoint_copies() {
        let d = Arc::new(dev(64));
        for i in 0..32u32 {
            d.write(FrameId(i), 0, &i.to_le_bytes());
        }
        let mut handles = Vec::new();
        for t in 0..4 {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                for i in (t..32).step_by(4) {
                    d.copy_frame(FrameId(i as u32), FrameId(32 + i as u32));
                }
            }));
        }
        for h in handles {
            h.join().expect("copier thread");
        }
        for i in 0..32u32 {
            assert!(d.pages_equal(FrameId(i), FrameId(32 + i)));
        }
    }

    #[test]
    fn torn_page_write_applies_prefix_only() {
        let d = dev(2);
        d.crash_schedule().arm(CrashPoint::TornWrite { skip: 0, cut: 2 });
        let page = [0xABu8; PAGE_SIZE];
        let err = catch_unwind(AssertUnwindSafe(|| d.write_page(FrameId(0), &page)))
            .expect_err("torn write must crash");
        assert!(err.is::<InjectedCrash>());
        let mut out = [0u8; PAGE_SIZE];
        d.crash_schedule().disarm();
        d.read_page(FrameId(0), &mut out);
        assert!(out[..128].iter().all(|&b| b == 0xAB), "two lines applied");
        assert!(out[128..].iter().all(|&b| b == 0), "rest never reached media");
    }

    #[test]
    fn adr_settle_reverts_unflushed_lines() {
        let d = dev(2);
        d.set_persist_mode(PersistMode::Adr { reorder_window: 1024 });
        d.write(FrameId(0), 0, &[0x11u8; 128]);
        d.write(FrameId(0), 128, &[0x22u8; 64]);
        // Flush+fence only the first 128 bytes; the third line is pending.
        d.flush_frame(FrameId(0), 0, 128);
        d.fence();
        assert_eq!(d.settle_crash(u64::MAX), 1);
        let mut out = [0u8; PAGE_SIZE];
        d.read_page(FrameId(0), &mut out);
        assert!(out[..128].iter().all(|&b| b == 0x11), "fenced lines survive");
        assert!(out[128..192].iter().all(|&b| b == 0), "pending line reverted");
        d.set_persist_mode(PersistMode::Eadr);
    }

    #[test]
    fn persist_barrier_drains_everything() {
        let d = dev(1);
        d.set_persist_mode(PersistMode::Adr { reorder_window: 1024 });
        d.write(FrameId(0), 0, &[0x33u8; 256]);
        d.persist_barrier();
        assert_eq!(d.settle_crash(u64::MAX), 0);
        let mut out = [0u8; PAGE_SIZE];
        d.read_page(FrameId(0), &mut out);
        assert!(out[..256].iter().all(|&b| b == 0x33));
    }

    #[test]
    fn every_mutation_bumps_the_frame_generation() {
        let d = dev(3);
        d.set_persist_mode(PersistMode::Adr { reorder_window: 1024 });
        let mut page = [0u8; PAGE_SIZE];
        let g0 = d.frame_gen(FrameId(0));
        d.write(FrameId(0), 0, b"x");
        let g1 = d.frame_gen(FrameId(0));
        assert!(g1 > g0, "a store bumps");
        assert_eq!(d.read_gen(FrameId(0), 0, &mut page), g1, "a read does not");
        assert_eq!(d.frame_gen(FrameId(1)), 0, "other frames untouched");
        assert!(d.settle_crash(u64::MAX) > 0);
        let g2 = d.frame_gen(FrameId(0));
        assert!(g2 > g1, "an ADR revert bumps");
        d.set_persist_mode(PersistMode::Eadr);
        d.flip_frame_bit(FrameId(0), 7, 1);
        let g3 = d.frame_gen(FrameId(0));
        assert!(g3 > g2, "bit rot bumps");
        d.poison_frame(FrameId(0));
        let g4 = d.frame_gen(FrameId(0));
        assert!(g4 > g3, "poison bumps");
        d.crash_schedule().arm(CrashPoint::TornWrite { skip: 0, cut: 1 });
        catch_unwind(AssertUnwindSafe(|| d.write_page(FrameId(0), &[1u8; PAGE_SIZE])))
            .expect_err("torn write must crash");
        d.crash_schedule().disarm();
        assert!(d.frame_gen(FrameId(0)) > g4, "a torn prefix bumps");
        // A diff copy of identical bytes stores nothing and keeps the gen.
        d.copy_frame(FrameId(1), FrameId(2));
        assert_eq!(d.frame_gen(FrameId(2)), 0);
    }

    #[test]
    fn diff_copy_stores_only_differing_chunks() {
        let d = dev(2);
        d.write(FrameId(0), 0, &[7u8; PAGE_SIZE]);
        d.copy_frame(FrameId(0), FrameId(1));
        let before = d.stats().snapshot();
        d.write(FrameId(0), 300, b"ab"); // chunk 1
        d.write(FrameId(0), 3000, b"c"); // chunk 11
        let crc = d.copy_frame(FrameId(0), FrameId(1));
        let s = d.stats().snapshot().since(&before);
        assert!(d.pages_equal(FrameId(0), FrameId(1)));
        assert_eq!(crc, d.page_crc(FrameId(1)));
        assert_eq!((s.chunks_stored, s.chunks_skipped), (2, 14));
        assert_eq!(s.bytes_written, 3 + 2 * CHUNK as u64);
        assert_eq!(s.page_copies, 1);
    }

    #[test]
    fn adr_flush_covers_a_skipped_chunk_still_pending_from_an_earlier_store() {
        // The destination's chunk 0 already holds the source's bytes, but
        // from an unflushed store: the diff copy skips it, so only the
        // whole-frame flush keeps a crash from reverting it.
        for flush_whole_frame in [true, false] {
            let d = dev(2);
            d.write(FrameId(0), 0, &[0x5Au8; PAGE_SIZE]);
            d.persist_barrier();
            d.set_persist_mode(PersistMode::Adr { reorder_window: 1024 });
            d.write(FrameId(1), 0, &[0x5Au8; CHUNK]);
            d.copy_frame(FrameId(0), FrameId(1));
            if flush_whole_frame {
                d.flush_frame(FrameId(1), 0, PAGE_SIZE);
            } else {
                d.flush_frame(FrameId(1), CHUNK, PAGE_SIZE - CHUNK);
            }
            d.fence();
            d.settle_crash(u64::MAX);
            assert_eq!(
                d.pages_equal(FrameId(0), FrameId(1)),
                flush_whole_frame,
                "flush_whole_frame = {flush_whole_frame}"
            );
        }
    }

    #[test]
    fn page_crc_detects_single_bit_rot() {
        let d = dev(1);
        d.write(FrameId(0), 0, b"integrity matters");
        let before = d.page_crc(FrameId(0));
        d.flip_frame_bit(FrameId(0), 5, 3);
        assert_ne!(d.page_crc(FrameId(0)), before);
        d.flip_frame_bit(FrameId(0), 5, 3);
        assert_eq!(d.page_crc(FrameId(0)), before);
    }
}
