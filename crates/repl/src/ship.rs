//! The primary side: shipping each committed round's delta to every
//! replica and holding the NIC's visibility barrier at the
//! quorum-durable round.
//!
//! The dirty-queue drain *is* the delta ([`RoundDelta`]): the shipper
//! serializes only the records the round rewrote plus the page images
//! whose CRC changed since they were last shipped, so wire bytes scale
//! with the change rate, not the tree size (the same O(changes) argument
//! as the checkpoint itself). A replica that misses anything — drop,
//! reorder past the window, corruption, its own crash — requests a
//! resync and receives a full snapshot instead of the next delta.
//!
//! Building a delta costs what changed, too: a rewritten PMO record
//! still lists every page in its manifest, but the shipper remembers
//! where each shipped image came from (`PageSource`) and reads a page
//! from NVM only when that source may have changed — a backup or capture
//! whose stored CRC differs, or a runtime frame (or in-line log) whose
//! device write generation moved. An unchanged page costs one metadata
//! lookup, not a 4 KiB read and a CRC.
//!
//! External synchrony across machines: the shipper runs *before* the
//! NIC's checkpoint callback (`register_callback_front`), waits up to
//! `ack_timeout` for the round to be durable on `quorum` machines
//! (counting the primary), and publishes the result through
//! [`ReplHealth`], the [`ReleaseGate`] the NIC consults. Quorum met →
//! the barrier releases through this round. Quorum lost → the barrier
//! stays at the last durable round (responses for newer state are held,
//! not dropped), new writes are shed with `Busy`, reads keep flowing,
//! and the health flips to degraded until a later round reaches quorum.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use treesls_checkpoint::{CheckpointManager, CkptCallback, RoundDelta};
use treesls_kernel::kernel::Kernel;
use treesls_kernel::oroot::{BackupObject, BkThreadState};
use treesls_kernel::pmo::{apply_undo_records, parse_undo_records, PageMeta, PagePtr, RestoreImage};
use treesls_net::repl::ReleaseGate;
use treesls_net::{ReplChannel, ShipError};
use treesls_nvm::{crash_site, FrameId, PAGE_SIZE};
use treesls_obs::EventKind;

use crate::wire::{Frame, WireRecord, WireRegion, WireThreadState};

/// Replication tunables.
#[derive(Debug, Clone)]
pub struct ShipConfig {
    /// Machines (including the primary) that must hold a round durably
    /// before the visibility barrier releases it. `1` = no remote wait:
    /// single-box behavior, the compatibility oracle.
    pub quorum: usize,
    /// How long to wait for quorum before declaring degraded mode.
    pub ack_timeout: Duration,
    /// Per-frame push retries when a replica's ring is full.
    pub max_retries: u32,
    /// Base retry backoff; doubles per attempt up to `backoff_cap`.
    pub backoff: Duration,
    /// Retry backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for ShipConfig {
    fn default() -> Self {
        Self {
            quorum: 1,
            ack_timeout: Duration::from_millis(50),
            max_retries: 6,
            backoff: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(2),
        }
    }
}

/// Classifies a request payload as a write (`true`) for degraded-mode
/// shedding.
pub type WriteClassifier = Arc<dyn Fn(&[u8]) -> bool + Send + Sync>;

/// Cluster durability state; implements the [`ReleaseGate`] the NIC
/// consults on every checkpoint and every admitted request.
pub struct ReplHealth {
    durable: AtomicU64,
    degraded: AtomicBool,
    /// Degraded-mode write classifier. `None` sheds everything while
    /// degraded (conservative).
    write_classifier: Mutex<Option<WriteClassifier>>,
}

impl ReplHealth {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            durable: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            write_classifier: Mutex::new(None),
        })
    }

    /// Highest round durable on a quorum of machines.
    pub fn durable_round(&self) -> u64 {
        self.durable.load(Ordering::SeqCst)
    }

    /// Whether the cluster is below quorum (writes shed, barrier held).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Installs the payload classifier degraded mode uses to shed writes
    /// while still admitting reads.
    pub fn set_write_classifier(&self, f: WriteClassifier) {
        *self.write_classifier.lock() = Some(f);
    }
}

impl ReleaseGate for ReplHealth {
    fn release_bound(&self, committed: u64) -> u64 {
        committed.min(self.durable.load(Ordering::SeqCst))
    }

    fn admit(&self, payload: &[u8]) -> bool {
        if !self.degraded.load(Ordering::SeqCst) {
            return true;
        }
        match self.write_classifier.lock().clone() {
            Some(is_write) => !is_write(payload),
            None => false,
        }
    }
}

struct Peer {
    id: usize,
    ch: Arc<ReplChannel>,
    /// Highest round this peer has acked under the current epoch.
    acked: u64,
    /// Ship a full snapshot instead of the next delta.
    needs_snapshot: bool,
}

/// Per-round shipping telemetry (consumed by the bench harness).
#[derive(Debug, Clone, Default)]
pub struct ShipStats {
    /// Checkpoint round the stats cover.
    pub round: u64,
    /// Backup records shipped in the round's delta.
    pub records: u64,
    /// Tombstones shipped.
    pub tombstones: u64,
    /// Page images shipped.
    pub pages: u64,
    /// Page images read from NVM to build the round's delta and snapshot
    /// (unchanged pages are not read).
    pub pages_read: u64,
    /// Encoded frame bytes shipped (all peers).
    pub bytes: u64,
    /// Peers that received a snapshot this round.
    pub snapshots: u64,
    /// Nanoseconds spent waiting for quorum.
    pub wait_ns: u64,
    /// Machines durable at this round when the wait ended.
    pub durable: u64,
    /// Whether the round ended below quorum (degraded mode).
    pub degraded: bool,
}

struct BuiltFrames {
    frames: Vec<Vec<u8>>,
    records: u64,
    tombstones: u64,
    pages: u64,
    bytes: u64,
    /// Page images read from NVM to build the frames.
    pages_read: u64,
}

/// Where a shipped page image came from: enough to prove, without
/// reading the page, that the image is still the one shipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageSource {
    /// A frozen backup or capture image; its stored CRC identifies it.
    Stored,
    /// The runtime (version-0) frame at a device write generation.
    Runtime { frame: FrameId, gen: u64 },
    /// Runtime ⊖ in-line undo log: both frames' generations plus the
    /// log's used length.
    Log { rt: FrameId, rt_gen: u64, log: FrameId, log_gen: u64, used: u32 },
}

/// The image last shipped for one `(oroot, page)`: the replica holds
/// bytes with this CRC, and `src` produced them.
#[derive(Debug, Clone, Copy)]
struct ShippedPage {
    crc: u32,
    src: PageSource,
}

/// A page's round image as the shipper resolved it. `data` is `None`
/// when the cache proved the image unchanged and nothing was read.
struct RoundImage {
    version: u64,
    crc: u32,
    src: PageSource,
    data: Option<Box<[u8; PAGE_SIZE]>>,
}

/// The checkpoint-shipping callback installed on the primary.
pub struct Shipper {
    kernel: Arc<Kernel>,
    mgr: Weak<CheckpointManager>,
    cfg: ShipConfig,
    /// The gate the primary's NIC consults (install with
    /// [`VirtualNic::set_release_gate`](treesls_net::VirtualNic::set_release_gate)).
    pub health: Arc<ReplHealth>,
    epoch: AtomicU64,
    peers: Mutex<Vec<Peer>>,
    /// Largest frame every peer's delta ring accepts; PMO manifests longer
    /// than this split into continuation frames.
    max_frame: usize,
    /// Last shipped image per `(oroot, page idx)`: pages whose content did
    /// not change since the previous ship are elided from deltas, and
    /// pages whose source did not change are not even read.
    page_cache: Mutex<HashMap<(u64, u64), ShippedPage>>,
    /// Eternal PMOs seen by any ship. Host clients write eternal rings
    /// directly — no fault ever fires, so nothing marks them dirty and
    /// they would silently drop out of every delta. They are instead
    /// re-serialized every round; the CRC cache keeps unchanged ring
    /// pages off the wire.
    eternal: Mutex<HashSet<u64>>,
    /// Telemetry of the most recent round.
    pub last_ship: Mutex<ShipStats>,
}

impl Shipper {
    /// Creates a shipper over one channel per replica and registers it at
    /// the *front* of `mgr`'s callback chain (it must run before the
    /// NIC's visibility barrier).
    pub fn install(
        kernel: Arc<Kernel>,
        mgr: &Arc<CheckpointManager>,
        channels: Vec<Arc<ReplChannel>>,
        cfg: ShipConfig,
    ) -> Arc<Self> {
        let max_frame = channels.iter().map(|c| c.max_frame()).min().unwrap_or(usize::MAX);
        let shipper = Arc::new(Self {
            kernel,
            mgr: Arc::downgrade(mgr),
            cfg,
            health: ReplHealth::new(),
            epoch: AtomicU64::new(1),
            peers: Mutex::new(
                channels
                    .into_iter()
                    .enumerate()
                    .map(|(id, ch)| Peer { id, ch, acked: 0, needs_snapshot: false })
                    .collect(),
            ),
            max_frame,
            page_cache: Mutex::new(HashMap::new()),
            eternal: Mutex::new(HashSet::new()),
            last_ship: Mutex::new(ShipStats::default()),
        });
        mgr.register_callback_front(Arc::clone(&shipper) as Arc<dyn CkptCallback>);
        shipper
    }

    /// The primary's current epoch (bumped by failover).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Highest round acked by peer `id` under the current epoch.
    pub fn peer_acked(&self, id: usize) -> u64 {
        self.peers.lock().iter().find(|p| p.id == id).map_or(0, |p| p.acked)
    }

    /// Drains the ack rings: acks raise the peer's durable round, resync
    /// requests flag the peer for a snapshot.
    fn drain_acks(&self) {
        let epoch = self.epoch.load(Ordering::SeqCst);
        let mut peers = self.peers.lock();
        for peer in peers.iter_mut() {
            loop {
                match peer.ch.recv_ack() {
                    Ok(None) => break,
                    Ok(Some(bytes)) => match Frame::decode(&bytes) {
                        Ok(Frame::Ack { epoch: e, round }) if e == epoch => {
                            if round > peer.acked {
                                peer.acked = round;
                                self.kernel.metrics.record_repl_ack();
                                self.kernel.pers.recorder().record(
                                    EventKind::ReplAck,
                                    [epoch, round, peer.id as u64, 0, 0, 0],
                                );
                            }
                        }
                        Ok(Frame::ResyncRequest { applied_round, .. }) => {
                            if !peer.needs_snapshot {
                                peer.needs_snapshot = true;
                                self.kernel.metrics.record_repl_resync();
                                self.kernel.pers.recorder().record(
                                    EventKind::ReplResync,
                                    [epoch, applied_round, peer.id as u64, 0, 0, 0],
                                );
                            }
                        }
                        // Stale-epoch acks and anything else: ignore.
                        Ok(_) | Err(_) => {}
                    },
                    // A corrupt ack slot was consumed; the next ack
                    // supersedes it.
                    Err(_) => {}
                }
            }
        }
    }

    /// Resolves a page's frozen image at `round`. With `last` (the image
    /// shipped before) the page is read only if its source may have
    /// changed; without it (snapshots) it is always read.
    ///
    /// The shipped bytes must be the *frozen* round image, not the live
    /// runtime — under epoch-concurrent checkpointing a page's round image
    /// may live in a not-yet-folded whole-page capture, or be
    /// reconstructible only as runtime ⊖ its in-line undo log (mutators
    /// kept writing through the copy phase).
    fn round_image(
        &self,
        meta: &PageMeta,
        round: u64,
        last: Option<ShippedPage>,
    ) -> Option<RoundImage> {
        let dev = &self.kernel.pers.dev;
        let unchanged = |src: PageSource| last.filter(|l| l.src == src).map(|l| l.crc);
        let from_ptr = |ptr: PagePtr, version: u64| match ptr.crc {
            // Backup pages are frozen, so their stored CRC names their
            // bytes: equal to the shipped CRC means nothing to read.
            Some(crc) => {
                let data = (last.map(|l| l.crc) != Some(crc)).then(|| {
                    let mut data = Box::new([0u8; PAGE_SIZE]);
                    dev.read_page(ptr.frame, &mut data);
                    data
                });
                RoundImage { version, crc, src: PageSource::Stored, data }
            }
            // A runtime page (version 0, "the runtime page is the image")
            // may be an eternal ring a host client is writing right now:
            // key it by the frame generation, and hash the bytes actually
            // read with the generation they were read at. Version 0
            // travels as-is: it is round-independent, so re-serializing an
            // unchanged record at a later round yields identical bytes,
            // and the promotion path accepts it.
            None => {
                let src = PageSource::Runtime { frame: ptr.frame, gen: dev.frame_gen(ptr.frame) };
                if let Some(crc) = unchanged(src) {
                    return RoundImage { version, crc, src, data: None };
                }
                let mut data = Box::new([0u8; PAGE_SIZE]);
                let gen = dev.read_gen(ptr.frame, 0, &mut data[..]);
                let crc = treesls_nvm::crc32(&data[..]);
                let src = PageSource::Runtime { frame: ptr.frame, gen };
                RoundImage { version, crc, src, data: Some(data) }
            }
        };
        Some(match meta.restore_image(round) {
            RestoreImage::Capture(c) => from_ptr(c, c.version.min(round)),
            RestoreImage::Pair(pick) => {
                let ptr = meta.pairs[pick].expect("picked pair exists");
                from_ptr(ptr, ptr.version)
            }
            RestoreImage::Log(log) => {
                let rt = meta.pairs[1].expect("logged pages are non-migrated").frame;
                let src = PageSource::Log {
                    rt,
                    rt_gen: dev.frame_gen(rt),
                    log: log.frame,
                    log_gen: dev.frame_gen(log.frame),
                    used: log.used,
                };
                if let Some(crc) = unchanged(src) {
                    return Some(RoundImage { version: round, crc, src, data: None });
                }
                let mut data = Box::new([0u8; PAGE_SIZE]);
                let rt_gen = dev.read_gen(rt, 0, &mut data[..]);
                let mut raw_log = vec![0u8; log.used as usize];
                let log_gen = dev.read_gen(log.frame, 0, &mut raw_log);
                apply_undo_records(&mut data, &parse_undo_records(&raw_log));
                let crc = treesls_nvm::crc32(&data[..]);
                let src = PageSource::Log { rt, rt_gen, log: log.frame, log_gen, used: log.used };
                RoundImage { version: round, crc, src, data: Some(data) }
            }
            RestoreImage::None => return None,
        })
    }

    /// Serializes one backup record; PMO page images whose CRC changed
    /// since the last ship are appended to `pages` (pass `ship_all` to
    /// bypass the cache for snapshots). Counts page reads in `reads`.
    fn wire_of(
        &self,
        raw: u64,
        rec: &BackupObject,
        round: u64,
        ship_all: bool,
        pages: &mut Vec<Frame>,
        reads: &mut u64,
    ) -> WireRecord {
        let to_raw = |id: treesls_kernel::types::OrootId| id.to_raw();
        match rec {
            BackupObject::CapGroup { name, caps } => WireRecord::CapGroup {
                name: name.clone(),
                caps: caps
                    .iter()
                    .map(|c| c.map(|bk| (to_raw(bk.oroot), bk.rights.0)))
                    .collect(),
            },
            BackupObject::Thread { ctx, state, program, cap_group, vmspace } => {
                WireRecord::Thread {
                    regs: ctx.regs,
                    pc: ctx.pc,
                    state: match state {
                        BkThreadState::Runnable => WireThreadState::Runnable,
                        BkThreadState::BlockedNotification(o) => {
                            WireThreadState::BlockedNotification(to_raw(*o))
                        }
                        BkThreadState::BlockedIpcRecv(o) => {
                            WireThreadState::BlockedIpcRecv(to_raw(*o))
                        }
                        BkThreadState::BlockedIpcReply(o) => {
                            WireThreadState::BlockedIpcReply(to_raw(*o))
                        }
                        BkThreadState::Exited => WireThreadState::Exited,
                    },
                    program: program.clone(),
                    cap_group: to_raw(*cap_group),
                    vmspace: to_raw(*vmspace),
                }
            }
            BackupObject::VmSpace { regions } => WireRecord::VmSpace {
                regions: regions
                    .iter()
                    .map(|r| WireRegion {
                        base: r.base,
                        npages: r.npages,
                        pmo: to_raw(r.pmo),
                        pmo_off: r.pmo_off,
                        perm: r.perm.0,
                    })
                    .collect(),
            },
            BackupObject::Pmo { npages, kind, pages: radix, synced_tick } => {
                if matches!(kind, treesls_kernel::pmo::PmoKind::Eternal) {
                    self.eternal.lock().insert(raw);
                }
                let mut manifest = Vec::new();
                let mut cache = self.page_cache.lock();
                radix.for_each(|idx, entry| {
                    if !entry.live_at(round) {
                        return;
                    }
                    let last = cache.get(&(raw, idx)).copied();
                    let meta = entry.slot.meta.lock();
                    let Some(img) = self.round_image(&meta, round, last.filter(|_| !ship_all))
                    else {
                        return;
                    };
                    drop(meta);
                    manifest.push((idx, img.version, img.crc));
                    if let Some(data) = img.data {
                        *reads += 1;
                        if ship_all || last.map(|l| l.crc) != Some(img.crc) {
                            pages.push(Frame::Page {
                                oroot: raw,
                                idx,
                                version: img.version,
                                crc: img.crc,
                                data,
                            });
                        }
                    }
                    cache.insert((raw, idx), ShippedPage { crc: img.crc, src: img.src });
                });
                WireRecord::Pmo {
                    npages: *npages,
                    eternal: matches!(kind, treesls_kernel::pmo::PmoKind::Eternal),
                    synced_tick: *synced_tick,
                    pages: manifest,
                }
            }
            BackupObject::IpcConnection { recv_waiter, queue, replies } => {
                WireRecord::IpcConnection {
                    recv_waiter: recv_waiter.map(to_raw),
                    queue: queue.iter().map(|(o, m)| (to_raw(*o), m.clone())).collect(),
                    replies: replies.iter().map(|(o, m)| (to_raw(*o), m.clone())).collect(),
                }
            }
            BackupObject::Notification { count, waiters } => WireRecord::Notification {
                count: *count,
                waiters: waiters.iter().copied().map(to_raw).collect(),
            },
            BackupObject::IrqNotification { line, count, waiters } => {
                WireRecord::IrqNotification {
                    line: *line,
                    count: *count,
                    waiters: waiters.iter().copied().map(to_raw).collect(),
                }
            }
        }
    }

    /// The record a raw id maps to at `round`, if it is live and
    /// restorable (a rewritten-then-deleted id yields `None`).
    fn live_record(&self, id: treesls_kernel::types::OrootId, round: u64) -> Option<BackupObject> {
        let oroot = self.kernel.pers.oroots.get_cloned(id)?;
        if !oroot.live_at(round) {
            return None;
        }
        let pick = oroot.restore_pick(round)?;
        self.kernel.pers.backups.get_cloned(oroot.backups[pick]?.slot)
    }

    fn build_delta(&self, delta: &RoundDelta, epoch: u64, root: u64) -> BuiltFrames {
        let round = delta.round;
        let mut tombs: HashSet<u64> =
            delta.tombstoned.iter().map(|id| id.to_raw()).collect();
        // `Record` frames plus their `Manifest` continuations.
        let mut records = Vec::new();
        let (mut nrec, mut reads) = (0, 0);
        let mut pages = Vec::new();
        let mut shipped: HashSet<u64> = HashSet::new();
        for id in &delta.rewritten {
            let raw = id.to_raw();
            if tombs.contains(&raw) || !shipped.insert(raw) {
                continue;
            }
            match self.live_record(*id, round) {
                Some(rec) => {
                    let wire = self.wire_of(raw, &rec, round, false, &mut pages, &mut reads);
                    records.extend(Frame::record_frames(raw, wire, self.max_frame));
                    nrec += 1;
                }
                // Rewritten then deleted before the callbacks ran: the
                // store no longer has it, so it is a tombstone.
                None => {
                    tombs.insert(raw);
                }
            }
        }
        // Eternal PMOs ride along every round (see the `eternal` field):
        // host writes to them never fault, so the dirty queue cannot
        // know about their content changes.
        let eternal: Vec<u64> = self.eternal.lock().iter().copied().collect();
        for raw in eternal {
            if tombs.contains(&raw) || shipped.contains(&raw) {
                continue;
            }
            let id = treesls_kernel::types::OrootId::from_raw(raw);
            match self.live_record(id, round) {
                Some(rec) => {
                    shipped.insert(raw);
                    let wire = self.wire_of(raw, &rec, round, false, &mut pages, &mut reads);
                    records.extend(Frame::record_frames(raw, wire, self.max_frame));
                    nrec += 1;
                }
                None => {
                    self.eternal.lock().remove(&raw);
                }
            }
        }
        {
            // Deleted objects keep no page state worth deduplicating.
            let mut cache = self.page_cache.lock();
            cache.retain(|(o, _), _| !tombs.contains(o));
            self.eternal.lock().retain(|o| !tombs.contains(o));
        }
        let mut frames = Vec::with_capacity(records.len() + pages.len() + tombs.len() + 2);
        frames.push(
            Frame::DeltaBegin {
                epoch,
                round,
                records: records.len() as u32,
                tombstones: tombs.len() as u32,
                pages: pages.len() as u32,
            }
            .encode(),
        );
        let (npg, ntomb) = (pages.len() as u64, tombs.len() as u64);
        for f in records.into_iter().chain(pages) {
            frames.push(f.encode());
        }
        for t in &tombs {
            frames.push(Frame::Tombstone { oroot: *t }.encode());
        }
        frames.push(Frame::DeltaCommit { epoch, round, root }.encode());
        let bytes = frames.iter().map(|f| f.len() as u64).sum();
        BuiltFrames {
            frames,
            records: nrec,
            tombstones: ntomb,
            pages: npg,
            bytes,
            pages_read: reads,
        }
    }

    /// A full-state transfer: every live, restorable record and every
    /// live page image at `round`.
    fn build_snapshot(&self, epoch: u64, round: u64, root: u64) -> BuiltFrames {
        let mut records = Vec::new();
        let (mut nrec, mut reads) = (0, 0);
        let mut pages = Vec::new();
        for id in self.kernel.pers.oroots.ids() {
            if let Some(rec) = self.live_record(id, round) {
                let raw = id.to_raw();
                let wire = self.wire_of(raw, &rec, round, true, &mut pages, &mut reads);
                records.extend(Frame::record_frames(raw, wire, self.max_frame));
                nrec += 1;
            }
        }
        let mut frames = Vec::with_capacity(records.len() + pages.len() + 2);
        frames.push(
            Frame::SnapBegin {
                epoch,
                round,
                records: records.len() as u32,
                pages: pages.len() as u32,
            }
            .encode(),
        );
        let npg = pages.len() as u64;
        for f in records.into_iter().chain(pages) {
            frames.push(f.encode());
        }
        frames.push(Frame::SnapCommit { epoch, round, root }.encode());
        let bytes = frames.iter().map(|f| f.len() as u64).sum();
        BuiltFrames { frames, records: nrec, tombstones: 0, pages: npg, bytes, pages_read: reads }
    }

    /// Pushes `frames` to one peer with bounded retry and capped
    /// exponential backoff. Returns `false` (and flags the peer for a
    /// snapshot) if the ring stayed full through every retry or refused a
    /// frame; a frame too large for the ring's slots is also recorded as
    /// a `ReplTooLarge` flight event, since no resync can deliver it.
    fn ship_to(&self, peer: &mut Peer, round: u64, frames: &[Vec<u8>], first_peer: bool) -> bool {
        let sched = self.kernel.pers.dev.crash_schedule();
        let last = frames.len().saturating_sub(1);
        for (i, frame) in frames.iter().enumerate() {
            if first_peer && i == last {
                // Crash with the delta's data shipped but its commit
                // frame not: the replica must hold the round in staging
                // and never apply it.
                crash_site!(sched, "repl.mid_ship");
            }
            let mut backoff = self.cfg.backoff;
            let mut attempt = 0;
            loop {
                match peer.ch.send_delta(round, frame) {
                    Ok(()) => break,
                    Err(ShipError::Backpressure) if attempt < self.cfg.max_retries => {
                        attempt += 1;
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(self.cfg.backoff_cap);
                    }
                    Err(e) => {
                        if e == ShipError::TooLarge {
                            let (len, max) = (frame.len() as u64, self.max_frame as u64);
                            self.kernel.pers.recorder().record(
                                EventKind::ReplTooLarge,
                                [round, len, max, peer.id as u64, 0, 0],
                            );
                        }
                        peer.needs_snapshot = true;
                        return false;
                    }
                }
            }
        }
        peer.ch.flush_wire();
        true
    }

    /// Machines (including the primary) durable at `round`.
    fn durable_at(&self, round: u64) -> usize {
        1 + self.peers.lock().iter().filter(|p| p.acked >= round).count()
    }
}

impl CkptCallback for Shipper {
    fn on_checkpoint(&self, version: u64) {
        let sched = self.kernel.pers.dev.crash_schedule();
        let epoch = self.epoch.load(Ordering::SeqCst);
        self.drain_acks();
        crash_site!(sched, "repl.pre_ship");

        let Some(root) = self.kernel.pers.root_oroot().map(|r| r.to_raw()) else {
            return;
        };
        let delta = self
            .mgr
            .upgrade()
            .and_then(|m| m.take_round_delta())
            .filter(|d| d.round == version)
            .map(|d| self.build_delta(&d, epoch, root));

        let mut stats = ShipStats { round: version, ..ShipStats::default() };
        if let Some(b) = &delta {
            stats.records = b.records;
            stats.tombstones = b.tombstones;
            stats.pages = b.pages;
            stats.pages_read = b.pages_read;
        }

        // Ship: peers in good standing get the delta; flagged peers (or
        // everyone, if the round's delta is unavailable, e.g. right after
        // a restore) get a snapshot.
        let mut snapshot: Option<BuiltFrames> = None;
        {
            let mut peers = self.peers.lock();
            let mut first = true;
            for peer in peers.iter_mut() {
                let built = match &delta {
                    Some(d) if !peer.needs_snapshot => d,
                    _ => {
                        if snapshot.is_none() {
                            let snap = self.build_snapshot(epoch, version, root);
                            stats.pages_read += snap.pages_read;
                            snapshot = Some(snap);
                        }
                        stats.snapshots += 1;
                        peer.needs_snapshot = false;
                        snapshot.as_ref().expect("built above")
                    }
                };
                stats.bytes += built.bytes;
                self.ship_to(peer, version, &built.frames, first);
                first = false;
            }
        }
        self.kernel.metrics.record_repl_ship(
            stats.records,
            stats.pages,
            stats.bytes,
            stats.pages_read,
        );

        // Quorum wait: the visibility barrier may only release rounds
        // durable on `quorum` machines.
        let wait_start = Instant::now();
        let deadline = wait_start + self.cfg.ack_timeout;
        let mut durable = self.durable_at(version);
        while durable < self.cfg.quorum && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(20));
            self.drain_acks();
            durable = self.durable_at(version);
        }
        stats.wait_ns = wait_start.elapsed().as_nanos() as u64;
        stats.durable = durable as u64;
        crash_site!(sched, "repl.post_ack");

        if durable >= self.cfg.quorum {
            self.health.durable.store(version, Ordering::SeqCst);
            if self.health.degraded.swap(false, Ordering::SeqCst) {
                self.kernel.pers.recorder().record(
                    EventKind::ReplDegraded,
                    [epoch, version, 0, durable as u64, 0, 0],
                );
            }
        } else if !self.health.degraded.swap(true, Ordering::SeqCst) {
            self.kernel.metrics.record_repl_degraded();
            self.kernel.pers.recorder().record(
                EventKind::ReplDegraded,
                [epoch, version, 1, durable as u64, 0, 0],
            );
        }
        stats.degraded = self.health.is_degraded();

        let min_acked =
            self.peers.lock().iter().map(|p| p.acked).min().unwrap_or(version);
        self.kernel
            .metrics
            .set_repl_gauges(min_acked, version.saturating_sub(self.health.durable_round()));
        self.kernel.pers.recorder().record(
            EventKind::ReplShip,
            [version, stats.records, stats.pages, stats.bytes, stats.snapshots, durable as u64],
        );
        *self.last_ship.lock() = stats;
    }

    fn on_restore(&self, version: u64) {
        // The machine rebooted into `version`; its delta continuity is
        // gone, so every peer resyncs. The restored round is durable
        // locally by construction.
        self.health.durable.store(version, Ordering::SeqCst);
        self.health.degraded.store(false, Ordering::SeqCst);
        self.page_cache.lock().clear();
        self.eternal.lock().clear();
        for peer in self.peers.lock().iter_mut() {
            peer.needs_snapshot = true;
            peer.acked = 0;
        }
    }
}
