//! The checkpoint-shipping wire format.
//!
//! Every frame is a self-contained byte string pushed into one
//! [`treesls_net::ReplChannel`] slot (the slot codec adds its own CRC, so
//! a flipped bit on the wire surfaces as `RingError::Corrupt` before the
//! frame is ever decoded; the decoder here only has to deal with
//! *structurally* bad frames, e.g. from a software bug, and it does so
//! with errors, never panics).
//!
//! Backup records travel as [`WireRecord`]: the same shape as the
//! kernel's `BackupObject`, but with every `OrootId` flattened to its raw
//! `u64` (slot ids are machine-local — the receiving machine re-assigns
//! them on promotion) and the PMO page radix replaced by a page
//! *manifest* of `(index, version, crc)`. Page images travel in separate
//! [`Frame::Page`] frames so a delta only carries the pages whose content
//! actually changed. A manifest too long for one ring slot (20 B per page)
//! is split: the `Record` frame carries its head and [`Frame::Manifest`]
//! continuation frames carry the rest ([`Frame::record_frames`]).

/// A replication frame. Deltas stream as `DeltaBegin · (Record | Manifest
/// | Page | Tombstone)* · DeltaCommit`; snapshots as `SnapBegin · (Record
/// | Manifest | Page)* · SnapCommit`. `Ack` and `ResyncRequest` flow on
/// the ack ring.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Opens the delta for `round`; the counts let the replica verify it
    /// saw every frame before applying (a dropped frame fails the check).
    DeltaBegin {
        /// Primary's shipping epoch (bumped on failover/promotion).
        epoch: u64,
        /// Checkpoint round the delta carries the state of.
        round: u64,
        /// Number of `Record` and `Manifest` frames in the delta.
        records: u32,
        /// Number of `Tombstone` frames in the delta.
        tombstones: u32,
        /// Number of `Page` frames in the delta.
        pages: u32,
    },
    /// One rewritten backup record.
    Record {
        /// Raw ORoot id of the record on the primary.
        oroot: u64,
        /// The record body in wire form.
        rec: WireRecord,
    },
    /// A continuation of a PMO record's page manifest: entries `start..`
    /// of the manifest whose head rode in the record's `Record` frame of
    /// the same round. The replica appends continuations in `start` order
    /// before the round commits.
    Manifest {
        /// Raw ORoot id of the PMO.
        oroot: u64,
        /// Position of `pages[0]` in the whole manifest.
        start: u32,
        /// Manifest entries `(index, version, crc)`.
        pages: Vec<(u64, u64, u32)>,
    },
    /// One 4 KiB page image of a PMO record in the same round.
    Page {
        /// Raw ORoot id of the owning PMO.
        oroot: u64,
        /// Page index within the PMO.
        idx: u64,
        /// Checkpoint version of the image.
        version: u64,
        /// CRC of `data`, cross-checked against the PMO's page manifest.
        crc: u32,
        /// The page image.
        data: Box<[u8; 4096]>,
    },
    /// An ORoot deleted this round.
    Tombstone {
        /// Raw ORoot id being deleted.
        oroot: u64,
    },
    /// Closes the delta; `root` is the root cap group's raw ORoot id.
    /// Applying is atomic at this frame.
    DeltaCommit {
        /// Primary's shipping epoch.
        epoch: u64,
        /// Round being committed.
        round: u64,
        /// Raw ORoot id of the root cap group.
        root: u64,
    },
    /// Opens a full-state transfer (resync) at `round`.
    SnapBegin {
        /// Primary's shipping epoch.
        epoch: u64,
        /// Round the snapshot captures.
        round: u64,
        /// Number of `Record` and `Manifest` frames in the snapshot.
        records: u32,
        /// Number of `Page` frames in the snapshot.
        pages: u32,
    },
    /// Closes a full-state transfer; replaces the replica's store whole.
    SnapCommit {
        /// Primary's shipping epoch.
        epoch: u64,
        /// Round the snapshot captures.
        round: u64,
        /// Raw ORoot id of the root cap group.
        root: u64,
    },
    /// Replica → primary: `round` is durably applied on this replica.
    Ack {
        /// Epoch the ack belongs to (stale-epoch acks are ignored).
        epoch: u64,
        /// Highest round durably applied.
        round: u64,
    },
    /// Replica → primary: the delta stream is unusable (gap, corruption,
    /// fresh boot); ship a snapshot.
    ResyncRequest {
        /// Epoch the request was issued under.
        epoch: u64,
        /// Round the replica last applied (0 for a fresh store).
        applied_round: u64,
    },
}

/// A backup record in wire form (raw ids, page manifest).
#[derive(Debug, Clone, PartialEq)]
pub enum WireRecord {
    /// A capability group: its name and its slots as
    /// `Option<(target_oroot, rights_bits)>`.
    CapGroup {
        /// Group name (process identity across promotion).
        name: String,
        /// Capability slots; `None` for empty slots.
        caps: Vec<Option<(u64, u32)>>,
    },
    /// A thread: full register file plus scheduling references.
    Thread {
        /// General-purpose registers.
        regs: [u64; 16],
        /// Program counter.
        pc: u64,
        /// Scheduling state (with raw blocked-on references).
        state: WireThreadState,
        /// Program name resolved through the registry on promotion.
        program: String,
        /// Raw ORoot id of the owning cap group.
        cap_group: u64,
        /// Raw ORoot id of the address space.
        vmspace: u64,
    },
    /// An address space as a list of mapped regions.
    VmSpace {
        /// The mapped regions.
        regions: Vec<WireRegion>,
    },
    /// A physical memory object: geometry plus the page manifest
    /// `(index, version, crc)` the delta's `Page` frames must satisfy.
    Pmo {
        /// Page count.
        npages: u64,
        /// Whether the PMO is eternal (NVM-direct, never rolled back).
        eternal: bool,
        /// Checkpoint tick of the PMO's last sync.
        synced_tick: u64,
        /// Per-page manifest entries `(index, version, crc)`.
        pages: Vec<(u64, u64, u32)>,
    },
    /// An IPC connection: queued messages and parked reply slots.
    IpcConnection {
        /// Thread blocked in `recv`, if any (raw ORoot id).
        recv_waiter: Option<u64>,
        /// Queued `(sender_thread, message)` pairs.
        queue: Vec<(u64, Vec<u8>)>,
        /// Parked `(sender_thread, reply)` pairs.
        replies: Vec<(u64, Vec<u8>)>,
    },
    /// A notification object: its count and blocked waiters.
    Notification {
        /// Pending signal count.
        count: u64,
        /// Raw ORoot ids of blocked waiter threads.
        waiters: Vec<u64>,
    },
    /// An IRQ notification object bound to a line.
    IrqNotification {
        /// Interrupt line number.
        line: u32,
        /// Pending signal count.
        count: u64,
        /// Raw ORoot ids of blocked waiter threads.
        waiters: Vec<u64>,
    },
}

/// Thread scheduling state with raw ORoot references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireThreadState {
    /// Runnable (or running; on-CPU state is not shipped).
    Runnable,
    /// Blocked waiting on a notification (raw ORoot id).
    BlockedNotification(u64),
    /// Blocked in IPC receive on a connection (raw ORoot id).
    BlockedIpcRecv(u64),
    /// Blocked awaiting an IPC reply on a connection (raw ORoot id).
    BlockedIpcReply(u64),
    /// Exited; kept for capability-table consistency.
    Exited,
}

/// A VM region with a raw PMO reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireRegion {
    /// Base virtual page number.
    pub base: u64,
    /// Region length in pages.
    pub npages: u64,
    /// Raw ORoot id of the backing PMO.
    pub pmo: u64,
    /// Page offset into the PMO.
    pub pmo_off: u64,
    /// Permission bits (`CapRights`).
    pub perm: u32,
}

/// Structural decode failures (distinct from wire corruption, which the
/// ring slot CRC catches before decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before its structure did.
    Truncated,
    /// Unknown frame or record tag.
    BadTag(u8),
    /// Bytes left over after a complete decode.
    Trailing,
}

// Frame tags.
const T_DELTA_BEGIN: u8 = 1;
const T_RECORD: u8 = 2;
const T_PAGE: u8 = 3;
const T_TOMBSTONE: u8 = 4;
const T_DELTA_COMMIT: u8 = 5;
const T_SNAP_BEGIN: u8 = 6;
const T_SNAP_COMMIT: u8 = 7;
const T_ACK: u8 = 8;
const T_RESYNC: u8 = 9;
const T_MANIFEST: u8 = 10;

/// Encoded size of one manifest entry `(index, version, crc)`.
const MANIFEST_ENTRY: usize = 20;
/// Encoded size of a `Manifest` frame's fixed part (tag, oroot, start,
/// entry count).
const MANIFEST_HEADER: usize = 1 + 8 + 4 + 4;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn put_manifest(buf: &mut Vec<u8>, pages: &[(u64, u64, u32)]) {
    put_u32(buf, pages.len() as u32);
    for (idx, version, crc) in pages {
        put_u64(buf, *idx);
        put_u64(buf, *version);
        put_u32(buf, *crc);
    }
}

/// A bounds-checked little-endian reader over a frame.
struct Reader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, WireError> {
        let v = *self.buf.get(self.off).ok_or(WireError::Truncated)?;
        self.off += 1;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.buf.get(self.off..self.off + 4).ok_or(WireError::Truncated)?;
        self.off += 4;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.buf.get(self.off..self.off + 8).ok_or(WireError::Truncated)?;
        self.off += 8;
        Ok(u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u32()? as usize;
        let s = self.buf.get(self.off..self.off + n).ok_or(WireError::Truncated)?;
        self.off += n;
        Ok(s.to_vec())
    }

    fn manifest(&mut self) -> Result<Vec<(u64, u64, u32)>, WireError> {
        let n = self.u32()? as usize;
        // Bound the allocation by what the frame can actually hold.
        if n > (self.buf.len() - self.off) / MANIFEST_ENTRY {
            return Err(WireError::Truncated);
        }
        let mut pages = Vec::with_capacity(n);
        for _ in 0..n {
            pages.push((self.u64()?, self.u64()?, self.u32()?));
        }
        Ok(pages)
    }

    fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::Truncated)
    }

    fn done(&self) -> Result<(), WireError> {
        if self.off == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }
}

impl Frame {
    /// The frames carrying record `rec` of `oroot` when no frame may
    /// exceed `max_frame` bytes: one `Record` frame, or — for a PMO whose
    /// manifest does not fit — a `Record` frame with the manifest's head
    /// followed by `Manifest` continuations. Records that are too large
    /// for another reason (or a `max_frame` too small for any manifest
    /// entry) are returned whole; the ring then refuses them as too large.
    pub fn record_frames(oroot: u64, rec: WireRecord, max_frame: usize) -> Vec<Frame> {
        let whole = Frame::Record { oroot, rec };
        let len = whole.encode().len();
        let Frame::Record { rec: WireRecord::Pmo { npages, eternal, synced_tick, pages }, .. } =
            &whole
        else {
            return vec![whole];
        };
        let head_fixed = len - pages.len() * MANIFEST_ENTRY;
        if len <= max_frame || max_frame < head_fixed.max(MANIFEST_HEADER) + MANIFEST_ENTRY {
            return vec![whole];
        }
        let head = (max_frame - head_fixed) / MANIFEST_ENTRY;
        let per = (max_frame - MANIFEST_HEADER) / MANIFEST_ENTRY;
        let mut frames = vec![Frame::Record {
            oroot,
            rec: WireRecord::Pmo {
                npages: *npages,
                eternal: *eternal,
                synced_tick: *synced_tick,
                pages: pages[..head].to_vec(),
            },
        }];
        let mut start = head;
        while start < pages.len() {
            let end = (start + per).min(pages.len());
            frames.push(Frame::Manifest {
                oroot,
                start: start as u32,
                pages: pages[start..end].to_vec(),
            });
            start = end;
        }
        frames
    }

    /// Serializes the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64);
        match self {
            Frame::DeltaBegin { epoch, round, records, tombstones, pages } => {
                b.push(T_DELTA_BEGIN);
                put_u64(&mut b, *epoch);
                put_u64(&mut b, *round);
                put_u32(&mut b, *records);
                put_u32(&mut b, *tombstones);
                put_u32(&mut b, *pages);
            }
            Frame::Record { oroot, rec } => {
                b.push(T_RECORD);
                put_u64(&mut b, *oroot);
                rec.encode_into(&mut b);
            }
            Frame::Manifest { oroot, start, pages } => {
                b.reserve(MANIFEST_HEADER + pages.len() * MANIFEST_ENTRY);
                b.push(T_MANIFEST);
                put_u64(&mut b, *oroot);
                put_u32(&mut b, *start);
                put_manifest(&mut b, pages);
            }
            Frame::Page { oroot, idx, version, crc, data } => {
                b.reserve(4096 + 32);
                b.push(T_PAGE);
                put_u64(&mut b, *oroot);
                put_u64(&mut b, *idx);
                put_u64(&mut b, *version);
                put_u32(&mut b, *crc);
                b.extend_from_slice(&data[..]);
            }
            Frame::Tombstone { oroot } => {
                b.push(T_TOMBSTONE);
                put_u64(&mut b, *oroot);
            }
            Frame::DeltaCommit { epoch, round, root } => {
                b.push(T_DELTA_COMMIT);
                put_u64(&mut b, *epoch);
                put_u64(&mut b, *round);
                put_u64(&mut b, *root);
            }
            Frame::SnapBegin { epoch, round, records, pages } => {
                b.push(T_SNAP_BEGIN);
                put_u64(&mut b, *epoch);
                put_u64(&mut b, *round);
                put_u32(&mut b, *records);
                put_u32(&mut b, *pages);
            }
            Frame::SnapCommit { epoch, round, root } => {
                b.push(T_SNAP_COMMIT);
                put_u64(&mut b, *epoch);
                put_u64(&mut b, *round);
                put_u64(&mut b, *root);
            }
            Frame::Ack { epoch, round } => {
                b.push(T_ACK);
                put_u64(&mut b, *epoch);
                put_u64(&mut b, *round);
            }
            Frame::ResyncRequest { epoch, applied_round } => {
                b.push(T_RESYNC);
                put_u64(&mut b, *epoch);
                put_u64(&mut b, *applied_round);
            }
        }
        b
    }

    /// Decodes one frame, rejecting truncation and trailing garbage.
    pub fn decode(buf: &[u8]) -> Result<Frame, WireError> {
        let mut r = Reader { buf, off: 0 };
        let frame = match r.u8()? {
            T_DELTA_BEGIN => Frame::DeltaBegin {
                epoch: r.u64()?,
                round: r.u64()?,
                records: r.u32()?,
                tombstones: r.u32()?,
                pages: r.u32()?,
            },
            T_RECORD => {
                let oroot = r.u64()?;
                let rec = WireRecord::decode_from(&mut r)?;
                Frame::Record { oroot, rec }
            }
            T_MANIFEST => {
                let oroot = r.u64()?;
                let start = r.u32()?;
                Frame::Manifest { oroot, start, pages: r.manifest()? }
            }
            T_PAGE => {
                let oroot = r.u64()?;
                let idx = r.u64()?;
                let version = r.u64()?;
                let crc = r.u32()?;
                let s = r.buf.get(r.off..r.off + 4096).ok_or(WireError::Truncated)?;
                let mut data = Box::new([0u8; 4096]);
                data.copy_from_slice(s);
                r.off += 4096;
                Frame::Page { oroot, idx, version, crc, data }
            }
            T_TOMBSTONE => Frame::Tombstone { oroot: r.u64()? },
            T_DELTA_COMMIT => {
                Frame::DeltaCommit { epoch: r.u64()?, round: r.u64()?, root: r.u64()? }
            }
            T_SNAP_BEGIN => Frame::SnapBegin {
                epoch: r.u64()?,
                round: r.u64()?,
                records: r.u32()?,
                pages: r.u32()?,
            },
            T_SNAP_COMMIT => {
                Frame::SnapCommit { epoch: r.u64()?, round: r.u64()?, root: r.u64()? }
            }
            T_ACK => Frame::Ack { epoch: r.u64()?, round: r.u64()? },
            T_RESYNC => Frame::ResyncRequest { epoch: r.u64()?, applied_round: r.u64()? },
            t => return Err(WireError::BadTag(t)),
        };
        r.done()?;
        Ok(frame)
    }
}

// Record tags follow `ObjType::ALL` order.
const R_CAP_GROUP: u8 = 1;
const R_THREAD: u8 = 2;
const R_VMSPACE: u8 = 3;
const R_PMO: u8 = 4;
const R_IPC: u8 = 5;
const R_NOTIF: u8 = 6;
const R_IRQ: u8 = 7;

const TS_RUNNABLE: u8 = 0;
const TS_NOTIF: u8 = 1;
const TS_RECV: u8 = 2;
const TS_REPLY: u8 = 3;
const TS_EXITED: u8 = 4;

impl WireRecord {
    fn encode_into(&self, b: &mut Vec<u8>) {
        match self {
            WireRecord::CapGroup { name, caps } => {
                b.push(R_CAP_GROUP);
                put_bytes(b, name.as_bytes());
                put_u32(b, caps.len() as u32);
                for c in caps {
                    match c {
                        Some((oroot, rights)) => {
                            b.push(1);
                            put_u64(b, *oroot);
                            put_u32(b, *rights);
                        }
                        None => b.push(0),
                    }
                }
            }
            WireRecord::Thread { regs, pc, state, program, cap_group, vmspace } => {
                b.push(R_THREAD);
                for r in regs {
                    put_u64(b, *r);
                }
                put_u64(b, *pc);
                match state {
                    WireThreadState::Runnable => b.push(TS_RUNNABLE),
                    WireThreadState::BlockedNotification(o) => {
                        b.push(TS_NOTIF);
                        put_u64(b, *o);
                    }
                    WireThreadState::BlockedIpcRecv(o) => {
                        b.push(TS_RECV);
                        put_u64(b, *o);
                    }
                    WireThreadState::BlockedIpcReply(o) => {
                        b.push(TS_REPLY);
                        put_u64(b, *o);
                    }
                    WireThreadState::Exited => b.push(TS_EXITED),
                }
                put_bytes(b, program.as_bytes());
                put_u64(b, *cap_group);
                put_u64(b, *vmspace);
            }
            WireRecord::VmSpace { regions } => {
                b.push(R_VMSPACE);
                put_u32(b, regions.len() as u32);
                for rg in regions {
                    put_u64(b, rg.base);
                    put_u64(b, rg.npages);
                    put_u64(b, rg.pmo);
                    put_u64(b, rg.pmo_off);
                    put_u32(b, rg.perm);
                }
            }
            WireRecord::Pmo { npages, eternal, synced_tick, pages } => {
                b.push(R_PMO);
                put_u64(b, *npages);
                b.push(u8::from(*eternal));
                put_u64(b, *synced_tick);
                put_manifest(b, pages);
            }
            WireRecord::IpcConnection { recv_waiter, queue, replies } => {
                b.push(R_IPC);
                match recv_waiter {
                    Some(o) => {
                        b.push(1);
                        put_u64(b, *o);
                    }
                    None => b.push(0),
                }
                for list in [queue, replies] {
                    put_u32(b, list.len() as u32);
                    for (o, msg) in list {
                        put_u64(b, *o);
                        put_bytes(b, msg);
                    }
                }
            }
            WireRecord::Notification { count, waiters } => {
                b.push(R_NOTIF);
                put_u64(b, *count);
                put_u32(b, waiters.len() as u32);
                for w in waiters {
                    put_u64(b, *w);
                }
            }
            WireRecord::IrqNotification { line, count, waiters } => {
                b.push(R_IRQ);
                put_u32(b, *line);
                put_u64(b, *count);
                put_u32(b, waiters.len() as u32);
                for w in waiters {
                    put_u64(b, *w);
                }
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<WireRecord, WireError> {
        Ok(match r.u8()? {
            R_CAP_GROUP => {
                let name = r.string()?;
                let n = r.u32()?;
                let mut caps = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    caps.push(match r.u8()? {
                        0 => None,
                        _ => Some((r.u64()?, r.u32()?)),
                    });
                }
                WireRecord::CapGroup { name, caps }
            }
            R_THREAD => {
                let mut regs = [0u64; 16];
                for reg in &mut regs {
                    *reg = r.u64()?;
                }
                let pc = r.u64()?;
                let state = match r.u8()? {
                    TS_RUNNABLE => WireThreadState::Runnable,
                    TS_NOTIF => WireThreadState::BlockedNotification(r.u64()?),
                    TS_RECV => WireThreadState::BlockedIpcRecv(r.u64()?),
                    TS_REPLY => WireThreadState::BlockedIpcReply(r.u64()?),
                    TS_EXITED => WireThreadState::Exited,
                    t => return Err(WireError::BadTag(t)),
                };
                let program = r.string()?;
                WireRecord::Thread {
                    regs,
                    pc,
                    state,
                    program,
                    cap_group: r.u64()?,
                    vmspace: r.u64()?,
                }
            }
            R_VMSPACE => {
                let n = r.u32()?;
                let mut regions = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    regions.push(WireRegion {
                        base: r.u64()?,
                        npages: r.u64()?,
                        pmo: r.u64()?,
                        pmo_off: r.u64()?,
                        perm: r.u32()?,
                    });
                }
                WireRecord::VmSpace { regions }
            }
            R_PMO => {
                let npages = r.u64()?;
                let eternal = r.u8()? != 0;
                let synced_tick = r.u64()?;
                WireRecord::Pmo { npages, eternal, synced_tick, pages: r.manifest()? }
            }
            R_IPC => {
                let recv_waiter = match r.u8()? {
                    0 => None,
                    _ => Some(r.u64()?),
                };
                let mut lists = [Vec::new(), Vec::new()];
                for list in &mut lists {
                    let n = r.u32()?;
                    for _ in 0..n {
                        list.push((r.u64()?, r.bytes()?));
                    }
                }
                let [queue, replies] = lists;
                WireRecord::IpcConnection { recv_waiter, queue, replies }
            }
            R_NOTIF => {
                let count = r.u64()?;
                let n = r.u32()?;
                let mut waiters = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    waiters.push(r.u64()?);
                }
                WireRecord::Notification { count, waiters }
            }
            R_IRQ => {
                let line = r.u32()?;
                let count = r.u64()?;
                let n = r.u32()?;
                let mut waiters = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    waiters.push(r.u64()?);
                }
                WireRecord::IrqNotification { line, count, waiters }
            }
            t => return Err(WireError::BadTag(t)),
        })
    }

    /// Every raw ORoot id this record references (edges of the shipped
    /// tree; promotion translates each through the id map).
    pub fn refs(&self) -> Vec<u64> {
        match self {
            WireRecord::CapGroup { caps, .. } => {
                caps.iter().flatten().map(|(o, _)| *o).collect()
            }
            WireRecord::Thread { state, cap_group, vmspace, .. } => {
                let mut v = vec![*cap_group, *vmspace];
                match state {
                    WireThreadState::BlockedNotification(o)
                    | WireThreadState::BlockedIpcRecv(o)
                    | WireThreadState::BlockedIpcReply(o) => v.push(*o),
                    WireThreadState::Runnable | WireThreadState::Exited => {}
                }
                v
            }
            WireRecord::VmSpace { regions } => regions.iter().map(|r| r.pmo).collect(),
            WireRecord::Pmo { .. } => Vec::new(),
            WireRecord::IpcConnection { recv_waiter, queue, replies } => {
                let mut v: Vec<u64> = recv_waiter.iter().copied().collect();
                v.extend(queue.iter().map(|(o, _)| *o));
                v.extend(replies.iter().map(|(o, _)| *o));
                v
            }
            WireRecord::Notification { waiters, .. } => waiters.clone(),
            WireRecord::IrqNotification { waiters, .. } => waiters.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = f.encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), f, "roundtrip failed");
    }

    #[test]
    fn control_frames_roundtrip() {
        roundtrip(Frame::DeltaBegin { epoch: 1, round: 7, records: 3, tombstones: 1, pages: 9 });
        roundtrip(Frame::Tombstone { oroot: 0xdead });
        roundtrip(Frame::DeltaCommit { epoch: 1, round: 7, root: 42 });
        roundtrip(Frame::SnapBegin { epoch: 2, round: 9, records: 100, pages: 400 });
        roundtrip(Frame::SnapCommit { epoch: 2, round: 9, root: 42 });
        roundtrip(Frame::Ack { epoch: 2, round: 9 });
        roundtrip(Frame::ResyncRequest { epoch: 2, applied_round: 4 });
    }

    #[test]
    fn manifest_frame_roundtrips() {
        roundtrip(Frame::Manifest { oroot: 5, start: 400, pages: vec![(400, 3, 7), (401, 0, 9)] });
        roundtrip(Frame::Manifest { oroot: 5, start: 0, pages: vec![] });
    }

    #[test]
    fn oversized_manifest_splits_into_fitting_frames_that_reassemble() {
        let pages: Vec<(u64, u64, u32)> = (0..1000).map(|i| (i, i % 7, i as u32 * 31)).collect();
        let rec = WireRecord::Pmo { npages: 1000, eternal: false, synced_tick: 4, pages };
        for max_frame in [512, 8168, 16360] {
            let frames = Frame::record_frames(9, rec.clone(), max_frame);
            assert!(frames.len() > 1, "20 KB of manifest cannot fit {max_frame} B");
            assert!(frames.iter().all(|f| f.encode().len() <= max_frame));
            let mut merged = match &frames[0] {
                Frame::Record { oroot: 9, rec: WireRecord::Pmo { pages, .. } } => pages.clone(),
                f => panic!("head frame {f:?}"),
            };
            for f in &frames[1..] {
                match f {
                    Frame::Manifest { oroot: 9, start, pages } => {
                        assert_eq!(*start as usize, merged.len());
                        merged.extend_from_slice(pages);
                    }
                    f => panic!("continuation frame {f:?}"),
                }
            }
            let WireRecord::Pmo { pages, .. } = &rec else { unreachable!() };
            assert_eq!(&merged, pages);
        }
        // A record that fits stays one frame.
        assert_eq!(Frame::record_frames(9, rec, 1 << 20).len(), 1);
    }

    #[test]
    fn page_frame_roundtrips() {
        let mut data = Box::new([0u8; 4096]);
        data[0] = 0xab;
        data[4095] = 0xcd;
        roundtrip(Frame::Page { oroot: 5, idx: 17, version: 3, crc: 0x1234_5678, data });
    }

    #[test]
    fn every_record_variant_roundtrips() {
        let records = vec![
            WireRecord::CapGroup {
                name: "root".into(),
                caps: vec![Some((1, 0b111)), None, Some((9, 0b1))],
            },
            WireRecord::Thread {
                regs: [7; 16],
                pc: 3,
                state: WireThreadState::BlockedIpcReply(12),
                program: "kv-server".into(),
                cap_group: 1,
                vmspace: 2,
            },
            WireRecord::VmSpace {
                regions: vec![WireRegion { base: 0x1000, npages: 4, pmo: 8, pmo_off: 0, perm: 3 }],
            },
            WireRecord::Pmo {
                npages: 16,
                eternal: true,
                synced_tick: 5,
                pages: vec![(0, 3, 0xaa), (7, 2, 0xbb)],
            },
            WireRecord::IpcConnection {
                recv_waiter: Some(4),
                queue: vec![(5, vec![1, 2, 3])],
                replies: vec![(6, vec![]), (7, vec![9])],
            },
            WireRecord::Notification { count: 2, waiters: vec![10, 11] },
            WireRecord::IrqNotification { line: 33, count: 0, waiters: vec![] },
        ];
        for rec in records {
            roundtrip(Frame::Record { oroot: 99, rec });
        }
    }

    #[test]
    fn truncation_and_bad_tags_are_errors_not_panics() {
        let full = Frame::DeltaCommit { epoch: 1, round: 2, root: 3 }.encode();
        for cut in 0..full.len() {
            assert!(Frame::decode(&full[..cut]).is_err());
        }
        assert_eq!(Frame::decode(&[0xff]), Err(WireError::BadTag(0xff)));
        let mut trailing = full.clone();
        trailing.push(0);
        assert_eq!(Frame::decode(&trailing), Err(WireError::Trailing));
    }

    #[test]
    fn refs_cover_every_edge() {
        let rec = WireRecord::Thread {
            regs: [0; 16],
            pc: 0,
            state: WireThreadState::BlockedNotification(5),
            program: String::new(),
            cap_group: 1,
            vmspace: 2,
        };
        assert_eq!(rec.refs(), vec![1, 2, 5]);
    }
}
