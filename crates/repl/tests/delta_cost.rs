//! A replicated round costs what changed.
//!
//! The shipper re-serializes every rewritten PMO record (and every eternal
//! PMO, each round) with its full page manifest, but it reads a page from
//! NVM only when the page's source may have changed: a backup whose stored
//! CRC moved, or a runtime frame whose device write generation moved.
//! These tests pin that cost, the cases where a page changes without a
//! fault (host writes to eternal rings, media bit flips), the equivalence
//! of a delta-fed mirror with a fresh snapshot, and the manifest split
//! that lets a PMO larger than one ring slot's manifest replicate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use treesls::{ObjId, ObjType, ProcessSpec, RegionSpec, System, SystemConfig, Vpn, PAGE_SIZE};
use treesls_checkpoint::CkptCallback;
use treesls_kernel::object::ObjectBody;
use treesls_kernel::pmo::PhysLoc;
use treesls_nvm::FrameId;
use treesls_repl::{Cluster, ClusterConfig, ReplicaStore, ShipConfig, WireRecord};

const RING_VPN: u64 = 1 << 20;
const RING_PAGES: u64 = 4;

/// Deterministic page-sized filler for page `p` at generation `g`.
fn pattern(p: u64, g: u64) -> Vec<u8> {
    let mut s = (p << 32 | g) ^ 0x9E37_79B9_7F4A_7C15;
    (0..PAGE_SIZE)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as u8
        })
        .collect()
}

struct Rig {
    sys: System,
    vmspace: ObjId,
    heap: ObjId,
    ring: ObjId,
    cluster: Cluster,
}

impl Rig {
    /// A process with a `heap_pages` data heap (every page written) and a
    /// small eternal ring region, replicated to `replicas` mirrors.
    fn new(heap_pages: u64, ccfg: ClusterConfig) -> Rig {
        let sys = System::boot(SystemConfig::small());
        let h = sys
            .spawn(
                &ProcessSpec::new("delta")
                    .heap(heap_pages)
                    .region(RegionSpec::eternal(Vpn(RING_VPN), RING_PAGES)),
            )
            .expect("spawn");
        for p in 0..heap_pages {
            sys.write_mem(h.vmspace, p * PAGE_SIZE as u64, &pattern(p, 0)).expect("heap write");
        }
        for p in 0..RING_PAGES {
            sys.write_mem(h.vmspace, (RING_VPN + p) * PAGE_SIZE as u64, &pattern(1000 + p, 0))
                .expect("ring write");
        }
        let cluster = Cluster::deploy(&sys, &ccfg);
        let rig = Rig { vmspace: h.vmspace, heap: h.pmos[0], ring: h.pmos[1], sys, cluster };
        rig.settle();
        rig
    }

    /// Commits rounds until every live replica holds the newest one.
    fn settle(&self) {
        for _ in 0..8 {
            self.round();
            let v = self.sys.kernel().pers.global_version();
            if self.cluster.replicas.iter().all(|r| r.applied_round() == v) {
                return;
            }
        }
        panic!("replicas never caught up");
    }

    /// One checkpoint round, then every replica drains its ring.
    fn round(&self) {
        self.sys.checkpoint_now().expect("checkpoint");
        for r in &self.cluster.replicas {
            r.poll();
        }
    }

    fn write_heap(&self, page: u64, off: u64, data: &[u8]) {
        self.sys.write_mem(self.vmspace, page * PAGE_SIZE as u64 + off, data).expect("heap write");
    }

    fn write_ring(&self, page: u64, off: u64, data: &[u8]) {
        let addr = (RING_VPN + page) * PAGE_SIZE as u64 + off;
        self.sys.write_mem(self.vmspace, addr, data).expect("ring write");
    }

    fn raw_oroot(&self, pmo: ObjId) -> u64 {
        self.sys.kernel().object(pmo).expect("pmo").oroot().expect("checkpointed").to_raw()
    }

    /// The NVM frame holding `page` of `pmo` at runtime (`None` if the
    /// page lives in DRAM).
    fn runtime_frame(&self, pmo: ObjId, page: u64) -> Option<FrameId> {
        let obj = self.sys.kernel().object(pmo).expect("pmo");
        let body = obj.body.read();
        let ObjectBody::Pmo(p) = &*body else { panic!("not a pmo") };
        let slot = p.get(page).expect("materialized page");
        let loc = slot.meta.lock().runtime_loc();
        match loc {
            PhysLoc::Nvm(f) => Some(f),
            PhysLoc::Dram(_) => None,
        }
    }

    /// The current bytes of `page` of the heap or ring, as the process sees them.
    fn live_page(&self, vpn: u64) -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        self.sys.read_mem(self.vmspace, vpn * PAGE_SIZE as u64, &mut buf).expect("read");
        buf
    }
}

fn mirror_page(store: &ReplicaStore, oroot: u64, idx: u64) -> Vec<u8> {
    store.pages.get(&(oroot, idx)).expect("mirrored page").data.to_vec()
}

/// Snapshots the device's read counter into `slot` when a round commits.
struct ReadProbe {
    sys_reads: Arc<dyn Fn() -> u64 + Send + Sync>,
    slot: AtomicU64,
}

impl CkptCallback for ReadProbe {
    fn on_checkpoint(&self, _version: u64) {
        self.slot.store((self.sys_reads)(), Ordering::SeqCst);
    }
}

#[test]
fn delta_round_reads_only_changed_pages() {
    const HEAP: u64 = 96;
    let rig = Rig::new(HEAP, ClusterConfig { replicas: 1, ..Default::default() });
    let kernel = Arc::clone(rig.sys.kernel());
    let reads: Arc<dyn Fn() -> u64 + Send + Sync> =
        Arc::new(move || kernel.pers.dev.stats().snapshot().bytes_read);
    // Bracket the shipper (installed at the front of the chain): `before`
    // goes in front of it, `after` at the back. No NIC is deployed, so
    // nothing else reads the device between the two.
    let before = Arc::new(ReadProbe { sys_reads: Arc::clone(&reads), slot: AtomicU64::new(0) });
    let after = Arc::new(ReadProbe { sys_reads: reads, slot: AtomicU64::new(0) });
    rig.sys.manager().register_callback_front(Arc::clone(&before) as _);
    rig.sys.manager().register_callback(Arc::clone(&after) as _);
    let metrics_before = rig.sys.metrics_snapshot();

    for r in 1..=6u64 {
        // One dirty heap page and one host-written eternal page per round.
        rig.write_heap((r * 13) % HEAP, 100, &r.to_le_bytes());
        rig.write_ring(r % RING_PAGES, 8, &r.to_le_bytes());
        rig.round();
        let shipper_read =
            after.slot.load(Ordering::SeqCst) - before.slot.load(Ordering::SeqCst);
        assert!(
            shipper_read <= 2 * PAGE_SIZE as u64,
            "round {r}: shipper read {shipper_read} B for 1 dirty + 1 eternal page"
        );
        let ship = rig.cluster.shipper.last_ship.lock().clone();
        assert_eq!(ship.pages_read, 2, "round {r}");
        assert_eq!(ship.pages, 2, "round {r}");
        assert_eq!(ship.snapshots, 0, "round {r}");
    }
    let m = rig.sys.metrics_snapshot().since(&metrics_before);
    assert_eq!(m.repl_pages_read, 12);
    assert_eq!(rig.cluster.replicas[0].applied_round(), rig.sys.kernel().pers.global_version());
}

#[test]
fn host_write_to_eternal_page_ships_next_round() {
    let rig = Rig::new(8, ClusterConfig { replicas: 1, ..Default::default() });
    let ring = rig.raw_oroot(rig.ring);
    // No fault fires for an eternal page: nothing marks the PMO dirty.
    rig.write_ring(2, 40, b"host-written, never faulted");
    rig.round();
    let store = rig.cluster.replicas[0].store_snapshot();
    assert_eq!(mirror_page(&store, ring, 2), rig.live_page(RING_VPN + 2));
}

#[test]
fn media_bit_flip_on_runtime_page_is_reread_and_shipped() {
    let rig = Rig::new(16, ClusterConfig { replicas: 1, ..Default::default() });
    let (heap, ring) = (rig.raw_oroot(rig.heap), rig.raw_oroot(rig.ring));
    let dev = &rig.sys.kernel().pers.dev;
    let heap_frame = rig.runtime_frame(rig.heap, 3).expect("page 3 is on NVM");
    let ring_frame = rig.runtime_frame(rig.ring, 1).expect("ring pages are on NVM");
    dev.flip_frame_bit(heap_frame, 77, 2);
    dev.flip_frame_bit(ring_frame, 5, 6);
    // Another heap page's write puts the heap record in the round; the
    // ring rides along every round.
    rig.write_heap(9, 0, b"dirty");
    rig.round();
    let store = rig.cluster.replicas[0].store_snapshot();
    assert_eq!(mirror_page(&store, heap, 3), rig.live_page(3), "rotted heap page re-read");
    assert_eq!(mirror_page(&store, ring, 1), rig.live_page(RING_VPN + 1), "rotted ring page");
    assert_eq!(store.pages[&(heap, 3)].crc, treesls_nvm::crc32(&rig.live_page(3)));
}

#[test]
fn delta_fed_mirror_equals_fresh_snapshot_across_seeds() {
    const HEAP: u64 = 32;
    for seed in 0..5u64 {
        let rig = Rig::new(HEAP, ClusterConfig { replicas: 2, ..Default::default() });
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..12 {
            for _ in 0..(next() % 4) {
                let page = next() % HEAP;
                let len = [1, 8, 64, 300, PAGE_SIZE as u64][(next() % 5) as usize];
                let off = next() % (PAGE_SIZE as u64 - len + 1);
                rig.write_heap(page, off, &pattern(page, next())[..len as usize]);
            }
            if next() % 2 == 0 {
                rig.write_ring(next() % RING_PAGES, next() % 4000, &next().to_le_bytes());
            }
            rig.round();
        }
        // Replica 1 reboots and catches up through a snapshot.
        rig.cluster.kill(1);
        rig.cluster.revive(1);
        rig.settle();
        let delta = rig.cluster.replicas[0].store_snapshot();
        let snap = rig.cluster.replicas[1].store_snapshot();
        assert_eq!(delta.applied_round, snap.applied_round, "seed {seed}");
        assert_eq!(delta.records, snap.records, "seed {seed}: records and manifests");
        for rec in snap.records.iter() {
            let (&oroot, WireRecord::Pmo { pages, .. }) = rec else { continue };
            for &(idx, _, crc) in pages {
                let (d, s) = (&delta.pages[&(oroot, idx)], &snap.pages[&(oroot, idx)]);
                assert_eq!((d.crc, &d.data), (crc, &s.data), "seed {seed}: page {oroot}/{idx}");
            }
        }
        for p in 0..HEAP {
            let heap = rig.raw_oroot(rig.heap);
            assert_eq!(mirror_page(&delta, heap, p), rig.live_page(p), "seed {seed} page {p}");
        }
    }
}

/// Finds the VM space of the cap group named `name`.
fn find_vmspace(sys: &System, name: &str) -> ObjId {
    let kernel = sys.kernel();
    let objects: Vec<_> = kernel.objects.read().iter().map(|(_, o)| Arc::clone(o)).collect();
    for o in objects {
        let body = o.body.read();
        let ObjectBody::CapGroup(g) = &*body else { continue };
        if g.name != name {
            continue;
        }
        for (_, c) in g.iter() {
            if kernel.object(c.obj).map(|o| o.otype) == Ok(ObjType::VmSpace) {
                return c.obj;
            }
        }
    }
    panic!("no vmspace for {name:?}");
}

#[test]
fn default_cluster_replicates_a_640_page_pmo_to_quorum_and_promotes() {
    // 640 pages × 20 B of manifest is ~12.5 KiB: more than one default
    // 8 KiB delta slot holds, so the record must split.
    const HEAP: u64 = 640;
    let ccfg = ClusterConfig {
        ship: ShipConfig { quorum: 2, ..ShipConfig::default() },
        ..ClusterConfig::default()
    };
    let rig = Rig::new(HEAP, ccfg);
    rig.cluster.start();
    rig.write_heap(600, 0, b"past the first slot's manifest");
    let mut durable = false;
    for _ in 0..20 {
        rig.sys.checkpoint_now().expect("checkpoint");
        let v = rig.sys.kernel().pers.global_version();
        if rig.cluster.shipper.health.durable_round() == v {
            durable = true;
            break;
        }
    }
    assert!(durable, "a 640-page PMO never reached quorum");
    assert!(!rig.cluster.shipper.health.is_degraded());
    rig.cluster.stop();
    let expect: Vec<Vec<u8>> = (0..HEAP).map(|p| rig.live_page(p)).collect();
    let (promoted, _report) =
        rig.cluster.promote(0, SystemConfig::small(), |_| {}).expect("promote");
    let vmspace = find_vmspace(&promoted, "delta");
    for (p, want) in expect.iter().enumerate() {
        let mut got = vec![0u8; PAGE_SIZE];
        promoted.read_mem(vmspace, p as u64 * PAGE_SIZE as u64, &mut got).expect("read");
        assert!(&got == want, "promoted page {p} differs");
    }
}
