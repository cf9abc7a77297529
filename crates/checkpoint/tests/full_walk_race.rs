//! The full walk's reference counts must match the records it leaves.
//!
//! Mutators run through a checkpoint's tree walk. When one changes an
//! object's capabilities between the walk reading its children and the
//! walk building its record, reference counts taken from the runtime
//! disagree with the record edges the dirty walk later subtracts. A count
//! one short lets a later dirty round tombstone an object that a live
//! record still names, and restore then finds a dangling reference
//! (`DeadObject`). Here a host thread grants and revokes a second
//! capability to a notification as fast as it can while rounds alternate
//! between full and dirty walks. Afterwards the notification must keep
//! its ORoot with an exact count (one reference: its owner's), and the
//! crash image must restore with the notification still reachable from
//! its owner.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use treesls_checkpoint::{crash, restore, CheckpointManager};
use treesls_kernel::cap::CapRights;
use treesls_kernel::cores::StwController;
use treesls_kernel::object::{ObjType, ObjectBody};
use treesls_kernel::program::ProgramRegistry;
use treesls_kernel::{Kernel, KernelConfig};

fn no_programs(_r: &ProgramRegistry) {}

#[test]
fn toggled_capability_never_leaves_a_dangling_record() {
    for trial in 0..6 {
        let kernel = Kernel::boot(KernelConfig {
            nvm_frames: 2048,
            dram_pages: 64,
            // Every other round is a full walk, so dirty rounds apply
            // deltas against the counts a full walk just rebuilt.
            full_walk_interval: 2,
            ..KernelConfig::default()
        });
        let mgr = CheckpointManager::new(Arc::clone(&kernel), Arc::new(StwController::new()));
        let owner = kernel.create_cap_group("owner").unwrap();
        let notif = kernel.create_notification(owner).unwrap();
        let other = kernel.create_cap_group("other").unwrap();
        mgr.checkpoint().unwrap();
        let notif_oroot = kernel.object(notif).unwrap().oroot().expect("checkpointed");

        let stop = Arc::new(AtomicBool::new(false));
        let toggles = Arc::new(AtomicU64::new(0));
        let toggler = {
            let (kernel, stop, toggles) =
                (Arc::clone(&kernel), Arc::clone(&stop), Arc::clone(&toggles));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let slot = kernel.install_cap(other, notif, CapRights::ALL).unwrap();
                    kernel.revoke_cap(other, slot).unwrap();
                    toggles.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(300) || toggles.load(Ordering::Relaxed) < 1000
        {
            mgr.checkpoint().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        toggler.join().unwrap();
        for _ in 0..3 {
            mgr.checkpoint().unwrap();
        }
        drop(mgr);
        assert_eq!(
            kernel.object(notif).unwrap().oroot(),
            Some(notif_oroot),
            "trial {trial}: the notification's ORoot was swept while referenced"
        );
        assert_eq!(
            kernel.pers.oroots.with(notif_oroot, |r| r.inrefs),
            Some(1),
            "trial {trial}: reference count drifted from the records"
        );

        let (restored, _) = restore(crash(kernel), KernelConfig::default(), no_programs)
            .unwrap_or_else(|e| panic!("trial {trial}: restore failed: {e:?}"));
        let objects: Vec<_> =
            restored.objects.read().iter().map(|(_, o)| Arc::clone(o)).collect();
        let owner_caps = objects
            .iter()
            .find_map(|o| match &*o.body.read() {
                ObjectBody::CapGroup(g) if g.name == "owner" => {
                    Some(g.iter().map(|(_, c)| c.obj).collect::<Vec<_>>())
                }
                _ => None,
            })
            .expect("owner restored");
        assert!(
            owner_caps
                .iter()
                .any(|&c| restored.object(c).map(|o| o.otype) == Ok(ObjType::Notification)),
            "trial {trial}: owner lost its notification"
        );
    }
}
