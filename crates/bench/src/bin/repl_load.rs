//! `repl_load`: checkpoint-shipping replication under load, plus the
//! deterministic cluster drill.
//!
//! Two measured configurations run the same closed-loop KV workload
//! behind the external-synchrony NIC:
//!
//! * **single-box** — no cluster attached (`quorum = 1` semantics, the
//!   compatibility oracle);
//! * **cluster** — two replicas polling on their own threads with
//!   `quorum = 2`: every response is held until its round is durable on
//!   the primary plus one replica.
//!
//! Because the shipper runs in the post-commit callback chain, quorum
//! waiting must not inflate the stop-the-world pause itself — the `--gate`
//! run enforces `cluster median pause <= 2x single-box median pause`,
//! along with zero §5 violations anywhere.
//!
//! The drill phase then replays the EXPERIMENTS.md cluster drill end to
//! end: (a) a replica is killed mid-stream and resyncs via snapshot,
//! (b) a partition during commit forces a gap-detect resync, (c) the
//! primary is lost and a replica is promoted — and every externally
//! acknowledged SET must be readable on the promoted machine.
//!
//! ```sh
//! cargo run --release --bin repl_load -- --json
//! cargo run --release --bin repl_load -- --duration-ms 250 --gate  # CI smoke
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use treesls::net::{NicConfig, VirtualNic};
use treesls::{PauseStats, Program, System, SystemConfig};
use treesls_apps::client::{run_parallel_clients_checked, RunStats};
use treesls_apps::server::xorshift64;
use treesls_apps::wire::{make_key, numeric_key, KvOp, KvResp};
use treesls_bench::harness::BenchOpts;
use treesls_bench::ringsetup::{deploy_kv_cfg, ShardGeometry};
use treesls_bench::table::Table;
use treesls_bench::Sink;
use treesls_repl::{Cluster, ClusterConfig};

/// Small shard: the whole table lives in a handful of pages, so every
/// PMO manifest fits a replication ring slot with room to spare.
const GEOM: ShardGeometry = ShardGeometry { nslots: 8, slot_size: 84, data_stride: 16 * 4096 };
const NBUCKETS: u64 = 16;
const VALUE_CAP: u64 = 40;
const KEY_SPACE: u64 = 12;

struct ReplOpts {
    /// Wall-clock load duration per configuration.
    duration_ms: u64,
    /// Client threads.
    clients: usize,
    /// Checkpoint interval in microseconds.
    interval_us: u64,
    /// Enforce the gates (exit 1 on violation).
    gate: bool,
}

fn parse_repl_opts() -> ReplOpts {
    let mut o = ReplOpts { duration_ms: 600, clients: 4, interval_us: 1000, gate: false };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 0;
    while i < args.len() {
        let next = |i: usize| -> Option<&String> { args.get(i + 1) };
        match args[i].as_str() {
            "--duration-ms" => {
                if let Some(v) = next(i) {
                    o.duration_ms = v.parse().expect("--duration-ms N");
                }
            }
            "--clients" => {
                if let Some(v) = next(i) {
                    o.clients = v.parse().expect("--clients N");
                }
            }
            "--interval-us" => {
                if let Some(v) = next(i) {
                    o.interval_us = v.parse().expect("--interval-us N");
                }
            }
            "--gate" => o.gate = true,
            _ => {}
        }
        i += 1;
    }
    o
}

fn sys_config(opts: &BenchOpts, interval_us: u64) -> SystemConfig {
    SystemConfig {
        kernel: treesls::KernelConfig {
            nvm_frames: 8192,
            dram_pages: 256,
            ..Default::default()
        },
        cores: opts.cores,
        quantum: 32,
        checkpoint_interval: Some(Duration::from_micros(interval_us)),
    }
}

fn nic_cfg() -> NicConfig {
    NicConfig {
        queues: 1,
        nslots: GEOM.nslots,
        slot_size: GEOM.slot_size,
        credits: GEOM.nslots,
        ext_sync: true,
        fault: Default::default(),
        call_timeout: Duration::from_secs(5),
    }
}

/// Closed-loop SET load over a small key space until the deadline.
fn drive(nic: &VirtualNic, clients: usize, duration: Duration) -> RunStats {
    let deadline = Instant::now() + duration;
    run_parallel_clients_checked(nic, clients, |t| {
        let mut rng = 0x5EED_u64.wrapping_add(t as u64 * 6_364_136_223_846_793_005);
        Box::new(move || {
            if Instant::now() >= deadline {
                return None;
            }
            rng = xorshift64(rng);
            let id = (rng >> 8) % KEY_SPACE;
            Some((id, KvOp::Set { key: numeric_key(id), value: vec![7u8; 24] }))
        })
    })
}

/// Calls until a decoded OK reply lands, riding out sheds and timeouts.
fn call_retry(nic: &VirtualNic, flow: u64, op: &KvOp, attempts: u32) -> Option<KvResp> {
    for _ in 0..attempts {
        match nic.call(flow, &op.encode(), Duration::from_secs(5)) {
            Ok(outcome) => {
                if let Some(r) = outcome.reply() {
                    return KvResp::decode(&r);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    None
}

struct LoadResult {
    stats: RunStats,
    pause: PauseStats,
    /// `(rounds, records, pages, bytes, pages read)` shipped — zero for
    /// single-box.
    shipped: (u64, u64, u64, u64, u64),
}

/// One load configuration: boot, deploy, optionally cluster, load.
fn run_load(opts: &BenchOpts, ro: &ReplOpts, with_cluster: bool) -> LoadResult {
    let mut sys = System::boot(sys_config(opts, ro.interval_us));
    let dep = deploy_kv_cfg(&sys, NBUCKETS, VALUE_CAP, nic_cfg(), GEOM);
    let cluster = with_cluster.then(|| {
        let mut ccfg = ClusterConfig::default();
        ccfg.ship.quorum = 2;
        let cluster = Cluster::deploy(&sys, &ccfg);
        cluster.attach_gate(&dep.nic);
        cluster.start();
        cluster
    });
    sys.start();
    let stats = drive(&dep.nic, ro.clients, Duration::from_millis(ro.duration_ms));
    let pause = sys.kernel().metrics.pause_histogram().stats();
    let snap = sys.kernel().metrics.snapshot();
    let shipped = if with_cluster {
        (
            snap.repl_rounds_shipped,
            snap.repl_records_shipped,
            snap.repl_pages_shipped,
            snap.repl_bytes_shipped,
            snap.repl_pages_read,
        )
    } else {
        (0, 0, 0, 0, 0)
    };
    sys.stop();
    if let Some(c) = cluster {
        c.stop();
    }
    LoadResult { stats, pause, shipped }
}

struct DrillResult {
    acked: u64,
    resyncs: u64,
    quarantines: u64,
    violations: u64,
    promoted_round: u64,
}

/// The three-phase cluster drill with the §5 oracle across failover.
fn run_drill(opts: &BenchOpts, ro: &ReplOpts) -> DrillResult {
    let mut sys = System::boot(sys_config(opts, ro.interval_us));
    let dep = deploy_kv_cfg(&sys, NBUCKETS, VALUE_CAP, nic_cfg(), GEOM);
    let mut ccfg = ClusterConfig::default();
    ccfg.ship.quorum = 2;
    let cluster = Cluster::deploy(&sys, &ccfg);
    cluster.attach_gate(&dep.nic);
    cluster.start();
    sys.start();

    let mut acked: Vec<(u64, [u8; 16], Vec<u8>)> = Vec::new();
    let commit = |range: std::ops::Range<u64>, acked: &mut Vec<(u64, [u8; 16], Vec<u8>)>| {
        for i in range {
            let key = make_key(format!("rk-{i}").as_bytes());
            let value = format!("rv-{i}").into_bytes();
            let op = KvOp::Set { key, value: value.clone() };
            if matches!(call_retry(&dep.nic, i, &op, 32), Some(KvResp::Ok(_))) {
                acked.push((i, key, value));
            }
        }
    };

    // (a) Replica 1 dies mid-stream, reboots, and resyncs via snapshot.
    commit(0..2, &mut acked);
    cluster.kill(1);
    commit(2..4, &mut acked);
    cluster.revive(1);

    // (b) Partition during commit: replica 1 gap-detects and resyncs.
    commit(4..6, &mut acked);
    cluster.set_partitioned(1, true);
    commit(6..8, &mut acked);
    cluster.set_partitioned(1, false);
    commit(8..10, &mut acked);

    // Quiesce: stop admitting, land a final round, and wait for the
    // failover target to reach the head of the stream.
    sys.stop();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        sys.checkpoint_now().expect("final checkpoint");
        let head = sys.kernel().pers.global_version();
        std::thread::sleep(Duration::from_millis(5));
        if cluster.replicas[0].applied_round() == head
            && !cluster.replicas[0].is_awaiting_snapshot()
        {
            break;
        }
        assert!(Instant::now() < deadline, "replica 0 never reached the stream head");
    }
    let resyncs = sys.kernel().metrics.snapshot().repl_resyncs;
    let quarantines = cluster.replicas.iter().map(|r| r.metrics.snapshot().repl_quarantined).sum();

    // (c) The primary is lost; promote replica 0.
    let programs: Vec<(String, Arc<dyn Program>)> = sys
        .programs()
        .names()
        .into_iter()
        .filter_map(|n| sys.programs().get(&n).map(|p| (n, p)))
        .collect();
    let layout = dep.nic.layout();
    dep.nic.close();
    cluster.stop();
    drop(dep);
    drop(sys);

    let (mut sys2, report) = cluster
        .promote(0, sys_config(opts, ro.interval_us), |reg| {
            for (name, prog) in &programs {
                reg.register(name, Arc::clone(prog));
            }
        })
        .expect("promotion");
    sys2.manager().verify_checkpoint().expect("promoted tree verifies");

    let (vs2, servers, bells) = restored_server(&sys2);
    assert!(!servers.is_empty(), "server threads restored");
    let nic2 = VirtualNic::attach(Arc::clone(sys2.kernel()), vs2, layout, &nic_cfg(), 10_000_000);
    for (q, bell) in bells.into_iter().enumerate() {
        nic2.set_doorbell(q, bell);
    }
    sys2.manager().register_callback(Arc::clone(&nic2) as _);
    sys2.manager().fire_restore_callbacks(report.version);
    sys2.start();

    // §5 across the failover: every acknowledged SET is readable.
    let mut violations = 0;
    for (flow, key, value) in &acked {
        match call_retry(&nic2, *flow, &KvOp::Get { key: *key }, 32) {
            Some(KvResp::Ok(Some(v))) if &v == value => {}
            other => {
                violations += 1;
                eprintln!("acked SET {key:?} lost across failover: {other:?}");
            }
        }
    }
    sys2.stop();
    DrillResult {
        acked: acked.len() as u64,
        resyncs,
        quarantines,
        violations,
        promoted_round: report.version,
    }
}

/// Resolves the restored "ring-kv" process: vmspace, server threads, and
/// per-queue doorbell notifications in capability-slot order.
fn restored_server(sys: &System) -> (treesls::ObjId, Vec<treesls::ObjId>, Vec<treesls::ObjId>) {
    use treesls_kernel::object::ObjectBody;
    let kernel = sys.kernel();
    let objects = kernel.objects.read();
    let group = objects
        .iter()
        .map(|(_, o)| Arc::clone(o))
        .find(|o| {
            o.otype == treesls::ObjType::CapGroup
                && matches!(&*o.body.read(), ObjectBody::CapGroup(g) if g.name == "ring-kv")
        })
        .expect("ring-kv cap group restored");
    drop(objects);
    let body = group.body.read();
    let ObjectBody::CapGroup(g) = &*body else { unreachable!() };
    let mut vmspace = None;
    let mut servers = Vec::new();
    let mut bells = Vec::new();
    for (_, c) in g.iter() {
        match kernel.object(c.obj).map(|o| o.otype) {
            Ok(treesls::ObjType::VmSpace) => vmspace = vmspace.or(Some(c.obj)),
            Ok(treesls::ObjType::Thread) => servers.push(c.obj),
            Ok(treesls::ObjType::Notification) => bells.push(c.obj),
            _ => {}
        }
    }
    (vmspace.expect("server vmspace restored"), servers, bells)
}

fn main() {
    let opts = BenchOpts::from_args();
    let ro = parse_repl_opts();
    let mut sink = Sink::new(
        "repl",
        &format!(
            "checkpoint-shipping replication: {} clients, {} µs checkpoints, quorum 2",
            ro.clients, ro.interval_us
        ),
        &opts,
    );

    let single = run_load(&opts, &ro, false);
    let cluster = run_load(&opts, &ro, true);
    let mut load = Table::new(&[
        "Config",
        "Ops",
        "Throughput(ops/s)",
        "P50(µs)",
        "P99(µs)",
        "SyncViolations",
        "PauseP50(µs)",
        "ShippedRounds",
        "ShippedPages",
        "ShippedKiB",
        "PagesRead",
    ]);
    for (name, r) in [("single-box", &single), ("cluster-q2", &cluster)] {
        load.row(vec![
            name.into(),
            r.stats.ops.to_string(),
            format!("{:.0}", r.stats.throughput()),
            format!("{:.1}", r.stats.latency.p50() as f64 / 1e3),
            format!("{:.1}", r.stats.latency.p99() as f64 / 1e3),
            r.stats.sync_violations.to_string(),
            format!("{:.1}", r.pause.p50_ns as f64 / 1e3),
            r.shipped.0.to_string(),
            r.shipped.2.to_string(),
            format!("{:.1}", r.shipped.3 as f64 / 1024.0),
            r.shipped.4.to_string(),
        ]);
    }
    sink.table("load", load);

    let drill = run_drill(&opts, &ro);
    let mut dt = Table::new(&[
        "AckedSets",
        "Resyncs",
        "Quarantines",
        "PromotedRound",
        "FailoverViolations",
    ]);
    dt.row(vec![
        drill.acked.to_string(),
        drill.resyncs.to_string(),
        drill.quarantines.to_string(),
        drill.promoted_round.to_string(),
        drill.violations.to_string(),
    ]);
    sink.table("drill", dt);

    let total_violations =
        single.stats.sync_violations + cluster.stats.sync_violations + drill.violations;
    let ratio = cluster.pause.p50_ns as f64 / single.pause.p50_ns.max(1) as f64;
    sink.note(&format!(
        "§5 oracle: {total_violations} violations (load single/cluster + failover drill)"
    ));
    sink.note(&format!(
        "quorum overhead: cluster pause p50 {:.1} µs vs single-box {:.1} µs ({ratio:.2}x)",
        cluster.pause.p50_ns as f64 / 1e3,
        single.pause.p50_ns as f64 / 1e3,
    ));

    let mut failed = Vec::new();
    if total_violations > 0 {
        failed.push(format!("{total_violations} external-synchrony violations"));
    }
    if drill.acked == 0 {
        failed.push("drill acknowledged no writes".to_string());
    }
    if drill.resyncs == 0 {
        failed.push("drill never exercised a resync".to_string());
    }
    if ro.gate {
        // The shipper runs post-commit, off the stop-the-world path:
        // quorum waiting must not show up in the pause itself.
        sink.note(&format!(
            "gate: pause ratio {ratio:.2}x vs budget 2.00x -> {}",
            if ratio <= 2.0 { "PASS" } else { "FAIL" }
        ));
        if ratio > 2.0 {
            failed.push(format!("cluster pause p50 {ratio:.2}x single-box (budget 2x)"));
        }
        if cluster.stats.ops == 0 {
            failed.push("gated cluster run completed no operations".to_string());
        }
    }
    sink.finish();
    if !failed.is_empty() {
        eprintln!("repl_load FAILED: {}", failed.join("; "));
        std::process::exit(1);
    }
}
