//! The system under test: one workload's deployment behind the virtual
//! NIC, its wire protocol, the output oracle, the measured open-loop
//! window and the crash cycles.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use treesls::extsync::HostIo;
use treesls::net::{
    deploy, key_flow, DeploySpec, NetError, NicConfig, NicLayout, Service, VirtualNic,
};
use treesls::{KernelConfig, ObjId, ObjType, Program, System, SystemConfig};
use treesls_apps::hashkv::HashKv;
use treesls_apps::server::KvService;
use treesls_apps::wire::{numeric_key, KvOp, KvResp};
use treesls_kernel::object::ObjectBody;
use treesls_repl::{Cluster, ClusterConfig};
use treesls_txn::{check_index_consistency, TxnGate, TxnOp, TxnResp, TxnService, TxnStore};

use crate::gen::{
    cycle_seq, decode_value, encode_value, mix, KeyDist, Kind, Op, Plan, Schedule, Zipf,
};
use crate::stats::{current_tid, now_ns};
use crate::trace::{End, RoundLog, RoundStamps, TimedService};

/// The application protocol a workload speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// `KvService`: GET / SET over the hash table.
    Kv,
    /// `TxnService`: auto-commit reads and tagged updates over the B+ tree.
    Txn,
}

/// Everything that defines one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Protocol.
    pub proto: Proto,
    /// Offered load (requests per second).
    pub rate: u64,
    /// Writes per mille.
    pub write_permille: u64,
    /// Key chooser (its size is the key count; every key is loaded).
    pub keys: KeyDist,
    /// Value bytes.
    pub value_len: usize,
    /// Hash-table buckets (KV) or tree nodes (txn).
    pub capacity: u64,
    /// NIC ring slots (and admission credits).
    pub nslots: u64,
    /// NIC slot bytes.
    pub slot_size: u64,
    /// Server round size.
    pub batch: usize,
    /// Kernel DRAM hot-page cache size.
    pub dram_pages: usize,
    /// Replicas (0: single box).
    pub replicas: usize,
    /// Crash (or promotion) cycles after the window.
    pub cycles: u64,
}

impl Spec {
    /// The named workload.
    pub fn by_name(name: &str) -> Option<Spec> {
        Some(match name {
            "kv-read" => Spec {
                name: "kv-read",
                proto: Proto::Kv,
                rate: 8000,
                write_permille: 50,
                keys: KeyDist::Uniform(10_000),
                value_len: 64,
                capacity: 16_384,
                nslots: 1024,
                slot_size: 256,
                batch: 32,
                dram_pages: 2048,
                replicas: 0,
                cycles: 21,
            },
            "txn-ycsb-a" => Spec {
                name: "txn-ycsb-a",
                proto: Proto::Txn,
                rate: 6000,
                write_permille: 500,
                keys: KeyDist::Zipf(Zipf::new(1024, 0.99)),
                value_len: 32,
                capacity: 2048,
                nslots: 1024,
                slot_size: 256,
                batch: 16,
                dram_pages: 512,
                replicas: 0,
                cycles: 21,
            },
            "kv-write-repl" => Spec {
                name: "kv-write-repl",
                proto: Proto::Kv,
                rate: 2000,
                write_permille: 500,
                keys: KeyDist::Uniform(1000),
                value_len: 1024,
                capacity: 2048,
                nslots: 256,
                slot_size: 1280,
                batch: 32,
                // Below the ~530-page written table, so hybrid copy
                // migrates and evicts.
                dram_pages: 256,
                replicas: 1,
                cycles: 9,
            },
            _ => return None,
        })
    }

    /// Key count.
    pub fn nkeys(&self) -> u64 {
        self.keys.keys()
    }

    /// Key + value bytes one write stores.
    pub fn record_bytes(&self) -> u64 {
        (treesls_apps::wire::KEY_LEN + self.value_len) as u64
    }

    fn sys_config(&self) -> SystemConfig {
        SystemConfig {
            kernel: KernelConfig {
                nvm_frames: 16_384,
                dram_pages: self.dram_pages,
                ..Default::default()
            },
            cores: 1,
            quantum: 32,
            checkpoint_interval: Some(Duration::from_millis(1)),
        }
    }

    fn nic_config(&self) -> NicConfig {
        NicConfig {
            queues: 1,
            nslots: self.nslots,
            slot_size: self.slot_size,
            credits: self.nslots,
            ext_sync: true,
            fault: Default::default(),
            call_timeout: Duration::from_secs(5),
        }
    }

    fn cluster_config(&self) -> ClusterConfig {
        // A delta carries each PMO's page manifest (20 B per backed page)
        // in one ring slot: the default 8 KiB slot cannot hold the
        // ~530-page table's manifest, and shipping then wedges in
        // degraded mode. 16 KiB slots carry it.
        //
        // A full snapshot (one frame per live page; the table alone has
        // ~530) must fit in the ring: with a smaller ring it ships only
        // while the replica drains concurrently, and a host stall longer
        // than the push retries fails it, so the next round ships the
        // snapshot again. The quorum wait is long enough that a host stall does
        // not put the cluster into degraded mode, which sheds every
        // request: the workload measures the quorum path, not degraded
        // mode.
        let mut c = ClusterConfig {
            replicas: self.replicas,
            nslots: 2048,
            slot_size: 16 << 10,
            ..ClusterConfig::default()
        };
        c.ship.quorum = 2;
        c.ship.ack_timeout = Duration::from_secs(1);
        c.ship.max_retries = 16;
        c
    }

    /// Request bytes of `op`.
    pub fn request(&self, op: &Op) -> Vec<u8> {
        let key = numeric_key(op.key);
        match (self.proto, op.kind) {
            (Proto::Kv, Kind::Read) => KvOp::Get { key }.encode(),
            (Proto::Kv, Kind::Write) => KvOp::Set {
                key,
                value: encode_value(op.key, op.seq, self.value_len),
            }
            .encode(),
            (Proto::Txn, Kind::Read) => TxnOp::Read { txn: 0, key }.encode(),
            (Proto::Txn, Kind::Write) => TxnOp::Write {
                txn: 0,
                key,
                tag: tag_of(op.seq),
                val: Some(encode_value(op.key, op.seq, self.value_len)),
            }
            .encode(),
        }
    }

    /// Decodes a reply to an `op.kind` request.
    pub fn reply(&self, kind: Kind, bytes: &[u8]) -> Reply {
        match self.proto {
            Proto::Kv => match (kind, KvResp::decode(bytes)) {
                (Kind::Read, Some(KvResp::Ok(Some(v)))) => Reply::Value(v),
                (Kind::Write, Some(KvResp::Ok(None))) => Reply::Written,
                (_, Some(KvResp::Miss)) => Reply::Miss,
                (_, Some(KvResp::Error)) => Reply::Refused,
                _ => Reply::Garbled,
            },
            Proto::Txn => match (kind, TxnResp::decode(bytes)) {
                (Kind::Read, Some(TxnResp::Value { val })) => Reply::Value(val),
                (Kind::Write, Some(TxnResp::Ok { .. })) => Reply::Written,
                (_, Some(TxnResp::Miss)) => Reply::Miss,
                (_, Some(TxnResp::Conflict | TxnResp::Error | TxnResp::UnknownTxn)) => {
                    Reply::Refused
                }
                _ => Reply::Garbled,
            },
        }
    }
}

/// Secondary-index tag of a write: eight tags, so updates move index
/// entries between them.
fn tag_of(seq: u64) -> [u8; 16] {
    let mut t = [0u8; 16];
    t[..3].copy_from_slice(b"tag");
    t[3] = b'0' + (seq % 8) as u8;
    t
}

/// A decoded reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A read's value.
    Value(Vec<u8>),
    /// A write's acknowledgement.
    Written,
    /// The key is absent.
    Miss,
    /// The server refused the operation (error, conflict).
    Refused,
    /// Not a reply of the expected shape.
    Garbled,
}

/// The output oracle's memory of what was sent and acknowledged.
#[derive(Debug)]
pub struct Oracle {
    value_len: usize,
    /// Key of every write ever sent, by write sequence.
    sent: HashMap<u64, u64>,
    /// Highest acknowledged write sequence per key.
    acked: Vec<u64>,
    /// Oracle violations (incorrect outputs).
    pub violations: u64,
}

impl Oracle {
    fn new(keys: u64, value_len: usize) -> Oracle {
        Oracle {
            value_len,
            sent: HashMap::new(),
            acked: vec![0; keys as usize],
            violations: 0,
        }
    }

    /// Records a write about to be sent.
    pub fn sent(&mut self, op: &Op) {
        self.sent.insert(op.seq, op.key);
    }

    /// Records an acknowledged write.
    pub fn acked(&mut self, op: &Op) {
        let a = &mut self.acked[op.key as usize];
        *a = (*a).max(op.seq);
    }

    /// Highest acknowledged write sequence of `key`.
    pub fn floor(&self, key: u64) -> u64 {
        self.acked[key as usize]
    }

    /// Records a violation and says so on stderr.
    pub fn violation(&mut self, what: &str) {
        self.violations += 1;
        if self.violations <= 20 {
            eprintln!("ORACLE VIOLATION: {what}");
        }
    }

    /// Checks a value read from `key` against the writes acknowledged
    /// before the read was sent (`floor`): it must decode to its own key,
    /// be a write actually sent to that key, and not be older than the
    /// floor. Returns whether it passed.
    pub fn check_read(&mut self, key: u64, v: &[u8], floor: u64) -> bool {
        match decode_value(v, self.value_len) {
            None => self.violation(&format!(
                "key {key}: value does not decode ({} bytes)",
                v.len()
            )),
            Some((k, _)) if k != key => {
                self.violation(&format!("key {key}: read the value of key {k}"))
            }
            Some((_, seq)) if self.sent.get(&seq) != Some(&key) => {
                self.violation(&format!("key {key}: value seq {seq} was never sent to it"))
            }
            Some((_, seq)) if seq < floor => self.violation(&format!(
                "key {key}: read seq {seq} older than acknowledged seq {floor}"
            )),
            Some(_) => return true,
        }
        false
    }

    /// Checks a reply to `op` whose read floor was `floor`: `Acked` for
    /// a correct acknowledgement, `Refused` for an operation the server
    /// refused (failed, not incorrect), `Incorrect` for an incorrect
    /// output (also recorded as a violation).
    pub fn check_reply(&mut self, op: &Op, reply: Reply, floor: u64) -> Outcome {
        match (op.kind, reply) {
            (Kind::Read, Reply::Value(v)) => {
                if self.check_read(op.key, &v, floor) {
                    Outcome::Acked
                } else {
                    Outcome::Incorrect
                }
            }
            (Kind::Write, Reply::Written) => {
                self.acked(op);
                Outcome::Acked
            }
            (_, Reply::Refused) => Outcome::Refused,
            (_, Reply::Miss) => {
                self.violation(&format!("key {}: loaded key reported missing", op.key));
                Outcome::Incorrect
            }
            (kind, r) => {
                self.violation(&format!("key {}: {kind:?} got reply {r:?}", op.key));
                Outcome::Incorrect
            }
        }
    }
}

/// Outcome of one window request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Not answered yet.
    Pending,
    /// Correct acknowledgement.
    Acked,
    /// Shed at admission.
    Shed,
    /// No reply within [`OP_TIMEOUT`].
    TimedOut,
    /// Refused by the server or the transport.
    Refused,
    /// An incorrect output (oracle violation).
    Incorrect,
}

/// One window request, with every stamp the analysis joins on.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    /// The operation.
    pub op: Op,
    /// Scheduled arrival (clock ns).
    pub due: u64,
    /// `send_request` entry and exit.
    pub send: (u64, u64),
    /// Reply taken.
    pub obs: u64,
    /// NIC committed version read before the send and after the reply.
    pub v_send: u64,
    /// See `v_send`.
    pub v_obs: u64,
    /// Highest round whose front commit stamp was taken when the reply
    /// was taken, read before `obs` is stamped (traced runs).
    pub v_front: u64,
    /// NIC sequence number.
    pub nic_seq: u64,
    /// Read floor at send.
    pub floor: u64,
    /// Result.
    pub outcome: Outcome,
}

/// Requests [`Target::call_all`] keeps in flight. A fixed depth, well
/// under every workload's ring, keeps the bulk load (and so `setup_s`)
/// the same shape on every workload.
const CALL_WINDOW: usize = 128;

/// Age after which an unanswered request is abandoned.
pub const OP_TIMEOUT: Duration = Duration::from_secs(2);
/// Gap between two harvests (NIC pumps) of the generator: a fifth of the
/// arrival period, within 10–100 µs. Replies are released once per
/// checkpoint round, so the gap only bounds how late a released reply is
/// seen. Each pump also writes the TX ring's ack word, so the gap is tied
/// to the workload rather than to how fast the generator loop spins.
fn pump_gap_ns(period_ns: u64) -> u64 {
    (period_ns / 5).clamp(10_000, 100_000)
}

/// One window's raw record.
#[derive(Debug, Default)]
pub struct Window {
    /// Every scheduled request, in schedule order.
    pub reqs: Vec<Req>,
    /// Window start (clock ns) = due time of arrival 0's slot.
    pub start: u64,
    /// The last reply (or timeout) of the window.
    pub end: u64,
    /// Sends later than one period after their due time.
    pub late_sends: u64,
    /// Worst send lateness (ns).
    pub max_late_ns: u64,
    /// `(start, duration, replies delivered)` of every pump (traced runs).
    pub pumps: Vec<(u64, u64, u32)>,
    /// The generator thread's id.
    pub gen_tid: u64,
    /// `ckpt_size_bytes()` sampled by the main thread every
    /// [`SPACE_SAMPLE_GAP`] while the window runs.
    pub ckpt_bytes: Vec<u64>,
}

/// Gap between two checkpoint-size samples of a window.
const SPACE_SAMPLE_GAP: Duration = Duration::from_millis(500);

/// A deployed, loaded workload.
pub struct Target {
    spec: Spec,
    sys: Option<System>,
    /// The NIC clients talk to.
    nic: Arc<VirtualNic>,
    vmspace: ObjId,
    layout: NicLayout,
    programs: Vec<(String, Arc<dyn Program>)>,
    txn: Option<Arc<TxnService>>,
    cluster: Option<Cluster>,
    /// The service decorator (traced runs).
    pub timed: Option<Arc<TimedService>>,
    /// Round stamps (traced runs).
    pub rounds: Option<Arc<RoundLog>>,
    /// Output oracle state.
    pub oracle: Oracle,
    /// First NIC sequence number of the next reattached NIC.
    next_nic_seq: u64,
}

/// Name of the deployed server process.
fn process_name(proto: Proto) -> &'static str {
    match proto {
        Proto::Kv => "bench-kv",
        Proto::Txn => "bench-txn",
    }
}

impl Target {
    /// Boots, deploys and bulk-loads `spec` (with a replica in sync when
    /// the workload replicates).
    pub fn setup(spec: &Spec, traced: bool) -> Result<Target, String> {
        let sys = System::boot(spec.sys_config());
        let (inner, txn): (Arc<dyn Service>, _) = match spec.proto {
            Proto::Kv => (
                Arc::new(KvService {
                    table_base: 0,
                    nbuckets: spec.capacity,
                    val_cap: spec.value_len as u64,
                }),
                None,
            ),
            Proto::Txn => {
                let s = Arc::new(TxnService::new(0, spec.capacity));
                (Arc::clone(&s) as Arc<dyn Service>, Some(s))
            }
        };
        let timed = traced.then(|| TimedService::new(Arc::clone(&inner)));
        let service = match &timed {
            Some(t) => Arc::clone(t) as Arc<dyn Service>,
            None => inner,
        };
        let (heap_pages, cursor_base, cursor_stride) = match spec.proto {
            Proto::Kv => {
                let table = HashKv::region_len(spec.capacity, spec.value_len as u64);
                let stride = table.div_ceil(4096) * 4096 + 4096;
                (stride / 4096 + 1, stride - 4096, stride)
            }
            Proto::Txn => {
                let store = treesls_txn::store::region_len(spec.capacity);
                (store / 4096 + 1, store, 4096)
            }
        };
        let dspec = DeploySpec {
            name: process_name(spec.proto).into(),
            heap_pages,
            cursor_base,
            cursor_stride,
            cfg: spec.nic_config(),
            batch: spec.batch,
            pin_cores: Some(1),
        };
        let dep = deploy(sys.kernel(), sys.manager(), &dspec, |_| {
            Arc::clone(&service)
        })
        .map_err(|e| format!("deploy: {e:?}"))?;
        let programs = sys
            .programs()
            .names()
            .into_iter()
            .filter_map(|n| sys.programs().get(&n).map(|p| (n, p)))
            .collect();
        let mut t = Target {
            spec: spec.clone(),
            sys: None,
            layout: dep.nic.layout(),
            nic: dep.nic,
            vmspace: dep.vmspace,
            programs,
            txn,
            cluster: None,
            timed,
            rounds: None,
            oracle: Oracle::new(spec.nkeys(), spec.value_len),
            next_nic_seq: 1 << 40,
        };
        if let Some(s) = &t.txn {
            let gate = TxnGate::new(
                HostIo::new(Arc::clone(sys.kernel()), t.vmspace),
                0,
                Arc::clone(s),
            );
            sys.manager().register_callback(Arc::new(gate));
        }
        if spec.replicas > 0 {
            let cluster = Cluster::deploy(&sys, &spec.cluster_config());
            cluster.attach_gate(&t.nic);
            cluster.start();
            t.cluster = Some(cluster);
        }
        if traced {
            // After the shipper (which also sits at the front), so the
            // front stamp precedes shipping and the quorum wait.
            let log = Arc::new(RoundLog::default());
            let mgr = sys.manager();
            mgr.register_callback_front(RoundStamps::new(Arc::clone(&log), End::Front, None));
            mgr.register_callback(RoundStamps::new(
                Arc::clone(&log),
                End::Back,
                Some(Arc::clone(&t.nic)),
            ));
            t.rounds = Some(log);
        }
        let mut sys = sys;
        sys.start();
        t.sys = Some(sys);
        t.load()?;
        Ok(t)
    }

    /// The running system.
    pub fn system(&self) -> &System {
        self.sys.as_ref().expect("target has a running system")
    }

    /// Writes every key once (write sequence `key + 1`).
    fn load(&mut self) -> Result<(), String> {
        let ops: Vec<Op> = (0..self.spec.nkeys())
            .map(|k| Op {
                kind: Kind::Write,
                key: k,
                seq: k + 1,
            })
            .collect();
        let replies = self.call_all(&ops, Duration::from_secs(60))?;
        for (op, r) in ops.iter().zip(replies) {
            if self.oracle.check_reply(op, self.spec.reply(op.kind, &r), 0) != Outcome::Acked {
                return Err(format!("bulk load of key {} failed", op.key));
            }
        }
        Ok(())
    }

    /// Sends `ops` pipelined (retrying sheds) and returns every reply in
    /// order. Writes are recorded as sent; replies are not checked.
    pub fn call_all(&mut self, ops: &[Op], limit: Duration) -> Result<Vec<Vec<u8>>, String> {
        let deadline = Instant::now() + limit;
        let mut out: Vec<Option<Vec<u8>>> = vec![None; ops.len()];
        let mut inflight: Vec<(usize, u64)> = Vec::new();
        let (mut next, mut done) = (0, 0);
        while done < ops.len() {
            while next < ops.len() && inflight.len() < CALL_WINDOW {
                let op = &ops[next];
                if op.kind == Kind::Write {
                    self.oracle.sent(op);
                }
                match self.nic.send_request(flow_of(op), &self.spec.request(op)) {
                    Ok(seq) => {
                        inflight.push((next, seq));
                        next += 1;
                    }
                    Err(NetError::Busy) => break,
                    Err(e) => return Err(format!("send failed: {e:?}")),
                }
            }
            self.nic.pump();
            let before = done;
            inflight.retain(|&(i, seq)| match self.nic.try_take(seq) {
                Some(r) => {
                    out[i] = Some(r);
                    done += 1;
                    false
                }
                None => true,
            });
            if Instant::now() > deadline {
                let m = self.system().metrics_snapshot();
                eprintln!(
                    "stalled calls: queue {:?}, version {}, replication acked round {}, degraded entries {}",
                    self.nic.queue_stats(0),
                    self.system().kernel().pers.global_version(),
                    m.repl_acked_round,
                    m.repl_degraded_entries
                );
                return Err(format!(
                    "{} of {} calls unanswered after {limit:?}",
                    ops.len() - done,
                    ops.len()
                ));
            }
            if done == before {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every call answered"))
            .collect())
    }

    /// Runs the open-loop window: arrivals of `plan` on `sched` for
    /// `len`, on one generator thread, checking every reply.
    pub fn run_window(&mut self, plan: &Plan, sched: &Schedule, len: Duration) -> Window {
        let n = len.as_nanos() as u64 / sched.period_ns();
        let traced = self.timed.is_some();
        let nic = Arc::clone(&self.nic);
        let rounds = self.rounds.clone();
        let spec = self.spec.clone();
        let mgr = Arc::clone(self.system().manager());
        let oracle = &mut self.oracle;
        std::thread::scope(|s| {
            let generator = s.spawn(move || {
                let mut w = Window {
                    reqs: Vec::with_capacity(n as usize),
                    gen_tid: current_tid(),
                    ..Window::default()
                };
                w.start = now_ns() + 1_000_000;
                let timeout = OP_TIMEOUT.as_nanos() as u64;
                let mut outstanding: Vec<usize> = Vec::new();
                let mut last_pump = 0u64;
                let harvest = |w: &mut Window, outstanding: &mut Vec<usize>, oracle: &mut Oracle| {
                    let p0 = now_ns();
                    nic.pump();
                    let p1 = now_ns();
                    let mut delivered = 0u32;
                    outstanding.retain(|&ix| {
                        let r = &mut w.reqs[ix];
                        if let Some(bytes) = nic.try_take(r.nic_seq) {
                            // The round read here is at or above the one
                            // that released the reply, and its commit
                            // stamp was taken before this load, so it
                            // precedes the observe stamp below.
                            r.v_front = rounds.as_ref().map_or(0, |l| l.committed.load(Ordering::SeqCst));
                            r.obs = now_ns();
                            r.v_obs = nic.committed_version();
                            delivered += 1;
                            r.outcome = if r.v_obs <= r.v_send {
                                oracle.violation(&format!(
                                    "§5: reply observed at committed version {} not above send version {}",
                                    r.v_obs, r.v_send
                                ));
                                Outcome::Incorrect
                            } else {
                                oracle.check_reply(&r.op, spec.reply(r.op.kind, &bytes), r.floor)
                            };
                            false
                        } else if p1.saturating_sub(r.due) > timeout {
                            nic.abandon(r.nic_seq);
                            r.outcome = Outcome::TimedOut;
                            false
                        } else {
                            true
                        }
                    });
                    if traced {
                        w.pumps.push((p0, p1 - p0, delivered));
                    }
                    p1
                };
                let pump_gap = pump_gap_ns(sched.period_ns());
                for i in 0..n {
                    let due = w.start + sched.due_ns(i);
                    loop {
                        let now = now_ns();
                        if now >= due {
                            break;
                        }
                        if !outstanding.is_empty() && now >= last_pump + pump_gap {
                            last_pump = harvest(&mut w, &mut outstanding, oracle);
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                    let op = plan.op(i);
                    let payload = spec.request(&op);
                    if op.kind == Kind::Write {
                        oracle.sent(&op);
                    }
                    let floor = if op.kind == Kind::Read { oracle.floor(op.key) } else { 0 };
                    let v_send = nic.committed_version();
                    let s0 = now_ns();
                    let late = s0 - due;
                    if late > sched.period_ns() {
                        w.late_sends += 1;
                    }
                    w.max_late_ns = w.max_late_ns.max(late);
                    let sent = nic.send_request(flow_of(&op), &payload);
                    let s1 = now_ns();
                    let mut r = Req {
                        op,
                        due,
                        send: (s0, s1),
                        obs: 0,
                        v_send,
                        v_obs: 0,
                        v_front: 0,
                        nic_seq: 0,
                        floor,
                        outcome: Outcome::Pending,
                    };
                    match sent {
                        Ok(seq) => {
                            r.nic_seq = seq;
                            outstanding.push(w.reqs.len());
                        }
                        Err(NetError::Busy) => r.outcome = Outcome::Shed,
                        Err(NetError::Ring(_)) => r.outcome = Outcome::Refused,
                    }
                    w.reqs.push(r);
                }
                while !outstanding.is_empty() {
                    harvest(&mut w, &mut outstanding, oracle);
                    std::thread::sleep(Duration::from_micros(20));
                }
                w.end = w.reqs.iter().map(|r| r.obs.max(r.send.1)).max().unwrap_or(w.start);
                w
            });
            let mut ckpt_bytes = Vec::new();
            let mut next = Instant::now() + SPACE_SAMPLE_GAP;
            while !generator.is_finished() {
                std::thread::sleep(Duration::from_millis(5));
                if Instant::now() >= next {
                    ckpt_bytes.push(mgr.ckpt_size_bytes());
                    next += SPACE_SAMPLE_GAP;
                }
            }
            let mut w = generator.join().expect("generator thread panicked");
            ckpt_bytes.push(mgr.ckpt_size_bytes());
            w.ckpt_bytes = ckpt_bytes;
            w
        })
    }

    /// Checks that the store's secondary index is an exact bijection with
    /// its primary rows (txn workloads; a no-op otherwise).
    pub fn check_index(&mut self) -> bool {
        if self.txn.is_none() {
            return true;
        }
        let io = HostIo::new(Arc::clone(self.system().kernel()), self.vmspace);
        let result = match TxnStore::attach(&io, 0) {
            Ok(Some(store)) => check_index_consistency(&store, &io).map(|_| ()),
            other => Err(format!("store does not attach: {other:?}")),
        };
        match result {
            Ok(()) => true,
            Err(e) => {
                self.oracle.violation(&format!("index bijection: {e}"));
                false
            }
        }
    }

    /// One crash (or, replicated, promotion) cycle `c`: a burst of writes
    /// with some left in flight, the failure, recovery to the first
    /// acknowledged fresh write, then the read-back oracle over every key.
    pub fn crash_cycle(&mut self, seed: u64, c: u64) -> Result<Cycle, String> {
        let keys = self.spec.nkeys();
        let base = cycle_seq(c);
        let op_at = |j: u64| Op {
            kind: Kind::Write,
            key: mix(seed ^ base ^ j) % keys,
            seq: base + j,
        };
        let burst: Vec<Op> = (0..BURST).map(op_at).collect();
        let replies = self.call_all(&burst, Duration::from_secs(30))?;
        let mut cyc = Cycle::default();
        for (op, r) in burst.iter().zip(replies) {
            if self.oracle.check_reply(op, self.spec.reply(op.kind, &r), 0) != Outcome::Acked {
                cyc.burst_failed += 1;
            }
        }
        // Stragglers: sent, never awaited, so the failure lands mid-load.
        for j in BURST..BURST + STRAGGLERS {
            let op = op_at(j);
            self.oracle.sent(&op);
            let _ = self.nic.send_request(flow_of(&op), &self.spec.request(&op));
        }

        let programs = self.programs.clone();
        let register = move |r: &treesls::ProgramRegistry| {
            for (n, p) in &programs {
                r.register(n, Arc::clone(p));
            }
        };
        self.nic.close();
        let sys = self.sys.take().expect("running system");
        let (t0, restored) = match self.cluster.take() {
            None => {
                let image = sys.crash();
                let t0 = Instant::now();
                let restored = System::recover(image, self.spec.sys_config(), register)
                    .map_err(|e| format!("recover: {e:?}"))?;
                (t0, restored)
            }
            Some(cluster) => {
                let mut sys = sys;
                sys.stop();
                cluster.stop();
                drop(sys);
                let t0 = Instant::now();
                let restored = cluster
                    .promote(0, self.spec.sys_config(), register)
                    .map_err(|e| format!("promote: {e:?}"))?;
                drop(cluster);
                (t0, restored)
            }
        };
        cyc.restore = t0.elapsed();
        let (mut sys2, report) = restored;
        let t1 = Instant::now();
        let (vs, bells) = restored_server(&sys2, process_name(self.spec.proto))?;
        let nic = VirtualNic::attach(
            Arc::clone(sys2.kernel()),
            vs,
            self.layout,
            &self.spec.nic_config(),
            self.next_nic_seq,
        );
        self.next_nic_seq += 1 << 40;
        for (q, bell) in bells.into_iter().enumerate() {
            nic.set_doorbell(q, bell);
        }
        sys2.manager().register_callback(Arc::clone(&nic) as _);
        if let Some(s) = &self.txn {
            let gate = TxnGate::new(HostIo::new(Arc::clone(sys2.kernel()), vs), 0, Arc::clone(s));
            sys2.manager().register_callback(Arc::new(gate));
        }
        sys2.manager().fire_restore_callbacks(report.version);
        sys2.start();
        cyc.reattach = t1.elapsed();
        self.nic = nic;
        self.vmspace = vs;
        self.sys = Some(sys2);
        let fresh = op_at(1000);
        let r = self.call_all(&[fresh], Duration::from_secs(30))?;
        cyc.recovery = t0.elapsed();
        if self
            .oracle
            .check_reply(&fresh, self.spec.reply(Kind::Write, &r[0]), 0)
            != Outcome::Acked
        {
            return Err(format!("cycle {c}: fresh write after recovery failed"));
        }

        if self.spec.replicas > 0 {
            // A new replica for the next cycle, in sync before the read-back.
            let t = Instant::now();
            let sys = self.system();
            let cluster = Cluster::deploy(sys, &self.spec.cluster_config());
            cluster.attach_gate(&self.nic);
            // A replica attached to a running primary asks for its
            // snapshot up front; left to gap-detect the first delta, it
            // would cost the round a whole quorum timeout.
            cluster.replicas[0].revive();
            cluster.start();
            let head = sys.kernel().pers.global_version();
            while cluster.replicas[0].applied_round() <= head
                || cluster.replicas[0].is_awaiting_snapshot()
            {
                if t.elapsed() > Duration::from_secs(30) {
                    let m = sys.metrics_snapshot();
                    return Err(format!(
                        "cycle {c}: new replica never caught up (version {}, replica applied {}, \
                         awaiting snapshot {}, resyncs {}, degraded entries {})",
                        sys.kernel().pers.global_version(),
                        cluster.replicas[0].applied_round(),
                        cluster.replicas[0].is_awaiting_snapshot(),
                        m.repl_resyncs,
                        m.repl_degraded_entries
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            cyc.catch_up = t.elapsed();
            self.cluster = Some(cluster);
        }

        // Every acknowledged write reads back: its own value or a later one.
        let t = Instant::now();
        let reads: Vec<Op> = (0..keys)
            .map(|k| Op {
                kind: Kind::Read,
                key: k,
                seq: 0,
            })
            .collect();
        let replies = self.call_all(&reads, Duration::from_secs(60))?;
        cyc.attempted = BURST + STRAGGLERS + 1 + keys;
        for (op, r) in reads.iter().zip(replies) {
            let floor = self.oracle.floor(op.key);
            if self
                .oracle
                .check_reply(op, self.spec.reply(Kind::Read, &r), floor)
                != Outcome::Acked
            {
                cyc.lost += 1;
            }
        }
        if !self.check_index() {
            cyc.lost += 1;
        }
        cyc.read_back = t.elapsed();
        Ok(cyc)
    }

    /// Stops everything and waits for every thread the system started.
    pub fn shutdown(mut self) {
        self.nic.close();
        if let Some(mut sys) = self.sys.take() {
            sys.stop();
        }
        if let Some(c) = self.cluster.take() {
            c.stop();
        }
    }
}

/// Acknowledged writes before each failure.
const BURST: u64 = 40;
/// Writes still in flight at each failure.
const STRAGGLERS: u64 = 8;

/// What one crash cycle measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cycle {
    /// `System::recover` / `Cluster::promote`.
    pub restore: Duration,
    /// NIC attach, doorbells, gates, restore callbacks, start.
    pub reattach: Duration,
    /// Failure image to the first acknowledged fresh write.
    pub recovery: Duration,
    /// New replica deployed to in sync (replicated workloads).
    pub catch_up: Duration,
    /// Read-back of every key and the index check.
    pub read_back: Duration,
    /// Operations sent: the burst, the stragglers, the fresh write and
    /// the read-back.
    pub attempted: u64,
    /// Keys whose acknowledged write did not read back (plus an index
    /// failure).
    pub lost: u64,
    /// Burst writes not acknowledged correctly.
    pub burst_failed: u64,
}

fn flow_of(op: &Op) -> u64 {
    key_flow(&numeric_key(op.key))
}

/// The restored server process: its vmspace and its queue doorbells in
/// queue order.
fn restored_server(sys: &System, name: &str) -> Result<(ObjId, Vec<ObjId>), String> {
    let kernel = sys.kernel();
    let group = kernel
        .objects
        .read()
        .iter()
        .map(|(_, o)| Arc::clone(o))
        .find(|o| {
            o.otype == ObjType::CapGroup
                && matches!(&*o.body.read(), ObjectBody::CapGroup(g) if g.name == name)
        })
        .ok_or_else(|| format!("{name}: cap group not restored"))?;
    let body = group.body.read();
    let ObjectBody::CapGroup(g) = &*body else {
        return Err(format!("{name}: not a cap group"));
    };
    let mut vmspace = None;
    let mut bells = Vec::new();
    for (_, c) in g.iter() {
        match kernel.object(c.obj).map(|o| o.otype) {
            Ok(ObjType::VmSpace) => vmspace = vmspace.or(Some(c.obj)),
            Ok(ObjType::Notification) => bells.push(c.obj),
            _ => {}
        }
    }
    Ok((
        vmspace.ok_or_else(|| format!("{name}: vmspace not restored"))?,
        bells,
    ))
}
