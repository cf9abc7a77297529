//! `tsbench`: the TreeSLS benchmark.
//!
//! One command runs one named workload against the public `treesls` API
//! and prints, as the last line of standard output, one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": F, "metrics": {NAME: {"value": V, "unit": U}, ...}}
//! ```
//!
//! ```sh
//! cargo run --release --manifest-path tsbench/Cargo.toml -- \
//!     --workload kv-read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run boots, deploys and bulk-loads the workload seven times
//! (`setup_s` is the median; all but the last system are torn down),
//! drives the last with a seeded open-loop schedule for `--seconds`, checks every reply,
//! and then crashes (or, replicated, fails over) the system several times,
//! timing recovery and reading every key back. `--trace 0` prints the
//! end-to-end metrics. `--trace 1` repeats the run untraced and then
//! traced, and prints the per-layer metrics of the traced run, the
//! tracing overhead (traced − untraced) of every end-to-end metric, and
//! writes the traced run's spans to `tsbench/out/<workload>.spans.tsv`.
//!
//! Workloads (each: one NIC queue, one simulated core, one generator
//! thread, 1 ms checkpoint rounds, external synchrony on):
//!
//! * `kv-read` — KV, 95 % GET / 5 % SET, 64 B values, 10k uniform keys,
//!   8k req/s: latency is almost all round wait.
//! * `txn-ycsb-a` — transactional B+ tree, YCSB A (50 % read / 50 %
//!   auto-commit update), zipfian over 1024 records, 32 B values,
//!   6k req/s: copy-on-write path duplication dominates NVM writes.
//! * `kv-write-repl` — KV, 50 % SET of 1 KiB values over 1000 keys,
//!   2k req/s, one replica with quorum 2, DRAM cache below the table.

mod gen;
mod stats;
mod sut;
mod trace;

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gen::{Kind, Plan, Schedule};
use stats::{current_tid, median_f64, now_ns, program_cpu_ms, quantile, ratio, thread_ticks};
use sut::{Cycle, Outcome, Proto, Req, Spec, Target, Window};
use trace::{HandleStamp, Round, SpanLog};
use treesls::MetricsSnapshot;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1..=600).contains(&a.seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(a)
}

/// A named metric value.
type Metric = (String, &'static str, f64);

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn push(out: &mut Vec<Metric>, name: &str, unit: &'static str, v: f64) {
    out.push((name.to_string(), unit, if v.is_finite() { v } else { 0.0 }));
}

/// p50 and the `hi` quantile of `samples` (ns) as `name.p50` / `name.pNN`.
fn push_quantiles(
    out: &mut Vec<Metric>,
    name: &str,
    unit: &'static str,
    samples: &mut [u64],
    hi: f64,
) {
    let scale = if unit == "ms" { ms } else { us };
    push(
        out,
        &format!("{name}.p50"),
        unit,
        scale(quantile(samples, 0.5)),
    );
    push(
        out,
        &format!("{name}.p{}", (hi * 100.0).round()),
        unit,
        scale(quantile(samples, hi)),
    );
}

/// Everything one run (set-ups, window, crash cycles) recorded.
struct Raw {
    /// Seconds per set-up.
    setups: Vec<f64>,
    window: Window,
    /// Program counters over the window.
    snap: MetricsSnapshot,
    /// `total_pause` of every round committed in the window (ns).
    flips: Vec<u64>,
    /// Round stamps (traced runs).
    rounds: Vec<Round>,
    /// Service `handle` calls of the window (traced runs).
    handles: Vec<HandleStamp>,
    cycles: Vec<Cycle>,
    /// CPU of the program's threads over the window.
    cpu_ms: f64,
    /// Oracle violations.
    violations: u64,
}

fn measure(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> Result<Raw, String> {
    let main_tid = current_tid();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut target: Option<Target> = None;
    for _ in 0..SETUPS {
        if let Some(t) = target.take() {
            t.shutdown();
        }
        let t0 = Instant::now();
        target = Some(Target::setup(spec, traced)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut t = target.expect("at least one set-up");

    let plan = Plan::new(seed, spec.write_permille, spec.keys);
    let sched = Schedule::new(spec.rate, seed);
    let v0 = t.system().kernel().pers.global_version();
    let snap0 = t.system().metrics_snapshot();
    if let Some(log) = &t.rounds {
        log.take();
    }
    if let Some(ts) = &t.timed {
        ts.calls.lock().clear();
    }
    let cpu0 = thread_ticks();
    let window = t.run_window(&plan, &sched, Duration::from_secs(seconds));
    let cpu1 = thread_ticks();
    let snap = t.system().metrics_snapshot().since(&snap0);
    let v1 = t.system().kernel().pers.global_version();
    let flips = t
        .system()
        .manager()
        .breakdowns
        .lock()
        .iter()
        .filter(|b| b.version > v0 && b.version <= v1)
        .map(|b| b.total_pause.as_nanos() as u64)
        .collect();
    let rounds = t.rounds.as_ref().map(|l| l.take()).unwrap_or_default();
    let handles = t
        .timed
        .as_ref()
        .map(|ts| std::mem::take(&mut *ts.calls.lock()))
        .unwrap_or_default();
    t.check_index();
    let cycles = (0..spec.cycles)
        .map(|c| t.crash_cycle(seed, c))
        .collect::<Result<Vec<_>, _>>()?;
    let violations = t.oracle.violations;
    t.shutdown();

    let mine: HashSet<u64> = [main_tid, window.gen_tid].into_iter().collect();
    let cpu_ms = program_cpu_ms(&cpu0, &cpu1, &mine);
    Ok(Raw {
        setups,
        window,
        snap,
        flips,
        rounds,
        handles,
        cycles,
        cpu_ms,
        violations,
    })
}

fn acked(w: &Window) -> impl Iterator<Item = &Req> {
    w.reqs.iter().filter(|r| r.outcome == Outcome::Acked)
}

/// Seconds from the window's first due time to its last reply.
fn measured_s(w: &Window) -> f64 {
    (w.end - w.start) as f64 / 1e9
}

/// Key + value bytes of the window's acknowledged writes.
fn user_bytes(spec: &Spec, w: &Window) -> f64 {
    (acked(w).filter(|r| r.op.kind == Kind::Write).count() as u64 * spec.record_bytes()) as f64
}

fn latencies(w: &Window) -> Vec<u64> {
    acked(w).map(|r| r.obs - r.due).collect()
}

fn end_to_end(spec: &Spec, raw: &Raw) -> Vec<Metric> {
    let w = &raw.window;
    let mut lat = latencies(w);
    let nacked = lat.len() as f64;
    let space: Vec<f64> = w.ckpt_bytes.iter().map(|&b| b as f64).collect();
    let recovery: Vec<f64> = raw
        .cycles
        .iter()
        .map(|c| c.recovery.as_secs_f64() * 1e3)
        .collect();
    let mut e = Vec::new();
    push(&mut e, "setup_s", "s", median_f64(&raw.setups));
    push(&mut e, "ack_p50_ms", "ms", ms(quantile(&mut lat, 0.5)));
    push(&mut e, "ack_p95_ms", "ms", ms(quantile(&mut lat, 0.95)));
    push(&mut e, "goodput_ops_s", "1/s", nacked / measured_s(w));
    push(
        &mut e,
        "cpu_ms_per_kop",
        "ms",
        ratio(raw.cpu_ms, nacked / 1000.0),
    );
    push(
        &mut e,
        "nvm_write_amp",
        "ratio",
        ratio(raw.snap.nvm_bytes_written as f64, user_bytes(spec, w)),
    );
    push(
        &mut e,
        "space_amp",
        "ratio",
        median_f64(&space) / (spec.nkeys() * spec.record_bytes()) as f64,
    );
    push(&mut e, "recovery_ms", "ms", median_f64(&recovery));
    e
}

fn per_layer(spec: &Spec, raw: &Raw, stages: &Stages, rounds: &[&Round]) -> Vec<Metric> {
    let (w, snap) = (&raw.window, &raw.snap);
    let mut lat = latencies(w);
    let nacked = lat.len() as f64;
    let nrounds = snap.checkpoints as f64;
    let median_ms = |f: fn(&Cycle) -> Duration| {
        median_f64(
            &raw.cycles
                .iter()
                .map(|c| f(c).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let mut l = Vec::new();
    let l = &mut l;
    push(l, "client.ack_p99_ms", "ms", ms(quantile(&mut lat, 0.99)));
    push(l, "client.ack_p999_ms", "ms", ms(quantile(&mut lat, 0.999)));
    push(l, "client.late_sends", "count", w.late_sends as f64);
    push(l, "client.max_lateness_ms", "ms", ms(w.max_late_ns));

    let mut parts: [Vec<u64>; 3] = Default::default();
    for (i, epoch, commit) in &stages.joined {
        let r = &w.reqs[*i];
        for (v, p) in parts
            .iter_mut()
            .zip([epoch - r.due, commit - epoch, r.obs - commit])
        {
            v.push(p);
        }
    }
    let [mut to_epoch, mut epoch_to_commit, mut commit_to_observe] = parts;
    push_quantiles(l, "stage.to_epoch_ms", "ms", &mut to_epoch, 0.95);
    push_quantiles(
        l,
        "stage.epoch_to_commit_ms",
        "ms",
        &mut epoch_to_commit,
        0.95,
    );
    push_quantiles(
        l,
        "stage.commit_to_observe_ms",
        "ms",
        &mut commit_to_observe,
        0.95,
    );

    let mut period: Vec<u64> = rounds.windows(2).map(|p| p[1].epoch - p[0].epoch).collect();
    let mut flip = raw.flips.clone();
    let mut e2c: Vec<u64> = rounds.iter().map(|r| r.commit - r.epoch).collect();
    let mut c2r: Vec<u64> = rounds.iter().map(|r| r.release - r.commit).collect();
    push_quantiles(l, "checkpoint.round_period_us", "us", &mut period, 0.95);
    push_quantiles(l, "checkpoint.flip_us", "us", &mut flip, 0.95);
    push_quantiles(l, "checkpoint.epoch_to_commit_us", "us", &mut e2c, 0.95);
    push_quantiles(l, "checkpoint.commit_to_release_us", "us", &mut c2r, 0.95);
    push(l, "checkpoint.rounds_per_s", "1/s", nrounds / measured_s(w));
    push(
        l,
        "checkpoint.records_per_round",
        "count",
        ratio(snap.tree_copied as f64, nrounds),
    );
    push(
        l,
        "checkpoint.dirty_drained_per_round",
        "count",
        ratio(snap.tree_dirty_drained as f64, nrounds),
    );
    push(
        l,
        "checkpoint.hybrid_migrated_in",
        "count",
        snap.hybrid_migrated_in as f64,
    );
    push(
        l,
        "checkpoint.hybrid_evicted",
        "count",
        snap.hybrid_evicted as f64,
    );
    push(l, "checkpoint.restore_ms", "ms", median_ms(|c| c.restore));

    push(
        l,
        "kernel.write_faults_per_op",
        "count",
        ratio(snap.write_faults as f64, nacked),
    );
    push(
        l,
        "kernel.cow_copies_per_op",
        "count",
        ratio(snap.cow_copies as f64, nacked),
    );
    push(
        l,
        "kernel.inline_log_captures_per_op",
        "count",
        ratio(snap.inline_log_captures as f64, nacked),
    );
    push(
        l,
        "kernel.inline_log_bytes_per_op",
        "B",
        ratio(snap.inline_log_bytes as f64, nacked),
    );
    push(
        l,
        "kernel.epoch_conflicts_per_round",
        "count",
        ratio(snap.epoch_conflicts as f64, nrounds),
    );

    push(
        l,
        "nvm.bytes_written_per_round",
        "B",
        ratio(snap.nvm_bytes_written as f64, nrounds),
    );
    push(
        l,
        "nvm.page_copies_per_round",
        "count",
        ratio(snap.nvm_page_copies as f64, nrounds),
    );
    push(
        l,
        "nvm.bytes_read_per_op",
        "B",
        ratio(snap.nvm_bytes_read as f64, nacked),
    );

    push(
        l,
        "pmem-alloc.journal_high_water",
        "count",
        snap.journal_high_water as f64,
    );

    push(
        l,
        "repl.bytes_shipped_per_round",
        "B",
        ratio(snap.repl_bytes_shipped as f64, nrounds),
    );
    push(
        l,
        "repl.pages_shipped_per_round",
        "count",
        ratio(snap.repl_pages_shipped as f64, nrounds),
    );
    push(
        l,
        "repl.bytes_per_user_byte",
        "ratio",
        ratio(snap.repl_bytes_shipped as f64, user_bytes(spec, w)),
    );
    push(l, "repl.acks", "count", snap.repl_acks as f64);
    push(l, "repl.resyncs", "count", snap.repl_resyncs as f64);
    push(
        l,
        "repl.degraded_entries",
        "count",
        snap.repl_degraded_entries as f64,
    );

    let mut send: Vec<u64> = w.reqs.iter().map(|r| r.send.1 - r.send.0).collect();
    let mut pump: Vec<u64> = w.pumps.iter().map(|p| p.1).collect();
    push_quantiles(l, "net.send_us", "us", &mut send, 0.99);
    push_quantiles(l, "net.pump_us", "us", &mut pump, 0.99);
    push(l, "net.sheds", "count", snap.net_sheds as f64);
    push(
        l,
        "net.tx_batch_mean",
        "count",
        ratio(
            snap.net_tx_batched_responses as f64,
            snap.net_tx_batches as f64,
        ),
    );
    push(
        l,
        "net.rx_occupancy_hwm",
        "count",
        rounds.iter().map(|r| r.rx_occupancy).max().unwrap_or(0) as f64,
    );
    push(l, "net.reattach_ms", "ms", median_ms(|c| c.reattach));
    push(
        l,
        "extsync.ring_publishes_per_round",
        "count",
        ratio(snap.ring_publishes as f64, nrounds),
    );
    push(
        l,
        "extsync.visible_lag_max",
        "count",
        rounds.iter().map(|r| r.visible_lag).max().unwrap_or(0) as f64,
    );

    let mut handle: Vec<u64> = raw.handles.iter().map(|h| h.1 - h.0).collect();
    let busy: u64 = handle.iter().sum();
    let (kv_handle, txn_handle) = match spec.proto {
        Proto::Kv => (handle.as_mut_slice(), &mut [][..]),
        Proto::Txn => (&mut [][..], handle.as_mut_slice()),
    };
    push_quantiles(l, "apps.handle_us", "us", kv_handle, 0.99);
    push_quantiles(l, "txn.handle_us", "us", txn_handle, 0.99);
    push(
        l,
        "apps.handle_busy_frac",
        "ratio",
        busy as f64 / (w.end - w.start) as f64,
    );
    push(
        l,
        "txn.abort_ratio",
        "ratio",
        ratio(
            snap.txn_aborts as f64,
            (snap.txn_commits + snap.txn_aborts) as f64,
        ),
    );
    push(
        l,
        "txn.conflict_retries",
        "count",
        snap.txn_conflict_retries as f64,
    );
    std::mem::take(l)
}

/// What one run reports.
struct Run {
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    attempted: u64,
    failed: u64,
    violations: u64,
}

fn run(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> Result<Run, String> {
    let raw = measure(spec, seed, seconds, traced)?;
    let w = &raw.window;
    let count = |o: Outcome| w.reqs.iter().filter(|r| r.outcome == o).count();
    let mut out = Run {
        e2e: end_to_end(spec, &raw),
        layers: Vec::new(),
        attempted: w.reqs.len() as u64 + raw.cycles.iter().map(|c| c.attempted).sum::<u64>(),
        failed: (w.reqs.len() - count(Outcome::Acked)) as u64
            + raw
                .cycles
                .iter()
                .map(|c| c.lost + c.burst_failed)
                .sum::<u64>(),
        violations: raw.violations,
    };
    eprintln!(
        "{} seed {seed}{}: {} scheduled, {} acked, {} shed, {} timed out, {} refused, {} incorrect; \
         program CPU {} ms; {} crash cycles, {} acknowledged writes lost",
        spec.name,
        if traced { " (traced)" } else { "" },
        w.reqs.len(),
        count(Outcome::Acked),
        count(Outcome::Shed),
        count(Outcome::TimedOut),
        count(Outcome::Refused),
        count(Outcome::Incorrect),
        raw.cpu_ms,
        raw.cycles.len(),
        raw.cycles.iter().map(|c| c.lost).sum::<u64>(),
    );
    eprintln!(
        "window: {} NIC sheds, {} replication resyncs, {} degraded-mode entries",
        raw.snap.net_sheds, raw.snap.repl_resyncs, raw.snap.repl_degraded_entries
    );
    let slowest = |f: fn(&Cycle) -> Duration| {
        raw.cycles
            .iter()
            .map(f)
            .max()
            .unwrap_or_default()
            .as_secs_f64()
            * 1e3
    };
    eprintln!(
        "slowest crash cycle phases: recovery {:.1} ms, replica catch-up {:.1} ms, read-back {:.1} ms",
        slowest(|c| c.recovery),
        slowest(|c| c.catch_up),
        slowest(|c| c.read_back),
    );
    if !traced {
        return Ok(out);
    }

    let by_version: HashMap<u64, Round> = raw.rounds.iter().map(|r| (r.version, *r)).collect();
    let stages = join_stages(w, &by_version);
    if stages.unjoined > 0 {
        eprintln!(
            "stage join: {} acked requests had no complete round stamps",
            stages.unjoined
        );
    }
    if stages.broken > 0 {
        out.violations += stages.broken;
        eprintln!(
            "ORACLE VIOLATION: {} requests' stages do not add up to their latency",
            stages.broken
        );
    }
    // Rounds cut and released inside the window, in version order.
    let mut rounds: Vec<&Round> = raw
        .rounds
        .iter()
        .filter(|r| {
            r.epoch >= w.start && r.commit >= r.epoch && r.release >= r.commit && r.release <= w.end
        })
        .collect();
    rounds.sort_by_key(|r| r.version);
    out.layers = per_layer(spec, &raw, &stages, &rounds);

    let spans = build_spans(w, &stages, &rounds, &raw.handles);
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("{}.spans.tsv", spec.name));
    match spans.write_tsv(&path) {
        Ok(()) => eprintln!("{} spans written to {}", spans.spans.len(), path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    Ok(out)
}

/// Acked requests split at the round their reply was observed under.
struct Stages {
    /// `(request index, round epoch stamp, round commit stamp)`.
    joined: Vec<(usize, u64, u64)>,
    /// Acked requests whose round had incomplete stamps.
    unjoined: u64,
    /// Requests whose stages did not add up to their latency.
    broken: u64,
}

/// Splits each acked request's latency at its observed round's epoch cut
/// and commit. The round is the highest one whose front commit stamp
/// preceded the observation, so due ≤ epoch ≤ commit ≤ observe, and the
/// three stages add up exactly to the acknowledged latency.
fn join_stages(w: &Window, rounds: &HashMap<u64, Round>) -> Stages {
    let mut s = Stages {
        joined: Vec::new(),
        unjoined: 0,
        broken: 0,
    };
    for (i, r) in w
        .reqs
        .iter()
        .enumerate()
        .filter(|(_, r)| r.outcome == Outcome::Acked)
    {
        let Some(round) = rounds
            .get(&r.v_front)
            .filter(|x| x.epoch > 0 && x.commit > 0)
        else {
            s.unjoined += 1;
            continue;
        };
        if r.due <= round.epoch && round.epoch <= round.commit && round.commit <= r.obs {
            s.joined.push((i, round.epoch, round.commit));
        } else {
            s.broken += 1;
        }
    }
    s
}

/// The traced run's spans: one root per request (due → observe, or the
/// last reply when unanswered) with its send, server handle and the three
/// stages as children; one root per round (epoch → release) with its
/// commit and release phases; and every pump that delivered replies.
fn build_spans(w: &Window, stages: &Stages, rounds: &[&Round], handles: &[HandleStamp]) -> SpanLog {
    let mut log = SpanLog::default();
    let admitted: Vec<usize> = (0..w.reqs.len())
        .filter(|&i| w.reqs[i].nic_seq != 0)
        .collect();
    // The single queue serves requests in send order, so the k-th handle
    // call of the window served the k-th admitted request.
    let handle_of: HashMap<usize, HandleStamp> = if admitted.len() == handles.len() {
        admitted.into_iter().zip(handles.iter().copied()).collect()
    } else {
        HashMap::new()
    };
    let stage_of: HashMap<usize, (u64, u64)> =
        stages.joined.iter().map(|&(i, e, c)| (i, (e, c))).collect();
    for (i, r) in w.reqs.iter().enumerate() {
        let id = i as u64 + 1;
        let root = log.push(
            "request",
            r.due,
            if r.obs > 0 { r.obs } else { w.end },
            0,
            id,
        );
        log.push("net.send", r.send.0, r.send.1, root, id);
        if let Some(&(h0, h1)) = handle_of.get(&i) {
            log.push("service.handle", h0, h1, root, id);
        }
        if let Some(&(epoch, commit)) = stage_of.get(&i) {
            log.push("stage.to_epoch", r.due, epoch, root, id);
            log.push("stage.epoch_to_commit", epoch, commit, root, id);
            log.push("stage.commit_to_observe", commit, r.obs, root, id);
        }
    }
    for round in rounds {
        let root = log.push("checkpoint.round", round.epoch, round.release, 0, 0);
        log.push(
            "checkpoint.epoch_to_commit",
            round.epoch,
            round.commit,
            root,
            0,
        );
        log.push(
            "checkpoint.commit_to_release",
            round.commit,
            round.release,
            root,
            0,
        );
    }
    for &(p0, d, delivered) in &w.pumps {
        if delivered > 0 {
            log.push("net.pump", p0, p0 + d, 0, 0);
        }
    }
    log
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tsbench: {e}");
            eprintln!("usage: tsbench --workload <kv-read|txn-ycsb-a|kv-write-repl> --seed N --seconds N --trace 0|1");
            std::process::exit(2);
        }
    };
    let Some(spec) = Spec::by_name(&args.workload) else {
        eprintln!("tsbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    now_ns();
    let untraced = match run(&spec, args.seed, args.seconds, false) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tsbench: {} failed: {e}", spec.name);
            std::process::exit(1);
        }
    };
    let (metrics, attempted, failed, violations) = if args.trace {
        let traced = match run(&spec, args.seed, args.seconds, true) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("tsbench: {} (traced) failed: {e}", spec.name);
                std::process::exit(1);
            }
        };
        let mut m = traced.layers.clone();
        for ((name, unit, t), (_, _, u)) in traced.e2e.iter().zip(&untraced.e2e) {
            push(&mut m, &format!("overhead.{name}"), unit, t - u);
        }
        (
            m,
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
            untraced.violations + traced.violations,
        )
    } else {
        (
            untraced.e2e.clone(),
            untraced.attempted,
            untraced.failed,
            untraced.violations,
        )
    };
    for (n, u, v) in &untraced.e2e {
        eprintln!("  {n:<16} {v:>14.4} {u}");
    }
    if violations > 0 {
        eprintln!("tsbench: {violations} oracle violations: outputs are NOT correct");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        violations == 0,
        metrics_json(&metrics)
    );
}
