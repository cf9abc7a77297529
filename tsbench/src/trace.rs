//! Hooks that time the program's layers from outside, and the span log
//! of a traced run.
//!
//! Every hook wraps a public entry point of one module:
//!
//! * [`TimedService`] decorates the application [`Service`] handed to
//!   `treesls::net::deploy` and stamps each `handle` call;
//! * [`RoundStamps`] is registered twice with the checkpoint manager, at
//!   the front and at the back of the callback chain: the front copy
//!   stamps each round's epoch cut (`on_epoch`) and commit
//!   (`on_checkpoint`, before the replication shipper and the NIC
//!   barrier), the back copy stamps the release (after the barrier);
//! * the generator times `VirtualNic::send_request` / `pump` itself.
//!
//! Stamps are kept in memory; [`SpanLog`] turns them into spans (name,
//! start, end, cause, request id) that are written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use treesls::net::{Service, ServiceError, VirtualNic};
use treesls::{CkptCallback, UserCtx};

use crate::stats::now_ns;

/// One server-side `handle` call: `(start, end)` in clock nanoseconds.
pub type HandleStamp = (u64, u64);

/// Decorates a protocol service with per-call timing.
#[derive(Debug)]
pub struct TimedService {
    inner: Arc<dyn Service>,
    /// Recorded calls, in service order.
    pub calls: Mutex<Vec<HandleStamp>>,
}

impl TimedService {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Service>) -> Arc<TimedService> {
        Arc::new(TimedService {
            inner,
            calls: Mutex::new(Vec::with_capacity(1 << 17)),
        })
    }
}

impl Service for TimedService {
    fn init(&self, ctx: &mut UserCtx<'_>) -> Result<(), ServiceError> {
        self.inner.init(ctx)
    }

    fn handle(
        &self,
        ctx: &mut UserCtx<'_>,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), ServiceError> {
        let t0 = now_ns();
        let r = self.inner.handle(ctx, payload, out);
        let t1 = now_ns();
        self.calls.lock().push((t0, t1));
        r
    }
}

/// Stamps of one checkpoint round (0 = not seen).
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    /// Committed version the round produces.
    pub version: u64,
    /// Front `on_epoch`: the flip's external-synchrony cut.
    pub epoch: u64,
    /// Front `on_checkpoint`: right after the commit record landed.
    pub commit: u64,
    /// Back `on_checkpoint`: after the NIC released the round's responses.
    pub release: u64,
    /// `tx_writer − tx_visible` of queue 0 right after the release.
    pub visible_lag: u64,
    /// `rx_writer − rx_ack` of queue 0 right after the release.
    pub rx_occupancy: u64,
}

/// Round stamps shared by the front and back callbacks.
#[derive(Debug, Default)]
pub struct RoundLog {
    rounds: Mutex<Vec<Round>>,
    /// Highest version whose front `on_checkpoint` ran: every response a
    /// client can observe was released by a round at or below it.
    pub committed: AtomicU64,
}

impl RoundLog {
    fn with_round(&self, version: u64, f: impl FnOnce(&mut Round)) {
        let mut rounds = self.rounds.lock();
        match rounds
            .iter_mut()
            .rev()
            .take(4)
            .find(|r| r.version == version)
        {
            Some(r) => f(r),
            None => {
                let mut r = Round {
                    version,
                    ..Round::default()
                };
                f(&mut r);
                rounds.push(r);
            }
        }
    }

    /// Takes every recorded round and clears the log.
    pub fn take(&self) -> Vec<Round> {
        std::mem::take(&mut *self.rounds.lock())
    }
}

/// Which end of the callback chain a [`RoundStamps`] sits at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// Registered with `register_callback_front`.
    Front,
    /// Registered with `register_callback`, after the NIC.
    Back,
}

/// A checkpoint callback stamping round boundaries into a [`RoundLog`]
/// (the back one also samples queue 0's ring positions).
pub struct RoundStamps {
    log: Arc<RoundLog>,
    end: End,
    nic: Option<Arc<VirtualNic>>,
}

impl RoundStamps {
    /// A stamping callback for `end`; the back one also samples the ring
    /// positions of `nic`.
    pub fn new(log: Arc<RoundLog>, end: End, nic: Option<Arc<VirtualNic>>) -> Arc<RoundStamps> {
        Arc::new(RoundStamps { log, end, nic })
    }
}

impl CkptCallback for RoundStamps {
    fn on_epoch(&self, version: u64) {
        if self.end == End::Front {
            let t = now_ns();
            self.log.with_round(version, |r| r.epoch = t);
        }
    }

    fn on_checkpoint(&self, version: u64) {
        let t = now_ns();
        match self.end {
            End::Front => {
                self.log.with_round(version, |r| r.commit = t);
                self.log.committed.fetch_max(version, Ordering::SeqCst);
            }
            End::Back => {
                let q = self
                    .nic
                    .as_ref()
                    .map(|nic| nic.queue_stats(0))
                    .unwrap_or_default();
                self.log.with_round(version, |r| {
                    r.release = t;
                    r.visible_lag = q.tx_writer.saturating_sub(q.tx_visible);
                    r.rx_occupancy = q.rx_writer.saturating_sub(q.rx_ack);
                });
            }
        }
    }
}

/// One span: `[start, end)` on the benchmark clock. `cause` is the index
/// + 1 of the span that caused it (0 for none); `req` the window op index
/// + 1 of the request it belongs to (0 for none).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary name.
    pub name: &'static str,
    /// Start (ns).
    pub start: u64,
    /// End (ns).
    pub end: u64,
    /// Causing span (index + 1), 0 for a root.
    pub cause: u32,
    /// Request id (op index + 1), 0 for none.
    pub req: u64,
}

/// Spans of a traced run, held in memory until the run ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    /// Recorded spans, in recording order.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Appends a span and returns its id (index + 1) for use as a cause.
    pub fn push(&mut self, name: &'static str, start: u64, end: u64, cause: u32, req: u64) -> u32 {
        self.spans.push(Span {
            name,
            start,
            end,
            cause,
            req,
        });
        self.spans.len() as u32
    }

    /// Writes the spans as tab-separated lines
    /// `id name start_ns end_ns cause req`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\tstart_ns\tend_ns\tcause\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.name,
                s.start,
                s.end,
                s.cause,
                s.req
            )?;
        }
        w.flush()
    }
}
