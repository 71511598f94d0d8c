//! Real multi-threaded backend: one OS thread per rank — the calling
//! thread is rank 0, ranks `1..` run on threads their [`World`] keeps
//! from its first run until it drops ([`run_world`],
//! [`run_threads_with`]) — pluggable per-link transports
//! ([`TransportKind`]), and an injected wire-latency model.
//!
//! The latency model is what makes overlap *measurable* on a shared-
//! memory machine: every message is stamped at send time and is not
//! released to the receiver before `sent_at + latency(bytes)` — but the
//! receiving thread only pays that wait inside its receive call, so a
//! thread that computes while a message is "on the wire" genuinely hides
//! the latency, exactly like a node computing while its NIC works.
//!
//! Blocking sends additionally sleep the *sender* for the transmission
//! time (the paper's Fig. 7: a blocking send suspends the caller until
//! the message is out).
//!
//! ## Transports and buffer recycling
//!
//! Every directed rank pair is one [`crate::transport`] link, and every
//! [`Communicator`] call stages its payload in that link's own storage:
//! a pooled vector recycled through a reverse return channel on the
//! default mpsc transport, *peer-visible slot memory* on the shared-slot
//! transport ([`TransportKind::SharedSlots`]), where pack and unpack
//! touch the wire bytes directly. Either way, after a short warm-up a
//! steady-state pipeline step performs **zero heap allocations** in the
//! payload path, mirroring MPI persistent requests.
//! [`ThreadComm::pool_stats`] exposes counters that tests use to assert
//! this.

use crate::comm::{CommError, Communicator, RecvRequest, SendRequest, Tag};
use crate::fault::{FaultPlan, FaultStats, ReliabilityConfig};
use crate::slot_transport::Backoff;
use crate::transport::{make_link, Envelope, LinkRx, LinkTx, Payload};
pub use crate::transport::{PoolStats, TransportKind};
use std::collections::{HashMap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};
use tiling_core::machine::KernelTier;

/// Affine wire-latency model `startup + per_byte · payload_bytes`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Fixed startup per message, µs.
    pub startup_us: f64,
    /// Per-byte transmission time, µs.
    pub per_byte_us: f64,
}

impl Default for LatencyModel {
    /// Defaults to [`LatencyModel::zero`].
    fn default() -> Self {
        LatencyModel::zero()
    }
}

impl LatencyModel {
    /// No injected latency: messages are available as soon as sent.
    /// Useful as the verification backend.
    pub const fn zero() -> Self {
        LatencyModel {
            startup_us: 0.0,
            per_byte_us: 0.0,
        }
    }

    /// The wire time of a `bytes`-byte message, rounded to the nearest
    /// nanosecond (truncation would silently floor sub-ns amounts, biasing
    /// accumulated model time low).
    ///
    /// The conversion clamps explicitly: `f64 → u64` casts saturate in
    /// Rust, but NaN casts to 0 and negative model parameters would
    /// silently alias to zero delay — both are treated as 0 here, while
    /// non-finite/overflowing positive values saturate to `u64::MAX`
    /// nanoseconds instead of wrapping.
    pub fn delay(&self, bytes: usize) -> Duration {
        let ns = (self.startup_us + self.per_byte_us * bytes as f64) * 1e3;
        if ns.is_nan() || ns <= 0.0 {
            return Duration::ZERO;
        }
        if ns >= u64::MAX as f64 {
            return Duration::from_nanos(u64::MAX);
        }
        Duration::from_nanos(ns.round() as u64)
    }
}

/// Full configuration of a threaded world: the wire-latency model plus
/// the transport kind, the optional reliability layer, and the fault
/// plan. [`run_threads`] is the plain-latency shorthand;
/// [`run_threads_with`] accepts this.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Injected wire latency.
    pub latency: LatencyModel,
    /// Wire implementation of every link (mpsc channels by default).
    pub transport: TransportKind,
    /// Receive-side reliability parameters. `None` with an active
    /// fault plan still enables the layer with
    /// [`ReliabilityConfig::default`].
    pub reliability: Option<ReliabilityConfig>,
    /// Sender-side deterministic fault injection.
    pub faults: Option<FaultPlan>,
    /// Skip the pre-flight static plan analysis that executors run
    /// before spawning rank threads (see the `analyzer` crate). Off by
    /// default — benchmarks opt out via
    /// [`WorldConfig::without_preflight`] to keep timing loops free of
    /// even the (constant, microsecond-scale) check cost.
    pub skip_preflight: bool,
    /// Numerical tier the compute kernels run at
    /// ([`KernelTier::Bitwise`] by default — distributed results are
    /// bitwise-equal to sequential; [`KernelTier::Fast`] trades that
    /// for shorter dependency chains, ULP-bounded).
    pub kernel_tier: KernelTier,
}

impl Default for WorldConfig {
    /// Same as [`WorldConfig::new`] with the default (zero) latency.
    fn default() -> Self {
        WorldConfig::new(LatencyModel::default())
    }
}

impl WorldConfig {
    /// A plain world: the given latency, mpsc transport, no reliability
    /// layer, no faults — byte-for-byte the transport [`run_threads`]
    /// builds.
    pub fn new(latency: LatencyModel) -> Self {
        WorldConfig {
            latency,
            transport: TransportKind::Mpsc,
            reliability: None,
            faults: None,
            skip_preflight: false,
            kernel_tier: KernelTier::Bitwise,
        }
    }

    /// Select the numerical tier of the compute kernels.
    pub fn with_kernel_tier(mut self, tier: KernelTier) -> Self {
        self.kernel_tier = tier;
        self
    }

    /// Disable the executors' pre-flight plan analysis for this world
    /// (benchmark hot paths; the shipped configurations are analyzed
    /// separately, by the tests that compile them).
    pub fn without_preflight(mut self) -> Self {
        self.skip_preflight = true;
        self
    }

    /// Select the wire implementation of every link.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Enable the reliability layer (sequence numbers, receive
    /// timeouts with retry, ledger recovery, typed errors).
    pub fn with_reliability(mut self, cfg: ReliabilityConfig) -> Self {
        self.reliability = Some(cfg);
        self
    }

    /// Install a deterministic fault plan. Implies the reliability
    /// layer (with default parameters unless
    /// [`WorldConfig::with_reliability`] set them).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Whether this configuration builds reliability state.
    fn reliable(&self) -> bool {
        self.reliability.is_some() || self.faults.is_some()
    }
}

/// Retransmission ledger of one directed link `src → dst`, shared
/// between the two endpoints. The sender commits every logical message
/// (`sent`) and parks recoverably dropped or held payloads in `stored`;
/// the receiver recovers parked payloads on timeout and uses the
/// commit counts to tell a slow message from a permanently lost one.
///
/// Parked payloads are [`Payload`] handles, not copies: a ledger entry
/// shares the wire buffer (slot lease or `Arc`), and the receiver
/// purges the entry when it commits the corresponding sequence number,
/// so no slot stays pinned behind a message that already arrived.
struct PairLedger<T> {
    /// Logical messages committed per tag (includes dropped/lost ones).
    sent: HashMap<Tag, u64>,
    /// Parked payloads keyed by `(tag, seq)`.
    stored: HashMap<(Tag, u64), Payload<T>>,
}

/// A directed link's ledger, shared between its two endpoints.
///
/// Lock acquisitions tolerate poisoning (`into_inner` on the error):
/// the ledger's maps stay structurally valid if a peer panics while
/// holding the lock, and the reliability layer exists precisely to
/// keep delivering through a misbehaving peer.
type SharedLedger<T> = Arc<Mutex<PairLedger<T>>>;

impl<T> Default for PairLedger<T> {
    fn default() -> Self {
        PairLedger {
            sent: HashMap::new(),
            stored: HashMap::new(),
        }
    }
}

/// Per-rank reliability state, present only on reliability-enabled
/// worlds — the default transport carries no trace of it.
struct RelState<T> {
    cfg: ReliabilityConfig,
    plan: Option<FaultPlan>,
    stats: FaultStats,
    /// `send_seq[dst][tag]`: next sequence number to stamp.
    send_seq: Vec<HashMap<Tag, u64>>,
    /// `consumed[src][tag]`: next sequence number to accept.
    consumed: Vec<HashMap<Tag, u64>>,
    /// `ledger_out[dst]`: this rank's sender ledger toward `dst`.
    ledger_out: Vec<SharedLedger<T>>,
    /// `ledger_in[src]`: the ledger of the link arriving from `src`.
    ledger_in: Vec<SharedLedger<T>>,
    /// Message held back per destination by a reorder fault; flushed
    /// after the next send to the same destination (or at a barrier /
    /// when the communicator drops).
    held: Vec<Option<Envelope<T>>>,
}

impl<T> RelState<T> {
    fn new(size: usize, cfg: ReliabilityConfig, plan: Option<FaultPlan>) -> Self {
        RelState {
            cfg,
            plan,
            stats: FaultStats::default(),
            send_seq: (0..size).map(|_| HashMap::new()).collect(),
            consumed: (0..size).map(|_| HashMap::new()).collect(),
            ledger_out: Vec::with_capacity(size),
            ledger_in: Vec::with_capacity(size),
            held: (0..size).map(|_| None).collect(),
        }
    }

    /// Accept `msg` from `from` if it is the next expected occurrence of
    /// its tag: `Some(msg)` to deliver, `None` if it was consumed as a
    /// duplicate or stashed for later in `stash`.
    fn triage(
        &mut self,
        from: usize,
        tag: Tag,
        expect: u64,
        msg: Envelope<T>,
        stash: &mut VecDeque<Envelope<T>>,
    ) -> Option<Envelope<T>> {
        if msg.tag == tag && msg.seq == expect {
            return Some(msg);
        }
        let seen = *self.consumed[from].get(&msg.tag).unwrap_or(&0);
        if msg.seq < seen {
            // A duplicate of something already consumed.
            self.stats.duplicates_discarded += 1;
            return None;
        }
        stash.push_back(msg);
        None
    }

    /// The reliability receive: bounded timeout slices with exponential
    /// backoff, duplicate discard by sequence number, ledger recovery of
    /// recoverably dropped messages, and gap detection for permanent
    /// losses. Returns a typed [`CommError`] instead of hanging.
    /// `stash` and `rx` are the receiving rank's out-of-order buffer
    /// and link from `from`.
    fn receive(
        &mut self,
        from: usize,
        tag: Tag,
        stash: &mut VecDeque<Envelope<T>>,
        rx: &mut dyn LinkRx<T>,
    ) -> Result<Envelope<T>, CommError> {
        let (cfg, expect) = (self.cfg, *self.consumed[from].get(&tag).unwrap_or(&0));
        // Committing a receive also purges any ledger copy of the same
        // message (e.g. one parked by a reorder fault whose original
        // arrived anyway) so shared payload buffers — slot leases in
        // particular — are released instead of staying pinned forever.
        let commit = |rel: &mut RelState<T>| {
            *rel.consumed[from].entry(tag).or_insert(0) = expect + 1;
            rel.ledger_in[from]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .stored
                .remove(&(tag, expect));
        };
        let mut waited = Duration::ZERO;
        // Two consecutive attempts that see a committed-but-absent
        // message (and fail ledger recovery) before declaring a gap: a
        // reordered message held at the sender gets one full extra
        // slice to flush.
        let mut missing_strikes = 0u32;
        for attempt in 0..=cfg.max_retries {
            // 1. The stash may already hold the match (purging stale
            //    duplicates as we scan).
            let mut i = 0;
            while i < stash.len() {
                let m = &stash[i];
                if m.tag == tag && m.seq == expect {
                    // `i` is in bounds (loop guard), so the remove
                    // always yields; fall through to the wire drain on
                    // the impossible miss rather than panicking.
                    let Some(msg) = stash.remove(i) else {
                        break;
                    };
                    commit(self);
                    return Ok(msg);
                }
                let seen = *self.consumed[from].get(&m.tag).unwrap_or(&0);
                if m.seq < seen {
                    stash.remove(i);
                    self.stats.duplicates_discarded += 1;
                } else {
                    i += 1;
                }
            }
            // 2. Drain the link for one timeout slice.
            let factor = 1u32 << attempt.min(6);
            let slice = cfg.recv_timeout * factor;
            let deadline = Instant::now() + slice;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                match rx.pop_timeout(remaining) {
                    Ok(Some(msg)) => {
                        if let Some(msg) = self.triage(from, tag, expect, msg, stash) {
                            commit(self);
                            return Ok(msg);
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // The peer is gone — its parked payloads are the
                        // only hope left.
                        let recovered = self.ledger_in[from]
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .stored
                            .remove(&(tag, expect));
                        if let Some(payload) = recovered {
                            self.stats.recovered += 1;
                            commit(self);
                            return Ok(Envelope {
                                tag,
                                payload,
                                seq: expect,
                                ready_at: Instant::now(),
                            });
                        }
                        return Err(CommError::PeerClosed { peer: from });
                    }
                }
            }
            waited += slice;
            // 3. Nothing on the wire: try the retransmission ledger.
            let (recovered, committed) = {
                let mut led = self.ledger_in[from]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                (
                    led.stored.remove(&(tag, expect)),
                    *led.sent.get(&tag).unwrap_or(&0),
                )
            };
            if let Some(payload) = recovered {
                self.stats.recovered += 1;
                self.stats.retries += attempt as u64;
                commit(self);
                return Ok(Envelope {
                    tag,
                    payload,
                    seq: expect,
                    ready_at: Instant::now(),
                });
            }
            if committed > expect {
                missing_strikes += 1;
                if missing_strikes >= 2 {
                    return Err(CommError::SequenceGap {
                        from,
                        tag,
                        seq: expect,
                    });
                }
            }
            self.stats.retries += 1;
            if attempt < cfg.max_retries && !cfg.backoff.is_zero() {
                std::thread::sleep(cfg.backoff * factor);
            }
        }
        Err(CommError::Timeout {
            from,
            tag,
            waited,
            retries: cfg.max_retries,
        })
    }

    /// Flush the message held back toward `to` by a reorder fault
    /// into `tx`, its link (best effort: the peer may already be gone).
    fn flush_held(&mut self, to: usize, tx: &mut dyn LinkTx<T>) {
        if let Some(msg) = self.held[to].take() {
            let _ = tx.push(msg);
        }
    }

    /// [`RelState::flush_held`] toward every rank, `tx` indexed by
    /// destination.
    fn flush_all(&mut self, tx: &mut [Box<dyn LinkTx<T>>]) {
        for (to, tx) in tx.iter_mut().enumerate() {
            self.flush_held(to, tx.as_mut());
        }
    }
}

/// Sleep-then-spin until `deadline` (sleep for the coarse part, spin the
/// last stretch for accuracy).
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > Duration::from_micros(200) {
            std::thread::sleep(remaining - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The per-rank communicator of the threaded backend.
pub struct ThreadComm<T> {
    rank: usize,
    size: usize,
    /// `tx[dst]` is this rank's link endpoint into `dst`.
    tx: Vec<Box<dyn LinkTx<T>>>,
    /// `rx[src]` carries messages from `src`.
    rx: Vec<Box<dyn LinkRx<T>>>,
    /// Out-of-order buffer per source.
    stash: Vec<VecDeque<Envelope<T>>>,
    stats: PoolStats,
    latency: LatencyModel,
    /// Barrier shared by the world.
    barrier: std::sync::Arc<std::sync::Barrier>,
    /// Common time origin of the world (same `Instant` on every rank),
    /// so per-rank wall-clock trace recorders share one zero.
    epoch: Instant,
    elem_bytes: usize,
    /// Reliability/fault state — `None` on plain worlds, so the default
    /// transport pays nothing for the layer's existence.
    rel: Option<RelState<T>>,
}

impl<T: Send + Sync + 'static> ThreadComm<T> {
    fn payload_bytes(&self, len: usize) -> usize {
        len * self.elem_bytes
    }

    /// Buffer-pool counters: after warm-up, `fresh_allocs` stays flat
    /// while `recycled`/`returned` grow with the step count — the
    /// zero-steady-state-allocation property the overlapping executor
    /// relies on.
    pub fn pool_stats(&self) -> PoolStats {
        self.stats
    }

    /// The world's shared time origin: the same `Instant` on every rank
    /// of one [`run_threads`] world. Wall-clock trace recorders (the
    /// `stencil` engine's trace observer) measure against it so
    /// intervals from different rank threads land on one comparable
    /// time axis.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Stage a `len`-element payload toward `dst` and let `fill` pack
    /// it in place — the zero-copy path: on the slot transport `fill`
    /// writes straight into the slot the receiver will read.
    fn stage_with(&mut self, dst: usize, len: usize, fill: &mut dyn FnMut(&mut [T])) -> Payload<T>
    where
        T: Copy + Default,
    {
        let Self { tx, stats, .. } = self;
        tx[dst].stage(stats, &mut |buf: &mut Vec<T>| {
            // Steady state resizes to the same length: no allocation,
            // no initialization traffic beyond the pack itself.
            buf.resize(len, T::default());
            fill(&mut buf[..]);
        })
    }

    /// Hand a consumed payload back to the transport it came from.
    fn reclaim(&mut self, src: usize, payload: Payload<T>) {
        let Self { rx, stats, .. } = self;
        rx[src].reclaim(payload, stats);
    }

    /// Per-rank fault/reliability counters (all zero on plain worlds).
    pub fn fault_stats(&self) -> FaultStats {
        self.rel.as_ref().map(|r| r.stats).unwrap_or_default()
    }

    /// Pull messages from `from` until one with `tag` appears; honor the
    /// stash first (FIFO per source). A link that closes first means the
    /// peer's thread is gone.
    fn match_message(&mut self, from: usize, tag: Tag) -> Result<Envelope<T>, CommError> {
        let pos = self.stash[from].iter().position(|m| m.tag == tag);
        if let Some(msg) = pos.and_then(|p| self.stash[from].remove(p)) {
            return Ok(msg);
        }
        loop {
            let msg = self.rx[from]
                .pop_blocking()
                .map_err(|_| CommError::PeerClosed { peer: from })?;
            if msg.tag == tag {
                return Ok(msg);
            }
            self.stash[from].push_back(msg);
        }
    }

    /// Match the next `(from, tag)` message: the reliability path when
    /// enabled, the plain blocking path otherwise.
    fn fetch(&mut self, from: usize, tag: Tag) -> Result<Envelope<T>, CommError> {
        match self.rel.as_mut() {
            Some(rel) => rel.receive(from, tag, &mut self.stash[from], self.rx[from].as_mut()),
            None => self.match_message(from, tag),
        }
    }

    /// Finish a matched receive: sit out the rest of the wire time,
    /// check the length, let `take` read the payload in place and hand
    /// the buffer back to its transport.
    pub(crate) fn consume(
        &mut self,
        from: usize,
        msg: Envelope<T>,
        want: usize,
        take: &mut dyn FnMut(&[T]),
    ) -> Result<(), CommError> {
        wait_until(msg.ready_at);
        if msg.payload.len() != want {
            return Err(CommError::SizeMismatch {
                from,
                tag: msg.tag,
                got: msg.payload.len(),
                want,
            });
        }
        take(msg.payload.as_slice());
        self.reclaim(from, msg.payload);
        Ok(())
    }

    /// Hand a staged payload to the transport toward `to`, applying the
    /// world's fault plan; returns the instant the message is (modeled
    /// to be) fully on the wire. This is the single choke point of all
    /// send entry points.
    ///
    /// The fault layer never copies the payload: duplicates and ledger
    /// parkings go through [`Payload::share`], so one buffer backs the
    /// wire message, the retransmission ledger, and any duplicate.
    fn transmit_payload(
        &mut self,
        to: usize,
        tag: Tag,
        mut payload: Payload<T>,
    ) -> Result<Instant, CommError> {
        let bytes = self.payload_bytes(payload.len());
        let ready_at = Instant::now() + self.latency.delay(bytes);
        let closed = |_| CommError::PeerClosed { peer: to };
        let Self { rank, tx, rel, .. } = self;
        let tx = tx[to].as_mut();
        let Some(rel) = rel.as_mut() else {
            tx.push(Envelope {
                tag,
                payload,
                seq: 0,
                ready_at,
            })
            .map_err(closed)?;
            return Ok(ready_at);
        };
        let seq = {
            let e = rel.send_seq[to].entry(tag).or_insert(0);
            let s = *e;
            *e += 1;
            s
        };
        // Commit the logical message before any fault decision: the
        // receiver's gap detector counts commitments, not deliveries.
        rel.ledger_out[to]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .sent
            .entry(tag)
            .and_modify(|c| *c += 1)
            .or_insert(1);
        let decision = rel
            .plan
            .as_ref()
            .map(|p| p.decide(*rank, to, tag, seq))
            .unwrap_or_default();
        if decision.lose {
            rel.stats.lost += 1;
            rel.flush_held(to, tx);
            return Ok(ready_at);
        }
        if decision.drop {
            rel.stats.dropped += 1;
            rel.ledger_out[to]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .stored
                .insert((tag, seq), payload);
            rel.flush_held(to, tx);
            return Ok(ready_at);
        }
        let ready_at = match decision.extra_delay {
            Some(extra) => {
                rel.stats.delayed += 1;
                ready_at + extra
            }
            None => ready_at,
        };
        if decision.duplicate {
            rel.stats.duplicated += 1;
            let dup = Envelope {
                tag,
                payload: payload.share(),
                seq,
                ready_at,
            };
            let _ = tx.push(dup);
        }
        if decision.reorder && rel.held[to].is_none() {
            rel.stats.reordered += 1;
            // Park a handle in the ledger too: if no later message ever
            // flushes the held one, the receiver can still recover it.
            let parked = payload.share();
            rel.ledger_out[to]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .stored
                .insert((tag, seq), parked);
            rel.held[to] = Some(Envelope {
                tag,
                payload,
                seq,
                ready_at,
            });
            return Ok(ready_at);
        }
        tx.push(Envelope {
            tag,
            payload,
            seq,
            ready_at,
        })
        .map_err(closed)?;
        // An older held message leaves after the newer one: reordered.
        rel.flush_held(to, tx);
        Ok(ready_at)
    }
}

impl<T: Copy + Default + Send + Sync + 'static> Communicator<T> for ThreadComm<T> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn barrier(&mut self) {
        // A barrier is a hard progress point: nothing may stay held
        // back past it.
        if let Some(rel) = self.rel.as_mut() {
            rel.flush_all(&mut self.tx);
        }
        self.barrier.wait();
    }

    fn send_with(
        &mut self,
        to: usize,
        tag: Tag,
        len: usize,
        fill: &mut dyn FnMut(&mut [T]),
    ) -> Result<(), CommError> {
        let payload = self.stage_with(to, len, fill);
        let ready_at = self.transmit_payload(to, tag, payload)?;
        // Blocking semantics: the caller is suspended for the wire time.
        wait_until(ready_at);
        Ok(())
    }

    fn isend_with(
        &mut self,
        to: usize,
        tag: Tag,
        len: usize,
        fill: &mut dyn FnMut(&mut [T]),
    ) -> Result<SendRequest, CommError> {
        let payload = self.stage_with(to, len, fill);
        self.transmit_payload(to, tag, payload)?;
        Ok(SendRequest(()))
    }

    fn irecv(&mut self, from: usize, tag: Tag) -> RecvRequest {
        RecvRequest { from, tag }
    }

    fn recv_with(
        &mut self,
        from: usize,
        tag: Tag,
        want: usize,
        take: &mut dyn FnMut(&[T]),
    ) -> Result<(), CommError> {
        let msg = self.fetch(from, tag)?;
        self.consume(from, msg, want, take)
    }

    fn wait_recv_with(
        &mut self,
        req: RecvRequest,
        want: usize,
        take: &mut dyn FnMut(&[T]),
    ) -> Result<(), CommError> {
        self.recv_with(req.from, req.tag, want, take)
    }

    fn wait_send(&mut self, _req: SendRequest) -> Result<(), CommError> {
        // The transport owns the payload already; local completion is
        // immediate (eager protocol).
        Ok(())
    }
}

/// Anything still held back by a reorder fault leaves when the
/// communicator goes away — a rank that exits cleanly must not strand
/// messages its peers are waiting for.
impl<T> Drop for ThreadComm<T> {
    fn drop(&mut self) {
        if let Some(rel) = self.rel.as_mut() {
            rel.flush_all(&mut self.tx);
        }
    }
}

/// Build the full mesh of per-rank communicators as a [`World`]: each
/// directed pair gets one transport link of the configured kind, plus
/// the per-link retransmission ledgers and per-rank reliability state
/// when the configuration asks for them. No thread starts before the
/// world's first run.
///
/// Public so long-running services can build a world *once* and drive
/// it through [`run_world`] for many jobs: the links (and, on the
/// slot transport, the peer-visible slot rings) are the expensive part
/// of a world, and a fully drained world — one whose every send was
/// matched by a receive, which the `analyzer` crate proves statically
/// for engine plans — is reusable as-is, rank threads included.
pub fn build_world_with<T: Send + Sync + 'static>(size: usize, cfg: &WorldConfig) -> World<T> {
    assert!(size > 0, "world size must be positive");
    let latency = cfg.latency;
    // `txs[src][dst]` and `rxs[dst][src]` are the two ends of the link
    // `src → dst`: both fill in `src`-major order.
    let mut txs: Vec<Vec<Box<dyn LinkTx<T>>>> =
        (0..size).map(|_| Vec::with_capacity(size)).collect();
    let mut rxs: Vec<Vec<Box<dyn LinkRx<T>>>> =
        (0..size).map(|_| Vec::with_capacity(size)).collect();
    for tx in &mut txs {
        for rx in &mut rxs {
            let (t, r) = make_link::<T>(cfg.transport);
            tx.push(t);
            rx.push(r);
        }
    }
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(size));
    let epoch = Instant::now();
    let elem_bytes = std::mem::size_of::<T>();
    // One shared ledger per directed link (built only when needed):
    // ledgers[src][dst] is cloned into src's ledger_out[dst] and dst's
    // ledger_in[src].
    let ledgers: Option<Vec<Vec<SharedLedger<T>>>> = cfg.reliable().then(|| {
        (0..size)
            .map(|_| (0..size).map(|_| Arc::default()).collect())
            .collect()
    });

    let mut comms: Vec<ThreadComm<T>> = Vec::with_capacity(size);
    for (rank, (tx, rx)) in txs.into_iter().zip(rxs).enumerate() {
        let rel = ledgers.as_ref().map(|led| {
            let mut state = RelState::new(
                size,
                cfg.reliability.unwrap_or_default(),
                cfg.faults.clone(),
            );
            state.ledger_out = (0..size).map(|dst| led[rank][dst].clone()).collect();
            state.ledger_in = (0..size).map(|src| led[src][rank].clone()).collect();
            state
        });
        comms.push(ThreadComm {
            rank,
            size,
            tx,
            rx,
            stash: (0..size).map(|_| VecDeque::new()).collect(),
            stats: PoolStats::default(),
            latency,
            barrier: barrier.clone(),
            epoch,
            elem_bytes,
            rel,
        });
    }
    World {
        comms,
        crew: Crew::default(),
    }
}

/// One communicator per rank, and the threads ranks `1..` run on: the
/// world's first run starts them and its drop joins them, so a later
/// [`run_world`] hands its ranks to threads that already exist. Derefs
/// to the communicators in rank order.
pub struct World<T> {
    comms: Vec<ThreadComm<T>>,
    crew: Crew,
}

impl<T> Deref for World<T> {
    type Target = [ThreadComm<T>];

    fn deref(&self) -> &[ThreadComm<T>] {
        &self.comms
    }
}

impl<T> DerefMut for World<T> {
    fn deref_mut(&mut self) -> &mut [ThreadComm<T>] {
        &mut self.comms
    }
}

/// Run `size` ranks, each executing `body(comm)` on its own OS thread
/// (rank 0 on the caller's, see [`run_threads_with`]); returns the
/// per-rank results (rank order) and the wall-clock time of the slowest
/// rank.
pub fn run_threads<T, R, F>(size: usize, latency: LatencyModel, body: F) -> (Vec<R>, Duration)
where
    T: Send + Sync + 'static,
    R: Send,
    F: Fn(ThreadComm<T>) -> R + Send + Sync,
{
    let (results, elapsed) = run_threads_with(size, &WorldConfig::new(latency), body);
    (
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect(),
        elapsed,
    )
}

/// [`run_threads`] under a full [`WorldConfig`] (transport kind,
/// reliability layer, fault plan): builds a world, runs it once and
/// drops it. Per-rank panics are captured rather than propagated — on
/// a reliability-enabled world a crashed rank surfaces to its peers as
/// a timeout/closed-peer error, and to the driver as the `Err` slot of
/// that rank, so the caller can report *which* rank failed.
///
/// Each body owns its communicator and drops it when it ends, so a
/// rank that stops early reads to its peers as a closed peer.
///
/// **The calling thread is rank 0**: its body runs inline, and ranks
/// `1..size` run on the world's threads, joined when it drops after
/// the run — a 1-rank world starts none. A panic in rank 0's body is
/// slot 0's `Err` like any other and never unwinds into the caller.
pub fn run_threads_with<T, R, F>(
    size: usize,
    cfg: &WorldConfig,
    body: F,
) -> (Vec<std::thread::Result<R>>, Duration)
where
    T: Send + Sync + 'static,
    R: Send,
    F: Fn(ThreadComm<T>) -> R + Send + Sync,
{
    let World { comms, mut crew } = build_world_with::<T>(size, cfg);
    run_ranks(&mut crew, comms, false, body)
}

/// Drive a *kept* world through one job: rank `r` runs
/// `body(&mut world[r])`. Unlike [`run_threads_with`], the
/// communicators are borrowed, not consumed — after every rank's sends
/// have been matched by receives (the engine's plans guarantee this;
/// the analyzer proves it pre-flight) the world is drained and can be
/// handed to the next job with its links, slot rings, buffer pools and
/// rank threads warm. Reliability sequence numbers and pool counters
/// persist across jobs, consistently on both endpoints.
///
/// **The calling thread is rank 0** and ranks `1..` run on the world's
/// threads (started by its first run), exactly as in
/// [`run_threads_with`], as is the capture of per-rank panics in the
/// result slots. `pin_cores` pins those threads, best effort, to core
/// `rank mod cores`; the calling thread's affinity belongs to the
/// caller and would outlive the run. But note a panicked or errored
/// job may leave links non-drained, in which case the world must be
/// discarded, not reused.
pub fn run_world<T, R, F>(
    world: &mut World<T>,
    pin_cores: bool,
    body: F,
) -> (Vec<std::thread::Result<R>>, Duration)
where
    T: Send + Sync + 'static,
    R: Send,
    F: Fn(&mut ThreadComm<T>) -> R + Send + Sync,
{
    let World { comms, crew } = world;
    run_ranks(crew, comms.iter_mut(), pin_cores, body)
}

/// One job over one communicator per rank, in rank order (owned or
/// borrowed): the first runs inline under `catch_unwind`, every other
/// one on its resident thread of `crew`, which `pin_cores` pins to its
/// rank's core. The elapsed time runs from before the first post (and
/// a fresh crew's spawns) to after the last rank is done, so rank 1's
/// wake-up hides behind rank 0's first tile.
fn run_ranks<C, R>(
    crew: &mut Crew,
    comms: impl IntoIterator<Item = C, IntoIter: ExactSizeIterator>,
    pin_cores: bool,
    body: impl Fn(C) -> R + Sync,
) -> (Vec<std::thread::Result<R>>, Duration)
where
    C: Send,
    R: Send,
{
    let start = Instant::now();
    let mut comms = comms.into_iter();
    let Some(first) = comms.next() else {
        return (Vec::new(), start.elapsed());
    };
    crew.staff(comms.len());
    let mut slots: Vec<Option<std::thread::Result<R>>> =
        std::iter::repeat_with(|| None).take(comms.len()).collect();
    let (body, waiter) = (&body, std::thread::current());
    let inline = {
        let launch = Launch(crew);
        for (hand, (comm, slot)) in comms.zip(&mut slots).enumerate() {
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                *slot = Some(catch_unwind(AssertUnwindSafe(|| {
                    if pin_cores {
                        // Best-effort placement hint; failure is fine.
                        let _ = crate::affinity::pin_current_thread(hand + 1);
                    }
                    body(comm)
                })));
            });
            // The job borrows `body` and `slot` from this frame, and (for
            // `run_world`) the communicator from its caller's. `launch`
            // lives on this frame: its drop, on return or unwind, waits
            // until the crew's running count is back to 0, which a
            // resident counts down only after the job ran and was dropped.
            // SAFETY: only the lifetime changes, and by the above no
            // borrow the job holds is used after this block ends.
            let job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            launch.post(hand, job, waiter.clone());
        }
        // The same contract as a resident rank's job: the panic becomes
        // the slot's `Err`, and whatever `body` shares between ranks is
        // as the dead rank left it.
        catch_unwind(AssertUnwindSafe(|| body(first)))
    };
    // Every posted job fills its slot before the launch is dropped; an
    // empty one would be a rank that never ran, which is its failure.
    let ranks = slots
        .into_iter()
        .map(|s| s.unwrap_or_else(|| Err(Box::new("rank never ran"))));
    (
        std::iter::once(inline).chain(ranks).collect(),
        start.elapsed(),
    )
}

/// A resident thread's mailbox states.
const IDLE: u32 = 0;
const POSTED: u32 = 1;
const DONE: u32 = 2;
const EXIT: u32 = 3;

/// One run's work for one resident thread — the rank's body into its
/// result slot — with its borrows' lifetime erased (see [`run_ranks`]).
type Job = Box<dyn FnOnce() + Send>;

/// The resident threads of a world's ranks `1..`, with their
/// mailboxes, and how many posted jobs are still running.
#[derive(Default)]
struct Crew {
    running: Arc<AtomicUsize>,
    hands: Vec<(Arc<Mailbox>, std::thread::JoinHandle<()>)>,
}

/// What a resident thread shares with the launching thread: the state,
/// the posted job with the thread to wake when the run is done, and
/// the crew's running count.
struct Mailbox {
    state: AtomicU32,
    /// Locked only to store or take a job, which cannot panic, so a
    /// poisoned lock would still hold a whole slot.
    job: Mutex<Option<(Job, Thread)>>,
    running: Arc<AtomicUsize>,
}

impl Crew {
    /// Start resident threads until there are `n`.
    fn staff(&mut self, n: usize) {
        while self.hands.len() < n {
            let mailbox = Arc::new(Mailbox {
                state: AtomicU32::new(IDLE),
                job: Mutex::new(None),
                running: Arc::clone(&self.running),
            });
            let resident = Arc::clone(&mailbox);
            self.hands
                .push((mailbox, std::thread::spawn(move || resident.serve())));
        }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        for (mailbox, thread) in &self.hands {
            mailbox.state.store(EXIT, Ordering::Release);
            thread.thread().unpark();
        }
        for (_, thread) in self.hands.drain(..) {
            // A resident never panics: its jobs catch their own.
            let _ = thread.join();
        }
    }
}

/// One run's posts to a crew. Dropping it waits until every posted job
/// is done: spinning and yielding, then parked until the last rank to
/// finish unparks it.
struct Launch<'c>(&'c Crew);

impl Launch<'_> {
    /// Hand `job` to the thread of rank `hand + 1` and count it as
    /// running; the last job of the run to finish unparks `waiter`.
    fn post(&self, hand: usize, job: Job, waiter: Thread) {
        let (mailbox, thread) = &self.0.hands[hand];
        // Relaxed: the `POSTED` release below orders the count before
        // the resident's count-off, which acquires `POSTED` first.
        self.0.running.fetch_add(1, Ordering::Relaxed);
        *mailbox.job.lock().unwrap_or_else(PoisonError::into_inner) = Some((job, waiter));
        mailbox.state.store(POSTED, Ordering::Release);
        thread.thread().unpark();
    }
}

impl Drop for Launch<'_> {
    fn drop(&mut self) {
        park_until(|| self.0.running.load(Ordering::Acquire) == 0);
    }
}

impl Mailbox {
    /// A resident thread's life: wait for a post, run it, report DONE,
    /// until EXIT (which finds no job posted).
    fn serve(&self) {
        loop {
            park_until(|| matches!(self.state.load(Ordering::Acquire), POSTED | EXIT));
            let job = self
                .job
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            let Some((job, waiter)) = job else {
                return;
            };
            job();
            // DONE before the count-off, so a count of 0 means the whole
            // run is DONE; the caller's acquire of that 0 pairs with every
            // count-off's release, so it sees each job's result slot.
            self.state.store(DONE, Ordering::Release);
            if self.running.fetch_sub(1, Ordering::AcqRel) == 1 {
                waiter.unpark();
            }
        }
    }
}

/// Spin and yield as the slot transport's backoff does, then park,
/// until `done()` — which is re-read after every wake-up, so an early
/// or stale unpark is harmless.
fn park_until(done: impl Fn() -> bool) {
    let mut backoff = Backoff::default();
    while !done() {
        if !backoff.spin_or_yield() {
            std::thread::park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Blocking receive of `len` elements into a fresh vector.
    fn recv<T>(comm: &mut ThreadComm<T>, from: usize, tag: Tag, len: usize) -> Vec<T>
    where
        T: Copy + Default + Send + Sync + 'static,
    {
        let mut out = vec![T::default(); len];
        comm.recv_into(from, tag, &mut out);
        out
    }

    #[test]
    fn two_rank_blocking_roundtrip() {
        let (results, _) = run_threads::<f32, _, _>(2, LatencyModel::zero(), |mut comm| {
            if comm.rank() == 0 {
                comm.send_from(1, 7, &[1.0, 2.0, 3.0]);
                recv(&mut comm, 1, 8, 3)
            } else {
                let doubled: Vec<f32> = recv(&mut comm, 0, 7, 3).iter().map(|x| x * 2.0).collect();
                comm.send_from(0, 8, &doubled);
                vec![]
            }
        });
        assert_eq!(results[0], vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn prebuilt_world_is_reusable_across_jobs() {
        // Two jobs over the same world: the second must see clean links
        // (job 1 drained everything it sent), including on the
        // zero-copy slot transport where the rings persist.
        for transport in [TransportKind::Mpsc, TransportKind::shared_slots()] {
            let cfg = WorldConfig::new(LatencyModel::zero()).with_transport(transport);
            let mut world = build_world_with::<f32>(2, &cfg);
            for job in 1..=3u32 {
                let (results, _) = run_world(&mut world, false, |comm| {
                    if comm.rank() == 0 {
                        comm.send_from(1, 7, &[job as f32]);
                        recv(comm, 1, 8, 1)[0]
                    } else {
                        let got = recv(comm, 0, 7, 1);
                        comm.send_from(0, 8, &[got[0] * 2.0]);
                        0.0
                    }
                });
                let r0 = results.into_iter().next().unwrap().unwrap();
                assert_eq!(r0, job as f32 * 2.0, "{transport:?} job {job}");
            }
        }
    }

    /// Both launchers over a `size`-rank world, the body seeing only
    /// its rank: twice over one kept world, then once over a fresh one.
    /// The kept world has started a thread per rank `1..`, no more.
    fn launch_both<R: Send>(
        size: usize,
        body: impl Fn(usize) -> R + Send + Sync,
    ) -> [Vec<std::thread::Result<R>>; 3] {
        let cfg = WorldConfig::new(LatencyModel::zero());
        let mut world = build_world_with::<f32>(size, &cfg);
        let runs = [
            run_world(&mut world, false, |comm| body(comm.rank())).0,
            run_world(&mut world, false, |comm| body(comm.rank())).0,
            run_threads_with::<f32, _, _>(size, &cfg, |comm| body(comm.rank())).0,
        ];
        assert_eq!(world.crew.hands.len(), size - 1);
        runs
    }

    #[test]
    fn the_calling_thread_is_rank_0_and_every_other_rank_runs_elsewhere() {
        let caller = std::thread::current().id();
        // A 1-rank world has no thread to start: its only body runs here.
        for size in [1, 3] {
            let runs = launch_both(size, |_| std::thread::current().id()).map(|run| {
                run.into_iter()
                    .map(|r| r.expect("no panic"))
                    .collect::<Vec<_>>()
            });
            assert_eq!(runs[0], runs[1], "a kept world's next run moved a rank");
            for ids in runs {
                assert_eq!(ids.len(), size);
                assert_eq!(ids[0], caller, "rank 0 of {size}");
                for (rank, id) in ids.iter().enumerate().skip(1) {
                    assert_ne!(*id, caller, "rank {rank} of {size}");
                    assert!(!ids[..rank].contains(id), "rank {rank} shares a thread");
                }
            }
        }
    }

    #[test]
    fn a_panicking_rank_is_its_own_err_slot_whichever_thread_it_ran_on() {
        // Independent bodies, so nothing waits on the dead rank. Rank 0
        // dies on the calling thread: getting the slots back at all is
        // the proof that its panic did not unwind through the caller.
        // Rank 1 dies on a kept world's thread, which then runs again.
        for dead in [0, 1] {
            let body = |rank: usize| {
                assert_ne!(rank, dead, "rank {rank} dies");
                rank
            };
            for results in launch_both(2, body) {
                assert_eq!(results.len(), 2);
                for (rank, slot) in results.into_iter().enumerate() {
                    assert_eq!(slot.ok(), (rank != dead).then_some(rank), "slot {rank}");
                }
            }
        }
    }

    #[test]
    fn no_rank_thread_outlives_its_world() {
        thread_local! {
            static HELD: std::cell::Cell<Option<Arc<()>>> = const { std::cell::Cell::new(None) };
        }
        // Rank 1 parks a clone in its thread's locals, which only that
        // thread's exit drops.
        let hold = |token: &Arc<()>, rank| (rank == 1).then(|| HELD.set(Some(Arc::clone(token))));
        let cfg = WorldConfig::new(LatencyModel::zero());
        let (kept, fresh) = (Arc::new(()), Arc::new(()));
        let mut world = build_world_with::<f32>(2, &cfg);
        run_world(&mut world, false, |comm| hold(&kept, comm.rank()));
        assert_eq!(Arc::strong_count(&kept), 2, "the world is alive");
        drop(world);
        run_threads_with::<f32, _, _>(2, &cfg, |comm| hold(&fresh, comm.rank()));
        let counts = (Arc::strong_count(&kept), Arc::strong_count(&fresh));
        assert_eq!(
            counts,
            (1, 1),
            "(kept, fresh): a rank thread outlived its world"
        );
    }

    #[test]
    fn nonblocking_roundtrip() {
        let (results, _) = run_threads::<i64, _, _>(2, LatencyModel::zero(), |mut comm| {
            if comm.rank() == 0 {
                let s = comm.isend_with(1, 1, 1, &mut |out| out[0] = 42).unwrap();
                comm.wait_send(s).unwrap();
                0
            } else {
                let r = comm.irecv(0, 1);
                let mut got = 0;
                comm.wait_recv_with(r, 1, &mut |data| got = data[0])
                    .unwrap();
                got
            }
        });
        assert_eq!(results[1], 42);
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let (results, _) = run_threads::<u32, _, _>(2, LatencyModel::zero(), |mut comm| {
            if comm.rank() == 0 {
                comm.send_from(1, 1, &[10]);
                comm.send_from(1, 2, &[20]);
                0
            } else {
                // Receive in reverse tag order.
                let b = recv(&mut comm, 0, 2, 1);
                let a = recv(&mut comm, 0, 1, 1);
                a[0] * 100 + b[0] // 10·100 + 20
            }
        });
        assert_eq!(results[1], 1020);
    }

    #[test]
    fn fifo_within_same_tag() {
        let (results, _) = run_threads::<u32, _, _>(2, LatencyModel::zero(), |mut comm| {
            if comm.rank() == 0 {
                comm.send_from(1, 5, &[1]);
                comm.send_from(1, 5, &[2]);
                0
            } else {
                let a = recv(&mut comm, 0, 5, 1)[0];
                let b = recv(&mut comm, 0, 5, 1)[0];
                a * 10 + b
            }
        });
        assert_eq!(results[1], 12);
    }

    #[test]
    fn latency_is_enforced_on_receive() {
        let lat = LatencyModel {
            startup_us: 3_000.0,
            per_byte_us: 0.0,
        };
        let (_, elapsed) = run_threads::<u8, _, _>(2, lat, |mut comm| {
            if comm.rank() == 0 {
                let s = comm.isend_with(1, 0, 1, &mut |out| out[0] = 1).unwrap();
                comm.wait_send(s).unwrap(); // does not pay the wire time
            } else {
                recv(&mut comm, 0, 0, 1); // pays ≥ 3 ms
            }
        });
        assert!(elapsed >= Duration::from_micros(2_900), "{elapsed:?}");
    }

    #[test]
    fn overlap_hides_latency_nonblocking() {
        // Receiver computes ~5 ms while a 5 ms-latency message flies:
        // the run should take well under the two in series. Both sides
        // of the comparison come from the same attempt's clock — a
        // receiver descheduled at the end of its loop lengthens the
        // serial time it is held against — and a loaded box gets three
        // attempts: an engine that does not overlap fails all of them.
        let wire = Duration::from_micros(5_000);
        let lat = LatencyModel {
            startup_us: 5_000.0,
            per_byte_us: 0.0,
        };
        let mut attempts = Vec::new();
        let overlapped = (0..3).any(|_| {
            let (computed, elapsed) = run_threads::<u8, _, _>(2, lat, |mut comm| {
                if comm.rank() == 0 {
                    let s = comm.isend_with(1, 0, 1, &mut |out| out[0] = 1).unwrap();
                    comm.wait_send(s).unwrap();
                    Duration::ZERO
                } else {
                    let req = comm.irecv(0, 0);
                    // ~5 ms of real work.
                    let t0 = Instant::now();
                    let mut acc = 0.0f64;
                    while t0.elapsed() < wire {
                        acc += acc.sin() + 1.0;
                    }
                    std::hint::black_box(acc);
                    let computed = t0.elapsed();
                    comm.wait_recv_with(req, 1, &mut |_| ()).unwrap();
                    computed
                }
            });
            let serial = computed[1] + wire;
            attempts.push((elapsed, serial));
            elapsed < serial.mul_f64(0.85)
        });
        assert!(overlapped, "no overlap in (elapsed, serial): {attempts:?}");
    }

    #[test]
    fn blocking_send_pays_wire_time() {
        let lat = LatencyModel {
            startup_us: 3_000.0,
            per_byte_us: 0.0,
        };
        let (_, elapsed) = run_threads::<u8, _, _>(2, lat, |mut comm| {
            if comm.rank() == 0 {
                let t0 = Instant::now();
                comm.send_from(1, 0, &[1]);
                assert!(t0.elapsed() >= Duration::from_micros(2_900));
            } else {
                recv(&mut comm, 0, 0, 1);
            }
        });
        assert!(elapsed >= Duration::from_micros(2_900));
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static BEFORE: AtomicUsize = AtomicUsize::new(0);
        let (results, _) = run_threads::<u8, _, _>(4, LatencyModel::zero(), |mut comm| {
            BEFORE.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            BEFORE.load(Ordering::SeqCst)
        });
        // After the barrier everyone sees all 4 increments.
        assert!(results.iter().all(|&x| x == 4));
    }

    #[test]
    fn ring_pipeline_many_ranks() {
        // 0 → 1 → 2 → 3: each adds its rank.
        let (results, _) = run_threads::<u64, _, _>(4, LatencyModel::zero(), |mut comm| {
            let r = comm.rank();
            if r == 0 {
                comm.send_from(1, 0, &[0]);
                0
            } else {
                let v = recv(&mut comm, r - 1, 0, 1)[0] + r as u64;
                if r + 1 < comm.size() {
                    comm.send_from(r + 1, 0, &[v]);
                }
                v
            }
        });
        assert_eq!(results[3], 6);
    }

    #[test]
    fn latency_model_delay() {
        let lat = LatencyModel {
            startup_us: 100.0,
            per_byte_us: 0.5,
        };
        assert_eq!(lat.delay(0), Duration::from_micros(100));
        assert_eq!(lat.delay(200), Duration::from_micros(200));
        assert_eq!(LatencyModel::zero().delay(1 << 20), Duration::ZERO);
    }

    #[test]
    fn latency_model_delay_rounds_to_nearest() {
        // zero() stays exactly zero for any size.
        assert_eq!(LatencyModel::zero().delay(0), Duration::ZERO);
        assert_eq!(LatencyModel::zero().delay(usize::MAX >> 16), Duration::ZERO);
        // 0.6 ns rounds up to 1 ns (`as u64` used to floor it to 0).
        let sub_ns = LatencyModel {
            startup_us: 0.0006,
            per_byte_us: 0.0,
        };
        assert_eq!(sub_ns.delay(0), Duration::from_nanos(1));
        // 0.4 ns rounds down.
        let below_half = LatencyModel {
            startup_us: 0.0004,
            per_byte_us: 0.0,
        };
        assert_eq!(below_half.delay(0), Duration::ZERO);
        // Fractional-µs startup: 1.2346 µs = 1234.6 ns → 1235 ns, where
        // truncation produced 1234 ns.
        let frac = LatencyModel {
            startup_us: 1.2346,
            per_byte_us: 0.0,
        };
        assert_eq!(frac.delay(0), Duration::from_nanos(1235));
        // Per-byte fractions accumulate before rounding: 2 B × 0.0003 µs/B
        // = 0.6 ns → 1 ns (truncation: 0).
        let per_byte = LatencyModel {
            startup_us: 0.0,
            per_byte_us: 0.0003,
        };
        assert_eq!(per_byte.delay(2), Duration::from_nanos(1));
    }

    #[test]
    fn latency_model_delay_clamps_extreme_parameters() {
        // NaN model parameters must not alias to an arbitrary delay.
        let nan = LatencyModel {
            startup_us: f64::NAN,
            per_byte_us: 0.0,
        };
        assert_eq!(nan.delay(1024), Duration::ZERO);
        // Negative parameters (nonsensical but representable) clamp to
        // zero instead of casting through a negative f64.
        let neg = LatencyModel {
            startup_us: -5.0,
            per_byte_us: -1.0,
        };
        assert_eq!(neg.delay(4096), Duration::ZERO);
        // A negative startup that a large payload overcomes stays exact.
        let mixed = LatencyModel {
            startup_us: -1.0,
            per_byte_us: 1.0,
        };
        assert_eq!(mixed.delay(3), Duration::from_micros(2));
        // Absurd per-byte cost × huge payload overflows u64 nanoseconds:
        // saturate instead of wrapping to a tiny delay.
        let huge = LatencyModel {
            startup_us: 0.0,
            per_byte_us: 1e18,
        };
        assert_eq!(huge.delay(usize::MAX), Duration::from_nanos(u64::MAX));
        assert_eq!(
            LatencyModel {
                startup_us: f64::INFINITY,
                per_byte_us: 0.0
            }
            .delay(0),
            Duration::from_nanos(u64::MAX)
        );
    }

    #[test]
    fn recv_for_later_tag_preserves_earlier_tagged_messages() {
        // Regression for the per-pair stash: receiving tag B while two
        // tag-A messages are queued must neither match them nor lose
        // them nor break their FIFO order.
        let (results, _) = run_threads::<u32, _, _>(2, LatencyModel::zero(), |mut comm| {
            if comm.rank() == 0 {
                comm.send_from(1, 10, &[1]); // A #1
                comm.send_from(1, 10, &[2]); // A #2
                comm.send_from(1, 20, &[9]); // B
                0
            } else {
                let b = recv(&mut comm, 0, 20, 1)[0]; // stashes both A messages
                let a1 = recv(&mut comm, 0, 10, 1)[0];
                let a2 = recv(&mut comm, 0, 10, 1)[0];
                b * 100 + a1 * 10 + a2
            }
        });
        assert_eq!(results[1], 912);
    }

    #[test]
    fn reliable_world_roundtrip_without_faults() {
        let cfg =
            WorldConfig::new(LatencyModel::zero()).with_reliability(ReliabilityConfig::default());
        let (results, _) = run_threads_with::<f32, _, _>(2, &cfg, |mut comm| {
            if comm.rank() == 0 {
                comm.send_from(1, 7, &[1.0, 2.0]);
                recv(&mut comm, 1, 8, 2)
            } else {
                let tripled: Vec<f32> = recv(&mut comm, 0, 7, 2).iter().map(|x| x * 3.0).collect();
                comm.send_from(0, 8, &tripled);
                vec![]
            }
        });
        let r0 = results.into_iter().next().unwrap().expect("rank 0 ok");
        assert_eq!(r0, vec![3.0, 6.0]);
    }

    #[test]
    fn receive_timeout_is_a_typed_error() {
        let rel = ReliabilityConfig {
            recv_timeout: Duration::from_millis(5),
            max_retries: 1,
            backoff: Duration::from_millis(1),
        };
        let cfg = WorldConfig::new(LatencyModel::zero()).with_reliability(rel);
        let (results, _) = run_threads_with::<u8, _, _>(2, &cfg, move |mut comm| {
            if comm.rank() == 0 {
                // Never send; stay alive past the peer's retry schedule
                // so the error is Timeout, not PeerClosed.
                std::thread::sleep(rel.worst_case_wait() + Duration::from_millis(50));
                Ok(())
            } else {
                comm.recv_with(0, 42, 1, &mut |_| ())
            }
        });
        let r1 = results.into_iter().nth(1).unwrap().expect("no panic");
        match r1 {
            Err(CommError::Timeout {
                from: 0,
                tag: 42,
                retries: 1,
                ..
            }) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn dropped_message_is_recovered_from_ledger() {
        use crate::fault::{FaultKind, FaultSite};
        let rel = ReliabilityConfig {
            recv_timeout: Duration::from_millis(5),
            max_retries: 4,
            backoff: Duration::from_millis(1),
        };
        let plan = FaultPlan::seeded(1).targeted(FaultSite {
            src: 0,
            dst: 1,
            tag: 3,
            kind: FaultKind::Drop,
        });
        let cfg = WorldConfig::new(LatencyModel::zero())
            .with_reliability(rel)
            .with_faults(plan);
        let (results, _) = run_threads_with::<u32, _, _>(2, &cfg, |mut comm| {
            if comm.rank() == 0 {
                comm.send_from(1, 3, &[77]);
                (0, comm.fault_stats())
            } else {
                let got = recv(&mut comm, 0, 3, 1)[0];
                (got, comm.fault_stats())
            }
        });
        let results: Vec<_> = results.into_iter().map(|r| r.expect("no panic")).collect();
        assert_eq!(results[1].0, 77, "payload recovered bit-exact");
        assert_eq!(results[0].1.dropped, 1, "sender counted the drop");
        assert_eq!(results[1].1.recovered, 1, "receiver recovered from ledger");
    }

    #[test]
    fn duplicated_messages_are_discarded_by_sequence() {
        use crate::fault::{FaultKind, FaultSite};
        let plan = FaultPlan::seeded(2).targeted(FaultSite {
            src: 0,
            dst: 1,
            tag: 6,
            kind: FaultKind::Duplicate,
        });
        let cfg = WorldConfig::new(LatencyModel::zero()).with_faults(plan);
        let (results, _) = run_threads_with::<u32, _, _>(2, &cfg, |mut comm| {
            if comm.rank() == 0 {
                comm.send_from(1, 6, &[1]);
                comm.send_from(1, 6, &[2]);
                (0, comm.fault_stats())
            } else {
                let a = recv(&mut comm, 0, 6, 1)[0];
                let b = recv(&mut comm, 0, 6, 1)[0];
                (a * 10 + b, comm.fault_stats())
            }
        });
        let results: Vec<_> = results.into_iter().map(|r| r.expect("no panic")).collect();
        assert_eq!(
            results[1].0, 12,
            "each payload delivered exactly once, in order"
        );
        assert_eq!(results[0].1.duplicated, 2);
        assert!(results[1].1.duplicates_discarded >= 1);
    }

    #[test]
    fn reordered_messages_are_resequenced() {
        use crate::fault::{FaultKind, FaultSite};
        let rel = ReliabilityConfig {
            recv_timeout: Duration::from_millis(20),
            max_retries: 4,
            backoff: Duration::from_millis(1),
        };
        let plan = FaultPlan::seeded(3).targeted(FaultSite {
            src: 0,
            dst: 1,
            tag: 9,
            kind: FaultKind::Reorder,
        });
        let cfg = WorldConfig::new(LatencyModel::zero())
            .with_reliability(rel)
            .with_faults(plan);
        let (results, _) = run_threads_with::<u32, _, _>(2, &cfg, |mut comm| {
            if comm.rank() == 0 {
                for v in 1..=4 {
                    comm.send_from(1, 9, &[v]);
                }
                (0, comm.fault_stats())
            } else {
                let mut got = 0;
                for _ in 0..4 {
                    got = got * 10 + recv(&mut comm, 0, 9, 1)[0];
                }
                (got, comm.fault_stats())
            }
        });
        let results: Vec<_> = results.into_iter().map(|r| r.expect("no panic")).collect();
        assert_eq!(results[1].0, 1234, "sequence numbers restore FIFO order");
        assert!(results[0].1.reordered >= 1, "{:?}", results[0].1);
    }

    #[test]
    fn permanent_loss_is_a_sequence_gap() {
        let rel = ReliabilityConfig {
            recv_timeout: Duration::from_millis(5),
            max_retries: 6,
            backoff: Duration::from_millis(1),
        };
        let plan = FaultPlan::seeded(4).lose_at(0, 1, 5);
        let cfg = WorldConfig::new(LatencyModel::zero())
            .with_reliability(rel)
            .with_faults(plan);
        let (results, _) = run_threads_with::<u8, _, _>(2, &cfg, move |mut comm| {
            if comm.rank() == 0 {
                comm.send_from(1, 5, &[1]);
                std::thread::sleep(rel.worst_case_wait() + Duration::from_millis(50));
                Ok(())
            } else {
                comm.recv_with(0, 5, 1, &mut |_| ())
            }
        });
        let r1 = results.into_iter().nth(1).unwrap().expect("no panic");
        match r1 {
            Err(CommError::SequenceGap {
                from: 0,
                tag: 5,
                seq: 0,
            }) => {}
            other => panic!("expected SequenceGap, got {other:?}"),
        }
    }

    #[test]
    fn buffers_recycle_after_warmup_on_both_transports() {
        // Lockstep traffic with exact counter expectations on either
        // wire: the mpsc link circulates one buffer, the slot link walks
        // its 8 slots round-robin (one warm-up growth each); everything
        // after that is recycled in place.
        const STEPS: u64 = 50;
        for (transport, warm_ups) in [(TransportKind::Mpsc, 1), (TransportKind::shared_slots(), 8)]
        {
            let cfg = WorldConfig::new(LatencyModel::zero()).with_transport(transport);
            let (results, _) = run_threads_with::<f64, _, _>(2, &cfg, |mut comm| {
                if comm.rank() == 0 {
                    let payload: Vec<f64> = (0..64).map(|i| i as f64).collect();
                    let mut ack = [0.0f64; 1];
                    for k in 0..STEPS {
                        let s = comm
                            .isend_with(1, k, 64, &mut |out| out.copy_from_slice(&payload))
                            .unwrap();
                        comm.wait_send(s).unwrap();
                        // Wait for the ack so the buffer has round-tripped
                        // before the next send.
                        comm.recv_into(1, 1000 + k, &mut ack);
                    }
                } else {
                    for k in 0..STEPS {
                        let r = comm.irecv(0, k);
                        comm.wait_recv_with(r, 64, &mut |data| assert_eq!(data[63], 63.0))
                            .unwrap();
                        comm.send_from(0, 1000 + k, &[0.0]);
                    }
                }
                comm.pool_stats()
            });
            for res in results {
                let stats = res.expect("no panic");
                assert_eq!(stats.fresh_allocs, warm_ups, "{transport:?} {stats:?}");
                assert_eq!(stats.recycled, STEPS - warm_ups, "{transport:?} {stats:?}");
                assert_eq!(stats.returned, STEPS, "{transport:?} {stats:?}");
            }
        }
    }

    #[test]
    fn slot_transport_roundtrip_and_tag_matching() {
        let cfg =
            WorldConfig::new(LatencyModel::zero()).with_transport(TransportKind::shared_slots());
        let (results, _) = run_threads_with::<u32, _, _>(2, &cfg, |mut comm| {
            if comm.rank() == 0 {
                comm.send_from(1, 1, &[10]);
                comm.send_from(1, 2, &[20]);
                recv(&mut comm, 1, 3, 1)[0]
            } else {
                // Reverse tag order exercises the stash over slot links.
                let b = recv(&mut comm, 0, 2, 1)[0];
                let a = recv(&mut comm, 0, 1, 1)[0];
                comm.send_from(0, 3, &[a * 100 + b]);
                0
            }
        });
        let results: Vec<_> = results.into_iter().map(|r| r.expect("no panic")).collect();
        assert_eq!(results[0], 1020);
    }

    #[test]
    fn slot_transport_zero_copy_send_recv_with() {
        let cfg =
            WorldConfig::new(LatencyModel::zero()).with_transport(TransportKind::shared_slots());
        let (results, _) = run_threads_with::<f32, _, _>(2, &cfg, |mut comm| {
            if comm.rank() == 0 {
                for k in 0..10u64 {
                    comm.send_with(1, k, 16, &mut |out| {
                        for (i, x) in out.iter_mut().enumerate() {
                            *x = (k * 100 + i as u64) as f32;
                        }
                    })
                    .expect("send");
                }
                0.0
            } else {
                let mut sum = 0.0f32;
                for k in 0..10u64 {
                    comm.recv_with(0, k, 16, &mut |data| {
                        sum += data.iter().sum::<f32>();
                    })
                    .expect("recv");
                }
                sum
            }
        });
        let results: Vec<_> = results.into_iter().map(|r| r.expect("no panic")).collect();
        let expected: f32 = (0..10u64)
            .flat_map(|k| (0..16u64).map(move |i| (k * 100 + i) as f32))
            .sum();
        assert_eq!(results[1], expected);
    }

    #[test]
    fn slot_transport_faults_recover_bitwise() {
        // Drop + duplicate + reorder on slot links: the ledger parks
        // slot *leases*, not copies, and everything still arrives
        // exactly once, in order, bit-for-bit.
        use crate::fault::{FaultKind, FaultSite};
        let rel = ReliabilityConfig {
            recv_timeout: Duration::from_millis(10),
            max_retries: 5,
            backoff: Duration::from_millis(1),
        };
        for kind in [FaultKind::Drop, FaultKind::Duplicate, FaultKind::Reorder] {
            let plan = FaultPlan::seeded(7).targeted(FaultSite {
                src: 0,
                dst: 1,
                tag: 9,
                kind,
            });
            let cfg = WorldConfig::new(LatencyModel::zero())
                .with_transport(TransportKind::shared_slots())
                .with_reliability(rel)
                .with_faults(plan);
            let (results, _) = run_threads_with::<u32, _, _>(2, &cfg, |mut comm| {
                if comm.rank() == 0 {
                    for v in 1..=4 {
                        comm.send_from(1, 9, &[v, v * 11]);
                    }
                    0
                } else {
                    let mut got = 0;
                    for _ in 0..4 {
                        let m = recv(&mut comm, 0, 9, 2);
                        assert_eq!(m[1], m[0] * 11, "payload intact");
                        got = got * 10 + m[0];
                    }
                    got
                }
            });
            let results: Vec<_> = results.into_iter().map(|r| r.expect("no panic")).collect();
            assert_eq!(results[1], 1234, "kind {kind:?}");
        }
    }

    #[test]
    fn a_sender_is_not_throttled_by_messages_still_on_the_wire() {
        // 32 faces back to back over a wire that holds each for 20 ms,
        // through the default 8-slot window: nothing can come back
        // before the loop is over, so the window has to follow the wire
        // (8 → 16 → 32) — no wait, no copy — and a second burst after
        // the drain must find every one of those slots free again.
        const N: usize = 32;
        const LEN: usize = 2048;
        let wire = Duration::from_millis(20);
        let latency = LatencyModel {
            startup_us: wire.as_secs_f64() * 1e6,
            per_byte_us: 0.0,
        };
        let cfg = WorldConfig::new(latency).with_transport(TransportKind::shared_slots());
        let (results, _) = run_threads_with::<f32, _, _>(2, &cfg, |mut comm| {
            let mut stamps = Vec::with_capacity(2 * N);
            let mut after_first_burst = None;
            for burst in 0..2 {
                for k in burst * N..(burst + 1) * N {
                    if comm.rank() == 0 {
                        stamps.push(Instant::now());
                        let s = comm
                            .isend_with(1, k as Tag, LEN, &mut |out| out.fill(k as f32))
                            .expect("peer alive");
                        comm.wait_send(s).expect("eager");
                    } else {
                        let r = comm.irecv(0, k as Tag);
                        comm.wait_recv_with(r, LEN, &mut |data| {
                            assert!(data.iter().all(|&x| x == k as f32), "message {k}");
                        })
                        .expect("peer alive");
                        stamps.push(Instant::now());
                    }
                }
                after_first_burst.get_or_insert((Instant::now(), comm.pool_stats()));
                comm.barrier();
            }
            (
                stamps,
                after_first_burst.expect("two bursts"),
                comm.pool_stats(),
            )
        });
        let mut results = results.into_iter().map(|r| r.expect("no panic"));
        let (sent, (loop_end, burst), end) = results.next().expect("rank 0");
        let (arrived, ..) = results.next().expect("rank 1");
        assert!(
            loop_end - sent[0] < wire,
            "the send loop took {:?}, a wire time is {wire:?}",
            loop_end - sent[0]
        );
        assert_eq!(burst.grown, (N - 8) as u64, "{burst:?}");
        assert_eq!(burst.stage_waits, 0, "{burst:?}");
        assert_eq!(
            burst.fresh_allocs, N as u64,
            "one warm-up per slot: {burst:?}"
        );
        assert_eq!(burst.recycled, 0, "{burst:?}");
        for (k, (s, a)) in sent.iter().zip(&arrived).enumerate() {
            assert!(
                *a >= *s + wire,
                "message {k} arrived {:?} after its send",
                *a - *s
            );
        }
        assert_eq!(end.recycled, N as u64, "every slot came back: {end:?}");
        assert_eq!((end.fresh_allocs, end.grown), (N as u64, burst.grown));
        assert_eq!(end.stage_waits, 0, "{end:?}");
    }

    #[test]
    fn a_lagging_consumer_still_backpressures_a_zero_latency_sender() {
        // No wire: every message is due the instant it is pushed, so a
        // full pool can only mean the consumer is behind — the sender
        // waits on the 8 slots it has, however long the run.
        const N: u64 = 64;
        let cfg =
            WorldConfig::new(LatencyModel::zero()).with_transport(TransportKind::shared_slots());
        let (results, _) = run_threads_with::<u64, _, _>(2, &cfg, |mut comm| {
            for k in 0..N {
                if comm.rank() == 0 {
                    let s = comm
                        .isend_with(1, 0, 4, &mut |out| out.fill(k))
                        .expect("peer alive");
                    comm.wait_send(s).expect("eager");
                } else {
                    std::thread::sleep(Duration::from_micros(300));
                    let mut got = [0u64; 4];
                    comm.recv_into(0, 0, &mut got);
                    assert_eq!(got, [k; 4], "FIFO on one tag");
                }
            }
            comm.pool_stats()
        });
        let sender = results
            .into_iter()
            .next()
            .expect("rank 0")
            .expect("no panic");
        assert_eq!(sender.grown, 0, "{sender:?}");
        assert!(sender.stage_waits > 0, "{sender:?}");
        assert_eq!(sender.fresh_allocs + sender.recycled, N, "{sender:?}");
    }

    #[test]
    fn a_parked_lease_is_past_due_and_never_grows_the_pool() {
        // Two slots, a 3 ms wire. Tag 0 is dropped, so its lease sits
        // in the retransmission ledger and is on no wire; tag 1 takes
        // the other slot and *is* on the wire. Every later send finds
        // the pool full with one lease nobody is about to deliver: that
        // is the wait-then-copy path, not growth.
        use crate::fault::{FaultKind, FaultSite};
        let rel = ReliabilityConfig {
            recv_timeout: Duration::from_millis(10),
            max_retries: 6,
            backoff: Duration::from_millis(1),
        };
        let plan = FaultPlan::seeded(5).targeted(FaultSite {
            src: 0,
            dst: 1,
            tag: 0,
            kind: FaultKind::Drop,
        });
        let latency = LatencyModel {
            startup_us: 3000.0,
            per_byte_us: 0.0,
        };
        let cfg = WorldConfig::new(latency)
            .with_transport(TransportKind::SharedSlots { slots: 2 })
            .with_reliability(rel)
            .with_faults(plan);
        let (results, _) = run_threads_with::<u32, _, _>(2, &cfg, |mut comm| {
            let mut got = Vec::new();
            if comm.rank() == 0 {
                for tag in 0..6u64 {
                    let s = comm
                        .isend_with(1, tag, 2, &mut |out| out.fill(tag as u32 * 7))
                        .expect("peer alive");
                    comm.wait_send(s).expect("eager");
                }
            }
            // The receiver only starts once every send is staged, so the
            // ledger still pins tag 0 for all of them.
            let staged = comm.pool_stats();
            comm.barrier();
            if comm.rank() == 1 {
                for tag in 0..6u64 {
                    let mut out = [0u32; 2];
                    comm.recv_into(0, tag, &mut out);
                    got.push(out);
                }
            }
            // Hold the ledger until the receiver has recovered tag 0.
            comm.barrier();
            (got, staged, comm.fault_stats())
        });
        let results: Vec<_> = results.into_iter().map(|r| r.expect("no panic")).collect();
        let (_, sender, faults) = &results[0];
        assert_eq!(faults.dropped, 1);
        assert_eq!(sender.grown, 0, "{sender:?}");
        assert_eq!(sender.stage_waits, 4, "tags 2..6 waited: {sender:?}");
        assert_eq!(sender.fresh_allocs, 6, "2 warm-ups + 4 copies: {sender:?}");
        assert_eq!(results[1].2.recovered, 1, "dropped lease recovered");
        for (tag, out) in results[1].0.iter().enumerate() {
            assert_eq!(out, &[tag as u32 * 7; 2], "tag {tag} bit-exact");
        }
    }

    #[test]
    fn retransmitted_lease_survives_pool_pressure() {
        // A single-slot pool: the Drop fault parks the only slot's lease
        // in the ledger, every later send must fall back to owned copies
        // (no stale-slot reuse), and the receiver still recovers the
        // dropped payload bit-exact.
        use crate::fault::{FaultKind, FaultSite};
        let rel = ReliabilityConfig {
            recv_timeout: Duration::from_millis(5),
            max_retries: 6,
            backoff: Duration::from_millis(1),
        };
        let plan = FaultPlan::seeded(5).targeted(FaultSite {
            src: 0,
            dst: 1,
            tag: 0,
            kind: FaultKind::Drop,
        });
        let cfg = WorldConfig::new(LatencyModel::zero())
            .with_transport(TransportKind::SharedSlots { slots: 1 })
            .with_reliability(rel)
            .with_faults(plan);
        let (results, _) = run_threads_with::<u32, _, _>(2, &cfg, |mut comm| {
            if comm.rank() == 0 {
                // Tag 0 is dropped (and its lease parked); tags 1..8 keep
                // hammering the same link while the slot is pinned.
                for tag in 0..8u64 {
                    comm.send_from(1, tag, &[tag as u32 * 3, tag as u32 * 5]);
                }
                (vec![], comm.fault_stats())
            } else {
                let mut got = Vec::new();
                for tag in 0..8u64 {
                    let mut out = [0u32; 2];
                    comm.recv_into(0, tag, &mut out);
                    got.push(out);
                }
                (got, comm.fault_stats())
            }
        });
        let results: Vec<_> = results.into_iter().map(|r| r.expect("no panic")).collect();
        assert_eq!(results[0].1.dropped, 1);
        assert_eq!(results[1].1.recovered, 1, "dropped lease recovered");
        for (tag, out) in results[1].0.iter().enumerate() {
            let t = tag as u32;
            assert_eq!(out, &[t * 3, t * 5], "tag {tag} bit-exact");
        }
    }

    #[test]
    fn length_mismatch_is_typed_on_recv_with_and_a_panic_on_recv_into() {
        let (results, _) = run_threads::<u8, _, _>(2, LatencyModel::zero(), |mut comm| {
            if comm.rank() == 0 {
                comm.send_from(1, 0, &[1, 2, 3]);
                Ok(())
            } else {
                comm.recv_with(0, 0, 2, &mut |_| panic!("mismatched payload delivered"))
            }
        });
        let want = CommError::SizeMismatch {
            from: 0,
            tag: 0,
            got: 3,
            want: 2,
        };
        assert_eq!(results[1], Err(want));

        let (results, _) = run_threads_with::<u8, _, _>(2, &WorldConfig::default(), |mut comm| {
            if comm.rank() == 0 {
                comm.send_from(1, 0, &[1, 2, 3]);
            } else {
                let mut out = [0u8; 2];
                comm.recv_into(0, 0, &mut out);
            }
        });
        assert!(results[1].is_err(), "length mismatch must panic");
    }

    #[test]
    fn peer_that_hangs_up_is_a_typed_error_on_a_plain_world() {
        // No reliability layer: rank 0 returns without sending, its
        // communicator drops, and rank 1's blocked receive must report
        // the closed link instead of panicking inside a fallible call.
        for transport in [TransportKind::Mpsc, TransportKind::shared_slots()] {
            let cfg = WorldConfig::new(LatencyModel::zero()).with_transport(transport);
            let (results, _) = run_threads_with::<f32, _, _>(2, &cfg, |mut comm| {
                if comm.rank() == 0 {
                    Ok(())
                } else {
                    comm.recv_with(0, 7, 4, &mut |_| ())
                }
            });
            let r1 = results.into_iter().nth(1).unwrap();
            let r1 = r1.unwrap_or_else(|_| panic!("{transport:?}: rank 1 panicked"));
            assert_eq!(r1, Err(CommError::PeerClosed { peer: 0 }), "{transport:?}");
        }
    }
}
