//! The discrete-event simulation engine.
//!
//! Each rank owns three resources, mirroring §4's timing decomposition
//! (Fig. 4/5):
//!
//! * a **CPU lane** — computations (`A₂`), non-blocking posting costs
//!   (`A₁`, `A₃`) and, for *blocking* primitives, the full copy+transmit
//!   path (Fig. 7);
//! * a **TX lane** (NIC/DMA, send direction) — kernel-buffer fill `B₃`
//!   and wire transmission `B₄` of non-blocking sends;
//! * an **RX lane** (receive direction) — wire receive `B₁` and
//!   kernel-buffer copy `B₂` of incoming non-blocking messages.
//!
//! With [`SimConfig::duplex`] `= false` the TX and RX lanes collapse into
//! one half-duplex NIC (the paper's Fig. 4b serialized `B₁+B₂+B₃+B₄`);
//! with `true` the directions overlap (Fig. 3c, multi-channel DMA).
//!
//! Messages match by `(source rank, tag)` in FIFO order, with eager
//! (unbounded) buffering, which is what MPICH did for these sizes.
//! Blocking sends deposit the message after their CPU-side transmit —
//! their wire time is *not* charged again on the receiver's RX lane, so
//! a blocking send/receive pair costs exactly
//! `2·T_startup + T_transmit` (eq. 3).
//!
//! The event queue holds names, not payloads: a `Run` executes one op of
//! its rank — after what the rank's previous op deferred to the instant
//! it ended (a TX-lane booking, a zero-latency delivery) — and a message
//! in flight is the `(rank, stored op, step)` that sent it (see `Ev`).
//! The queue is touched about once per op: a `Run` that cannot go next
//! takes the head's place with one sift (see `Ev`), and events compare
//! as one `u128`, `(time << 64) | seq`.
//!
//! Programs are walked where they are stored: a rank's cursor is a
//! `(step, slot)` position in its program's stored steps, and an
//! op's tag and request handle are resolved from the step as it runs
//! (see [`crate::program`]), so an emitted pipeline is never unrolled.
//!
//! Host-side bookkeeping is indexed, not hashed: an emitted pipeline's
//! request handles are dense slots already and [`Engine::new`] renames a
//! hand-written program's to dense slots (request state is a `Vec` per
//! rank), unmatched messages and posted receives wait in a
//! per-peer FIFO (`MatchTable`) that holds only what is in flight, and
//! each recorded CPU interval is added to the rank's [`CpuTotals`] as
//! it happens, so [`crate::stats`] never re-reads the trace — and works
//! with the trace off. A rank converts a repeated `Compute` cost once.
//! None of it is visible in a simulated number.

use crate::program::{Cursor, Op, Program, Rank};
use crate::stats::CpuTotals;
use crate::time::SimTime;
use crate::trace::{Activity, Trace};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use tiling_core::machine::{MachineParams, NodeSpeeds};

/// How the wire itself is shared between nodes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum NetworkTopology {
    /// A switched network: each node's wire segment is independent
    /// (the bandwidth term serializes per NIC only). This is the
    /// implicit model of the paper's analysis.
    #[default]
    Switched,
    /// A shared medium (a late-90s Ethernet *hub*): all transmissions
    /// contend for one global bus — the `B₄` wire time of every message
    /// in the cluster serializes.
    SharedBus,
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Machine timing parameters.
    pub machine: MachineParams,
    /// Full-duplex NIC/DMA (TX and RX lanes independent) vs half-duplex.
    pub duplex: bool,
    /// Extra wire propagation latency per message (µs), on top of the
    /// bandwidth term. Zero matches the paper's model.
    pub wire_latency_us: f64,
    /// Record a full activity trace (disable for huge sweeps).
    pub record_trace: bool,
    /// Switched vs shared-medium wire.
    pub topology: NetworkTopology,
}

impl SimConfig {
    /// Configuration from machine parameters, trace enabled, half-duplex,
    /// switched network.
    pub fn new(machine: MachineParams) -> Self {
        SimConfig {
            machine,
            duplex: false,
            wire_latency_us: 0.0,
            record_trace: true,
            topology: NetworkTopology::Switched,
        }
    }

    /// Builder: toggle duplex DMA.
    pub fn with_duplex(mut self, duplex: bool) -> Self {
        self.duplex = duplex;
        self
    }

    /// Builder: toggle trace recording.
    pub fn with_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Builder: set wire latency.
    pub fn with_wire_latency_us(mut self, us: f64) -> Self {
        self.wire_latency_us = us;
        self
    }

    /// Builder: set the network topology.
    pub fn with_topology(mut self, topology: NetworkTopology) -> Self {
        self.topology = topology;
        self
    }
}

/// Result of a simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Per-rank completion time of the last operation.
    pub finish: Vec<SimTime>,
    /// Overall makespan (including lane drain).
    pub makespan: SimTime,
    /// Per-rank CPU time by activity class, accumulated while the run
    /// executes — present whether or not the trace was recorded.
    pub cpu_totals: Vec<CpuTotals>,
    /// The recorded trace (empty if disabled).
    pub trace: Trace,
}

impl SimResult {
    /// Makespan in seconds.
    pub fn makespan_secs(&self) -> f64 {
        self.makespan.as_secs()
    }
}

/// Simulation errors (deadlocks, protocol violations).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// No runnable rank and undelivered ops remain.
    Deadlock {
        /// Ranks stuck blocking, with their program counters.
        blocked: Vec<(Rank, usize)>,
    },
    /// A receive's byte count disagrees with the matched message.
    ByteMismatch {
        /// Receiving rank.
        rank: Rank,
        /// Expected bytes (receiver side).
        expected: u64,
        /// Actual bytes (sender side).
        actual: u64,
    },
    /// An op referenced a rank outside the simulation.
    BadRank {
        /// The referencing rank.
        rank: Rank,
        /// The out-of-range target.
        target: Rank,
    },
    /// A program failed static validation.
    InvalidProgram {
        /// The offending rank.
        rank: Rank,
        /// Description.
        detail: String,
    },
    /// A cost of the machine, the configuration or a `Compute` op is
    /// NaN, negative or too large to be a [`SimTime`].
    BadCost {
        /// The rank that was charged it (the first, for the
        /// configuration's wire latency).
        rank: Rank,
        /// Description.
        detail: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { blocked } => write!(f, "deadlock; blocked ranks: {blocked:?}"),
            SimError::ByteMismatch {
                rank,
                expected,
                actual,
            } => write!(f, "rank {rank}: recv of {expected} B matched {actual} B"),
            SimError::BadRank { rank, target } => {
                write!(f, "rank {rank} references invalid rank {target}")
            }
            SimError::InvalidProgram { rank, detail } => {
                write!(f, "rank {rank}: invalid program: {detail}")
            }
            SimError::BadCost { rank, detail } => write!(f, "rank {rank}: bad cost: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

/// `us` microseconds charged to `rank`, as a duration.
fn cost(rank: Rank, us: f64) -> Result<SimTime, SimError> {
    SimTime::try_from_us(us).map_err(|e| SimError::BadCost {
        rank,
        detail: e.to_string(),
    })
}

/// `start + d` on `rank`'s clock: a time past [`SimTime::MAX`] is a bad
/// cost, not a panic.
fn after(rank: Rank, start: SimTime, d: SimTime) -> Result<SimTime, SimError> {
    start.checked_add(d).ok_or_else(|| SimError::BadCost {
        rank,
        detail: format!("sim time overflows u64 nanoseconds: {start} + {d}"),
    })
}

/// What a message of `bytes` bytes costs on each lane. Priced at the
/// first use of a size — a run has a handful — so a bad cost surfaces
/// at the op that first needs it.
#[derive(Clone, Copy)]
struct Price {
    bytes: u64,
    /// `A₁` = `A₃`: the MPI-buffer fill of a non-blocking post.
    post: SimTime,
    b3: SimTime,
    b4: SimTime,
    b1b2: SimTime,
    /// Both fills, on the CPU of a blocking send or receive.
    startup: SimTime,
}

/// A request's dense slot in its rank's table (see
/// `Program::densify_requests`).
type Slot = u32;

/// Why a rank is suspended.
#[derive(Clone, Copy, Debug)]
enum Blocked {
    /// In `Wait` on a request that hasn't completed.
    OnReq(Slot),
    /// In a blocking `Recv` with no matching message yet.
    OnRecv { from: Rank, tag: u64, bytes: u64 },
}

#[derive(Clone, Copy, Debug)]
enum ReqState {
    /// Completed (possibly in the future relative to the CPU).
    Done(SimTime),
    /// A posted receive not yet matched.
    PendingRecv,
}

/// Unmatched messages (or unmatched posted receives) of one rank,
/// first-in first-out per `(peer, tag)`.
///
/// One queue per *peer*, searched front to back for the tag: a peer's
/// messages arrive in the order it sent them and its receives are
/// posted in that order too, so the match is the front entry, a matched
/// entry is gone (live size is what is in flight, not what ever was),
/// and a peer that runs far ahead cannot slow the lookups of another.
/// The peers of a rank are its few neighbours, so finding the queue is
/// a scan of two or three entries — no hashing anywhere.
#[derive(Default)]
struct MatchTable<T> {
    peers: Vec<(Rank, VecDeque<(u64, T)>)>,
    #[cfg(test)]
    peak: usize,
}

impl<T> MatchTable<T> {
    fn push(&mut self, peer: Rank, tag: u64, item: T) {
        match self.peers.iter_mut().find(|(p, _)| *p == peer) {
            Some((_, queue)) => queue.push_back((tag, item)),
            None => self.peers.push((peer, VecDeque::from([(tag, item)]))),
        }
        #[cfg(test)]
        {
            self.peak = self.peak.max(self.len());
        }
    }

    /// Remove and return the oldest entry under `(peer, tag)`.
    fn take(&mut self, peer: Rank, tag: u64) -> Option<T> {
        let (_, queue) = self.peers.iter_mut().find(|(p, _)| *p == peer)?;
        let at = queue.iter().position(|(t, _)| *t == tag)?;
        queue.remove(at).map(|(_, item)| item)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.peers.iter().map(|(_, queue)| queue.len()).sum()
    }
}

#[derive(Default)]
struct RankState {
    /// Ops executed.
    pc: usize,
    /// The next op.
    at: Cursor,
    /// The last send that deferred an effect: its stored op and step,
    /// and its request (an `Isend`'s).
    sent: (u32, u32, Slot),
    /// Time the CPU becomes available / the program has advanced to.
    now: SimTime,
    blocked: Option<Blocked>,
    tx_free: SimTime,
    rx_free: SimTime,
    /// Request state by dense slot; `None` until the request is posted.
    reqs: Vec<Option<ReqState>>,
    /// Arrived-but-unmatched messages: (ready time, bytes).
    arrived: MatchTable<(SimTime, u64)>,
    /// Posted-but-unmatched receive requests: (slot, bytes).
    posted: MatchTable<(Slot, u64)>,
    totals: CpuTotals,
    done: bool,
    /// The last `Compute` cost converted, as `(us.to_bits(), duration)`
    /// at this rank's speed. The default is exact: `+0.0` µs is zero.
    compute: (u64, SimTime),
}

/// What an op leaves to be done at the instant it ends, by the `Run`
/// that executes its rank's next op.
#[derive(Clone, Copy, Debug)]
enum Deferred {
    Nothing,
    /// An `Isend`'s `A₁` is over: book `B₃`/`B₄` on the TX lane.
    BookTx,
    /// A blocking `Send` ended and the wire adds no latency: deliver.
    Deliver,
}

/// A queued event. A message is named by the op that sent it — stored
/// op `op` of rank `src`, at step `step` — and its destination, tag and
/// size are read back from the program.
///
/// The engine executes **one op, then what it deferred, per `Run`**, so
/// every lane reservation happens in exact wall-clock order — a rank
/// cannot claim its NIC "in the future" ahead of a message that arrives
/// earlier. The deferred effect needs no event of its own: it would be
/// pushed at the op's end directly before the rank's follow-up `Run`,
/// and nothing can sort between two consecutive pushes at one
/// timestamp.
///
/// A rank whose follow-up `Run` is due **strictly before** everything
/// in the queue executes it at once (`Engine::run_rank`): nothing could
/// have been ordered in between. A follow-up that *ties* with the head
/// of the queue, or trails it, goes through the queue, so same-timestamp
/// events keep their push order — a message that arrives at the instant
/// its receive is posted was pushed first and is buffered first. It is
/// never the next event (its `seq` is the newest), so it takes the
/// head's place with one sift, and the head is handled next. The `Run`
/// of a rank that an `Arrive` or `Direct` resumes is handled at once if
/// it goes first, and otherwise takes the head's place the same way.
#[derive(Debug)]
enum Ev {
    /// Apply what the rank's last op deferred, then execute its next op.
    Run { rank: u32, deferred: Deferred },
    /// A non-blocking message reaches the destination NIC (RX lane next).
    Arrive { src: u32, op: u32, step: u32 },
    /// A blocking-send message is delivered directly (no RX lane).
    Direct { src: u32, op: u32, step: u32 },
}

struct QueueItem {
    time: SimTime,
    seq: u64,
    ev: Ev,
}

const _: () = assert!(std::mem::size_of::<QueueItem>() <= 32);

impl QueueItem {
    /// `(time, seq)` as one integer: a comparison without branches.
    fn key(&self) -> u128 {
        (u128::from(self.time.as_nanos()) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for QueueItem {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for QueueItem {}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
    fn lt(&self, other: &Self) -> bool {
        self.key() < other.key()
    }
    fn le(&self, other: &Self) -> bool {
        self.key() <= other.key()
    }
}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The simulator.
pub struct Engine {
    cfg: SimConfig,
    programs: Vec<Program>,
    ranks: Vec<RankState>,
    queue: BinaryHeap<Reverse<QueueItem>>,
    seq: u64,
    /// Pushes, pops and head replacements so far.
    #[cfg(test)]
    queue_ops: u64,
    /// [`SimConfig::wire_latency_us`], checked once.
    wire_latency: SimTime,
    prices: Vec<Price>,
    trace: Trace,
    /// Shared-medium wire availability (used only with
    /// [`NetworkTopology::SharedBus`]).
    bus_free: SimTime,
    /// Per-rank relative compute speeds (heterogeneous fleet). Programs
    /// carry *baseline* microseconds; a rank with factor `s` executes a
    /// `Compute` op in `us / s`. Lives on the engine rather than
    /// [`SimConfig`] because the config is `Copy` and the fleet is not.
    speeds: NodeSpeeds,
}

impl Engine {
    /// Create an engine over one program per rank.
    pub fn new(cfg: SimConfig, mut programs: Vec<Program>) -> Result<Self, SimError> {
        let n = programs.len();
        let wire_latency = cost(0, cfg.wire_latency_us)?;
        let mut ranks = Vec::with_capacity(n);
        for (rank, p) in programs.iter_mut().enumerate() {
            let requests = p.densify_requests().map_err(|e| SimError::InvalidProgram {
                rank,
                detail: e.to_string(),
            })?;
            if u32::try_from(rank.max(p.len())).is_err() {
                let detail = "an event names its rank, step and op in 32 bits each".into();
                return Err(SimError::InvalidProgram { rank, detail });
            }
            if let Some(target) = p.stored().filter_map(Op::peer).find(|&t| t >= n) {
                return Err(SimError::BadRank { rank, target });
            }
            ranks.push(RankState {
                at: p.cursor(),
                reqs: vec![None; requests],
                ..RankState::default()
            });
        }
        let trace = if cfg.record_trace {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        Ok(Engine {
            cfg,
            programs,
            ranks,
            queue: BinaryHeap::new(),
            seq: 0,
            #[cfg(test)]
            queue_ops: 0,
            wire_latency,
            prices: Vec::new(),
            trace,
            bus_free: SimTime::ZERO,
            speeds: NodeSpeeds::uniform(0),
        })
    }

    /// Builder: install per-rank compute-speed factors. Ranks beyond the
    /// recorded fleet run at the baseline speed (factor 1.0), so an
    /// empty [`NodeSpeeds`] (the default) is the homogeneous paper
    /// cluster.
    pub fn with_node_speeds(mut self, speeds: NodeSpeeds) -> Self {
        self.speeds = speeds;
        self
    }

    /// `ev` at `time`, numbered: the next `seq` is drawn.
    fn draw(&mut self, time: SimTime, ev: Ev) -> QueueItem {
        let seq = self.seq;
        self.seq += 1;
        QueueItem { time, seq, ev }
    }

    /// A `Run` of `rank` with nothing deferred, drawn at `time`.
    fn resume(&mut self, rank: Rank, time: SimTime) -> QueueItem {
        let (rank, deferred) = (rank as u32, Deferred::Nothing);
        self.draw(time, Ev::Run { rank, deferred })
    }

    fn push(&mut self, item: QueueItem) {
        self.count_queue_op();
        self.queue.push(Reverse(item));
    }

    fn pop(&mut self) -> Option<QueueItem> {
        let Reverse(item) = self.queue.pop()?;
        self.count_queue_op();
        Some(item)
    }

    /// Put `item` in the head's place and return the head: one
    /// sift-down instead of a push and a pop (see [`Ev`]). `item` comes
    /// back if it goes before everything queued.
    fn swap_head(&mut self, item: QueueItem) -> Result<QueueItem, QueueItem> {
        let Some(mut slot) = self.queue.peek_mut().filter(|h| h.0 < item) else {
            return Err(item);
        };
        let head = std::mem::replace(&mut slot.0, item);
        drop(slot); // one sift-down
        self.count_queue_op();
        Ok(head)
    }

    /// The event after an `Arrive` or `Direct`: the `Run` of a rank it
    /// resumed, unless a queued event goes first and it takes its place.
    fn next_after(&mut self, resumed: Option<QueueItem>) -> Option<QueueItem> {
        match resumed {
            Some(run) => Some(self.swap_head(run).unwrap_or_else(|run| run)),
            None => self.pop(),
        }
    }

    fn count_queue_op(&mut self) {
        #[cfg(test)]
        {
            self.queue_ops += 1;
        }
    }

    /// The price of a `bytes`-byte message, worked out at its first use.
    fn price(&mut self, rank: Rank, bytes: u64) -> Result<Price, SimError> {
        if let Some(p) = self.prices.iter().find(|p| p.bytes == bytes) {
            return Ok(*p);
        }
        let (m, b) = (&self.cfg.machine, bytes as f64);
        let price = Price {
            bytes,
            post: cost(rank, m.fill_mpi_buffer.eval(b))?,
            b3: cost(rank, m.fill_kernel_buffer.eval(b))?,
            b4: cost(rank, m.transmit_us(b))?,
            b1b2: cost(rank, m.transmit_us(b) + m.fill_kernel_buffer.eval(b))?,
            startup: cost(rank, m.startup_us(b))?,
        };
        self.prices.push(price);
        Ok(price)
    }

    /// Record a CPU-lane interval: into the rank's running totals
    /// (always) and into the trace (when enabled).
    fn record_cpu(&mut self, rank: Rank, activity: Activity, start: SimTime, end: SimTime) {
        self.ranks[rank].totals.add(activity, (end - start).as_us());
        self.trace.record(rank, activity, start, end);
    }

    /// Run to completion.
    pub fn run(mut self) -> Result<SimResult, SimError> {
        self.run_events()?;
        let finish: Vec<SimTime> = self.ranks.iter().map(|s| s.now).collect();
        let mut makespan = SimTime::ZERO;
        for s in &self.ranks {
            makespan = makespan.max(s.now).max(s.tx_free).max(s.rx_free);
        }
        Ok(SimResult {
            finish,
            makespan,
            cpu_totals: self.ranks.iter().map(|s| s.totals).collect(),
            trace: self.trace,
        })
    }

    /// Drain the event queue; an error if a rank is left unfinished.
    fn run_events(&mut self) -> Result<(), SimError> {
        for rank in 0..self.ranks.len() {
            let run = self.resume(rank, SimTime::ZERO);
            self.push(run);
        }
        let mut next = self.pop();
        while let Some(item) = next {
            next = match item.ev {
                Ev::Run { rank, deferred } => self.run_rank(rank, deferred, item.time)?,
                Ev::Arrive { src, op, step } => {
                    // RX lane processing: wire receive (B₁) + kernel copy (B₂).
                    let (dst, tag, bytes) = self.message(src as Rank, op, step);
                    let b1b2 = self.price(dst, bytes)?.b1b2;
                    let lane_free = if self.cfg.duplex {
                        self.ranks[dst].rx_free
                    } else {
                        // Half-duplex: share with TX.
                        self.ranks[dst].rx_free.max(self.ranks[dst].tx_free)
                    };
                    let start = lane_free.max(item.time);
                    let ready = after(dst, start, b1b2)?;
                    self.ranks[dst].rx_free = ready;
                    if !self.cfg.duplex {
                        self.ranks[dst].tx_free = ready;
                    }
                    self.trace.record(dst, Activity::RxBusy, start, ready);
                    let resumed = self.deliver(dst, src as Rank, tag, bytes, ready)?;
                    self.next_after(resumed)
                }
                Ev::Direct { src, op, step } => {
                    let (dst, tag, bytes) = self.message(src as Rank, op, step);
                    let resumed = self.deliver(dst, src as Rank, tag, bytes, item.time)?;
                    self.next_after(resumed)
                }
            };
        }
        // All events drained: every rank must have finished.
        let blocked: Vec<(Rank, usize)> = self
            .ranks
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.done)
            .map(|(r, s)| (r, s.pc))
            .collect();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock { blocked });
        }
        Ok(())
    }

    /// Run `rank` from `now` while each follow-up is due strictly before
    /// the queue's head, then return the event to handle next: the head,
    /// whose place a tying or trailing follow-up takes (see [`Ev`]).
    fn run_rank(
        &mut self,
        rank: u32,
        mut deferred: Deferred,
        mut now: SimTime,
    ) -> Result<Option<QueueItem>, SimError> {
        loop {
            self.apply(rank as Rank, deferred, now)?;
            let Some(next) = self.advance(rank as Rank)? else {
                return Ok(self.pop());
            };
            (now, deferred) = next;
            // Its `seq` is drawn only if it goes through the queue.
            let (ev, seq) = (Ev::Run { rank, deferred }, self.seq);
            if let Ok(head) = self.swap_head(QueueItem { time: now, seq, ev }) {
                self.seq += 1;
                return Ok(Some(head));
            }
        }
    }

    /// Destination, tag and size of the message sent by stored op `op`
    /// of `src` at step `step`.
    fn message(&self, src: Rank, op: u32, step: u32) -> (Rank, u64, u64) {
        match self.programs[src].resolve(op, step, 0) {
            Op::Send { to, tag, bytes } | Op::Isend { to, tag, bytes, .. } => (to, tag, bytes),
            op => unreachable!("only sends are in flight, not {op:?}"),
        }
    }

    /// Move `rank` past the op it is at.
    fn step_past(&mut self, rank: Rank) {
        let s = &mut self.ranks[rank];
        s.pc += 1;
        self.programs[rank].advance(&mut s.at);
    }

    /// Do at `now` what the op `rank` just executed left for its end.
    fn apply(&mut self, rank: Rank, deferred: Deferred, now: SimTime) -> Result<(), SimError> {
        match deferred {
            Deferred::Nothing => Ok(()),
            Deferred::BookTx => self.book_tx(rank, now),
            Deferred::Deliver => {
                let (op, step, _) = self.ranks[rank].sent;
                let (dst, tag, bytes) = self.message(rank, op, step);
                if let Some(run) = self.deliver(dst, rank, tag, bytes, now)? {
                    self.push(run);
                }
                Ok(())
            }
        }
    }

    /// The last `Isend` of `rank` finished `A₁` at `now`.
    fn book_tx(&mut self, rank: Rank, now: SimTime) -> Result<(), SimError> {
        let (op, step, req) = self.ranks[rank].sent;
        // Book B₃ (kernel fill) then B₄ (wire) on the TX lane (or the
        // shared NIC) at the exact moment the CPU finished filling the
        // MPI buffer. On a shared-bus network the wire segment
        // additionally serializes against every other transmission in
        // the cluster.
        let bytes = self.message(rank, op, step).2;
        let Price { b3, b4, .. } = self.price(rank, bytes)?;
        let lane_free = if self.cfg.duplex {
            self.ranks[rank].tx_free
        } else {
            self.ranks[rank].tx_free.max(self.ranks[rank].rx_free)
        };
        let start = lane_free.max(now);
        let fill_done = after(rank, start, b3)?;
        let wire_start = match self.cfg.topology {
            NetworkTopology::Switched => fill_done,
            NetworkTopology::SharedBus => fill_done.max(self.bus_free),
        };
        let tx_done = after(rank, wire_start, b4)?;
        if self.cfg.topology == NetworkTopology::SharedBus {
            self.bus_free = tx_done;
        }
        self.ranks[rank].tx_free = tx_done;
        if !self.cfg.duplex {
            self.ranks[rank].rx_free = tx_done;
        }
        self.trace.record(rank, Activity::TxBusy, start, tx_done);
        // Local completion: the send buffer is reusable.
        self.ranks[rank].reqs[req as usize] = Some(ReqState::Done(tx_done));
        let (src, arrival) = (rank as u32, after(rank, tx_done, self.wire_latency)?);
        let arrive = self.draw(arrival, Ev::Arrive { src, op, step });
        self.push(arrive);
        Ok(())
    }

    /// A message is fully delivered at `ready`: match it or queue it.
    /// Returns the `Run` of a rank it resumes, drawn but not queued.
    fn deliver(
        &mut self,
        dst: Rank,
        src: Rank,
        tag: u64,
        bytes: u64,
        ready: SimTime,
    ) -> Result<Option<QueueItem>, SimError> {
        // A blocking receiver waiting on exactly this key resumes first.
        if let Some(Blocked::OnRecv {
            from,
            tag: wtag,
            bytes: wbytes,
        }) = self.ranks[dst].blocked
        {
            if from == src && wtag == tag {
                if wbytes != bytes {
                    return Err(SimError::ByteMismatch {
                        rank: dst,
                        expected: wbytes,
                        actual: bytes,
                    });
                }
                // Resume: CPU pays the blocking-receive copy path after
                // the later of (arrival, block start).
                let resume = self.ranks[dst].now.max(ready);
                self.record_cpu(dst, Activity::Idle, self.ranks[dst].now, resume);
                let copied = after(dst, resume, self.price(dst, bytes)?.startup)?;
                self.record_cpu(dst, Activity::BlockingRecv, resume, copied);
                self.ranks[dst].now = copied;
                self.ranks[dst].blocked = None;
                self.step_past(dst);
                return Ok(Some(self.resume(dst, copied)));
            }
        }
        // A posted Irecv?
        if let Some((req, wbytes)) = self.ranks[dst].posted.take(src, tag) {
            if wbytes != bytes {
                return Err(SimError::ByteMismatch {
                    rank: dst,
                    expected: wbytes,
                    actual: bytes,
                });
            }
            self.ranks[dst].reqs[req as usize] = Some(ReqState::Done(ready));
            // If the rank is parked in Wait on this request, resume it.
            if let Some(Blocked::OnReq(wr)) = self.ranks[dst].blocked {
                if wr == req {
                    let resume = self.ranks[dst].now.max(ready);
                    self.record_cpu(dst, Activity::Idle, self.ranks[dst].now, resume);
                    self.ranks[dst].now = resume;
                    self.ranks[dst].blocked = None;
                    self.step_past(dst); // past the Wait
                    return Ok(Some(self.resume(dst, resume)));
                }
            }
            return Ok(None);
        }
        // Nobody asked yet: buffer eagerly.
        self.ranks[dst].arrived.push(src, tag, (ready, bytes));
        Ok(None)
    }

    /// Execute the next op of a rank's program (one op per `Run`, so
    /// resource bookings stay in wall-clock order). Returns when the
    /// rank's follow-up `Run` is due and what the op deferred to that
    /// instant — `None` if it blocked or finished.
    fn advance(&mut self, rank: Rank) -> Result<Option<(SimTime, Deferred)>, SimError> {
        if self.ranks[rank].done || self.ranks[rank].blocked.is_some() {
            return Ok(None);
        }
        let pc = self.ranks[rank].pc;
        let Some((op, i, k)) = self.programs[rank].at(&self.ranks[rank].at) else {
            self.ranks[rank].done = true;
            return Ok(None);
        };
        let mut deferred = Deferred::Nothing;
        match op {
            Op::Compute { us, .. } => {
                let (start, (bits, memo)) = (self.ranks[rank].now, self.ranks[rank].compute);
                let d = if bits == us.to_bits() {
                    memo
                } else {
                    let d = cost(rank, us / self.speeds.factor(rank))?;
                    self.ranks[rank].compute = (us.to_bits(), d);
                    d
                };
                let end = after(rank, start, d)?;
                self.record_cpu(rank, Activity::Compute, start, end);
                self.ranks[rank].now = end;
            }
            Op::Isend { bytes, req, .. } => {
                // A₁ on the CPU; the NIC is booked when it ends, so the
                // booking can't jump the wall clock.
                let start = self.ranks[rank].now;
                let cpu_done = after(rank, start, self.price(rank, bytes)?.post)?;
                self.record_cpu(rank, Activity::PostSend, start, cpu_done);
                self.ranks[rank].now = cpu_done;
                self.ranks[rank].sent = (i, k, req.0);
                deferred = Deferred::BookTx;
            }
            Op::Irecv {
                from,
                tag,
                bytes,
                req,
            } => {
                // A₃ on the CPU.
                let start = self.ranks[rank].now;
                let cpu_done = after(rank, start, self.price(rank, bytes)?.post)?;
                self.record_cpu(rank, Activity::PostRecv, start, cpu_done);
                self.ranks[rank].now = cpu_done;
                // Early arrival?
                let state = match self.ranks[rank].arrived.take(from, tag) {
                    Some((_, abytes)) if abytes != bytes => {
                        return Err(SimError::ByteMismatch {
                            rank,
                            expected: bytes,
                            actual: abytes,
                        });
                    }
                    Some((ready, _)) => ReqState::Done(ready),
                    None => {
                        self.ranks[rank].posted.push(from, tag, (req.0, bytes));
                        ReqState::PendingRecv
                    }
                };
                self.ranks[rank].reqs[req.0 as usize] = Some(state);
            }
            Op::Wait { req } => match self.ranks[rank].reqs[req.0 as usize] {
                Some(ReqState::Done(at)) => {
                    let now = self.ranks[rank].now;
                    if at > now {
                        self.record_cpu(rank, Activity::Idle, now, at);
                        self.ranks[rank].now = at;
                    }
                }
                Some(ReqState::PendingRecv) => {
                    // Resumed by deliver().
                    self.ranks[rank].blocked = Some(Blocked::OnReq(req.0));
                    return Ok(None);
                }
                None => {
                    return Err(SimError::InvalidProgram {
                        rank,
                        detail: format!("wait on unposted request at op #{pc}"),
                    });
                }
            },
            Op::Send { bytes, .. } => {
                // Blocking send: the CPU pays both fills and the wire
                // time (Fig. 7), then the message travels. On a shared
                // bus the wire portion also waits for the medium.
                let price = self.price(rank, bytes)?;
                let start = self.ranks[rank].now;
                let fills_done = after(rank, start, price.startup)?;
                let wire_start = match self.cfg.topology {
                    NetworkTopology::Switched => fills_done,
                    NetworkTopology::SharedBus => fills_done.max(self.bus_free),
                };
                let end = after(rank, wire_start, price.b4)?;
                if self.cfg.topology == NetworkTopology::SharedBus {
                    self.bus_free = end;
                }
                self.record_cpu(rank, Activity::BlockingSend, start, end);
                self.ranks[rank].now = end;
                if self.wire_latency > SimTime::ZERO {
                    let (src, op, step) = (rank as u32, i, k);
                    let arrival = after(rank, end, self.wire_latency)?;
                    let direct = self.draw(arrival, Ev::Direct { src, op, step });
                    self.push(direct);
                } else {
                    self.ranks[rank].sent = (i, k, 0);
                    deferred = Deferred::Deliver;
                }
            }
            Op::Recv { from, tag, bytes } => {
                let Some((ready, abytes)) = self.ranks[rank].arrived.take(from, tag) else {
                    // Resumed by deliver().
                    self.ranks[rank].blocked = Some(Blocked::OnRecv { from, tag, bytes });
                    return Ok(None);
                };
                if abytes != bytes {
                    return Err(SimError::ByteMismatch {
                        rank,
                        expected: bytes,
                        actual: abytes,
                    });
                }
                let now = self.ranks[rank].now;
                let resume = now.max(ready);
                self.record_cpu(rank, Activity::Idle, now, resume);
                let copied = after(rank, resume, self.price(rank, bytes)?.startup)?;
                self.record_cpu(rank, Activity::BlockingRecv, resume, copied);
                self.ranks[rank].now = copied;
            }
        }
        self.step_past(rank);
        Ok(Some((self.ranks[rank].now, deferred)))
    }
}

/// Convenience: build and run in one call.
pub fn simulate(cfg: SimConfig, programs: Vec<Program>) -> Result<SimResult, SimError> {
    Engine::new(cfg, programs)?.run()
}

/// Convenience: build and run with a heterogeneous fleet.
pub fn simulate_heterogeneous(
    cfg: SimConfig,
    programs: Vec<Program>,
    speeds: NodeSpeeds,
) -> Result<SimResult, SimError> {
    Engine::new(cfg, programs)?.with_node_speeds(speeds).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A machine with clean constants for hand-checkable arithmetic:
    /// fills are 10 µs flat each (so blocking startup = 20 µs), wire is
    /// 0.01 µs/B, compute 1 µs per unit.
    fn toy_machine() -> MachineParams {
        use tiling_core::machine::AffineCost;
        MachineParams {
            t_c_us: 1.0,
            t_s_us: 20.0,
            t_t_us_per_byte: 0.01,
            bytes_per_elem: 4,
            fill_mpi_buffer: AffineCost::constant(10.0),
            fill_kernel_buffer: AffineCost::constant(10.0),
            transfer_curve: None,
        }
    }

    fn cfg() -> SimConfig {
        SimConfig::new(toy_machine())
    }

    #[test]
    fn single_rank_compute_only() {
        let mut p = Program::new();
        p.compute(100.0, 0);
        p.compute(50.0, 1);
        let r = simulate(cfg(), vec![p]).unwrap();
        assert_eq!(r.makespan, SimTime::from_us(150.0));
        assert_eq!(r.finish[0], SimTime::from_us(150.0));
    }

    #[test]
    fn blocking_pair_cost_matches_eq3() {
        // Sender: Send(100 B). Receiver: Recv.
        // Sender CPU: startup 20 + wire 1.0 = 21 µs.
        // Receiver: message arrives at 21, then pays startup 20 ⇒ 41 µs.
        let mut s = Program::new();
        s.send(1, 0, 100);
        let mut r = Program::new();
        r.recv(0, 0, 100);
        let res = simulate(cfg(), vec![s, r]).unwrap();
        assert_eq!(res.finish[0], SimTime::from_us(21.0));
        assert_eq!(res.finish[1], SimTime::from_us(41.0));
    }

    #[test]
    fn blocking_recv_posted_late_still_works() {
        // Receiver computes 100 µs first; message waits buffered.
        let mut s = Program::new();
        s.send(1, 0, 100);
        let mut r = Program::new();
        r.compute(100.0, 0);
        r.recv(0, 0, 100);
        let res = simulate(cfg(), vec![s, r]).unwrap();
        // Arrived at 21 < 100; recv pays 20 after its compute.
        assert_eq!(res.finish[1], SimTime::from_us(120.0));
    }

    #[test]
    fn nonblocking_overlap_hides_communication() {
        // Sender: Isend(1000 B) then compute 100 µs then wait.
        // A₁ = 10; TX = B₃(10) + B₄(10) = 20 from t=10 to 30.
        // CPU: 10 + 100 = 110; wait(send) done at 30 ⇒ finish 110.
        let mut s = Program::new();
        let q = s.isend(1, 0, 1000);
        s.compute(100.0, 0);
        s.wait(q);
        // Receiver: Irecv + compute + wait.
        // A₃ = 10; RX starts at arrival 30: B₁(10)+B₂(10) ⇒ ready 50.
        // CPU: 10 + 100 = 110 ≥ 50 ⇒ finish 110: full overlap.
        let mut r = Program::new();
        let q2 = r.irecv(0, 0, 1000);
        r.compute(100.0, 0);
        r.wait(q2);
        let res = simulate(cfg(), vec![s, r]).unwrap();
        assert_eq!(res.finish[0], SimTime::from_us(110.0));
        assert_eq!(res.finish[1], SimTime::from_us(110.0));
    }

    #[test]
    fn nonblocking_wait_blocks_until_delivery() {
        // Same as above but receiver computes only 5 µs: must idle
        // until RX completes at 50.
        let mut s = Program::new();
        let q = s.isend(1, 0, 1000);
        s.compute(100.0, 0);
        s.wait(q);
        let mut r = Program::new();
        let q2 = r.irecv(0, 0, 1000);
        r.compute(5.0, 0);
        r.wait(q2);
        let res = simulate(cfg(), vec![s, r]).unwrap();
        assert_eq!(res.finish[1], SimTime::from_us(50.0));
    }

    #[test]
    fn wait_on_send_request_idles_until_tx_done() {
        let mut s = Program::new();
        let q = s.isend(1, 0, 1000);
        s.wait(q); // CPU at 10, TX done at 30 ⇒ idle 20.
        let mut r = Program::new();
        let q2 = r.irecv(0, 0, 1000);
        r.wait(q2);
        let res = simulate(cfg(), vec![s, r]).unwrap();
        assert_eq!(res.finish[0], SimTime::from_us(30.0));
    }

    #[test]
    fn half_duplex_serializes_tx_and_rx() {
        // Two ranks exchange 1000 B simultaneously with Isend/Irecv.
        // Half-duplex: each NIC does TX (20) then RX (20) serially.
        let mk = |other: Rank| {
            let mut p = Program::new();
            let sq = p.isend(other, 0, 1000);
            let rq = p.irecv(other, 0, 1000);
            p.wait(rq);
            p.wait(sq);
            p
        };
        let res_half = simulate(cfg(), vec![mk(1), mk(0)]).unwrap();
        let res_full = simulate(cfg().with_duplex(true), vec![mk(1), mk(0)]).unwrap();
        assert!(res_full.makespan <= res_half.makespan);
        // Full duplex: CPU posts 10+10=20; TX 10..30; arrival 30;
        // RX 30..50; wait recv done 50.
        assert_eq!(res_full.makespan, SimTime::from_us(50.0));
        // Half duplex: TX 10..30 on the shared lane; peer's message
        // arrives at 30 but lane busy until 30: RX 30..50 too — same
        // here because TX finished exactly at arrival.
        assert_eq!(res_half.makespan, SimTime::from_us(50.0));
    }

    #[test]
    fn half_duplex_rx_delays_pending_tx() {
        // Rank 0 receives a message and then wants to send: the shared
        // NIC forces RX then TX.
        let mut a = Program::new();
        let rq = a.irecv(1, 0, 1000);
        let sq = a.isend(1, 1, 1000);
        a.wait(rq);
        a.wait(sq);
        let mut b = Program::new();
        let sq2 = b.isend(0, 0, 1000);
        let rq2 = b.irecv(0, 1, 1000);
        b.wait(sq2);
        b.wait(rq2);
        let half = simulate(cfg(), vec![a.clone(), b.clone()]).unwrap();
        let full = simulate(cfg().with_duplex(true), vec![a, b]).unwrap();
        assert!(half.makespan >= full.makespan);
    }

    #[test]
    fn fifo_matching_same_tag() {
        // Two messages with the same (src, tag): matched in send order.
        let mut s = Program::new();
        s.send(1, 7, 100);
        s.send(1, 7, 100);
        let mut r = Program::new();
        r.recv(0, 7, 100);
        r.recv(0, 7, 100);
        let res = simulate(cfg(), vec![s, r]).unwrap();
        // Sender: 21 + 21 = 42. Messages arrive 21, 42.
        // Receiver: (wait 21, copy 20) = 41, then msg2 already at 42:
        // wait to 42, copy 20 ⇒ 62.
        assert_eq!(res.finish[1], SimTime::from_us(62.0));
    }

    #[test]
    fn byte_mismatch_detected() {
        let mut s = Program::new();
        s.send(1, 0, 100);
        let mut r = Program::new();
        r.recv(0, 0, 64);
        let err = simulate(cfg(), vec![s, r]).unwrap_err();
        assert!(matches!(err, SimError::ByteMismatch { .. }));
    }

    #[test]
    fn deadlock_detected() {
        // Both ranks receive first: classic deadlock (with blocking ops
        // and no messages in flight).
        let mut a = Program::new();
        a.recv(1, 0, 8);
        a.send(1, 0, 8);
        let mut b = Program::new();
        b.recv(0, 0, 8);
        b.send(0, 0, 8);
        let err = simulate(cfg(), vec![a, b]).unwrap_err();
        match err {
            SimError::Deadlock { blocked } => assert_eq!(blocked.len(), 2),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn bad_rank_detected() {
        let mut p = Program::new();
        p.send(5, 0, 8);
        let err = simulate(cfg(), vec![p]).unwrap_err();
        assert!(matches!(err, SimError::BadRank { target: 5, .. }));
    }

    #[test]
    fn invalid_program_detected() {
        let mut p = Program::new();
        p.wait(crate::program::ReqId(3));
        let err = simulate(cfg(), vec![p]).unwrap_err();
        assert!(matches!(err, SimError::InvalidProgram { .. }));
    }

    #[test]
    fn sparse_request_handles_cost_one_slot_each() {
        // Hand-written handles at both ends of the u32 range: the
        // request table is sized by how many there are, not by the
        // largest, and the timing is that of handles 0 and 1.
        use crate::program::ReqId;
        let build = |send: ReqId, recv: ReqId| {
            let mut a = Program::new();
            a.push(Op::Isend {
                to: 1,
                tag: 0,
                bytes: 1000,
                req: send,
            });
            a.push(Op::Irecv {
                from: 1,
                tag: 1,
                bytes: 1000,
                req: recv,
            });
            a.wait(recv);
            a.wait(send);
            let mut b = Program::new();
            let r = b.irecv(0, 0, 1000);
            let s = b.isend(0, 1, 1000);
            b.wait(r);
            b.wait(s);
            vec![a, b]
        };
        let engine = Engine::new(cfg(), build(ReqId(u32::MAX), ReqId(0))).unwrap();
        assert_eq!(engine.ranks[0].reqs.len(), 2);
        let sparse = engine.run().unwrap();
        let dense = simulate(cfg(), build(ReqId(0), ReqId(1))).unwrap();
        assert_eq!(sparse.finish, dense.finish);
        assert_eq!(sparse.trace.intervals(), dense.trace.intervals());
    }

    #[test]
    fn request_misuse_is_still_an_invalid_program() {
        use crate::program::ReqId;
        let invalid = |p: Program| {
            let err = simulate(cfg(), vec![p, Program::new()]).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidProgram { rank: 0, .. }),
                "{err:?}"
            );
        };
        // Wait on a handle nothing created, next to one that exists.
        let mut unknown = Program::new();
        let q = unknown.isend(1, 0, 8);
        unknown.wait(q);
        unknown.wait(ReqId(u32::MAX));
        invalid(unknown);
        // Wait before the handle's creation.
        let mut early = Program::new();
        early.wait(ReqId(0));
        let _ = early.isend(1, 0, 8);
        invalid(early);
        // One handle, two creations.
        let mut duplicate = Program::new();
        for tag in 0..2 {
            duplicate.push(Op::Isend {
                to: 1,
                tag,
                bytes: 8,
                req: ReqId(7),
            });
        }
        invalid(duplicate);
        // One handle, two waits.
        let mut twice = Program::new();
        let q = twice.isend(1, 0, 8);
        twice.wait(q);
        twice.wait(q);
        invalid(twice);
    }

    #[test]
    fn match_tables_hold_what_is_in_flight_not_what_ever_was() {
        // Per-step tags: every message has a `(src, tag)` key of its
        // own. 4096 steps on 2×2 ranks must leave the tables empty and
        // never have held more than the schedule keeps in flight —
        // receives posted one step ahead, from at most two neighbours.
        use crate::builders::ClusterProblem;
        use tiling_core::prelude::*;
        let problem = ClusterProblem::new(
            Tiling::rectangular(&[4, 4, 4]),
            DependenceSet::paper_3d(),
            IterationSpace::from_extents(&[8, 8, 4 * 4096]),
            2,
        )
        .unwrap();
        assert_eq!((problem.ranks(), problem.steps()), (4, 4096));
        let machine = MachineParams::paper_cluster();
        let cfg = SimConfig::new(machine).with_trace(false);
        let mut engine = Engine::new(cfg, problem.overlapping_programs(&machine)).unwrap();
        engine.run_events().unwrap();
        for (rank, s) in engine.ranks.iter().enumerate() {
            assert_eq!(s.arrived.len() + s.posted.len(), 0, "rank {rank}");
            assert!(s.posted.peak <= 4, "rank {rank}: {}", s.posted.peak);
            assert!(s.arrived.peak <= 4, "rank {rank}: {}", s.arrived.peak);
        }
        // The last rank does receive from two neighbours every step.
        assert!(engine.ranks[3].posted.peak >= 2);
        // An Isend's lane booking rides its rank's next Run: a send
        // costs the queue its `Arrive` and nothing else, which here
        // comes to one push per op plus the four initial Runs.
        let ops: u64 = engine.programs.iter().map(|p| p.len() as u64).sum();
        assert_eq!((engine.seq, ops), (81_924, 81_920));
        // A follow-up that cannot go next replaces the queue's head, so
        // pushes, pops and replacements come to 1.2 per op. Pushing it
        // and popping the head took 163,848: two per push, 2.0 per op.
        assert_eq!(engine.queue_ops, 98_312);
    }

    #[test]
    fn a_blocking_pipeline_pushes_fewer_events_than_it_has_ops() {
        // A Send's delivery rides the next Run too when the wire adds
        // no latency.
        use crate::builders::ClusterProblem;
        use tiling_core::prelude::*;
        let space = IterationSpace::from_extents(&[4, 16, 8 * 64]);
        let tiling = Tiling::rectangular(&[4, 4, 8]);
        let problem = ClusterProblem::new(tiling, DependenceSet::paper_3d(), space, 2).unwrap();
        let machine = MachineParams::paper_cluster();
        let cfg = SimConfig::new(machine).with_trace(false);
        let mut engine = Engine::new(cfg, problem.blocking_programs(&machine)).unwrap();
        engine.run_events().unwrap();
        let ops: u64 = engine.programs.iter().map(|p| p.len() as u64).sum();
        assert!(engine.seq < ops, "{} pushes, {ops} ops", engine.seq);
        // A receiver a delivery resumes takes the head's place too: 744
        // queue operations, where a push and a pop per event were 1,222.
        assert_eq!((engine.seq, engine.queue_ops), (611, 744));
    }

    #[test]
    fn a_bad_cost_is_an_error_not_a_panic() {
        let fill = tiling_core::machine::AffineCost::constant;
        // Rank 0, at half speed, computes, sends both ways; rank 1 receives.
        let bad = |cfg: SimConfig, compute_us: f64| {
            let mut a = Program::new();
            a.compute(compute_us, 0);
            let _ = a.isend(1, 0, 100);
            a.send(1, 1, 100);
            let mut b = Program::new();
            b.recv(0, 0, 100);
            b.recv(0, 1, 100);
            let speeds = NodeSpeeds::from_factors(vec![0.5, 1.0]).unwrap();
            let err = simulate_heterogeneous(cfg, vec![a, b], speeds).unwrap_err();
            assert!(matches!(err, SimError::BadCost { rank: 0, .. }), "{err:?}");
        };
        for v in [f64::NAN, -1.0] {
            let machine = |set: &dyn Fn(&mut MachineParams)| {
                let mut m = toy_machine();
                set(&mut m);
                SimConfig::new(m)
            };
            bad(cfg().with_wire_latency_us(v), 1.0);
            bad(machine(&|m| m.t_t_us_per_byte = v), 1.0);
            bad(machine(&|m| m.fill_mpi_buffer = fill(v)), 1.0);
            bad(machine(&|m| m.fill_kernel_buffer = fill(v)), 1.0);
        }
        bad(cfg(), 1e300);
        // Each compute fits in a SimTime and validates; their sum does not.
        let mut p = Program::new();
        p.compute(1.0e16, 0);
        p.compute(1.0e16, 1);
        assert_eq!(p.validate(), Ok(()));
        let err = simulate(cfg(), vec![p]).unwrap_err();
        assert!(matches!(err, SimError::BadCost { rank: 0, .. }), "{err:?}");
    }

    #[test]
    fn match_table_is_fifo_per_peer_and_tag() {
        let mut t = MatchTable::default();
        t.push(1, 7, 'a');
        t.push(2, 7, 'b');
        t.push(1, 8, 'c');
        t.push(1, 7, 'd');
        assert_eq!(t.take(1, 9), None);
        assert_eq!(t.take(3, 7), None);
        assert_eq!(t.take(1, 8), Some('c'));
        assert_eq!(t.take(1, 7), Some('a'));
        assert_eq!(t.take(1, 7), Some('d'));
        assert_eq!(t.take(1, 7), None);
        assert_eq!(t.take(2, 7), Some('b'));
        assert_eq!((t.len(), t.peak), (0, 4));
    }

    #[test]
    fn determinism() {
        // A small pipeline run twice gives identical traces.
        let build = || {
            let mut a = Program::new();
            let s1 = a.isend(1, 0, 500);
            a.compute(30.0, 0);
            a.wait(s1);
            let mut b = Program::new();
            let r1 = b.irecv(0, 0, 500);
            b.compute(10.0, 0);
            b.wait(r1);
            vec![a, b]
        };
        let x = simulate(cfg(), build()).unwrap();
        let y = simulate(cfg(), build()).unwrap();
        assert_eq!(x.makespan, y.makespan);
        assert_eq!(x.trace.intervals(), y.trace.intervals());
    }

    #[test]
    fn wire_latency_delays_delivery() {
        let mut s = Program::new();
        s.send(1, 0, 100);
        let mut r = Program::new();
        r.recv(0, 0, 100);
        let base = simulate(cfg(), vec![s.clone(), r.clone()]).unwrap();
        let lat = simulate(cfg().with_wire_latency_us(100.0), vec![s, r]).unwrap();
        assert_eq!(lat.finish[1], base.finish[1] + SimTime::from_us(100.0));
    }

    #[test]
    fn trace_disabled_still_times_correctly() {
        let mut p = Program::new();
        p.compute(10.0, 0);
        let res = simulate(cfg().with_trace(false), vec![p]).unwrap();
        assert!(res.trace.intervals().is_empty());
        assert_eq!(res.makespan, SimTime::from_us(10.0));
    }

    #[test]
    fn shared_bus_serializes_independent_transmissions() {
        // Two disjoint pairs send 2000 B concurrently. Switched: wires
        // run in parallel. Shared bus: the second wire waits.
        let build = || {
            let mk_sender = |dst: usize| {
                let mut p = Program::new();
                let q = p.isend(dst, 0, 2000);
                p.wait(q);
                p
            };
            let mk_recv = |src: usize| {
                let mut p = Program::new();
                let q = p.irecv(src, 0, 2000);
                p.wait(q);
                p
            };
            vec![mk_sender(2), mk_sender(3), mk_recv(0), mk_recv(1)]
        };
        let sw = simulate(
            cfg()
                .with_duplex(true)
                .with_topology(NetworkTopology::Switched),
            build(),
        )
        .unwrap();
        let bus = simulate(
            cfg()
                .with_duplex(true)
                .with_topology(NetworkTopology::SharedBus),
            build(),
        )
        .unwrap();
        // Wire time = 20 µs per message; the bus adds exactly one wire
        // slot of delay to the later message's delivery chain.
        assert!(bus.makespan > sw.makespan);
        assert_eq!(
            bus.makespan.as_us() - sw.makespan.as_us(),
            20.0,
            "bus {} vs switched {}",
            bus.makespan,
            sw.makespan
        );
    }

    #[test]
    fn shared_bus_single_message_unaffected() {
        let mut s = Program::new();
        let q = s.isend(1, 0, 1000);
        s.wait(q);
        let mut r = Program::new();
        let q2 = r.irecv(0, 0, 1000);
        r.wait(q2);
        let sw = simulate(cfg(), vec![s.clone(), r.clone()]).unwrap();
        let bus = simulate(cfg().with_topology(NetworkTopology::SharedBus), vec![s, r]).unwrap();
        assert_eq!(sw.makespan, bus.makespan);
    }

    #[test]
    fn shared_bus_blocking_sends_contend() {
        // Two blocking senders to two receivers: their wire times
        // serialize on the bus.
        let mk_s = |dst: usize| {
            let mut p = Program::new();
            p.send(dst, 0, 2000); // startup 20 + wire 20
            p
        };
        let mk_r = |src: usize| {
            let mut p = Program::new();
            p.recv(src, 0, 2000);
            p
        };
        let bus = simulate(
            cfg().with_topology(NetworkTopology::SharedBus),
            vec![mk_s(2), mk_s(3), mk_r(0), mk_r(1)],
        )
        .unwrap();
        // First sender: 0..40; second: fills 0..20, wire 40..60.
        let s_finish = bus.finish[0].max(bus.finish[1]);
        assert_eq!(s_finish, SimTime::from_us(60.0));
    }

    #[test]
    fn node_speed_scales_compute_only() {
        // Rank at 2× the baseline computes in half the time; posts,
        // fills and wire time are unchanged.
        let mut p = Program::new();
        p.compute(100.0, 0);
        p.compute(50.0, 1);
        let speeds = NodeSpeeds::from_factors(vec![2.0]).unwrap();
        let r = simulate_heterogeneous(cfg(), vec![p], speeds).unwrap();
        assert_eq!(r.makespan, SimTime::from_us(75.0));
    }

    #[test]
    fn uniform_speeds_match_baseline() {
        let build = || {
            let mut s = Program::new();
            let q = s.isend(1, 0, 1000);
            s.compute(100.0, 0);
            s.wait(q);
            let mut r = Program::new();
            let q2 = r.irecv(0, 0, 1000);
            r.compute(100.0, 0);
            r.wait(q2);
            vec![s, r]
        };
        let base = simulate(cfg(), build()).unwrap();
        let unif = simulate_heterogeneous(cfg(), build(), NodeSpeeds::uniform(2)).unwrap();
        assert_eq!(base.makespan, unif.makespan);
        assert_eq!(base.trace.intervals(), unif.trace.intervals());
    }

    #[test]
    fn slow_node_paces_blocking_pipeline() {
        // Sender computes then sends; a slow receiver does not delay
        // the sender, but a slow *sender* delays the receiver.
        let build = || {
            let mut s = Program::new();
            s.compute(100.0, 0);
            s.send(1, 0, 100);
            let mut r = Program::new();
            r.recv(0, 0, 100);
            vec![s, r]
        };
        let base = simulate(cfg(), build()).unwrap();
        let slow_sender = simulate_heterogeneous(
            cfg(),
            build(),
            NodeSpeeds::from_factors(vec![0.5, 1.0]).unwrap(),
        )
        .unwrap();
        // Sender's 100 µs compute doubles; everything downstream shifts.
        assert_eq!(
            slow_sender.finish[1],
            base.finish[1] + SimTime::from_us(100.0)
        );
    }

    #[test]
    fn seeded_speeds_are_deterministic() {
        let mk = || {
            let mut p = Program::new();
            p.compute(1000.0, 0);
            vec![p, Program::new()]
        };
        let s1 = NodeSpeeds::seeded(2, 42, 0.3);
        let s2 = NodeSpeeds::seeded(2, 42, 0.3);
        assert_eq!(s1, s2);
        let a = simulate_heterogeneous(cfg(), mk(), s1).unwrap();
        let b = simulate_heterogeneous(cfg(), mk(), s2).unwrap();
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn makespan_includes_lane_drain() {
        // Isend but never wait: program ends at CPU 10, TX drains to 30.
        let mut s = Program::new();
        let _ = s.isend(1, 0, 1000);
        let mut r = Program::new();
        let q = r.irecv(0, 0, 1000);
        r.wait(q);
        let res = simulate(cfg(), vec![s, r]).unwrap();
        assert_eq!(res.finish[0], SimTime::from_us(10.0));
        assert!(res.makespan >= SimTime::from_us(50.0));
    }
}
