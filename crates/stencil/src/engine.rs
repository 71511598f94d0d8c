//! The pipelined-rank engine: an interpreter of the §5 programs.
//!
//! A rank's work is the [`Program`] pre-flight emitted and proved for it
//! (`cluster_sim::program::Program::pipeline`), which its compiled plan
//! ([`crate::plan::Compiled3D`]) keeps; [`run_rank`] walks it op by op.
//! So the schedule behind the plan's [`ExecMode`] —
//! [`NonOverlapSchedule`] (eq. 3, `ProcB`: per step *receive faces →
//! compute tile → send faces*) or [`OverlapSchedule`] (eq. 4, `ProcNB`:
//! per step post the receives of `k+1` and the sends of `k−1`, compute
//! `k`, then wait) — is written once, in the emitter, and pre-flight
//! analyses what runs by construction.
//!
//! A message op names its face by its tag (`step · TAG_STRIDE + wire
//! direction`, [`crate::proto`]) and its length by its bytes; the
//! [`TileOps`] implementation (the block of [`crate::dist3d`], which
//! runs 2-D strips as unit-axis blocks) packs, unpacks and computes. The engine
//! allocates nothing — posted requests live in a fixed table indexed by
//! their handle — so neither does a steady-state step
//! (`tests/zero_alloc.rs`).
//!
//! Every phase of every step is reported to a [`StepObserver`]:
//! [`NoopObserver`] compiles the instrumentation out, [`TraceObserver`]
//! records wall-clock activity intervals in the simulator's trace
//! format (rendered by the same Gantt paths as Fig. 1/2, and replayed
//! by [`crate::plan::replay_programs`]), and [`PhaseLog`] captures the
//! exact event order for schedule-conformance tests.

use crate::decomp::DecompError;
use analyzer::plan::{ELEM_BYTES, TAG_STRIDE};
use cluster_sim::program::{Op, Program, ReqId};
use cluster_sim::time::SimTime;
use cluster_sim::trace::{Activity, Trace};
use msgpass::comm::{CommError, Communicator, RecvRequest, SendRequest, Tag};
use std::fmt;
use std::time::{Duration, Instant};
use tiling_core::schedule::{NonOverlapSchedule, OverlapSchedule, StepPlan};

/// Maximum number of halo directions any [`TileOps`] may expose (the
/// 3-D block has two: the `i`-face and the `j`-face).
pub const MAX_DIRS: usize = 2;

/// Why a distributed run failed. Produced by [`run_rank`] and the
/// `dist3d`/`plan` drivers instead of hanging forever or panicking
/// with an index error: decomposition problems are caught up front,
/// transport faults (on a reliability-enabled world) surface with the
/// rank that observed them attached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The problem could not be decomposed over the requested ranks.
    Decomp(DecompError),
    /// The pre-flight static analysis rejected the plan before any
    /// thread spawned (see the `analyzer` crate): unmatched or
    /// mismatched messages, an illegal schedule, or a deadlock cycle.
    Analysis(analyzer::AnalysisError),
    /// A [`TileOps`] exposed more halo directions than the engine's
    /// fixed request-slot arrays can hold.
    TooManyDirections {
        /// Directions the tile operations asked for.
        dirs: usize,
        /// The engine's [`MAX_DIRS`] capacity.
        max: usize,
    },
    /// A receive timed out past the configured retry schedule.
    Timeout {
        /// The rank whose receive timed out.
        rank: usize,
        /// The peer it was waiting on.
        from: usize,
        /// The expected message tag.
        tag: Tag,
        /// Total time spent waiting across all attempts.
        waited: Duration,
        /// Retry attempts made.
        retries: u32,
    },
    /// A message was sent but is unrecoverably lost on the link.
    SequenceGap {
        /// The rank that detected the gap.
        rank: usize,
        /// The peer whose message is missing.
        from: usize,
        /// The expected message tag.
        tag: Tag,
        /// The sequence number that can never arrive.
        seq: u64,
    },
    /// A rank's thread exited or panicked mid-run.
    RankFailed {
        /// The failed rank.
        rank: usize,
    },
    /// Any other transport error, or a program op the rank's
    /// [`TileOps`] cannot carry out, with the reporting rank attached.
    Comm {
        /// The rank that observed the error.
        rank: usize,
        /// Human-readable description.
        message: String,
    },
    /// A prebuilt world was offered to a plan compiled for a different
    /// rank count; nothing ran.
    WorldSizeMismatch {
        /// Ranks the compiled plan executes on.
        expected: usize,
        /// Size of the world that was offered.
        got: usize,
    },
    /// The result grid could not be allocated; nothing ran.
    OutOfMemory {
        /// Bytes the grid needs.
        bytes: usize,
    },
}

impl EngineError {
    /// Attach `rank` to a transport error. A peer hanging up is
    /// reported as *that peer's* failure, not the observer's.
    pub fn from_comm(rank: usize, err: CommError) -> Self {
        match err {
            CommError::Timeout {
                from,
                tag,
                waited,
                retries,
            } => EngineError::Timeout {
                rank,
                from,
                tag,
                waited,
                retries,
            },
            CommError::SequenceGap { from, tag, seq } => EngineError::SequenceGap {
                rank,
                from,
                tag,
                seq,
            },
            CommError::PeerClosed { peer } => EngineError::RankFailed { rank: peer },
            other => EngineError::Comm {
                rank,
                message: other.to_string(),
            },
        }
    }

    /// Combine with another rank's error, keeping the more diagnostic
    /// one (see [`EngineError::severity`]).
    pub fn prefer(self, other: EngineError) -> EngineError {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }

    /// Diagnostic value of this error when several ranks fail at once:
    /// a sequence gap or a structural error names the root cause, a
    /// timeout is usually its echo on neighboring ranks, and a failed
    /// rank is the least specific (every peer of a crashed rank
    /// reports it). Drivers keep the highest-severity error.
    pub fn severity(&self) -> u8 {
        match self {
            EngineError::Decomp(_)
            | EngineError::Analysis(_)
            | EngineError::TooManyDirections { .. } => 4,
            EngineError::SequenceGap { .. } => 3,
            EngineError::Timeout { .. } => 2,
            EngineError::Comm { .. } => 1,
            EngineError::RankFailed { .. }
            | EngineError::WorldSizeMismatch { .. }
            | EngineError::OutOfMemory { .. } => 0,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Decomp(e) => write!(f, "decomposition error: {e}"),
            EngineError::Analysis(e) => {
                write!(f, "pre-flight analysis rejected the plan: {e}")
            }
            EngineError::TooManyDirections { dirs, max } => write!(
                f,
                "tile operations expose {dirs} halo directions but the engine holds at most {max}"
            ),
            EngineError::Timeout {
                rank,
                from,
                tag,
                waited,
                retries,
            } => write!(
                f,
                "rank {rank}: receive (from {from}, tag {tag}) timed out after {waited:?} and {retries} retries"
            ),
            EngineError::SequenceGap {
                rank,
                from,
                tag,
                seq,
            } => write!(
                f,
                "rank {rank}: message #{seq} (from {from}, tag {tag}) is unrecoverably lost"
            ),
            EngineError::RankFailed { rank } => write!(f, "rank {rank} exited or panicked mid-run"),
            EngineError::Comm { rank, message } => write!(f, "rank {rank}: {message}"),
            EngineError::WorldSizeMismatch { expected, got } => write!(
                f,
                "prebuilt world has {got} ranks but the compiled plan runs on {expected}"
            ),
            EngineError::OutOfMemory { bytes } => {
                write!(f, "cannot allocate the {bytes}-byte result grid")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DecompError> for EngineError {
    fn from(e: DecompError) -> Self {
        EngineError::Decomp(e)
    }
}

impl From<analyzer::AnalysisError> for EngineError {
    fn from(e: analyzer::AnalysisError) -> Self {
        EngineError::Analysis(e)
    }
}

/// Execution style of a distributed run: the `tiling-core` schedule
/// type its programs are emitted from (see [`ExecMode::step_plan`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// Blocking receive → compute → send per tile (§3,
    /// [`NonOverlapSchedule`]).
    Blocking,
    /// Non-blocking pipelined overlap (§4, [`OverlapSchedule`]).
    Overlapping,
}

impl ExecMode {
    /// Build the [`StepPlan`] for `steps` local tiles from the schedule
    /// type this mode names: the non-overlapping `Π = [1 … 1]` schedule
    /// or the overlapping `2·Σ_{k≠i} j_k + j_i` one, mapped along
    /// `mapping_dim` of a `dims`-dimensional tiled space.
    pub fn step_plan(self, dims: usize, mapping_dim: usize, steps: usize) -> StepPlan {
        match self {
            ExecMode::Blocking => {
                NonOverlapSchedule::with_mapping(dims, mapping_dim).step_plan(steps)
            }
            ExecMode::Overlapping => {
                OverlapSchedule::with_mapping(dims, mapping_dim).step_plan(steps)
            }
        }
    }
}

/// One rank's tile pipeline, abstracted over dimensionality: the engine
/// drives these operations from a [`Program`], never touching grid
/// layout itself. Directions index halo faces (`0..num_dirs()`); the
/// program names every peer, step and face length.
///
/// Faces move through *callbacks over wire storage* rather than through
/// intermediate buffers: the engine hands [`TileOps::pack_into`] the
/// transport's outgoing buffer (on a slot-transport world, the
/// peer-visible slot itself) and [`TileOps::unpack_from`] the received
/// payload in place, so a halo face is written exactly once by the
/// sender and read exactly once by the receiver — the paper's B₂/B₃
/// kernel-buffer copies disappear from the on-node path, and the
/// steady-state step allocates nothing.
pub trait TileOps {
    /// Number of halo directions (≤ [`MAX_DIRS`]).
    fn num_dirs(&self) -> usize;

    /// The wire-protocol direction code of `dir` (see [`crate::proto`]).
    fn wire_dir(&self, dir: usize) -> u64;

    /// Pack the outgoing `dir`-face of `step` into `out`, the
    /// transport-owned wire buffer of exactly the face's length. Every
    /// element must be written.
    fn pack_into(&mut self, dir: usize, step: usize, out: &mut [f32]);

    /// Install the received `dir`-face of `step` into the halo,
    /// reading straight from the wire payload `data`.
    fn unpack_from(&mut self, dir: usize, step: usize, data: &[f32]);

    /// Compute tile `step`.
    fn compute(&mut self, step: usize);
}

/// One phase of one pipeline step, as reported to a [`StepObserver`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Tile computation (`A₂`).
    Compute {
        /// Pipeline step.
        step: usize,
    },
    /// Packing an outgoing face into its kernel buffer.
    Pack {
        /// Halo direction.
        dir: usize,
        /// Pipeline step the face belongs to.
        step: usize,
    },
    /// Installing a received face into the halo.
    Unpack {
        /// Halo direction.
        dir: usize,
        /// Pipeline step the face belongs to.
        step: usize,
    },
    /// Posting a non-blocking receive (`A₃`).
    PostRecv {
        /// Halo direction.
        dir: usize,
        /// Pipeline step the receive is for.
        step: usize,
    },
    /// Posting a non-blocking send (`A₁`).
    PostSend {
        /// Halo direction.
        dir: usize,
        /// Pipeline step the payload belongs to.
        step: usize,
    },
    /// Blocking receive (wire wait plus copy).
    Recv {
        /// Halo direction.
        dir: usize,
        /// Pipeline step the face belongs to.
        step: usize,
    },
    /// Blocking send (copy plus wire wait).
    Send {
        /// Halo direction.
        dir: usize,
        /// Pipeline step the face belongs to.
        step: usize,
    },
    /// Waiting on a posted receive.
    WaitRecv {
        /// Halo direction.
        dir: usize,
        /// Pipeline step the face belongs to.
        step: usize,
    },
    /// Waiting on a posted send.
    WaitSend {
        /// Halo direction.
        dir: usize,
        /// Pipeline step the payload belongs to.
        step: usize,
    },
}

impl Phase {
    /// The pipeline step this phase belongs to.
    pub fn step(&self) -> usize {
        match *self {
            Phase::Compute { step }
            | Phase::Pack { step, .. }
            | Phase::Unpack { step, .. }
            | Phase::PostRecv { step, .. }
            | Phase::PostSend { step, .. }
            | Phase::Recv { step, .. }
            | Phase::Send { step, .. }
            | Phase::WaitRecv { step, .. }
            | Phase::WaitSend { step, .. } => step,
        }
    }

    /// The trace activity this phase renders as — the mapping that
    /// makes real-execution Gantt charts structurally comparable to
    /// simulated ones: packing/unpacking are CPU post work (`s`/`r`),
    /// blocking transfers keep their striped `S`/`R` glyphs, and
    /// request waits are idle time.
    pub fn activity(&self) -> Activity {
        match self {
            Phase::Compute { .. } => Activity::Compute,
            Phase::Pack { .. } | Phase::PostSend { .. } => Activity::PostSend,
            Phase::Unpack { .. } | Phase::PostRecv { .. } => Activity::PostRecv,
            Phase::Recv { .. } => Activity::BlockingRecv,
            Phase::Send { .. } => Activity::BlockingSend,
            Phase::WaitRecv { .. } | Phase::WaitSend { .. } => Activity::Idle,
        }
    }

    /// True for phases that occupy the CPU lane (`A₁+A₂+A₃` plus the
    /// kernel-buffer copies); false for the waits that expose the
    /// communication lane (`B`).
    pub fn is_cpu_lane(&self) -> bool {
        !matches!(
            self,
            Phase::Recv { .. }
                | Phase::Send { .. }
                | Phase::WaitRecv { .. }
                | Phase::WaitSend { .. }
        )
    }
}

/// Receives the timed phases of an engine run. Implementations with
/// `ENABLED = false` compile the instrumentation out of the hot path.
pub trait StepObserver {
    /// Whether the engine should time phases at all.
    const ENABLED: bool;

    /// One phase ran over `[start, end]`.
    fn on_phase(&mut self, phase: Phase, start: Instant, end: Instant);

    /// How long a communication-lane phase (a wait or a blocking
    /// transfer) may run before the engine reports it via
    /// [`StepObserver::on_stall`]. `None` (the default) disables stall
    /// detection.
    fn stall_threshold(&self) -> Option<Duration> {
        None
    }

    /// A communication-lane phase exceeded
    /// [`StepObserver::stall_threshold`] — the schedule failed to hide
    /// this wait (or a fault-induced retry inflated it). Called *in
    /// addition to* [`StepObserver::on_phase`], over the same interval.
    fn on_stall(&mut self, phase: Phase, start: Instant, end: Instant) {
        let _ = (phase, start, end);
    }
}

/// The default observer: records nothing, costs nothing.
#[derive(Clone, Copy, Default, Debug)]
pub struct NoopObserver;

impl StepObserver for NoopObserver {
    const ENABLED: bool = false;

    fn on_phase(&mut self, _phase: Phase, _start: Instant, _end: Instant) {}
}

/// Records wall-clock activity intervals in the simulator's trace
/// format: each phase's measured `[start, end]` becomes an interval of
/// [`SimTime`] since the world epoch, so a real run becomes a [`Trace`]
/// the existing Gantt/SVG renderers draw directly.
#[derive(Debug)]
pub struct TraceObserver {
    rank: usize,
    epoch: Instant,
    trace: Trace,
    stall_after: Option<Duration>,
}

impl TraceObserver {
    /// A recorder for `rank` against the world `epoch` (use
    /// `ThreadComm::epoch()` so all ranks share the origin).
    pub fn new(rank: usize, epoch: Instant) -> Self {
        TraceObserver {
            rank,
            epoch,
            trace: Trace::enabled(),
            stall_after: None,
        }
    }

    /// Record waits longer than `threshold` as [`Activity::Stall`]
    /// instead of plain idle time, so they stand out in the rendered
    /// Gantt charts.
    pub fn with_stall_threshold(mut self, threshold: Duration) -> Self {
        self.stall_after = Some(threshold);
        self
    }

    /// Finish recording, yielding the rank's trace (merge the ranks of
    /// one world with [`Trace::extend`]).
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Record `activity` over `[start, end]`. Instants before the epoch
    /// saturate to 0 (cannot happen for phases inside the world).
    fn record(&mut self, activity: Activity, start: Instant, end: Instant) {
        let epoch = self.epoch;
        let at =
            |t: Instant| SimTime::from_nanos(t.saturating_duration_since(epoch).as_nanos() as u64);
        self.trace.record(self.rank, activity, at(start), at(end));
    }

    fn is_stall(&self, phase: Phase, start: Instant, end: Instant) -> bool {
        !phase.is_cpu_lane()
            && self
                .stall_after
                .is_some_and(|th| end.duration_since(start) >= th)
    }
}

impl StepObserver for TraceObserver {
    const ENABLED: bool = true;

    fn on_phase(&mut self, phase: Phase, start: Instant, end: Instant) {
        // A stalled wait is recorded by `on_stall` instead, so each
        // phase contributes exactly one interval to the trace.
        if self.is_stall(phase, start, end) {
            return;
        }
        self.record(phase.activity(), start, end);
    }

    fn stall_threshold(&self) -> Option<Duration> {
        self.stall_after
    }

    fn on_stall(&mut self, _phase: Phase, start: Instant, end: Instant) {
        self.record(Activity::Stall, start, end);
    }
}

/// Captures the exact phase order of a run (timing discarded) — the
/// instrument behind the schedule-conformance tests.
#[derive(Clone, Default, Debug)]
pub struct PhaseLog {
    /// Phases in execution order.
    pub phases: Vec<Phase>,
}

impl StepObserver for PhaseLog {
    const ENABLED: bool = true;

    fn on_phase(&mut self, phase: Phase, _start: Instant, _end: Instant) {
        self.phases.push(phase);
    }
}

/// Time `f` and report it as `phase` — compiled down to a bare call
/// when the observer is disabled.
#[inline(always)]
fn timed<O: StepObserver, R>(obs: &mut O, phase: Phase, f: impl FnOnce() -> R) -> R {
    if O::ENABLED {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        note(obs, phase, start, end);
        r
    } else {
        f()
    }
}

/// Report an already-timed `[start, end]` interval as `phase`,
/// including the stall check for communication-lane phases. Used where
/// one transport call spans two phases (a receive whose payload is
/// unpacked inside the callback, a send packed inside the callback):
/// the callback records the interior split point and the two halves
/// are reported as disjoint phase intervals.
#[inline(always)]
fn note<O: StepObserver>(obs: &mut O, phase: Phase, start: Instant, end: Instant) {
    obs.on_phase(phase, start, end);
    if !phase.is_cpu_lane() {
        if let Some(th) = obs.stall_threshold() {
            if end.duration_since(start) >= th {
                obs.on_stall(phase, start, end);
            }
        }
    }
}

/// The halo face a message op carries: its direction, its pipeline
/// step and its length in elements.
#[derive(Clone, Copy, Debug)]
struct Face {
    dir: usize,
    step: usize,
    len: usize,
}

/// Receive `face` inside `recv` — a blocking receive or the wait on a
/// posted one, reported as `phase` — and unpack it in place from the
/// wire payload, reported as [`Phase::Unpack`] over the in-callback
/// unpack span.
#[inline(always)]
fn recv_unpack<T, C, O>(
    comm: &mut C,
    ops: &mut T,
    obs: &mut O,
    face: Face,
    phase: Phase,
    recv: impl FnOnce(&mut C, &mut dyn FnMut(&[f32])) -> Result<(), CommError>,
) -> Result<(), CommError>
where
    T: TileOps,
    O: StepObserver,
{
    let Face { dir, step, .. } = face;
    if O::ENABLED {
        let start = Instant::now();
        let mut span = (start, start);
        recv(comm, &mut |data: &[f32]| {
            let u0 = Instant::now();
            ops.unpack_from(dir, step, data);
            span = (u0, Instant::now());
        })?;
        note(obs, phase, start, span.0);
        note(obs, Phase::Unpack { dir, step }, span.0, span.1);
        Ok(())
    } else {
        recv(comm, &mut |data: &[f32]| ops.unpack_from(dir, step, data))
    }
}

/// Pack `face` straight into the transport's wire buffer inside `send`
/// — a blocking send or a post, reported as `phase` — with
/// [`Phase::Pack`] reported over the in-callback pack span.
#[inline(always)]
fn pack_send<T, C, O, R>(
    comm: &mut C,
    ops: &mut T,
    obs: &mut O,
    face: Face,
    phase: Phase,
    send: impl FnOnce(&mut C, &mut dyn FnMut(&mut [f32])) -> Result<R, CommError>,
) -> Result<R, CommError>
where
    T: TileOps,
    O: StepObserver,
{
    let Face { dir, step, .. } = face;
    if O::ENABLED {
        let start = Instant::now();
        let mut packed = start;
        let sent = send(comm, &mut |out: &mut [f32]| {
            ops.pack_into(dir, step, out);
            packed = Instant::now();
        })?;
        let end = Instant::now();
        note(obs, Phase::Pack { dir, step }, start, packed);
        note(obs, phase, packed, end);
        Ok(sent)
    } else {
        send(comm, &mut |out: &mut [f32]| ops.pack_into(dir, step, out))
    }
}

/// A transport request of a posted op.
enum Request {
    Recv(RecvRequest),
    Send(SendRequest),
}

/// Entries of the request table, indexed by handle modulo its size. An
/// emitted pipeline's live handles — at step `k` the receives of `k`
/// and `k + 1` and the sends of `k − 1` — lie within `4 · MAX_DIRS`
/// consecutive ids, so they never share an entry; a request a later
/// post displaces fails its wait.
const REQ_SLOTS: usize = 4 * MAX_DIRS;

/// Execute one rank's `program` — the §5 op list its compiled plan
/// holds — op by op over `ops`, reporting each op's [`Phase`]s to `obs`.
///
/// Besides [`EngineError::TooManyDirections`] and an op `ops` cannot
/// carry out (a face of no direction, a wait on a request not posted:
/// [`EngineError::Comm`]), a plain world can fail only with
/// [`EngineError::RankFailed`] (a peer's thread went away); on a
/// reliability-enabled world the other transport faults surface as
/// typed [`EngineError`]s too, instead of hanging the rank forever.
pub fn run_rank<T, C, O>(
    comm: &mut C,
    ops: &mut T,
    program: &Program,
    obs: &mut O,
) -> Result<(), EngineError>
where
    T: TileOps,
    C: Communicator<f32>,
    O: StepObserver,
{
    let dirs = ops.num_dirs();
    if dirs > MAX_DIRS {
        return Err(EngineError::TooManyDirections {
            dirs,
            max: MAX_DIRS,
        });
    }
    let rank = comm.rank();
    let fail = |e| EngineError::from_comm(rank, e);
    let unfit = |op: Op, why: &str| {
        let message = format!("program op {op:?}: {why}");
        EngineError::Comm { rank, message }
    };
    // The direction of each wire code, and the face a message op names.
    let mut wire = [None; TAG_STRIDE as usize];
    for dir in 0..dirs {
        if let Some(w) = wire.get_mut(ops.wire_dir(dir) as usize) {
            *w = Some(dir);
        }
    }
    let face = |op: Op, tag: Tag, bytes: u64| {
        let (step, len) = ((tag / TAG_STRIDE) as usize, (bytes / ELEM_BYTES) as usize);
        let dir = wire[(tag % TAG_STRIDE) as usize];
        dir.map(|dir| Face { dir, step, len })
            .ok_or_else(|| unfit(op, "no face has its wire code"))
    };
    let mut posted: [Option<(ReqId, Face, Request)>; REQ_SLOTS] = [const { None }; REQ_SLOTS];
    for op in program.ops() {
        match op {
            Op::Compute { label, .. } => {
                let step = label as usize;
                timed(obs, Phase::Compute { step }, || ops.compute(step));
            }
            Op::Recv { from, tag, bytes } => {
                let f @ Face { dir, step, len } = face(op, tag, bytes)?;
                recv_unpack(comm, ops, obs, f, Phase::Recv { dir, step }, |c, take| {
                    c.recv_with(from, tag, len, take)
                })
                .map_err(fail)?;
            }
            Op::Send { to, tag, bytes } => {
                let f @ Face { dir, step, len } = face(op, tag, bytes)?;
                pack_send(comm, ops, obs, f, Phase::Send { dir, step }, |c, fill| {
                    c.send_with(to, tag, len, fill)
                })
                .map_err(fail)?;
            }
            Op::Irecv {
                from,
                tag,
                bytes,
                req,
            } => {
                let f @ Face { dir, step, .. } = face(op, tag, bytes)?;
                let r = timed(obs, Phase::PostRecv { dir, step }, || comm.irecv(from, tag));
                posted[req.0 as usize % REQ_SLOTS] = Some((req, f, Request::Recv(r)));
            }
            Op::Isend {
                to,
                tag,
                bytes,
                req,
            } => {
                let f @ Face { dir, step, len } = face(op, tag, bytes)?;
                let phase = Phase::PostSend { dir, step };
                let r = pack_send(comm, ops, obs, f, phase, |c, fill| {
                    c.isend_with(to, tag, len, fill)
                })
                .map_err(fail)?;
                posted[req.0 as usize % REQ_SLOTS] = Some((req, f, Request::Send(r)));
            }
            Op::Wait { req } => {
                let entry = &mut posted[req.0 as usize % REQ_SLOTS];
                let Some((_, f, r)) = entry.take_if(|e| e.0 == req) else {
                    return Err(unfit(op, "no posted request has its handle"));
                };
                let Face { dir, step, len } = f;
                match r {
                    Request::Recv(r) => {
                        let phase = Phase::WaitRecv { dir, step };
                        recv_unpack(comm, ops, obs, f, phase, |c, take| {
                            c.wait_recv_with(r, len, take)
                        })
                    }
                    Request::Send(r) => {
                        timed(obs, Phase::WaitSend { dir, step }, || comm.wait_send(r))
                    }
                }
                .map_err(fail)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::tag;
    use msgpass::prelude::*;
    use tiling_core::schedule::StepStrategy;

    #[test]
    fn mode_selects_schedule_type() {
        let b = ExecMode::Blocking.step_plan(3, 2, 10);
        assert_eq!(b.strategy(), StepStrategy::Blocking);
        assert_eq!(b.steps(), 10);
        let o = ExecMode::Overlapping.step_plan(3, 2, 10);
        assert_eq!(o.strategy(), StepStrategy::Overlap);
    }

    #[test]
    fn phase_lane_and_activity_mapping() {
        assert_eq!(Phase::Compute { step: 0 }.activity(), Activity::Compute);
        assert!(Phase::Compute { step: 0 }.is_cpu_lane());
        assert_eq!(
            Phase::Pack { dir: 0, step: 1 }.activity(),
            Activity::PostSend
        );
        assert_eq!(
            Phase::Unpack { dir: 1, step: 2 }.activity(),
            Activity::PostRecv
        );
        assert_eq!(
            Phase::Recv { dir: 0, step: 0 }.activity(),
            Activity::BlockingRecv
        );
        assert!(!Phase::Recv { dir: 0, step: 0 }.is_cpu_lane());
        assert_eq!(
            Phase::WaitRecv { dir: 0, step: 4 }.activity(),
            Activity::Idle
        );
        assert!(!Phase::WaitSend { dir: 1, step: 4 }.is_cpu_lane());
        assert_eq!(Phase::WaitSend { dir: 1, step: 4 }.step(), 4);
    }

    /// Tile operations over no grid: a face of step `k` is `k` in every
    /// element, and every face received is kept.
    #[derive(Debug)]
    struct FakeOps {
        dirs: usize,
        computed: usize,
        received: Vec<f32>,
    }

    impl FakeOps {
        fn new(dirs: usize) -> Self {
            FakeOps {
                dirs,
                computed: 0,
                received: Vec::new(),
            }
        }
    }

    impl TileOps for FakeOps {
        fn num_dirs(&self) -> usize {
            self.dirs
        }
        fn wire_dir(&self, dir: usize) -> u64 {
            dir as u64
        }
        fn pack_into(&mut self, _dir: usize, step: usize, out: &mut [f32]) {
            out.fill(step as f32);
        }
        fn unpack_from(&mut self, _dir: usize, _step: usize, data: &[f32]) {
            self.received.extend_from_slice(data);
        }
        fn compute(&mut self, _step: usize) {
            self.computed += 1;
        }
    }

    /// The program of `plan` on a lone rank: computes only.
    fn lone(plan: &StepPlan) -> Program {
        let d = crate::decomp::Decomp2D {
            nx: 1,
            ny: 1,
            ranks: 1,
            v: 1,
            boundary: 0.0,
        };
        analyzer::programs(&d.block(), plan)
            .expect("fewer than 2^32 steps")
            .swap_remove(0)
    }

    #[test]
    fn too_many_directions_is_a_typed_error_not_a_panic() {
        for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
            let program = lone(&mode.step_plan(3, 2, 4));
            let (results, _) =
                run_threads::<f32, _, _>(1, LatencyModel::zero(), move |mut comm| {
                    let mut ops = FakeOps::new(MAX_DIRS + 1);
                    run_rank(&mut comm, &mut ops, &program, &mut NoopObserver)
                });
            assert_eq!(
                results[0],
                Err(EngineError::TooManyDirections {
                    dirs: MAX_DIRS + 1,
                    max: MAX_DIRS
                })
            );
        }
    }

    #[test]
    fn zero_step_plan_completes_without_computing() {
        // Regression: the overlap epilogue addresses tile `steps - 1`,
        // which used to underflow for an empty pipeline.
        for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
            let program = lone(&mode.step_plan(3, 2, 0));
            let (results, _) =
                run_threads::<f32, _, _>(1, LatencyModel::zero(), move |mut comm| {
                    let mut ops = FakeOps::new(2);
                    run_rank(&mut comm, &mut ops, &program, &mut NoopObserver)
                        .map(|()| ops.computed)
                });
            assert_eq!(results[0], Ok(0));
        }
    }

    #[test]
    fn the_engine_runs_whatever_program_it_is_given() {
        // An order neither §5 schedule emits: rank 0 computes between
        // posting a send and waiting it, then sends step 1 blocking;
        // rank 1 computes before it waits the receive it posted.
        let (bytes, t0, t1) = (ELEM_BYTES * 3, tag(0, 0), tag(1, 0));
        let mut sender = Program::new();
        sender.compute(0.0, 0);
        let req = sender.isend(1, t0, bytes);
        sender.compute(0.0, 1);
        sender.wait(req);
        sender.send(1, t1, bytes);
        let mut receiver = Program::new();
        let req = receiver.irecv(0, t0, bytes);
        receiver.compute(0.0, 7);
        receiver.wait(req);
        receiver.recv(0, t1, bytes);
        receiver.compute(0.0, 8);
        let programs = [sender, receiver];
        let (results, _) = run_threads::<f32, _, _>(2, LatencyModel::zero(), |mut comm| {
            let (mut ops, mut log) = (FakeOps::new(1), PhaseLog::default());
            let program = &programs[comm.rank()];
            run_rank(&mut comm, &mut ops, program, &mut log).map(|()| (log.phases, ops))
        });
        let [Ok((sent, _)), Ok((received, ops))] = &results[..] else {
            panic!("a fault-free world runs both programs: {results:?}");
        };
        let (dir, step) = (0, 0);
        let want_sent = [
            Phase::Compute { step },
            Phase::Pack { dir, step },
            Phase::PostSend { dir, step },
            Phase::Compute { step: 1 },
            Phase::WaitSend { dir, step },
            Phase::Pack { dir, step: 1 },
            Phase::Send { dir, step: 1 },
        ];
        let want_received = [
            Phase::PostRecv { dir, step },
            Phase::Compute { step: 7 },
            Phase::WaitRecv { dir, step },
            Phase::Unpack { dir, step },
            Phase::Recv { dir, step: 1 },
            Phase::Unpack { dir, step: 1 },
            Phase::Compute { step: 8 },
        ];
        assert_eq!(
            (&sent[..], &received[..]),
            (&want_sent[..], &want_received[..])
        );
        assert_eq!(ops.received, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(ops.computed, 2);
    }

    #[test]
    fn engine_error_mapping_and_severity() {
        let e = EngineError::from_comm(
            3,
            msgpass::comm::CommError::Timeout {
                from: 1,
                tag: 7,
                waited: Duration::from_millis(80),
                retries: 4,
            },
        );
        assert_eq!(
            e,
            EngineError::Timeout {
                rank: 3,
                from: 1,
                tag: 7,
                waited: Duration::from_millis(80),
                retries: 4
            }
        );
        // A peer hanging up is that peer's failure.
        let e = EngineError::from_comm(2, msgpass::comm::CommError::PeerClosed { peer: 5 });
        assert_eq!(e, EngineError::RankFailed { rank: 5 });
        // Root causes outrank their echoes.
        let gap = EngineError::from_comm(
            0,
            msgpass::comm::CommError::SequenceGap {
                from: 1,
                tag: 2,
                seq: 3,
            },
        );
        assert!(gap.severity() > e.severity());
        assert!(EngineError::TooManyDirections { dirs: 3, max: 2 }.severity() > gap.severity());
        assert!(!format!("{gap}").is_empty());
    }

    #[test]
    fn trace_observer_marks_long_waits_as_stalls() {
        // The threshold is generous relative to an empty closure so the
        // "fast" cases cannot cross it even on a loaded machine.
        let threshold = Duration::from_millis(25);
        let mut obs = TraceObserver::new(0, Instant::now()).with_stall_threshold(threshold);
        // A fast wait stays idle; a slow one becomes a stall; compute is
        // never a stall no matter how long.
        timed(&mut obs, Phase::WaitRecv { dir: 0, step: 0 }, || {
            std::thread::sleep(Duration::from_micros(10))
        });
        timed(&mut obs, Phase::WaitRecv { dir: 0, step: 1 }, || {
            std::thread::sleep(threshold * 2)
        });
        timed(&mut obs, Phase::Compute { step: 1 }, || {
            std::thread::sleep(threshold * 2)
        });
        let trace = obs.into_trace();
        let acts: Vec<Activity> = trace.intervals().iter().map(|iv| iv.activity).collect();
        assert_eq!(
            acts,
            vec![Activity::Idle, Activity::Stall, Activity::Compute]
        );
    }

    #[test]
    fn instants_map_onto_epoch_relative_simtime() {
        let epoch = Instant::now();
        let mut obs = TraceObserver::new(3, epoch);
        let (a, b) = (Duration::from_micros(10), Duration::from_micros(25));
        obs.on_phase(Phase::Compute { step: 0 }, epoch + a, epoch + b);
        let iv = obs.into_trace().intervals().to_vec();
        assert_eq!(iv.len(), 1);
        assert_eq!(iv[0].rank, 3);
        assert_eq!(iv[0].start, SimTime::from_us(10.0));
        assert_eq!(iv[0].end, SimTime::from_us(25.0));
    }

    #[test]
    fn pre_epoch_instants_saturate() {
        let early = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        let epoch = Instant::now();
        let mut obs = TraceObserver::new(0, epoch);
        let end = epoch + Duration::from_micros(5);
        obs.on_phase(Phase::Compute { step: 0 }, early, end);
        assert_eq!(obs.into_trace().intervals()[0].start, SimTime::ZERO);
    }
}
