//! The schedule-driven pipelined-rank engine.
//!
//! One executor core replaces the four hand-rolled
//! `rank_{blocking,overlap}_{2d,3d}` drivers: a rank's tile sequence is
//! executed from a [`StepPlan`] derived from the `tiling-core` schedule
//! types, so the *schedule type* — [`NonOverlapSchedule`] (eq. 3) or
//! [`OverlapSchedule`] (eq. 4) — selects the communication structure:
//!
//! * [`StepStrategy::Blocking`]: per step, *receive faces → compute
//!   tile → send faces*, fully serialized;
//! * [`StepStrategy::Overlap`]: per step `k`, post the receives of
//!   `k+1` and the sends of `k−1`, compute `k`, then wait — the wire
//!   time rides under the computation.
//!
//! Dimensionality lives entirely in the [`TileOps`] implementation
//! (2-D strips in [`crate::dist2d`], 3-D blocks in [`crate::dist3d`]),
//! which carries the zero-allocation branch-peeled hot paths unchanged:
//! the engine itself performs no heap allocation — request slots are
//! fixed arrays of [`MAX_DIRS`] options — so the steady-state step
//! allocates nothing (asserted by `tests/zero_alloc.rs`).
//!
//! Every phase of every step is reported to a [`StepObserver`]:
//! [`NoopObserver`] compiles the instrumentation out, [`TraceObserver`]
//! records wall-clock activity intervals in the simulator's trace
//! format (rendered by the same Gantt paths as Fig. 1/2), [`PhaseLog`]
//! captures the exact event order for schedule-conformance tests, and
//! [`LaneStats`] accumulates the per-step A-lane/B-lane split of eq. 4.

use crate::decomp::DecompError;
use crate::proto::tag;
use msgpass::comm::{CommError, Communicator, Tag};
use msgpass::trace::{Activity, Trace, WallTrace};
use std::fmt;
use std::time::{Duration, Instant};
use tiling_core::schedule::{NonOverlapSchedule, OverlapSchedule, StepPlan, StepStrategy};

/// Maximum number of halo directions any [`TileOps`] may expose (the
/// 3-D block has two: the `i`-face and the `j`-face).
pub const MAX_DIRS: usize = 2;

/// Why a distributed run failed. Produced by [`run_rank`] and the
/// `dist2d`/`dist3d` drivers instead of hanging forever or panicking
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
    /// Any other transport error, with the reporting rank attached.
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

/// Execution style of a distributed run — a shorthand that maps onto
/// the `tiling-core` schedule type actually driving the engine (see
/// [`ExecMode::step_plan`]).
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
/// drives these operations from a [`StepPlan`], never touching grid
/// layout itself. Directions index halo faces (`0..num_dirs()`).
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

    /// The rank faces arrive from in `dir`, if any.
    fn upstream(&self, dir: usize) -> Option<usize>;

    /// The rank this rank's `dir`-face goes to, if any.
    fn downstream(&self, dir: usize) -> Option<usize>;

    /// The wire-protocol direction code of `dir` (see [`crate::proto`]).
    fn wire_dir(&self, dir: usize) -> u64;

    /// Element count of the `dir`-face of `step` (identical for the
    /// incoming and outgoing side of a direction: neighbors exchange
    /// congruent faces; the last tile of a pipeline may be partial).
    fn face_len(&self, dir: usize, step: usize) -> usize;

    /// Pack the outgoing `dir`-face of `step` into `out`, the
    /// transport-owned wire buffer of exactly [`TileOps::face_len`]
    /// elements. Every element must be written.
    fn pack_into(&mut self, dir: usize, step: usize, out: &mut [f32]);

    /// Install the received `dir`-face of `step` into the halo,
    /// reading straight from the wire payload `data`
    /// ([`TileOps::face_len`] elements).
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
/// format (via [`WallTrace`]): a real run becomes a [`Trace`] the
/// existing Gantt/SVG renderers draw directly.
#[derive(Debug)]
pub struct TraceObserver {
    wall: WallTrace,
    stall_after: Option<Duration>,
}

impl TraceObserver {
    /// A recorder for `rank` against the world `epoch` (use
    /// `ThreadComm::epoch()` so all ranks share the origin).
    pub fn new(rank: usize, epoch: Instant) -> Self {
        TraceObserver {
            wall: WallTrace::new(rank, epoch),
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

    /// Finish recording, yielding the rank's trace.
    pub fn into_trace(self) -> Trace {
        self.wall.into_trace()
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
        self.wall.record(phase.activity(), start, end);
    }

    fn stall_threshold(&self) -> Option<Duration> {
        self.stall_after
    }

    fn on_stall(&mut self, _phase: Phase, start: Instant, end: Instant) {
        self.wall.record(Activity::Stall, start, end);
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

/// Per-step lane accounting: the measured counterpart of eq. 4's
/// `max(A-lane, B-lane)` split. Index `k` holds the µs tile `k` spent
/// in CPU-lane phases (compute, pack/unpack, posts) and in
/// communication-lane phases (blocking transfers and request waits).
#[derive(Clone, Debug)]
pub struct LaneStats {
    /// CPU-lane µs per step (`A₁+A₂+A₃` plus kernel-buffer copies).
    pub cpu_us: Vec<f64>,
    /// Communication-lane µs per step (waits and blocking transfers).
    pub comm_us: Vec<f64>,
}

impl LaneStats {
    /// Zeroed accounting for a `steps`-deep pipeline.
    pub fn new(steps: usize) -> Self {
        LaneStats {
            cpu_us: vec![0.0; steps],
            comm_us: vec![0.0; steps],
        }
    }

    /// Mean/max summary over every (rank, step) sample of several
    /// ranks' stats: `(a_mean, a_max, b_mean, b_max)` in µs.
    pub fn summarize(all: &[LaneStats]) -> (f64, f64, f64, f64) {
        let mut a = (0.0f64, 0.0f64, 0usize);
        let mut b = (0.0f64, 0.0f64, 0usize);
        for s in all {
            for &v in &s.cpu_us {
                a = (a.0 + v, a.1.max(v), a.2 + 1);
            }
            for &v in &s.comm_us {
                b = (b.0 + v, b.1.max(v), b.2 + 1);
            }
        }
        let mean = |sum: f64, n: usize| if n == 0 { 0.0 } else { sum / n as f64 };
        (mean(a.0, a.2), a.1, mean(b.0, b.2), b.1)
    }
}

impl StepObserver for LaneStats {
    const ENABLED: bool = true;

    fn on_phase(&mut self, phase: Phase, start: Instant, end: Instant) {
        let us = end.duration_since(start).as_secs_f64() * 1e6;
        let k = phase.step();
        if k < self.cpu_us.len() {
            if phase.is_cpu_lane() {
                self.cpu_us[k] += us;
            } else {
                self.comm_us[k] += us;
            }
        }
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

/// Receive the `dir`-face of step `k` and unpack it in place from the
/// wire payload: a posted request (`req = Some`, reported as
/// [`Phase::WaitRecv`]) or a blocking receive (reported as
/// [`Phase::Recv`]), followed by [`Phase::Unpack`] over the in-callback
/// unpack span.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // LINT: the (peer, tag, dir, step, request) wire tuple is irreducible
fn recv_unpack<T, C, O>(
    comm: &mut C,
    ops: &mut T,
    obs: &mut O,
    src: usize,
    t: Tag,
    dir: usize,
    k: usize,
    req: Option<msgpass::comm::RecvRequest>,
) -> Result<(), CommError>
where
    T: TileOps,
    C: Communicator<f32>,
    O: StepObserver,
{
    let want = ops.face_len(dir, k);
    let posted = req.is_some();
    if O::ENABLED {
        let start = Instant::now();
        let mut span = (start, start);
        let take = &mut |data: &[f32]| {
            let u0 = Instant::now();
            ops.unpack_from(dir, k, data);
            span = (u0, Instant::now());
        };
        match req {
            Some(r) => comm.wait_recv_with(r, want, take)?,
            None => comm.recv_with(src, t, want, take)?,
        }
        let wait_phase = if posted {
            Phase::WaitRecv { dir, step: k }
        } else {
            Phase::Recv { dir, step: k }
        };
        note(obs, wait_phase, start, span.0);
        note(obs, Phase::Unpack { dir, step: k }, span.0, span.1);
        Ok(())
    } else {
        let take = &mut |data: &[f32]| ops.unpack_from(dir, k, data);
        match req {
            Some(r) => comm.wait_recv_with(r, want, take),
            None => comm.recv_with(src, t, want, take),
        }
    }
}

/// Pack the `dir`-face of step `k` straight into the transport's wire
/// buffer and send it: blocking ([`Phase::Send`]) or posted
/// (`post = true`, [`Phase::PostSend`], returning the request), with
/// [`Phase::Pack`] reported over the in-callback pack span.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // LINT: the (peer, tag, dir, step, post) wire tuple is irreducible
fn pack_send<T, C, O>(
    comm: &mut C,
    ops: &mut T,
    obs: &mut O,
    dst: usize,
    t: Tag,
    dir: usize,
    k: usize,
    post: bool,
) -> Result<Option<msgpass::comm::SendRequest>, CommError>
where
    T: TileOps,
    C: Communicator<f32>,
    O: StepObserver,
{
    let len = ops.face_len(dir, k);
    if O::ENABLED {
        let start = Instant::now();
        let mut packed = start;
        let fill = &mut |out: &mut [f32]| {
            ops.pack_into(dir, k, out);
            packed = Instant::now();
        };
        let req = if post {
            Some(comm.isend_with(dst, t, len, fill)?)
        } else {
            comm.send_with(dst, t, len, fill)?;
            None
        };
        let end = Instant::now();
        note(obs, Phase::Pack { dir, step: k }, start, packed);
        let send_phase = if post {
            Phase::PostSend { dir, step: k }
        } else {
            Phase::Send { dir, step: k }
        };
        note(obs, send_phase, packed, end);
        Ok(req)
    } else {
        let fill = &mut |out: &mut [f32]| ops.pack_into(dir, k, out);
        if post {
            Ok(Some(comm.isend_with(dst, t, len, fill)?))
        } else {
            comm.send_with(dst, t, len, fill)?;
            Ok(None)
        }
    }
}

/// Execute one rank's full tile sequence according to `plan`. The
/// schedule type the plan came from decides the communication
/// structure; `ops` supplies the dimensional mechanics.
///
/// Besides [`EngineError::TooManyDirections`], a plain world can fail
/// only with [`EngineError::RankFailed`] (a peer's thread went away);
/// on a reliability-enabled world the other transport faults surface as
/// typed [`EngineError`]s too, instead of hanging the rank forever.
pub fn run_rank<T, C, O>(
    comm: &mut C,
    ops: &mut T,
    plan: &StepPlan,
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
    if plan.steps() == 0 {
        // Nothing to do — and the overlap epilogue addresses tile
        // `steps - 1`, which does not exist for an empty pipeline.
        return Ok(());
    }
    match plan.strategy() {
        StepStrategy::Blocking => run_blocking(comm, ops, plan.steps(), obs),
        StepStrategy::Overlap => run_overlap(comm, ops, plan.steps(), obs),
    }
}

/// Eq. 3: every step a serialized *receive → compute → send* triplet.
fn run_blocking<T, C, O>(
    comm: &mut C,
    ops: &mut T,
    steps: usize,
    obs: &mut O,
) -> Result<(), EngineError>
where
    T: TileOps,
    C: Communicator<f32>,
    O: StepObserver,
{
    let rank = comm.rank();
    let dirs = ops.num_dirs();
    for k in 0..steps {
        for dir in 0..dirs {
            if let Some(src) = ops.upstream(dir) {
                let t = tag(k, ops.wire_dir(dir));
                recv_unpack(comm, ops, obs, src, t, dir, k, None)
                    .map_err(|e| EngineError::from_comm(rank, e))?;
            }
        }
        timed(obs, Phase::Compute { step: k }, || ops.compute(k));
        for dir in 0..dirs {
            if let Some(dst) = ops.downstream(dir) {
                let t = tag(k, ops.wire_dir(dir));
                pack_send(comm, ops, obs, dst, t, dir, k, false)
                    .map_err(|e| EngineError::from_comm(rank, e))?;
            }
        }
    }
    Ok(())
}

/// Eq. 4: post receives for `k+1` and sends of `k−1`, compute `k`,
/// wait. Request slots live in fixed arrays, so the steady-state loop
/// performs no heap allocations.
fn run_overlap<T, C, O>(
    comm: &mut C,
    ops: &mut T,
    steps: usize,
    obs: &mut O,
) -> Result<(), EngineError>
where
    T: TileOps,
    C: Communicator<f32>,
    O: StepObserver,
{
    use msgpass::comm::{RecvRequest, SendRequest};
    let rank = comm.rank();
    let dirs = ops.num_dirs();

    // Prologue: receives for step 0.
    let mut cur_recv: [Option<RecvRequest>; MAX_DIRS] = [None, None];
    let mut next_recv: [Option<RecvRequest>; MAX_DIRS] = [None, None];
    let mut sends: [Option<SendRequest>; MAX_DIRS] = [None, None];
    for (dir, slot) in cur_recv.iter_mut().enumerate().take(dirs) {
        *slot = ops.upstream(dir).map(|src| {
            let t = tag(0, ops.wire_dir(dir));
            timed(obs, Phase::PostRecv { dir, step: 0 }, || comm.irecv(src, t))
        });
    }
    // The extra step `k = steps` computes nothing: it is the epilogue,
    // which posts every face of the last tile before it waits on any.
    for k in 0..=steps {
        // Post receives for the next tile…
        for (dir, slot) in next_recv.iter_mut().enumerate().take(dirs) {
            *slot = if k + 1 < steps {
                ops.upstream(dir).map(|src| {
                    let t = tag(k + 1, ops.wire_dir(dir));
                    timed(obs, Phase::PostRecv { dir, step: k + 1 }, || {
                        comm.irecv(src, t)
                    })
                })
            } else {
                None
            };
        }
        // …and sends of the previous tile's results, packed straight
        // into wire storage (the peer-visible slot on a slot-transport
        // world) so the face is copied exactly once.
        if k >= 1 {
            for (dir, slot) in sends.iter_mut().enumerate().take(dirs) {
                if let Some(dst) = ops.downstream(dir) {
                    let t = tag(k - 1, ops.wire_dir(dir));
                    *slot = pack_send(comm, ops, obs, dst, t, dir, k - 1, true)
                        .map_err(|e| EngineError::from_comm(rank, e))?;
                }
            }
        }
        // Wait for this tile's inputs, then compute.
        for (dir, slot) in cur_recv.iter_mut().enumerate().take(dirs) {
            if let Some(req) = slot.take() {
                // src/tag are carried by the request; placeholders are
                // only used when req is None, which it is not here.
                recv_unpack(comm, ops, obs, 0, 0, dir, k, Some(req))
                    .map_err(|e| EngineError::from_comm(rank, e))?;
            }
        }
        if k < steps {
            timed(obs, Phase::Compute { step: k }, || ops.compute(k));
        }
        for (dir, slot) in sends.iter_mut().enumerate().take(dirs) {
            if let Some(req) = slot.take() {
                timed(obs, Phase::WaitSend { dir, step: k - 1 }, || {
                    comm.wait_send(req)
                })
                .map_err(|e| EngineError::from_comm(rank, e))?;
            }
        }
        std::mem::swap(&mut cur_recv, &mut next_recv);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    struct FakeOps {
        dirs: usize,
        computed: usize,
    }

    impl TileOps for FakeOps {
        fn num_dirs(&self) -> usize {
            self.dirs
        }
        fn upstream(&self, _dir: usize) -> Option<usize> {
            None
        }
        fn downstream(&self, _dir: usize) -> Option<usize> {
            None
        }
        fn wire_dir(&self, dir: usize) -> u64 {
            dir as u64
        }
        fn face_len(&self, _dir: usize, _step: usize) -> usize {
            0
        }
        fn pack_into(&mut self, _dir: usize, _step: usize, _out: &mut [f32]) {}
        fn unpack_from(&mut self, _dir: usize, _step: usize, _data: &[f32]) {}
        fn compute(&mut self, _step: usize) {
            self.computed += 1;
        }
    }

    #[test]
    fn too_many_directions_is_a_typed_error_not_a_panic() {
        use msgpass::prelude::*;
        for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
            let plan = mode.step_plan(3, 2, 4);
            let (results, _) =
                run_threads::<f32, _, _>(1, LatencyModel::zero(), move |mut comm| {
                    let mut ops = FakeOps {
                        dirs: MAX_DIRS + 1,
                        computed: 0,
                    };
                    run_rank(&mut comm, &mut ops, &plan, &mut NoopObserver)
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
        use msgpass::prelude::*;
        // Regression: the overlap epilogue addresses tile `steps - 1`,
        // which used to underflow for an empty pipeline.
        for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
            let plan = mode.step_plan(3, 2, 0);
            let (results, _) =
                run_threads::<f32, _, _>(1, LatencyModel::zero(), move |mut comm| {
                    let mut ops = FakeOps {
                        dirs: 2,
                        computed: 0,
                    };
                    run_rank(&mut comm, &mut ops, &plan, &mut NoopObserver).map(|()| ops.computed)
                });
            assert_eq!(results[0], Ok(0));
        }
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
    fn lane_stats_accumulate_and_summarize() {
        let mut s = LaneStats::new(2);
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_micros(10);
        let t2 = t0 + std::time::Duration::from_micros(14);
        s.on_phase(Phase::Compute { step: 0 }, t0, t1);
        s.on_phase(Phase::WaitRecv { dir: 0, step: 1 }, t1, t2);
        assert!((s.cpu_us[0] - 10.0).abs() < 1e-6);
        assert!((s.comm_us[1] - 4.0).abs() < 1e-6);
        let (a_mean, a_max, b_mean, b_max) = LaneStats::summarize(&[s]);
        assert!((a_mean - 5.0).abs() < 1e-6); // steps 0 and 1 average
        assert!((a_max - 10.0).abs() < 1e-6);
        assert!((b_mean - 2.0).abs() < 1e-6);
        assert!((b_max - 4.0).abs() < 1e-6);
    }
}
