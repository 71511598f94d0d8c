//! Per-rank operation programs.
//!
//! Writing schedule executors as coroutines inside a discrete-event
//! simulator is awkward in Rust, so the simulator instead *interprets*
//! a straight-line program of message-passing operations per rank —
//! exactly the shape of the paper's `ProcB` (blocking) and `ProcNB`
//! (non-blocking) pseudocode in §5.
//!
//! [`Program::pipeline`] is the one place that loop is written: it
//! unrolls a rank's pipeline, described step by step by a
//! [`StepSource`], into that op sequence. The simulator's builders
//! ([`crate::builders`]) and the `analyzer` crate's pre-flight both
//! emit through it, so the program pre-flight checks is the program the
//! simulator prices.

use std::fmt;
use std::ops::Range;
use tiling_core::schedule::StepStrategy;

/// A process rank.
pub type Rank = usize;

/// A per-rank request handle for non-blocking operations. Handles are
/// local to one rank's program and must be unique within it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ReqId(pub u32);

/// One message-passing or compute operation.
#[derive(Clone, PartialEq, Debug)]
pub enum Op {
    /// Busy the CPU for a given number of microseconds (a tile
    /// computation).
    Compute {
        /// CPU time in µs.
        us: f64,
        /// Opaque label for traces (e.g. the tile's step).
        label: u64,
    },
    /// Blocking send (`MPI_Send`): the CPU walks the full user→kernel
    /// copy path and the wire transmission before continuing (Fig. 7).
    Send {
        /// Destination rank.
        to: Rank,
        /// Match tag.
        tag: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// Blocking receive (`MPI_Recv`): blocks until the matching message
    /// has arrived, then pays the copy path.
    Recv {
        /// Source rank.
        from: Rank,
        /// Match tag.
        tag: u64,
        /// Payload bytes (must equal the sender's).
        bytes: u64,
    },
    /// Non-blocking send (`MPI_Isend`): the CPU pays only the MPI-buffer
    /// fill (`A₁`); kernel copy and transmission proceed on the NIC/DMA
    /// lanes (`B₃`, `B₄`).
    Isend {
        /// Destination rank.
        to: Rank,
        /// Match tag.
        tag: u64,
        /// Payload bytes.
        bytes: u64,
        /// Completion handle.
        req: ReqId,
    },
    /// Non-blocking receive (`MPI_Irecv`): the CPU pays the MPI-buffer
    /// preparation (`A₃`); delivery happens on the receive lanes
    /// (`B₁`, `B₂`).
    Irecv {
        /// Source rank.
        from: Rank,
        /// Match tag.
        tag: u64,
        /// Payload bytes (must equal the sender's).
        bytes: u64,
        /// Completion handle.
        req: ReqId,
    },
    /// Block until the given request completes (`MPI_Wait`).
    Wait {
        /// Handle to wait for.
        req: ReqId,
    },
}

/// A rank's full (unrolled) program.
#[derive(Clone, Default, Debug)]
pub struct Program {
    ops: Vec<Op>,
    next_req: u32,
}

/// A face a pipeline step exchanges: `(peer rank, direction, bytes)`.
/// The direction indexes the source's own faces and, with the step,
/// names the message's tag.
pub type Face = (Rank, usize, u64);

/// What one pipeline step of one rank receives, computes and sends.
#[derive(Clone, Debug, Default)]
pub struct StepShape {
    /// Faces received before the tile computes, in direction order.
    pub recvs: Vec<Face>,
    /// Faces of the tile's results, in direction order.
    pub sends: Vec<Face>,
    /// The tile's compute time in µs; `None` for an empty tile.
    pub compute_us: Option<f64>,
}

/// One rank's pipeline, described step by step.
pub trait StepSource {
    /// Pipeline steps (tiles along the mapping dimension).
    fn steps(&self) -> usize;

    /// The shape of step `k < steps()`.
    fn step(&mut self, k: usize) -> &StepShape;
}

impl Program {
    /// The §5 program of one rank's pipeline: `ProcB` for
    /// [`StepStrategy::Blocking`] — per step *receive → compute → send*
    /// with blocking primitives — and `ProcNB` for
    /// [`StepStrategy::Overlap`]: after a prologue posting the receives
    /// of step 0, each step `k`
    ///
    /// 1. posts `Irecv`s for the inputs of tile `k+1`,
    /// 2. posts `Isend`s of the results of tile `k−1`,
    /// 3. waits the receives of tile `k`, computes tile `k`,
    /// 4. waits the sends of tile `k−1` (buffers reusable),
    ///
    /// and an epilogue posts every send of the last tile, then waits
    /// them. `tag(k, dir)` is the tag of the `dir`-face of step `k`. A
    /// pipeline of no steps is the empty program.
    pub fn pipeline(
        strategy: StepStrategy,
        src: &mut impl StepSource,
        tag: impl Fn(usize, usize) -> u64,
    ) -> Program {
        let steps = src.steps();
        if steps == 0 {
            return Program::new();
        }
        let first = src.step(0);
        let faces = first.recvs.len() + first.sends.len();
        match strategy {
            StepStrategy::Blocking => {
                let mut p = Program::with_capacity(steps * (1 + faces));
                for k in 0..steps {
                    let step = src.step(k);
                    for &(from, dir, bytes) in &step.recvs {
                        p.recv(from, tag(k, dir), bytes);
                    }
                    if let Some(us) = step.compute_us {
                        p.compute(us, k as u64);
                    }
                    for &(to, dir, bytes) in &step.sends {
                        p.send(to, tag(k, dir), bytes);
                    }
                }
                p
            }
            StepStrategy::Overlap => {
                let mut p = Program::with_capacity(steps * (1 + 2 * faces));
                let mut recvs = p.post(&src.step(0).recvs, 0, &tag, Program::irecv);
                for k in 0..steps {
                    let next = if k + 1 < steps {
                        p.post(&src.step(k + 1).recvs, k + 1, &tag, Program::irecv)
                    } else {
                        0..0
                    };
                    let sent = if k >= 1 {
                        p.post(&src.step(k - 1).sends, k - 1, &tag, Program::isend)
                    } else {
                        0..0
                    };
                    p.wait_all(std::mem::replace(&mut recvs, next));
                    if let Some(us) = src.step(k).compute_us {
                        p.compute(us, k as u64);
                    }
                    p.wait_all(sent);
                }
                let sent = p.post(&src.step(steps - 1).sends, steps - 1, &tag, Program::isend);
                p.wait_all(sent);
                p
            }
        }
    }

    /// Post `faces` of step `k` through `op` (`irecv` or `isend`): the
    /// requests they got, which are consecutive.
    fn post(
        &mut self,
        faces: &[Face],
        k: usize,
        tag: &impl Fn(usize, usize) -> u64,
        op: fn(&mut Program, Rank, u64, u64) -> ReqId,
    ) -> Range<u32> {
        let first = self.next_req;
        for &(peer, dir, bytes) in faces {
            op(self, peer, tag(k, dir), bytes);
        }
        first..self.next_req
    }

    /// `Wait` on every request of `reqs`, in order.
    fn wait_all(&mut self, reqs: Range<u32>) {
        for req in reqs {
            self.wait(ReqId(req));
        }
    }

    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// An empty program with room for `ops` operations.
    pub fn with_capacity(ops: usize) -> Self {
        Program {
            ops: Vec::with_capacity(ops),
            next_req: 0,
        }
    }

    /// Append an operation.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Allocate a fresh request handle.
    pub fn fresh_req(&mut self) -> ReqId {
        let r = ReqId(self.next_req);
        self.next_req += 1;
        r
    }

    /// Convenience: append `Compute`.
    pub fn compute(&mut self, us: f64, label: u64) {
        self.push(Op::Compute { us, label });
    }

    /// Convenience: append a blocking `Send`.
    pub fn send(&mut self, to: Rank, tag: u64, bytes: u64) {
        self.push(Op::Send { to, tag, bytes });
    }

    /// Convenience: append a blocking `Recv`.
    pub fn recv(&mut self, from: Rank, tag: u64, bytes: u64) {
        self.push(Op::Recv { from, tag, bytes });
    }

    /// Convenience: append `Isend`, returning its request handle.
    pub fn isend(&mut self, to: Rank, tag: u64, bytes: u64) -> ReqId {
        let req = self.fresh_req();
        self.push(Op::Isend {
            to,
            tag,
            bytes,
            req,
        });
        req
    }

    /// Convenience: append `Irecv`, returning its request handle.
    pub fn irecv(&mut self, from: Rank, tag: u64, bytes: u64) -> ReqId {
        let req = self.fresh_req();
        self.push(Op::Irecv {
            from,
            tag,
            bytes,
            req,
        });
        req
    }

    /// Convenience: append `Wait`.
    pub fn wait(&mut self, req: ReqId) {
        self.push(Op::Wait { req });
    }

    /// The operations.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True iff the program has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Static sanity check: every `Wait` refers to a request created by
    /// an earlier `Isend`/`Irecv`, no request is created or waited
    /// twice, and every `Compute` has a finite non-negative duration.
    /// A handle created twice is reported before anything else.
    pub fn validate(&self) -> Result<(), ProgramError> {
        self.request_slots().map(|_| ())
    }

    /// [`Program::validate`], then rename every request handle to its
    /// dense slot `0..n` (handles in ascending order) and return `n`:
    /// the engine keeps request state in a `Vec` indexed by slot, so a
    /// hand-written `ReqId(u32::MAX)` costs one entry, not 4 G.
    pub(crate) fn densify_requests(&mut self) -> Result<usize, ProgramError> {
        let (slots, count) = self.request_slots()?;
        for (op, slot) in self.ops.iter_mut().zip(slots) {
            if let Op::Isend { req, .. } | Op::Irecv { req, .. } | Op::Wait { req } = op {
                *req = ReqId(slot);
            }
        }
        Ok(count)
    }

    /// The checks of [`Program::validate`] on dense indices: per op, the
    /// slot of the request it names (0 for ops that name none), and the
    /// number of slots.
    fn request_slots(&self) -> Result<(Vec<u32>, usize), ProgramError> {
        // (handle, creating op) in handle order: the position is the slot.
        let mut created: Vec<(ReqId, usize)> = self
            .ops
            .iter()
            .enumerate()
            .filter_map(|(idx, op)| match op {
                Op::Isend { req, .. } | Op::Irecv { req, .. } => Some((*req, idx)),
                _ => None,
            })
            .collect();
        created.sort_unstable();
        let duplicate = created
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .map(|w| w[1])
            .min_by_key(|&(_, idx)| idx);
        if let Some((req, idx)) = duplicate {
            return Err(ProgramError::DuplicateRequest { idx, req });
        }
        // Builder-made programs number their handles 0, 1, 2, …: the
        // handle is its own slot and the search below never runs.
        let slot_of = |req: ReqId| {
            let guess = req.0 as usize;
            if created.get(guess).is_some_and(|c| c.0 == req) {
                return Some(guess);
            }
            let slot = created.partition_point(|c| c.0 < req);
            (created.get(slot)?.0 == req).then_some(slot)
        };
        let mut waited = vec![false; created.len()];
        let mut slots = vec![0u32; self.ops.len()];
        for (slot, &(_, idx)) in created.iter().enumerate() {
            slots[idx] = slot as u32;
        }
        for (idx, op) in self.ops.iter().enumerate() {
            match op {
                Op::Wait { req } => {
                    let slot = slot_of(*req)
                        .filter(|&slot| created[slot].1 < idx)
                        .ok_or(ProgramError::WaitBeforeCreate { idx, req: *req })?;
                    if std::mem::replace(&mut waited[slot], true) {
                        return Err(ProgramError::DoubleWait { idx, req: *req });
                    }
                    slots[idx] = slot as u32;
                }
                Op::Compute { us, .. } if (!us.is_finite() || *us < 0.0) => {
                    return Err(ProgramError::BadCompute { idx });
                }
                _ => {}
            }
        }
        Ok((slots, created.len()))
    }
}

/// Static program validation errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProgramError {
    /// A request handle was used by two `Isend`/`Irecv` operations.
    DuplicateRequest {
        /// Op index.
        idx: usize,
        /// Offending handle.
        req: ReqId,
    },
    /// A `Wait` refers to a handle not yet created.
    WaitBeforeCreate {
        /// Op index.
        idx: usize,
        /// Offending handle.
        req: ReqId,
    },
    /// A handle was waited on twice.
    DoubleWait {
        /// Op index.
        idx: usize,
        /// Offending handle.
        req: ReqId,
    },
    /// A `Compute` has a negative or non-finite duration.
    BadCompute {
        /// Op index.
        idx: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::DuplicateRequest { idx, req } => {
                write!(f, "op #{idx}: request {req:?} created twice")
            }
            ProgramError::WaitBeforeCreate { idx, req } => {
                write!(f, "op #{idx}: wait on uncreated request {req:?}")
            }
            ProgramError::DoubleWait { idx, req } => {
                write!(f, "op #{idx}: request {req:?} waited twice")
            }
            ProgramError::BadCompute { idx } => write!(f, "op #{idx}: bad compute duration"),
        }
    }
}

impl std::error::Error for ProgramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_helpers() {
        let mut p = Program::new();
        p.compute(10.0, 0);
        let r = p.isend(1, 7, 100);
        p.wait(r);
        assert_eq!(p.len(), 3);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn fresh_reqs_are_unique() {
        let mut p = Program::new();
        let a = p.fresh_req();
        let b = p.fresh_req();
        assert_ne!(a, b);
    }

    #[test]
    fn wait_before_create_rejected() {
        let mut p = Program::new();
        p.wait(ReqId(0));
        assert!(matches!(
            p.validate(),
            Err(ProgramError::WaitBeforeCreate { .. })
        ));
    }

    #[test]
    fn double_wait_rejected() {
        let mut p = Program::new();
        let r = p.isend(0, 0, 8);
        p.wait(r);
        p.wait(r);
        assert!(matches!(p.validate(), Err(ProgramError::DoubleWait { .. })));
    }

    #[test]
    fn duplicate_request_rejected() {
        let mut p = Program::new();
        p.push(Op::Isend {
            to: 0,
            tag: 0,
            bytes: 1,
            req: ReqId(5),
        });
        p.push(Op::Irecv {
            from: 0,
            tag: 1,
            bytes: 1,
            req: ReqId(5),
        });
        assert!(matches!(
            p.validate(),
            Err(ProgramError::DuplicateRequest { .. })
        ));
    }

    #[test]
    fn sparse_handles_validate_and_densify_in_handle_order() {
        let mut p = Program::new();
        for (tag, req) in [(0, ReqId(u32::MAX)), (1, ReqId(40)), (2, ReqId(0))] {
            p.push(Op::Irecv {
                from: 0,
                tag,
                bytes: 1,
                req,
            });
        }
        p.wait(ReqId(40));
        p.wait(ReqId(u32::MAX));
        assert!(p.validate().is_ok());
        assert_eq!(p.densify_requests(), Ok(3));
        let reqs: Vec<u32> = p
            .ops()
            .iter()
            .map(|op| match op {
                Op::Irecv { req, .. } | Op::Wait { req } => req.0,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(reqs, [2, 1, 0, 1, 2]);
        // Dense already: renaming is the identity.
        let before = p.clone();
        assert_eq!(p.densify_requests(), Ok(3));
        assert_eq!(p.ops(), before.ops());
    }

    #[test]
    fn wait_ahead_of_its_creation_rejected() {
        let mut p = Program::new();
        p.wait(ReqId(0));
        let _ = p.isend(0, 0, 8);
        assert_eq!(
            p.validate(),
            Err(ProgramError::WaitBeforeCreate {
                idx: 0,
                req: ReqId(0)
            })
        );
    }

    #[test]
    fn bad_compute_rejected() {
        let mut p = Program::new();
        p.compute(f64::NAN, 0);
        assert!(matches!(p.validate(), Err(ProgramError::BadCompute { .. })));
    }

    #[test]
    fn error_display() {
        let e = ProgramError::DoubleWait {
            idx: 3,
            req: ReqId(1),
        };
        assert!(e.to_string().contains("op #3"));
    }
}
