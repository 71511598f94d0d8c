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
//! emit through it, and the `stencil` thread executor interprets the
//! programs pre-flight emitted, op by op — so the program pre-flight
//! checks is the program the threads run and the simulator prices.
//!
//! A program is stored **by step**: each distinct step's ops are kept
//! once, with the fields that advance with the step — tag, request
//! handle, compute label — relative to it, and each run of consecutive
//! steps with the same ops is one entry pointing into them. A pipeline
//! of any depth stores a handful of distinct steps (first, interior,
//! around a partial last tile, last) and a handful of runs, so it costs
//! memory by shape, not by step. [`Program::ops`] expands it; the
//! simulator walks it in place with a `(run, slot)` cursor. A
//! hand-written program ([`Program::push`]) is one step, whose ops are
//! stored as written.

use std::fmt;
use tiling_core::schedule::StepStrategy;

/// A process rank.
pub type Rank = usize;

/// A per-rank request handle for non-blocking operations. Handles are
/// local to one rank's program and must be unique within it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ReqId(pub u32);

/// One message-passing or compute operation.
#[derive(Clone, Copy, PartialEq, Debug)]
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

impl Op {
    /// `self` at a step: `tag` added to a message's tag, `req` to a
    /// request handle, `label` to a compute label, all wrapping.
    #[inline]
    fn shift(mut self, tag: u64, req: u32, label: u64) -> Op {
        match &mut self {
            Op::Compute { label: l, .. } => *l = l.wrapping_add(label),
            Op::Send { tag: t, .. } | Op::Recv { tag: t, .. } => *t = t.wrapping_add(tag),
            Op::Isend { tag: t, req: r, .. } | Op::Irecv { tag: t, req: r, .. } => {
                *t = t.wrapping_add(tag);
                r.0 = r.0.wrapping_add(req);
            }
            Op::Wait { req: r } => r.0 = r.0.wrapping_add(req),
        }
        self
    }

    /// The rank a message op names.
    pub(crate) fn peer(&self) -> Option<Rank> {
        match *self {
            Op::Send { to, .. } | Op::Isend { to, .. } => Some(to),
            Op::Recv { from, .. } | Op::Irecv { from, .. } => Some(from),
            Op::Compute { .. } | Op::Wait { .. } => None,
        }
    }
}

/// A run of `count` consecutive pipeline steps with the same ops, the
/// first of them step `k`: each step's `len` ops are the stored ops from
/// `first` on, relative to the step, and it creates `posts` requests,
/// the run's first step from `req` on.
#[derive(Clone, Copy, Debug, Default)]
struct Step {
    k: u32,
    count: u32,
    first: u32,
    len: u32,
    req: u32,
    posts: u32,
}

impl Step {
    /// The run without its first step; empty when that was the last.
    #[inline]
    fn rest(mut self) -> Step {
        self.count -= 1;
        self.k = self.k.wrapping_add(1);
        self.req = self.req.wrapping_add(self.posts);
        self
    }
}

/// A position in a program's walk: op `slot` of the first step of `at`,
/// what is left of the program's `run`-th run (empty past the end).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Cursor {
    run: u32,
    slot: u32,
    at: Step,
}

/// A rank's program, stored by step (see the module documentation).
#[derive(Clone, Default, Debug)]
pub struct Program {
    /// Each distinct step's ops, relative to the step.
    ops: Vec<Op>,
    /// The steps that have ops, in order, a run of equal ones per entry.
    steps: Vec<Step>,
    /// How far a tag advances per step: a face of step `k` travels under
    /// its step-0 tag plus `k · tag_stride`.
    tag_stride: u64,
    next_req: u32,
    len: usize,
    /// Valid, with handles `0..next_req`: by construction
    /// ([`Program::pipeline`]) or renamed (`densify_requests`). A program
    /// that is not stores its ops as written.
    checked: bool,
}

/// A face a pipeline step exchanges: `(peer rank, tag at step 0,
/// bytes)`. The face of step `k` travels under the step-0 tag plus `k`
/// times the pipeline's tag stride.
pub type Face = (Rank, u64, u64);

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

impl StepShape {
    /// Same faces and bit-identical compute time.
    fn same(&self, other: &StepShape) -> bool {
        self.recvs == other.recvs
            && self.sends == other.sends
            && self.compute_us.map(f64::to_bits) == other.compute_us.map(f64::to_bits)
    }
}

/// One rank's pipeline, described step by step.
pub trait StepSource {
    /// Pipeline steps (tiles along the mapping dimension); an event
    /// names its step in 32 bits.
    fn steps(&self) -> u32;

    /// The shape of step `k < steps()`.
    fn step(&mut self, k: usize) -> &StepShape;

    /// One past the last of the steps from `k` on that all have step
    /// `k`'s shape (at least `k + 1`). The emitter asks for the shape of
    /// the first of them only.
    fn same_until(&self, k: usize) -> usize {
        k + 1
    }
}

/// Appends one step's ops to a program's stored ops, relative to the
/// step, counting the requests it creates.
struct Writer<'a> {
    ops: &'a mut Vec<Op>,
    posts: u32,
}

impl Writer<'_> {
    /// Post `faces`, their tags moved by `tag`, through `op`; the first
    /// request they got.
    fn post(&mut self, faces: &[Face], tag: u64, op: fn(Face, ReqId) -> Op) -> u32 {
        let first = self.posts;
        for &(peer, t, bytes) in faces {
            self.ops
                .push(op((peer, t.wrapping_add(tag), bytes), ReqId(self.posts)));
            self.posts += 1;
        }
        first
    }

    fn irecv((from, tag, bytes): Face, req: ReqId) -> Op {
        Op::Irecv {
            from,
            tag,
            bytes,
            req,
        }
    }

    fn isend((to, tag, bytes): Face, req: ReqId) -> Op {
        Op::Isend {
            to,
            tag,
            bytes,
            req,
        }
    }

    /// `Wait` on the `n` requests from `first` on (wrapping), in order.
    fn wait_all(&mut self, first: u32, n: u32) {
        for i in 0..n {
            let req = ReqId(first.wrapping_add(i));
            self.ops.push(Op::Wait { req });
        }
    }

    fn compute(&mut self, us: Option<f64>) {
        if let Some(us) = us {
            self.ops.push(Op::Compute { us, label: 0 });
        }
    }

    /// The ops of step `k` of shape `cur`, whose steps `k−2`, `k−1` and
    /// `k+1` have the shapes `[before, prev, next]` (`None` outside the
    /// pipeline): its first request is 0, a face of step `k + d` has tag
    /// offset `d · stride` and the compute is labelled 0.
    fn step(
        &mut self,
        strategy: StepStrategy,
        stride: u64,
        cur: &StepShape,
        [before, prev, next]: [Option<&StepShape>; 3],
    ) {
        match strategy {
            StepStrategy::Blocking => {
                for &(from, tag, bytes) in &cur.recvs {
                    self.ops.push(Op::Recv { from, tag, bytes });
                }
                self.compute(cur.compute_us);
                for &(to, tag, bytes) in &cur.sends {
                    self.ops.push(Op::Send { to, tag, bytes });
                }
            }
            StepStrategy::Overlap => {
                // The first step posts its own receives (the prologue).
                let mine = match prev {
                    None => self.post(&cur.recvs, 0, Writer::irecv),
                    Some(_) => 0,
                };
                if let Some(next) = next {
                    self.post(&next.recvs, stride, Writer::irecv);
                }
                let sent = self.posts;
                if let Some(prev) = prev {
                    self.post(&prev.sends, stride.wrapping_neg(), Writer::isend);
                }
                // Otherwise the step before posted them: right after its
                // own prologue, ahead of the sends of the step before it.
                let n = cur.recvs.len() as u32;
                let first = match prev {
                    None => mine,
                    Some(_) => 0u32.wrapping_sub(n + before.map_or(0, |s| s.sends.len() as u32)),
                };
                self.wait_all(first, n);
                self.compute(cur.compute_us);
                self.wait_all(sent, self.posts - sent);
                // The last step posts its own sends (the epilogue).
                if next.is_none() {
                    let first = self.posts;
                    self.post(&cur.sends, 0, Writer::isend);
                    self.wait_all(first, self.posts - first);
                }
            }
        }
    }
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
    /// them. A face of step `k` travels under its step-0 tag plus
    /// `k · tag_stride`; the compute of step `k` is labelled `k`. A
    /// pipeline of no steps is the empty program.
    ///
    /// A step's ops depend only on the shapes of steps `k−2 … k+1`, so
    /// the emitter asks the source for the first step of each span of
    /// equal shapes ([`StepSource::same_until`]) and writes the ops of a
    /// span's uniform interior once — work by shape, not by step.
    pub fn pipeline(strategy: StepStrategy, src: &mut impl StepSource, tag_stride: u64) -> Program {
        let steps = src.steps();
        // The distinct shapes, and the spans of steps that share one:
        // `(end, shape)`, each span from the previous one's end.
        let (mut shapes, mut spans) = (Vec::<StepShape>::new(), Vec::<(u32, usize)>::new());
        let mut k = 0;
        while k < steps {
            let end = (src.same_until(k as usize)).clamp(k as usize + 1, steps as usize) as u32;
            let shape = src.step(k as usize);
            let idx = match shapes.iter().position(|s| s.same(shape)) {
                Some(idx) => idx,
                None => {
                    shapes.push(shape.clone());
                    shapes.len() - 1
                }
            };
            match spans.last_mut() {
                Some((last, i)) if *i == idx => *last = end,
                _ => spans.push((end, idx)),
            }
            k = end;
        }
        // Step `k`'s shape and the end of its span.
        let span = |k: i64| {
            let at = spans.partition_point(|&(end, _)| i64::from(end) <= k);
            let &(end, idx) = spans.get(at).filter(|_| k >= 0)?;
            Some((idx, end))
        };
        let mut p = Program {
            tag_stride,
            checked: true,
            ..Program::default()
        };
        let mut k = 0;
        while k < steps {
            let near = |d: i64| span(i64::from(k) + d).map(|(idx, _)| idx);
            let Some((cur, end)) = span(k.into()) else {
                break;
            };
            // The steps from `k` on with its ops: the rest of its span for
            // a blocking step, and for an overlapping one inside a span,
            // all but the span's last.
            let n = match strategy {
                StepStrategy::Blocking => end - k,
                StepStrategy::Overlap if [-2, -1, 1].iter().all(|&d| near(d) == Some(cur)) => {
                    end - 1 - k
                }
                StepStrategy::Overlap => 1,
            };
            let first = p.ops.len();
            let mut w = Writer {
                ops: &mut p.ops,
                posts: 0,
            };
            let shape = |d| near(d).map(|idx| &shapes[idx]);
            w.step(
                strategy,
                tag_stride,
                &shapes[cur],
                [shape(-2), shape(-1), shape(1)],
            );
            let (posts, len) = (w.posts, (p.ops.len() - first) as u32);
            p.checked &= p.ops[first..].iter().all(|op| match *op {
                Op::Compute { us, .. } => us.is_finite() && us >= 0.0,
                _ => true,
            });
            if len > 0 {
                p.steps.push(Step {
                    k,
                    count: n,
                    first: first as u32,
                    len,
                    req: p.next_req,
                    posts,
                });
            }
            p.len += len as usize * n as usize;
            p.next_req = p.next_req.wrapping_add(n.wrapping_mul(posts));
            k += n;
        }
        if !p.checked {
            // A bad compute time, reported where it is written.
            p = Program::written(p.ops().collect(), p.next_req);
        }
        p
    }

    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// `ops` as written: one step, so every op is stored as it executes.
    fn written(ops: Vec<Op>, next_req: u32) -> Program {
        let len = ops.len();
        Program {
            ops,
            steps: vec![Step {
                count: 1,
                len: len as u32,
                ..Step::default()
            }],
            next_req,
            len,
            ..Program::default()
        }
    }

    /// Append an operation, as written. An emitted pipeline of more than
    /// one step is expanded into one step first.
    pub fn push(&mut self, op: Op) {
        let written = matches!(self.steps[..], [Step { k: 0, count: 1, first: 0, req: 0, len, .. }]
            if len as usize == self.ops.len());
        if !written {
            *self = Program::written(self.ops().collect(), self.next_req);
        }
        self.steps[0].len += 1;
        self.ops.push(op);
        self.len += 1;
        self.checked = false;
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

    /// The operations, in program order: the expansion of the stored
    /// steps.
    pub fn ops(&self) -> Ops<'_> {
        Ops {
            p: self,
            at: self.cursor(),
            left: self.len,
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the program has no operations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many operations satisfy `pred`, counted over the stored steps:
    /// a run's ops are tested as its first step executes them and count
    /// once per step of the run, so `pred` must hold alike for every
    /// step (an op's kind and peer do; its tag, request and label move).
    pub fn count_ops(&self, pred: impl Fn(Op) -> bool) -> usize {
        let per_run = |s: &Step| {
            let ops = (s.first..s.first + s.len).map(|i| self.resolve(i, s.k, s.req));
            ops.filter(|&op| pred(op)).count() * s.count as usize
        };
        self.steps.iter().map(per_run).sum()
    }

    /// Operations actually stored: each distinct step's once. An emitted
    /// pipeline stores a handful of steps however many it has.
    #[cfg(test)]
    pub(crate) fn stored_ops(&self) -> usize {
        self.ops.len()
    }

    /// The stored ops.
    pub(crate) fn stored(&self) -> impl Iterator<Item = &Op> {
        self.ops.iter()
    }

    /// Stored op `i` as it executes at step `k` with the step's first
    /// request `req`.
    #[inline]
    pub(crate) fn resolve(&self, i: u32, k: u32, req: u32) -> Op {
        let tag = u64::from(k).wrapping_mul(self.tag_stride);
        self.ops[i as usize].shift(tag, req, k.into())
    }

    /// A cursor at the first op.
    pub(crate) fn cursor(&self) -> Cursor {
        let at = self.steps.first().copied().unwrap_or_default();
        Cursor {
            at,
            ..Cursor::default()
        }
    }

    /// The op at `c` as it executes, the index of its stored op and its
    /// step; `None` past the end.
    #[inline]
    pub(crate) fn at(&self, c: &Cursor) -> Option<(Op, u32, u32)> {
        let (s, i) = (c.at, c.at.first + c.slot);
        (c.slot < s.len).then(|| (self.resolve(i, s.k, s.req), i, s.k))
    }

    /// Move `c` to the next op.
    #[inline]
    pub(crate) fn advance(&self, c: &mut Cursor) {
        c.slot += 1;
        if c.slot == c.at.len {
            c.slot = 0;
            c.at = if c.at.count > 1 {
                c.at.rest()
            } else {
                c.run += 1;
                self.steps.get(c.run as usize).copied().unwrap_or_default()
            };
        }
    }

    /// Static sanity check: every `Wait` refers to a request created by
    /// an earlier `Isend`/`Irecv`, no request is created or waited
    /// twice, and every `Compute` has a finite non-negative duration.
    /// A handle created twice is reported before anything else.
    pub fn validate(&self) -> Result<(), ProgramError> {
        if self.checked {
            return Ok(());
        }
        request_slots(&self.ops).map(|_| ())
    }

    /// [`Program::validate`], then rename every request handle to its
    /// dense slot `0..n` (handles in ascending order) and return `n`:
    /// the engine keeps request state in a `Vec` indexed by slot, so a
    /// hand-written `ReqId(u32::MAX)` costs one entry, not 4 G. An
    /// emitted pipeline is dense already and is left as it is.
    pub(crate) fn densify_requests(&mut self) -> Result<usize, ProgramError> {
        if self.checked {
            return Ok(self.next_req as usize);
        }
        let (slots, count) = request_slots(&self.ops)?;
        for (op, slot) in self.ops.iter_mut().zip(slots) {
            if let Op::Isend { req, .. } | Op::Irecv { req, .. } | Op::Wait { req } = op {
                *req = ReqId(slot);
            }
        }
        self.next_req = count as u32;
        self.checked = true;
        Ok(count)
    }
}

/// The expansion of a [`Program`], op by op ([`Program::ops`]).
#[derive(Clone, Debug)]
pub struct Ops<'a> {
    p: &'a Program,
    at: Cursor,
    left: usize,
}

impl Iterator for Ops<'_> {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        let (op, ..) = self.p.at(&self.at)?;
        self.p.advance(&mut self.at);
        self.left -= 1;
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }

    /// Step by step: each step's stored ops, resolved.
    fn fold<B, F: FnMut(B, Op) -> B>(self, mut acc: B, mut f: F) -> B {
        let (p, mut c) = (self.p, self.at);
        while c.at.count > 0 {
            let s = c.at;
            for i in s.first + c.slot..s.first + s.len {
                acc = f(acc, p.resolve(i, s.k, s.req));
            }
            // Past the step's last op: on to the next step.
            c.slot = s.len - 1;
            p.advance(&mut c);
        }
        acc
    }
}

impl ExactSizeIterator for Ops<'_> {}

/// The checks of [`Program::validate`] on dense indices: per op, the
/// slot of the request it names (0 for ops that name none), and the
/// number of slots.
fn request_slots(ops: &[Op]) -> Result<(Vec<u32>, usize), ProgramError> {
    // (handle, creating op) in handle order: the position is the slot.
    let mut created: Vec<(ReqId, usize)> = ops
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
    // Helper-made programs number their handles 0, 1, 2, …: the handle
    // is its own slot and the search below never runs.
    let slot_of = |req: ReqId| {
        let guess = req.0 as usize;
        if created.get(guess).is_some_and(|c| c.0 == req) {
            return Some(guess);
        }
        let slot = created.partition_point(|c| c.0 < req);
        (created.get(slot)?.0 == req).then_some(slot)
    };
    let mut waited = vec![false; created.len()];
    let mut slots = vec![0u32; ops.len()];
    for (slot, &(_, idx)) in created.iter().enumerate() {
        slots[idx] = slot as u32;
    }
    for (idx, op) in ops.iter().enumerate() {
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
            .map(|op| match op {
                Op::Irecv { req, .. } | Op::Wait { req } => req.0,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(reqs, [2, 1, 0, 1, 2]);
        // Dense already: renaming is the identity.
        let before = p.clone();
        assert_eq!(p.densify_requests(), Ok(3));
        assert!(p.ops().eq(before.ops()));
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
        // An emitted one is reported at its first bad op.
        let mut src = Uniform::new(4);
        src.shape.compute_us = Some(f64::NAN);
        let p = Program::pipeline(StepStrategy::Overlap, &mut src, 2);
        assert_eq!(p.validate(), Err(ProgramError::BadCompute { idx: 3 }));
    }

    #[test]
    fn error_display() {
        let e = ProgramError::DoubleWait {
            idx: 3,
            req: ReqId(1),
        };
        assert!(e.to_string().contains("op #3"));
    }

    /// `steps` steps, each receiving a face from rank 0 and sending one
    /// to rank 2 under step-0 tag 1, computing 5 µs.
    struct Uniform {
        steps: usize,
        shape: StepShape,
    }

    impl Uniform {
        fn new(steps: usize) -> Self {
            let shape = StepShape {
                recvs: vec![(0, 1, 64)],
                sends: vec![(2, 1, 64)],
                compute_us: Some(5.0),
            };
            Uniform { steps, shape }
        }
    }

    impl StepSource for Uniform {
        fn steps(&self) -> u32 {
            self.steps as u32
        }
        fn step(&mut self, _k: usize) -> &StepShape {
            &self.shape
        }
        fn same_until(&self, _k: usize) -> usize {
            self.steps
        }
    }

    #[test]
    fn count_ops_counts_the_expansion() {
        let mut written = Program::new();
        written.compute(1.0, 0);
        let r = written.isend(1, 7, 8);
        written.wait(r);
        for strategy in [StepStrategy::Blocking, StepStrategy::Overlap] {
            let p = Program::pipeline(strategy, &mut Uniform::new(1000), 2);
            for q in [&p, &written] {
                let compute: fn(&Op) -> bool = |op| matches!(op, Op::Compute { .. });
                for kind in [compute, |op| op.peer() == Some(2)] {
                    let expanded = q.ops().filter(kind).count();
                    assert_eq!(q.count_ops(|op| kind(&op)), expanded, "{strategy:?}");
                }
            }
        }
    }

    #[test]
    fn the_expansion_moves_tags_requests_and_labels_with_the_step() {
        let p = Program::pipeline(StepStrategy::Overlap, &mut Uniform::new(3), 2);
        let irecv = |tag, req| Op::Irecv {
            from: 0,
            tag,
            bytes: 64,
            req: ReqId(req),
        };
        let isend = |tag, req| Op::Isend {
            to: 2,
            tag,
            bytes: 64,
            req: ReqId(req),
        };
        let wait = |req| Op::Wait { req: ReqId(req) };
        let compute = |label| Op::Compute { us: 5.0, label };
        let expected = [
            // Step 0: the prologue, the receive of step 1, compute.
            irecv(1, 0),
            irecv(3, 1),
            wait(0),
            compute(0),
            // Step 1: receive step 2, send step 0's result.
            irecv(5, 2),
            isend(1, 3),
            wait(1),
            compute(1),
            wait(3),
            // Step 2: send step 1's result, then the epilogue.
            isend(3, 4),
            wait(2),
            compute(2),
            wait(4),
            isend(5, 5),
            wait(5),
        ];
        assert_eq!(p.ops().collect::<Vec<_>>(), expected);
        assert_eq!(p.len(), expected.len());
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn a_pipeline_is_stored_once_per_distinct_step() {
        for strategy in [StepStrategy::Blocking, StepStrategy::Overlap] {
            let p = Program::pipeline(strategy, &mut Uniform::new(10_000), 2);
            // First, interior and last steps: a few stored, not 10 000.
            assert!(p.stored_ops() <= 24, "{strategy:?}: {}", p.stored_ops());
            assert_eq!(p.ops().len(), p.len());
            assert_eq!(p.ops().count(), p.len());
        }
        assert!(Program::pipeline(StepStrategy::Overlap, &mut Uniform::new(0), 2).is_empty());
    }

    #[test]
    fn a_held_pipeline_costs_memory_by_shape_not_by_step() {
        // One face in, one out per step: ProcB is 3 ops a step, ProcNB 5
        // (4 in the first step, 6 in the last).
        let steps = 1 << 24;
        for (strategy, per_step) in [(StepStrategy::Blocking, 3), (StepStrategy::Overlap, 5)] {
            let p = Program::pipeline(strategy, &mut Uniform::new(steps), 2);
            assert!(p.steps.len() <= 4, "{strategy:?}: {} runs", p.steps.len());
            assert!(p.stored_ops() <= 24, "{strategy:?}: {}", p.stored_ops());
            assert_eq!(p.len(), per_step * steps, "{strategy:?}");
            assert_eq!(p.ops().len(), p.len(), "{strategy:?}");
        }
    }

    #[test]
    fn pushing_onto_a_pipeline_expands_it_and_appends_as_written() {
        let mut p = Program::pipeline(StepStrategy::Overlap, &mut Uniform::new(4), 2);
        let mut expected: Vec<Op> = p.ops().collect();
        let r = p.isend(7, 1_000, 8);
        p.wait(r);
        p.compute(1.5, 99);
        // Expanded into one step, as written.
        assert_eq!(p.stored_ops(), p.len());
        expected.extend([
            Op::Isend {
                to: 7,
                tag: 1_000,
                bytes: 8,
                req: r,
            },
            Op::Wait { req: r },
            Op::Compute { us: 1.5, label: 99 },
        ]);
        assert_eq!(p.ops().collect::<Vec<_>>(), expected);
        assert_eq!(p.validate(), Ok(()));
        // The engine's renaming keeps the expansion.
        let mut dense = p.clone();
        assert_eq!(dense.densify_requests(), Ok(r.0 as usize + 1));
        assert!(dense.ops().eq(p.ops()));
    }
}
