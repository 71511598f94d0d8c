//! The three pre-flight checks: schedule legality against the
//! dependence set, then, over the per-rank [`Program`]s (indexed by
//! rank), send/receive matching and deadlock detection by SCC analysis
//! of the cross-rank wait-for graph.
//!
//! A message's *step* is its ordinal among the sends — or among the
//! receives — on its `(from, to)` channel, in program order. Each
//! channel of a pipeline carries one face per step, so this is the
//! pipeline step. Lengths are reported in elements, `bytes /`
//! [`ELEM_BYTES`].

use crate::error::{AnalysisError, Tag, WaitPoint};
use crate::plan::{programs, RankTopology, ELEM_BYTES};
use cluster_sim::program::{Op, Program, ReqId};
use std::collections::HashMap;
use tiling_core::dependence::DependenceSet;
use tiling_core::schedule::{StepPlan, TileSchedule};

/// What a successful analysis proved, plus the plan's headline numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Ranks in the world.
    pub ranks: usize,
    /// Pipeline steps per rank.
    pub steps: usize,
    /// Ops across all rank programs.
    pub events: usize,
    /// Matched send/receive pairs.
    pub messages: usize,
    /// Time hyperplanes of the plan over this topology — the eq. 3 /
    /// eq. 4 `P(g)` computed from [`StepPlan::logical_time`] at the
    /// topology's deepest cross-rank hop count.
    pub logical_makespan: i64,
}

/// Check the schedule against the dependence set: the first
/// dependence `d^S` that [`TileSchedule::first_violation`] finds
/// advancing less than its lag is [`AnalysisError::IllegalSchedule`]
/// when `Π·d^S ≤ 0`, and otherwise — a cross-processor dependence of an
/// overlap schedule that advances one step where its face spends one in
/// flight (eq. 4) — [`AnalysisError::OverlapOrderingViolation`].
pub fn check_schedule(schedule: &TileSchedule, deps: &DependenceSet) -> Result<(), AnalysisError> {
    let Some((d, dot)) = schedule.first_violation(deps) else {
        return Ok(());
    };
    let (pi, dep) = (schedule.pi(), d.components().to_vec());
    Err(if dot <= 0 {
        AnalysisError::IllegalSchedule { pi, dep, dot }
    } else {
        AnalysisError::OverlapOrderingViolation { pi, dep, dot }
    })
}

/// A flattened message endpoint, sortable by channel for the
/// merge-based matcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Endpoint {
    from: usize,
    to: usize,
    tag: Tag,
    step: usize,
    len: usize,
}

/// Match every staged send against its peer's receive on (source,
/// destination, tag), in channel order, verifying lengths. Returns the
/// matched-message count.
///
/// The matcher flattens both sides into two pre-sized vectors and
/// merge-walks them sorted — no per-channel maps — so a passing check
/// performs a constant number of allocations regardless of plan depth.
/// A plan with more message ends than it can hold is
/// [`AnalysisError::TooManyMessages`], found before anything is
/// allocated.
pub fn check_matching(programs: &[Program]) -> Result<usize, AnalysisError> {
    let sides = ends(programs)?;
    let (mut sends, mut recvs) = (Vec::new(), Vec::new());
    let room = sends.try_reserve_exact(sides[SEND]);
    room.and(recvs.try_reserve_exact(sides[RECV]))
        .map_err(|_| too_many(sides))?;
    // This rank's peers, each with how many messages it sent to and
    // received from it so far: per side, the next message's step.
    let mut seen: Vec<(usize, [usize; 2])> = Vec::new();
    for (rank, p) in programs.iter().enumerate() {
        seen.clear();
        // Internal iteration walks the program step by step.
        p.ops()
            .filter_map(end_of)
            .for_each(|(side, peer, tag, bytes)| {
                let at = match seen.iter().position(|&(q, _)| q == peer) {
                    Some(at) => at,
                    None => {
                        seen.push((peer, [0, 0]));
                        seen.len() - 1
                    }
                };
                let (from, to, list) = match side {
                    SEND => (rank, peer, &mut sends),
                    _ => (peer, rank, &mut recvs),
                };
                list.push(Endpoint {
                    from,
                    to,
                    tag,
                    step: seen[at].1[side],
                    len: (bytes / ELEM_BYTES) as usize,
                });
                seen[at].1[side] += 1;
            });
    }
    sends.sort_unstable();
    recvs.sort_unstable();

    let channel = |e: &Endpoint| (e.from, e.to, e.tag);
    let mut orphan_sends: Vec<Endpoint> = Vec::new();
    let mut orphan_recvs: Vec<Endpoint> = Vec::new();
    let mut size_mismatch: Option<AnalysisError> = None;
    let (mut i, mut j) = (0, 0);
    let mut matched = 0usize;
    while i < sends.len() || j < recvs.len() {
        if j == recvs.len() || (i < sends.len() && channel(&sends[i]) < channel(&recvs[j])) {
            orphan_sends.push(sends[i]);
            i += 1;
        } else if i == sends.len() || channel(&recvs[j]) < channel(&sends[i]) {
            orphan_recvs.push(recvs[j]);
            j += 1;
        } else {
            let (s, r) = (sends[i], recvs[j]);
            if s.len != r.len && size_mismatch.is_none() {
                size_mismatch = Some(AnalysisError::SizeMismatch {
                    from: s.from,
                    to: s.to,
                    tag: s.tag,
                    step: s.step,
                    send_len: s.len,
                    recv_len: r.len,
                });
            }
            matched += 1;
            i += 1;
            j += 1;
        }
    }

    // A tag mismatch explains an orphan pair on the same (sender,
    // receiver, step) channel better than two separate orphan reports.
    for s in &orphan_sends {
        if let Some(r) = orphan_recvs
            .iter()
            .find(|r| r.from == s.from && r.to == s.to && r.step == s.step)
        {
            return Err(AnalysisError::TagMismatch {
                from: s.from,
                to: s.to,
                step: s.step,
                sent: s.tag,
                expected: r.tag,
            });
        }
    }
    if let Some(e) = size_mismatch {
        return Err(e);
    }
    if let Some(s) = orphan_sends.first() {
        return Err(AnalysisError::UnmatchedSend {
            from: s.from,
            to: s.to,
            tag: s.tag,
            step: s.step,
        });
    }
    if let Some(r) = orphan_recvs.first() {
        return Err(AnalysisError::UnmatchedReceive {
            rank: r.to,
            from: r.from,
            tag: r.tag,
            step: r.step,
        });
    }
    Ok(matched)
}

/// The sides of a message end.
const SEND: usize = 0;
const RECV: usize = 1;

/// `op` as one end of a message — `(side, peer, tag, bytes)` — or
/// `None` for a `Compute` and for a `Wait`, which completes the message
/// its `Irecv` registered (counting both would double-book it).
fn end_of(op: Op) -> Option<(usize, usize, Tag, u64)> {
    match op {
        Op::Send { to, tag, bytes } | Op::Isend { to, tag, bytes, .. } => {
            Some((SEND, to, tag, bytes))
        }
        Op::Recv { from, tag, bytes }
        | Op::Irecv {
            from, tag, bytes, ..
        } => Some((RECV, from, tag, bytes)),
        Op::Wait { .. } | Op::Compute { .. } => None,
    }
}

/// Most message ends — sends plus receives — pre-flight holds: a plan
/// with more is [`AnalysisError::TooManyMessages`]. The matcher keeps
/// 40 bytes per end, so this is 1.3 GB of them.
pub const MAX_MESSAGE_ENDS: usize = 1 << 25;

/// How many message ends of each side `programs` hold — counted over
/// their stored steps, so in no time however long the pipeline — or
/// [`AnalysisError::TooManyMessages`] past [`MAX_MESSAGE_ENDS`].
fn ends(programs: &[Program]) -> Result<[usize; 2], AnalysisError> {
    let count = |side| {
        let of = |p: &Program| p.count_ops(|op| end_of(op).is_some_and(|e| e.0 == side));
        programs.iter().map(of).fold(0, usize::saturating_add)
    };
    let sides = [count(SEND), count(RECV)];
    match sides[SEND].saturating_add(sides[RECV]) {
        n if n > MAX_MESSAGE_ENDS => Err(too_many(sides)),
        _ => Ok(sides),
    }
}

/// The error for a plan of `sides` message ends that pre-flight cannot
/// hold.
fn too_many(sides: [usize; 2]) -> AnalysisError {
    AnalysisError::TooManyMessages {
        ends: sides[SEND].saturating_add(sides[RECV]),
    }
}

/// A receive a rank has posted or is blocked in: its peer, tag and op
/// index.
type Awaited = (usize, Tag, usize);

/// One rank's walk: its ops from the one at hand on, how many it has
/// executed, and its receives posted and not yet waited (`Irecv`
/// request and what it awaits).
struct Walk<'a> {
    ops: std::iter::Peekable<cluster_sim::program::Ops<'a>>,
    pc: usize,
    posted: Vec<(ReqId, Awaited)>,
}

impl Walk<'_> {
    /// The receive the op at hand blocks on: a `Recv`'s, or that of the
    /// `Irecv` among `posted` a `Wait` completes. `None` for an op that
    /// never blocks, a `Wait` on an `Isend` among them.
    fn awaited(&mut self) -> Option<Awaited> {
        match *self.ops.peek()? {
            Op::Recv { from, tag, .. } => Some((from, tag, self.pc)),
            Op::Wait { req } => self.posted.iter().find(|(q, _)| *q == req).map(|p| p.1),
            _ => None,
        }
    }
}

/// Symbolically execute the programs under the transport's semantics —
/// sends are eager, a `Recv` blocks until the matching send has
/// executed, and a `Wait` blocks only on an `Irecv`, likewise — and, if
/// execution wedges, extract the deadlock cycle from the strongly
/// connected components of the stuck ranks' wait-for graph.
pub fn check_deadlock(programs: &[Program]) -> Result<(), AnalysisError> {
    let sides = ends(programs)?;
    if sides == [0, 0] {
        // Nothing is ever awaited, however long the programs.
        return Ok(());
    }
    // Per (from, to, tag): sends executed minus receives consumed.
    let mut in_flight: HashMap<(usize, usize, Tag), i64> = HashMap::new();
    (in_flight.try_reserve(sides[SEND])).map_err(|_| too_many(sides))?;
    let mut walks: Vec<Walk<'_>> = (programs.iter())
        .map(|p| Walk {
            ops: p.ops().peekable(),
            pc: 0,
            posted: Vec::new(),
        })
        .collect();
    loop {
        let mut progressed = false;
        let mut all_done = true;
        for (r, w) in walks.iter_mut().enumerate() {
            while let Some(&op) = w.ops.peek() {
                let advance = match op {
                    Op::Send { to, tag, .. } | Op::Isend { to, tag, .. } => {
                        *in_flight.entry((r, to, tag)).or_insert(0) += 1;
                        true
                    }
                    Op::Irecv { from, tag, req, .. } => {
                        w.posted.push((req, (from, tag, w.pc)));
                        true
                    }
                    _ => match w.awaited() {
                        Some((from, tag, _)) => {
                            let slot = in_flight.entry((from, r, tag)).or_insert(0);
                            if *slot > 0 {
                                *slot -= 1;
                                true
                            } else {
                                false
                            }
                        }
                        None => true,
                    },
                };
                if !advance {
                    break;
                }
                if let Op::Wait { req } = op {
                    w.posted.retain(|&(q, _)| q != req);
                }
                w.ops.next();
                w.pc += 1;
                progressed = true;
            }
            all_done &= w.ops.peek().is_none();
        }
        if all_done {
            return Ok(());
        }
        if !progressed {
            return Err(deadlock_cycle(programs, &mut walks));
        }
    }
}

/// Build the wait-for graph of the stuck ranks (each blocks on exactly
/// one peer) and report the first strongly connected component with a
/// cycle; if the stuck set has none (a starvation chain into a
/// finished rank), the whole chain is reported.
fn deadlock_cycle(programs: &[Program], walks: &mut [Walk<'_>]) -> AnalysisError {
    let wait: Vec<Option<WaitPoint>> = (walks.iter_mut().enumerate())
        .map(|(r, w)| {
            let (from, tag, at) = w.awaited()?;
            let step = (programs[r].ops().take(at).filter_map(end_of))
                .filter(|&(side, peer, ..)| side == RECV && peer == from)
                .count();
            Some(WaitPoint {
                rank: r,
                from,
                tag,
                step,
            })
        })
        .collect();
    if let Some(scc) = cyclic_scc(&wait) {
        let cycle = scc
            .into_iter()
            .filter_map(|r| wait[r].clone())
            .collect::<Vec<_>>();
        return AnalysisError::Deadlock { cycle };
    }
    // No cycle: every stuck rank chains into a rank that already
    // finished — report the full starvation chain.
    AnalysisError::Deadlock {
        cycle: wait.into_iter().flatten().collect(),
    }
}

/// Tarjan's strongly-connected-components algorithm over the wait-for
/// graph (each stuck rank has one out-edge, to the peer it waits on).
/// Returns the members of the first SCC that contains a cycle — more
/// than one rank, or a rank waiting on itself — in rank order.
fn cyclic_scc(wait: &[Option<WaitPoint>]) -> Option<Vec<usize>> {
    let n = wait.len();
    let edge = |r: usize| -> Option<usize> {
        wait[r]
            .as_ref()
            .map(|w| w.from)
            .filter(|&peer| peer < n && wait[peer].is_some())
    };
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut found: Option<Vec<usize>> = None;

    // Iterative Tarjan: each frame is (node, child-visited?). Out-degree
    // is ≤ 1, so the "iterate successors" state is a single bool.
    for start in 0..n {
        if index[start] != usize::MAX || wait[start].is_none() || found.is_some() {
            continue;
        }
        let mut frames: Vec<(usize, bool)> = vec![(start, false)];
        while let Some(&mut (v, ref mut expanded)) = frames.last_mut() {
            if !*expanded {
                *expanded = true;
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
                if let Some(w) = edge(v) {
                    if index[w] == usize::MAX {
                        frames.push((w, false));
                        continue;
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                }
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut scc = Vec::new();
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    scc.push(w);
                    if w == v {
                        break;
                    }
                }
                let is_cycle = scc.len() > 1 || edge(v) == Some(v);
                if is_cycle && found.is_none() {
                    scc.sort_unstable();
                    found = Some(scc);
                }
            }
        }
    }
    found
}

/// Run the full communication-structure analysis over explicit
/// per-rank programs: send/receive matching first (a mismatch explains
/// a subsequent wedge better than "deadlock"), then deadlock detection.
/// Returns the matched-message count.
pub fn check_comm_plan(programs: &[Program]) -> Result<usize, AnalysisError> {
    let matched = check_matching(programs)?;
    check_deadlock(programs)?;
    Ok(matched)
}

/// Everything the pre-flight gate runs, in diagnostic order: schedule
/// legality under the [`TileSchedule`] of the plan's strategy mapped
/// along `mapping_dim` (`Π·d^S > 0` plus the eq.-4 overlap ordering),
/// the programs' construction, send/receive matching, and deadlock
/// detection. Returns the report and the programs it proved, indexed
/// by rank — the programs the executors then run.
pub fn analyze(
    topo: &dyn RankTopology,
    plan: &StepPlan,
    mapping_dim: usize,
    deps: &DependenceSet,
) -> Result<(AnalysisReport, Vec<Program>), AnalysisError> {
    let schedule = TileSchedule::with_mapping(plan.strategy(), deps.dims(), mapping_dim);
    check_schedule(&schedule, deps)?;
    let comm = programs(topo, plan)?;
    let messages = check_comm_plan(&comm)?;
    let report = AnalysisReport {
        ranks: topo.ranks(),
        steps: plan.steps(),
        events: comm.iter().map(Program::len).sum(),
        messages,
        logical_makespan: logical_makespan(topo, plan),
    };
    Ok((report, comm))
}

/// The plan's time-hyperplane count over this topology: the engine's
/// [`StepPlan::logical_time`] evaluated at the last step of the rank
/// with the deepest cross-rank hop count — eq. 3's `P(g)` for a
/// blocking plan, eq. 4's `2·Σ_{k≠i} j_k^S + j_i^S` length for an
/// overlap plan.
fn logical_makespan(topo: &dyn RankTopology, plan: &StepPlan) -> i64 {
    if plan.steps() == 0 {
        return 0;
    }
    // Longest hop distance from any source rank, by relaxation over the
    // downstream edges (rank graphs are small and acyclic; bail to the
    // local depth if a cyclic custom topology never settles).
    let n = topo.ranks();
    let mut depth = vec![0i64; n];
    for _ in 0..n {
        let mut changed = false;
        for r in 0..n {
            for dir in 0..topo.num_dirs() {
                if let Some(to) = topo.downstream(r, dir) {
                    if to < n && depth[to] < depth[r] + 1 {
                        depth[to] = depth[r] + 1;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let hops = depth.iter().copied().max().unwrap_or(0);
    plan.logical_time(hops, (plan.steps() - 1) as i64) + 1
}
