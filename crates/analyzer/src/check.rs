//! The three pre-flight checks over a symbolic plan: schedule legality
//! against the dependence set, send/receive matching, and deadlock
//! detection by SCC analysis of the cross-rank wait-for graph.

use crate::error::{AnalysisError, Tag, WaitPoint};
use crate::plan::{CommPlan, PlanOp, RankTopology};
use std::collections::HashMap;
use tiling_core::dependence::DependenceSet;
use tiling_core::schedule::{StepPlan, StepStrategy};

/// What a successful analysis proved, plus the plan's headline numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Ranks in the world.
    pub ranks: usize,
    /// Pipeline steps per rank.
    pub steps: usize,
    /// Symbolic events across all rank programs.
    pub events: usize,
    /// Matched send/receive pairs.
    pub messages: usize,
    /// Time hyperplanes of the plan over this topology — the eq. 3 /
    /// eq. 4 `P(g)` computed from [`StepPlan::logical_time`] at the
    /// topology's deepest cross-rank hop count.
    pub logical_makespan: i64,
}

/// Check `Π·d^S > 0` for every dependence and, for an overlap plan,
/// the eq.-4 ordering: a dependence with any component off the
/// processor-mapping dimension crosses ranks, so its face spends one
/// full step in flight and must advance `Π·d^S ≥ 2`.
pub fn check_schedule(
    plan: &StepPlan,
    pi: &[i64],
    mapping_dim: usize,
    deps: &DependenceSet,
) -> Result<(), AnalysisError> {
    for d in deps.iter() {
        let dot = d.dot(pi);
        if dot <= 0 {
            return Err(AnalysisError::IllegalSchedule {
                pi: pi.to_vec(),
                dep: d.components().to_vec(),
                dot,
            });
        }
        if plan.strategy() == StepStrategy::Overlap {
            let cross = d
                .components()
                .iter()
                .enumerate()
                .any(|(axis, &c)| axis != mapping_dim && c != 0);
            if cross && dot < 2 {
                return Err(AnalysisError::OverlapOrderingViolation {
                    pi: pi.to_vec(),
                    dep: d.components().to_vec(),
                    dot,
                });
            }
        }
    }
    Ok(())
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
pub fn check_matching(plan: &CommPlan) -> Result<usize, AnalysisError> {
    let total_sends = plan.messages();
    let mut sends: Vec<Endpoint> = Vec::with_capacity(total_sends);
    let mut recvs: Vec<Endpoint> = Vec::with_capacity(plan.events() - total_sends);
    for prog in &plan.programs {
        for op in &prog.ops {
            match *op {
                PlanOp::Send { to, tag, len, step } | PlanOp::PostSend { to, tag, len, step } => {
                    sends.push(Endpoint {
                        from: prog.rank,
                        to,
                        tag,
                        step,
                        len,
                    });
                }
                PlanOp::Recv {
                    from,
                    tag,
                    len,
                    step,
                }
                | PlanOp::PostRecv {
                    from,
                    tag,
                    len,
                    step,
                } => {
                    recvs.push(Endpoint {
                        from,
                        to: prog.rank,
                        tag,
                        step,
                        len,
                    });
                }
                // A WaitRecv consumes the message its PostRecv
                // registered; counting both would double-book it.
                PlanOp::WaitRecv { .. } | PlanOp::WaitSend { .. } | PlanOp::Compute { .. } => {}
            }
        }
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

/// Symbolically execute the plan under the transport's semantics —
/// sends are eager, receives block until the matching send has
/// executed — and, if execution wedges, extract the deadlock cycle
/// from the strongly connected components of the stuck ranks'
/// wait-for graph.
pub fn check_deadlock(plan: &CommPlan) -> Result<(), AnalysisError> {
    let n = plan.programs.len();
    let mut pc = vec![0usize; n];
    // Per (from, to, tag): sends executed minus receives consumed.
    let mut in_flight: HashMap<(usize, usize, Tag), i64> = HashMap::with_capacity(plan.messages());
    loop {
        let mut progressed = false;
        let mut all_done = true;
        for r in 0..n {
            let ops = &plan.programs[r].ops;
            while pc[r] < ops.len() {
                let advance = match ops[pc[r]] {
                    PlanOp::Send { to, tag, .. } | PlanOp::PostSend { to, tag, .. } => {
                        *in_flight.entry((r, to, tag)).or_insert(0) += 1;
                        true
                    }
                    PlanOp::Recv { from, tag, .. } | PlanOp::WaitRecv { from, tag, .. } => {
                        let slot = in_flight.entry((from, r, tag)).or_insert(0);
                        if *slot > 0 {
                            *slot -= 1;
                            true
                        } else {
                            false
                        }
                    }
                    PlanOp::PostRecv { .. } | PlanOp::WaitSend { .. } | PlanOp::Compute { .. } => {
                        true
                    }
                };
                if !advance {
                    break;
                }
                pc[r] += 1;
                progressed = true;
            }
            all_done &= pc[r] == ops.len();
        }
        if all_done {
            return Ok(());
        }
        if !progressed {
            return Err(deadlock_cycle(plan, &pc));
        }
    }
}

/// Build the wait-for graph of the stuck ranks (each blocks on exactly
/// one peer) and report the first strongly connected component with a
/// cycle; if the stuck set has none (a starvation chain into a
/// finished rank), the whole chain is reported.
fn deadlock_cycle(plan: &CommPlan, pc: &[usize]) -> AnalysisError {
    let n = plan.programs.len();
    let wait: Vec<Option<WaitPoint>> = (0..n)
        .map(|r| {
            let ops = &plan.programs[r].ops;
            if pc[r] >= ops.len() {
                return None;
            }
            match ops[pc[r]] {
                PlanOp::Recv {
                    from, tag, step, ..
                }
                | PlanOp::PostRecv {
                    from, tag, step, ..
                }
                | PlanOp::WaitRecv { from, tag, step } => Some(WaitPoint {
                    rank: r,
                    from,
                    tag,
                    step,
                }),
                _ => None,
            }
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

/// Run the full communication-structure analysis over an explicit
/// symbolic plan: send/receive matching first (a mismatch explains a
/// subsequent wedge better than "deadlock"), then deadlock detection.
/// Returns the matched-message count.
pub fn check_comm_plan(plan: &CommPlan) -> Result<usize, AnalysisError> {
    let matched = check_matching(plan)?;
    check_deadlock(plan)?;
    Ok(matched)
}

/// Everything the pre-flight gate runs, in diagnostic order: schedule
/// legality (`Π·d^S > 0` plus the eq.-4 overlap ordering), symbolic
/// plan construction, send/receive matching, and deadlock detection.
pub fn analyze(
    topo: &dyn RankTopology,
    plan: &StepPlan,
    pi: &[i64],
    mapping_dim: usize,
    deps: &DependenceSet,
) -> Result<AnalysisReport, AnalysisError> {
    check_schedule(plan, pi, mapping_dim, deps)?;
    let comm = CommPlan::build(topo, plan);
    let events = comm.events();
    let messages = check_comm_plan(&comm)?;
    Ok(AnalysisReport {
        ranks: topo.ranks(),
        steps: plan.steps(),
        events,
        messages,
        logical_makespan: logical_makespan(topo, plan),
    })
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
