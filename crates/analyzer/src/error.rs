//! Typed pre-flight analysis failures.
//!
//! Every error names the offending (rank, step, tag) — the information
//! a hang or a chaos-test timeout destroys — so a broken plan is
//! rejected before any thread spawns.

use crate::check::MAX_MESSAGE_ENDS;
use crate::plan::MAX_RANKS;
use std::fmt;

/// Message tag, compatible with `msgpass::comm::Tag`.
pub type Tag = u64;

/// One rank's blocked receive inside a deadlock cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitPoint {
    /// The blocked rank.
    pub rank: usize,
    /// The peer it waits on.
    pub from: usize,
    /// The tag it waits for.
    pub tag: Tag,
    /// The pipeline step of the blocked receive.
    pub step: usize,
}

impl fmt::Display for WaitPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} waits on rank {} (tag {}, step {})",
            self.rank, self.from, self.tag, self.step
        )
    }
}

/// Why a plan failed static analysis. Ordered by diagnostic priority:
/// schedule illegality names the root cause of everything downstream,
/// a tag mismatch explains both of its orphan endpoints, and a
/// deadlock cycle is only reported when every message matches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisError {
    /// The linear schedule violates a dependence: `Π·d^S ≤ 0`, so a
    /// tile would run before an input it consumes.
    IllegalSchedule {
        /// The schedule vector `Π`.
        pi: Vec<i64>,
        /// The violated dependence `d^S`.
        dep: Vec<i64>,
        /// The offending product `Π·d^S`.
        dot: i64,
    },
    /// The eq.-4 overlap ordering is violated: a cross-processor
    /// dependence advances fewer than 2 time steps, so its face would
    /// still be in flight when the consuming tile starts.
    OverlapOrderingViolation {
        /// The schedule vector `Π` (`2·Σ_{k≠i} j_k^S + j_i^S`).
        pi: Vec<i64>,
        /// The cross-processor dependence `d^S`.
        dep: Vec<i64>,
        /// The offending product `Π·d^S` (must be ≥ 2).
        dot: i64,
    },
    /// A sender and its peer disagree on a message's tag: the same
    /// (sender, receiver, step) channel stages one tag and expects
    /// another.
    TagMismatch {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// Pipeline step of the exchange.
        step: usize,
        /// The tag the sender stages.
        sent: Tag,
        /// The tag the receiver expects.
        expected: Tag,
    },
    /// A matched send/receive pair disagrees on the face length.
    SizeMismatch {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// The shared message tag.
        tag: Tag,
        /// Pipeline step of the exchange.
        step: usize,
        /// Elements the sender stages.
        send_len: usize,
        /// Elements the receiver expects.
        recv_len: usize,
    },
    /// A staged send that no receive ever consumes — on the real
    /// transport this message would leak a slot lease (or stall a
    /// reliability ledger) forever.
    UnmatchedSend {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// The orphan tag.
        tag: Tag,
        /// Pipeline step of the orphan send.
        step: usize,
    },
    /// A receive that no send ever satisfies — at runtime this rank
    /// would hang (or time out, on a reliability-enabled world).
    UnmatchedReceive {
        /// The starved rank.
        rank: usize,
        /// The peer it expects the message from.
        from: usize,
        /// The expected tag.
        tag: Tag,
        /// Pipeline step of the starved receive.
        step: usize,
    },
    /// A cycle in the cross-rank wait-for graph: every rank in `cycle`
    /// blocks on a receive whose sender is itself blocked further along
    /// the cycle. Found by SCC analysis of the stuck ranks.
    Deadlock {
        /// The blocked receives forming the cycle, in rank order.
        cycle: Vec<WaitPoint>,
    },
    /// The plan has `2³²` steps or more: a program names a step in 32 bits.
    TooManySteps {
        /// The plan's step count.
        steps: usize,
    },
    /// The plan runs on more ranks than pre-flight emits programs for
    /// ([`crate::plan::MAX_RANKS`]).
    TooManyRanks {
        /// The plan's rank count.
        ranks: usize,
    },
    /// The plan's programs hold more message ends than pre-flight can
    /// keep: over [`crate::check::MAX_MESSAGE_ENDS`], or more than
    /// memory gives it.
    TooManyMessages {
        /// Sends plus receives over all ranks.
        ends: usize,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::IllegalSchedule { pi, dep, dot } => write!(
                f,
                "illegal schedule: Π = {pi:?} gives Π·d = {dot} ≤ 0 for dependence {dep:?}"
            ),
            AnalysisError::OverlapOrderingViolation { pi, dep, dot } => write!(
                f,
                "overlap ordering violated: cross-processor dependence {dep:?} advances \
                 Π·d = {dot} < 2 time steps under Π = {pi:?} (eq. 4 needs the face one \
                 full step in flight)"
            ),
            AnalysisError::TagMismatch {
                from,
                to,
                step,
                sent,
                expected,
            } => write!(
                f,
                "tag mismatch on rank {from} → rank {to} at step {step}: \
                 sender stages tag {sent}, receiver expects tag {expected}"
            ),
            AnalysisError::SizeMismatch {
                from,
                to,
                tag,
                step,
                send_len,
                recv_len,
            } => write!(
                f,
                "size mismatch on rank {from} → rank {to} (tag {tag}, step {step}): \
                 sender stages {send_len} elements, receiver expects {recv_len}"
            ),
            AnalysisError::UnmatchedSend {
                from,
                to,
                tag,
                step,
            } => write!(
                f,
                "unmatched send: rank {from} → rank {to} (tag {tag}, step {step}) \
                 is never received"
            ),
            AnalysisError::UnmatchedReceive {
                rank,
                from,
                tag,
                step,
            } => write!(
                f,
                "unmatched receive: rank {rank} waits for rank {from} \
                 (tag {tag}, step {step}) but no such send is staged"
            ),
            AnalysisError::Deadlock { cycle } => {
                write!(f, "deadlock cycle across {} ranks: ", cycle.len())?;
                for (i, w) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{w}")?;
                }
                Ok(())
            }
            AnalysisError::TooManySteps { steps } => write!(f, "{steps} steps, over 2^32 - 1"),
            AnalysisError::TooManyRanks { ranks } => {
                write!(
                    f,
                    "{ranks} ranks, over the {MAX_RANKS} pre-flight emits programs for"
                )
            }
            AnalysisError::TooManyMessages { ends } => write!(
                f,
                "{ends} message ends, over the {MAX_MESSAGE_ENDS} pre-flight can hold"
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}
