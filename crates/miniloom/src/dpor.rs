//! Dynamic partial-order reduction: persistent/backtrack sets plus
//! sleep sets over declared step footprints.
//!
//! [`check`] explores the schedule tree of a [`Model`] depth-first,
//! but it only revisits an ordering decision when the two sides
//! actually *conflict* (their [`Footprint`]s touch a common location
//! with a write or sync on at least one side); under the default
//! serial footprints every pair conflicts and it enumerates every merge
//! order. The machinery is the classic Flanagan–Godefroid combination:
//!
//! * **backtrack (persistent) sets** — at every node, each pending
//!   thread's next step is raced against the last conflicting,
//!   happens-before-unordered event of the current prefix; the racing
//!   thread is queued for exploration at the choice point *before*
//!   that event, so both orders of every real conflict get covered;
//! * **sleep sets** — a thread already fully explored from a node is
//!   put to sleep for its siblings and stays asleep down their
//!   subtrees until a conflicting step runs, killing the redundant
//!   re-interleavings of independent steps.
//!
//! Exploration replays the model single-threadedly from a fresh
//! [`Model::init`] per node, so step/invariant violations surface with
//! the shortest prefix the search meets. Complete schedules are
//! additionally run through the vector-clock race detector
//! ([`crate::vclock`]). Blocked steps ([`Model::enabled`]) simply are
//! not scheduled; a state with pending but no enabled threads is
//! reported as a typed [`ExploreError::Deadlock`].
//!
//! The walk is bounded by [`CheckOptions::budget`] — exceeding it
//! yields a typed [`ExploreError::BudgetExceeded`] instead of an
//! open-ended burn.

use crate::footprint::Footprint;
use crate::vclock::{detect_races, RaceReport};
use crate::{Model, Report, Violation};
use std::fmt;

/// Most total script steps [`check`] accepts: the happens-before
/// bitsets are fixed 128-bit words, and anything larger is far past
/// any sensible budget anyway.
pub const MAX_TOTAL_STEPS: usize = 128;

/// Knobs for [`check`].
#[derive(Clone, Copy, Debug)]
pub struct CheckOptions {
    /// Most complete schedules to replay before giving up with
    /// [`ExploreError::BudgetExceeded`]. `None` removes the guard.
    pub budget: Option<u64>,
    /// Run the vector-clock race detector on every complete schedule.
    pub detect_races: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            budget: Some(1_000_000),
            detect_races: true,
        }
    }
}

impl CheckOptions {
    /// Default options with the given schedule budget.
    pub fn budgeted(budget: u64) -> Self {
        CheckOptions {
            budget: Some(budget),
            ..CheckOptions::default()
        }
    }
}

/// Why [`check`] (or [`crate::schedule_count`]) stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExploreError {
    /// A schedule broke a step, invariant, or finalize check.
    Violation(Violation),
    /// Two accesses with no happens-before edge conflicted.
    Race(RaceReport),
    /// A reachable state has pending threads but none enabled: every
    /// remaining script step is blocked forever.
    Deadlock {
        /// The schedule prefix reaching the stuck state.
        schedule: Vec<usize>,
        /// The threads with remaining, permanently blocked steps.
        blocked: Vec<usize>,
    },
    /// The exploration hit its schedule budget with work remaining.
    BudgetExceeded {
        /// The configured limit.
        budget: u64,
        /// Complete schedules replayed before giving up.
        explored: u64,
    },
    /// The unreduced interleaving count does not fit in `u64`.
    CountOverflow {
        /// The per-thread script lengths whose multinomial overflowed.
        lens: Vec<usize>,
    },
    /// The scripts exceed [`MAX_TOTAL_STEPS`] combined steps.
    ScriptTooLong {
        /// Combined step count of all scripts.
        steps: usize,
        /// The supported maximum.
        max: usize,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Violation(v) => write!(f, "{v}"),
            ExploreError::Race(r) => write!(f, "{r}"),
            ExploreError::Deadlock { schedule, blocked } => write!(
                f,
                "deadlock: threads {blocked:?} blocked forever after schedule {schedule:?}"
            ),
            ExploreError::BudgetExceeded { budget, explored } => write!(
                f,
                "schedule budget exceeded: {explored} schedules replayed, budget {budget}"
            ),
            ExploreError::CountOverflow { lens } => write!(
                f,
                "interleaving count overflows u64 for script lengths {lens:?}"
            ),
            ExploreError::ScriptTooLong { steps, max } => {
                write!(f, "scripts total {steps} steps, the checker supports {max}")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<Violation> for ExploreError {
    fn from(v: Violation) -> Self {
        ExploreError::Violation(v)
    }
}

impl From<RaceReport> for ExploreError {
    fn from(r: RaceReport) -> Self {
        ExploreError::Race(r)
    }
}

/// Explore `model` under dynamic partial-order reduction. Returns the
/// exploration totals (with the unreduced multinomial for comparison),
/// or the first typed failure found.
pub fn check<M: Model>(model: &M, opts: &CheckOptions) -> Result<Report, ExploreError> {
    let threads = model.threads();
    assert!(threads <= 64, "the checker supports at most 64 threads");
    let lens: Vec<usize> = (0..threads).map(|t| model.steps(t)).collect();
    let total: usize = lens.iter().sum();
    if total > MAX_TOTAL_STEPS {
        return Err(ExploreError::ScriptTooLong {
            steps: total,
            max: MAX_TOTAL_STEPS,
        });
    }
    let fps: Vec<Vec<Footprint>> = (0..threads)
        .map(|t| (0..lens[t]).map(|i| model.footprint(t, i)).collect())
        .collect();
    let mut dfs = Dfs {
        model,
        lens,
        fps,
        opts: *opts,
        prefix: Vec::with_capacity(total),
        enabled_at: Vec::with_capacity(total),
        backtrack: Vec::with_capacity(total),
        report: Report {
            schedules: 0,
            steps: 0,
            unreduced: crate::schedule_count(
                &(0..threads).map(|t| model.steps(t)).collect::<Vec<_>>(),
            )
            .ok(),
        },
    };
    dfs.visit(0)?;
    Ok(dfs.report)
}

struct Dfs<'m, M: Model> {
    model: &'m M,
    lens: Vec<usize>,
    fps: Vec<Vec<Footprint>>,
    opts: CheckOptions,
    /// Thread ids of the current prefix (the DFS path).
    prefix: Vec<usize>,
    /// Enabled-thread mask at each prefix depth.
    enabled_at: Vec<u64>,
    /// Backtrack (persistent) set at each prefix depth — descendants
    /// add race partners here and the choice loop drains it.
    backtrack: Vec<u64>,
    report: Report,
}

/// Iterate the set bits of a mask.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(b)
        }
    })
}

impl<M: Model> Dfs<'_, M> {
    fn conflicts(&self, t1: usize, i1: usize, t2: usize, i2: usize) -> bool {
        self.fps[t1][i1].conflicts(&self.fps[t2][i2])
    }

    /// Visit the node at the end of `self.prefix` with the given sleep
    /// set, replaying the prefix from a fresh state.
    fn visit(&mut self, sleep: u64) -> Result<(), ExploreError> {
        let n = self.lens.len();
        let depth = self.prefix.len();
        let mut state = self.model.init();
        let mut progress = vec![0usize; n];
        // Per-event (tid, idx) and happens-before closure bitsets of
        // the replayed prefix (program order + conflict order).
        let mut evs: Vec<(usize, usize)> = Vec::with_capacity(depth);
        let mut hb: Vec<u128> = Vec::with_capacity(depth);
        let mut last_of: Vec<Option<usize>> = vec![None; n];
        for pos in 0..depth {
            let t = self.prefix[pos];
            let idx = progress[t];
            self.report.steps += 1;
            let clip = &self.prefix[..=pos];
            self.model
                .step(&mut state, t, idx)
                .map_err(|message| Violation {
                    schedule: clip.to_vec(),
                    message,
                })?;
            self.model.invariant(&state).map_err(|message| Violation {
                schedule: clip.to_vec(),
                message,
            })?;
            let mut h: u128 = 1 << pos;
            for j in 0..pos {
                let (tj, ij) = evs[j];
                if tj == t || self.conflicts(tj, ij, t, idx) {
                    h |= hb[j];
                }
            }
            evs.push((t, idx));
            hb.push(h);
            last_of[t] = Some(pos);
            progress[t] += 1;
        }

        let mut pending = 0u64;
        let mut enabled = 0u64;
        for (t, &done) in progress.iter().enumerate().take(n) {
            if done < self.lens[t] {
                pending |= 1 << t;
                if self.model.enabled(&state, t, done) {
                    enabled |= 1 << t;
                }
            }
        }

        if pending == 0 {
            // A complete schedule: count it against the budget, then
            // finalize and race-check it.
            if let Some(budget) = self.opts.budget {
                if self.report.schedules >= budget {
                    return Err(ExploreError::BudgetExceeded {
                        budget,
                        explored: self.report.schedules,
                    });
                }
            }
            self.report.schedules += 1;
            let clip = self.prefix.clone();
            self.model
                .finalize(&mut state)
                .and_then(|()| self.model.invariant(&state))
                .map_err(|message| Violation {
                    schedule: clip,
                    message,
                })?;
            if self.opts.detect_races {
                detect_races(&self.fps, &evs)?;
            }
            return Ok(());
        }
        if enabled == 0 {
            return Err(ExploreError::Deadlock {
                schedule: self.prefix.clone(),
                blocked: bits(pending).collect(),
            });
        }

        // Race the next step of every pending thread against the last
        // conflicting, HB-unordered event of the prefix, and queue the
        // thread at the choice point before that event.
        for p in bits(pending) {
            let pi = progress[p];
            for i in (0..depth).rev() {
                let (ti, ii) = evs[i];
                if ti == p || !self.conflicts(ti, ii, p, pi) {
                    continue;
                }
                let ordered = last_of[p].is_some_and(|lp| hb[lp] >> i & 1 == 1);
                if ordered {
                    continue;
                }
                if self.enabled_at[i] >> p & 1 == 1 {
                    self.backtrack[i] |= 1 << p;
                } else {
                    // The racer was blocked at that point: schedule
                    // everything that could run there instead.
                    self.backtrack[i] |= self.enabled_at[i];
                }
                break;
            }
        }

        self.enabled_at.push(enabled);
        self.backtrack.push(0);
        let avail = enabled & !sleep;
        let result = if avail == 0 {
            // Everything runnable is asleep: each of these schedules
            // is equivalent to one explored from an earlier sibling.
            Ok(())
        } else {
            self.backtrack[depth] |= avail & avail.wrapping_neg();
            self.choice_loop(depth, sleep, &progress)
        };
        self.enabled_at.pop();
        self.backtrack.pop();
        result
    }

    /// Drain the backtrack set at `depth`, exploring each chosen
    /// thread and then putting it to sleep for its later siblings.
    fn choice_loop(
        &mut self,
        depth: usize,
        sleep: u64,
        progress: &[usize],
    ) -> Result<(), ExploreError> {
        let mut sleeping = sleep;
        loop {
            let cand = self.backtrack[depth] & !sleeping;
            if cand == 0 {
                return Ok(());
            }
            let q = cand.trailing_zeros() as usize;
            let qi = progress[q];
            // The child keeps only the sleepers whose next step is
            // independent of q's: a conflicting step wakes them.
            let mut child_sleep = 0u64;
            for r in bits(sleeping) {
                if !self.conflicts(r, progress[r], q, qi) {
                    child_sleep |= 1 << r;
                }
            }
            self.prefix.push(q);
            let res = self.visit(child_sleep);
            self.prefix.pop();
            res?;
            sleeping |= 1 << q;
        }
    }
}
