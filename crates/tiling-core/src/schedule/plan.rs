//! Execution plans derived from the schedule types.
//!
//! The schedules of this module family ([`NonOverlapSchedule`],
//! [`OverlapSchedule`]) describe *when* each tile runs; a [`StepPlan`]
//! is the small executable projection of a schedule onto one processor:
//! the number of local pipeline steps plus the per-step communication
//! strategy the schedule mandates. Executors (the `stencil::engine`
//! pipelined-rank engine) consume a `StepPlan` instead of hard-coding
//! either schedule, so the schedule type is the single source of
//! execution truth:
//!
//! * [`NonOverlapSchedule::step_plan`] → [`StepStrategy::Blocking`] —
//!   every step is a serialized *receive → compute → send* triplet
//!   (eq. 3, Hodzic–Shang);
//! * [`OverlapSchedule::step_plan`] → [`StepStrategy::Overlap`] — every
//!   step posts the receives of step `k+1` and the sends of step `k−1`
//!   around the computation of step `k` (eq. 4).

use crate::schedule::nonoverlap::NonOverlapSchedule;
use crate::schedule::overlap::OverlapSchedule;

/// Per-step communication strategy mandated by a schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepStrategy {
    /// Serialized receive → compute → send (the non-overlapping
    /// schedule of §3).
    Blocking,
    /// Pipelined Irecv(k+1) / Isend(k−1) / compute(k) / waits (the
    /// overlapping schedule of §4).
    Overlap,
}

impl StepStrategy {
    /// Stable display name (a CSV column value).
    pub fn name(self) -> &'static str {
        match self {
            StepStrategy::Blocking => "blocking",
            StepStrategy::Overlap => "overlap",
        }
    }
}

/// One processor's executable view of a schedule: how many pipeline
/// steps it runs locally and how each step communicates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StepPlan {
    strategy: StepStrategy,
    steps: usize,
}

impl StepPlan {
    /// Build a plan directly. Prefer [`NonOverlapSchedule::step_plan`] /
    /// [`OverlapSchedule::step_plan`], which tie the strategy to the
    /// schedule type that mandates it.
    pub fn new(strategy: StepStrategy, steps: usize) -> Self {
        StepPlan { strategy, steps }
    }

    /// The per-step communication strategy.
    pub fn strategy(&self) -> StepStrategy {
        self.strategy
    }

    /// Number of local pipeline steps (tiles along the in-processor
    /// dimension).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Logical execution step of local tile `step` on a processor whose
    /// cross-processor coordinates sum to `cross_offset`:
    /// `Σ_{k≠i} j_k + j_i` under [`StepStrategy::Blocking`]
    /// (`Π = [1 … 1]`, eq. 3) and `2·Σ_{k≠i} j_k + j_i` under
    /// [`StepStrategy::Overlap`] (eq. 4 — a cross-processor hop costs
    /// one extra step in flight).
    pub fn logical_time(&self, cross_offset: i64, step: i64) -> i64 {
        match self.strategy {
            StepStrategy::Blocking => cross_offset + step,
            StepStrategy::Overlap => 2 * cross_offset + step,
        }
    }
}

impl NonOverlapSchedule {
    /// The executable projection of this schedule onto one processor:
    /// `steps` serialized receive → compute → send triplets.
    pub fn step_plan(&self, steps: usize) -> StepPlan {
        StepPlan::new(StepStrategy::Blocking, steps)
    }
}

impl OverlapSchedule {
    /// The executable projection of this schedule onto one processor:
    /// `steps` pipelined tiles, each overlapping its neighbors'
    /// communication.
    pub fn step_plan(&self, steps: usize) -> StepPlan {
        StepPlan::new(StepStrategy::Overlap, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::IterationSpace;

    #[test]
    fn schedule_types_select_strategy() {
        let b = NonOverlapSchedule::with_mapping(3, 2).step_plan(37);
        assert_eq!(b.strategy(), StepStrategy::Blocking);
        assert_eq!(b.steps(), 37);
        let o = OverlapSchedule::with_mapping(3, 2).step_plan(37);
        assert_eq!(o.strategy(), StepStrategy::Overlap);
        assert_eq!(o.steps(), 37);
    }

    #[test]
    fn logical_time_matches_time_of() {
        // The plan's flattened formula agrees with the full schedule's
        // `time_of` for every tile of a small 3-D tiled space mapped
        // along dimension 2.
        let ts = IterationSpace::from_extents(&[2, 3, 5]);
        let sched = OverlapSchedule::with_mapping(3, 2);
        let plan = sched.step_plan(5);
        for ci in 0..2 {
            for cj in 0..3 {
                for k in 0..5 {
                    assert_eq!(
                        plan.logical_time(ci + cj, k),
                        sched.time_of(&[ci, cj, k], &ts)
                    );
                }
            }
        }
        let nsched = NonOverlapSchedule::with_mapping(3, 2);
        let nplan = nsched.step_plan(5);
        for ci in 0..2 {
            for k in 0..5 {
                assert_eq!(nplan.logical_time(ci, k), nsched.time_of(&[ci, 0, k], &ts));
            }
        }
    }
}
