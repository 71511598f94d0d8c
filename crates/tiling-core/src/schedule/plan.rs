//! The executable projection of a tile schedule onto one processor.
//!
//! A [`TileSchedule`](super::TileSchedule) says *when* each tile runs; a
//! [`StepPlan`] is what one processor executes of it: the number of
//! local pipeline steps plus the [`StepStrategy`] every step follows.
//! Executors (the `stencil::engine` pipelined-rank engine) consume a
//! `StepPlan` instead of hard-coding either schedule:
//!
//! * [`StepStrategy::Blocking`] — every step is a serialized *receive →
//!   compute → send* triplet (eq. 3, Hodzic–Shang);
//! * [`StepStrategy::Overlap`] — every step posts the receives of step
//!   `k+1` and the sends of step `k−1` around the computation of step
//!   `k` (eq. 4).

use super::StepStrategy;

/// One processor's executable view of a schedule: how many pipeline
/// steps it runs locally and how each step communicates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StepPlan {
    strategy: StepStrategy,
    steps: usize,
}

impl StepPlan {
    /// `steps` local pipeline steps under `strategy`.
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
    /// `c·Σ_{k≠i} j_k + j_i` with the strategy's cross coefficient `c`.
    pub fn logical_time(&self, cross_offset: i64, step: i64) -> i64 {
        self.strategy.cross_coeff() * cross_offset + step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::TileSchedule;
    use crate::space::IterationSpace;

    #[test]
    fn schedule_types_select_strategy() {
        // The strategy alone sets Π's cross coefficient, the lag of a
        // cross-processor edge and how a step's two lanes combine.
        for (strategy, c, step) in [
            (StepStrategy::Blocking, 1, 7.0),
            (StepStrategy::Overlap, 2, 4.0),
        ] {
            let plan = StepPlan::new(strategy, 37);
            assert_eq!((plan.strategy(), plan.steps()), (strategy, 37));
            assert_eq!(strategy.cross_coeff(), c);
            assert_eq!((strategy.lag(false), strategy.lag(true)), (1, c));
            assert_eq!(strategy.step_us(4.0, 3.0), step);
            assert_eq!(
                TileSchedule::with_mapping(strategy, 3, 2).pi(),
                vec![c, c, 1]
            );
        }
    }

    #[test]
    fn logical_time_matches_time_of() {
        // The plan's flattened formula agrees with the full schedule's
        // `time_of` for every tile of a small 3-D tiled space mapped
        // along dimension 2, under both strategies.
        let ts = IterationSpace::from_extents(&[2, 3, 5]);
        for strategy in [StepStrategy::Blocking, StepStrategy::Overlap] {
            let sched = TileSchedule::with_mapping(strategy, 3, 2);
            let plan = StepPlan::new(strategy, 5);
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
        }
    }
}
