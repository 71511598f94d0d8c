//! # analyzer — pre-flight static analysis of distributed tile plans
//!
//! The chaos layer (`msgpass::faults`) and the reliability ledger prove
//! the runtime *recovers* from injected failures; this crate proves a
//! plan is *well-formed before any thread spawns*. Given a
//! [`StepPlan`], a [`RankTopology`] describing who exchanges which
//! halo faces, and the algorithm's [`DependenceSet`], the analyzer:
//!
//! 1. verifies the schedule is legal by asking the plan's
//!    [`TileSchedule`] — `Π` follows from the plan's strategy and the
//!    mapping dimension — for a dependence it does not order:
//!    `Π·d^S > 0` for every dependence, plus the eq.-4 overlap ordering
//!    (a cross-processor dependence must advance ≥ 2 time steps,
//!    because its face spends one full step in flight);
//! 2. emits every rank's program ([`programs`]) through the
//!    simulator's one `ProcB`/`ProcNB` emitter
//!    (`cluster_sim::program::Program::pipeline`) — the op list the
//!    simulator prices — and matches every staged send against its
//!    peer's receive on (rank, tag, size, step);
//! 3. symbolically executes those programs under the transport's
//!    semantics (eager sends, blocking receives) and, if they wedge,
//!    extracts the deadlock cycle from the SCC of the cross-rank
//!    wait-for graph.
//!
//! Failures are typed [`AnalysisError`]s naming the offending (rank,
//! step, tag) — the information a hang destroys. [`analyze`] hands back
//! the programs it proved: the stencil crate runs it whenever it
//! compiles a plan and its thread executor interprets those programs
//! (its one-shot drivers opt out of the checks with
//! `WorldConfig::without_preflight` for benchmarks);
//! `bench::configs`' test compiles every shipped configuration through
//! it.
//!
//! [`StepPlan`]: tiling_core::schedule::StepPlan
//! [`TileSchedule`]: tiling_core::schedule::TileSchedule
//! [`DependenceSet`]: tiling_core::dependence::DependenceSet

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod check;
pub mod error;
pub mod plan;

pub use check::{
    analyze, check_comm_plan, check_deadlock, check_matching, check_schedule, AnalysisReport,
};
pub use error::{AnalysisError, Tag, WaitPoint};
pub use plan::{programs, RankTopology};

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::program::Program;
    use tiling_core::dependence::DependenceSet;
    use tiling_core::schedule::{StepPlan, StepStrategy};

    /// A 1-D chain of `ranks` processors exchanging one face per step
    /// downstream — the shape of the 2-D strip decomposition.
    struct Chain {
        ranks: usize,
        face: usize,
    }

    impl RankTopology for Chain {
        fn ranks(&self) -> usize {
            self.ranks
        }
        fn num_dirs(&self) -> usize {
            1
        }
        fn upstream(&self, rank: usize, _dir: usize) -> Option<usize> {
            rank.checked_sub(1)
        }
        fn downstream(&self, rank: usize, _dir: usize) -> Option<usize> {
            (rank + 1 < self.ranks).then_some(rank + 1)
        }
        fn wire_dir(&self, _dir: usize) -> u64 {
            1
        }
        fn face_len(&self, _rank: usize, _dir: usize, _step: usize) -> usize {
            self.face
        }
        fn same_face_until(&self, _rank: usize, _dir: usize, _k: usize, end: usize) -> usize {
            end
        }
    }

    fn chain() -> Chain {
        Chain { ranks: 3, face: 8 }
    }

    #[test]
    fn blocking_chain_plan_is_clean() {
        let plan = StepPlan::new(StepStrategy::Blocking, 4);
        let (report, proved) =
            analyze(&chain(), &plan, 0, &DependenceSet::example_1()).expect("legal plan");
        assert_eq!(report.ranks, 3);
        assert_eq!(report.steps, 4);
        // 2 interior channels × 4 steps.
        assert_eq!(report.messages, 8);
        // Eq. 3: P(g) = hops + steps = 2 + 4.
        assert_eq!(report.logical_makespan, 6);
        // It hands back the programs it proved: what `programs` emits.
        let emitted = programs(&chain(), &plan).expect("fewer than 2^32 steps");
        let same = |(p, e): (&Program, &Program)| p.ops().eq(e.ops());
        assert!(proved.len() == 3 && proved.iter().zip(&emitted).all(same));
    }

    #[test]
    fn overlap_chain_plan_is_clean() {
        let plan = StepPlan::new(StepStrategy::Overlap, 4);
        let (report, _) =
            analyze(&chain(), &plan, 0, &DependenceSet::example_1()).expect("legal plan");
        assert_eq!(report.messages, 8);
        // Eq. 4: 2·hops + steps = 4 + 4.
        assert_eq!(report.logical_makespan, 8);
    }

    #[test]
    fn the_plans_strategy_sets_the_schedule_it_checks() {
        // (1, −1) is unordered by Π = [1, 1] and, mapped along dim 1,
        // crosses ranks one step apart under Π = [2, 1].
        let deps = DependenceSet::from_vectors(2, vec![vec![1, 0], vec![1, -1]]);
        let blocking = StepPlan::new(StepStrategy::Blocking, 4);
        assert_eq!(
            analyze(&chain(), &blocking, 0, &deps).err(),
            Some(AnalysisError::IllegalSchedule {
                pi: vec![1, 1],
                dep: vec![1, -1],
                dot: 0,
            })
        );
        let overlap = StepPlan::new(StepStrategy::Overlap, 4);
        assert_eq!(
            analyze(&chain(), &overlap, 1, &deps).err(),
            Some(AnalysisError::OverlapOrderingViolation {
                pi: vec![2, 1],
                dep: vec![1, -1],
                dot: 1,
            })
        );
    }

    #[test]
    fn zero_step_plan_is_trivially_clean() {
        let plan = StepPlan::new(StepStrategy::Overlap, 0);
        let (report, _) =
            analyze(&chain(), &plan, 0, &DependenceSet::example_1()).expect("empty plan");
        assert_eq!(report.events, 0);
        assert_eq!(report.messages, 0);
        assert_eq!(report.logical_makespan, 0);
    }

    #[test]
    fn size_mismatch_is_detected() {
        /// A chain whose interior rank stages a bigger face than its
        /// downstream peer expects.
        struct Lopsided;
        impl RankTopology for Lopsided {
            fn ranks(&self) -> usize {
                2
            }
            fn num_dirs(&self) -> usize {
                1
            }
            fn upstream(&self, rank: usize, _dir: usize) -> Option<usize> {
                rank.checked_sub(1)
            }
            fn downstream(&self, rank: usize, _dir: usize) -> Option<usize> {
                (rank == 0).then_some(1)
            }
            fn wire_dir(&self, _dir: usize) -> u64 {
                0
            }
            fn face_len(&self, rank: usize, _dir: usize, _step: usize) -> usize {
                if rank == 0 {
                    16
                } else {
                    12
                }
            }
            fn same_face_until(&self, _rank: usize, _dir: usize, _k: usize, end: usize) -> usize {
                end
            }
        }
        let plan = StepPlan::new(StepStrategy::Blocking, 1);
        let err =
            analyze(&Lopsided, &plan, 0, &DependenceSet::example_1()).expect_err("sizes disagree");
        assert_eq!(
            err,
            AnalysisError::SizeMismatch {
                from: 0,
                to: 1,
                tag: 0,
                step: 0,
                send_len: 16,
                recv_len: 12,
            }
        );
    }

    #[test]
    fn a_plan_of_2_pow_32_steps_is_a_typed_error() {
        let plan = StepPlan::new(StepStrategy::Overlap, 1 << 32);
        let err = programs(&chain(), &plan).expect_err("2^32 steps");
        assert_eq!(err, AnalysisError::TooManySteps { steps: 1 << 32 });
        assert_eq!(err.to_string(), "4294967296 steps, over 2^32 - 1");
    }

    #[test]
    fn more_message_ends_than_preflight_holds_is_a_typed_error() {
        // 2 channels × 2 ends × (2³² − 1) steps: counted, not expanded.
        let plan = StepPlan::new(StepStrategy::Overlap, (1 << 32) - 1);
        let emitted = programs(&chain(), &plan).expect("fewer than 2^32 steps");
        let want = AnalysisError::TooManyMessages {
            ends: 4 * ((1 << 32) - 1),
        };
        assert_eq!(check_matching(&emitted), Err(want.clone()));
        assert_eq!(check_deadlock(&emitted), Err(want.clone()));
        let deps = DependenceSet::example_1();
        assert_eq!(analyze(&chain(), &plan, 0, &deps).err(), Some(want.clone()));
        assert_eq!(
            want.to_string(),
            "17179869180 message ends, over the 33554432 pre-flight can hold"
        );
        // A plan under the caps is matched as before.
        let plan = StepPlan::new(StepStrategy::Overlap, 4);
        let small = programs(&chain(), &plan).expect("4 steps");
        assert_eq!(check_matching(&small), Ok(8));
    }

    #[test]
    fn more_ranks_than_preflight_emits_is_a_typed_error() {
        let plan = StepPlan::new(StepStrategy::Overlap, 4);
        let wide = Chain {
            ranks: plan::MAX_RANKS + 1,
            face: 8,
        };
        let err = programs(&wide, &plan).expect_err("over the cap");
        assert_eq!(err, AnalysisError::TooManyRanks { ranks: 4097 });
        assert_eq!(
            err.to_string(),
            "4097 ranks, over the 4096 pre-flight emits programs for"
        );
        let at_cap = Chain {
            ranks: 4096,
            ..wide
        };
        assert_eq!(programs(&at_cap, &plan).map(|p| p.len()), Ok(4096));
    }

    #[test]
    fn errors_render_their_coordinates() {
        let e = AnalysisError::UnmatchedSend {
            from: 2,
            to: 3,
            tag: 7,
            step: 1,
        };
        let s = e.to_string();
        assert!(s.contains("rank 2"), "{s}");
        assert!(s.contains("tag 7"), "{s}");
        assert!(s.contains("step 1"), "{s}");
    }
}
