//! # miniloom — offline stateless model checker
//!
//! A dependency-free stand-in for the role [`loom`] plays in crates
//! that model-check their lock-free code. The build environment has no
//! network access to a crates registry, so — like `miniprop` for
//! `proptest` — this crate implements the subset of the idea the
//! workspace needs: explore the interleavings of a small number of
//! scripted threads over a shared protocol state, checking invariants
//! after every step.
//!
//! The granularity is one **operation** per step (a ring push, a pool
//! claim, a lease drop), not one memory access: a [`Model`] provides a
//! fresh state per execution, a fixed script of steps per thread, and
//! an invariant. One explorer consumes it, [`check`]: dynamic
//! partial-order reduction over the [`Footprint`] of shared locations
//! each step declares. Independent steps commute, so only one order per
//! Mazurkiewicz trace is replayed (persistent + sleep sets, see
//! [`dpor`]); a model that declares no footprints gets every merge
//! order of its scripts, the multinomial coefficient of the step counts
//! (two threads of 6 steps each are `C(12,6) = 924` executions).
//! Blocked steps are modeled with [`Model::enabled`]; complete
//! schedules additionally pass through a vector-clock happens-before
//! race detector ([`vclock`]); budgets, deadlocks, and races surface as
//! typed [`ExploreError`]s.
//!
//! For an SPSC protocol whose operations are linearizable this covers
//! exactly the reorderings real threads can produce at operation
//! granularity; the memory-order correctness of the individual atomics
//! is covered separately (`miri` in `ci.sh`, plus the cross-thread
//! stress tests).
//!
//! [`loom`]: https://docs.rs/loom

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dpor;
pub mod footprint;
pub mod vclock;

pub use dpor::{check, CheckOptions, ExploreError, MAX_TOTAL_STEPS};
pub use footprint::{Access, Footprint, Loc, GLOBAL};
pub use vclock::{RaceReport, Site, VectorClock};

use std::fmt;

/// A checkable protocol: per-execution state, a fixed script of steps
/// per thread, and invariants.
pub trait Model {
    /// The shared state one execution runs over.
    type State;

    /// A fresh state for one execution (one schedule).
    fn init(&self) -> Self::State;

    /// Number of scripted threads.
    fn threads(&self) -> usize;

    /// Number of steps in thread `tid`'s script.
    fn steps(&self, tid: usize) -> usize;

    /// Execute step `idx` of thread `tid`. Return `Err` with a message
    /// to report a violation at this step.
    fn step(&self, state: &mut Self::State, tid: usize, idx: usize) -> Result<(), String>;

    /// The shared locations step `idx` of thread `tid` touches, used by
    /// [`check`] for partial-order reduction and race detection. The
    /// default — [`Footprint::serial`] — makes every step conflict
    /// with every other: full enumeration, no race reports, no
    /// reduction.
    ///
    /// A footprint must also cover the locations the step's
    /// [`Model::enabled`] guard reads; see [`footprint`]'s module docs.
    fn footprint(&self, tid: usize, idx: usize) -> Footprint {
        let _ = (tid, idx);
        Footprint::serial()
    }

    /// Whether step `idx` of thread `tid` can run in `state`. [`check`]
    /// never schedules a disabled step, and reports a typed
    /// [`ExploreError::Deadlock`] when pending threads remain but none
    /// is enabled. The default is always-enabled.
    fn enabled(&self, state: &Self::State, tid: usize, idx: usize) -> bool {
        let _ = (state, tid, idx);
        true
    }

    /// Invariant checked after every step of every schedule.
    fn invariant(&self, state: &Self::State) -> Result<(), String> {
        let _ = state;
        Ok(())
    }

    /// Run after a schedule's last step (drain queues, release holds)
    /// and before the final [`Model::invariant`] check.
    fn finalize(&self, state: &mut Self::State) -> Result<(), String> {
        let _ = state;
        Ok(())
    }
}

/// Outcome of a full exploration with no violations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Report {
    /// Distinct schedules (interleavings) executed.
    pub schedules: u64,
    /// Total steps executed, prefix replays included: [`check`]
    /// replays a node's prefix from a fresh state, so this is the
    /// explorer's real cost.
    pub steps: u64,
    /// The unreduced interleaving count ([`schedule_count`]) for
    /// comparison with `schedules`; `None` if it overflows `u64`.
    pub unreduced: Option<u64>,
}

impl Report {
    /// Unreduced interleavings per explored schedule — the
    /// partial-order reduction factor. `None` when the unreduced count
    /// overflowed or nothing was explored.
    pub fn reduction_ratio(&self) -> Option<f64> {
        match (self.unreduced, self.schedules) {
            (Some(u), s) if s > 0 => Some(u as f64 / s as f64),
            _ => None,
        }
    }
}

/// A schedule on which the model broke an invariant or failed a step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The thread ids in execution order up to and including the
    /// failing step — enough to replay the schedule by hand.
    pub schedule: Vec<usize>,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule {:?}: {}", self.schedule, self.message)
    }
}

impl std::error::Error for Violation {}

/// Number of interleavings of threads with the given step counts (the
/// multinomial coefficient) — what [`check`] explores under serial
/// footprints and reduces from otherwise. Computed as a product of binomials, whose
/// prefix products stay exact; a product that leaves `u64` yields
/// [`ExploreError::CountOverflow`] instead of wrapping.
pub fn schedule_count(lens: &[usize]) -> Result<u64, ExploreError> {
    let mut total = 0u64;
    let mut acc = 1u64;
    let overflow = || ExploreError::CountOverflow {
        lens: lens.to_vec(),
    };
    for &l in lens {
        for k in 1..=l as u64 {
            total = total.checked_add(1).ok_or_else(overflow)?;
            // acc = C(total-1, partial) before, so acc * total is at
            // most C(total, partial) * k — the check catches anything
            // within a factor of `total` of u64::MAX, conservatively
            // erring on the side of reporting overflow.
            acc = acc.checked_mul(total).ok_or_else(overflow)? / k;
        }
    }
    Ok(acc)
}

/// The assertion of a clean model: [`check`] under the default options
/// passes, over `unreduced` raw interleavings. Panics with the failure
/// otherwise; returns the report for further checks.
#[track_caller]
pub fn assert_clean<M: Model>(model: &M, unreduced: u64) -> Report {
    let report = match check(model, &CheckOptions::default()) {
        Ok(report) => report,
        Err(e) => panic!("expected a clean model, got {e}"),
    };
    assert_eq!(report.unreduced, Some(unreduced), "{report:?}");
    report
}

/// The assertion of a seeded bug: [`check`] reports a [`Violation`]
/// with a non-empty schedule whose message names one of `names`.
#[track_caller]
pub fn assert_violation<M: Model>(model: &M, names: &[&str]) {
    match check(model, &CheckOptions::default()) {
        Err(ExploreError::Violation(v)) => {
            assert!(!v.schedule.is_empty(), "needs a concrete prefix: {v}");
            assert!(names.iter().any(|n| v.message.contains(n)), "{v}");
        }
        other => panic!("expected a Violation naming {names:?}, got {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter protocol where each thread adds its id+1 twice; the
    /// invariant bounds the counter, and the final check demands the
    /// exact total regardless of order.
    struct Adders;

    impl Model for Adders {
        type State = u32;

        fn init(&self) -> u32 {
            0
        }

        fn threads(&self) -> usize {
            2
        }

        fn steps(&self, _tid: usize) -> usize {
            2
        }

        fn step(&self, state: &mut u32, tid: usize, _idx: usize) -> Result<(), String> {
            *state += tid as u32 + 1;
            Ok(())
        }

        fn invariant(&self, state: &u32) -> Result<(), String> {
            if *state <= 6 {
                Ok(())
            } else {
                Err(format!("counter overshot: {state}"))
            }
        }

        fn finalize(&self, state: &mut u32) -> Result<(), String> {
            if *state == 6 {
                Ok(())
            } else {
                Err(format!("expected 6, got {state}"))
            }
        }
    }

    #[test]
    fn serial_footprints_reproduce_full_enumeration() {
        // Adders declares no footprints, so every step is Sync(GLOBAL):
        // check() must run every one of the C(4,2) = 6 interleavings.
        let report = check(&Adders, &CheckOptions::default()).expect("no violations");
        assert_eq!(report.schedules, 6);
        assert_eq!(Some(report.schedules), schedule_count(&[2, 2]).ok());
        assert_eq!(report.unreduced, Some(6));
        assert_eq!(report.reduction_ratio(), Some(1.0));
    }

    #[test]
    fn schedule_counts_match_known_multinomials() {
        assert_eq!(schedule_count(&[6, 6]), Ok(924));
        assert_eq!(schedule_count(&[1, 1, 1]), Ok(6));
        assert_eq!(schedule_count(&[0, 3]), Ok(1));
    }

    #[test]
    fn schedule_count_overflow_is_typed_not_wrapped() {
        let lens = [30, 30, 30];
        match schedule_count(&lens) {
            Err(ExploreError::CountOverflow { lens: l }) => assert_eq!(l, lens.to_vec()),
            other => panic!("expected CountOverflow, got {other:?}"),
        }
    }

    /// A model whose invariant breaks only in one specific order —
    /// serial footprints must find it.
    struct OrderSensitive;

    impl Model for OrderSensitive {
        type State = Vec<usize>;

        fn init(&self) -> Vec<usize> {
            Vec::new()
        }

        fn threads(&self) -> usize {
            2
        }

        fn steps(&self, _tid: usize) -> usize {
            2
        }

        fn step(&self, state: &mut Vec<usize>, tid: usize, _idx: usize) -> Result<(), String> {
            state.push(tid);
            Ok(())
        }

        fn invariant(&self, state: &Vec<usize>) -> Result<(), String> {
            if state == &[1, 0, 1, 0] {
                Err("the needle interleaving".into())
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn dpor_finds_the_needle_under_serial_footprints() {
        let err = check(&OrderSensitive, &CheckOptions::default()).expect_err("must find it");
        match err {
            ExploreError::Violation(v) => {
                assert_eq!(v.schedule, vec![1, 0, 1, 0]);
                assert!(v.message.contains("needle"));
            }
            other => panic!("expected Violation, got {other:?}"),
        }
    }

    /// Two threads, each two writes to thread-private locations: fully
    /// independent, so DPOR should collapse all 6 interleavings to 1.
    struct Disjoint;

    impl Model for Disjoint {
        type State = [u32; 2];

        fn init(&self) -> [u32; 2] {
            [0, 0]
        }

        fn threads(&self) -> usize {
            2
        }

        fn steps(&self, _tid: usize) -> usize {
            2
        }

        fn step(&self, state: &mut [u32; 2], tid: usize, _idx: usize) -> Result<(), String> {
            state[tid] += 1;
            Ok(())
        }

        fn footprint(&self, tid: usize, _idx: usize) -> Footprint {
            Footprint::empty().write(tid)
        }

        fn finalize(&self, state: &mut [u32; 2]) -> Result<(), String> {
            if *state == [2, 2] {
                Ok(())
            } else {
                Err(format!("lost updates: {state:?}"))
            }
        }
    }

    #[test]
    fn dpor_collapses_independent_threads_to_one_schedule() {
        let report = check(&Disjoint, &CheckOptions::default()).expect("no violations");
        assert_eq!(report.schedules, 1);
        assert_eq!(report.unreduced, Some(6));
        assert!(report.reduction_ratio().unwrap() > 1.0);
    }

    /// Two threads doing a private write then a mutexed update of a
    /// shared location: only the shared steps conflict.
    struct HalfShared;

    impl Model for HalfShared {
        type State = u32;

        fn init(&self) -> u32 {
            0
        }

        fn threads(&self) -> usize {
            2
        }

        fn steps(&self, _tid: usize) -> usize {
            2
        }

        fn step(&self, state: &mut u32, _tid: usize, idx: usize) -> Result<(), String> {
            if idx == 1 {
                *state += 1;
            }
            Ok(())
        }

        fn footprint(&self, tid: usize, idx: usize) -> Footprint {
            if idx == 0 {
                Footprint::empty().write(10 + tid)
            } else {
                Footprint::empty().sync(0).write(0)
            }
        }

        fn finalize(&self, state: &mut u32) -> Result<(), String> {
            if *state == 2 {
                Ok(())
            } else {
                Err(format!("expected 2, got {state}"))
            }
        }
    }

    #[test]
    fn dpor_explores_only_the_conflicting_orders() {
        let report = check(&HalfShared, &CheckOptions::default()).expect("no violations");
        // Only the two orders of the mutexed updates matter.
        assert!(report.schedules >= 2, "both shared orders: {report:?}");
        assert!(
            report.schedules < report.unreduced.unwrap(),
            "must reduce below the multinomial: {report:?}"
        );
    }

    /// Unsynchronized writes to one location: the race detector must
    /// flag them even though no invariant breaks.
    struct Racy;

    impl Model for Racy {
        type State = u32;

        fn init(&self) -> u32 {
            0
        }

        fn threads(&self) -> usize {
            2
        }

        fn steps(&self, _tid: usize) -> usize {
            1
        }

        fn step(&self, state: &mut u32, _tid: usize, _idx: usize) -> Result<(), String> {
            *state = 7;
            Ok(())
        }

        fn footprint(&self, _tid: usize, _idx: usize) -> Footprint {
            Footprint::empty().write(0)
        }
    }

    #[test]
    fn vector_clocks_catch_the_unsynchronized_write_pair() {
        let err = check(&Racy, &CheckOptions::default()).expect_err("must race");
        match err {
            ExploreError::Race(r) => {
                assert_eq!(r.loc, 0);
                assert_eq!(r.prefix.len(), 2);
            }
            other => panic!("expected Race, got {other:?}"),
        }
        // With detection off the same model passes (no invariant broken).
        let opts = CheckOptions {
            detect_races: false,
            ..CheckOptions::default()
        };
        check(&Racy, &opts).expect("no violation without the detector");
    }

    /// A producer incrementing a counter and a consumer that may only
    /// step when the counter is positive: exercises enabledness.
    struct Guarded;

    impl Model for Guarded {
        type State = i32;

        fn init(&self) -> i32 {
            0
        }

        fn threads(&self) -> usize {
            2
        }

        fn steps(&self, _tid: usize) -> usize {
            2
        }

        fn step(&self, state: &mut i32, tid: usize, _idx: usize) -> Result<(), String> {
            *state += if tid == 0 { 1 } else { -1 };
            if *state < 0 {
                return Err(format!("consumed below zero: {state}"));
            }
            Ok(())
        }

        fn enabled(&self, state: &i32, tid: usize, _idx: usize) -> bool {
            tid == 0 || *state > 0
        }

        fn footprint(&self, _tid: usize, _idx: usize) -> Footprint {
            // The counter is both the data and the consumer's guard.
            Footprint::empty().sync(0)
        }
    }

    #[test]
    fn enabledness_prunes_to_the_legal_interleavings() {
        let report = check(&Guarded, &CheckOptions::default()).expect("guards keep it legal");
        // Of C(4,2)=6 merge orders only the ballot sequences survive:
        // ++--, +-+- (every prefix has at least as many + as -).
        assert_eq!(report.schedules, 2);
        assert_eq!(report.unreduced, Some(6));
    }

    /// One thread whose single step is never enabled.
    struct Stuck;

    impl Model for Stuck {
        type State = ();

        fn init(&self) {}

        fn threads(&self) -> usize {
            1
        }

        fn steps(&self, _tid: usize) -> usize {
            1
        }

        fn step(&self, _state: &mut (), _tid: usize, _idx: usize) -> Result<(), String> {
            Err("unreachable".into())
        }

        fn enabled(&self, _state: &(), _tid: usize, _idx: usize) -> bool {
            false
        }
    }

    #[test]
    fn all_blocked_pending_threads_report_deadlock() {
        let err = check(&Stuck, &CheckOptions::default()).expect_err("must deadlock");
        match err {
            ExploreError::Deadlock { schedule, blocked } => {
                assert!(schedule.is_empty());
                assert_eq!(blocked, vec![0]);
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn tiny_budget_reports_typed_exhaustion() {
        let err = check(&Adders, &CheckOptions::budgeted(3)).expect_err("6 schedules > 3");
        match err {
            ExploreError::BudgetExceeded { budget, explored } => {
                assert_eq!(budget, 3);
                assert_eq!(explored, 3);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn oversized_scripts_are_rejected_up_front() {
        struct Long;
        impl Model for Long {
            type State = ();
            fn init(&self) {}
            fn threads(&self) -> usize {
                2
            }
            fn steps(&self, _tid: usize) -> usize {
                100
            }
            fn step(&self, _s: &mut (), _t: usize, _i: usize) -> Result<(), String> {
                Ok(())
            }
        }
        match check(&Long, &CheckOptions::default()) {
            Err(ExploreError::ScriptTooLong { steps, max }) => {
                assert_eq!(steps, 200);
                assert_eq!(max, MAX_TOTAL_STEPS);
            }
            other => panic!("expected ScriptTooLong, got {other:?}"),
        }
    }
}
