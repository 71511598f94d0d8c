//! The analyzer's acceptance gauntlet: four known-bad inputs, each of
//! which must be rejected with its *specific* typed error — never a
//! hang, never a generic failure. Programs carry bytes; the analyzer
//! reports elements of four bytes each.

use analyzer::{check_comm_plan, check_schedule, AnalysisError, WaitPoint};
use cluster_sim::program::Program;
use tiling_core::dependence::DependenceSet;
use tiling_core::schedule::{StepStrategy, TileSchedule};

/// Bad input 1: sender stages tag 5, receiver expects tag 7 on the
/// same channel and step.
#[test]
fn mismatched_tag_plan_is_rejected() {
    let (mut a, mut b) = (Program::new(), Program::new());
    a.send(1, 5, 32);
    b.recv(0, 7, 32);
    assert_eq!(
        check_comm_plan(&[a, b]),
        Err(AnalysisError::TagMismatch {
            from: 0,
            to: 1,
            step: 0,
            sent: 5,
            expected: 7,
        })
    );
}

/// Bad input 2: a send whose peer never posts any receive.
#[test]
fn send_without_receive_is_rejected() {
    let (mut a, mut b) = (Program::new(), Program::new());
    a.compute(0.0, 0);
    a.send(1, 0, 16);
    b.compute(0.0, 0);
    assert_eq!(
        check_comm_plan(&[a, b]),
        Err(AnalysisError::UnmatchedSend {
            from: 0,
            to: 1,
            tag: 0,
            step: 0,
        })
    );
}

/// Bad input 3: a two-rank wait-for cycle. Every message has a
/// matching peer — the matcher passes — but each rank's blocking
/// receive precedes the send its peer is waiting for, so symbolic
/// execution wedges and SCC analysis names the cycle.
#[test]
fn cyclic_wait_for_graph_is_rejected_as_deadlock() {
    let (mut a, mut b) = (Program::new(), Program::new());
    a.recv(1, 0, 16);
    a.send(1, 1, 16);
    b.recv(0, 1, 16);
    b.send(0, 0, 16);
    assert_eq!(
        check_comm_plan(&[a, b]),
        Err(AnalysisError::Deadlock {
            cycle: vec![
                WaitPoint {
                    rank: 0,
                    from: 1,
                    tag: 0,
                    step: 0,
                },
                WaitPoint {
                    rank: 1,
                    from: 0,
                    tag: 1,
                    step: 0,
                },
            ],
        })
    );
}

/// Example 1's dependences plus `(1, −1)`, which neither of the
/// paper's schedules orders.
fn with_anti_diagonal() -> DependenceSet {
    DependenceSet::from_vectors(2, vec![vec![1, 1], vec![1, 0], vec![0, 1], vec![1, -1]])
}

/// Bad input 4: an illegal schedule — the blocking `Π = [1, 1]` gives
/// `Π·(1, −1) = 0`.
#[test]
fn illegal_schedule_is_rejected() {
    let schedule = TileSchedule::with_mapping(StepStrategy::Blocking, 2, 0);
    assert_eq!(
        check_schedule(&schedule, &with_anti_diagonal()),
        Err(AnalysisError::IllegalSchedule {
            pi: vec![1, 1],
            dep: vec![1, -1],
            dot: 0,
        })
    );
}

/// The overlap ordering check (eq. 4): a legal-but-too-tight schedule
/// where a cross-processor dependence advances only 1 time step.
#[test]
fn overlap_ordering_violation_is_rejected() {
    // Overlap mapped along dim 1 is Π = [2, 1]: (1, −1) crosses ranks
    // (nonzero off the mapping dim) but only advances 2 − 1 = 1.
    let schedule = TileSchedule::with_mapping(StepStrategy::Overlap, 2, 1);
    assert_eq!(
        check_schedule(&schedule, &with_anti_diagonal()),
        Err(AnalysisError::OverlapOrderingViolation {
            pi: vec![2, 1],
            dep: vec![1, -1],
            dot: 1,
        })
    );
}

/// A receive with no matching send anywhere — distinct from the
/// deadlock case (which only fires when matching succeeds). Step 0 of
/// the channel matches; step 1 is the starved one.
#[test]
fn receive_without_send_is_rejected() {
    let (mut a, mut b) = (Program::new(), Program::new());
    a.compute(0.0, 0);
    a.send(1, 0, 16);
    b.recv(0, 0, 16);
    b.recv(0, 2, 16);
    assert_eq!(
        check_comm_plan(&[a, b]),
        Err(AnalysisError::UnmatchedReceive {
            rank: 1,
            from: 0,
            tag: 2,
            step: 1,
        })
    );
}

/// Order sensitivity inside one channel is legal for the engine's
/// plans (tags disambiguate steps); a plan that reuses one tag twice
/// with different payload sizes must still be caught.
#[test]
fn reused_tag_with_diverging_sizes_is_rejected() {
    let (mut a, mut b) = (Program::new(), Program::new());
    a.send(1, 0, 16);
    a.send(1, 0, 24);
    b.recv(0, 0, 16);
    b.recv(0, 0, 16);
    assert_eq!(
        check_comm_plan(&[a, b]),
        Err(AnalysisError::SizeMismatch {
            from: 0,
            to: 1,
            tag: 0,
            step: 1,
            send_len: 6,
            recv_len: 4,
        })
    );
}
