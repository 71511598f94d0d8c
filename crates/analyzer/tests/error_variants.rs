//! One dedicated test per [`AnalysisError`] variant (the three
//! `TooMany*` ones are unit tests, next to the crate's topologies). Each drives the
//! analyzer itself (never hand-constructs the error it asserts against
//! alone), pins the *exact* variant with all fields, and pins the exact
//! `Display` rendering — what operators grep in chaos logs.

use analyzer::{check_comm_plan, check_schedule, AnalysisError, WaitPoint};
use cluster_sim::program::Program;
use tiling_core::dependence::DependenceSet;
use tiling_core::schedule::{StepStrategy, TileSchedule};

/// Example 1's dependences plus `(1, −1)`, which neither of the
/// paper's schedules orders.
fn with_anti_diagonal() -> DependenceSet {
    DependenceSet::from_vectors(2, vec![vec![1, 1], vec![1, 0], vec![0, 1], vec![1, -1]])
}

#[test]
fn illegal_schedule_variant_and_display() {
    let schedule = TileSchedule::with_mapping(StepStrategy::Blocking, 2, 0);
    let err = check_schedule(&schedule, &with_anti_diagonal())
        .expect_err("Π = [1, 1] nullifies the anti-diagonal dependence");
    assert_eq!(
        err,
        AnalysisError::IllegalSchedule {
            pi: vec![1, 1],
            dep: vec![1, -1],
            dot: 0,
        }
    );
    assert_eq!(
        err.to_string(),
        "illegal schedule: Π = [1, 1] gives Π·d = 0 ≤ 0 for dependence [1, -1]"
    );
}

#[test]
fn overlap_ordering_violation_variant_and_display() {
    let schedule = TileSchedule::with_mapping(StepStrategy::Overlap, 2, 1);
    let err = check_schedule(&schedule, &with_anti_diagonal())
        .expect_err("cross-processor dependence (1, -1) advances only 1 step");
    assert_eq!(
        err,
        AnalysisError::OverlapOrderingViolation {
            pi: vec![2, 1],
            dep: vec![1, -1],
            dot: 1,
        }
    );
    assert_eq!(
        err.to_string(),
        "overlap ordering violated: cross-processor dependence [1, -1] advances \
         Π·d = 1 < 2 time steps under Π = [2, 1] (eq. 4 needs the face one \
         full step in flight)"
    );
}

#[test]
fn tag_mismatch_variant_and_display() {
    let (mut a, mut b) = (Program::new(), Program::new());
    a.send(1, 5, 32);
    b.recv(0, 7, 32);
    let err = check_comm_plan(&[a, b]).expect_err("tag 5 staged, tag 7 expected");
    assert_eq!(
        err,
        AnalysisError::TagMismatch {
            from: 0,
            to: 1,
            step: 0,
            sent: 5,
            expected: 7,
        }
    );
    assert_eq!(
        err.to_string(),
        "tag mismatch on rank 0 → rank 1 at step 0: \
         sender stages tag 5, receiver expects tag 7"
    );
}

#[test]
fn size_mismatch_variant_and_display() {
    // Steps 0 and 1 of the channel match; step 2 disagrees.
    let (mut a, mut b) = (Program::new(), Program::new());
    for tag in 1..=2 {
        a.send(1, tag, 16);
        b.recv(0, tag, 16);
    }
    a.send(1, 3, 24);
    b.recv(0, 3, 16);
    let err = check_comm_plan(&[a, b]).expect_err("6 elements staged, 4 expected");
    assert_eq!(
        err,
        AnalysisError::SizeMismatch {
            from: 0,
            to: 1,
            tag: 3,
            step: 2,
            send_len: 6,
            recv_len: 4,
        }
    );
    assert_eq!(
        err.to_string(),
        "size mismatch on rank 0 → rank 1 (tag 3, step 2): \
         sender stages 6 elements, receiver expects 4"
    );
}

#[test]
fn unmatched_send_variant_and_display() {
    // Step 0 of the channel matches; step 1 is never received.
    let (mut a, mut b) = (Program::new(), Program::new());
    a.send(1, 8, 16);
    a.send(1, 9, 16);
    b.recv(0, 8, 16);
    b.compute(0.0, 1);
    let err = check_comm_plan(&[a, b]).expect_err("no receive ever consumes tag 9");
    assert_eq!(
        err,
        AnalysisError::UnmatchedSend {
            from: 0,
            to: 1,
            tag: 9,
            step: 1,
        }
    );
    assert_eq!(
        err.to_string(),
        "unmatched send: rank 0 → rank 1 (tag 9, step 1) is never received"
    );
}

#[test]
fn unmatched_receive_variant_and_display() {
    // Step 0 of the channel matches; step 1 is never sent.
    let (mut a, mut b) = (Program::new(), Program::new());
    a.compute(0.0, 0);
    a.send(1, 1, 16);
    b.recv(0, 1, 16);
    b.recv(0, 2, 16);
    let err = check_comm_plan(&[a, b]).expect_err("no send ever satisfies tag 2");
    assert_eq!(
        err,
        AnalysisError::UnmatchedReceive {
            rank: 1,
            from: 0,
            tag: 2,
            step: 1,
        }
    );
    assert_eq!(
        err.to_string(),
        "unmatched receive: rank 1 waits for rank 0 \
         (tag 2, step 1) but no such send is staged"
    );
}

#[test]
fn deadlock_variant_and_display() {
    // Every message has a matching peer, but each rank's blocking
    // receive precedes the send its peer waits on: a two-rank cycle.
    let (mut a, mut b) = (Program::new(), Program::new());
    a.recv(1, 0, 16);
    a.send(1, 1, 16);
    b.recv(0, 1, 16);
    b.send(0, 0, 16);
    let err = check_comm_plan(&[a, b]).expect_err("mutual blocking receives must wedge");
    assert_eq!(
        err,
        AnalysisError::Deadlock {
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
        }
    );
    assert_eq!(
        err.to_string(),
        "deadlock cycle across 2 ranks: \
         rank 0 waits on rank 1 (tag 0, step 0); \
         rank 1 waits on rank 0 (tag 1, step 0)"
    );
}
