//! Chaos tests: run the distributed executor on 2-D strips and 3-D blocks over the
//! *real* threaded transport while a seeded [`FaultPlan`] drops,
//! duplicates, reorders and delay-spikes their messages.
//!
//! The contract under test is the reliability layer's: every
//! *recoverable* fault (a dropped copy that survives in the link
//! ledger, a duplicate, a reordering, a latency spike) must be absorbed
//! without changing a single bit of the result, because the kernels are
//! single-assignment recurrences and the transport re-sequences and
//! re-fetches deterministically. An *unrecoverable* fault (a message
//! lost beyond recovery) must surface as a typed [`EngineError`] within
//! the configured retry schedule — never a hang, never an index panic.
//! Every run sits under a watchdog so a regression to the old
//! silent-deadlock behavior fails the test instead of wedging CI.
//!
//! Seeds are fixed by default and overridable via `CHAOS_SEED` for
//! soak-style exploration (`CHAOS_SEED=7 cargo test --test chaos_faults`).

use msgpass::prelude::*;
use proptest::prelude::*;
use std::time::Duration;
use stencil::decomp::Decomp2D;
use stencil::dist3d::{run_dist3d_with, Decomp3D};
use stencil::grid::Grid2D;
use stencil::kernel::{Example1, Paper3D};
use stencil::prelude::{EngineError, ExecMode};
use stencil::seq::{run_example1_seq, run_paper3d_seq};

/// Base seed for all chaos plans (override with `CHAOS_SEED=<n>`).
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// Run `f` on a helper thread and panic if it outlives `limit` — the
/// harness that turns a transport hang back into a test failure.
fn with_watchdog<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(r) => {
            let _ = handle.join();
            r
        }
        Err(_) => panic!("watchdog: run exceeded {limit:?} — transport hang regression"),
    }
}

/// Example 1 over the strips `d`, run as their unit-axis block on a
/// fresh world built from `cfg`: the strip grid, time and fault counters.
fn run_strip(
    d: Decomp2D,
    cfg: &WorldConfig,
    mode: ExecMode,
) -> Result<(Grid2D, Duration, Vec<FaultStats>), EngineError> {
    let (block, elapsed, stats) = run_dist3d_with(Example1, d.block(), cfg, mode)?;
    Ok((Grid2D::from_block(&block), elapsed, stats))
}

/// A recoverable storm: drops (recovered from the link ledger),
/// duplicates (discarded by sequence), reorders (re-sequenced) and
/// latency spikes (absorbed by the retry schedule).
fn recoverable_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_drops(0.15)
        .with_duplicates(0.10)
        .with_reorders(0.10)
        .with_delay_spikes(0.20, Duration::from_micros(500))
}

/// Both transports under test: the mpsc fallback and the zero-copy
/// shared-slot rings. The fault layer works on [`Payload`] handles, so
/// every chaos contract must hold identically on both.
fn transports() -> [TransportKind; 2] {
    [TransportKind::Mpsc, TransportKind::shared_slots()]
}

fn chaos_world(seed: u64, transport: TransportKind) -> WorldConfig {
    WorldConfig::new(LatencyModel::zero())
        .with_transport(transport)
        .with_reliability(ReliabilityConfig {
            recv_timeout: Duration::from_millis(50),
            max_retries: 6,
            backoff: Duration::from_millis(2),
        })
        .with_faults(recoverable_plan(seed))
}

#[test]
fn chaos_2d_recoverable_faults_preserve_bitwise_results() {
    let d = Decomp2D {
        nx: 40,
        ny: 12,
        ranks: 4,
        v: 5,
        boundary: 1.5,
    };
    let seq = run_example1_seq(d.nx, d.ny, d.boundary);
    for transport in transports() {
        for (i, mode) in [ExecMode::Blocking, ExecMode::Overlapping]
            .into_iter()
            .enumerate()
        {
            let seed = chaos_seed() + i as u64;
            let (grid, _, stats) = with_watchdog(Duration::from_secs(60), move || {
                run_strip(d, &chaos_world(seed, transport), mode)
            })
            .unwrap_or_else(|e| {
                panic!("{mode:?}/{transport:?} failed under recoverable faults: {e}")
            });
            assert_eq!(
                grid.max_abs_diff(&seq),
                0.0,
                "{mode:?}/{transport:?} result differs under faults"
            );
            let total: u64 = stats.iter().map(|s| s.total_injected()).sum();
            assert!(
                total > 0,
                "{mode:?}/{transport:?}: the plan injected nothing — test is vacuous"
            );
        }
    }
}

#[test]
fn chaos_3d_recoverable_faults_preserve_bitwise_results() {
    let d = Decomp3D {
        nx: 8,
        ny: 8,
        nz: 24,
        pi: 2,
        pj: 2,
        v: 5,
        boundary: 2.0,
    };
    let seq = run_paper3d_seq(d.nx, d.ny, d.nz, d.boundary);
    for transport in transports() {
        for (i, mode) in [ExecMode::Blocking, ExecMode::Overlapping]
            .into_iter()
            .enumerate()
        {
            let seed = chaos_seed() ^ (0x3D00 + i as u64);
            let (grid, _, stats) = with_watchdog(Duration::from_secs(60), move || {
                run_dist3d_with(Paper3D, d, &chaos_world(seed, transport), mode)
            })
            .unwrap_or_else(|e| {
                panic!("{mode:?}/{transport:?} failed under recoverable faults: {e}")
            });
            assert_eq!(
                grid.max_abs_diff(&seq),
                0.0,
                "{mode:?}/{transport:?} result differs under faults"
            );
            let total: u64 = stats.iter().map(|s| s.total_injected()).sum();
            assert!(
                total > 0,
                "{mode:?}/{transport:?}: the plan injected nothing — test is vacuous"
            );
        }
    }
}

#[test]
fn chaos_3d_slot_lease_retransmission_is_bitwise_exact() {
    // The zero-copy corner case: a dropped message whose payload is a
    // *shared slot lease*. The ledger parking must keep the slot alive
    // (refcount, not a copy) while later sends keep flowing through the
    // same pool; the receiver's timeout recovery must then read the
    // parked lease's bits, not a recycled slot's. Target a mid-pipeline
    // drop on both wire directions and require both recoveries and a
    // bitwise-exact grid.
    let d = Decomp3D {
        nx: 4,
        ny: 4,
        nz: 32,
        pi: 2,
        pj: 2,
        v: 4,
        boundary: 1.0,
    };
    let seq = run_paper3d_seq(d.nx, d.ny, d.nz, d.boundary);
    for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
        let cfg = WorldConfig::new(LatencyModel::zero())
            .with_transport(TransportKind::shared_slots())
            .with_reliability(ReliabilityConfig {
                recv_timeout: Duration::from_millis(20),
                max_retries: 6,
                backoff: Duration::from_millis(1),
            })
            .with_faults(
                FaultPlan::seeded(chaos_seed())
                    .targeted(FaultSite {
                        src: 0,
                        dst: 2,
                        tag: stencil::proto::tag(3, stencil::proto::DIR_I),
                        kind: FaultKind::Drop,
                    })
                    .targeted(FaultSite {
                        src: 1,
                        dst: 3,
                        tag: stencil::proto::tag(4, stencil::proto::DIR_I),
                        kind: FaultKind::Drop,
                    }),
            );
        let (grid, _, stats) = with_watchdog(Duration::from_secs(60), move || {
            run_dist3d_with(Paper3D, d, &cfg, mode)
        })
        .unwrap_or_else(|e| panic!("{mode:?} failed to recover a dropped slot lease: {e}"));
        assert_eq!(
            grid.max_abs_diff(&seq),
            0.0,
            "{mode:?}: retransmitted slot lease delivered stale or wrong bits"
        );
        let dropped: u64 = stats.iter().map(|s| s.dropped).sum();
        let recovered: u64 = stats.iter().map(|s| s.recovered).sum();
        assert_eq!(dropped, 2, "{mode:?}: both targeted drops must fire");
        assert_eq!(
            recovered, 2,
            "{mode:?}: both parked leases must be recovered"
        );
    }
}

/// Tight retry schedule for the unrecoverable cases: the typed error
/// must arrive within a small multiple of `worst_case_wait`, not after
/// CI-length hangs.
fn tight_reliability() -> ReliabilityConfig {
    ReliabilityConfig {
        recv_timeout: Duration::from_millis(10),
        max_retries: 2,
        backoff: Duration::from_millis(1),
    }
}

#[test]
fn chaos_2d_unrecoverable_loss_is_a_typed_error() {
    let d = Decomp2D {
        nx: 20,
        ny: 8,
        ranks: 2,
        v: 5,
        boundary: 1.0,
    };
    // Lose the step-1 j-face from rank 0 to rank 1, permanently.
    let tag = stencil::proto::tag(1, stencil::proto::DIR_J);
    for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
        let cfg = WorldConfig::new(LatencyModel::zero())
            .with_reliability(tight_reliability())
            .with_faults(FaultPlan::seeded(chaos_seed()).lose_at(0, 1, tag));
        let err = with_watchdog(Duration::from_secs(30), move || run_strip(d, &cfg, mode))
            .expect_err("a permanently lost face must fail the run");
        match err {
            EngineError::SequenceGap { from: 0, .. }
            | EngineError::Timeout { .. }
            | EngineError::RankFailed { .. } => {}
            other => panic!("{mode:?}: unexpected error {other:?}"),
        }
    }
}

#[test]
fn chaos_3d_unrecoverable_loss_is_a_typed_error() {
    let d = Decomp3D {
        nx: 4,
        ny: 4,
        nz: 16,
        pi: 2,
        pj: 2,
        v: 4,
        boundary: 1.0,
    };
    // Corner flow: lose rank 0's step-0 i-face to rank 2.
    let tag = stencil::proto::tag(0, stencil::proto::DIR_I);
    for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
        let cfg = WorldConfig::new(LatencyModel::zero())
            .with_reliability(tight_reliability())
            .with_faults(FaultPlan::seeded(chaos_seed()).lose_at(0, 2, tag));
        let err = with_watchdog(Duration::from_secs(30), move || {
            run_dist3d_with(Paper3D, d, &cfg, mode)
        })
        .expect_err("a permanently lost face must fail the run");
        match err {
            EngineError::SequenceGap { from: 0, .. }
            | EngineError::Timeout { .. }
            | EngineError::RankFailed { .. } => {}
            other => panic!("{mode:?}: unexpected error {other:?}"),
        }
    }
}

proptest! {
    // Thread-spawning chaos cases are expensive; a handful of random
    // plans per run is plenty on top of the fixed-seed tests above.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random recoverable plans over random 2-D shapes: completion must
    /// stay bitwise-exact whatever the (seeded) fault schedule does.
    #[test]
    fn chaos_2d_random_plans_stay_bitwise_exact(
        seed in 0u64..1_000_000,
        ranks in 2usize..=3,
        by in 1usize..=3,
        nx in 6usize..=24,
        v in 1usize..=7,
    ) {
        let d = Decomp2D { nx, ny: ranks * by, ranks, v, boundary: 1.0 };
        let seq = run_example1_seq(d.nx, d.ny, d.boundary);
        let transport = if seed % 2 == 0 {
            TransportKind::Mpsc
        } else {
            TransportKind::shared_slots()
        };
        let cfg = chaos_world(chaos_seed() ^ seed, transport);
        let (grid, _, _) = with_watchdog(Duration::from_secs(60), move || {
            run_strip(d, &cfg, ExecMode::Overlapping)
        }).expect("recoverable plan must complete");
        prop_assert_eq!(grid.max_abs_diff(&seq), 0.0);
    }
}

#[test]
fn dead_upstream_on_a_plain_world_is_rank_failed_not_a_panic() {
    // No reliability layer at all: rank 0 leaves before sending a face.
    // Its neighbour's engine must come back with the dead rank named —
    // a panic in the survivor would show up as an `Err` join slot.
    use stencil::dist3d::try_run_rank3d_plan;
    use stencil::kernel::KernelTier;
    use stencil::plan::Compiled3D;
    use stencil::prelude::NoopObserver;
    let d = Decomp2D {
        nx: 12,
        ny: 4,
        ranks: 2,
        v: 4,
        boundary: 1.0,
    };
    for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
        for transport in transports() {
            let plan = Compiled3D::compile(d.block(), mode).expect("valid layout");
            let cfg = WorldConfig::new(LatencyModel::zero()).with_transport(transport);
            let results = with_watchdog(Duration::from_secs(30), move || {
                run_threads_with::<f32, _, _>(2, &cfg, |mut comm| {
                    if comm.rank() == 0 {
                        return Ok(Vec::new());
                    }
                    let tier = KernelTier::Bitwise;
                    try_run_rank3d_plan(&mut comm, Example1, &plan, tier, &mut NoopObserver)
                })
                .0
            });
            let survivor = results.into_iter().nth(1).expect("two ranks");
            let survivor = survivor.unwrap_or_else(|_| panic!("{mode:?} {transport:?}: panicked"));
            assert_eq!(
                survivor,
                Err(EngineError::RankFailed { rank: 0 }),
                "{mode:?} {transport:?}"
            );
        }
    }
}
