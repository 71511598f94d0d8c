//! Allocation discipline of the distributed executors.
//!
//! Two instruments:
//!
//! * a counting `#[global_allocator]` — on a single-rank world (no
//!   messages, so no `mpsc` internals in the picture) the total number
//!   of allocations must not depend on the number of pipeline steps:
//!   the per-step compute/pack path allocates nothing. It also sums the
//!   bytes requested and keeps the largest request: a repeat run of a
//!   plan reuses a result grid a dropped one parked — of whichever size
//!   it needs, when a caller held several — so it allocates no buffer
//!   of that size;
//! * the `msgpass` buffer-pool counters — payload buffers for sends are
//!   recycled rather than freshly allocated once the pipeline is warm,
//!   and every consumed receive buffer is returned to its sender.
//!
//! Multi-rank timing is real (threads), so the multi-rank assertions are
//! either exact accounting identities (fresh + recycled == sends,
//! returned == receives) or wide-margin dominance bounds on a
//! latency-throttled run, not exact step counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use msgpass::thread_backend::{
    build_world_with, run_threads_with, LatencyModel, PoolStats, WorldConfig,
};
use msgpass::transport::TransportKind;
use stencil::dist3d::{run_dist3d_with, try_run_rank3d_plan, Decomp3D, ExecMode};
use stencil::engine::NoopObserver;
use stencil::kernel::{KernelTier, Relax3D};
use stencil::plan::{run3d_on_world, run3d_with, Compiled3D};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested: every allocation's size, every growth's increase.
static BYTES: AtomicU64 = AtomicU64::new(0);
/// The largest single allocation or growth's new size.
static LARGEST: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates to the `System` allocator, which
// upholds the `GlobalAlloc` contract; the counter bumps are Relaxed
// atomics with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller obligations forwarded verbatim to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LARGEST.fetch_max(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's valid layout.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller obligations forwarded verbatim to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller obligations forwarded verbatim to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let grown = new_size.saturating_sub(layout.size());
        BYTES.fetch_add(grown as u64, Ordering::Relaxed);
        LARGEST.fetch_max(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from a prior `System` allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the tests in this binary so allocation counts aren't
/// polluted by a concurrently running sibling test.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn single_rank_decomp(nz: usize) -> Decomp3D {
    Decomp3D {
        nx: 4,
        ny: 4,
        nz,
        pi: 1,
        pj: 1,
        v: 4,
        boundary: 1.0,
    }
}

/// Allocation count of one full single-rank overlapping run; minimum of
/// three trials to shed incidental runtime noise.
fn count_single_rank_run(nz: usize) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..3 {
        let d = single_rank_decomp(nz);
        let before = ALLOCS.load(Ordering::Relaxed);
        let cfg = WorldConfig::new(LatencyModel::zero());
        let (grid, _, _) = run_dist3d_with(Relax3D::default(), d, &cfg, ExecMode::Overlapping)
            .expect("valid decomp");
        let after = ALLOCS.load(Ordering::Relaxed);
        assert!(grid.cells().all(f32::is_finite));
        best = best.min(after - before);
    }
    best
}

#[test]
fn a_partial_last_tile_allocates_nothing_mid_run() {
    let _guard = lock();
    let _ = count_single_rank_run(10);
    // nz % V ≠ 0: the last tile is walked by a plan of its own. Both
    // plans are built with the block, before the first step, and the
    // units are re-dealt into storage sized for either — so 4 + ½ tiles
    // and 16 + ½ tiles allocate alike.
    let short = count_single_rank_run(18);
    let long = count_single_rank_run(66);
    assert_eq!(
        short, long,
        "allocation count grew with step count: {short} allocs at 5 steps vs {long} at 17"
    );
}

#[test]
fn overlap_3d_steady_state_steps_allocate_nothing() {
    let _guard = lock();
    // Warm up lazy runtime state outside the measured window.
    let _ = count_single_rank_run(8);
    // 4 steps vs 16 steps: if any allocation happened per pipeline step
    // (compute, tile bookkeeping, request slots), the longer run would
    // allocate more times. Buffer sizes differ; counts must not.
    let short = count_single_rank_run(16);
    let long = count_single_rank_run(64);
    assert_eq!(
        short, long,
        "allocation count grew with step count: {short} allocs at 4 steps vs {long} at 16"
    );
}

/// Allocation count of one full 2×2-rank run of `mode` on the
/// shared-slot transport; minimum over trials sheds scheduler noise
/// (a descheduled receiver can push the sender one slot deeper into
/// the pool, costing an extra first-use buffer growth).
fn count_slot_world_run(nz: usize, mode: ExecMode) -> u64 {
    let d = Decomp3D {
        nx: 4,
        ny: 4,
        nz,
        pi: 2,
        pj: 2,
        v: 4,
        boundary: 1.0,
    };
    let cfg = WorldConfig::new(LatencyModel::zero()).with_transport(TransportKind::shared_slots());
    let mut best = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        let (grid, _, _) =
            run_dist3d_with(Relax3D::default(), d, &cfg, mode).expect("valid decomp");
        let after = ALLOCS.load(Ordering::Relaxed);
        assert!(grid.cells().all(f32::is_finite));
        best = best.min(after - before);
    }
    best
}

#[test]
fn slot_transport_multi_rank_steps_allocate_nothing() {
    let _guard = lock();
    // Warm up lazy runtime state outside the measured window.
    let _ = count_slot_world_run(16, ExecMode::Overlapping);
    // 8 steps vs 64 steps across a real 2×2 world: faces pack straight
    // into the peer-visible slots and unpack straight out of them, so
    // once each link's working slots have grown their buffers the
    // per-step path — compute, pack, wire, unpack — performs zero heap
    // allocations. A leak of even one allocation per message would add
    // ≥ 224 allocations to the longer run (56 extra steps × 4 wire
    // messages per step); the allowed slack only covers warm-up breadth
    // (how many of a link's 8 slots grow a buffer depends on how far
    // the producer gets ahead, ±a few per link). Under either schedule.
    for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
        let short = count_slot_world_run(32, mode);
        let long = count_slot_world_run(256, mode);
        assert!(
            long <= short + 32,
            "{mode:?}: slot-transport steady state allocates per step: \
             {short} allocs over 8 steps vs {long} over 64"
        );
    }
}

/// Fewest bytes one call of `run` allocates, over three calls (the
/// first also warms whatever `run` reuses, the result's cells included).
fn min_bytes_of<T>(mut run: impl FnMut() -> T) -> u64 {
    let trial = |_| {
        let before = BYTES.load(Ordering::Relaxed);
        let out = run();
        let after = BYTES.load(Ordering::Relaxed);
        drop(out);
        after - before
    };
    (0..3).map(trial).min().expect("three trials")
}

#[test]
fn the_result_grid_is_the_only_grid_sized_allocation() {
    let _guard = lock();
    let d = Decomp3D {
        nx: 8,
        ny: 8,
        nz: 1024,
        pi: 2,
        pj: 1,
        v: 64,
        boundary: 1.0,
    };
    let plan = Compiled3D::compile(d, ExecMode::Overlapping).expect("valid decomp");
    // The ranks compute straight into the 256 KiB result, and a repeat
    // run takes the cells the last one's dropped result parked, so it
    // may allocate only the halo planes that receive something — rank
    // 1's `i` plane, 32 KiB; rank 0 has no upstream neighbor — and small
    // change. A fresh result grid, a gathered copy of it, or a flattened
    // copy of the blocks would be at least 256 KiB more.
    let plane_bytes = 4 * (d.by() * d.nz) as u64;
    let budget = plane_bytes + (64 << 10);
    let kernel = Relax3D::default();
    let cfg = WorldConfig::new(LatencyModel::zero());

    // On a warm prebuilt world, and on a fresh one per run.
    let mut world = build_world_with::<f32>(plan.ranks(), &cfg);
    let warm = min_bytes_of(|| {
        run3d_on_world(kernel, &plan, KernelTier::Bitwise, &mut world).expect("warm world")
    });
    assert!(warm <= budget, "warm world: {warm} bytes > {budget}");
    let fresh = min_bytes_of(|| run3d_with(kernel, &plan, &cfg).expect("fresh world"));
    assert!(fresh <= budget, "fresh world: {fresh} bytes > {budget}");

    // A 1×1 world receives nothing, so it allocates no halo plane at
    // all: a repeat run stays under the size of one.
    let lone = Decomp3D { pi: 1, ..d };
    let plan = Compiled3D::compile(lone, ExecMode::Overlapping).expect("valid decomp");
    let bytes = min_bytes_of(|| run3d_with(kernel, &plan, &cfg).expect("fresh world"));
    assert!(bytes < plane_bytes, "1x1 world: {bytes} bytes");
}

#[test]
fn results_held_together_are_reused_once_they_drop() {
    let _guard = lock();
    // A service client holds a script's results until the script ends:
    // plans of three cell counts in rotation, every result held. Once
    // they drop, the next rotation takes each size back from the park.
    let plans: Vec<Compiled3D> = [256, 320, 256, 384]
        .map(|nz| {
            let d = Decomp3D {
                nx: 8,
                ny: 8,
                nz,
                pi: 2,
                pj: 1,
                v: 64,
                boundary: 1.0,
            };
            Compiled3D::compile(d, ExecMode::Overlapping).expect("valid decomp")
        })
        .into();
    let cfg = WorldConfig::new(LatencyModel::zero());
    let mut world = build_world_with::<f32>(2, &cfg);
    let mut rotate = || -> Vec<_> {
        let mut run =
            |plan| run3d_on_world(Relax3D::default(), plan, KernelTier::Bitwise, &mut world);
        plans
            .iter()
            .map(|plan| run(plan).expect("runs").0)
            .collect()
    };
    drop(rotate());
    LARGEST.store(0, Ordering::Relaxed);
    let held = rotate();
    let largest = LARGEST.load(Ordering::Relaxed);
    // The smallest grid is 8·8·256 cells, 64 KiB; a halo plane is an
    // eighth of its grid.
    let smallest = 4 * 8 * 8 * 256;
    assert!(largest < smallest, "a {largest}-byte allocation");
    assert!(held.iter().all(|g| g.cells().all(f32::is_finite)));
}

/// Run every rank of `d` straight on a world built from `cfg` and
/// return each rank's buffer-pool counters.
fn rank_pool_stats_on(d: Decomp3D, cfg: &WorldConfig, mode: ExecMode) -> Vec<PoolStats> {
    let plan = Compiled3D::compile(d, mode).expect("valid decomp");
    run_threads_with::<f32, PoolStats, _>(plan.ranks(), cfg, |mut comm| {
        let (k, tier) = (Relax3D::default(), KernelTier::Bitwise);
        try_run_rank3d_plan(&mut comm, k, &plan, tier, &mut NoopObserver)
            .expect("fault-free world");
        comm.pool_stats()
    })
    .0
    .into_iter()
    .map(|stats| stats.expect("no rank panicked"))
    .collect()
}

/// [`rank_pool_stats_on`] a default (mpsc) world.
fn rank_pool_stats(d: Decomp3D, latency: LatencyModel, mode: ExecMode) -> Vec<PoolStats> {
    rank_pool_stats_on(d, &WorldConfig::new(latency), mode)
}

#[test]
fn a_zero_latency_world_never_grows_its_pools() {
    let _guard = lock();
    // The benchmark's `fine-grain` shape: 2048 steps of 256 cells, the
    // producer as far ahead of its consumer as the transport lets it.
    // Every message is due the instant it is pushed, so a full pool is
    // a lagging consumer: 8 slots, waits, no growth, no copy.
    let d = Decomp3D {
        nx: 8,
        ny: 8,
        nz: 16384,
        pi: 2,
        pj: 1,
        v: 8,
        boundary: 1.0,
    };
    let cfg = WorldConfig::new(LatencyModel::zero()).with_transport(TransportKind::shared_slots());
    let sender = rank_pool_stats_on(d, &cfg, ExecMode::Overlapping)[0];
    assert_eq!(sender.grown, 0, "{sender:?}");
    assert_eq!(sender.fresh_allocs + sender.recycled, 2048, "{sender:?}");
    assert!(sender.fresh_allocs <= 8, "a copy was made: {sender:?}");
}

#[test]
fn the_slot_window_is_warm_up_not_a_per_step_allocation() {
    let _guard = lock();
    // 2×1 ranks, 256-cell steps, a 200 µs wire on the slot transport:
    // rank 0 runs a wire time ahead, so the link's window settles at
    // however many faces 200 µs holds (tens in a debug build, a couple
    // of hundred optimized) — and stays there. Quadrupling the
    // pipeline must leave the slots warmed where they were (within the
    // one doubling scheduler jitter can add) and turn every further
    // send into a reuse. An owned copy per send the wire holds up would
    // make `fresh_allocs` follow the step count instead.
    let sender = |nz| {
        let d = Decomp3D {
            nx: 4,
            ny: 4,
            nz,
            pi: 2,
            pj: 1,
            v: 1,
            boundary: 1.0,
        };
        let latency = LatencyModel {
            startup_us: 200.0,
            per_byte_us: 0.0,
        };
        let cfg = WorldConfig::new(latency).with_transport(TransportKind::shared_slots());
        let s = rank_pool_stats_on(d, &cfg, ExecMode::Overlapping)[0];
        assert_eq!(s.fresh_allocs + s.recycled, d.steps() as u64, "{s:?}");
        s
    };
    let (short, long) = (sender(1024), sender(4096));
    assert!(
        long.fresh_allocs <= 2 * short.fresh_allocs && short.fresh_allocs <= 2 * long.fresh_allocs,
        "the window moved with the step count: {short:?} at 512 steps, {long:?} at 2048"
    );
    assert!(
        long.recycled >= short.recycled + 1024,
        "the extra 1536 steps were not served from warm slots: {short:?} vs {long:?}"
    );
}

#[test]
fn blocking_3d_send_buffers_recycle_under_load() {
    let _guard = lock();
    // 2×1 grid, 200 single-slab steps, 100 µs wire startup. The
    // sender's next acquire and the receiver's buffer return land on the
    // same wire deadline every round, so the winner is a scheduler coin
    // flip — but each lost round only grows the circulating pool, so
    // recycling must dominate by a wide margin over 200 steps. Exact
    // zero-steady-state recycling is asserted deterministically by the
    // lockstep test in `msgpass::thread_backend`.
    let d = Decomp3D {
        nx: 4,
        ny: 4,
        nz: 200,
        pi: 2,
        pj: 1,
        v: 1,
        boundary: 1.0,
    };
    let steps = d.steps();
    let latency = LatencyModel {
        startup_us: 100.0,
        per_byte_us: 0.0,
    };
    let stats = rank_pool_stats(d, latency, ExecMode::Blocking);
    // Rank 0 sends `steps` i-faces to rank 1; rank 1 sends nothing.
    let s0 = stats[0];
    assert_eq!(
        s0.fresh_allocs + s0.recycled,
        steps as u64,
        "every send draws from the pool exactly once"
    );
    assert!(
        s0.recycled >= (steps as u64) / 2,
        "send pool barely recycled: {} of {} sends served fresh",
        s0.fresh_allocs,
        steps
    );
    // Rank 1 consumed and returned every face.
    assert_eq!(stats[1].returned, steps as u64);
}

#[test]
fn overlap_3d_pool_accounting_is_exact() {
    let _guard = lock();
    let d = Decomp3D {
        nx: 4,
        ny: 4,
        nz: 24,
        pi: 2,
        pj: 2,
        v: 4,
        boundary: 1.0,
    };
    let steps = d.steps() as u64;
    let stats = rank_pool_stats(d, LatencyModel::zero(), ExecMode::Overlapping);
    // Ranks are laid out row-major on the 2×2 grid: rank 0 = (0,0) has
    // both down-neighbors, ranks 1 = (0,1) and 2 = (1,0) have one each,
    // rank 3 = (1,1) has none; receives mirror that.
    let sends = [2 * steps, steps, steps, 0];
    let recvs = [0, steps, steps, 2 * steps];
    for (rank, s) in stats.iter().enumerate() {
        assert_eq!(
            s.fresh_allocs + s.recycled,
            sends[rank],
            "rank {rank}: every send draws from the pool exactly once"
        );
        assert_eq!(
            s.returned, recvs[rank],
            "rank {rank}: every consumed receive buffer is returned"
        );
    }
}
