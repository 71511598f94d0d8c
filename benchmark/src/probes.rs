//! The probe pass: each layer timed in isolation through its public
//! functions, with nothing else running. A probe is a fixed number of
//! repetitions of a fixed input, so its counts repeat exactly and its
//! median is comparable between runs. None of these numbers is gated;
//! README.md says which end-to-end metric each is expected to move.

use crate::stats::median;
use crate::workloads::{cold_shape, hot_shape, COMPUTE_BOUND, FINE_GRAIN, SERVICE, WIRE};
use crate::Metrics;
use autotune::{tune, SimBackend, Surrogate, TuneConfig, TuneProblem};
use cluster_sim::builders::ClusterProblem;
use cluster_sim::engine::{simulate, SimConfig};
use msgpass::comm::Communicator;
use msgpass::thread_backend::{
    build_world_with, run_threads_with, run_world, LatencyModel, WorldConfig,
};
use msgpass::transport::TransportKind;
use planc::{Compiler, JobRequest, PlanService};
use std::hint::black_box;
use std::time::Instant;
use stencil::dist3d::Decomp3D;
use stencil::engine::ExecMode;
use stencil::halo::{pack_rows, unpack_rows};
use stencil::kernel::{Fused3D, Kernel3D, Paper3D, Relax3D};
use stencil::plan::{run3d_on_world, run3d_with, Compiled3D};
use stencil::preflight::check_plan3d;
use stencil::seq::run_seq3d;
use sweep::config::{generate, SweepSpec};
use tiling_core::closed_form::overlap_optimal_v;
use tiling_core::dependence::DependenceSet;
use tiling_core::machine::{KernelTier, MachineParams};
use tiling_core::parse::parse_loop_nest;
use tiling_core::space::IterationSpace;
use tiling_core::tiling::Tiling;

/// Microseconds of each of `reps` calls, after two untimed ones.
fn time_us<R>(reps: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    for _ in 0..2 {
        black_box(f());
    }
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

fn slots_world(latency: LatencyModel) -> WorldConfig {
    WorldConfig::new(latency).with_transport(TransportKind::shared_slots())
}

/// The `fine-grain` decomposition: the deepest pipeline any workload
/// runs, so the largest plan the analyzer and the engine see.
fn fine_grain() -> Decomp3D {
    let (nx, ny, nz, v) = FINE_GRAIN;
    Decomp3D {
        nx,
        ny,
        nz,
        pi: 2,
        pj: 1,
        v,
        boundary: 1.0,
    }
}

const NEST: &str = "\
FOR i1 = 1 TO 16 DO
  FOR i2 = 1 TO 16 DO
    FOR i3 = 1 TO 8192 DO
      A(i1, i2, i3) = sqrt(A(i1-1, i2, i3)) + sqrt(A(i1, i2-1, i3)) + sqrt(A(i1, i2, i3-1))
    ENDFOR
  ENDFOR
ENDFOR
";

fn tiling_core(m: &mut Metrics) {
    let parse = time_us(300, || {
        parse_loop_nest(NEST).expect("the probe nest parses")
    });
    m.put("tiling-core.parse_us_p50", median(&parse), "us");

    let space = IterationSpace::from_extents(&[16, 16, 8192]);
    let deps = DependenceSet::paper_3d();
    let machine = MachineParams::paper_cluster();
    // Sub-microsecond: time 64 calls per sample so the clock read is
    // not what gets measured.
    let vstar = time_us(300, || {
        (0..64)
            .map(|_| overlap_optimal_v(black_box(&space), &deps, &machine, &[8, 16], 2).v_star)
            .sum::<f64>()
    });
    m.put("tiling-core.vstar_us_p50", median(&vstar) / 64.0, "us");
}

fn analyzer(m: &mut Metrics) -> Result<(), String> {
    let d = fine_grain();
    let check = || check_plan3d(&d, ExecMode::Overlapping).map_err(|e| e.to_string());
    let messages = check()?.messages;
    let us = time_us(30, check);
    if check()?.messages != messages {
        return Err("analyzer.messages_matched changed between two analyses".into());
    }
    m.put("analyzer.preflight_us_p50", median(&us), "us");
    m.put("analyzer.messages_matched", messages as f64, "count");
    Ok(())
}

fn planc(m: &mut Metrics) -> Result<(), String> {
    // The plan-service workload's cold shape and a hot one.
    let (cold, hot) = (cold_shape(), hot_shape(0));

    let us = time_us(200, || {
        planc::compile(&cold).expect("the cold shape compiles")
    });
    m.put("planc.compile_cold_us_p50", median(&us), "us");

    let compiler = Compiler::new(32);
    compiler.compile(&hot).map_err(|e| e.to_string())?;
    // Half a microsecond: 16 lookups per sample, as for `vstar`.
    let us = time_us(1000, || {
        for _ in 0..16 {
            black_box(compiler.compile(black_box(&hot)).expect("cached"));
        }
    });
    m.put("planc.compile_hit_us_p50", median(&us) / 16.0, "us");

    // Submit → reply of a job that is a cache hit: the queue, the
    // condvar wake-up of the worker and the reply channel.
    let svc = PlanService::start(SERVICE);
    let hop = || {
        svc.try_submit(JobRequest::Compile(hot.clone()))
            .and_then(|t| t.wait())
            .expect("a compile job on an idle service")
    };
    let us = time_us(2000, hop);
    m.put("planc.queue_hop_us_p50", median(&us), "us");
    Ok(())
}

fn tile_rate<K: Kernel3D>(kernel: K, tier: KernelTier) -> Result<f64, String> {
    // One rank's share of `compute-bound`, alone in a 1×1 world: the
    // tile loop with no neighbour to talk to.
    let (nx, ny, nz, v) = COMPUTE_BOUND;
    let d = Decomp3D {
        nx: nx / 2,
        ny,
        nz,
        pi: 1,
        pj: 1,
        v,
        boundary: 1.0,
    };
    let c = Compiled3D::compile(d, ExecMode::Overlapping).map_err(|e| e.to_string())?;
    let cfg = slots_world(LatencyModel::zero())
        .with_kernel_tier(tier)
        .without_preflight();
    let mut secs = Vec::new();
    for _ in 0..7 {
        let (grid, elapsed, _) = run3d_with(kernel, &c, &cfg).map_err(|e| e.to_string())?;
        black_box(grid);
        secs.push(elapsed.as_secs_f64());
    }
    Ok((d.nx * d.ny * d.nz) as f64 / median(&secs[2..]))
}

fn stencil(m: &mut Metrics) -> Result<(), String> {
    // The plain single-threaded baseline: the whole `compute-bound`
    // grid through the sequential reference.
    let (nx, ny, nz, _) = COMPUTE_BOUND;
    let us = time_us(5, || run_seq3d(Paper3D, nx, ny, nz, 1.0));
    m.put(
        "stencil.seq.cells_per_s.paper3d",
        (nx * ny * nz) as f64 / (median(&us) * 1e-6),
        "1/s",
    );

    for (tier, t) in [(KernelTier::Bitwise, "bitwise"), (KernelTier::Fast, "fast")] {
        let rates = [
            ("paper3d", tile_rate(Paper3D, tier)?),
            ("relax3d", tile_rate(Relax3D::default(), tier)?),
            ("fused3d", tile_rate(Fused3D::default(), tier)?),
        ];
        for (k, rate) in rates {
            m.put(&format!("stencil.tile.cells_per_s.{k}.{t}"), rate, "1/s");
        }
    }

    // Every face of one `fine-grain` rank: 2048 steps × (8 rows × 8
    // planes) out of / into a 4×8×16384 block.
    let d = fine_grain();
    let (bx, by, nz, v) = (d.bx(), d.by(), d.nz, d.v);
    let block: Vec<f32> = (0..bx * by * nz).map(|x| x as f32).collect();
    let mut halo = vec![0.0f32; by * nz];
    let mut face = vec![0.0f32; by * v];
    let elems = (d.steps() * face.len()) as f64;
    let pack = time_us(50, || {
        for step in 0..d.steps() {
            pack_rows(&block, (bx - 1) * by * nz, nz, step * v, v, &mut face);
            black_box(&mut face);
        }
    });
    m.put(
        "stencil.halo.pack_ns_per_elem",
        median(&pack) * 1e3 / elems,
        "ns",
    );
    let unpack = time_us(50, || {
        for step in 0..d.steps() {
            unpack_rows(black_box(&face), &mut halo, 0, nz, step * v, v);
        }
    });
    m.put(
        "stencil.halo.unpack_ns_per_elem",
        median(&unpack) * 1e3 / elems,
        "ns",
    );
    Ok(())
}

/// One-way hop (half a round trip) of an `elems`-element message
/// between two ranks, µs per sample.
fn hop_us(transport: TransportKind, elems: usize, trips: usize) -> Result<Vec<f64>, String> {
    let cfg = WorldConfig::new(LatencyModel::zero()).with_transport(transport);
    let (results, _) = run_threads_with::<f32, _, _>(2, &cfg, |mut comm| {
        let mut buf = vec![1.0f32; elems];
        let mut samples = Vec::with_capacity(trips);
        for i in 0..trips + 100 {
            if comm.rank() == 0 {
                let t = Instant::now();
                comm.send_from(1, 1, &buf);
                comm.recv_into(1, 2, &mut buf);
                if i >= 100 {
                    samples.push(t.elapsed().as_secs_f64() * 1e6 / 2.0);
                }
            } else {
                comm.recv_into(0, 1, &mut buf);
                comm.send_from(0, 2, &buf);
            }
        }
        samples
    });
    results
        .into_iter()
        .next()
        .and_then(Result::ok)
        .ok_or_else(|| "ping-pong rank panicked".to_string())
}

fn msgpass(m: &mut Metrics) -> Result<(), String> {
    for (transport, t) in [
        (TransportKind::Mpsc, "mpsc"),
        (TransportKind::shared_slots(), "slots"),
    ] {
        for (elems, size, trips) in [
            (64, "256B", 3000),
            (1024, "4KiB", 3000),
            (16384, "64KiB", 600),
        ] {
            let us = hop_us(transport, elems, trips)?;
            m.put(&format!("msgpass.hop_us_p50.{t}.{size}"), median(&us), "us");
        }
    }

    // A 16-rank world is built and dropped, never run: its size² links
    // are a cost of construction, and 16 spinning ranks on this box
    // would measure the scheduler.
    let cfg = slots_world(LatencyModel::zero());
    for (ranks, r, reps) in [(2, "r2", 100), (16, "r16", 20)] {
        let mut us = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            let world = build_world_with::<f32>(ranks, &cfg);
            us.push(t.elapsed().as_secs_f64() * 1e6);
            drop(world);
        }
        m.put(
            &format!("msgpass.build_world_us_p50.{r}"),
            median(&us),
            "us",
        );
    }

    let mut world = build_world_with::<f32>(2, &cfg);
    let us = time_us(300, || run_world(&mut world, false, |_| ()));
    m.put("msgpass.spawn_join_us_p50", median(&us), "us");

    let (results, _) = run_world(&mut world, false, |comm| {
        (0..2100)
            .map(|_| {
                let t = Instant::now();
                comm.barrier();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect::<Vec<f64>>()
    });
    let us = results
        .into_iter()
        .next()
        .and_then(Result::ok)
        .ok_or("barrier rank panicked")?;
    m.put("msgpass.barrier_us_p50", median(&us[100..]), "us");

    // How late a message arrives beyond what the latency model asked
    // for: the receiver's sleep-then-spin, and the hop itself.
    const ELEMS: usize = 1024;
    let (stamps, _) = run_threads_with::<f32, _, _>(2, &slots_world(WIRE), |mut comm| {
        let mut buf = vec![1.0f32; ELEMS];
        let mut ack = [0.0f32; 1];
        (0..150)
            .map(|_| {
                if comm.rank() == 0 {
                    let sent = Instant::now();
                    comm.send_from(1, 1, &buf);
                    comm.recv_into(1, 2, &mut ack);
                    sent
                } else {
                    comm.recv_into(0, 1, &mut buf);
                    let arrived = Instant::now();
                    comm.send_from(0, 2, &ack);
                    arrived
                }
            })
            .collect::<Vec<Instant>>()
    });
    let mut stamps = stamps.into_iter().map(Result::ok);
    let (Some(Some(sent)), Some(Some(arrived))) = (stamps.next(), stamps.next()) else {
        return Err("wire-wait rank panicked".into());
    };
    let asked = WIRE.delay(ELEMS * 4).as_secs_f64() * 1e6;
    let err: Vec<f64> = sent
        .iter()
        .zip(&arrived)
        .map(|(s, a)| a.saturating_duration_since(*s).as_secs_f64() * 1e6 - asked)
        .collect();
    m.put("msgpass.wire_wait_err_us_p50", median(&err), "us");

    // Payload allocations of one `fine-grain` run on a cold world, per
    // pipeline step, and of a second run on the now warm world — where
    // any allocation is a slot ring falling back to an owned copy.
    let c = Compiled3D::compile(fine_grain(), ExecMode::Overlapping).map_err(|e| e.to_string())?;
    let mut world = build_world_with::<f32>(2, &cfg);
    let mut allocs = [0u64; 2];
    for total in &mut allocs {
        run3d_on_world(Paper3D, &c, KernelTier::Bitwise, &mut world).map_err(|e| e.to_string())?;
        *total = world.iter().map(|c| c.pool_stats().fresh_allocs).sum();
    }
    let steps = fine_grain().steps() as f64;
    m.put(
        "msgpass.fresh_allocs_per_step",
        allocs[0] as f64 / steps,
        "count",
    );
    m.put(
        "msgpass.slot_fallbacks",
        (allocs[1] - allocs[0]) as f64,
        "count",
    );
    Ok(())
}

fn cluster_sim(m: &mut Metrics) -> Result<(), String> {
    // The Fig. 9 point: experiment i at the paper's measured optimum.
    let machine = MachineParams::paper_cluster();
    let problem = ClusterProblem::new(
        Tiling::rectangular(&[4, 4, 444]),
        DependenceSet::paper_3d(),
        IterationSpace::from_extents(&[16, 16, 16384]),
        2,
    )
    .map_err(|e| e.to_string())?;
    let cfg = SimConfig::new(machine).with_trace(false);
    let (mut build, mut sim) = (Vec::new(), Vec::new());
    let mut makespans = Vec::new();
    for _ in 0..32 {
        let t = Instant::now();
        let programs = problem.overlapping_programs(&machine);
        build.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let result = simulate(cfg, programs).map_err(|e| e.to_string())?;
        sim.push(t.elapsed().as_secs_f64() * 1e3);
        makespans.push(result.makespan_secs().to_bits());
    }
    if makespans.iter().any(|b| *b != makespans[0]) {
        return Err("cluster-sim: the Fig. 9 point simulated two different makespans".into());
    }
    let rank_steps = (problem.ranks() as i64 * problem.steps()) as f64;
    m.put(
        "cluster-sim.build_programs_ms_p50",
        median(&build[2..]),
        "ms",
    );
    m.put("cluster-sim.simulate_ms_p50", median(&sim[2..]), "ms");
    m.put(
        "cluster-sim.host_ns_per_rank_step",
        median(&sim[2..]) * 1e6 / rank_steps,
        "ns",
    );
    Ok(())
}

fn sweep_and_autotune(m: &mut Metrics, seed: u64) -> Result<(), String> {
    let us = time_us(30, || generate(&SweepSpec::quick(seed)));
    m.put("sweep.generate_us_p50", median(&us), "us");

    // The tuner against the deterministic simulator backend, on the
    // partial-tile problem `paper tune` ships (2100 planes on 2×2).
    let problem = TuneProblem {
        nx: 8,
        ny: 8,
        nz: 2100,
        pi: 2,
        pj: 2,
    };
    let machine = MachineParams::paper_cluster();
    let backend = SimBackend {
        problem,
        machine,
        schedule: autotune::Schedule::Overlap,
        duplex: true,
        shared_bus: false,
        hetero_seed: seed,
        hetero_spread: 0.0,
    };
    let run = || {
        tune(
            &problem,
            &machine,
            autotune::Schedule::Overlap,
            &backend,
            &Surrogate::ClosedForm,
            &TuneConfig::default(),
        )
    };
    let measured = run()?.evaluated.len();
    let ms = time_us(7, run);
    if run()?.evaluated.len() != measured {
        return Err("autotune.candidates_measured changed between two tuning runs".into());
    }
    m.put("autotune.tune_sim_ms_p50", median(&ms) / 1e3, "ms");
    m.put("autotune.candidates_measured", measured as f64, "count");
    Ok(())
}

/// Run every probe. A probe that cannot run is a failed benchmark, not
/// a missing row.
pub fn run(m: &mut Metrics, seed: u64) -> Result<(), String> {
    tiling_core(m);
    analyzer(m)?;
    planc(m)?;
    stencil(m)?;
    msgpass(m)?;
    cluster_sim(m)?;
    sweep_and_autotune(m, seed)
}
