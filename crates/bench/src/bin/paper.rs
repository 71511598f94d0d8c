//! The paper-reproduction harness: one subcommand per figure/table of
//! Goumas, Sotiropoulos & Koziris, IPPS 2001.
//!
//! ```text
//! paper example1   §3 Example 1 + §4 Example 3 analytic reproduction
//! paper gantt      Fig. 1 / Fig. 2 schedule Gantt charts (simulated);
//!                  `paper gantt --backend thread` renders the same
//!                  charts from a measured thread-backend run
//! paper fig9       Fig. 9  — 16×16×16384 V-sweep (CSV + plot + optima)
//! paper fig10      Fig. 10 — 16×16×32768 V-sweep
//! paper fig11      Fig. 11 — 32×32×4096 V-sweep
//! paper table12    Fig. 12 — the summary table, paper vs reproduction
//! paper ablation   Fig. 3  — overlap-level ablation
//! paper threads    real multi-threaded run (msgpass backend)
//! paper chaos      fault-injection demo: seeded drops/duplicates/
//!                  reorders/delay-spikes under the reliability layer,
//!                  a typed unrecoverable failure, and a stall-annotated
//!                  Gantt chart (results/chaos_gantt.svg)
//! paper sweep      Monte-Carlo design-space sweep over the simulator
//!                  (seeded, parallel, panic-isolated; writes
//!                  results/sweep.csv + results/sweep_summary.json with
//!                  Figs. 9-11 embedded as named slices)
//! paper tune       ladder-search tuner: the simulator's argmin over the
//!                  closed form's V ladder on two out-of-model rows
//!                  (writes results/tune.json)
//! paper all        everything above except `tune`
//! ```
//!
//! CSV series are also written to `results/`. Wall-clock performance is
//! not measured here: `benchmark/` is the repo's one ledger.
//!
//! Every simulator study — `fig*`, `table12`, `ablation`, `sensitivity`,
//! `scaling` and `sweep` — is a batch of `sweep` configs built from
//! `sweep::config`'s one §5 experiment table and run by
//! `sweep::run::run_sweep` on `default_sweep_workers()` threads; its
//! output does not depend on the worker count.

use bench::ablation::{ablation_markdown, run_ablation, run_topology_study, topology_markdown};
use bench::experiments::{
    figure_heights, figure_points, optima, paper_experiments, run_ladder, table12_row, Experiment,
};
use bench::gantt::render_figures;
use bench::report::{sweep_ascii_plot, sweep_csv, table12_markdown};
use bench::scaling::{scaling_markdown, serial_time_us, strong_scaling};
use bench::sensitivity::{comm_scale_sweep, network_generations, optima_markdown};
use cluster_sim::builders::ClusterProblem;
use cluster_sim::engine::{simulate, SimConfig};
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use sweep::config::{generate as sweep_generate, MachinePreset, Schedule, SweepSpec};
use sweep::output::{summary_json, to_csv};
use sweep::run::{best, run_sweep, RowStatus};
use tiling_core::prelude::*;

fn out_dir() -> PathBuf {
    let p = repo_root().join("results");
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// The checkout every command writes `results/` into, resolved when the
/// command runs: `cargo run -p bench` exports this package's
/// `CARGO_MANIFEST_DIR` (two levels below the root); a bare binary is
/// started from the root, as `ci.sh` does. A path baked in at compile
/// time would send a copied checkout's output, warm `target/` and all,
/// into the checkout it was copied from.
fn repo_root() -> PathBuf {
    repo_root_from(std::env::var_os("CARGO_MANIFEST_DIR"))
}

fn repo_root_from(manifest_dir: Option<OsString>) -> PathBuf {
    match manifest_dir {
        Some(dir) => Path::new(&dir).join("../.."),
        None => PathBuf::from("."),
    }
}

fn cmd_example1() {
    println!("== §3 Example 1 / §4 Example 3: the 10000×1000 2-D loop ==\n");
    let machine = MachineParams::example_1();
    let nest = LoopNest::example_1();
    let deps = nest.dependences().expect("example 1 is valid");
    let tiling = Tiling::rectangular(&[10, 10]);
    println!("dependences:        {deps:?}");
    println!(
        "tiling:             10×10 rectangular, g = {}",
        tiling.volume()
    );
    println!("legal (HD ≥ 0):     {}", tiling.is_legal(&deps));
    println!(
        "V_comm (formula 2): {} points (paper: 20)",
        v_comm_mapped(&tiling, &deps, 0)
    );

    let no = NonOverlapSchedule::with_mapping(2, 0).analyze(&tiling, &deps, nest.space(), &machine);
    println!("\n-- non-overlapping schedule (Π = (1,1)) --");
    println!("P(g)      = {} planes (paper: 1099)", no.schedule_length);
    println!(
        "step      = {:.0} t_c  (paper: 364 t_c = 100 comp + 200 startup + 64 transmit)",
        no.step_us
    );
    println!("T         = {:.4} s  (paper: 0.4 s)", no.total_secs());

    let ov = OverlapSchedule::with_mapping(2, 0).analyze(
        &tiling,
        &deps,
        nest.space(),
        &machine,
        OverlapMode::DuplexDma,
    );
    println!("\n-- overlapping schedule (Π = (1,2)) --");
    println!("P(g)      = {} planes (paper: 1198)", ov.schedule_length);
    println!(
        "CPU lane  = {:.0} t_c (A1 {:.0} + A2 {:.0} + A3 {:.0}; paper: 200 t_c)",
        ov.cpu_lane_us, ov.a1_us, ov.a2_us, ov.a3_us
    );
    println!("comm lane = {:.0} t_c", ov.comm_lane_us);
    println!(
        "T         = {:.4} s  (paper: 0.24 s)  → improvement {:.0}%",
        ov.total_secs(),
        (1.0 - ov.total_us / no.total_us) * 100.0
    );

    // The paper worked Examples 1/3 out by hand; here the complete MPI
    // programs run through the simulator as a check on that arithmetic
    // (100 ranks — one per tile column along i2 — 1000 pipeline steps).
    println!("\n-- the same layout, fully simulated (100 ranks × 1000 steps) --");
    let problem =
        ClusterProblem::new(tiling, deps, nest.space().clone(), 0).expect("example 1 layout");
    let cfg = SimConfig::new(machine).with_trace(false).with_duplex(true);
    let blocking = simulate(cfg, problem.blocking_programs(&machine)).expect("no deadlock");
    let overlap = simulate(cfg, problem.overlapping_programs(&machine)).expect("no deadlock");
    println!(
        "simulated blocking:    {:.4} s (hand calculation: 0.4000 s)",
        blocking.makespan.as_secs()
    );
    println!(
        "simulated overlapping: {:.4} s (hand calculation: 0.2396 s)",
        overlap.makespan.as_secs()
    );
}

fn cmd_gantt(backend: &str) {
    match backend {
        "sim" => cmd_gantt_sim(),
        "thread" => cmd_gantt_thread(),
        other => {
            eprintln!("unknown gantt backend '{other}' (expected 'sim' or 'thread')");
            std::process::exit(2);
        }
    }
}

fn cmd_gantt_sim() {
    println!("== Fig. 1 / Fig. 2: schedule structure on a 6-processor pipeline ==\n");
    let machine = MachineParams::example_1();
    print!("{}", render_figures(&machine, 6, 8, 16));
    // SVG versions for documentation.
    use bench::gantt::{fig1_simulation, fig2_simulation};
    let ranks: Vec<usize> = (0..6).collect();
    let f1 = fig1_simulation(&machine, 6, 8, 16);
    let f2 = fig2_simulation(&machine, 6, 8, 16);
    let horizon = f1.makespan.max(f2.makespan);
    std::fs::write(
        out_dir().join("fig1.svg"),
        f1.trace.to_svg(&ranks, horizon, 900),
    )
    .expect("write fig1.svg");
    std::fs::write(
        out_dir().join("fig2.svg"),
        f2.trace.to_svg(&ranks, horizon, 900),
    )
    .expect("write fig2.svg");
    println!("SVG charts written to results/fig1.svg and results/fig2.svg");
}

fn cmd_gantt_thread() {
    use bench::gantt::{render_thread_figures, thread_demo_decomp, thread_figure};
    use msgpass::thread_backend::LatencyModel;
    use stencil::dist3d::ExecMode;
    println!("== Fig. 1 / Fig. 2 from real execution (thread backend, wall-clock trace) ==\n");
    let d = thread_demo_decomp();
    // Visible wire time at this grain without swamping the compute.
    let lat = LatencyModel {
        startup_us: 300.0,
        per_byte_us: 0.05,
    };
    print!("{}", render_thread_figures(d, lat));
    // SVG versions on a shared horizon, next to the simulated pair.
    let ranks: Vec<usize> = (0..d.pi * d.pj).collect();
    let f1 = thread_figure(d, lat, ExecMode::Blocking);
    let f2 = thread_figure(d, lat, ExecMode::Overlapping);
    let horizon = f1.horizon().max(f2.horizon());
    std::fs::write(
        out_dir().join("fig1_thread.svg"),
        f1.trace.to_svg(&ranks, horizon, 900),
    )
    .expect("write fig1_thread.svg");
    std::fs::write(
        out_dir().join("fig2_thread.svg"),
        f2.trace.to_svg(&ranks, horizon, 900),
    )
    .expect("write fig2_thread.svg");
    println!("SVG charts written to results/fig1_thread.svg and results/fig2_thread.svg");
}

fn run_figure(exp: &Experiment) {
    let figure = exp.figure;
    println!(
        "== {figure}: {}×{}×{} space, {}×{} processors, tile {}×{}×V ==\n",
        exp.nx,
        exp.ny,
        exp.nz,
        exp.pi,
        exp.pj,
        exp.bx(),
        exp.by()
    );
    let template = exp.config(0, 0, Schedule::Overlap);
    let rows = run_ladder(&template, &figure_heights(exp), default_sweep_workers());
    let points = figure_points(&rows);
    let csv = sweep_csv(&points);
    let path = out_dir().join(format!("{figure}.csv"));
    std::fs::write(&path, &csv).expect("write csv");
    println!("{}", sweep_ascii_plot(&points, 90, 18));
    let best = optima(&rows);
    println!(
        "overlap:     V_opt = {} (paper {}), t_opt = {:.4} s (paper {:.4} s)",
        best.overlap_v,
        exp.paper_v_optimal,
        best.overlap_us * 1e-6,
        exp.paper_t_overlap_s
    );
    println!(
        "non-overlap: V_opt = {}, t_opt = {:.4} s (paper {:.4} s)",
        best.blocking_v,
        best.blocking_us * 1e-6,
        exp.paper_t_nonoverlap_s
    );
    println!(
        "improvement at optima: {:.0}% (paper {:.0}%)",
        best.improvement() * 100.0,
        (1.0 - exp.paper_t_overlap_s / exp.paper_t_nonoverlap_s) * 100.0
    );
    println!("series written to {}", path.display());
}

fn cmd_table12() {
    println!("== Fig. 12: summary table (simulated cluster vs paper) ==\n");
    let rows: Vec<_> = paper_experiments()
        .iter()
        .map(|e| table12_row(e, default_sweep_workers()))
        .collect();
    let md = table12_markdown(&rows);
    println!("{md}");
    std::fs::write(out_dir().join("table12.md"), &md).expect("write table");
    println!("table written to results/table12.md");
}

fn cmd_ablation() {
    println!("== Fig. 3 ablation: overlap levels on experiment i (V = 444) ==\n");
    let exp = paper_experiments()[0];
    let workers = default_sweep_workers();
    let pts = run_ablation(&exp, exp.paper_v_optimal, workers);
    println!("{}", ablation_markdown(&pts));
    println!("\n-- switched network vs shared-medium hub (beyond the paper) --\n");
    let topo = run_topology_study(&exp, exp.paper_v_optimal, workers);
    println!("{}", topology_markdown(&topo));
}

fn cmd_listings() {
    use cluster_sim::pseudocode::render_rank_listings;
    println!("== §5 listings, generated from the actual programs (experiment i, V = 444) ==\n");
    let machine = MachineParams::paper_cluster();
    let problem = paper_problem();
    // Rank 5 = grid (1,1): has both in- and out-neighbors.
    println!("{}", render_rank_listings(&problem, &machine, 5, 18));
}

fn cmd_sensitivity() {
    println!("== beyond the paper: improvement vs communication cost ==\n");
    println!("(experiment i layout at reduced depth; each point re-optimizes V per schedule)\n");
    let exp = Experiment {
        nz: 4096,
        ..paper_experiments()[0]
    };
    let workers = default_sweep_workers();
    let scales = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
    let md = optima_markdown("comm scale", &comm_scale_sweep(&exp, &scales, 16, workers));
    println!("{md}");
    std::fs::write(out_dir().join("sensitivity.md"), &md).expect("write sensitivity");

    println!("\n-- named network generations (same CPU, same workload) --\n");
    let rows = network_generations(
        &exp,
        &[
            ("FastEthernet (paper)", MachinePreset::Paper),
            ("Gigabit-class", MachinePreset::Gigabit),
            (
                "OS-bypass (the paper's §6 future work)",
                MachinePreset::OsBypass,
            ),
        ],
        16,
        workers,
    );
    println!("{}", optima_markdown("network", &rows));
}

fn cmd_scaling() {
    println!("== beyond the paper: strong scaling on the simulated cluster ==\n");
    // 32×32 cross-section so even the 16×16 grid keeps 2×2 tile columns
    // (tiles must still contain the unit dependences).
    let exp = Experiment {
        nx: 32,
        ny: 32,
        nz: 8192,
        ..paper_experiments()[0]
    };
    let serial = serial_time_us(&exp, &MachineParams::paper_cluster());
    println!(
        "space 32×32×8192, serial time {:.3} s; per-point best V per schedule\n",
        serial * 1e-6
    );
    let pts = strong_scaling(&exp, &[1, 2, 4, 8, 16], 14, default_sweep_workers());
    let md = scaling_markdown(&pts, serial);
    println!("{md}");
    std::fs::write(out_dir().join("scaling.md"), &md).expect("write scaling");
}

fn cmd_utilization() {
    use cluster_sim::engine::{simulate, SimConfig};
    use cluster_sim::stats::{rank_stats, stats_markdown, summarize};
    println!("== processor utilization (§4's '100% utilization' claim) ==\n");
    let machine = MachineParams::paper_cluster();
    let problem = paper_problem();
    let cfg = SimConfig::new(machine);
    let b = simulate(cfg, problem.blocking_programs(&machine)).expect("no deadlock");
    let o = simulate(cfg, problem.overlapping_programs(&machine)).expect("no deadlock");
    let sb = summarize(&b).expect("paper experiment has ranks");
    let so = summarize(&o).expect("paper experiment has ranks");
    println!(
        "blocking   : mean utilization {:.0}%, compute share of busy {:.0}%",
        sb.mean_utilization * 100.0,
        sb.mean_compute_fraction * 100.0
    );
    println!(
        "overlapping: mean utilization {:.0}%, compute share of busy {:.0}%\n",
        so.mean_utilization * 100.0,
        so.mean_compute_fraction * 100.0
    );
    println!("per-rank breakdown (overlapping):");
    println!("{}", stats_markdown(&rank_stats(&o)[..4]));
    println!("(first 4 of {} ranks shown)", problem.ranks());
}

fn cmd_threads() {
    use bench::configs::{plan_request, threads_decomp, threads_latency};
    use msgpass::thread_backend::WorldConfig;
    use stencil::dist3d::ExecMode;
    println!("== real threaded run (msgpass backend, scaled-down experiment i) ==\n");
    // Scaled to 2×2 ranks so the run is meaningful on small machines;
    // the wire latency is injected per message. Each schedule is
    // compiled to an analyzer-approved artifact before a single thread
    // spawns; execution then verifies against the sequential sweep.
    let d = threads_decomp();
    let block =
        planc::compile(&plan_request(d, ExecMode::Blocking)).expect("shipped plan compiles");
    let over =
        planc::compile(&plan_request(d, ExecMode::Overlapping)).expect("shipped plan compiles");
    println!(
        "compiled: {} ranks × {} steps, logical makespan {} (blocking) / {} (overlapping)",
        block.ranks(),
        block.steps(),
        block.logical_makespan(),
        over.logical_makespan()
    );
    let base = WorldConfig::new(threads_latency());
    let opts = planc::ExecOptions { verify: true };
    let b = block.execute_with(&base, opts).expect("valid plan");
    let o = over.execute_with(&base, opts).expect("valid plan");
    println!(
        "blocking:     {:.3} s (verified: {})",
        b.elapsed.as_secs_f64(),
        b.verified == Some(true)
    );
    println!(
        "overlapping:  {:.3} s (verified: {})",
        o.elapsed.as_secs_f64(),
        o.verified == Some(true)
    );
    println!(
        "improvement:  {:.0}%",
        (1.0 - o.elapsed.as_secs_f64() / b.elapsed.as_secs_f64()) * 100.0
    );
}

fn cmd_chaos() {
    use bench::configs::{chaos_decomp, chaos_gantt_decomp, demo_wire_latency, plan_request};
    use msgpass::prelude::*;
    use std::time::Duration;
    use stencil::dist3d::ExecMode;
    use stencil::engine::TraceObserver;
    use stencil::kernel::Paper3D;
    use stencil::plan::{run3d_observed_with, Compiled3D};

    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE_u64);
    println!("== chaos: the executors under a seeded fault plan (seed {seed:#x}) ==\n");
    let d = chaos_decomp();
    let rel = ReliabilityConfig {
        recv_timeout: Duration::from_millis(50),
        max_retries: 6,
        backoff: Duration::from_millis(2),
    };
    let plan = FaultPlan::seeded(seed)
        .with_drops(0.10)
        .with_duplicates(0.05)
        .with_reorders(0.05)
        .with_delay_spikes(0.15, Duration::from_micros(800));
    let cfg = WorldConfig::new(LatencyModel::zero())
        .with_reliability(rel)
        .with_faults(plan);
    // One compiled artifact per schedule; the fault plan and the
    // reliability layer ride in through the caller's base config — the
    // plan itself is immutable and analyzer-approved.
    let seq = stencil::seq::run_paper3d_seq(d.nx, d.ny, d.nz, d.boundary);
    for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
        let art = planc::compile(&plan_request(d, mode)).expect("shipped plan compiles");
        let out = art
            .execute_with(&cfg, planc::ExecOptions::default())
            .expect("recoverable plan completes");
        let mut total = FaultStats::default();
        for s in &out.faults {
            total.merge(s);
        }
        println!(
            "{mode:?}: {:.3} s, bitwise-exact: {} | injected {} faults \
             (drops {}, dups {}, reorders {}, delays {}), recovered {}, dups discarded {}",
            out.elapsed.as_secs_f64(),
            out.grid.dim3().expect("3-D plan").max_abs_diff(&seq) == 0.0,
            total.total_injected(),
            total.dropped,
            total.duplicated,
            total.reordered,
            total.delayed,
            total.recovered,
            total.duplicates_discarded,
        );
    }

    // Unrecoverable: lose a face permanently — the run fails with a
    // typed error inside the retry schedule instead of hanging.
    println!("\n-- unrecoverable loss (rank 0's step-1 i-face to rank 2) --");
    let lossy = WorldConfig::new(LatencyModel::zero())
        .with_reliability(ReliabilityConfig {
            recv_timeout: Duration::from_millis(10),
            max_retries: 2,
            backoff: Duration::from_millis(1),
        })
        .with_faults(FaultPlan::seeded(seed).lose_at(
            0,
            2,
            stencil::proto::tag(1, stencil::proto::DIR_I),
        ));
    let art =
        planc::compile(&plan_request(d, ExecMode::Overlapping)).expect("shipped plan compiles");
    match art.execute_with(&lossy, planc::ExecOptions::default()) {
        Err(e) => println!("typed failure (as expected): {e}"),
        Ok(_) => println!("UNEXPECTED: lossy run completed"),
    }

    // Stall-annotated Gantt: drive the same faulty world with tracing
    // observers so fault-inflated waits render as red Stall bars.
    println!("\n-- stall-annotated Gantt (wire latency + delay spikes) --");
    let spiky = WorldConfig::new(demo_wire_latency())
        .with_reliability(rel)
        .with_faults(
            FaultPlan::seeded(seed)
                .with_drops(0.10)
                .with_delay_spikes(0.25, Duration::from_millis(2)),
        );
    let gantt_d = chaos_gantt_decomp();
    let stall_after = Duration::from_millis(1);
    let gantt_plan =
        Compiled3D::compile(gantt_d, ExecMode::Overlapping).expect("shipped layout compiles");
    let (grid, _, observers, _) = run3d_observed_with(Paper3D, &gantt_plan, &spiky, |comm| {
        TraceObserver::new(comm.rank(), comm.epoch()).with_stall_threshold(stall_after)
    })
    .expect("recoverable plan completes");
    let seq = stencil::seq::run_paper3d_seq(gantt_d.nx, gantt_d.ny, gantt_d.nz, gantt_d.boundary);
    assert_eq!(
        grid.max_abs_diff(&seq),
        0.0,
        "traced chaos run must stay exact"
    );
    let mut trace = cluster_sim::trace::Trace::enabled();
    for obs in observers {
        trace.extend(obs.into_trace());
    }
    let ranks: Vec<usize> = (0..gantt_d.pi * gantt_d.pj).collect();
    let horizon = trace.horizon();
    let stalls = trace
        .intervals()
        .iter()
        .filter(|iv| iv.activity == cluster_sim::trace::Activity::Stall)
        .count();
    print!("{}", trace.gantt(&ranks, horizon, 90));
    std::fs::write(
        out_dir().join("chaos_gantt.svg"),
        trace.to_svg(&ranks, horizon, 900),
    )
    .expect("write chaos_gantt.svg");
    println!(
        "{stalls} stall intervals (waits over {stall_after:?}); SVG written to results/chaos_gantt.svg"
    );
}

// ---- `paper serve`: the plan-compilation service over TCP --------------
//
// A line-oriented protocol over the in-process `planc::PlanService`:
// each request is one line, each reply one line.
//
//     compile <key=value ...>      -> ok compiled key=... v=... steps=...
//     execute <key=value ...>      -> ok executed key=... verified=...
//     stats                        -> ok submitted=... hit_ratio=...
//     quit                         -> ok bye (connection closes)
//
// The key=value payload is `planc::PlanRequest::parse_kv`'s wire
// format (workload=grid3 nx=8 ... — see its docs). Execute jobs always
// verify against the sequential reference.

mod serve {
    use planc::{
        ExecOptions, JobRequest, JobResponse, PlanRequest, PlanService, ServiceConfig, ServiceError,
    };
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    fn respond(service: &PlanService, line: &str) -> String {
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        match verb {
            "quit" => "ok bye".to_string(),
            "stats" => {
                let m = service.metrics();
                format!(
                    "ok submitted={} completed={} rejected={} hits={} misses={} evictions={} hit_ratio={:.4} coalesced={} compiles={} worlds_created={} worlds_reused={}",
                    m.submitted,
                    m.completed,
                    m.rejected,
                    m.cache.hits,
                    m.cache.misses,
                    m.cache.evictions,
                    m.cache.hit_ratio(),
                    m.compiler.coalesced,
                    m.compiler.compiles,
                    m.worlds.created,
                    m.worlds.reused
                )
            }
            "compile" | "execute" => {
                let req = match PlanRequest::parse_kv(rest) {
                    Ok(r) => r,
                    Err(e) => return format!("err parse: {e}"),
                };
                let job = if verb == "compile" {
                    JobRequest::Compile(req)
                } else {
                    JobRequest::Execute(req, ExecOptions { verify: true })
                };
                // A full queue back-pressures the connection rather
                // than failing the request.
                let ticket = loop {
                    match service.try_submit(job.clone()) {
                        Ok(t) => break t,
                        Err(ServiceError::QueueFull) => std::thread::yield_now(),
                        Err(e) => return format!("err {e}"),
                    }
                };
                match ticket.wait() {
                    Ok(JobResponse::Compiled(a)) => format!(
                        "ok compiled key={:016x} v={} ranks={} steps={} makespan={}",
                        a.key().digest(),
                        a.v(),
                        a.ranks(),
                        a.steps(),
                        a.logical_makespan()
                    ),
                    Ok(JobResponse::Executed(a, out)) => format!(
                        "ok executed key={:016x} elapsed_us={:.0} cells_per_sec={:.0} verified={}",
                        a.key().digest(),
                        out.elapsed.as_secs_f64() * 1e6,
                        out.cells_per_sec,
                        out.verified.unwrap_or(false)
                    ),
                    Err(e) => format!("err {e}"),
                }
            }
            other => format!("err unknown verb: {other}"),
        }
    }

    fn handle(service: &PlanService, stream: TcpStream) {
        let reader_stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let mut reader = BufReader::new(reader_stream);
        let mut stream = stream;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let reply = respond(service, line);
            if stream
                .write_all(reply.as_bytes())
                .and_then(|_| stream.write_all(b"\n"))
                .is_err()
            {
                return;
            }
            if line == "quit" {
                return;
            }
        }
    }

    fn listen(listener: TcpListener, service: Arc<PlanService>) {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let service = Arc::clone(&service);
            std::thread::spawn(move || handle(&service, stream));
        }
    }

    /// `paper serve [--addr HOST:PORT]`: serve until killed.
    pub fn run(addr: &str) -> ! {
        let listener = TcpListener::bind(addr).unwrap_or_else(|e| {
            eprintln!("serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        });
        let local = listener.local_addr().expect("bound address");
        println!("serving plan compilation on {local}");
        listen(
            listener,
            Arc::new(PlanService::start(ServiceConfig::default())),
        );
        unreachable!("listener loop only ends by process exit");
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// An ephemeral listener under concurrent localhost clients
        /// with a mixed compile/execute load: every reply is `ok`,
        /// every job completes, and the plan cache is hit.
        #[test]
        fn smoke_over_tcp() {
            let (clients, jobs_per_client) = (8, 12);
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
            let addr = listener.local_addr().expect("bound address");
            let service = Arc::new(PlanService::start(ServiceConfig::default()));
            {
                let service = Arc::clone(&service);
                std::thread::spawn(move || listen(listener, service));
            }
            let requests = [
                "compile workload=grid3 nx=8 ny=8 nz=256 pi=2 pj=2 v=64",
                "execute workload=grid3 nx=8 ny=8 nz=256 pi=2 pj=2 v=64",
                "execute workload=grid3 nx=8 ny=8 nz=256 pi=2 pj=2 v=64 mode=blocking",
                "compile workload=strip2 nx=64 ny=16 ranks=4 v=16",
                "execute workload=strip2 nx=64 ny=16 ranks=4 v=16",
                "compile workload=grid3 nx=4 ny=4 nz=512 pi=2 pj=2 v=128 transport=mpsc",
            ];
            std::thread::scope(|scope| {
                for c in 0..clients {
                    let requests = &requests;
                    scope.spawn(move || {
                        let stream = TcpStream::connect(addr).expect("connect to smoke server");
                        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                        let mut stream = stream;
                        let mut line = String::new();
                        for j in 0..jobs_per_client {
                            let req = requests[(c + j) % requests.len()];
                            stream.write_all(req.as_bytes()).expect("send request");
                            stream.write_all(b"\n").expect("send newline");
                            line.clear();
                            reader.read_line(&mut line).expect("read reply");
                            assert!(line.starts_with("ok "), "client {c}: {req} -> {line}");
                        }
                    });
                }
            });
            let m = service.metrics();
            assert_eq!(m.completed, (clients * jobs_per_client) as u64);
            assert!(m.cache.hit_ratio() > 0.0, "{m:?}");
        }
    }
}

// ---- `paper tune`: the ladder-search tuner ------------------------------
//
// The closed form's seed, then the simulator's argmin over every rung of
// the V ladder (DESIGN.md §12). Two rows, one per out-of-model regime:
//
//   partial-tile   homogeneous 2×2 world whose pipeline depth leaves a
//                  partial last tile at the closed form's V* — and whose
//                  V* faces sit past the measured transfer curve's
//                  rendezvous knee.
//   hetero-4x4     4×4 world with seeded node-speed spread on the same
//                  out-of-model machine.
//
// Both are acceptance rows: the tuned (V, shape) must beat the
// closed-form seed by ≥5% with the prediction error under its
// thresholds — bit-reproducible, so `tune::tests` asserts it.

mod tune {
    use autotune::{tune, Schedule, SimBackend, Surrogate, TuneConfig, TuneOutcome, TuneProblem};

    struct Row {
        name: &'static str,
        problem: TuneProblem,
        schedule: Schedule,
        out: TuneOutcome,
    }

    /// Prediction-shape error at the tuned point after normalizing the
    /// model's scale at the seed point: the raw `pred_err_rel` compares
    /// model-µs against simulated µs, while this metric cancels the
    /// scale and keeps only how well the model *ranks* the tuned point
    /// relative to the seed.
    fn norm_err(out: &TuneOutcome) -> f64 {
        let scale = out.seed.makespan_us / out.seed.predicted_us;
        out.incumbent.makespan_us / (out.incumbent.predicted_us * scale) - 1.0
    }

    fn json_row(r: &Row) -> String {
        let o = &r.out;
        let (s, w) = (&o.seed, &o.incumbent);
        format!(
            "    {{\"name\": \"{}\", \"backend\": \"sim\", \"grid\": [{}, {}, {}], \"procs\": [{}, {}], \
             \"schedule\": \"{}\", \"seed_v\": {}, \"tuned_v\": {}, \"tuned_procs\": [{}, {}], \
             \"seed_makespan_us\": {:.3}, \
             \"tuned_makespan_us\": {:.3}, \"tuned_speedup\": {:.4}, \"predicted_us\": {:.3}, \
             \"pred_err_rel\": {:.4}, \"pred_err_norm\": {:.4}, \"evaluated\": {}, \
             \"infeasible\": {}, \"enumerated\": {}}}",
            r.name,
            r.problem.nx,
            r.problem.ny,
            r.problem.nz,
            r.problem.pi,
            r.problem.pj,
            r.schedule.name(),
            s.candidate.v,
            w.candidate.v,
            w.candidate.pi,
            w.candidate.pj,
            s.makespan_us,
            w.makespan_us,
            o.speedup(),
            w.predicted_us,
            w.pred_err_rel,
            norm_err(o),
            o.evaluated.len(),
            o.infeasible,
            o.enumerated
        )
    }

    fn print_row(r: &Row) {
        let o = &r.out;
        println!(
            "{:12} {:>2}x{:<2}x{:<5} {}x{}: seed V={} ({:.0} µs) -> tuned V={} {}x{} ({:.0} µs) | speedup {:.3}x | pred_err_rel {:+.3} norm {:+.3} | {} measured, {} infeasible of {}",
            r.name,
            r.problem.nx,
            r.problem.ny,
            r.problem.nz,
            r.problem.pi,
            r.problem.pj,
            o.seed.candidate.v,
            o.seed.makespan_us,
            o.incumbent.candidate.v,
            o.incumbent.candidate.pi,
            o.incumbent.candidate.pj,
            o.incumbent.makespan_us,
            o.speedup(),
            o.incumbent.pred_err_rel,
            norm_err(o),
            o.evaluated.len(),
            o.infeasible,
            o.enumerated
        );
    }

    /// The two deterministic out-of-model acceptance rows.
    fn sim_rows() -> [Row; 2] {
        let machine = bench::configs::tune_machine();
        let row = |name, problem, hetero_seed, hetero_spread| {
            let backend = SimBackend {
                problem,
                machine,
                schedule: Schedule::Overlap,
                duplex: true,
                shared_bus: false,
                hetero_seed,
                hetero_spread,
            };
            Row {
                name,
                problem,
                schedule: Schedule::Overlap,
                out: tune(
                    &problem,
                    &machine,
                    Schedule::Overlap,
                    &backend,
                    &Surrogate::ClosedForm,
                    &TuneConfig,
                )
                .expect("simulator tune"),
            }
        };
        [
            row(
                "partial-tile",
                bench::configs::tune_partial_tile_problem(),
                0,
                0.0,
            ),
            row(
                "hetero-4x4",
                bench::configs::tune_hetero_problem(),
                bench::configs::TUNE_HETERO_SEED,
                bench::configs::TUNE_HETERO_SPREAD,
            ),
        ]
    }

    pub fn run() {
        println!(
            "== ladder-search tune: closed-form seed -> simulator argmin over the V ladder ==\n"
        );
        let rows = sim_rows();
        for r in &rows {
            print_row(r);
        }
        let json = format!(
            "{{\n    \"seed\": {},\n    \"rows\": [\n{}\n    ]\n  }}",
            bench::configs::TUNE_HETERO_SEED,
            rows.iter().map(json_row).collect::<Vec<_>>().join(",\n")
        );
        let path = super::out_dir().join("tune.json");
        std::fs::write(&path, format!("{{\n  \"tune\": {json}\n}}\n")).expect("write tune json");
        println!("\nwritten to {}", path.display());
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn out_of_model_rows_beat_the_closed_form_seed_within_the_error_thresholds() {
            for r in sim_rows() {
                assert!(
                    r.out.speedup() >= 1.05,
                    "{}: out-of-model speedup {:.3} under the 5% acceptance bar",
                    r.name,
                    r.out.speedup()
                );
                let (rel, norm) = (r.out.incumbent.pred_err_rel, norm_err(&r.out));
                assert!(
                    rel.abs() <= 0.6 && norm.abs() <= 0.5,
                    "{}: prediction error over threshold (rel {rel:.3}, norm {norm:.3})",
                    r.name
                );
            }
        }

        #[test]
        fn simulator_rows_keep_their_recorded_winners() {
            // (V, pi, pj, makespan µs) of each row's tuned point, pinned:
            // a change to the ladder, the search or the simulator that
            // moves a winner fails here.
            let recorded = [(70, 2, 2, 26712.375), (64, 4, 4, 84924.727)];
            for (r, (v, pi, pj, us)) in sim_rows().iter().zip(recorded) {
                let w = &r.out.incumbent;
                assert_eq!(
                    (w.candidate.v, w.candidate.pi, w.candidate.pj, w.makespan_us),
                    (v, pi, pj, us),
                    "{}",
                    r.name
                );
            }
        }
    }
}

/// `paper sweep`: the Monte-Carlo design-space sweep over the cluster
/// simulator (machine preset × comm scale × transfer curve × node-speed
/// jitter × grid × space × V × schedule × duplex × topology), with the
/// Figs. 9–11 curves embedded as named slices.
fn cmd_sweep(quick: bool, seed: u64, workers: usize) {
    println!(
        "== Monte-Carlo design-space sweep (seed {seed}{}) ==\n",
        if quick { ", quick profile" } else { "" }
    );
    let spec = if quick {
        SweepSpec::quick(seed)
    } else {
        SweepSpec::full(seed)
    };
    let configs = sweep_generate(&spec);
    let t0 = std::time::Instant::now();
    let outcome = run_sweep(&configs, workers);
    let elapsed = t0.elapsed().as_secs_f64();
    let csv = to_csv(&outcome.rows);
    let json = summary_json(seed, &outcome);
    let dir = out_dir();
    std::fs::write(dir.join("sweep.csv"), &csv).expect("write sweep.csv");
    std::fs::write(dir.join("sweep_summary.json"), &json).expect("write sweep_summary.json");
    let ok = outcome
        .rows
        .iter()
        .filter(|r| r.status == RowStatus::Ok)
        .count();
    println!("configs: {}", outcome.rows.len());
    println!("ok:      {ok}");
    println!("errors:  {}", outcome.errors);
    println!("panics:  {}", outcome.panics);
    println!("workers: {workers}");
    println!("elapsed: {elapsed:.2}s\n");
    // The Figs. 9–11 slices, read back as Fig. 12 would summarize them:
    // the best overlapping point, its tile height, and the improvement
    // over the best blocking point.
    for exp in paper_experiments() {
        let (slice, paper_v) = (exp.figure, exp.paper_v_optimal);
        let in_slice = || outcome.rows.iter().filter(|r| r.config.slice == slice);
        if let (Some((ov_us, ov_v)), Some((bl_us, _))) = (
            best(in_slice(), Schedule::Overlap),
            best(in_slice(), Schedule::Blocking),
        ) {
            println!(
                "{slice}: best overlap V = {ov_v} (paper V_opt = {paper_v}{}), \
                 improvement over blocking = {:.1}%",
                if quick { " at full size" } else { "" },
                (1.0 - ov_us / bl_us) * 100.0
            );
            assert!(
                ov_us < bl_us,
                "{slice}: overlap must beat blocking at the optimum"
            );
        }
    }
    println!("\nwrote {}", dir.join("sweep.csv").display());
    println!("wrote {}", dir.join("sweep_summary.json").display());
}

fn usage() -> ! {
    eprintln!(
        "usage: paper <example1|gantt|fig9|fig10|fig11|table12|ablation|listings|utilization|sensitivity|scaling|sweep|threads|chaos|tune|serve|all>\n       paper gantt [--backend sim|thread]\n       paper sweep [--quick] [--seed N] [--workers N]   Monte-Carlo design-space sweep over the simulator; writes results/sweep.csv + results/sweep_summary.json, embeds Figs. 9-11 as named slices; same seed => byte-identical output\n       paper tune   ladder-search tuner (closed-form seed -> simulator argmin over the V ladder) on two deterministic out-of-model rows; writes results/tune.json\n       paper chaos   fault-injection demo (CHAOS_SEED=<n> overrides the plan seed)\n       paper serve [--addr HOST:PORT]   plan-compilation service over TCP (default 127.0.0.1:7077); line protocol: compile/execute <key=value ...>, stats, quit"
    );
    std::process::exit(2);
}

/// Worker count of every simulator study: the machine's parallelism,
/// capped — the sweep is embarrassingly parallel but each simulation is
/// small, so more threads than cores only adds scheduling noise.
fn default_sweep_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 16)
}

/// Experiment i at the paper's `V_optimal`, blocking and overlapping
/// alike: the layout `listings` and `utilization` print.
fn paper_problem() -> ClusterProblem {
    let exp = paper_experiments()[0];
    (exp.config(0, exp.paper_v_optimal, Schedule::Overlap)
        .problem())
    .expect("paper layout")
}

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_else(|| usage());
    match cmd.as_str() {
        "example1" => cmd_example1(),
        "gantt" => {
            // `paper gantt [--backend sim|thread]`, defaulting to sim.
            let backend = match std::env::args().nth(2).as_deref() {
                Some("--backend") => std::env::args().nth(3).unwrap_or_else(|| usage()),
                Some(other) => {
                    eprintln!("unknown gantt option '{other}'");
                    usage()
                }
                None => "sim".to_string(),
            };
            cmd_gantt(&backend)
        }
        figure @ ("fig9" | "fig10" | "fig11") => {
            for exp in paper_experiments().iter().filter(|e| e.figure == figure) {
                run_figure(exp)
            }
        }
        "table12" => cmd_table12(),
        "ablation" => cmd_ablation(),
        "listings" => cmd_listings(),
        "utilization" => cmd_utilization(),
        "sensitivity" => cmd_sensitivity(),
        "scaling" => cmd_scaling(),
        "sweep" => {
            let mut quick = false;
            let mut seed = 2001u64; // the paper's year
            let mut workers = default_sweep_workers();
            let mut args = std::env::args().skip(2);
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--quick" => quick = true,
                    "--seed" => {
                        seed = args
                            .next()
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    "--workers" => {
                        workers = args
                            .next()
                            .and_then(|s| s.parse().ok())
                            .filter(|&w| w >= 1)
                            .unwrap_or_else(|| usage())
                    }
                    _ => usage(),
                }
            }
            cmd_sweep(quick, seed, workers)
        }
        "threads" => cmd_threads(),
        "chaos" => cmd_chaos(),
        "tune" => {
            if std::env::args().len() > 2 {
                usage()
            }
            tune::run()
        }
        "serve" => {
            let mut addr = "127.0.0.1:7077".to_string();
            let mut args = std::env::args().skip(2);
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--addr" => addr = args.next().unwrap_or_else(|| usage()),
                    _ => usage(),
                }
            }
            serve::run(&addr)
        }
        "all" => {
            cmd_example1();
            println!("\n");
            cmd_gantt("sim");
            println!("\n");
            cmd_gantt("thread");
            println!("\n");
            for exp in paper_experiments() {
                run_figure(&exp);
                println!("\n");
            }
            cmd_table12();
            println!("\n");
            cmd_ablation();
            println!("\n");
            cmd_utilization();
            println!("\n");
            cmd_sensitivity();
            println!("\n");
            cmd_scaling();
            println!("\n");
            cmd_sweep(true, 2001, default_sweep_workers());
            println!("\n");
            cmd_threads();
            println!("\n");
            cmd_chaos();
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_root_follows_the_checkout_that_runs_not_the_one_that_compiled() {
        // A moved checkout: cargo exports its `crates/bench`, and output
        // has to land two levels above *that*.
        let checkout = std::env::temp_dir().join(format!("paper-root-{}", std::process::id()));
        let manifest_dir = checkout.join("crates").join("bench");
        std::fs::create_dir_all(&manifest_dir).expect("temp checkout");
        let root = repo_root_from(Some(manifest_dir.into_os_string()));
        std::fs::write(root.join("out.txt"), "").expect("write through the root");
        assert!(checkout.join("out.txt").is_file());
        assert!(!root.starts_with(env!("CARGO_MANIFEST_DIR")));
        std::fs::remove_dir_all(&checkout).expect("clean up");
        // A bare binary: the directory it was started in.
        assert_eq!(repo_root_from(None), Path::new("."));
    }
}
