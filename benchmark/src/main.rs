//! The repo benchmark harness. See README.md for what is measured and
//! why the protocol is what it is; `run.sh` is the entry point.
//!
//! `harness --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! * `--trace 0`: the timed pass, tracing off — cold set-ups, warm-up
//!   rounds, then timed rounds for `--seconds`. Prints the four
//!   end-to-end metrics of the workload.
//! * `--trace 1`: the probe pass (each layer alone) and the traced pass
//!   (all six workloads, untraced and traced rounds interleaved).
//!   Prints every per-layer metric. The layers are the same whatever
//!   `--workload` names, so it only has to be a valid name.
//! * no `--trace`: both, one after the other.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod host;
mod probes;
mod stats;
mod trace;
mod workloads;

use stats::{median, Summary};
use std::time::Instant;
use trace::Recorder;
use workloads::{Lanes, Output, Workload, NAMES};

/// Named values with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    }
}

/// Cold set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Untimed rounds before the timed ones.
const WARMUP_ROUNDS: usize = 2;
/// Fewest timed (or traced) rounds, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Rounds of a `--quick` smoke run. Never used for recorded numbers.
const QUICK_ROUNDS: usize = 4;
/// Longest the probe and traced pass run, however long `--seconds` is:
/// they need rounds enough for medians, not a minute.
const TRACED_PASS_MAX_S: f64 = 20.0;

struct Args {
    /// `None` = all six, interleaved.
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    timed: bool,
    traced: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 60.0,
        timed: true,
        traced: true,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = match NAMES.iter().find(|n| **n == v) {
                    Some(n) => Some(*n),
                    None if v == "all" => None,
                    None => return Err(format!("unknown workload {v}; one of {NAMES:?} or all")),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => match value()?.as_str() {
                "0" => args.traced = false,
                "1" => args.timed = false,
                v => return Err(format!("--trace is 0 or 1, not {v}")),
            },
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One workload under measurement.
struct Lane {
    w: Workload,
    setup_s: Vec<f64>,
    op_ms: Vec<f64>,
    makespan_ms: Vec<f64>,
    traced_op_ms: Vec<f64>,
    traced_makespan_ms: Vec<f64>,
    lanes: Vec<Lanes>,
    attempted: u64,
    failed: u64,
    rows_failed: u64,
    /// Counter deltas of one untraced round: set by the first round,
    /// and every later one must reproduce them exactly.
    round_counts: Option<Vec<u64>>,
}

impl Lane {
    /// `setups` cold set-ups, each timed, the last one kept.
    fn new(name: &'static str, seed: u64, setups: usize) -> Result<Lane, String> {
        let mut setup_s = Vec::with_capacity(setups);
        let mut kept = None;
        for _ in 0..setups {
            drop(kept.take());
            let t = Instant::now();
            kept = Some(Workload::setup(name, seed)?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        Ok(Lane {
            w: kept.expect("at least one set-up"),
            setup_s,
            op_ms: Vec::new(),
            makespan_ms: Vec::new(),
            traced_op_ms: Vec::new(),
            traced_makespan_ms: Vec::new(),
            lanes: Vec::new(),
            attempted: 0,
            failed: 0,
            rows_failed: 0,
            round_counts: None,
        })
    }

    /// One round: `ops` ops back to back, then — outside any timed
    /// region — the last result against the reference set-up verified,
    /// and the round's counter deltas against the first round's.
    /// `timed` rounds record samples and count attempts; an `Err` or a
    /// mismatch fails every op of the round. An untimed (warm-up) round
    /// that fails is a hard error.
    fn round(
        &mut self,
        ops: usize,
        timed: bool,
        mut rec: Option<(&mut Recorder, bool)>,
    ) -> Result<(), String> {
        let name = self.w.name();
        let before = self.w.counts();
        let mut last = None;
        let mut errors = 0;
        let traced = rec.is_some();
        for i in 0..ops {
            let result = match rec.as_mut() {
                Some((rec, first_round)) => self.w.op_traced(rec, *first_round && i == 0),
                None => self.w.op().map(|s| (s, None)),
            };
            match result {
                Ok((sample, lanes)) => {
                    let (op, mk) = (sample.op_ns as f64 / 1e6, sample.makespan_ns as f64 / 1e6);
                    if traced {
                        self.traced_op_ms.push(op);
                        self.traced_makespan_ms.push(mk);
                        self.lanes.extend(lanes);
                    } else if timed {
                        self.op_ms.push(op);
                        self.makespan_ms.push(mk);
                    }
                    // Dropping the previous result here keeps at most
                    // one grid alive; the op itself is already timed.
                    last = Some(sample.output);
                }
                Err(e) => {
                    eprintln!("{name}: op failed: {e}");
                    errors += 1;
                }
            }
        }
        self.rows_failed += last.as_ref().map_or(0, Output::rows_failed);
        let ok = errors == 0 && last.as_ref().is_some_and(|out| self.w.verify(out));
        if !ok {
            eprintln!("{name}: round failed ({errors} op errors, or the result differs from the verified reference)");
        }
        if timed {
            self.attempted += ops as u64;
            self.failed += if ok { 0 } else { ops as u64 };
        } else if !ok {
            return Err(format!("{name}: warm-up round failed"));
        }
        if !traced {
            let after = self.w.counts();
            let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a.1 - b.1).collect();
            match &self.round_counts {
                None => self.round_counts = Some(delta),
                Some(first) if *first != delta => {
                    let names: Vec<&str> = after.iter().map(|c| c.0).collect();
                    return Err(format!(
                        "{name}: exact-count gate: a round counted {names:?} = {delta:?}, the first round {first:?}"
                    ));
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// The four end-to-end metrics, printed and returned.
    fn end_to_end(&self, prefix: &str, m: &mut Metrics) {
        let (units, what) = self.w.work();
        let op = Summary::of(&self.op_ms);
        let mk = Summary::of(&self.makespan_ms);
        let tail = |s: &Summary| {
            s.tail.map_or(String::new(), |(pm, v)| {
                format!("  p{} {v:.4}", pm as f64 / 10.0)
            })
        };
        println!(
            "workload {}: {} ops attempted, {} failed",
            self.w.name(),
            self.attempted,
            self.failed
        );
        if let Some((steps, cells, msgs)) = self.w.plan_facts() {
            println!("  plan: {steps} steps, {cells} cells, {msgs} messages/step");
        }
        if let Some(counts) = &self.round_counts {
            let names = self.w.counts();
            let pairs: Vec<String> = names
                .iter()
                .zip(counts)
                .map(|(n, c)| format!("{}={c}", n.0))
                .collect();
            println!("  per round (exact): {}", pairs.join(" "));
        }
        let setup = median(&self.setup_s);
        println!(
            "  {:<18}{setup:>14.6} s    median of {} cold set-ups",
            "setup_s",
            self.setup_s.len()
        );
        println!(
            "  {:<18}{:>14.4} ms    p50 {:.4}{}  n={}",
            "op_ms_min",
            op.min,
            op.p50,
            tail(&op),
            op.n
        );
        println!(
            "  {:<18}{:>14.4} ms    p50 {:.4}{}  n={}",
            "makespan_ms_min",
            mk.min,
            mk.p50,
            tail(&mk),
            mk.n
        );
        let rate = units as f64 / (op.min * 1e-3);
        println!(
            "  {:<18}{rate:>14.1} 1/s   {units} {what} per op / op_ms_min",
            "work_per_s"
        );
        m.put(&format!("{prefix}setup_s"), setup, "s");
        m.put(&format!("{prefix}op_ms_min"), op.min, "ms");
        m.put(&format!("{prefix}makespan_ms_min"), mk.min, "ms");
        m.put(&format!("{prefix}work_per_s"), rate, "1/s");
    }
}

/// Totals of a pass.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// The timed pass: tracing off, every selected workload gets a slice
/// of every round, so all sample sets span the same stretch of time.
fn timed_pass(args: &Args, m: &mut Metrics, tally: &mut Tally) -> Result<(), String> {
    let names: Vec<&'static str> = args.workload.map_or(NAMES.to_vec(), |n| vec![n]);
    let prefixed = names.len() > 1;
    let steal0 = host::cpu_jiffies();
    let mut lanes = Vec::new();
    for name in names {
        lanes.push(Lane::new(name, args.seed, SETUPS)?);
    }
    for _ in 0..WARMUP_ROUNDS {
        for lane in &mut lanes {
            lane.round(lane.w.ops_per_round(), false, None)?;
        }
    }
    let mut canary = Vec::new();
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        for lane in &mut lanes {
            lane.round(lane.w.ops_per_round(), true, None)?;
        }
        canary.push(host::canary_ms());
        rounds += 1;
        let enough = if args.quick {
            rounds >= QUICK_ROUNDS
        } else {
            rounds >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= args.seconds
        };
        if enough {
            break;
        }
    }
    println!(
        "timed pass: {rounds} rounds in {:.1} s, tracing off; steal_frac {:.4}, canary_ms_p50 {:.4}",
        start.elapsed().as_secs_f64(),
        host::steal_frac(steal0),
        median(&canary)
    );
    for lane in &lanes {
        let prefix = if prefixed {
            format!("{}/", lane.w.name())
        } else {
            String::new()
        };
        lane.end_to_end(&prefix, m);
        tally.attempted += lane.attempted;
        tally.failed += lane.failed;
    }
    Ok(())
}

/// Median over traced ops of a per-op quantity derived from lanes and
/// makespan.
fn lane_median(lane: &Lane, f: impl Fn(&Lanes, f64) -> f64) -> f64 {
    let values: Vec<f64> = lane
        .lanes
        .iter()
        .zip(&lane.traced_makespan_ms)
        .map(|(l, mk)| f(l, *mk))
        .collect();
    median(&values)
}

/// How well the span tree of a world workload closes: per traced op,
/// the self times of `op`, `planc.execute` and `stencil.run` plus the
/// longest rank span, over the op's duration. 1 means every
/// nanosecond of the op is attributed exactly once along its critical
/// chain.
fn span_closure(rec: &Recorder, selfs: &[u64], workload: &str) -> f64 {
    let of = |parent: u32, name: &'static str| {
        rec.spans
            .iter()
            .filter(move |s| s.parent == Some(parent) && s.name == name)
    };
    let mut ratios = Vec::new();
    for op in rec
        .spans
        .iter()
        .filter(|s| s.workload == workload && s.name == "op")
    {
        let mut attributed = selfs[op.id as usize];
        for exec in of(op.id, "planc.execute") {
            attributed += selfs[exec.id as usize];
            for run in of(exec.id, "stencil.run") {
                attributed += selfs[run.id as usize];
                attributed += of(run.id, "rank").map(|r| r.dur_ns()).max().unwrap_or(0);
            }
        }
        ratios.push(attributed as f64 / op.dur_ns().max(1) as f64);
    }
    median(&ratios)
}

/// Where a world workload's traced time went, layer by layer (median
/// self time per op, µs).
fn print_self_times(rec: &Recorder, selfs: &[u64], workload: &str) {
    let mut line = format!("  self time per op, {workload}:");
    for name in ["op", "planc.execute", "stencil.run", "rank"] {
        let us: Vec<f64> = rec
            .spans
            .iter()
            .filter(|s| s.workload == workload && s.name == name)
            .map(|s| selfs[s.id as usize] as f64 / 1e3)
            .collect();
        if !us.is_empty() {
            line += &format!("  {name} {:.1} us", median(&us));
        }
    }
    println!("{line}");
}

/// The probe pass and the traced pass.
fn traced_pass(args: &Args, m: &mut Metrics, tally: &mut Tally) -> Result<(), String> {
    let start = Instant::now();
    let steal0 = host::cpu_jiffies();
    probes::run(m, args.seed)?;
    let probes_s = start.elapsed().as_secs_f64();

    let mut lanes = Vec::new();
    for name in NAMES {
        lanes.push(Lane::new(name, args.seed, 1)?);
    }
    // Half rounds: an untraced and a traced slice of every workload
    // have to fit in each round.
    let ops = |lane: &Lane| (lane.w.ops_per_round() / 2).max(10);
    for lane in &mut lanes {
        lane.round(ops(lane), false, None)?;
    }
    let mut rec = Recorder::new();
    let mut canary = Vec::new();
    let mut rounds = 0;
    loop {
        for lane in &mut lanes {
            // Which of the two slices goes first alternates, so neither
            // always inherits the other's warm caches.
            for traced in [rounds % 2 == 1, rounds % 2 == 0] {
                let rec = traced.then_some((&mut rec, rounds == 0));
                lane.round(ops(lane), true, rec)?;
            }
        }
        canary.push(host::canary_ms());
        rounds += 1;
        let enough = if args.quick {
            rounds >= MIN_ROUNDS
        } else {
            rounds >= MIN_ROUNDS
                && start.elapsed().as_secs_f64() >= args.seconds.min(TRACED_PASS_MAX_S)
        };
        if enough {
            break;
        }
    }
    println!(
        "probe pass {probes_s:.1} s; traced pass: {rounds} rounds, {} spans, {:.1} s in all",
        rec.spans.len(),
        start.elapsed().as_secs_f64()
    );

    let lane = |name: &str| {
        lanes
            .iter()
            .find(|l| l.w.name() == name)
            .expect("all six run")
    };
    let selfs = rec.self_times();

    // tiling-core: the closed form against the measured makespan.
    for w in ["wire-overlap", "wire-blocking"] {
        let l = lane(w);
        let predicted =
            l.w.artifact()
                .and_then(|a| a.predicted_us())
                .unwrap_or(f64::NAN);
        let measured = median(&l.makespan_ms) * 1e3;
        m.put(
            &format!("tiling-core.pred_err_rel.{w}"),
            (measured - predicted) / predicted,
            "ratio",
        );
    }

    // planc: the service's jobs and counters, and the front door's own
    // cost on the pooled workloads.
    let jobs = |pick: &dyn Fn(&str) -> bool| -> Vec<f64> {
        rec.spans
            .iter()
            .filter(|s| s.name.starts_with("job.") && pick(s.name))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    };
    m.put(
        "planc.job_ms_p50.execute",
        median(&jobs(&|n| n == "job.execute")),
        "ms",
    );
    m.put("planc.job_ms_p95", Summary::at(&jobs(&|_| true), 950), "ms");
    let svc = lane("plan-service");
    let per_op = |counter: &str| {
        let names = svc.w.counts();
        let i = names
            .iter()
            .position(|c| c.0 == counter)
            .expect("a service counter");
        svc.round_counts.as_ref().expect("rounds ran")[i] as f64 / ops(svc) as f64
    };
    let (hits, misses) = (per_op("cache_hits"), per_op("cache_misses"));
    m.put("planc.cache_hit_ratio", hits / (hits + misses), "ratio");
    for counter in [
        "compiles",
        "coalesced",
        "worlds_created",
        "worlds_reused",
        "rejected",
    ] {
        m.put(&format!("planc.{counter}"), per_op(counter), "count");
    }
    let cb = lane("compute-bound");
    let overhead: Vec<f64> = cb
        .op_ms
        .iter()
        .zip(&cb.makespan_ms)
        .map(|(o, k)| o - k)
        .collect();
    m.put("planc.execute_overhead_ms_p50", median(&overhead), "ms");

    // stencil: eq. 4 / eq. 3 from the engine's own phases.
    for l in &lanes {
        // The world workloads: the ones with an engine to trace.
        let Some(art) = l.w.artifact() else { continue };
        let w = l.w.name();
        let steps = art.steps() as f64;
        let blocking = art.mode() == stencil::engine::ExecMode::Blocking;
        m.put(
            &format!("stencil.engine.compute_us_per_step.{w}"),
            lane_median(l, |l, _| l.compute_us),
            "us",
        );
        m.put(
            &format!("stencil.engine.a_us_per_step.{w}"),
            lane_median(l, |l, _| l.a_us),
            "us",
        );
        m.put(
            &format!("stencil.engine.b_us_per_step.{w}"),
            lane_median(l, |l, _| l.b_us),
            "us",
        );
        let closure = lane_median(l, |l, makespan_ms| {
            let step = if blocking {
                l.a_us + l.b_us
            } else {
                l.a_us.max(l.b_us)
            };
            steps * step / (makespan_ms * 1e3)
        });
        m.put(&format!("stencil.engine.eq_closure.{w}"), closure, "ratio");
        m.put(
            &format!("stencil.engine.span_closure.{w}"),
            span_closure(&rec, &selfs, w),
            "ratio",
        );
        print_self_times(&rec, &selfs, w);
    }
    m.put(
        "stencil.engine.overlap_gain",
        median(&lane("wire-blocking").makespan_ms) / median(&lane("wire-overlap").makespan_ms),
        "ratio",
    );
    let seq_ms = cb.w.work().0 as f64 / m.get("stencil.seq.cells_per_s.paper3d") * 1e3;
    m.put(
        "stencil.engine.speedup_vs_seq",
        seq_ms / median(&cb.makespan_ms),
        "ratio",
    );

    // cluster-sim / sweep: the batch's exact simulated total.
    let sim = lane("sim-sweep");
    if let Workload::Sweep(s) = &sim.w {
        m.put(
            "cluster-sim.sim_makespan_us_sum",
            s.sim_makespan_us_sum,
            "us",
        );
    }
    m.put("sweep.rows_failed", sim.rows_failed as f64, "count");

    // host.
    m.put("host.nproc", host::nproc() as f64, "count");
    m.put("host.steal_frac", host::steal_frac(steal0), "ratio");
    m.put("host.canary_ms_p50", median(&canary), "ms");
    for l in &lanes {
        // What a user waits for on a typical op, as opposed to the
        // fastest op the end-to-end metrics report.
        m.put(
            &format!("workload.op_ms_p50.{}", l.w.name()),
            median(&l.op_ms),
            "ms",
        );
    }
    for l in &lanes {
        let overhead = median(&l.traced_op_ms) / median(&l.op_ms) - 1.0;
        m.put(
            &format!("host.trace_overhead_frac.{}", l.w.name()),
            overhead,
            "ratio",
        );
        tally.attempted += l.attempted;
        tally.failed += l.failed;
    }

    let out = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(out)
        .and_then(|()| rec.write_chrome(&out.join("trace.json"), &NAMES))
        .map_err(|e| format!("benchmark/out/trace.json: {e}"))?;
    println!("  spans written to benchmark/out/trace.json");
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    let machine = host::Machine::probe();
    println!(
        "machine: nproc={} cpu=\"{}\" rustc=\"{}\" kernel=\"{}\"",
        machine.nproc, machine.cpu, machine.rustc, machine.kernel
    );
    println!(
        "run: workload={} seed={} seconds={}{}",
        args.workload.unwrap_or("all"),
        args.seed,
        args.seconds,
        if args.quick {
            " QUICK (smoke only, not for recorded numbers)"
        } else {
            ""
        }
    );
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    if args.timed {
        timed_pass(args, &mut metrics, &mut tally)?;
    }
    if args.traced {
        let first = metrics.0.len();
        traced_pass(args, &mut metrics, &mut tally)?;
        println!("per-layer metrics:");
        for (name, value, unit) in &metrics.0[first..] {
            println!("  {name:<52}{value:>18.6} {unit}");
        }
    }
    if let Some((name, value, _)) = metrics.0.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is not a finite number: {value}"));
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(correct)
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(true) => 0,
        Ok(false) => 2,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            1
        }
    };
    std::process::exit(code);
}
