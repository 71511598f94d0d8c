//! The sweep executor: one full cluster simulation per config, fanned
//! out over a worker pool, each point isolated behind `catch_unwind`.
//! The calling thread is worker 0, so a one-worker sweep — a benchmark
//! op — spawns nothing. Simulations run without an interval trace:
//! utilisation comes from the totals the engine keeps anyway
//! (`cluster_sim::stats`).
//!
//! Determinism contract: results are tagged with their config's index
//! and put back in config order regardless of worker count or OS
//! scheduling, and every simulation is itself deterministic.
//! `run_sweep(configs, 1)` and `run_sweep(configs, 16)` produce the
//! same rows.

use crate::config::{Schedule, SweepConfig};
use cluster_sim::engine::{simulate_heterogeneous, NetworkTopology, SimConfig};
use cluster_sim::stats::summarize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use tiling_core::closed_form::optimal_v;
use tiling_core::dependence::DependenceSet;
use tiling_core::machine::{MachineParams, PiecewiseCost};
use tiling_core::space::IterationSpace;

/// How a config's evaluation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowStatus {
    /// Simulated and summarized.
    Ok,
    /// The problem could not be laid out (bad tiling/arity).
    BuildError,
    /// The simulator rejected or deadlocked the programs.
    SimError,
    /// The evaluation panicked (isolated; the batch continued).
    Panic,
}

impl RowStatus {
    /// Stable display name (a CSV column value).
    pub fn name(self) -> &'static str {
        match self {
            RowStatus::Ok => "ok",
            RowStatus::BuildError => "build_error",
            RowStatus::SimError => "sim_error",
            RowStatus::Panic => "panic",
        }
    }
}

/// Measured quantities of one successful evaluation.
#[derive(Clone, Copy, Debug)]
pub struct RowMetrics {
    /// Processors in the fleet (boundary clipping can shrink it).
    pub ranks: usize,
    /// Pipeline steps per rank.
    pub steps: i64,
    /// Simulated makespan, µs.
    pub makespan_us: f64,
    /// Mean per-rank CPU utilization.
    pub mean_util: f64,
    /// Minimum per-rank CPU utilization.
    pub min_util: f64,
    /// Maximum per-rank CPU utilization.
    pub max_util: f64,
    /// Mean fraction of busy time spent computing.
    pub compute_fraction: f64,
    /// Closed-form model prediction at this config's `V`, µs.
    pub predicted_us: f64,
    /// `(simulated − predicted) / predicted` — where the affine model
    /// stops being faithful (curves, heterogeneity, buses), this grows.
    pub pred_err_rel: f64,
    /// Whether the closed form actually models this config: false when
    /// the machine carries a measured transfer curve or the fleet has
    /// heterogeneous node speeds. Out-of-model rows keep their
    /// `pred_err_rel` but are excluded from the model-fidelity
    /// percentiles.
    pub pred_in_model: bool,
}

/// One output row: the config plus what happened to it.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// The evaluated config.
    pub config: SweepConfig,
    /// Outcome class.
    pub status: RowStatus,
    /// Error detail (empty for `Ok`).
    pub detail: String,
    /// Metrics (present iff `Ok`).
    pub metrics: Option<RowMetrics>,
}

/// The whole batch's result.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// One row per config, in config order.
    pub rows: Vec<SweepRow>,
    /// Rows that panicked (CI gates this to zero).
    pub panics: usize,
    /// Rows with build/sim errors.
    pub errors: usize,
}

enum EvalError {
    Build(String),
    Sim(String),
}

/// A measured-style transfer curve synthesized from a machine's wire
/// rate: a small-message floor (eager protocol), the affine region, and
/// a 25% super-linear penalty past the rendezvous threshold. Monotone
/// by construction — for a wire rate that is a duration per byte.
fn measured_curve(m: &MachineParams) -> Result<PiecewiseCost, EvalError> {
    let t = m.t_t_us_per_byte;
    PiecewiseCost::from_knots(&[
        (0.0, 96.0 * t),
        (1024.0, 1024.0 * t),
        (8192.0, 8192.0 * t),
        (65536.0, 1.25 * 65536.0 * t),
    ])
    .map_err(|e| EvalError::Sim(format!("bad cost: transfer curve at {t} µs/B: {e}")))
}

/// The machine a config runs on.
fn machine_of(c: &SweepConfig) -> Result<MachineParams, EvalError> {
    let mut m = c.preset.params().scale_communication(c.comm_scale);
    if c.measured_curve {
        m = m.with_transfer_curve(measured_curve(&m)?);
    }
    Ok(m)
}

/// Evaluate one config: build, simulate, summarize, compare to the
/// closed form.
fn evaluate(c: &SweepConfig) -> Result<RowMetrics, EvalError> {
    let machine = machine_of(c)?;
    let problem = c.problem().map_err(|e| EvalError::Build(e.to_string()))?;
    let programs = problem.programs(c.schedule, &machine);
    let topology = if c.shared_bus {
        NetworkTopology::SharedBus
    } else {
        NetworkTopology::Switched
    };
    let cfg = SimConfig::new(machine)
        .with_duplex(c.duplex)
        .with_topology(topology)
        .with_trace(false);
    let speeds = problem.node_speeds(c.seed, c.hetero_spread);
    let result =
        simulate_heterogeneous(cfg, programs, speeds).map_err(|e| EvalError::Sim(e.to_string()))?;
    let summary = summarize(&result).ok_or_else(|| EvalError::Sim("zero-rank fleet".into()))?;
    let space = IterationSpace::from_extents(&c.extents);
    let deps = DependenceSet::paper_3d();
    let cf = optimal_v(c.schedule, &space, &deps, &machine, &c.cross_sides, 2);
    let predicted_us = cf.predict_us(c.v as f64);
    let pred_err_rel = if predicted_us > 0.0 {
        (summary.makespan_us - predicted_us) / predicted_us
    } else {
        f64::NAN
    };
    Ok(RowMetrics {
        ranks: problem.ranks(),
        steps: problem.steps(),
        makespan_us: summary.makespan_us,
        mean_util: summary.mean_utilization,
        min_util: summary.min_utilization,
        max_util: summary.max_utilization,
        compute_fraction: summary.mean_compute_fraction,
        predicted_us,
        pred_err_rel,
        pred_in_model: !(c.hetero_spread > 0.0 || c.measured_curve),
    })
}

/// Evaluate one config with panic isolation.
fn run_one(c: &SweepConfig) -> SweepRow {
    match catch_unwind(AssertUnwindSafe(|| evaluate(c))) {
        Ok(Ok(metrics)) => SweepRow {
            config: c.clone(),
            status: RowStatus::Ok,
            detail: String::new(),
            metrics: Some(metrics),
        },
        Ok(Err(EvalError::Build(detail))) => SweepRow {
            config: c.clone(),
            status: RowStatus::BuildError,
            detail,
            metrics: None,
        },
        Ok(Err(EvalError::Sim(detail))) => SweepRow {
            config: c.clone(),
            status: RowStatus::SimError,
            detail,
            metrics: None,
        },
        Err(payload) => {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            SweepRow {
                config: c.clone(),
                status: RowStatus::Panic,
                detail,
                metrics: None,
            }
        }
    }
}

/// Run every config on a pool of `workers` threads, the caller being
/// one of them.
///
/// Work distribution is a single atomic cursor (the planc service's
/// queue shape, minus the persistent threads); each result is tagged
/// with its config's index and the rows are put back in that order, so
/// row order — and therefore the CSV — is independent of scheduling.
pub fn run_sweep(configs: &[SweepConfig], workers: usize) -> SweepOutcome {
    let workers = workers.max(1).min(configs.len().max(1));
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= configs.len() {
                return done;
            }
            done.push((i, run_one(&configs[i])));
        }
    };
    let mut indexed = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut all = work();
        for h in helpers {
            // `run_one` catches every panic of a config, so a helper
            // only fails by a panic outside it: re-raise that here.
            all.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        all
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    let rows: Vec<SweepRow> = indexed.into_iter().map(|(_, row)| row).collect();
    let panics = rows.iter().filter(|r| r.status == RowStatus::Panic).count();
    let errors = rows
        .iter()
        .filter(|r| matches!(r.status, RowStatus::BuildError | RowStatus::SimError))
        .count();
    SweepOutcome {
        rows,
        panics,
        errors,
    }
}

/// The first of `rows`' minimum makespans under `schedule`, and its
/// tile height: `(makespan_us, v)`. Rows without metrics are skipped;
/// `None` when no row of that schedule has any.
pub fn best<'a>(
    rows: impl IntoIterator<Item = &'a SweepRow>,
    schedule: Schedule,
) -> Option<(f64, i64)> {
    rows.into_iter()
        .filter(|r| r.config.schedule == schedule)
        .filter_map(|r| r.metrics.map(|m| (m.makespan_us, r.config.v)))
        .min_by(|a, b| a.0.total_cmp(&b.0))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{generate, paper_experiments, Experiment, SweepSpec};

    fn small_spec(seed: u64) -> SweepSpec {
        SweepSpec {
            seed,
            random_configs: 16,
            quick: true,
            figures: false,
        }
    }

    /// The paper's central point: experiment i at a 16th of its depth,
    /// 4×4 ranks, overlapping, V = 64.
    pub(crate) fn paper_point(seed: u64) -> SweepConfig {
        let exp = Experiment {
            nz: 1024,
            ..paper_experiments()[0]
        };
        SweepConfig {
            seed,
            ..exp.config(0, 64, Schedule::Overlap)
        }
    }

    #[test]
    fn best_keeps_the_first_of_equal_minima_and_skips_failed_rows() {
        let simulated = run_sweep(&[paper_point(0)], 1).rows[0].metrics.expect("ok");
        let row = |v, schedule, makespan_us: Option<f64>| SweepRow {
            config: SweepConfig {
                v,
                schedule,
                ..paper_point(0)
            },
            status: RowStatus::Ok,
            detail: String::new(),
            metrics: makespan_us.map(|makespan_us| RowMetrics {
                makespan_us,
                ..simulated
            }),
        };
        let rows = [
            row(8, Schedule::Overlap, None),
            row(16, Schedule::Overlap, Some(5.0)),
            row(16, Schedule::Blocking, Some(1.0)),
            row(32, Schedule::Overlap, Some(3.0)),
            row(64, Schedule::Overlap, Some(3.0)),
            row(128, Schedule::Overlap, None),
        ];
        assert_eq!(best(&rows, Schedule::Overlap), Some((3.0, 32)));
        assert_eq!(best(&rows, Schedule::Blocking), Some((1.0, 16)));
        assert_eq!(best(&rows[..2], Schedule::Blocking), None);
        assert_eq!(best(&rows[..1], Schedule::Overlap), None);
    }

    #[test]
    fn pool_fills_every_slot_in_order() {
        let configs = generate(&small_spec(1));
        let out = run_sweep(&configs, 4);
        assert_eq!(out.rows.len(), configs.len());
        for (i, r) in out.rows.iter().enumerate() {
            assert_eq!(r.config.id, i);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let configs = generate(&small_spec(2));
        let a = run_sweep(&configs, 1);
        let b = run_sweep(&configs, 8);
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.status, y.status);
            match (&x.metrics, &y.metrics) {
                (Some(mx), Some(my)) => {
                    assert_eq!(mx.makespan_us, my.makespan_us);
                    assert_eq!(mx.mean_util, my.mean_util);
                }
                (None, None) => {}
                other => panic!("metric presence differs: {other:?}"),
            }
        }
    }

    #[test]
    fn ok_rows_have_sane_metrics() {
        let configs = generate(&small_spec(3));
        let out = run_sweep(&configs, 4);
        let ok = out
            .rows
            .iter()
            .filter(|r| r.status == RowStatus::Ok)
            .count();
        assert!(ok > 0, "at least some configs must simulate");
        for r in &out.rows {
            if let Some(m) = &r.metrics {
                assert!(m.makespan_us > 0.0, "{r:?}");
                assert!(m.min_util <= m.mean_util + 1e-12, "{r:?}");
                assert!(m.mean_util <= m.max_util + 1e-12, "{r:?}");
                assert!(m.max_util <= 1.0 + 1e-9, "{r:?}");
                assert!(m.predicted_us > 0.0, "{r:?}");
                assert!(m.pred_err_rel.is_finite(), "{r:?}");
            }
        }
    }

    #[test]
    fn out_of_model_configs_are_marked() {
        let mk = |hetero_spread, measured_curve| SweepConfig {
            measured_curve,
            hetero_spread,
            ..paper_point(5)
        };
        let out = run_sweep(
            &[mk(0.0, false), mk(0.3, false), mk(0.0, true), mk(0.3, true)],
            2,
        );
        let flags: Vec<bool> = out
            .rows
            .iter()
            .map(|r| r.metrics.expect("ok").pred_in_model)
            .collect();
        assert_eq!(flags, [true, false, false, false]);
    }

    #[test]
    fn a_machine_whose_costs_are_not_durations_is_a_sim_error_row() {
        // Costs that are ∞ (scaled by f64::MAX), NaN or negative, with or
        // without a measured curve, which no such knots can define.
        let mut configs = Vec::new();
        for comm_scale in [f64::MAX, f64::NAN, -1.0, f64::INFINITY] {
            for measured_curve in [false, true] {
                for schedule in [Schedule::Blocking, Schedule::Overlap] {
                    configs.push(SweepConfig {
                        comm_scale,
                        measured_curve,
                        schedule,
                        ..paper_point(1)
                    });
                }
            }
        }
        let out = run_sweep(&configs, 1);
        for row in &out.rows {
            assert_eq!(row.status, RowStatus::SimError, "{row:?}");
            assert!(row.detail.contains("bad cost"), "{row:?}");
        }
        assert_eq!((out.panics, out.errors), (0, 16));
    }

    #[test]
    fn overlap_beats_blocking_on_the_paper_point() {
        // The paper's central claim, as two sweep configs.
        let mk = |schedule| SweepConfig {
            schedule,
            ..paper_point(9)
        };
        let out = run_sweep(&[mk(Schedule::Blocking), mk(Schedule::Overlap)], 2);
        let b = out.rows[0].metrics.expect("blocking ok");
        let o = out.rows[1].metrics.expect("overlap ok");
        assert!(
            o.makespan_us < b.makespan_us,
            "overlap {o:?} vs blocking {b:?}"
        );
    }

    #[test]
    fn heterogeneous_fleet_slows_the_pipeline_makespan() {
        // The pipeline is paced by its slowest stage: jittered speeds
        // around 1.0 should not beat the homogeneous fleet by much and
        // typically lose.
        let mk = |hetero_spread| SweepConfig {
            hetero_spread,
            ..paper_point(1234)
        };
        let out = run_sweep(&[mk(0.0), mk(0.4)], 2);
        let homo = out.rows[0].metrics.expect("homogeneous ok").makespan_us;
        let hetero = out.rows[1].metrics.expect("heterogeneous ok").makespan_us;
        assert!(
            hetero > homo * 0.99,
            "hetero fleet {hetero} implausibly faster than homogeneous {homo}"
        );
    }
}
