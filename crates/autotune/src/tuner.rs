//! The closed loop: seed → surrogate pre-rank → calibrate → commit.
//!
//! The seed is the closed form's own pick (`V*` clamped, the problem's
//! shape) — it is measured first and becomes the initial incumbent, so
//! the tuner can never return something worse than the analytic answer
//! *on the evaluated set*. Remaining candidates are scored by the
//! surrogate, the best `max_candidates` survive, and each survivor is
//! measured with best-of-N timing. On noisy backends a candidate is
//! first probed at a step-count checkpoint and abandoned when its
//! extrapolated cost is already `abandon_factor` over the incumbent.
//! The winner can be committed into planc's [`TunedCache`] keyed by
//! the workload identity.

use crate::backend::MeasureBackend;
use crate::candidates::{closed_form_for, enumerate, Candidate, Schedule, TuneProblem};
use crate::surrogate::Surrogate;
use planc::{tuned_key, PlanRequest, TunedCache, TunedEntry};
use std::sync::Arc;
use tiling_core::machine::{KernelTier, MachineParams};

/// Search-loop knobs.
#[derive(Clone, Debug)]
pub struct TuneConfig {
    /// Repetitions per measurement, keeping the minimum (1 on
    /// deterministic backends regardless).
    pub best_of: usize,
    /// Pipeline-step checkpoint for early abandon (0 disables).
    pub checkpoint_steps: usize,
    /// Abandon a candidate whose checkpoint-extrapolated cost exceeds
    /// `abandon_factor ×` the incumbent.
    pub abandon_factor: f64,
    /// Candidates surviving the surrogate cut (seed excluded — it is
    /// always measured).
    pub max_candidates: usize,
    /// Kernel tiers to explore.
    pub tiers: Vec<KernelTier>,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            best_of: 3,
            checkpoint_steps: 4,
            abandon_factor: 1.15,
            max_candidates: 12,
            tiers: vec![KernelTier::Bitwise],
        }
    }
}

/// One measured candidate.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    /// The coordinates measured.
    pub candidate: Candidate,
    /// Measured makespan (µs), best of N.
    pub makespan_us: f64,
    /// `makespan_us / ⌈nz/V⌉`.
    pub us_per_step: f64,
    /// The continuous closed-form prediction at these coordinates (µs).
    pub predicted_us: f64,
    /// `(measured − predicted) / predicted`.
    pub pred_err_rel: f64,
}

/// What a tuning run found.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// The closed form's own pick, measured (always evaluated first).
    pub seed: Measured,
    /// The best measured candidate (≤ seed by construction).
    pub incumbent: Measured,
    /// Every candidate actually measured, in evaluation order
    /// (seed first).
    pub evaluated: Vec<Measured>,
    /// Candidates rejected at the checkpoint without a full run.
    pub abandoned: usize,
    /// Candidates the backend refused to run (e.g. a height too small
    /// to contain a dependence component).
    pub infeasible: usize,
    /// Size of the enumerated space before the surrogate cut.
    pub enumerated: usize,
}

impl TuneOutcome {
    /// Measured speedup of the incumbent over the closed-form seed
    /// (≥ 1 by construction).
    pub fn speedup(&self) -> f64 {
        self.seed.makespan_us / self.incumbent.makespan_us
    }
}

/// Run the loop. `machine` is the model candidates are *predicted*
/// under (the backend measures under whatever it wraps).
pub fn tune(
    problem: &TuneProblem,
    machine: &MachineParams,
    schedule: Schedule,
    backend: &dyn MeasureBackend,
    surrogate: &Surrogate,
    cfg: &TuneConfig,
) -> Result<TuneOutcome, String> {
    if !problem.nx.is_multiple_of(problem.pi) || !problem.ny.is_multiple_of(problem.pj) {
        return Err(format!(
            "grid {}x{} not divisible by processor grid {}x{}",
            problem.nx, problem.ny, problem.pi, problem.pj
        ));
    }
    let reps = if backend.deterministic() {
        1
    } else {
        cfg.best_of.max(1)
    };
    let measure = |c: &Candidate| -> Result<Measured, String> {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            best = best.min(backend.measure_us(c)?);
        }
        let cf = closed_form_for(problem, machine, schedule, c.pi, c.pj);
        let predicted_us = cf.predict_us(c.v as f64);
        Ok(Measured {
            candidate: *c,
            makespan_us: best,
            us_per_step: best / c.steps(problem.nz) as f64,
            predicted_us,
            pred_err_rel: (best - predicted_us) / predicted_us,
        })
    };

    // 1. Seed: the closed form's answer on the problem's own shape.
    let seed_cf = closed_form_for(problem, machine, schedule, problem.pi, problem.pj);
    let tier0 = cfg.tiers.first().copied().unwrap_or(KernelTier::Bitwise);
    let seed_cand = Candidate {
        v: seed_cf.v_star_clamped(problem.nz),
        pi: problem.pi,
        pj: problem.pj,
        tier: tier0,
    };
    let seed = measure(&seed_cand)?;
    let mut evaluated = vec![seed];
    let mut incumbent = seed;

    // 2. Enumerate and pre-rank the rest of the space.
    let mut pool: Vec<Candidate> = enumerate(problem, machine, schedule, &cfg.tiers)
        .into_iter()
        .filter(|c| *c != seed_cand)
        .collect();
    let enumerated = pool.len() + 1;
    let score = |c: &Candidate| {
        let cf = closed_form_for(problem, machine, schedule, c.pi, c.pj);
        surrogate.score(&cf, schedule, c.v)
    };
    pool.sort_by(|a, b| score(a).total_cmp(&score(b)));
    pool.truncate(cfg.max_candidates);

    // 3. Calibrate, abandoning hopeless candidates at the checkpoint.
    // A candidate the backend refuses (infeasible coordinates) is
    // skipped, not fatal — only a failing *seed* aborts the run.
    let mut abandoned = 0;
    let mut infeasible = 0;
    for c in &pool {
        if !backend.deterministic() && cfg.checkpoint_steps > 0 {
            match backend.checkpoint_us(c, cfg.checkpoint_steps) {
                Some(Ok(est)) if est > cfg.abandon_factor * incumbent.makespan_us => {
                    abandoned += 1;
                    continue;
                }
                Some(Err(_)) => {
                    infeasible += 1;
                    continue;
                }
                _ => {}
            }
        }
        let m = match measure(c) {
            Ok(m) => m,
            Err(_) => {
                infeasible += 1;
                continue;
            }
        };
        if m.makespan_us < incumbent.makespan_us {
            incumbent = m;
        }
        evaluated.push(m);
    }

    Ok(TuneOutcome {
        seed,
        incumbent,
        evaluated,
        abandoned,
        infeasible,
        enumerated,
    })
}

/// Record a winner in planc's tuned-plan cache under the workload
/// identity of `req` (see [`tuned_key`]) and hand the entry back.
pub fn commit(outcome: &TuneOutcome, req: &PlanRequest, cache: &TunedCache) -> Arc<TunedEntry> {
    let w = &outcome.incumbent;
    let entry = Arc::new(TunedEntry {
        v: w.candidate.v,
        pi: w.candidate.pi,
        pj: w.candidate.pj,
        tier: w.candidate.tier,
        measured_makespan_us: w.makespan_us,
        measured_us_per_step: w.us_per_step,
        predicted_us: w.predicted_us,
        pred_err_rel: w.pred_err_rel,
    });
    cache.insert(tuned_key(req), entry.clone());
    entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;

    fn sim_backend(problem: TuneProblem, spread: f64, seed: u64) -> SimBackend {
        SimBackend {
            problem,
            machine: MachineParams::paper_cluster(),
            schedule: Schedule::Overlap,
            duplex: true,
            shared_bus: false,
            hetero_seed: seed,
            hetero_spread: spread,
        }
    }

    #[test]
    fn incumbent_is_min_of_evaluated_and_never_worse_than_seed() {
        let problem = TuneProblem {
            nx: 8,
            ny: 8,
            nz: 700,
            pi: 2,
            pj: 2,
        };
        let backend = sim_backend(problem, 0.0, 1);
        let machine = MachineParams::paper_cluster();
        let out = tune(
            &problem,
            &machine,
            Schedule::Overlap,
            &backend,
            &Surrogate::ClosedForm,
            &TuneConfig::default(),
        )
        .unwrap();
        assert!(out.incumbent.makespan_us <= out.seed.makespan_us);
        assert!(out.speedup() >= 1.0);
        let min = out
            .evaluated
            .iter()
            .map(|m| m.makespan_us)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(out.incumbent.makespan_us, min);
        assert_eq!(out.evaluated[0].candidate, out.seed.candidate);
        assert!(out.enumerated > out.evaluated.len());
    }

    #[test]
    fn rejects_indivisible_problem() {
        let problem = TuneProblem {
            nx: 9,
            ny: 8,
            nz: 64,
            pi: 2,
            pj: 2,
        };
        let backend = sim_backend(problem, 0.0, 1);
        let machine = MachineParams::paper_cluster();
        assert!(tune(
            &problem,
            &machine,
            Schedule::Overlap,
            &backend,
            &Surrogate::ClosedForm,
            &TuneConfig::default(),
        )
        .is_err());
    }

    #[test]
    fn commit_records_the_incumbent_under_the_workload_key() {
        let problem = TuneProblem {
            nx: 8,
            ny: 8,
            nz: 700,
            pi: 2,
            pj: 2,
        };
        let backend = sim_backend(problem, 0.0, 1);
        let machine = MachineParams::paper_cluster();
        let out = tune(
            &problem,
            &machine,
            Schedule::Overlap,
            &backend,
            &Surrogate::ClosedForm,
            &TuneConfig::default(),
        )
        .unwrap();
        let cache = TunedCache::new(8);
        let req = PlanRequest::grid3(8, 8, 700, 2, 2);
        let entry = commit(&out, &req, &cache);
        assert_eq!(entry.v, out.incumbent.candidate.v);
        // Any spelling of the same workload finds the record.
        let got = cache.get(&tuned_key(&req.clone().with_v(13))).unwrap();
        assert_eq!(got, entry);
    }
}
