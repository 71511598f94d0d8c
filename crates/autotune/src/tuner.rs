//! The ladder search: `tune` is the argmin of the simulator over the
//! closed form's V ladder.
//!
//! The seed is the closed form's own pick (`V*` clamped, the problem's
//! shape). It is measured first and becomes the initial incumbent, so
//! the tuner never returns something worse than the analytic answer.
//! Every other rung of [`enumerate`] — each legal processor-grid shape
//! × that shape's [`v_ladder`](tiling_core::closed_form::ClosedForm::v_ladder)
//! — is then measured, and the minimum is kept. A rung the simulator
//! refuses is counted as infeasible, not fatal.

use crate::backend::SimBackend;
use crate::candidates::{closed_form_for, enumerate, Candidate, Schedule, TuneProblem};
use tiling_core::machine::MachineParams;

/// Where the seed comes from: the closed form's `V*` (eq. 7), the only
/// model the search starts from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Surrogate {
    /// The paper's closed form.
    #[default]
    ClosedForm,
}

/// Search-loop configuration. The ladder search has no knobs: every
/// rung is measured once on the deterministic simulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct TuneConfig;

/// One measured candidate.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    /// The coordinates measured.
    pub candidate: Candidate,
    /// Simulated makespan (µs).
    pub makespan_us: f64,
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
    /// Every candidate measured, in evaluation order (seed first).
    pub evaluated: Vec<Measured>,
    /// Candidates the simulator refused to run (e.g. a height too small
    /// to contain a dependence component).
    pub infeasible: usize,
    /// Size of the searched space: the ladder plus the seed.
    pub enumerated: usize,
}

impl TuneOutcome {
    /// Measured speedup of the incumbent over the closed-form seed
    /// (≥ 1 by construction).
    pub fn speedup(&self) -> f64 {
        self.seed.makespan_us / self.incumbent.makespan_us
    }
}

/// Run the search. `machine` is the model candidates are *predicted*
/// under (the backend measures under whatever it wraps). The seed
/// model and the configuration have a single value each.
pub fn tune(
    problem: &TuneProblem,
    machine: &MachineParams,
    schedule: Schedule,
    backend: &SimBackend,
    _: &Surrogate,
    _: &TuneConfig,
) -> Result<TuneOutcome, String> {
    let TuneProblem { nx, ny, nz, pi, pj } = *problem;
    if [nx, ny, nz, pi, pj].contains(&0) {
        return Err(format!(
            "zero extent or rank count in grid {nx}x{ny}x{nz} on {pi}x{pj}"
        ));
    }
    if !nx.is_multiple_of(pi) || !ny.is_multiple_of(pj) {
        return Err(format!(
            "grid {nx}x{ny} not divisible by processor grid {pi}x{pj}"
        ));
    }
    let measure = |c: &Candidate| -> Result<Measured, String> {
        let makespan_us = backend.measure_us(c)?;
        let predicted_us =
            closed_form_for(problem, machine, schedule, c.pi, c.pj).predict_us(c.v as f64);
        Ok(Measured {
            candidate: *c,
            makespan_us,
            predicted_us,
            pred_err_rel: (makespan_us - predicted_us) / predicted_us,
        })
    };

    // The seed: the closed form's answer on the problem's own shape. A
    // failing seed aborts the run.
    let seed_cf = closed_form_for(problem, machine, schedule, pi, pj);
    let seed_cand = Candidate {
        v: seed_cf.v_star_clamped(nz),
        pi,
        pj,
    };
    let seed = measure(&seed_cand)?;
    let rest: Vec<Candidate> = enumerate(problem, machine, schedule)
        .into_iter()
        .filter(|c| *c != seed_cand)
        .collect();
    let mut evaluated = vec![seed];
    let mut incumbent = seed;
    let mut infeasible = 0;
    for c in &rest {
        match measure(c) {
            Ok(m) => {
                if m.makespan_us < incumbent.makespan_us {
                    incumbent = m;
                }
                evaluated.push(m);
            }
            Err(_) => infeasible += 1,
        }
    }
    Ok(TuneOutcome {
        seed,
        incumbent,
        evaluated,
        infeasible,
        enumerated: rest.len() + 1,
    })
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
            &TuneConfig,
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
        assert_eq!(out.evaluated.len() + out.infeasible, out.enumerated);
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
            &TuneConfig,
        )
        .is_err());
    }

    #[test]
    fn rejects_zero_extents_and_rank_counts_before_computing() {
        let zeros = [
            TuneProblem {
                nx: 0,
                ny: 8,
                nz: 64,
                pi: 0,
                pj: 2,
            },
            TuneProblem {
                nx: 8,
                ny: 8,
                nz: 0,
                pi: 2,
                pj: 2,
            },
            TuneProblem {
                nx: 0,
                ny: 0,
                nz: 64,
                pi: 2,
                pj: 2,
            },
        ];
        let machine = MachineParams::paper_cluster();
        for problem in zeros {
            let backend = sim_backend(problem, 0.0, 1);
            let err = tune(
                &problem,
                &machine,
                Schedule::Overlap,
                &backend,
                &Surrogate::ClosedForm,
                &TuneConfig,
            )
            .expect_err("a zero extent or rank count is rejected");
            assert!(err.contains("zero"), "{err}");
        }
    }
}
