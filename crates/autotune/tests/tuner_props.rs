//! Property: the tuner is the argmin of the simulator over the closed
//! form's ladder — its incumbent is no worse than the closed-form seed
//! nor than any rung the simulator accepts, and every enumerated
//! candidate is either measured or infeasible — across pipeline depths
//! (partial-tile remainders included), heterogeneity spreads/seeds and
//! both schedules.

use autotune::{enumerate, tune, Schedule, SimBackend, Surrogate, TuneConfig, TuneProblem};
use proptest::prelude::*;
use tiling_core::machine::MachineParams;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incumbent_never_worse_than_seed(
        nz in 64usize..1200,
        seed in 0u64..64,
        spread_pct in 0usize..4,
        overlap in proptest::bool::ANY,
    ) {
        let problem = TuneProblem { nx: 8, ny: 8, nz, pi: 2, pj: 2 };
        let schedule = if overlap { Schedule::Overlap } else { Schedule::Blocking };
        let backend = SimBackend {
            problem,
            machine: MachineParams::paper_cluster(),
            schedule,
            duplex: true,
            shared_bus: false,
            hetero_seed: seed,
            hetero_spread: spread_pct as f64 * 0.15,
        };
        let machine = MachineParams::paper_cluster();
        let out = tune(&problem, &machine, schedule, &backend, &Surrogate::ClosedForm, &TuneConfig)
            .unwrap();
        prop_assert!(out.incumbent.makespan_us <= out.seed.makespan_us,
            "incumbent {} worse than seed {}", out.incumbent.makespan_us, out.seed.makespan_us);
        prop_assert!(out.speedup() >= 1.0);
        // The incumbent is the minimum of everything measured.
        let min = out.evaluated.iter().map(|m| m.makespan_us).fold(f64::INFINITY, f64::min);
        prop_assert_eq!(out.incumbent.makespan_us, min);
        // The seed is always the first evaluation.
        prop_assert_eq!(out.evaluated[0].candidate, out.seed.candidate);
        // Every rung the simulator accepts was searched.
        for c in enumerate(&problem, &machine, schedule) {
            if let Ok(us) = backend.measure_us(&c) {
                prop_assert!(out.incumbent.makespan_us <= us,
                    "incumbent {} worse than rung {:?} at {}", out.incumbent.makespan_us, c, us);
            }
        }
        // Bookkeeping adds up: everything enumerated was measured or
        // infeasible.
        prop_assert_eq!(out.evaluated.len() + out.infeasible, out.enumerated);
    }
}
