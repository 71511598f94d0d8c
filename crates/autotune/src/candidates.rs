//! Candidate enumeration: the search space the tuner measures.
//!
//! The space is seeded from the closed form (§6): for every legal
//! processor-grid factorization `pi × pj`, the heights are the
//! [`ClosedForm::v_ladder`] around that shape's own `V*` — a geometric
//! neighborhood plus the step-aligned heights that eliminate partial
//! last tiles. The seed candidate (the closed form's pick on the
//! problem's own shape) is always part of the space, so measured search
//! can only refine the analytic answer, never lose to it.

use tiling_core::closed_form::{optimal_v, ClosedForm};
use tiling_core::dependence::DependenceSet;
use tiling_core::machine::MachineParams;
use tiling_core::space::IterationSpace;

/// Blocking (§3) or overlapping (§4) schedule.
pub use tiling_core::schedule::StepStrategy as Schedule;

/// The workload being tuned: the paper's §5 3-D block layout, `pi × pj`
/// ranks over an `nx × ny × nz` space, pipelined along the third
/// dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneProblem {
    /// Global extent along i.
    pub nx: usize,
    /// Global extent along j.
    pub ny: usize,
    /// Global extent along k (the mapping dimension).
    pub nz: usize,
    /// Ranks along i (the shape the closed form was asked about).
    pub pi: usize,
    /// Ranks along j.
    pub pj: usize,
}

impl TuneProblem {
    /// Total rank count — preserved by every candidate shape.
    pub fn ranks(&self) -> usize {
        self.pi * self.pj
    }

    /// The iteration space.
    pub fn space(&self) -> IterationSpace {
        IterationSpace::from_extents(&[self.nx as i64, self.ny as i64, self.nz as i64])
    }
}

/// One point of the search space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Tile height along the mapping dimension.
    pub v: usize,
    /// Processor-grid side along i.
    pub pi: usize,
    /// Processor-grid side along j.
    pub pj: usize,
}

impl Candidate {
    /// Pipeline steps this candidate runs: `⌈nz / V⌉`.
    pub fn steps(&self, nz: usize) -> usize {
        nz.div_ceil(self.v.max(1)).max(1)
    }
}

/// The closed form for a given processor-grid shape of the problem.
pub fn closed_form_for(
    problem: &TuneProblem,
    machine: &MachineParams,
    schedule: Schedule,
    pi: usize,
    pj: usize,
) -> ClosedForm {
    let cross = [(problem.nx / pi) as i64, (problem.ny / pj) as i64];
    let space = problem.space();
    let deps = DependenceSet::paper_3d();
    optimal_v(schedule, &space, &deps, machine, &cross, 2)
}

/// Every factorization `pi × pj` of the problem's rank count whose
/// sides divide the grid (one tile column per processor, as in §5).
pub fn tile_shapes(problem: &TuneProblem) -> Vec<(usize, usize)> {
    let ranks = problem.ranks();
    (1..=ranks)
        .filter(|pi| ranks.is_multiple_of(*pi))
        .map(|pi| (pi, ranks / pi))
        .filter(|&(pi, pj)| problem.nx.is_multiple_of(pi) && problem.ny.is_multiple_of(pj))
        .collect()
}

/// Enumerate the full candidate space: shapes × each shape's V ladder.
/// Deterministic order (shapes by ascending `pi`, heights ascending).
pub fn enumerate(
    problem: &TuneProblem,
    machine: &MachineParams,
    schedule: Schedule,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    for (pi, pj) in tile_shapes(problem) {
        let cf = closed_form_for(problem, machine, schedule, pi, pj);
        out.extend(
            cf.v_ladder(problem.nz)
                .into_iter()
                .map(|v| Candidate { v, pi, pj }),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> TuneProblem {
        TuneProblem {
            nx: 16,
            ny: 16,
            nz: 16384,
            pi: 4,
            pj: 4,
        }
    }

    #[test]
    fn shapes_preserve_rank_count_and_divisibility() {
        let p = problem();
        let shapes = tile_shapes(&p);
        assert!(shapes.contains(&(4, 4)));
        assert!(shapes.contains(&(2, 8)));
        assert!(shapes.contains(&(16, 1)));
        for (pi, pj) in shapes {
            assert_eq!(pi * pj, 16);
            assert_eq!(p.nx % pi, 0);
            assert_eq!(p.ny % pj, 0);
        }
        // An indivisible grid drops the offending factorizations.
        let odd = TuneProblem {
            nx: 12,
            ny: 16,
            nz: 64,
            pi: 4,
            pj: 2,
        };
        assert!(!tile_shapes(&odd).contains(&(8, 1)));
        assert!(tile_shapes(&odd).contains(&(4, 2)));
    }

    #[test]
    fn enumeration_contains_the_closed_form_seed() {
        let p = problem();
        let machine = MachineParams::paper_cluster();
        let cf = closed_form_for(&p, &machine, Schedule::Overlap, p.pi, p.pj);
        let seed_v = cf.v_star_clamped(p.nz);
        let cands = enumerate(&p, &machine, Schedule::Overlap);
        assert!(cands
            .iter()
            .any(|c| c.v == seed_v && c.pi == p.pi && c.pj == p.pj));
        // Multiple shapes and multiple heights are explored.
        assert!(
            cands
                .iter()
                .map(|c| (c.pi, c.pj))
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 1
        );
        assert!(cands.len() > 10);
    }

    #[test]
    fn candidate_steps_round_up() {
        let c = Candidate {
            v: 100,
            pi: 2,
            pj: 2,
        };
        assert_eq!(c.steps(1000), 10);
        assert_eq!(c.steps(1001), 11);
        assert_eq!(c.steps(99), 1);
    }
}
