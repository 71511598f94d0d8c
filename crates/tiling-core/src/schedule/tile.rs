//! The tile schedule of §3 and §4: one linear schedule over the tiled
//! space, a processor mapping along dimension `i`, and a
//! [`StepStrategy`] that decides everything the paper's two schedules
//! differ in. Tile `j^S` runs at
//!
//! ```text
//! t(j^S) = c·Σ_{k≠i} j_k^S + j_i^S,
//! ```
//!
//! a dependence edge needs `Δt ≥ 1` on one processor (a memory
//! hand-off) and `Δt ≥ c` across processors, and a step costs:
//!
//! * [`StepStrategy::Blocking`] (§3, Hodzic–Shang): `c = 1`, every step
//!   a serialized *receive → compute → send* triplet,
//!   `step = A + B = (T_comp + T_startup) + T_transmit` (eq. 3);
//! * [`StepStrategy::Overlap`] (§4): `c = 2` — a cross-processor face
//!   spends one step in flight — and each step computes a tile while the
//!   previous step's faces leave and the next step's arrive, `step =
//!   max(A₁+A₂+A₃, B₁+B₂+B₃+B₄)` (eq. 4).
//!
//! Either way `T = P(g)·step`, `P(g)` the number of time hyperplanes.
//!
//! Reference \[1\] of the paper (Andronikos, Koziris, Papakonstantinou,
//! Tsanakas, *JPDC* 1999) proves both schedules optimal on `n`-D grid
//! graphs: `Σ j_k` with free communication (UET), and `2·Σ_{k≠i} j_k +
//! j_i` with unit, overlappable communication (UET-UCT), mapped along
//! the longest dimension `i` — [`TileSchedule::new`]'s choice. §4 picks
//! the tile grain that puts the tiled program in the UET-UCT regime.

use super::{nonoverlap, overlap, OverlapMode};
use crate::dependence::{Dependence, DependenceSet};
use crate::machine::MachineParams;
use crate::mapping::{neighbor_messages, total_message_volume, NeighborMessage, ProcessorMapping};
use crate::space::IterationSpace;
use crate::tiling::Tiling;

/// Which of the paper's two schedules a tile pipeline follows; it sets
/// `Π`'s cross-processor coefficient, the lag of a dependence edge and
/// the price of a step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepStrategy {
    /// Serialized receive → compute → send (the non-overlapping
    /// schedule of §3, eq. 3).
    Blocking,
    /// Pipelined Irecv(k+1) / Isend(k−1) / compute(k) / waits (the
    /// overlapping schedule of §4, eq. 4).
    Overlap,
}

impl StepStrategy {
    /// Stable display name (a CSV column value).
    pub fn name(self) -> &'static str {
        match self {
            StepStrategy::Blocking => "blocking",
            StepStrategy::Overlap => "overlap",
        }
    }

    /// `Π`'s coefficient on every cross-processor tile coordinate: 1
    /// (`Π = [1 … 1]`) or 2 (`2·Σ_{k≠i} j_k + j_i`).
    pub fn cross_coeff(self) -> i64 {
        match self {
            StepStrategy::Blocking => 1,
            StepStrategy::Overlap => 2,
        }
    }

    /// The least `Δt` a dependence edge needs: 1 on one processor, the
    /// cross coefficient when the edge `crosses` processors.
    pub fn lag(self, crosses: bool) -> i64 {
        if crosses {
            self.cross_coeff()
        } else {
            1
        }
    }

    /// The price of a step from its two lanes: `A + B` (eq. 3) or
    /// `max(A, B)` (eq. 4).
    pub fn step_us(self, a_us: f64, b_us: f64) -> f64 {
        match self {
            StepStrategy::Blocking => a_us + b_us,
            StepStrategy::Overlap => a_us.max(b_us),
        }
    }

    fn lanes(
        self,
        machine: &MachineParams,
        msgs: &[NeighborMessage],
        a2: f64,
        mode: OverlapMode,
    ) -> Lanes {
        match self {
            StepStrategy::Blocking => nonoverlap::lanes(machine, msgs, a2),
            StepStrategy::Overlap => overlap::lanes(machine, msgs, a2, mode),
        }
    }

    /// One message's share `(α, β)` of the closed form's pacing-lane
    /// cost `α + β·V`, for a message of `b0 + b1·V` bytes: the whole
    /// step under Blocking, the CPU lane under Overlap (eq. 5, case 1).
    pub(crate) fn message_terms(self, machine: &MachineParams, b0: f64, b1: f64) -> (f64, f64) {
        match self {
            StepStrategy::Blocking => nonoverlap::message_terms(machine, b0, b1),
            StepStrategy::Overlap => overlap::message_terms(machine, b0, b1),
        }
    }
}

/// One step's lanes (µs): the CPU's `A = A₁ + A₂ + A₃` and the
/// communication lane `B`. `A₂ = T_comp` comes from the caller.
pub(super) struct Lanes {
    pub a1: f64,
    pub a3: f64,
    pub a: f64,
    pub b: f64,
}

/// A tile schedule: the strategy plus a processor mapping.
#[derive(Clone, Debug)]
pub struct TileSchedule {
    strategy: StepStrategy,
    mapping: ProcessorMapping,
}

impl TileSchedule {
    /// The schedule of a tiled space, mapping along its longest
    /// dimension (the paper's choice).
    pub fn new(strategy: StepStrategy, tiled_space: &IterationSpace) -> Self {
        TileSchedule {
            strategy,
            mapping: ProcessorMapping::by_longest_dimension(tiled_space),
        }
    }

    /// The schedule with an explicit mapping dimension.
    pub fn with_mapping(strategy: StepStrategy, dims: usize, mapping_dim: usize) -> Self {
        TileSchedule {
            strategy,
            mapping: ProcessorMapping::along(dims, mapping_dim),
        }
    }

    /// The processor mapping.
    pub fn mapping(&self) -> &ProcessorMapping {
        &self.mapping
    }

    /// The schedule vector: 1 along the mapping dimension, the cross
    /// coefficient elsewhere.
    pub fn pi(&self) -> Vec<i64> {
        (0..self.mapping.dims())
            .map(|d| {
                if d == self.mapping.mapping_dim() {
                    1
                } else {
                    self.strategy.cross_coeff()
                }
            })
            .collect()
    }

    /// Execution step of a tile, normalized so the first tile runs at 0.
    pub fn time_of(&self, tile: &[i64], tiled_space: &IterationSpace) -> i64 {
        assert_eq!(tile.len(), self.mapping.dims(), "tile arity mismatch");
        let pi = self.pi();
        (0..tile.len())
            .map(|d| pi[d] * (tile[d] - tiled_space.lower()[d]))
            .sum()
    }

    /// Number of time hyperplanes:
    /// `P(g) = c·Σ_{k≠i}(u_k − l_k) + (u_i − l_i) + 1`.
    pub fn schedule_length(&self, tiled_space: &IterationSpace) -> i64 {
        let pi = self.pi();
        let sum: i64 = (0..tiled_space.dims())
            .map(|d| pi[d] * (tiled_space.extent(d) - 1))
            .sum();
        sum + 1
    }

    /// The least `Δt` the tile dependence `d` needs: whether it crosses
    /// processors is read off its projection under the mapping.
    pub fn lag(&self, d: &[i64]) -> i64 {
        let crosses = self.mapping.processor_of(d).iter().any(|&x| x != 0);
        self.strategy.lag(crosses)
    }

    /// The first tile dependence that advances `Π·d` less than its
    /// [lag](Self::lag), with that `Π·d`; `None` when every dependence
    /// is ordered. Pre-flight's legality verdict (`analyzer`).
    pub fn first_violation<'a>(
        &self,
        tile_deps: &'a DependenceSet,
    ) -> Option<(&'a Dependence, i64)> {
        let pi = self.pi();
        tile_deps
            .iter()
            .map(|d| (d, d.dot(&pi)))
            .find(|(d, dot)| *dot < self.lag(d.components()))
    }

    /// Validity against a tile dependence set: every dependence
    /// advances `Π·d ≥` its [lag](Self::lag).
    pub fn is_valid_for(&self, tile_deps: &DependenceSet) -> bool {
        self.first_violation(tile_deps).is_none()
    }

    /// Full cost analysis per eq. 3 or eq. 4/5. `mode` sets how the B
    /// lane's phases combine under Overlap (Fig. 3); a blocking step
    /// runs its phases one after another whatever the mode.
    pub fn analyze(
        &self,
        tiling: &Tiling,
        deps: &DependenceSet,
        space: &IterationSpace,
        machine: &MachineParams,
        mode: OverlapMode,
    ) -> ScheduleReport {
        let tiled_space = tiling.tiled_space(space);
        let schedule_length = self.schedule_length(&tiled_space);
        let msgs = neighbor_messages(tiling, deps, &self.mapping);
        let g = tiling.volume();
        let a2 = machine.tile_compute_us(g);
        let lanes = self.strategy.lanes(machine, &msgs, a2, mode);
        let step_us = self.strategy.step_us(lanes.a, lanes.b);
        ScheduleReport {
            tiled_space,
            mapping_dim: self.mapping.mapping_dim(),
            schedule_length,
            g,
            v_comm_points: total_message_volume(&msgs),
            neighbor_count: msgs.len(),
            a1_us: lanes.a1,
            a2_us: a2,
            a3_us: lanes.a3,
            a_us: lanes.a,
            b_us: lanes.b,
            step_us,
            total_us: schedule_length as f64 * step_us,
        }
    }
}

/// Breakdown of a schedule's execution-time prediction.
#[derive(Clone, Debug)]
pub struct ScheduleReport {
    /// The tiled space `J^S`.
    pub tiled_space: IterationSpace,
    /// Processor-mapping dimension `i`.
    pub mapping_dim: usize,
    /// Number of time hyperplanes `P(g)`.
    pub schedule_length: i64,
    /// Tile volume `g`.
    pub g: i64,
    /// Cross-processor communication volume per tile (points).
    pub v_comm_points: i64,
    /// Number of neighboring processors each tile talks to.
    pub neighbor_count: usize,
    /// `A₁`: the CPU's cost of a step's sends (µs) — a blocking
    /// startup or an Isend posting per message.
    pub a1_us: f64,
    /// `A₂ = T_comp = g·t_c` (µs).
    pub a2_us: f64,
    /// `A₃`: the CPU's cost of a step's receives (µs).
    pub a3_us: f64,
    /// CPU lane `A` (µs): `T_comp + T_startup` with `T_startup = A₁ +
    /// A₃` (eq. 3), or `A₁ + A₂ + A₃` (eq. 4).
    pub a_us: f64,
    /// Communication lane `B` (µs): `T_transmit` (eq. 3), or
    /// `B₁+B₂+B₃+B₄` combined by [`OverlapMode`] (eq. 4).
    pub b_us: f64,
    /// Per-step cost (µs): `A + B` or `max(A, B)`.
    pub step_us: f64,
    /// Total `T = P(g)·step` (µs).
    pub total_us: f64,
}

impl ScheduleReport {
    /// True iff the CPU lane paces an overlapped pipeline (case 1 of §4).
    pub fn is_cpu_bound(&self) -> bool {
        self.a_us >= self.b_us
    }

    /// Total time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_us * 1e-6
    }
}
