//! The sweep's configuration space: axes, seeded generation, and the
//! named slices that recover the paper's Figs. 9–12.
//!
//! Generation is a pure function of the sweep seed. Config `id`s are
//! assigned in generation order and every config carries its own derived
//! seed (for heterogeneous-fleet jitter), so the whole space — and
//! therefore the whole output — is reproducible from one `u64`.

use cluster_sim::builders::{BuildError, ClusterProblem};
use tiling_core::dependence::DependenceSet;
use tiling_core::machine::MachineParams;
use tiling_core::space::IterationSpace;
use tiling_core::tiling::Tiling;

/// SplitMix64 — the standard 64-bit mixer. Dependency-free, passes
/// BigCrush, and (crucially here) trivially reproducible: the sweep's
/// byte-identical re-run guarantee rests on this plus the simulator's
/// own determinism.
#[derive(Clone, Debug)]
pub struct Mix64 {
    state: u64,
}

impl Mix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Mix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform pick from a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick from empty slice");
        let i = (self.next_u64() % xs.len() as u64) as usize;
        &xs[i]
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "bad range");
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// Which calibrated machine the config simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachinePreset {
    /// The paper's Pentium-III / FastEthernet cluster (§5).
    Paper,
    /// Gigabit-class switched network, same CPUs.
    Gigabit,
    /// OS-bypass (Myrinet/SCI-class) interconnect.
    OsBypass,
}

impl MachinePreset {
    /// All presets, in CSV-stable order.
    pub const ALL: [MachinePreset; 3] = [
        MachinePreset::Paper,
        MachinePreset::Gigabit,
        MachinePreset::OsBypass,
    ];

    /// The machine parameters of this preset.
    pub fn params(self) -> MachineParams {
        match self {
            MachinePreset::Paper => MachineParams::paper_cluster(),
            MachinePreset::Gigabit => MachineParams::gigabit_cluster(),
            MachinePreset::OsBypass => MachineParams::os_bypass_cluster(),
        }
    }

    /// Stable display name (a CSV column value).
    pub fn name(self) -> &'static str {
        match self {
            MachinePreset::Paper => "paper",
            MachinePreset::Gigabit => "gigabit",
            MachinePreset::OsBypass => "os_bypass",
        }
    }
}

/// Which of the paper's two execution styles the config runs: `ProcB`
/// (blocking receive → compute → send, §3) or `ProcNB` (non-blocking,
/// communication under computation, §4).
pub use tiling_core::schedule::StepStrategy as Schedule;

/// One point of the configuration space — everything needed to build
/// and simulate it, and nothing that has to be recomputed to name it.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Position in generation order; CSV rows are sorted by it.
    pub id: usize,
    /// Named slice this config belongs to (`random`, `fig9`, …).
    pub slice: &'static str,
    /// Machine preset.
    pub preset: MachinePreset,
    /// Factor applied to every communication cost (1.0 = calibrated).
    pub comm_scale: f64,
    /// Install a measured-style piecewise transfer curve instead of the
    /// affine `bytes · t_t` wire model.
    pub measured_curve: bool,
    /// Spread of per-rank compute-speed jitter (0 = homogeneous).
    pub hetero_spread: f64,
    /// Processor grid over the two cross-section dimensions.
    pub grid: [i64; 2],
    /// Tile cross-section sides (one tile column per processor).
    pub cross_sides: [i64; 2],
    /// Iteration-space extents `[nx, ny, nz]`; dimension 2 is pipelined.
    /// `nx`/`ny` need not be divisible by the tile sides — boundary
    /// columns are clipped, exercising the paper's unstated divisibility
    /// assumption.
    pub extents: [i64; 3],
    /// Tile height along the pipelined dimension.
    pub v: i64,
    /// Execution style.
    pub schedule: Schedule,
    /// Full-duplex NIC/DMA lanes.
    pub duplex: bool,
    /// Shared-medium (hub) wire instead of a switched network.
    pub shared_bus: bool,
    /// Per-config seed (heterogeneous-fleet jitter derives from it).
    pub seed: u64,
}

impl SweepConfig {
    /// The paper-3-D problem of this point: its space tiled
    /// `cross_sides × v`, pipelined along dimension 2.
    pub fn problem(&self) -> Result<ClusterProblem, BuildError> {
        ClusterProblem::new(
            Tiling::rectangular(&[self.cross_sides[0], self.cross_sides[1], self.v]),
            DependenceSet::paper_3d(),
            IterationSpace::from_extents(&self.extents),
            2,
        )
    }
}

/// What to generate.
#[derive(Clone, Copy, Debug)]
pub struct SweepSpec {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Number of `random`-slice configs.
    pub random_configs: usize,
    /// Shrink iteration spaces (CI-sized problems, same axes).
    pub quick: bool,
    /// Append the `fig9`/`fig10`/`fig11` named slices.
    pub figures: bool,
}

impl SweepSpec {
    /// The CI profile: small spaces, figure slices on.
    pub fn quick(seed: u64) -> Self {
        SweepSpec {
            seed,
            random_configs: 480,
            quick: true,
            figures: true,
        }
    }

    /// The full profile: paper-sized spaces.
    pub fn full(seed: u64) -> Self {
        SweepSpec {
            seed,
            random_configs: 1500,
            quick: false,
            figures: true,
        }
    }
}

/// Generate the whole config list for a spec — a pure function of it.
pub fn generate(spec: &SweepSpec) -> Vec<SweepConfig> {
    let mut rng = Mix64::new(spec.seed);
    let mut out = Vec::with_capacity(spec.random_configs + 128);
    for _ in 0..spec.random_configs {
        let id = out.len();
        out.push(random_config(id, &mut rng, spec.quick));
    }
    if spec.figures {
        push_figure_slices(&mut out, spec.quick, spec.seed);
    }
    out
}

/// One random-slice config.
fn random_config(id: usize, rng: &mut Mix64, quick: bool) -> SweepConfig {
    let preset = *rng.pick(&[
        MachinePreset::Paper,
        MachinePreset::Paper,
        MachinePreset::Gigabit,
        MachinePreset::OsBypass,
    ]);
    let comm_scale = *rng.pick(&[0.25, 0.5, 1.0, 1.0, 2.0, 4.0]);
    let measured_curve = rng.unit() < 0.3;
    let hetero_spread = *rng.pick(&[0.0, 0.0, 0.0, 0.1, 0.25, 0.4]);
    let grid = *rng.pick(&[[1, 4], [2, 2], [2, 4], [4, 4]]);
    let side = *rng.pick(&[4i64, 8]);
    let cross_sides = [side, side];
    // Boundary axis: with probability ~1/4 per dimension, clip the
    // extent below grid·side so the last tile column is partial.
    let mut extents = [0i64; 3];
    for (d, e) in extents.iter_mut().take(2).enumerate() {
        let full = grid[d] * side;
        let clip = if rng.unit() < 0.25 {
            rng.range_i64(1, side - 1)
        } else {
            0
        };
        *e = full - clip;
    }
    extents[2] = if quick {
        *rng.pick(&[512i64, 1024, 2048])
    } else {
        *rng.pick(&[4096i64, 8192, 16384])
    };
    let v = (*rng.pick(&[8i64, 16, 32, 64, 128, 256])).min(extents[2]);
    let schedule = *rng.pick(&[Schedule::Blocking, Schedule::Overlap]);
    let duplex = rng.unit() < 0.5;
    let shared_bus = rng.unit() < 0.15;
    let seed = rng.next_u64();
    SweepConfig {
        id,
        slice: "random",
        preset,
        comm_scale,
        measured_curve,
        hetero_spread,
        grid,
        cross_sides,
        extents,
        v,
        schedule,
        duplex,
        shared_bus,
        seed,
    }
}

/// One of the paper's three §5 experiments: the space, the processor
/// grid (one tile column per processor) and what the paper measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Experiment {
    /// Display name ("i", "ii", "iii").
    pub name: &'static str,
    /// The figure it is plotted in: its sweep slice and `paper`
    /// subcommand ("fig9", "fig10", "fig11").
    pub figure: &'static str,
    /// Extent along i.
    pub nx: i64,
    /// Extent along j.
    pub ny: i64,
    /// Extent along k (pipelined).
    pub nz: i64,
    /// Processor-grid extent along i (pi × pj = 16 in the paper).
    pub pi: i64,
    /// Processor-grid extent along j.
    pub pj: i64,
    /// The paper's measured optimal tile height.
    pub paper_v_optimal: i64,
    /// The paper's measured optimal overlap completion time (s).
    pub paper_t_overlap_s: f64,
    /// The paper's measured optimal non-overlap completion time (s).
    pub paper_t_nonoverlap_s: f64,
    /// The paper's measured `T_fill_MPI_buffer` at `V_optimal` (ms).
    pub paper_fill_ms: f64,
}

impl Experiment {
    /// Tile cross-section along i (one tile column per processor).
    pub fn bx(&self) -> i64 {
        self.nx / self.pi
    }

    /// Tile cross-section along j.
    pub fn by(&self) -> i64 {
        self.ny / self.pj
    }

    /// Message payload bytes at tile height `v` (the larger face; both
    /// faces are equal when `bx == by`).
    pub fn message_bytes(&self, v: i64) -> f64 {
        (self.by().max(self.bx()) * v * 4) as f64
    }

    /// The experiment at tile height `v` under `schedule`, on the paper
    /// machine as the paper ran it: calibrated costs, homogeneous fleet,
    /// half-duplex, switched. Its slice is [`Experiment::figure`].
    pub fn config(&self, id: usize, v: i64, schedule: Schedule) -> SweepConfig {
        SweepConfig {
            id,
            slice: self.figure,
            preset: MachinePreset::Paper,
            comm_scale: 1.0,
            measured_curve: false,
            hetero_spread: 0.0,
            grid: [self.pi, self.pj],
            cross_sides: [self.bx(), self.by()],
            extents: [self.nx, self.ny, self.nz],
            v,
            schedule,
            duplex: false,
            shared_bus: false,
            seed: 0,
        }
    }
}

/// The three experiments of Figs. 9–11 and the Fig. 12 table, each on
/// a 4×4 processor grid over an `n × n × nz` space.
pub fn paper_experiments() -> [Experiment; 3] {
    // (name, figure, n, nz, then the paper's V_opt, and its t_overlap
    // (s), t_nonoverlap (s) and T_fill_MPI_buffer (ms) at V_opt)
    [
        ("i", "fig9", 16, 16384, 444, [0.233923, 0.376637, 0.627]),
        ("ii", "fig10", 16, 32768, 538, [0.467929, 0.694516, 0.745]),
        ("iii", "fig11", 32, 4096, 164, [0.219059, 0.324069, 0.37]),
    ]
    .map(
        |(name, figure, n, nz, paper_v_optimal, [t_ov, t_no, fill])| Experiment {
            name,
            figure,
            nx: n,
            ny: n,
            nz,
            pi: 4,
            pj: 4,
            paper_v_optimal,
            paper_t_overlap_s: t_ov,
            paper_t_nonoverlap_s: t_no,
            paper_fill_ms: fill,
        },
    )
}

/// The tile heights swept per figure: a geometric ladder over the
/// useful range plus the paper's measured optimum (clamped into range).
fn fig_heights(nz: i64, paper_v: i64) -> Vec<i64> {
    let mut hs = Vec::new();
    let mut v = 8;
    while v <= nz / 2 {
        hs.push(v);
        v *= 2;
    }
    let clamped = paper_v.min(nz);
    if !hs.contains(&clamped) {
        hs.push(clamped);
    }
    hs.sort_unstable();
    hs
}

/// Append the figure slices: both schedules at every ladder height, on
/// the paper machine exactly as the `paper fig9|fig10|fig11` commands
/// run it. `quick` divides the pipelined extent by 16, which keeps the
/// curve shape (the `K·α/V` vs `γ·β·V` trade-off) while making the
/// slice CI-sized.
fn push_figure_slices(out: &mut Vec<SweepConfig>, quick: bool, sweep_seed: u64) {
    let shrink = if quick { 16 } else { 1 };
    for exp in paper_experiments() {
        let exp = Experiment {
            nz: exp.nz / shrink,
            ..exp
        };
        for v in fig_heights(exp.nz, exp.paper_v_optimal) {
            for schedule in [Schedule::Blocking, Schedule::Overlap] {
                let id = out.len();
                out.push(SweepConfig {
                    seed: Mix64::new(sweep_seed ^ id as u64).next_u64(),
                    ..exp.config(id, v, schedule)
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = SweepSpec::quick(7);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn quick_spec_meets_ci_floor() {
        let n = generate(&SweepSpec::quick(0)).len();
        assert!(
            n >= 500,
            "quick sweep must cover at least 500 configs, got {n}"
        );
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let configs = generate(&SweepSpec::quick(3));
        for (i, c) in configs.iter().enumerate() {
            assert_eq!(c.id, i);
        }
    }

    #[test]
    fn figure_slices_cover_both_schedules_and_paper_optimum() {
        let configs = generate(&SweepSpec {
            seed: 0,
            random_configs: 0,
            quick: false,
            figures: true,
        });
        for slice in ["fig9", "fig10", "fig11"] {
            let rows: Vec<_> = configs.iter().filter(|c| c.slice == slice).collect();
            assert!(!rows.is_empty(), "{slice} missing");
            assert!(rows.iter().any(|c| c.schedule == Schedule::Blocking));
            assert!(rows.iter().any(|c| c.schedule == Schedule::Overlap));
        }
        // Full-size fig9 sweeps the paper's measured optimum itself.
        assert!(configs.iter().any(|c| c.slice == "fig9" && c.v == 444));
    }

    #[test]
    fn extents_stay_positive_and_v_in_range() {
        for c in generate(&SweepSpec::quick(11)) {
            assert!(c.extents.iter().all(|&e| e >= 1), "{c:?}");
            assert!(c.v >= 1 && c.v <= c.extents[2], "{c:?}");
            assert!(c.cross_sides.iter().all(|&s| s >= 1), "{c:?}");
        }
    }
}
