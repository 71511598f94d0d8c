//! Machine parameters of the target architecture (§2.6).
//!
//! All time quantities are in microseconds, the unit the paper reports.
//! Two kinds of parameters exist:
//!
//! * the classical three-parameter communication model — per-iteration
//!   compute time `t_c`, message startup `t_s`, per-byte transmission
//!   `t_t` — which drives the *non-overlapping* analysis (§3), and
//! * the buffer-fill decomposition of §4 — CPU-side MPI buffer fills
//!   (`A₁`, `A₃`) and kernel-side copies (`B₂`, `B₃`) — which drives the
//!   *overlapping* analysis. Those are affine functions of the message
//!   size; the paper measured them (no analytical formula exists, §6),
//!   so we carry an affine model calibrated to the paper's measurements.

/// Numerical tier of the compute kernels on this machine.
///
/// The paper's verification story depends on the distributed schedule
/// producing *exactly* the sequential result, so the default tier pins
/// every kernel to the sequential per-cell operation order bit for bit.
/// `Fast` relaxes that: kernels may reassociate the carry-free terms
/// and substitute cheaper equivalents on the recurrence's reachable
/// domain (e.g. `abs` for `max(·, 0)` on non-negative carries), trading
/// bitwise reproducibility for a shorter dependency chain. Fast-tier
/// output is epsilon-verified against the pinned tier, never assumed
/// identical.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum KernelTier {
    /// Bitwise-pinned: identical to the sequential reference walk.
    #[default]
    Bitwise,
    /// Fast math: reassociation allowed, ULP-bounded vs `Bitwise`.
    Fast,
}

/// An affine time model `base + per_byte · bytes`, in microseconds.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AffineCost {
    /// Fixed cost in µs.
    pub base_us: f64,
    /// Marginal cost per payload byte in µs.
    pub per_byte_us: f64,
}

impl AffineCost {
    /// A constant cost (no per-byte term).
    pub const fn constant(base_us: f64) -> Self {
        AffineCost {
            base_us,
            per_byte_us: 0.0,
        }
    }

    /// Evaluate the model for a message of `bytes` bytes.
    pub fn eval(&self, bytes: f64) -> f64 {
        self.base_us + self.per_byte_us * bytes
    }
}

/// Maximum number of knots in a [`PiecewiseCost`] curve.
///
/// Fixed so the curve stays `Copy` (and `MachineParams` with it):
/// measured transfer curves have a handful of protocol regimes (eager,
/// rendezvous, fragmentation), not dozens.
pub const MAX_COST_KNOTS: usize = 8;

/// Why a knot list cannot become a [`PiecewiseCost`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostCurveError {
    /// The curve needs at least one knot.
    Empty,
    /// More than [`MAX_COST_KNOTS`] knots.
    TooManyKnots(usize),
    /// A knot coordinate is NaN or infinite.
    NonFinite(usize),
    /// A byte coordinate or cost is negative.
    Negative(usize),
    /// Byte coordinates must be strictly increasing.
    NonIncreasingBytes(usize),
}

impl core::fmt::Display for CostCurveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CostCurveError::Empty => write!(f, "cost curve needs at least one knot"),
            CostCurveError::TooManyKnots(n) => {
                write!(f, "cost curve has {n} knots, max {MAX_COST_KNOTS}")
            }
            CostCurveError::NonFinite(i) => write!(f, "knot {i} is not finite"),
            CostCurveError::Negative(i) => write!(f, "knot {i} is negative"),
            CostCurveError::NonIncreasingBytes(i) => {
                write!(f, "knot {i} does not increase the byte coordinate")
            }
        }
    }
}

impl std::error::Error for CostCurveError {}

/// A measured-style piecewise-linear cost curve `bytes → µs`.
///
/// Kumar et al. ("Performance Models for Data Transfers") observe that
/// real transfer costs are not affine in the message size: protocol
/// switches (eager → rendezvous), fragmentation thresholds and cache
/// effects put kinks in the measured curve. This type carries up to
/// [`MAX_COST_KNOTS`] measured `(bytes, µs)` knots and interpolates:
///
/// * below the first knot the cost is the first knot's value,
/// * between knots it interpolates linearly (continuous at breakpoints
///   by construction),
/// * past the last knot it extrapolates with the last segment's slope.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PiecewiseCost {
    knots: [(f64, f64); MAX_COST_KNOTS],
    len: usize,
}

impl PiecewiseCost {
    /// Build a curve from measured `(bytes, µs)` knots.
    ///
    /// Bytes must be strictly increasing, everything finite and
    /// non-negative; at most [`MAX_COST_KNOTS`] knots.
    pub fn from_knots(knots: &[(f64, f64)]) -> Result<Self, CostCurveError> {
        if knots.is_empty() {
            return Err(CostCurveError::Empty);
        }
        if knots.len() > MAX_COST_KNOTS {
            return Err(CostCurveError::TooManyKnots(knots.len()));
        }
        let mut stored = [(0.0, 0.0); MAX_COST_KNOTS];
        for (i, &(b, us)) in knots.iter().enumerate() {
            if !b.is_finite() || !us.is_finite() {
                return Err(CostCurveError::NonFinite(i));
            }
            if b < 0.0 || us < 0.0 {
                return Err(CostCurveError::Negative(i));
            }
            if i > 0 && b <= stored[i - 1].0 {
                return Err(CostCurveError::NonIncreasingBytes(i));
            }
            stored[i] = (b, us);
        }
        Ok(PiecewiseCost {
            knots: stored,
            len: knots.len(),
        })
    }

    /// The measured knots.
    pub fn knots(&self) -> &[(f64, f64)] {
        &self.knots[..self.len]
    }

    /// Interpolated cost of a `bytes`-byte transfer, µs.
    pub fn eval(&self, bytes: f64) -> f64 {
        let k = self.knots();
        let (b0, us0) = k[0];
        if bytes <= b0 || k.len() == 1 {
            return us0;
        }
        for w in k.windows(2) {
            let (ba, ua) = w[0];
            let (bb, ub) = w[1];
            if bytes <= bb {
                return ua + (ub - ua) * (bytes - ba) / (bb - ba);
            }
        }
        // Past the last knot: continue the last segment's slope.
        let (ba, ua) = k[k.len() - 2];
        let (bb, ub) = k[k.len() - 1];
        let slope = (ub - ua) / (bb - ba);
        (ub + slope * (bytes - bb)).max(0.0)
    }

    /// Whether the curve never decreases as the message grows (true of
    /// any physically sensible transfer-cost measurement).
    pub fn is_monotone(&self) -> bool {
        self.knots().windows(2).all(|w| w[1].1 >= w[0].1)
    }

    /// The curve with every cost scaled by `factor` (bytes unchanged).
    pub fn scaled(&self, factor: f64) -> PiecewiseCost {
        let mut out = *self;
        for knot in out.knots[..out.len].iter_mut() {
            knot.1 *= factor;
        }
        out
    }
}

/// Why per-node speed factors are invalid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SpeedError {
    /// A factor is NaN or infinite.
    NonFinite {
        /// The offending rank.
        rank: usize,
        /// The offending factor.
        factor: f64,
    },
    /// A factor is zero or negative.
    NonPositive {
        /// The offending rank.
        rank: usize,
        /// The offending factor.
        factor: f64,
    },
}

impl core::fmt::Display for SpeedError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpeedError::NonFinite { rank, factor } => {
                write!(f, "rank {rank} speed factor {factor} is not finite")
            }
            SpeedError::NonPositive { rank, factor } => {
                write!(f, "rank {rank} speed factor {factor} is not positive")
            }
        }
    }
}

impl std::error::Error for SpeedError {}

/// Per-node relative compute speeds for a heterogeneous cluster.
///
/// The paper's testbed is 16 identical Pentium-IIIs; real clusters age
/// into mixed generations. A factor of `s` means the node computes `s`
/// times as fast as the [`MachineParams`] baseline — a tile that takes
/// `g·t_c` µs on the baseline takes `g·t_c / s` on that node. Ranks
/// beyond the recorded factors run at the baseline speed (factor 1).
#[derive(Clone, Debug, PartialEq)]
pub struct NodeSpeeds {
    factors: Vec<f64>,
}

impl NodeSpeeds {
    /// All `n` nodes at the baseline speed.
    pub fn uniform(n: usize) -> Self {
        NodeSpeeds {
            factors: vec![1.0; n],
        }
    }

    /// Validated explicit factors (finite, strictly positive).
    pub fn from_factors(factors: Vec<f64>) -> Result<Self, SpeedError> {
        for (rank, &factor) in factors.iter().enumerate() {
            if !factor.is_finite() {
                return Err(SpeedError::NonFinite { rank, factor });
            }
            if factor <= 0.0 {
                return Err(SpeedError::NonPositive { rank, factor });
            }
        }
        Ok(NodeSpeeds { factors })
    }

    /// Deterministic pseudo-random speeds in `[1-spread, 1+spread]`.
    ///
    /// Same `(n, seed, spread)` always yields the same fleet — the
    /// sweep's reproducibility depends on it. `spread` is clamped to
    /// `[0, 0.9]` so factors stay strictly positive.
    pub fn seeded(n: usize, seed: u64, spread: f64) -> Self {
        let spread = spread.clamp(0.0, 0.9);
        let mut state = seed;
        let factors = (0..n)
            .map(|_| {
                // SplitMix64: the standard 64-bit mixer, good enough for
                // jittered speed factors and dependency-free.
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
                1.0 - spread + 2.0 * spread * unit
            })
            .collect();
        NodeSpeeds { factors }
    }

    /// The speed factor of `rank` (baseline 1.0 beyond the fleet).
    pub fn factor(&self, rank: usize) -> f64 {
        self.factors.get(rank).copied().unwrap_or(1.0)
    }

    /// Number of nodes with recorded factors.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// Whether no factors are recorded.
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }
}

/// Parameters of the message-passing architecture.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MachineParams {
    /// Time for a single iteration-point computation, µs (`t_c`).
    pub t_c_us: f64,
    /// Communication startup latency, µs (`t_s`, a.k.a. `t_startup`).
    pub t_s_us: f64,
    /// Transmission time per byte, µs (`t_t`).
    pub t_t_us_per_byte: f64,
    /// Bytes per array element (`b`), e.g. 4 for `f32`.
    pub bytes_per_elem: u32,
    /// `T_fill_MPI_buffer` — CPU time to post a non-blocking send or
    /// receive (the `A₁`/`A₃` phases of §4).
    pub fill_mpi_buffer: AffineCost,
    /// `T_fill_kernel_buffer` — kernel-side copy between MPI buffer and
    /// kernel socket buffer (the `B₂`/`B₃` phases). Runs on the DMA/NIC
    /// lane, overlappable with computation.
    pub fill_kernel_buffer: AffineCost,
    /// Optional measured wire-transfer curve. When present it replaces
    /// the affine `bytes · t_t` wire model in [`MachineParams::transmit_us`]
    /// (the closed-form analysis keeps using `t_t`; the gap between the
    /// two is exactly what the sweep's predicted-vs-simulated error
    /// column measures).
    pub transfer_curve: Option<PiecewiseCost>,
}

impl MachineParams {
    /// Compute time of a tile of `g` iteration points: `T_comp = g·t_c`.
    pub fn tile_compute_us(&self, g: i64) -> f64 {
        g as f64 * self.t_c_us
    }

    /// Startup cost of one *blocking* send or receive of `bytes` bytes.
    ///
    /// The paper's §4/Example 3 assumption is
    /// `T_fill_MPI_buffer + T_fill_kernel_buffer = T_startup`: a blocking
    /// operation walks the whole user→kernel copy path on the CPU, so its
    /// startup is the sum of both fills (byte-dependent), of which `t_s`
    /// is the zero-byte base.
    pub fn startup_us(&self, bytes: f64) -> f64 {
        self.fill_mpi_buffer.eval(bytes) + self.fill_kernel_buffer.eval(bytes)
    }

    /// Wire transmission time of a `bytes`-byte message: the measured
    /// [`PiecewiseCost`] curve when one is installed, `bytes · t_t`
    /// otherwise.
    pub fn transmit_us(&self, bytes: f64) -> f64 {
        match &self.transfer_curve {
            Some(curve) => curve.eval(bytes),
            None => bytes * self.t_t_us_per_byte,
        }
    }

    /// This machine with a measured wire-transfer curve installed.
    pub fn with_transfer_curve(mut self, curve: PiecewiseCost) -> Self {
        self.transfer_curve = Some(curve);
        self
    }

    /// The architecture of Example 1 (§3): `t_c ≈ 1 µs`, `t_s = 100·t_c`,
    /// `t_t = 0.8·t_c` per byte (10 Mbps Ethernet), 4-byte floats.
    /// The §4 Example 3 assumption `T_fill_MPI = ½·t_s` and
    /// `T_fill_MPI + T_fill_kernel = T_startup` fixes the fill models.
    pub fn example_1() -> Self {
        let t_c = 1.0;
        let t_s = 100.0 * t_c;
        MachineParams {
            t_c_us: t_c,
            t_s_us: t_s,
            t_t_us_per_byte: 0.8 * t_c,
            bytes_per_elem: 4,
            fill_mpi_buffer: AffineCost::constant(0.5 * t_s),
            fill_kernel_buffer: AffineCost::constant(0.5 * t_s),
            transfer_curve: None,
        }
    }

    /// The paper's experimental cluster (§5): 16 Pentium-III 500 MHz
    /// nodes, Linux 2.2.14, MPICH over FastEthernet.
    ///
    /// * `t_c = 0.441 µs` — measured by the authors (1000 iterations of
    ///   the √-kernel on one node).
    /// * `t_t = 0.08 µs/byte` — 100 Mbps FastEthernet.
    /// * `t_s ≈ 104 µs` — the zero-byte base of the fill models below,
    ///   consistent with the §4 identity `t_s = fill_MPI + fill_kernel`
    ///   and with typical MPICH/P4 TCP startup on this hardware.
    /// * The MPI-buffer fill model is an affine fit through the paper's
    ///   two 4×4-cross-section measurements:
    ///   `T_fill(7104 B) = 627 µs`, `T_fill(8608 B) = 745 µs`
    ///   ⇒ `base = 69.6 µs`, `slope = 0.078457 µs/B`. The 8×8 experiment
    ///   iii measurement (370 µs @ 5248 B) deviates ~30% from this fit —
    ///   documented in EXPERIMENTS.md.
    /// * Kernel-buffer copies modeled at half the MPI-buffer slope
    ///   (single memcpy vs. user/kernel crossing).
    pub fn paper_cluster() -> Self {
        let slope = (745.0 - 627.0) / (8608.0 - 7104.0);
        let base = 627.0 - slope * 7104.0;
        MachineParams {
            t_c_us: 0.441,
            t_s_us: base * 1.5,
            t_t_us_per_byte: 0.08,
            bytes_per_elem: 4,
            fill_mpi_buffer: AffineCost {
                base_us: base,
                per_byte_us: slope,
            },
            fill_kernel_buffer: AffineCost {
                base_us: base / 2.0,
                per_byte_us: slope / 2.0,
            },
            transfer_curve: None,
        }
    }

    /// A paper-cluster-CPU machine on a gigabit-class switched network:
    /// ~10× the FastEthernet bandwidth, ~4× cheaper per-message software
    /// overhead (era-appropriate lighter TCP stacks / larger MTU).
    /// Synthetic, for sensitivity studies.
    pub fn gigabit_cluster() -> Self {
        let base = MachineParams::paper_cluster();
        MachineParams {
            t_t_us_per_byte: 0.008,
            t_s_us: base.t_s_us / 4.0,
            fill_mpi_buffer: AffineCost {
                base_us: base.fill_mpi_buffer.base_us / 4.0,
                per_byte_us: base.fill_mpi_buffer.per_byte_us / 4.0,
            },
            fill_kernel_buffer: AffineCost {
                base_us: base.fill_kernel_buffer.base_us / 4.0,
                per_byte_us: base.fill_kernel_buffer.per_byte_us / 4.0,
            },
            ..base
        }
    }

    /// A paper-cluster-CPU machine on an OS-bypass interconnect
    /// (Myrinet/SCI-class, the hardware the paper's §6 future work
    /// anticipates): microsecond-scale startup, no kernel buffer copies
    /// (true zero-copy DMA), ~1 Gbit/s. Synthetic, for sensitivity
    /// studies.
    pub fn os_bypass_cluster() -> Self {
        let base = MachineParams::paper_cluster();
        MachineParams {
            t_s_us: 8.0,
            t_t_us_per_byte: 0.008,
            fill_mpi_buffer: AffineCost {
                base_us: 5.0,
                per_byte_us: 0.002,
            },
            fill_kernel_buffer: AffineCost {
                base_us: 3.0,
                per_byte_us: 0.0,
            },
            ..base
        }
    }

    /// A copy of this machine with every communication cost (startup,
    /// per-byte transmission, both buffer-fill models) scaled by
    /// `factor`, computation unchanged. Used for sensitivity studies of
    /// the communication-to-computation ratio. A NaN, infinite or
    /// negative factor gives costs that are not durations, which the
    /// simulator rejects as a bad cost.
    pub fn scale_communication(&self, factor: f64) -> MachineParams {
        let scale = |c: AffineCost| AffineCost {
            base_us: c.base_us * factor,
            per_byte_us: c.per_byte_us * factor,
        };
        MachineParams {
            t_c_us: self.t_c_us,
            t_s_us: self.t_s_us * factor,
            t_t_us_per_byte: self.t_t_us_per_byte * factor,
            bytes_per_elem: self.bytes_per_elem,
            fill_mpi_buffer: scale(self.fill_mpi_buffer),
            fill_kernel_buffer: scale(self.fill_kernel_buffer),
            transfer_curve: self.transfer_curve.map(|c| c.scaled(factor)),
        }
    }

    /// A machine with free communication — useful as a degenerate case in
    /// tests (overlap and non-overlap should then differ only through the
    /// schedule length).
    pub fn free_communication(t_c_us: f64) -> Self {
        MachineParams {
            t_c_us,
            t_s_us: 0.0,
            t_t_us_per_byte: 0.0,
            bytes_per_elem: 4,
            fill_mpi_buffer: AffineCost::constant(0.0),
            fill_kernel_buffer: AffineCost::constant(0.0),
            transfer_curve: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_eval() {
        let c = AffineCost {
            base_us: 10.0,
            per_byte_us: 0.5,
        };
        assert_eq!(c.eval(0.0), 10.0);
        assert_eq!(c.eval(100.0), 60.0);
        assert_eq!(AffineCost::constant(7.0).eval(1e6), 7.0);
    }

    #[test]
    fn example_1_parameters() {
        let m = MachineParams::example_1();
        assert_eq!(m.t_s_us, 100.0);
        assert_eq!(m.fill_mpi_buffer.eval(1000.0), 50.0);
        // Fill MPI + fill kernel = startup (Example 3 assumption).
        assert_eq!(
            m.fill_mpi_buffer.eval(0.0) + m.fill_kernel_buffer.eval(0.0),
            m.t_s_us
        );
    }

    #[test]
    fn paper_cluster_reproduces_measured_fill_times() {
        let m = MachineParams::paper_cluster();
        assert!((m.fill_mpi_buffer.eval(7104.0) - 627.0).abs() < 0.5);
        assert!((m.fill_mpi_buffer.eval(8608.0) - 745.0).abs() < 0.5);
        assert!((m.t_c_us - 0.441).abs() < 1e-9);
    }

    #[test]
    fn tile_compute_scales_linearly() {
        let m = MachineParams::paper_cluster();
        assert!((m.tile_compute_us(7104) - 7104.0 * 0.441).abs() < 1e-9);
    }

    #[test]
    fn transmit_fastethernet() {
        let m = MachineParams::paper_cluster();
        // 7104 bytes at 0.08 µs/B ≈ 568 µs.
        assert!((m.transmit_us(7104.0) - 568.32).abs() < 1e-9);
    }

    #[test]
    fn scale_communication_scales_everything_but_compute() {
        let m = MachineParams::paper_cluster();
        let s = m.scale_communication(0.5);
        assert_eq!(s.t_c_us, m.t_c_us);
        assert_eq!(s.t_s_us, m.t_s_us * 0.5);
        assert_eq!(s.t_t_us_per_byte, m.t_t_us_per_byte * 0.5);
        assert_eq!(
            s.fill_mpi_buffer.eval(1000.0),
            m.fill_mpi_buffer.eval(1000.0) * 0.5
        );
        // Zero factor = free communication.
        let z = m.scale_communication(0.0);
        assert_eq!(z.startup_us(1e6), 0.0);
    }

    #[test]
    fn network_presets_order_sensibly() {
        let paper = MachineParams::paper_cluster();
        let gig = MachineParams::gigabit_cluster();
        let byp = MachineParams::os_bypass_cluster();
        // Same CPU, progressively cheaper communication.
        assert_eq!(gig.t_c_us, paper.t_c_us);
        assert_eq!(byp.t_c_us, paper.t_c_us);
        let msg = 7104.0;
        assert!(gig.startup_us(msg) < paper.startup_us(msg));
        assert!(byp.startup_us(msg) < gig.startup_us(msg));
        assert!(gig.transmit_us(msg) < paper.transmit_us(msg));
    }

    #[test]
    fn free_communication_is_free() {
        let m = MachineParams::free_communication(1.0);
        assert_eq!(m.transmit_us(1e9), 0.0);
        assert_eq!(m.fill_mpi_buffer.eval(1e9), 0.0);
        assert_eq!(m.t_s_us, 0.0);
    }
}
