//! Plan requests: the typed, hashable *input* of plan compilation.
//!
//! A [`PlanRequest`] names everything a compiled plan depends on — the
//! workload (a shipped grid shape or a loop-nest source text), the
//! kernel, the machine model, the tile height choice, the schedule
//! mode, and the transport/tier the plan will execute on. Two requests
//! with the same [`PlanKey`](crate::cache::PlanKey) compile to
//! equivalent artifacts, which is what makes the compiled-plan cache
//! sound.

use msgpass::transport::TransportKind;
use stencil::engine::ExecMode;
use tiling_core::machine::{KernelTier, MachineParams};

/// What to compile: a shipped decomposition shape or loop-nest source.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// The paper's §5 3-D block layout: `pi × pj` ranks, each owning a
    /// `nx/pi × ny/pj × nz` block, pipelined along `i₃`.
    Grid3D {
        /// Global extent along i.
        nx: usize,
        /// Global extent along j.
        ny: usize,
        /// Global extent along k (the mapping dimension).
        nz: usize,
        /// Ranks along i.
        pi: usize,
        /// Ranks along j.
        pj: usize,
    },
    /// The §3 Example 1 2-D strip layout: `ranks` j-strips, pipelined
    /// along `i₁`.
    Strip2D {
        /// Global extent along i (the pipelined dimension).
        nx: usize,
        /// Global extent along j (partitioned across ranks).
        ny: usize,
        /// Number of ranks (j-strips).
        ranks: usize,
    },
    /// Loop-nest source text in the paper's FOR/ENDFOR grammar. The
    /// front stage parses it, extracts the flow dependences, and maps
    /// the nest onto the matching executor family (2-D strips or the
    /// 3-D block layout). `procs` is the processor arrangement over the
    /// non-mapping dimensions: `[ranks]` for a 2-D nest, `[pi, pj]` for
    /// a 3-D nest.
    Source {
        /// The loop-nest program text.
        text: String,
        /// Processor counts over the non-mapping dimensions.
        procs: Vec<usize>,
    },
}

impl WorkloadSpec {
    /// Short tag used in cache keys and logs.
    pub fn tag(&self) -> &'static str {
        match self {
            WorkloadSpec::Grid3D { .. } => "grid3",
            WorkloadSpec::Strip2D { .. } => "strip2",
            WorkloadSpec::Source { .. } => "src",
        }
    }
}

/// The compute kernel a plan executes. Only parameter-free kernels are
/// compilable (the request must be fully canonicalizable into a key).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelName {
    /// The paper's √-recurrence (3-D).
    Paper3D,
    /// Damped smoothing (3-D).
    Relax3D,
    /// FMA smoothing (3-D).
    Fused3D,
    /// Max-plus lattice paths (3-D).
    LongestPath3D,
    /// The §3 Example 1 sum (2-D).
    Example1,
    /// Axis-dependence Gauss–Seidel sweep (2-D).
    Smooth2D,
}

impl KernelName {
    /// The loop depth the kernel computes over.
    pub fn dims(self) -> usize {
        match self {
            KernelName::Paper3D
            | KernelName::Relax3D
            | KernelName::Fused3D
            | KernelName::LongestPath3D => 3,
            KernelName::Example1 | KernelName::Smooth2D => 2,
        }
    }

    /// Canonical name (cache keys, wire protocol, logs).
    pub fn name(self) -> &'static str {
        match self {
            KernelName::Paper3D => "paper3d",
            KernelName::Relax3D => "relax3d",
            KernelName::Fused3D => "fused3d",
            KernelName::LongestPath3D => "longestpath3d",
            KernelName::Example1 => "example1",
            KernelName::Smooth2D => "smooth2d",
        }
    }

    /// Parse a canonical name.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "paper3d" => KernelName::Paper3D,
            "relax3d" => KernelName::Relax3D,
            "fused3d" => KernelName::Fused3D,
            "longestpath3d" => KernelName::LongestPath3D,
            "example1" => KernelName::Example1,
            "smooth2d" => KernelName::Smooth2D,
            _ => return None,
        })
    }
}

/// The machine model compilation optimizes against — a named preset or
/// explicit parameters. The model is a first-class key component: the
/// same nest on a different machine is a different plan.
// LINT: `Custom` holds `MachineParams` inline (now large after growing an
// optional transfer curve) because the spec must stay `Copy` for bit-exact
// keying.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MachineSpec {
    /// `MachineParams::example_1()` (§3, 10 Mbps Ethernet).
    Example1,
    /// `MachineParams::paper_cluster()` (§5, FastEthernet).
    Paper,
    /// `MachineParams::gigabit_cluster()`.
    Gigabit,
    /// `MachineParams::os_bypass_cluster()`.
    OsBypass,
    /// Explicit parameters (canonicalized bit-exactly into the key).
    Custom(MachineParams),
}

impl MachineSpec {
    /// Resolve to concrete parameters.
    pub fn params(&self) -> MachineParams {
        match self {
            MachineSpec::Example1 => MachineParams::example_1(),
            MachineSpec::Paper => MachineParams::paper_cluster(),
            MachineSpec::Gigabit => MachineParams::gigabit_cluster(),
            MachineSpec::OsBypass => MachineParams::os_bypass_cluster(),
            MachineSpec::Custom(p) => *p,
        }
    }

    /// Canonical name (presets) for keys and the wire protocol.
    pub fn name(&self) -> &'static str {
        match self {
            MachineSpec::Example1 => "example1",
            MachineSpec::Paper => "paper",
            MachineSpec::Gigabit => "gigabit",
            MachineSpec::OsBypass => "os-bypass",
            MachineSpec::Custom(_) => "custom",
        }
    }

    /// Parse a preset name.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "example1" => MachineSpec::Example1,
            "paper" => MachineSpec::Paper,
            "gigabit" => MachineSpec::Gigabit,
            "os-bypass" => MachineSpec::OsBypass,
            _ => return None,
        })
    }
}

/// Tile height selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VChoice {
    /// Use this exact height.
    Explicit(usize),
    /// Derive `V*` from the closed-form optimum for the request's
    /// machine and schedule mode (§6), clamped to the mapping extent.
    Auto,
}

/// Everything a compiled plan depends on. See the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanRequest {
    /// The workload to compile.
    pub workload: WorkloadSpec,
    /// The kernel the plan will run.
    pub kernel: KernelName,
    /// The machine model to optimize against.
    pub machine: MachineSpec,
    /// Tile height selection.
    pub v: VChoice,
    /// Blocking (§3) or overlapping (§4) schedule.
    pub mode: ExecMode,
    /// Wire implementation the plan executes on.
    pub transport: TransportKind,
    /// Numerical tier of the compute kernels.
    pub tier: KernelTier,
    /// Boundary value of the grid.
    pub boundary: f32,
}

impl PlanRequest {
    /// A 3-D grid request with the shipped defaults: paper machine,
    /// auto `V`, overlapping schedule, shared-slot transport, bitwise
    /// tier, boundary 1.
    pub fn grid3(nx: usize, ny: usize, nz: usize, pi: usize, pj: usize) -> Self {
        PlanRequest {
            workload: WorkloadSpec::Grid3D { nx, ny, nz, pi, pj },
            kernel: KernelName::Paper3D,
            machine: MachineSpec::Paper,
            v: VChoice::Auto,
            mode: ExecMode::Overlapping,
            transport: TransportKind::shared_slots(),
            tier: KernelTier::Bitwise,
            boundary: 1.0,
        }
    }

    /// A 2-D strip request with the shipped defaults: Example 1 kernel
    /// and machine, auto `V`, overlapping schedule.
    pub fn strip2(nx: usize, ny: usize, ranks: usize) -> Self {
        PlanRequest {
            workload: WorkloadSpec::Strip2D { nx, ny, ranks },
            kernel: KernelName::Example1,
            machine: MachineSpec::Example1,
            v: VChoice::Auto,
            mode: ExecMode::Overlapping,
            transport: TransportKind::shared_slots(),
            tier: KernelTier::Bitwise,
            boundary: 1.0,
        }
    }

    /// A source-text request (defaults as [`PlanRequest::grid3`]; the
    /// kernel must be set to match the nest's depth).
    pub fn source(text: impl Into<String>, procs: Vec<usize>) -> Self {
        PlanRequest {
            workload: WorkloadSpec::Source {
                text: text.into(),
                procs,
            },
            ..PlanRequest::grid3(0, 0, 0, 0, 0)
        }
    }

    /// With an explicit tile height.
    pub fn with_v(mut self, v: usize) -> Self {
        self.v = VChoice::Explicit(v);
        self
    }

    /// With a schedule mode.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// With a kernel.
    pub fn with_kernel(mut self, kernel: KernelName) -> Self {
        self.kernel = kernel;
        self
    }

    /// With a machine model.
    pub fn with_machine(mut self, machine: MachineSpec) -> Self {
        self.machine = machine;
        self
    }

    /// With a transport.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// With a kernel tier.
    pub fn with_tier(mut self, tier: KernelTier) -> Self {
        self.tier = tier;
        self
    }

    /// With a boundary value.
    pub fn with_boundary(mut self, boundary: f32) -> Self {
        self.boundary = boundary;
        self
    }

    /// Parse a request from the service wire format: space-separated
    /// `key=value` pairs. Values may be double-quoted; inside quotes,
    /// `\n`, `\"` and `\\` escapes are decoded (how a one-line protocol
    /// carries multi-line loop-nest source).
    ///
    /// Keys: `workload` (`grid3`|`strip2`|`src`), `nx` `ny` `nz` `pi`
    /// `pj` `ranks` `procs` (comma-separated), `src` (source text),
    /// `kernel`, `machine`, `v` (int or `auto`), `mode`
    /// (`blocking`|`overlap`), `transport` (`mpsc`|`shared-slots`),
    /// `tier` (`bitwise`|`fast`), `boundary`. Other keys are ignored.
    pub fn parse_kv(line: &str) -> Result<Self, String> {
        let kvs = split_kv(line)?;
        let get = |k: &str| {
            kvs.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_str())
        };
        let int = |k: &str| -> Result<Option<usize>, String> {
            get(k)
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| format!("bad integer for {k}: {v}"))
                })
                .transpose()
        };
        let need_int = |k: &str| int(k)?.ok_or_else(|| format!("missing {k}"));

        let workload = match get("workload").ok_or("missing workload")? {
            "grid3" => WorkloadSpec::Grid3D {
                nx: need_int("nx")?,
                ny: need_int("ny")?,
                nz: need_int("nz")?,
                pi: need_int("pi")?,
                pj: need_int("pj")?,
            },
            "strip2" => WorkloadSpec::Strip2D {
                nx: need_int("nx")?,
                ny: need_int("ny")?,
                ranks: need_int("ranks")?,
            },
            "src" => {
                let text = get("src").ok_or("missing src")?.to_string();
                let procs = get("procs")
                    .ok_or("missing procs")?
                    .split(',')
                    .map(|p| {
                        p.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("bad procs entry: {p}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                WorkloadSpec::Source { text, procs }
            }
            other => return Err(format!("unknown workload: {other}")),
        };
        let kernel = match get("kernel") {
            Some(k) => KernelName::from_name(k).ok_or_else(|| format!("unknown kernel: {k}"))?,
            None => match &workload {
                WorkloadSpec::Strip2D { .. } => KernelName::Example1,
                _ => KernelName::Paper3D,
            },
        };
        let machine = match get("machine") {
            Some(m) => MachineSpec::from_name(m).ok_or_else(|| format!("unknown machine: {m}"))?,
            None => MachineSpec::Paper,
        };
        let v = match get("v") {
            None | Some("auto") => VChoice::Auto,
            Some(s) => VChoice::Explicit(s.parse().map_err(|_| format!("bad v: {s}"))?),
        };
        let mode = match get("mode") {
            None | Some("overlap") => ExecMode::Overlapping,
            Some("blocking") => ExecMode::Blocking,
            Some(m) => return Err(format!("unknown mode: {m}")),
        };
        let transport = match get("transport") {
            None | Some("shared-slots") => TransportKind::shared_slots(),
            Some("mpsc") => TransportKind::Mpsc,
            Some(t) => return Err(format!("unknown transport: {t}")),
        };
        let tier = match get("tier") {
            None | Some("bitwise") => KernelTier::Bitwise,
            Some("fast") => KernelTier::Fast,
            Some(t) => return Err(format!("unknown tier: {t}")),
        };
        let boundary = match get("boundary") {
            None => 1.0,
            Some(b) => b.parse().map_err(|_| format!("bad boundary: {b}"))?,
        };
        Ok(PlanRequest {
            workload,
            kernel,
            machine,
            v,
            mode,
            transport,
            tier,
            boundary,
        })
    }
}

/// Split a wire line into `(key, value)` pairs, honoring quotes.
fn split_kv(line: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut chars = line.trim().chars().peekable();
    while chars.peek().is_some() {
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return Err("empty key".into());
        }
        let mut val = String::new();
        if chars.peek() == Some(&'"') {
            chars.next();
            loop {
                match chars.next() {
                    Some('"') => break,
                    Some('\\') => match chars.next() {
                        Some('n') => val.push('\n'),
                        Some('"') => val.push('"'),
                        Some('\\') => val.push('\\'),
                        other => return Err(format!("bad escape: \\{other:?}")),
                    },
                    Some(c) => val.push(c),
                    None => return Err(format!("unterminated quote in value of {key}")),
                }
            }
        } else {
            while let Some(&c) = chars.peek() {
                if c.is_whitespace() {
                    break;
                }
                val.push(c);
                chars.next();
            }
        }
        out.push((key, val));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_grid3_line() {
        let r = PlanRequest::parse_kv(
            "workload=grid3 nx=8 ny=8 nz=256 pi=2 pj=2 v=64 mode=blocking transport=mpsc tier=fast boundary=2.5",
        )
        .unwrap();
        assert_eq!(
            r.workload,
            WorkloadSpec::Grid3D {
                nx: 8,
                ny: 8,
                nz: 256,
                pi: 2,
                pj: 2
            }
        );
        assert_eq!(r.v, VChoice::Explicit(64));
        assert_eq!(r.mode, ExecMode::Blocking);
        assert_eq!(r.transport, TransportKind::Mpsc);
        assert_eq!(r.tier, KernelTier::Fast);
        assert_eq!(r.boundary, 2.5);
    }

    #[test]
    fn parse_source_line_with_escapes() {
        let r = PlanRequest::parse_kv(
            r#"workload=src procs=2,2 src="FOR i = 1 TO 4 DO\nENDFOR" kernel=paper3d"#,
        )
        .unwrap();
        match &r.workload {
            WorkloadSpec::Source { text, procs } => {
                assert!(text.contains('\n'));
                assert_eq!(procs, &[2, 2]);
            }
            w => panic!("wrong workload: {w:?}"),
        }
    }

    #[test]
    fn parse_defaults() {
        let r = PlanRequest::parse_kv("workload=strip2 nx=40 ny=12 ranks=4").unwrap();
        assert_eq!(r.kernel, KernelName::Example1);
        assert_eq!(r.v, VChoice::Auto);
        assert_eq!(r.mode, ExecMode::Overlapping);
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(PlanRequest::parse_kv("workload=grid3 nx=8").is_err());
        assert!(PlanRequest::parse_kv("workload=warp9").is_err());
        assert!(PlanRequest::parse_kv("workload=grid3 nx=x ny=8 nz=8 pi=1 pj=1").is_err());
    }
}
