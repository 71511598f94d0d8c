//! Staged plan compilation: front → decompose → optimize → analyze.
//!
//! Each stage has a typed error (see [`CompileError`]) naming where a
//! request died:
//!
//! 1. **front** — resolve the workload into an executor family. Shipped
//!    shapes pass through; loop-nest source is parsed
//!    (`tiling-core::parse`), its uniform flow dependences extracted,
//!    and the nest matched against the family the executor implements
//!    (2-D strips for Example-1-class nests, the §5 block layout for
//!    3-D unit-dependence nests; a strip runs as the block layout with a
//!    unit `i`-axis). A fully parallel nest, and one with a
//!    negative dependence component (it would need a skew), are
//!    rejected. Kernel/workload dimensions must agree.
//! 2. **decompose** — build the decomposition skeleton and validate
//!    divisibility and non-emptiness.
//! 3. **optimize** — resolve the tile height: explicit `V` passes
//!    through; `auto` evaluates the closed-form optimum
//!    `V* = √(K·α/(γ·β))` (§6) for the request's machine and schedule,
//!    clamped to the mapping extent.
//! 4. **analyze** — run the pre-flight static analysis exactly once
//!    (`stencil::plan::Compiled3D::compile`) and seal the
//!    [`PlanArtifact`].

use crate::artifact::PlanArtifact;
use crate::cache::PlanKey;
use crate::error::CompileError;
use crate::spec::{PlanRequest, VChoice, WorkloadSpec};
use std::collections::BTreeSet;
use stencil::decomp::Decomp2D;
use stencil::dist3d::Decomp3D;
use stencil::plan::Compiled3D;
use tiling_core::closed_form::optimal_v;
use tiling_core::dependence::DependenceSet;
use tiling_core::parse::parse_loop_nest;
use tiling_core::space::IterationSpace;

/// The front stage's resolved shape: which executor family the request
/// compiles onto, with concrete extents and processor counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    D2 {
        nx: usize,
        ny: usize,
        ranks: usize,
    },
    D3 {
        nx: usize,
        ny: usize,
        nz: usize,
        pi: usize,
        pj: usize,
    },
}

impl Shape {
    fn dims(self) -> usize {
        match self {
            Shape::D2 { .. } => 2,
            Shape::D3 { .. } => 3,
        }
    }

    /// The block layout the shape runs on at tile height `v`: a strip's
    /// is its unit-axis block.
    fn block(self, v: usize, boundary: f32) -> Decomp3D {
        match self {
            Shape::D2 { nx, ny, ranks } => Decomp2D {
                nx,
                ny,
                ranks,
                v,
                boundary,
            }
            .block(),
            Shape::D3 { nx, ny, nz, pi, pj } => Decomp3D {
                nx,
                ny,
                nz,
                pi,
                pj,
                v,
                boundary,
            },
        }
    }
}

/// Stage 1: resolve the workload into an executor family.
fn front(req: &PlanRequest) -> Result<Shape, CompileError> {
    let shape = match &req.workload {
        WorkloadSpec::Grid3D { nx, ny, nz, pi, pj } => Shape::D3 {
            nx: *nx,
            ny: *ny,
            nz: *nz,
            pi: *pi,
            pj: *pj,
        },
        WorkloadSpec::Strip2D { nx, ny, ranks } => Shape::D2 {
            nx: *nx,
            ny: *ny,
            ranks: *ranks,
        },
        WorkloadSpec::Source { text, procs } => {
            let nest = parse_loop_nest(text)?;
            let deps = nest
                .dependences()
                .map_err(|e| CompileError::Dependence(e.to_string()))?;
            if deps.is_empty() {
                return Err(CompileError::Dependence(
                    "fully parallel nest: there is no dependence to tile or pipeline".into(),
                ));
            }
            if let Some(d) = deps.iter().find(|d| d.components().iter().any(|&c| c < 0)) {
                return Err(CompileError::Dependence(format!(
                    "dependence {:?} has a negative component: the nest needs a skew, \
                     which the rectangular executors do not run",
                    d.components()
                )));
            }
            let dims = nest.space().dims();
            let family = match dims {
                2 => DependenceSet::example_1(),
                3 => DependenceSet::paper_3d(),
                n => {
                    return Err(CompileError::Dependence(format!(
                        "loop nests of depth {n} have no executor family (only 2 and 3)"
                    )))
                }
            };
            // Every extracted dependence must be one the family's halo
            // exchange covers; extra vectors would make the executors
            // silently read stale values.
            let covered: BTreeSet<Vec<i64>> =
                family.iter().map(|d| d.components().to_vec()).collect();
            for d in deps.iter() {
                if !covered.contains(d.components()) {
                    return Err(CompileError::Dependence(format!(
                        "dependence {:?} is outside the {}-D executor family {:?}",
                        d.components(),
                        dims,
                        covered.iter().collect::<Vec<_>>()
                    )));
                }
            }
            if procs.len() != dims - 1 {
                return Err(CompileError::Spec(format!(
                    "a {dims}-D nest needs {} processor counts, got {:?}",
                    dims - 1,
                    procs
                )));
            }
            let ext = |d: usize| nest.space().extent(d) as usize;
            match dims {
                2 => Shape::D2 {
                    nx: ext(0),
                    ny: ext(1),
                    ranks: procs[0],
                },
                _ => Shape::D3 {
                    nx: ext(0),
                    ny: ext(1),
                    nz: ext(2),
                    pi: procs[0],
                    pj: procs[1],
                },
            }
        }
    };
    if req.kernel.dims() != shape.dims() {
        return Err(CompileError::Spec(format!(
            "kernel {} is {}-D but the workload is {}-D",
            req.kernel.name(),
            req.kernel.dims(),
            shape.dims()
        )));
    }
    Ok(shape)
}

/// Stage 2: validate the decomposition skeleton (everything except the
/// tile height, which the optimize stage resolves next: until then the
/// pipeline is one tile, and [`analyze`] checks its step count).
fn decompose(shape: Shape, req: &PlanRequest) -> Result<(), CompileError> {
    let d = shape.block(1, req.boundary);
    Decomp3D { v: d.nz, ..d }.validate()?;
    Ok(())
}

/// Stage 3: resolve the tile height and the closed-form prediction. A
/// block too large for the closed form (its `NaN` `V*`) leaves an
/// explicit height without a prediction and fails `auto`.
fn optimize(shape: Shape, req: &PlanRequest) -> Result<(usize, Option<f64>), CompileError> {
    let machine = req.machine.params();
    // The executor families fix the cross-section (one tile column per
    // processor) and the mapping dimension: strips map along i₁, the
    // §5 block layout along i₃.
    let (space, deps, cross, mapping_dim, k_extent) = match shape {
        Shape::D2 { nx, ny, ranks } => (
            IterationSpace::from_extents(&[nx as i64, ny as i64]),
            DependenceSet::example_1(),
            vec![(ny / ranks) as i64],
            0,
            nx,
        ),
        Shape::D3 { nx, ny, nz, pi, pj } => (
            IterationSpace::from_extents(&[nx as i64, ny as i64, nz as i64]),
            DependenceSet::paper_3d(),
            vec![(nx / pi) as i64, (ny / pj) as i64],
            2,
            nz,
        ),
    };
    let strategy = req.mode.strategy();
    let cf = optimal_v(strategy, &space, &deps, &machine, &cross, mapping_dim);
    let v = match req.v {
        VChoice::Explicit(v) => {
            if v == 0 {
                return Err(CompileError::Optimize("tile height must be ≥ 1".into()));
            }
            v
        }
        VChoice::Auto => {
            if !cf.v_star.is_finite() {
                return Err(CompileError::Optimize(format!(
                    "closed form degenerate for this machine (V* = {})",
                    cf.v_star
                )));
            }
            (cf.v_star_integer().max(1) as usize).min(k_extent.max(1))
        }
    };
    let predicted = {
        let p = cf.predict_us(v as f64);
        p.is_finite().then_some(p)
    };
    Ok((v, predicted))
}

/// Stage 4 + seal: validate the decomposition with its resolved tile
/// height (a decompose-stage error: too many steps), run the pre-flight
/// analysis exactly once and bundle the artifact.
fn analyze(
    shape: Shape,
    v: usize,
    predicted_us: Option<f64>,
    req: &PlanRequest,
) -> Result<PlanArtifact, CompileError> {
    let d = shape.block(v, req.boundary);
    d.validate()?;
    let compiled = Compiled3D::compile(d, req.mode).map_err(CompileError::Analyze)?;
    #[allow(clippy::expect_used)] // LINT: `compile` always runs the analysis
    let report = *compiled.report().expect("compile always analyzes");
    Ok(PlanArtifact {
        key: PlanKey::of(req),
        request: req.clone(),
        v,
        compiled,
        report,
        predicted_us,
    })
}

/// Compile a request through every stage. This is the *uncached* entry
/// point; services go through [`crate::compiler::Compiler`], which adds
/// the keyed cache and single-flight batching on top.
pub fn compile(req: &PlanRequest) -> Result<PlanArtifact, CompileError> {
    let shape = front(req)?;
    decompose(shape, req)?;
    let (v, predicted_us) = optimize(shape, req)?;
    analyze(shape, v, predicted_us, req)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::artifact::ExecOptions;
    use crate::spec::{KernelName, MachineSpec};
    use stencil::decomp::DecompError;
    use stencil::engine::{EngineError, ExecMode};

    #[test]
    fn grid3_compiles_and_executes_verified() {
        let a = compile(&PlanRequest::grid3(8, 8, 64, 2, 2).with_v(16)).expect("compiles");
        assert_eq!(a.v(), 16);
        assert_eq!(a.ranks(), 4);
        assert!(a.report().messages > 0);
        let out = a.execute(ExecOptions { verify: true }).expect("runs");
        assert_eq!(out.verified, Some(true));
    }

    #[test]
    fn strip2_compiles_and_executes_verified() {
        for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
            let a = compile(&PlanRequest::strip2(40, 12, 4).with_v(12).with_mode(mode)).unwrap();
            // The result takes a dropped NaN grid's storage (40 % 12 ≠ 0)
            // of its length: 4 ranks × 3 one-lane groups × 4 lanes × 40.
            drop(stencil::grid::Grid3D::new(
                1,
                1,
                4 * 3 * 4 * 40,
                f32::NAN,
                1.0,
            ));
            let out = a.execute(ExecOptions { verify: true }).expect("runs");
            assert_eq!(out.verified, Some(true), "{mode:?}");
        }
    }

    /// `(nx, ny, ranks, V, boundary)` of a strip2 request.
    type Strip2 = (usize, usize, usize, usize, f32);

    /// `[key digest, predicted µs bits]` of a compiled request.
    type Recorded = [u64; 2];

    /// `(strip, mode, recorded at that V, auto V, recorded at auto)` of
    /// strip2 requests, as compiled when strips had their own executor.
    #[rustfmt::skip]
    const RECORDED_STRIP2: [(Strip2, ExecMode, Recorded, usize, Recorded); 16] = {
        use ExecMode::{Blocking, Overlapping};
        [
            ((40, 12, 4, 10, 4.0), Blocking, [0x53d13ac35003b32, 0x40a2600000000000], 15, [0xaefc6f81a16c18dc, 0x40a1c2aaaaaaaaaa]),
            ((40, 12, 4, 10, 4.0), Overlapping, [0x7c8fe2dccb6752fa, 0x4096580000000000], 14, [0xa65c3ff40bbcafc, 0x4095dedb6db6db6e]),
            ((37, 9, 3, 8, 1.0), Blocking, [0x9260a5166437d455, 0x40a064cccccccccd], 16, [0xa366657029c49ff8, 0x409d15ffffffffff]),
            ((37, 9, 3, 8, 1.0), Overlapping, [0x14d57b34c0fb4eb5, 0x4092a60000000000], 16, [0x55c9432bfb5a5fb4, 0x4090e90000000000]),
            ((16, 8, 1, 4, 2.0), Blocking, [0x85ce521ae133538c, 0x4094200000000000], 15, [0xe78263ce655805d1, 0x408adddddddddddd]),
            ((16, 8, 1, 4, 2.0), Overlapping, [0xdebdf4971032c64c, 0x4084a00000000000], 14, [0xf3de26260674023d, 0x407c649249249249]),
            ((10, 6, 2, 1, 3.0), Blocking, [0x394547454f27f716, 0x40a3a1999999999a], 10, [0x60aa0feafed87b80, 0x408b900000000000]),
            ((10, 6, 2, 1, 3.0), Overlapping, [0x228faada7ccee2ee, 0x4094ec0000000000], 10, [0x167331c8d5bee740, 0x4080400000000000]),
            ((24, 30, 5, 6, 1.0), Blocking, [0xcbf626c3f975bcd7, 0x40a34b3333333333], 9, [0xe4631c5d9d2a4f0c, 0x40a2a9ddddddddde]),
            ((24, 30, 5, 6, 1.0), Overlapping, [0x25fb1588f7a58c4f, 0x409ba00000000000], 7, [0xe71d17f78aac2cb8, 0x409b936db6db6db7]),
            ((12, 3, 3, 5, 2.0), Blocking, [0x9e2f4a08bc977158, 0x4093ff3333333334], 10, [0xe668f272ac9b4e86, 0x4091fb3333333333]),
            ((12, 3, 3, 5, 2.0), Overlapping, [0x7b248e07e1467ac8, 0x4088480000000000], 12, [0xebef88b0c3af92ae, 0x4085000000000000]),
            ((25, 12, 3, 6, 1.0), Blocking, [0xeac93fa358c22576, 0x409d622222222222], 13, [0xa32a54eca7baecd3, 0x4099c8dc8dc8dc8f]),
            ((25, 12, 3, 6, 1.0), Overlapping, [0x37ab1479cfe5a1a2, 0x4091c2aaaaaaaaab], 11, [0x889b2022d3d3f53b, 0x40905d1745d1745e]),
            ((13, 4, 2, 3, 1.0), Blocking, [0xc304d4cc7a417ca0, 0x4096491111111110], 12, [0x43c7cdebc259b5d6, 0x408cfbbbbbbbbbbb]),
            ((13, 4, 2, 3, 1.0), Overlapping, [0x7ddcbf37e326663c, 0x40884aaaaaaaaaaa], 13, [0x4508e7da4212df02, 0x407f800000000000]),
        ]
    };

    /// A strip2 request keeps its key, resolved height and prediction
    /// when it compiles onto the unit-axis block, and its report is the
    /// block plan's.
    #[test]
    fn strip2_keys_heights_and_predictions_are_the_recorded_ones() {
        for ((nx, ny, ranks, v, b), mode, explicit, auto_v, auto) in RECORDED_STRIP2 {
            let req = PlanRequest::strip2(nx, ny, ranks)
                .with_mode(mode)
                .with_boundary(b);
            for (req, v, [digest, predicted]) in
                [(req.clone().with_v(v), v, explicit), (req, auto_v, auto)]
            {
                let a = compile(&req).expect("compiles");
                let at = a.key().canon().to_string();
                assert!(
                    at.starts_with(&format!("strip2:{nx}x{ny}@{ranks}|k=example1")),
                    "{at}"
                );
                assert_eq!(a.key().digest(), digest, "{at}");
                assert_eq!(a.v(), v, "{at}");
                assert_eq!(a.predicted_us().map(f64::to_bits), Some(predicted), "{at}");
                assert_eq!(Some(a.report()), a.compiled.report(), "{at}");
                assert_eq!(a.steps(), nx.div_ceil(v), "{at}");
            }
        }
    }

    #[test]
    fn auto_v_is_clamped_and_predicted() {
        let a = compile(&PlanRequest::grid3(8, 8, 4096, 2, 2)).expect("compiles");
        assert!(a.v() >= 1 && a.v() <= 4096, "v = {}", a.v());
        assert!(a.predicted_us().unwrap() > 0.0);
    }

    #[test]
    fn source_nest_compiles_to_3d_plan() {
        let src = "\
FOR i1 = 1 TO 8 DO
  FOR i2 = 1 TO 8 DO
    FOR i3 = 1 TO 64 DO
      A(i1, i2, i3) = sqrt(A(i1-1, i2, i3)) + sqrt(A(i1, i2-1, i3)) + sqrt(A(i1, i2, i3-1))
    ENDFOR
  ENDFOR
ENDFOR
";
        let a = compile(&PlanRequest::source(src, vec![2, 2]).with_v(16)).expect("compiles");
        assert_eq!(a.ranks(), 4);
        let out = a.execute(ExecOptions { verify: true }).expect("runs");
        assert_eq!(out.verified, Some(true));
    }

    #[test]
    fn source_nest_compiles_to_2d_plan() {
        let src = "\
FOR i1 = 1 TO 40 DO
  FOR i2 = 1 TO 12 DO
    A(i1, i2) = A(i1-1, i2-1) + A(i1-1, i2) + A(i1, i2-1)
  ENDFOR
ENDFOR
";
        let req = PlanRequest::source(src, vec![4])
            .with_kernel(KernelName::Example1)
            .with_machine(MachineSpec::Example1)
            .with_v(10);
        let a = compile(&req).expect("compiles");
        assert_eq!(a.ranks(), 4);
        let out = a.execute(ExecOptions { verify: true }).expect("runs");
        assert_eq!(out.verified, Some(true));
    }

    #[test]
    fn stage_errors_are_typed() {
        // front: parse error carries a position.
        let e = compile(&PlanRequest::source("FOR FOR", vec![2, 2])).unwrap_err();
        assert_eq!(e.stage(), "front");
        assert!(matches!(e, CompileError::Parse(_)));

        // front: kernel/workload dimension mismatch.
        let e = compile(&PlanRequest::grid3(8, 8, 64, 2, 2).with_kernel(KernelName::Example1))
            .unwrap_err();
        assert!(matches!(e, CompileError::Spec(_)));

        // front: dependence outside the family.
        let src = "\
FOR i1 = 1 TO 8 DO
  FOR i2 = 1 TO 8 DO
    A(i1, i2) = A(i1-2, i2)
  ENDFOR
ENDFOR
";
        let e = compile(&PlanRequest::source(src, vec![4]).with_kernel(KernelName::Example1))
            .unwrap_err();
        assert!(matches!(e, CompileError::Dependence(_)), "{e:?}");

        // front: a loop range with more than i64::MAX iterations.
        for header in [
            "FOR i = 0 TO 9223372036854775807",
            "FOR i = -9223372036854775807 TO 9223372036854775807",
        ] {
            let src = format!("{header}\nFOR j = 0 TO 7\n A(i, j) = A(i-1, j)\nENDFOR\nENDFOR");
            let e = front_err(&src, vec![2]);
            assert!(matches!(e, CompileError::Parse(_)), "{e:?}");
        }

        // decompose: divisibility.
        let e = compile(&PlanRequest::grid3(9, 8, 64, 2, 2)).unwrap_err();
        assert_eq!(e.stage(), "decompose");
        assert!(matches!(
            e,
            CompileError::Decompose(DecompError::NotDivisible { .. })
        ));

        // optimize: explicit zero height.
        let e = compile(&PlanRequest::grid3(8, 8, 64, 2, 2).with_v(0)).unwrap_err();
        assert_eq!(e.stage(), "optimize");
    }

    /// A pipeline of 2³² steps or more is a decompose-stage error, not a
    /// panic in the program emitter, whether the request is built or
    /// arrives as a `serve` line; before the tile height is resolved, the
    /// extent alone is not rejected.
    #[test]
    fn too_many_steps_is_a_typed_error() {
        let too_many = CompileError::Decompose(DecompError::TooManySteps { steps: 1 << 32 });
        let built = PlanRequest::grid3(2, 2, 1 << 32, 2, 1).with_v(1);
        assert_eq!(compile(&built).unwrap_err(), too_many);
        let line = "workload=grid3 nx=2 ny=2 nz=4294967296 pi=2 pj=1 v=1";
        assert_eq!(
            compile(&PlanRequest::parse_kv(line).unwrap()).unwrap_err(),
            too_many
        );
        let strip = PlanRequest::strip2(1 << 32, 2, 2).with_v(1);
        assert_eq!(compile(&strip).unwrap_err(), too_many);
        assert_eq!(decompose(front(&built).unwrap(), &built), Ok(()));
    }

    /// A pipeline under 2³² steps whose messages pre-flight cannot hold
    /// is an analyze-stage error, not an allocation abort: these `serve`
    /// lines asked the matcher for 14.3 GB and 42.9 GB.
    #[test]
    fn more_messages_than_preflight_holds_is_a_typed_error() {
        let too_many = |ends| {
            let e = analyzer::AnalysisError::TooManyMessages { ends };
            CompileError::Analyze(EngineError::Analysis(e))
        };
        for (line, ends) in [
            (
                "workload=grid3 nx=16 ny=16 nz=4294967296 pi=2 pj=1 v=12",
                715_827_884,
            ),
            (
                "workload=strip2 nx=4294967296 ny=12 ranks=4 v=12",
                2_147_483_652,
            ),
        ] {
            let req = PlanRequest::parse_kv(line).unwrap();
            assert_eq!(compile(&req).unwrap_err(), too_many(ends), "{line}");
        }
    }

    /// A cross-section side of 1 prices its sample tiles by the per-axis
    /// rule: a 1 × 2²⁴ × 64 tile is never walked point by point.
    #[test]
    fn a_side_one_cross_section_is_predicted() {
        let a = compile(&PlanRequest::grid3(2, 1 << 24, 2, 2, 1).with_v(1)).expect("compiles");
        assert!(a.predicted_us().is_some_and(f64::is_finite));
    }

    /// 2²⁹ × 2²⁹ × 4 fits `isize` bytes (2⁶²), but a rank's 128-high
    /// sample tile does not fit `i64`: there is no closed form.
    pub(crate) fn untileable() -> PlanRequest {
        PlanRequest::grid3(1 << 29, 1 << 29, 4, 2, 1).with_v(4)
    }

    /// 2⁴⁸ cells, 2⁵⁰ bytes: countable, far more than memory.
    pub(crate) fn unallocatable() -> PlanRequest {
        PlanRequest::grid3(1 << 16, 1 << 16, 1 << 16, 2, 1).with_v(1 << 16)
    }

    /// The bytes a run of [`untileable`] and of [`unallocatable`] asks
    /// for: its cells and its sweep's skew, 2 ranks × `bx/4 · by` row
    /// groups × 4 lanes × `nz + 3` steps × 4 bytes.
    pub(crate) const UNTILEABLE_BYTES: usize = 7 << 60;
    pub(crate) const UNALLOCATABLE_BYTES: usize = (1 << 50) + (3 << 34);

    /// Grids larger than memory, or than `i64`/`isize` can count, are
    /// typed errors from `compile` or `execute`, never a panic or an
    /// allocation abort.
    #[test]
    fn oversized_grids_are_typed_errors() {
        let oom = |bytes| EngineError::OutOfMemory { bytes };
        let a = compile(&untileable()).expect("an explicit V needs no closed form");
        assert_eq!(a.predicted_us(), None);
        let bytes = UNTILEABLE_BYTES;
        assert_eq!(a.execute(ExecOptions::default()).unwrap_err(), oom(bytes));
        let auto = PlanRequest::grid3(1 << 29, 1 << 29, 4, 2, 1);
        assert_eq!(compile(&auto).unwrap_err().stage(), "optimize");
        let line = "workload=grid3 nx=4194304 ny=4194304 nz=4194304 pi=2 pj=1";
        let too_large = CompileError::Decompose(DecompError::TooLarge);
        assert_eq!(
            compile(&PlanRequest::parse_kv(line).unwrap()).unwrap_err(),
            too_large
        );
        let a = compile(&unallocatable()).expect("compiles");
        let bytes = UNALLOCATABLE_BYTES;
        assert_eq!(a.execute(ExecOptions::default()).unwrap_err(), oom(bytes));
    }

    /// Compile `src` as an Example-1 nest and return the error, which
    /// must come from `front`.
    fn front_err(src: &str, procs: Vec<usize>) -> CompileError {
        let e = compile(&PlanRequest::source(src, procs).with_kernel(KernelName::Example1))
            .unwrap_err();
        assert_eq!(e.stage(), "front", "{src}: {e}");
        e
    }

    const PAPER_3D: &str = "\
FOR i = 0 TO 15
  FOR j = 0 TO 15
    FOR k = 0 TO 8191
      A(i, j, k) = sqrt(A(i-1, j, k)) + sqrt(A(i, j-1, k)) + sqrt(A(i, j, k-1))
    ENDFOR
  ENDFOR
ENDFOR";

    #[test]
    fn plans_paper_kernel_end_to_end() {
        // The §5 kernel as written compiles to one column per rank of a
        // 4×4 grid with a predicted tile height in the paper's range.
        let a = compile(&PlanRequest::source(PAPER_3D, vec![4, 4])).expect("compiles");
        assert_eq!(a.ranks(), 16);
        assert!(a.v() > 10 && a.v() < 1000, "v = {}", a.v());
        assert!(a.predicted_us().unwrap() > 0.0);
        assert!(a.report().messages > 0);
    }

    #[test]
    fn rejects_bad_source() {
        let e = front_err("FOR garbage", vec![]);
        assert!(matches!(e, CompileError::Parse(_)), "{e:?}");
    }

    #[test]
    fn rejects_forward_dependence() {
        let e = front_err("FOR i = 0 TO 9\n A(i) = A(i+1)\nENDFOR", vec![]);
        assert!(matches!(e, CompileError::Dependence(_)), "{e:?}");
    }

    #[test]
    fn rejects_wrong_grid_arity() {
        let e = compile(&PlanRequest::source(PAPER_3D, vec![4])).unwrap_err();
        assert_eq!(e.stage(), "front");
        assert!(matches!(e, CompileError::Spec(_)), "{e:?}");
    }

    #[test]
    fn rejects_parallel_nest() {
        let parallel = "FOR i = 0 TO 7\nFOR j = 0 TO 7\n B(i, j) = C(i, j)\nENDFOR\nENDFOR";
        let e = front_err(parallel, vec![2]);
        assert!(matches!(e, CompileError::Dependence(_)), "{e:?}");
    }

    #[test]
    fn rejects_negative_dep_nest_naming_skew() {
        // Only a skew would make this nest rectangularly tileable, and no
        // executor runs skewed tiles.
        let jacobi = "FOR t = 0 TO 255\nFOR x = 0 TO 1023\n \
                      A(t, x) = A(t-1, x-1) + A(t-1, x) + A(t-1, x+1)\nENDFOR\nENDFOR";
        let e = front_err(jacobi, vec![8]);
        assert!(
            matches!(&e, CompileError::Dependence(m) if m.contains("skew")),
            "{e:?}"
        );
    }

    #[test]
    fn preflight_runs_at_compile_time_only() {
        // The artifact's world config always skips the per-run check;
        // the report proves the compile-time analysis happened.
        let a = compile(&PlanRequest::grid3(8, 8, 64, 2, 2).with_v(16)).expect("compiles");
        assert!(a.world_config().skip_preflight);
        assert_eq!(a.report().ranks, 4);
    }
}
