//! Staged plan compilation: front → decompose → optimize → analyze.
//!
//! Each stage has a typed error (see [`CompileError`]) naming where a
//! request died:
//!
//! 1. **front** — resolve the workload into an executor family. Shipped
//!    shapes pass through; loop-nest source is parsed
//!    (`tiling-core::parse`), its uniform flow dependences extracted,
//!    and the nest matched against the family the executors implement
//!    (2-D strips for Example-1-class nests, the §5 block layout for
//!    3-D unit-dependence nests). A fully parallel nest, and one with a
//!    negative dependence component (it would need a skew), are
//!    rejected. Kernel/workload dimensions must agree.
//! 2. **decompose** — build the decomposition skeleton and validate
//!    divisibility and non-emptiness.
//! 3. **optimize** — resolve the tile height: explicit `V` passes
//!    through; `auto` evaluates the closed-form optimum
//!    `V* = √(K·α/(γ·β))` (§6) for the request's machine and schedule,
//!    clamped to the mapping extent.
//! 4. **analyze** — run the pre-flight static analysis exactly once
//!    (`stencil::plan::Compiled{2,3}D::compile`) and seal the
//!    [`PlanArtifact`].

use crate::artifact::{CompiledWorkload, PlanArtifact};
use crate::cache::PlanKey;
use crate::error::CompileError;
use crate::spec::{PlanRequest, VChoice, WorkloadSpec};
use std::collections::BTreeSet;
use stencil::dist2d::Decomp2D;
use stencil::dist3d::Decomp3D;
use stencil::engine::ExecMode;
use stencil::plan::{Compiled2D, Compiled3D};
use tiling_core::closed_form::{nonoverlap_optimal_v, overlap_optimal_v, ClosedForm};
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
    match shape {
        Shape::D2 { nx, ny, ranks } => {
            let d = Decomp2D {
                nx,
                ny,
                ranks,
                v: nx,
                boundary: req.boundary,
            };
            d.validate()?;
        }
        Shape::D3 { nx, ny, nz, pi, pj } => {
            let d = Decomp3D {
                nx,
                ny,
                nz,
                pi,
                pj,
                v: nz,
                boundary: req.boundary,
            };
            d.validate()?;
        }
    }
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
    let cf: ClosedForm = match req.mode {
        ExecMode::Overlapping => overlap_optimal_v(&space, &deps, &machine, &cross, mapping_dim),
        ExecMode::Blocking => nonoverlap_optimal_v(&space, &deps, &machine, &cross, mapping_dim),
    };
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
    let (compiled, report) = match shape {
        Shape::D2 { nx, ny, ranks } => {
            let d = Decomp2D {
                nx,
                ny,
                ranks,
                v,
                boundary: req.boundary,
            };
            d.validate()?;
            let c = Compiled2D::compile(d, req.mode).map_err(CompileError::Analyze)?;
            let report = *c.report().expect("compile always analyzes");
            (CompiledWorkload::Dim2(c), report)
        }
        Shape::D3 { nx, ny, nz, pi, pj } => {
            let d = Decomp3D {
                nx,
                ny,
                nz,
                pi,
                pj,
                v,
                boundary: req.boundary,
            };
            d.validate()?;
            let c = Compiled3D::compile(d, req.mode).map_err(CompileError::Analyze)?;
            let report = *c.report().expect("compile always analyzes");
            (CompiledWorkload::Dim3(c), report)
        }
    };
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
    use stencil::engine::EngineError;

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
        let a = compile(&PlanRequest::strip2(40, 12, 4).with_v(10)).expect("compiles");
        let out = a.execute(ExecOptions { verify: true }).expect("runs");
        assert_eq!(out.verified, Some(true));
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

    /// Grids larger than memory, or than `i64`/`isize` can count, are
    /// typed errors from `compile` or `execute`, never a panic or an
    /// allocation abort.
    #[test]
    fn oversized_grids_are_typed_errors() {
        let oom = |bytes| EngineError::OutOfMemory { bytes };
        let a = compile(&untileable()).expect("an explicit V needs no closed form");
        assert_eq!(a.predicted_us(), None);
        assert_eq!(a.execute(ExecOptions::default()).unwrap_err(), oom(1 << 62));
        let auto = PlanRequest::grid3(1 << 29, 1 << 29, 4, 2, 1);
        assert_eq!(compile(&auto).unwrap_err().stage(), "optimize");
        let line = "workload=grid3 nx=4194304 ny=4194304 nz=4194304 pi=2 pj=1";
        let too_large = CompileError::Decompose(DecompError::TooLarge);
        assert_eq!(
            compile(&PlanRequest::parse_kv(line).unwrap()).unwrap_err(),
            too_large
        );
        let a = compile(&unallocatable()).expect("compiles");
        assert_eq!(a.execute(ExecOptions::default()).unwrap_err(), oom(1 << 50));
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
