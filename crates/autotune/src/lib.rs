//! autotune — the closed loop between the analytic layer, the
//! simulator, and measured execution.
//!
//! The paper picks `V_optimal` analytically (eq. 7), but the closed
//! form is blind to regimes this workspace can produce: partial last
//! tiles (the `⌈K/V⌉` staircase), heterogeneous
//! [`NodeSpeeds`](tiling_core::machine::NodeSpeeds), NIC contention,
//! and measured piecewise transfer curves. This crate refines the
//! analytic answer by measured feedback:
//!
//! 1. **Seed** — [`candidates`] enumerates (V, tile shape, tier)
//!    around each shape's own closed-form `V*`
//!    ([`ClosedForm::v_ladder`](tiling_core::closed_form::ClosedForm::v_ladder)),
//!    including the step-aligned heights that eliminate partial tiles.
//! 2. **Pre-rank** — [`surrogate`] scores candidates for free (closed
//!    form, optionally corrected by a sweep training slice) so only
//!    the promising ones are measured.
//! 3. **Calibrate** — [`backend`] measures survivors: real thread
//!    executions through planc's compiled plans and warm
//!    [`WorldPool`](planc::WorldPool) worlds, or the deterministic
//!    cluster simulator for out-of-model machines. Noisy backends get
//!    best-of-N timing and checkpoint-based early abandon.
//! 4. **Commit** — [`tuner`] keeps the best measured candidate (never
//!    worse than the seed on the evaluated set) and records it in
//!    planc's [`TunedCache`](planc::TunedCache).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod candidates;
pub mod surrogate;
pub mod tuner;

pub use backend::{MeasureBackend, SimBackend, ThreadBackend};
pub use candidates::{closed_form_for, enumerate, tile_shapes, Candidate, Schedule, TuneProblem};
pub use surrogate::{Surrogate, TrainRow, TrainSet};
pub use tuner::{commit, tune, Measured, TuneConfig, TuneOutcome};
