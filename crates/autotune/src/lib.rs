//! autotune — the ladder search between the analytic layer and the
//! simulator.
//!
//! The paper picks `V_optimal` analytically (eq. 7), but the closed
//! form is blind to regimes this workspace can produce: partial last
//! tiles (the `⌈K/V⌉` staircase), heterogeneous
//! [`NodeSpeeds`](tiling_core::machine::NodeSpeeds) and measured
//! piecewise transfer curves. This crate refines the analytic answer
//! with the deterministic cluster simulator:
//!
//! 1. **Seed** — the closed form's `V*` on the problem's own shape,
//!    measured first.
//! 2. **Ladder** — [`candidates`] enumerates (V, tile shape) around
//!    each shape's own closed-form `V*`
//!    ([`ClosedForm::v_ladder`](tiling_core::closed_form::ClosedForm::v_ladder)),
//!    including the step-aligned heights that eliminate partial tiles.
//! 3. **Argmin** — [`tuner`] measures every rung on the [`backend`]
//!    and keeps the minimum, never worse than the seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod backend;
pub mod candidates;
pub mod tuner;

pub use backend::SimBackend;
pub use candidates::{closed_form_for, enumerate, tile_shapes, Candidate, Schedule, TuneProblem};
pub use tuner::{tune, Measured, Surrogate, TuneConfig, TuneOutcome};
