//! # overlap-tiling
//!
//! A from-scratch Rust reproduction of
//!
//! > G. Goumas, A. Sotiropoulos, N. Koziris,
//! > *Minimizing Completion Time for Loop Tiling with Computation and
//! > Communication Overlapping*, IPPS 2001.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`tiling_core`] — rectangular supernode (tiling) transformations,
//!   exact integer cost models (`V_comp = Π s_i`),
//!   and the non-overlapping vs overlapping tile schedules (the paper's
//!   contribution);
//! * [`cluster_sim`] — a deterministic discrete-event simulator of the
//!   paper's 16-node MPI cluster (CPU / DMA / NIC lanes, MPI buffer-fill
//!   cost model);
//! * [`msgpass`] — an MPI-shaped message-passing runtime with a real
//!   multi-threaded backend and injected wire latency;
//! * [`stencil`] — the paper's workloads executed for real, with
//!   bitwise verification against sequential references.
//!
//! See `examples/` for runnable walkthroughs and the `paper` binary
//! (`cargo run --release -p bench --bin paper -- all`) for the full
//! figure-by-figure reproduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cluster_sim;
pub use msgpass;
pub use stencil;
pub use tiling_core;

/// Everything commonly needed, re-exported flat.
pub mod prelude {
    pub use cluster_sim::prelude::*;
    pub use msgpass::prelude::*;
    pub use stencil::prelude::*;
    pub use tiling_core::prelude::*;
}
