//! Time schedules for tiled iteration spaces.
//!
//! * [`tile`] — the paper's tile schedule, the one schedule model: `Π`
//!   plus a processor mapping, with a [`StepStrategy`] that alone sets
//!   `Π`'s cross-processor coefficient (1 for §3, 2 for §4 — the optimal
//!   UET-UCT grid schedule of reference \[1\]), the lag a dependence
//!   edge needs, the plane count `P(g)`, the legality verdict
//!   pre-flight reports and the price of a step (eq. 3 or eq. 4).
//! * [`nonoverlap`] / [`overlap`] — the two step prices: §3's
//!   serialized *receive → compute → send* triplet and §4's step that
//!   overlaps its communication with the computation of an independent
//!   tile.
//! * [`plan`] — the executable projection of a schedule onto one
//!   processor ([`plan::StepPlan`]), consumed by the distributed
//!   executors.

pub mod nonoverlap;
pub mod overlap;
pub mod plan;
pub mod tile;

pub use overlap::OverlapMode;
pub use plan::StepPlan;
pub use tile::{ScheduleReport, StepStrategy, TileSchedule};
