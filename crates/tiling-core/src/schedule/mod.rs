//! Time schedules for tiled iteration spaces.
//!
//! * [`linear`] — generic linear (hyperplane) schedules `Π` (§2.5).
//! * [`tile`] — the paper's tile schedule: `Π` plus a processor mapping,
//!   with a [`StepStrategy`] that alone sets `Π`'s cross-processor
//!   coefficient (1 for §3, 2 for §4), the lag a dependence edge needs
//!   and the price of a step (eq. 3 or eq. 4).
//! * [`nonoverlap`] / [`overlap`] — the two step prices: §3's
//!   serialized *receive → compute → send* triplet and §4's step that
//!   overlaps its communication with the computation of an independent
//!   tile.
//! * [`plan`] — the executable projection of a schedule onto one
//!   processor ([`plan::StepPlan`]), consumed by the distributed
//!   executors.

pub mod linear;
pub mod nonoverlap;
pub mod overlap;
pub mod plan;
pub mod tile;

pub use linear::{optimal_linear_schedule, LinearSchedule};
pub use overlap::OverlapMode;
pub use plan::StepPlan;
pub use tile::{ScheduleReport, StepStrategy, TileSchedule};
