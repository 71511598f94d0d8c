//! Tuned-plan records: what the autotuner commits back into planc.
//!
//! A tuning run measures many calibration plans and keeps one winner.
//! The winner is recorded as a [`TunedEntry`] — the chosen coordinates
//! plus the measured cost that justified them — in a [`TunedCache`]
//! keyed by [`tuned_key`], the *workload identity* of the request (its
//! height reset to `Auto`, its tune mode forced to `Committed`). Any
//! later request for the same workload/machine/schedule can then look
//! up the tuned coordinates without re-running calibration, and the
//! entry carries enough provenance (`predicted_us`, `pred_err_rel`) to
//! audit how far the closed form was off.

use crate::cache::{PlanCache, PlanKey};
use crate::spec::{PlanRequest, TuneMode, VChoice};
use std::sync::Arc;
use tiling_core::machine::KernelTier;

/// The winning configuration of one tuning run plus the measured cost
/// that earned it.
#[derive(Clone, Debug, PartialEq)]
pub struct TunedEntry {
    /// Winning tile height.
    pub v: usize,
    /// Winning processor-grid side along i.
    pub pi: usize,
    /// Winning processor-grid side along j.
    pub pj: usize,
    /// Winning kernel tier.
    pub tier: KernelTier,
    /// Measured makespan of the winner (µs).
    pub measured_makespan_us: f64,
    /// Measured cost per pipeline step (µs) — makespan / ⌈K/V⌉.
    pub measured_us_per_step: f64,
    /// The closed form's prediction for the winner's coordinates (µs).
    pub predicted_us: f64,
    /// `(measured − predicted) / predicted` for the winner.
    pub pred_err_rel: f64,
}

/// Cache of tuned winners. Reuses [`PlanCache`]'s keyed LRU (and its
/// hit/miss/eviction accounting) with [`TunedEntry`] values.
pub type TunedCache = PlanCache<Arc<TunedEntry>>;

/// The key a tuned winner is recorded under: the request with the
/// height put back to [`VChoice::Auto`] and the tune mode forced to
/// [`TuneMode::Committed`], so calibration probes with explicit `V`s
/// all resolve to one identity — the workload they were tuning.
pub fn tuned_key(req: &PlanRequest) -> PlanKey {
    let mut canonical = req.clone();
    canonical.v = VChoice::Auto;
    canonical.tune = TuneMode::Committed;
    PlanKey::of(&canonical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TuneMode;

    #[test]
    fn calibration_probes_share_one_tuned_key() {
        let base = PlanRequest::grid3(8, 8, 256, 2, 2);
        let a = tuned_key(&base.clone().with_v(32).with_tune(TuneMode::Calibration));
        let b = tuned_key(&base.clone().with_v(64).with_tune(TuneMode::Calibration));
        let c = tuned_key(&base);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert!(a.canon().ends_with("|u=tuned"));
        // But a different workload is a different identity.
        let d = tuned_key(&PlanRequest::grid3(8, 8, 512, 2, 2));
        assert_ne!(a, d);
    }

    #[test]
    fn tuned_cache_round_trips_entries() {
        let cache: TunedCache = TunedCache::new(4);
        let req = PlanRequest::grid3(8, 8, 256, 2, 2);
        let entry = Arc::new(TunedEntry {
            v: 48,
            pi: 2,
            pj: 2,
            tier: KernelTier::Bitwise,
            measured_makespan_us: 1234.5,
            measured_us_per_step: 205.75,
            predicted_us: 1100.0,
            pred_err_rel: (1234.5 - 1100.0) / 1100.0,
        });
        cache.insert(tuned_key(&req), entry.clone());
        let got = cache.get(&tuned_key(&req.clone().with_v(48))).unwrap();
        assert_eq!(got, entry);
        assert_eq!(cache.stats().hits, 1);
    }
}
