//! A pool of prebuilt thread-backend worlds, reused across execute
//! jobs.
//!
//! Building a world allocates the full link mesh (slot rings, buffer
//! pools, a shared barrier), and its first run starts its rank
//! threads; for service workloads that execute many small plans the
//! setup dominates. The pool keys finished worlds by
//! everything that shapes them — rank count, transport, latency model
//! — and hands them back out to the next matching job
//! (`stencil::plan::run3d_on_world` drives them). Reuse is sound
//! because every pooled run went through the compile-time analyzer,
//! which proves the plan drains all links: a successfully completed
//! job leaves the world empty. Errored jobs never check their world
//! back in.
//!
//! Worlds with a reliability layer or a fault plan are *never* pooled:
//! their link state (sequence ledgers, pending fault schedules) is
//! intentionally job-specific.

use msgpass::thread_backend::{build_world_with, World, WorldConfig};
use msgpass::transport::TransportKind;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Everything that shapes a world, bit-exact.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct WorldKey {
    ranks: usize,
    /// Transport discriminant + slot count.
    transport: (u8, usize),
    /// Latency model constants, to-bits.
    latency: (u64, u64),
}

impl WorldKey {
    fn of(cfg: &WorldConfig, ranks: usize) -> Self {
        WorldKey {
            ranks,
            transport: match cfg.transport {
                TransportKind::Mpsc => (0, 0),
                TransportKind::SharedSlots { slots } => (1, slots),
            },
            latency: (
                cfg.latency.startup_us.to_bits(),
                cfg.latency.per_byte_us.to_bits(),
            ),
        }
    }
}

/// Pool counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorldPoolStats {
    /// Worlds built from scratch.
    pub created: u64,
    /// Checkouts satisfied by a warm world.
    pub reused: u64,
    /// Worlds currently parked in the pool.
    pub parked: usize,
}

/// A keyed pool of prebuilt worlds. See the module docs.
pub struct WorldPool {
    parked: Mutex<HashMap<WorldKey, Vec<World<f32>>>>,
    created: AtomicU64,
    reused: AtomicU64,
    max_per_key: usize,
}

impl Default for WorldPool {
    fn default() -> Self {
        WorldPool::new(4)
    }
}

impl WorldPool {
    /// A pool parking at most `max_per_key` idle worlds per key.
    pub fn new(max_per_key: usize) -> Self {
        WorldPool {
            parked: Mutex::new(HashMap::new()),
            created: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            max_per_key: max_per_key.max(1),
        }
    }

    /// Whether worlds of this configuration may be pooled at all.
    fn poolable(cfg: &WorldConfig) -> bool {
        cfg.reliability.is_none() && cfg.faults.is_none()
    }

    /// A world matching `cfg`, warm if one is parked, freshly built
    /// otherwise.
    pub fn checkout(&self, cfg: &WorldConfig, ranks: usize) -> World<f32> {
        if Self::poolable(cfg) {
            let key = WorldKey::of(cfg, ranks);
            if let Some(world) = crate::lock(&self.parked)
                .get_mut(&key)
                .and_then(|q| q.pop())
            {
                self.reused.fetch_add(1, Ordering::Relaxed);
                return world;
            }
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        build_world_with::<f32>(ranks, cfg)
    }

    /// Park a drained world for reuse. Call only after a *successful*
    /// run — an errored world may hold undrained messages and must be
    /// dropped instead. Non-poolable configurations are dropped
    /// silently.
    pub fn checkin(&self, cfg: &WorldConfig, world: World<f32>) {
        if !Self::poolable(cfg) {
            return;
        }
        let key = WorldKey::of(cfg, world.len());
        let mut g = crate::lock(&self.parked);
        let q = g.entry(key).or_default();
        if q.len() < self.max_per_key {
            q.push(world);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> WorldPoolStats {
        WorldPoolStats {
            created: self.created.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            parked: crate::lock(&self.parked).values().map(Vec::len).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgpass::thread_backend::LatencyModel;

    fn cfg() -> WorldConfig {
        WorldConfig::new(LatencyModel::zero()).with_transport(TransportKind::shared_slots())
    }

    #[test]
    fn checkout_checkin_reuses() {
        let pool = WorldPool::new(2);
        let w = pool.checkout(&cfg(), 4);
        assert_eq!(w.len(), 4);
        pool.checkin(&cfg(), w);
        let _w2 = pool.checkout(&cfg(), 4);
        let s = pool.stats();
        assert_eq!(s.created, 1);
        assert_eq!(s.reused, 1);
    }

    #[test]
    fn different_configs_do_not_alias() {
        let pool = WorldPool::new(2);
        let w = pool.checkout(&cfg(), 4);
        pool.checkin(&cfg(), w);
        // Different rank count → fresh build.
        let _w2 = pool.checkout(&cfg(), 2);
        // Different transport → fresh build.
        let mpsc = WorldConfig::new(LatencyModel::zero());
        let _w3 = pool.checkout(&mpsc, 4);
        assert_eq!(pool.stats().reused, 0);
        assert_eq!(pool.stats().created, 3);
    }

    #[test]
    fn faulty_configs_never_pool() {
        use msgpass::fault::FaultPlan;
        let faulty = cfg().with_faults(FaultPlan::seeded(7));
        let pool = WorldPool::new(2);
        let world = pool.checkout(&faulty, 2);
        pool.checkin(&faulty, world);
        assert_eq!(pool.stats().parked, 0);
    }
}
