//! The keyed compiled-plan cache.
//!
//! [`PlanKey`] is a *canonical* rendering of every compilation input —
//! workload, kernel, machine constants (bit-exact), tile height
//! choice, schedule mode, transport and tier. Key equality is defined
//! on the canonical string, never on the hash alone, so two distinct
//! requests can never collide into one cache slot; the FNV hash only
//! accelerates the map. [`PlanCache`] is a mutex-guarded LRU keyed by
//! [`PlanKey`] with hit/miss/eviction counters.

use crate::spec::{MachineSpec, PlanRequest, VChoice, WorkloadSpec};
use msgpass::transport::TransportKind;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use stencil::engine::ExecMode;
use tiling_core::machine::KernelTier;

/// Stable identity of a compiled plan: the canonical rendering of its
/// request. See the module docs.
#[derive(Clone, Debug)]
pub struct PlanKey {
    canon: String,
    hash: u64,
}

impl PlanKey {
    /// Derive the key of a request.
    pub fn of(req: &PlanRequest) -> Self {
        let mut c = String::new();
        match &req.workload {
            WorkloadSpec::Grid3D { nx, ny, nz, pi, pj } => {
                let _ = write!(c, "grid3:{nx}x{ny}x{nz}@{pi}x{pj}");
            }
            WorkloadSpec::Strip2D { nx, ny, ranks } => {
                let _ = write!(c, "strip2:{nx}x{ny}@{ranks}");
            }
            WorkloadSpec::Source { text, procs } => {
                // The full source participates in the identity: two
                // nests that differ anywhere are different plans.
                let _ = write!(c, "src:{procs:?}:{text}");
            }
        }
        let _ = write!(c, "|k={}", req.kernel.name());
        let _ = write!(c, "|m={}", req.machine.name());
        if let MachineSpec::Custom(p) = &req.machine {
            // Bit-exact float canonicalization: two customs are the
            // same machine iff every constant is the same bits.
            let _ = write!(
                c,
                "[{:x},{:x},{:x},{},{:x},{:x},{:x},{:x}]",
                p.t_c_us.to_bits(),
                p.t_s_us.to_bits(),
                p.t_t_us_per_byte.to_bits(),
                p.bytes_per_elem,
                p.fill_mpi_buffer.base_us.to_bits(),
                p.fill_mpi_buffer.per_byte_us.to_bits(),
                p.fill_kernel_buffer.base_us.to_bits(),
                p.fill_kernel_buffer.per_byte_us.to_bits(),
            );
            // A measured transfer curve changes Auto-V resolution, so
            // it must participate in the identity too (machines without
            // one render exactly as before the curve existed).
            if let Some(curve) = &p.transfer_curve {
                let _ = write!(c, "cv[");
                for (i, &(bytes, us)) in curve.knots().iter().enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    let _ = write!(c, "{sep}{:x}:{:x}", bytes.to_bits(), us.to_bits());
                }
                let _ = write!(c, "]");
            }
        }
        match req.v {
            VChoice::Explicit(v) => {
                let _ = write!(c, "|v={v}");
            }
            VChoice::Auto => {
                let _ = write!(c, "|v=auto");
            }
        }
        let _ = write!(
            c,
            "|s={}",
            match req.mode {
                ExecMode::Blocking => "blk",
                ExecMode::Overlapping => "ovl",
            }
        );
        match req.transport {
            TransportKind::Mpsc => {
                let _ = write!(c, "|t=mpsc");
            }
            TransportKind::SharedSlots { slots } => {
                let _ = write!(c, "|t=ss{slots}");
            }
        }
        let _ = write!(
            c,
            "|q={}",
            match req.tier {
                KernelTier::Bitwise => "bit",
                KernelTier::Fast => "fast",
            }
        );
        let _ = write!(c, "|b={:x}", req.boundary.to_bits());
        let hash = fnv1a(c.as_bytes());
        PlanKey { canon: c, hash }
    }

    /// The canonical rendering (the key's defining identity).
    pub fn canon(&self) -> &str {
        &self.canon
    }

    /// The 64-bit FNV-1a digest of the canonical rendering — a compact
    /// id for logs and wire protocols (equality still needs [`canon`]:
    /// the digest alone can collide).
    ///
    /// [`canon`]: PlanKey::canon
    pub fn digest(&self) -> u64 {
        self.hash
    }
}

impl PartialEq for PlanKey {
    fn eq(&self, other: &Self) -> bool {
        // Equality is on the canonical string; the hash is a filter.
        self.hash == other.hash && self.canon == other.canon
    }
}

impl Eq for PlanKey {}

impl Hash for PlanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// FNV-1a, enough for an in-process map (equality still compares the
/// full canonical string).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Counters and occupancy of a [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a compiled plan.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Plans evicted to stay under capacity.
    pub evictions: u64,
    /// Plans currently resident.
    pub len: usize,
    /// Capacity.
    pub cap: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`, 0 when empty.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CacheInner<V> {
    map: HashMap<PlanKey, (V, u64)>,
    stamp: u64,
    cap: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A mutex-guarded LRU cache keyed by [`PlanKey`]. The value type is
/// generic but in practice `Arc<PlanArtifact>` — hits hand out shared
/// references to the one immutable compiled plan.
pub struct PlanCache<V = Arc<crate::artifact::PlanArtifact>> {
    inner: Mutex<CacheInner<V>>,
}

impl<V: Clone> PlanCache<V> {
    /// A cache holding at most `cap` plans (`cap ≥ 1`).
    pub fn new(cap: usize) -> Self {
        PlanCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                stamp: 0,
                cap: cap.max(1),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Look up a compiled plan, counting the hit or miss and marking
    /// the entry most-recently-used.
    pub fn get(&self, key: &PlanKey) -> Option<V> {
        let mut g = crate::lock(&self.inner);
        g.stamp += 1;
        let stamp = g.stamp;
        match g.map.get_mut(key) {
            Some((v, used)) => {
                *used = stamp;
                let v = v.clone();
                g.hits += 1;
                Some(v)
            }
            None => {
                g.misses += 1;
                None
            }
        }
    }

    /// [`PlanCache::get`] for a lookup retried under the single-flight
    /// lock: a hit counts (the call was satisfied from the cache), but
    /// a miss does not — the caller's first probe already counted it.
    pub fn get_recheck(&self, key: &PlanKey) -> Option<V> {
        let mut g = crate::lock(&self.inner);
        g.stamp += 1;
        let stamp = g.stamp;
        match g.map.get_mut(key) {
            Some((v, used)) => {
                *used = stamp;
                let v = v.clone();
                g.hits += 1;
                Some(v)
            }
            None => None,
        }
    }

    /// Insert a compiled plan, evicting the least-recently-used entry
    /// if the cache is full.
    pub fn insert(&self, key: PlanKey, value: V) {
        let mut g = crate::lock(&self.inner);
        g.stamp += 1;
        let stamp = g.stamp;
        if g.map.len() >= g.cap && !g.map.contains_key(&key) {
            if let Some(lru) = g
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            {
                g.map.remove(&lru);
                g.evictions += 1;
            }
        }
        g.map.insert(key, (value, stamp));
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let g = crate::lock(&self.inner);
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            len: g.map.len(),
            cap: g.cap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: usize) -> PlanKey {
        PlanKey::of(&PlanRequest::grid3(8, 8, 64 * (tag + 1), 2, 2))
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c: PlanCache<usize> = PlanCache::new(2);
        c.insert(key(0), 0);
        c.insert(key(1), 1);
        assert_eq!(c.get(&key(0)), Some(0)); // 0 now MRU
        c.insert(key(2), 2); // evicts 1
        assert_eq!(c.get(&key(1)), None);
        assert_eq!(c.get(&key(0)), Some(0));
        assert_eq!(c.get(&key(2)), Some(2));
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, 2);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn custom_machine_transfer_curve_participates_in_key() {
        use crate::spec::MachineSpec;
        use tiling_core::machine::{MachineParams, PiecewiseCost};
        let plain = MachineParams::paper_cluster();
        let curve = PiecewiseCost::from_knots(&[(0.0, 50.0), (4096.0, 400.0)]).unwrap();
        let curved = plain.with_transfer_curve(curve);
        let base = PlanRequest::grid3(8, 8, 64, 2, 2);
        let k_plain = PlanKey::of(&base.clone().with_machine(MachineSpec::Custom(plain)));
        let k_curved = PlanKey::of(&base.clone().with_machine(MachineSpec::Custom(curved)));
        assert_ne!(k_plain, k_curved, "curve must change the identity");
        assert!(!k_plain.canon().contains("cv["));
        assert!(k_curved.canon().contains("cv["));
        // Different knots → different keys.
        let other = PiecewiseCost::from_knots(&[(0.0, 50.0), (4096.0, 500.0)]).unwrap();
        let k_other =
            PlanKey::of(&base.with_machine(MachineSpec::Custom(plain.with_transfer_curve(other))));
        assert_ne!(k_curved, k_other);
    }

    #[test]
    fn key_equality_is_on_canonical_string() {
        let a = PlanKey::of(&PlanRequest::grid3(8, 8, 64, 2, 2));
        let b = PlanKey::of(&PlanRequest::grid3(8, 8, 64, 2, 2));
        assert_eq!(a, b);
        let c = PlanKey::of(&PlanRequest::grid3(8, 8, 128, 2, 2));
        assert_ne!(a, c);
        // Same hash but different canon must not compare equal.
        let forged = PlanKey {
            canon: "not-the-same".into(),
            hash: a.hash,
        };
        assert_ne!(a, forged);
    }
}
