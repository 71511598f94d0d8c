//! The caching, batching compiler: keyed cache + single-flight.
//!
//! [`Compiler`] wraps the staged pipeline with two service-grade
//! behaviors:
//!
//! * **keyed cache** — compiled artifacts are parked in a
//!   [`PlanCache`] under their [`PlanKey`]; identical requests return
//!   the same immutable `Arc<PlanArtifact>` without recompiling.
//! * **single-flight batching** — concurrent requests for the same key
//!   coalesce onto one in-flight compilation: the first caller
//!   compiles, everyone else blocks on the flight and shares its
//!   outcome (success *or* typed error — `CompileError` is `Clone`
//!   exactly for this).

use crate::artifact::PlanArtifact;
use crate::cache::{CacheStats, PlanCache, PlanKey};
use crate::error::CompileError;
use crate::pipeline;
use crate::spec::PlanRequest;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// How a compile call was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Found compiled in the cache.
    CacheHit,
    /// Coalesced onto another caller's in-flight compilation.
    Coalesced,
    /// Compiled here.
    Compiled,
}

struct Flight {
    done: Mutex<Option<Result<Arc<PlanArtifact>, CompileError>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn finish(&self, outcome: Result<Arc<PlanArtifact>, CompileError>) {
        *crate::lock(&self.done) = Some(outcome);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<PlanArtifact>, CompileError> {
        let mut g = crate::lock(&self.done);
        loop {
            if let Some(done) = g.as_ref() {
                return done.clone();
            }
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Compiler counters (cache counters live in [`CacheStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompilerStats {
    /// Pipeline compilations actually run.
    pub compiles: u64,
    /// Calls coalesced onto another caller's flight.
    pub coalesced: u64,
}

/// See the module docs.
pub struct Compiler {
    cache: PlanCache,
    inflight: Mutex<HashMap<PlanKey, Arc<Flight>>>,
    compiles: AtomicU64,
    coalesced: AtomicU64,
}

impl Compiler {
    /// A compiler whose cache holds at most `cache_cap` plans.
    pub fn new(cache_cap: usize) -> Self {
        Compiler {
            cache: PlanCache::new(cache_cap),
            inflight: Mutex::new(HashMap::new()),
            compiles: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Compile (or fetch) the artifact for `req`.
    pub fn compile(&self, req: &PlanRequest) -> Result<Arc<PlanArtifact>, CompileError> {
        self.compile_with_provenance(req).0
    }

    /// [`Compiler::compile`], also reporting how the call was
    /// satisfied.
    pub fn compile_with_provenance(
        &self,
        req: &PlanRequest,
    ) -> (Result<Arc<PlanArtifact>, CompileError>, Provenance) {
        let key = PlanKey::of(req);
        if let Some(hit) = self.cache.get(&key) {
            return (Ok(hit), Provenance::CacheHit);
        }
        // Miss: join or open the flight for this key.
        let (flight, leader) = {
            let mut g = crate::lock(&self.inflight);
            match g.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    // Double-check the cache under the lock: a flight
                    // retires only after publishing its artifact, so a
                    // racing miss taken just before the retirement must
                    // land here as a hit, not a second compilation.
                    if let Some(hit) = self.cache.get_recheck(&key) {
                        return (Ok(hit), Provenance::CacheHit);
                    }
                    let f = Arc::new(Flight::new());
                    g.insert(key.clone(), Arc::clone(&f));
                    (f, true)
                }
            }
        };
        if !leader {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return (flight.wait(), Provenance::Coalesced);
        }
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let outcome = pipeline::compile(req).map(Arc::new);
        if let Ok(a) = &outcome {
            self.cache.insert(key.clone(), Arc::clone(a));
        }
        // Publish to waiters, then close the flight so later misses
        // (e.g. after an eviction or an error) compile afresh.
        flight.finish(outcome.clone());
        crate::lock(&self.inflight).remove(&key);
        (outcome, Provenance::Compiled)
    }

    /// Cache counters and occupancy.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Compiler counters.
    pub fn stats(&self) -> CompilerStats {
        CompilerStats {
            compiles: self.compiles.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_call_hits_cache() {
        let c = Compiler::new(8);
        let req = PlanRequest::grid3(8, 8, 64, 2, 2).with_v(16);
        let (a, p1) = c.compile_with_provenance(&req);
        assert_eq!(p1, Provenance::Compiled);
        let (b, p2) = c.compile_with_provenance(&req);
        assert_eq!(p2, Provenance::CacheHit);
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
        assert_eq!(c.stats().compiles, 1);
    }

    #[test]
    fn errors_are_shared_but_not_cached() {
        let c = Compiler::new(8);
        let bad = PlanRequest::grid3(9, 8, 64, 2, 2); // 9 % 2 != 0
        assert!(c.compile(&bad).is_err());
        assert!(c.compile(&bad).is_err());
        // Both calls compiled (errors don't enter the cache).
        assert_eq!(c.stats().compiles, 2);
        assert_eq!(c.cache_stats().hits, 0);
    }
}
