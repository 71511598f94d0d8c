//! Concurrency tests of the compilation service: cache hit/miss
//! behavior, single-flight coalescing, and mixed compile/execute load
//! under at least eight client threads.

use planc::{
    Compiler, ExecOptions, JobRequest, JobResponse, PlanRequest, PlanService, Provenance,
    ServiceConfig,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// Eight threads release simultaneously on one key: exactly one
/// pipeline compilation runs; the other seven either coalesce onto the
/// flight or hit the cache, and all eight get the same artifact.
#[test]
fn single_flight_coalesces_identical_requests() {
    let c = Arc::new(Compiler::new(8));
    let barrier = Arc::new(Barrier::new(8));
    let req = PlanRequest::grid3(8, 8, 2048, 2, 2).with_v(8);
    let compiled = Arc::new(AtomicU64::new(0));
    let joined = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let c = Arc::clone(&c);
        let barrier = Arc::clone(&barrier);
        let req = req.clone();
        let compiled = Arc::clone(&compiled);
        let joined = Arc::clone(&joined);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let (a, how) = c.compile_with_provenance(&req);
            match how {
                Provenance::Compiled => compiled.fetch_add(1, Ordering::Relaxed),
                Provenance::Coalesced | Provenance::CacheHit => {
                    joined.fetch_add(1, Ordering::Relaxed)
                }
            };
            a.unwrap()
        }));
    }
    let artifacts: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(
        compiled.load(Ordering::Relaxed),
        1,
        "more than one thread compiled"
    );
    assert_eq!(joined.load(Ordering::Relaxed), 7);
    assert_eq!(c.stats().compiles, 1);
    for a in &artifacts[1..] {
        assert!(
            Arc::ptr_eq(&artifacts[0], a),
            "threads saw different artifacts"
        );
    }
}

/// Eight threads over four distinct keys (two threads each): exactly
/// four compilations, never eight.
#[test]
fn distinct_keys_compile_once_each() {
    let c = Arc::new(Compiler::new(8));
    let barrier = Arc::new(Barrier::new(8));
    let reqs = [
        PlanRequest::grid3(8, 8, 1024, 2, 2).with_v(8),
        PlanRequest::grid3(8, 8, 1024, 2, 2).with_v(16),
        PlanRequest::grid3(4, 4, 1024, 2, 2).with_v(8),
        PlanRequest::strip2(64, 16, 4).with_v(16),
    ];
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let c = Arc::clone(&c);
            let barrier = Arc::clone(&barrier);
            let req = reqs[i % 4].clone();
            std::thread::spawn(move || {
                barrier.wait();
                c.compile(&req).unwrap()
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(c.stats().compiles, 4);
    let stats = c.cache_stats();
    // Every non-compiling call was either a coalesce or a cache hit.
    assert_eq!(stats.hits + c.stats().coalesced, 4);
}

/// The full service under eight clients firing a mixed compile/execute
/// load: everything completes, repeats hit the cache, executes verify
/// bitwise against the sequential reference, and warm worlds get
/// reused.
#[test]
fn service_mixed_load_hits_and_misses() {
    let svc = Arc::new(PlanService::start(ServiceConfig {
        workers: 4,
        queue_cap: 128,
        cache_cap: 16,
    }));
    let reqs = [
        PlanRequest::grid3(8, 8, 256, 2, 2).with_v(64),
        PlanRequest::grid3(4, 4, 512, 2, 2).with_v(128),
        PlanRequest::strip2(64, 16, 4).with_v(16),
    ];
    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let svc = Arc::clone(&svc);
            let barrier = Arc::clone(&barrier);
            let reqs = reqs.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let mut tickets = Vec::new();
                for j in 0..6 {
                    let req = reqs[(i + j) % reqs.len()].clone();
                    let job = if (i + j) % 2 == 0 {
                        JobRequest::Execute(req, ExecOptions { verify: true })
                    } else {
                        JobRequest::Compile(req)
                    };
                    tickets.push(svc.try_submit(job).expect("queue_cap sized for the load"));
                }
                for t in tickets {
                    match t.wait().expect("job failed") {
                        JobResponse::Executed(_, out) => assert_eq!(out.verified, Some(true)),
                        JobResponse::Compiled(_) => {}
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let m = svc.metrics();
    assert_eq!(m.completed, 48);
    assert_eq!(m.rejected, 0);
    // Three distinct keys across 48 jobs: misses are bounded by
    // compiles + coalesces, and repeats must have hit.
    assert_eq!(m.compiler.compiles, 3);
    assert!(m.cache.hits > 0, "repeated load produced no cache hits");
    assert!(
        m.cache.hit_ratio() > 0.5,
        "hit ratio {:.2} too low for 3 keys / 48 jobs",
        m.cache.hit_ratio()
    );
    assert!(
        m.worlds.reused > 0,
        "execute jobs never reused a warm world"
    );
}

/// A strip plan runs on its unit-axis block, so repeated strip2
/// executes check a warm world out of the pool like any other plan
/// instead of building a fresh one each time.
#[test]
fn repeated_strip_executes_reuse_a_pooled_world() {
    let svc = PlanService::start(ServiceConfig {
        workers: 1,
        queue_cap: 8,
        cache_cap: 4,
    });
    let req = PlanRequest::strip2(37, 9, 3).with_v(8);
    for run in 0..3u64 {
        let job = JobRequest::Execute(req.clone(), ExecOptions { verify: true });
        match svc.try_submit(job).expect("queued").wait().expect("runs") {
            JobResponse::Executed(_, out) => assert_eq!(out.verified, Some(true), "run {run}"),
            JobResponse::Compiled(_) => unreachable!("an execute job executes"),
        }
        let worlds = svc.metrics().worlds;
        assert_eq!((worlds.created, worlds.reused), (1, run), "run {run}");
    }
}
