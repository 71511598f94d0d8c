//! Intra-rank compute worker pool for the 3-D executors.
//!
//! One rank = one engine thread (the A/B communication lanes) plus
//! `compute_workers − 1` pool workers. Per tile, the engine publishes a
//! job and every thread — engine included, as worker 0 — takes a
//! contiguous share of each anti-diagonal of the tile cross-section,
//! evaluates its pencils as [`Wave`]s, and meets the others at a spin
//! barrier before the next diagonal. Pencils on one diagonal are
//! mutually independent (see [`crate::dist3d`]), so the split changes
//! only *who* computes a pencil, never the per-cell operation order:
//! pooled runs stay bitwise-equal to sequential on the pinned tier.
//!
//! **Pool workers never touch the communication lanes.** Every
//! send/receive — posting, waiting, packing, unpacking — happens on the
//! engine thread, outside [`TileOps::compute`]; in overlap mode the
//! sends it posted *before* compute are already staged in transport
//! slots, where the peer's receive progresses without any action from
//! this rank. Workers therefore need no access to the communicator, no
//! send ordering is perturbed, and the engine's lane bookkeeping
//! ([`crate::engine::LaneStats`]) keeps its single-threaded meaning.
//!
//! ## Storage and locking
//!
//! The block is the rank's pencils of the result array, borrowed (see
//! [`crate::dist3d::rank_pencils`]) and sharded one pencil per
//! [`RwLock`]: a worker write-locks the rows of its own wave and
//! read-locks their `i−1`/`j−1` neighbors. Writers lock only
//! current-diagonal rows, readers only previous-diagonal rows
//! (finished before the last barrier), so
//! no lock acquisition ever blocks — the locks exist to let the borrow
//! checker hand disjoint `&mut` rows to threads, not to arbitrate — and
//! no deadlock is possible. Workers are spawned **once per rank run**
//! (scoped threads) and park on a condvar between tiles; the steady-
//! state tile path allocates nothing (asserted by `tests/zero_alloc.rs`).

use crate::decomp::RankLinks;
use crate::dist3d::{self, Decomp3D, Pencils};
use crate::engine::TileOps;
use crate::halo;
use crate::kernel::{Kernel3D, KernelTier, Wave, MAX_WAVE};
use analyzer::RankTopology;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, RwLock, RwLockReadGuard};

/// Spin-then-yield barrier for the per-diagonal rendezvous. Diagonals
/// are microseconds apart, so parking would dominate; generation-based
/// so it is reusable without reset races.
struct WaveBarrier {
    parties: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl WaveBarrier {
    fn new(parties: usize) -> Self {
        WaveBarrier {
            parties,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arriver: reset the count *before* releasing the
            // generation — waiters re-enter only after observing the
            // new generation, so they never see a stale count.
            self.count.store(0, Ordering::Release);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins = spins.saturating_add(1);
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    // Oversubscribed host: give the peers our slice.
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Job mailbox: the engine bumps `seq` per tile; workers act on any
/// `seq` they have not seen yet (state-based, so a late waiter cannot
/// miss a wakeup).
struct Job {
    seq: u64,
    step: usize,
    quit: bool,
}

/// Per-rank shared compute state: the row-sharded block plus the job
/// mailbox and barrier the pool synchronizes on.
pub(crate) struct Shared<'g, K> {
    d: Decomp3D,
    kernel: K,
    tier: KernelTier,
    workers: usize,
    /// Block rows, `rows[i·by + j]` = the `(i, j)` pencil (`nz` long).
    rows: Vec<RwLock<&'g mut [f32]>>,
    /// Halo plane `i = own_lo_i − 1`, `by × nz` (engine writes between
    /// tiles, workers read during them — phases never overlap); empty
    /// on a rank with no upstream neighbor in `i`.
    halo_i: RwLock<Vec<f32>>,
    /// Halo plane `j = own_lo_j − 1`, `bx × nz`; empty likewise.
    halo_j: RwLock<Vec<f32>>,
    /// Boundary splat, `nz` long.
    brow: Vec<f32>,
    links: RankLinks,
    gi0: i64,
    gj0: i64,
    job: Mutex<Job>,
    cv: Condvar,
    barrier: WaveBarrier,
}

impl<'g, K: Kernel3D> Shared<'g, K> {
    pub(crate) fn new(
        d: Decomp3D,
        kernel: K,
        tier: KernelTier,
        workers: usize,
        rank: usize,
        rows: Pencils<'g>,
    ) -> Self {
        let links = RankLinks::of(&d, rank);
        let (ci, cj) = d.coords(rank);
        let [halo_i, halo_j] = dist3d::halo_planes(&d, &links).map(RwLock::new);
        Shared {
            d,
            kernel,
            tier,
            workers,
            rows: rows.into_iter().map(RwLock::new).collect(),
            halo_i,
            halo_j,
            brow: vec![d.boundary; d.nz],
            links,
            gi0: (ci * d.bx()) as i64,
            gj0: (cj * d.by()) as i64,
            job: Mutex::new(Job {
                seq: 0,
                step: 0,
                quit: false,
            }),
            cv: Condvar::new(),
            barrier: WaveBarrier::new(workers),
        }
    }

    /// Pool-worker body (workers `1..workers`; the engine is worker 0).
    pub(crate) fn worker_loop(&self, worker: usize, pin_core: Option<usize>) {
        if let Some(core) = pin_core {
            // Best-effort placement; failure is fine.
            let _ = msgpass::affinity::pin_current_thread(core);
        }
        let mut seen = 0u64;
        loop {
            let (seq, step, quit) = {
                let mut g = self.job.lock().unwrap();
                while !g.quit && g.seq == seen {
                    g = self.cv.wait(g).unwrap();
                }
                (g.seq, g.step, g.quit)
            };
            if quit {
                return;
            }
            seen = seq;
            self.run_tile(worker, step);
        }
    }

    /// Stop the pool (idempotent); workers drain out of `worker_loop`.
    pub(crate) fn shutdown(&self) {
        self.job.lock().unwrap().quit = true;
        self.cv.notify_all();
    }

    /// One thread's share of one tile: its slice of every anti-diagonal,
    /// with a barrier between diagonals.
    fn run_tile(&self, worker: usize, step: usize) {
        let (k0, k1) = self.d.krange(step);
        let len = k1 - k0;
        let (bx, by) = (self.d.bx(), self.d.by());
        let halo_i = self.halo_i.read().unwrap();
        let halo_j = self.halo_j.read().unwrap();
        for diag in 0..(bx + by - 1) {
            let i_lo = (diag + 1).saturating_sub(by);
            let i_hi = diag.min(bx - 1);
            let count = i_hi - i_lo + 1;
            let lo = i_lo + (count * worker) / self.workers;
            let hi = i_lo + (count * (worker + 1)) / self.workers;
            let mut i = lo;
            while i < hi {
                let m = (hi - i).min(MAX_WAVE);
                self.eval_wave_at(diag, i, m, k0, len, &halo_i, &halo_j);
                i += m;
            }
            self.barrier.wait();
        }
    }

    /// Lock and evaluate the wave of pencils `(i..i+m, diag−i..)`.
    #[allow(clippy::too_many_arguments)] // LINT: one coordinate per wave axis, mirrors eval_pencil's shape
    fn eval_wave_at(
        &self,
        diag: usize,
        i: usize,
        m: usize,
        k0: usize,
        len: usize,
        halo_i: &[f32],
        halo_j: &[f32],
    ) {
        let by = self.d.by();
        let nz = self.d.nz;
        // Lock phase: own rows exclusively, neighbor rows shared. None
        // of these can block (see module docs), they just prove
        // disjointness to the borrow checker.
        let mut ngi: [Option<RwLockReadGuard<'_, &mut [f32]>>; MAX_WAVE] =
            core::array::from_fn(|_| None);
        let mut ngj: [Option<RwLockReadGuard<'_, &mut [f32]>>; MAX_WAVE] =
            core::array::from_fn(|_| None);
        let mut own: [_; MAX_WAVE] = core::array::from_fn(|_| None);
        for p in 0..m {
            let ii = i + p;
            let jj = diag - ii;
            own[p] = Some(self.rows[ii * by + jj].write().unwrap());
            if ii > 0 {
                ngi[p] = Some(self.rows[(ii - 1) * by + jj].read().unwrap());
            }
            if jj > 0 {
                ngj[p] = Some(self.rows[ii * by + (jj - 1)].read().unwrap());
            }
        }
        let mut wave = Wave::new();
        for (p, og) in own[..m].iter_mut().enumerate() {
            let ii = i + p;
            let jj = diag - ii;
            let im1: &[f32] = match &ngi[p] {
                Some(g) => &g[k0..k0 + len],
                None if self.links.up[0].is_some() => &halo_i[jj * nz + k0..][..len],
                None => &self.brow[k0..k0 + len],
            };
            let jm1: &[f32] = match &ngj[p] {
                Some(g) => &g[k0..k0 + len],
                None if self.links.up[1].is_some() => &halo_j[ii * nz + k0..][..len],
                None => &self.brow[k0..k0 + len],
            };
            let row: &mut [f32] = og.as_mut().unwrap();
            let (below, at) = row.split_at_mut(k0);
            let km1 = if k0 > 0 {
                below[k0 - 1]
            } else {
                self.d.boundary
            };
            let (out, _) = at.split_at_mut(len);
            wave.push(
                self.gi0 + ii as i64,
                self.gj0 + jj as i64,
                k0 as i64,
                im1,
                jm1,
                km1,
                out,
            );
        }
        self.kernel.eval_wave_tier(self.tier, &mut wave);
    }
}

/// The engine thread's view of the pooled per-rank state. Faces are
/// packed/unpacked through the shard locks (engine thread, between
/// tiles — all row locks are free), and `compute` fans the tile out to
/// the pool: the engine participates as worker 0 and returns only when
/// the whole tile is done, so the lane schedule around it is unchanged.
impl<K: Kernel3D> TileOps for &Shared<'_, K> {
    fn num_dirs(&self) -> usize {
        self.d.num_dirs()
    }

    fn upstream(&self, dir: usize) -> Option<usize> {
        self.links.up[dir]
    }

    fn downstream(&self, dir: usize) -> Option<usize> {
        self.links.dn[dir]
    }

    fn wire_dir(&self, dir: usize) -> u64 {
        self.d.wire_dir(dir)
    }

    fn face_len(&self, dir: usize, step: usize) -> usize {
        self.d.face_len(self.links.rank, dir, step)
    }

    fn pack_into(&mut self, dir: usize, step: usize, out: &mut [f32]) {
        let (k0, k1) = self.d.krange(step);
        let len = k1 - k0;
        let (bx, by) = (self.d.bx(), self.d.by());
        if dir == 0 {
            for j in 0..by {
                let row = self.rows[(bx - 1) * by + j].read().unwrap();
                out[j * len..][..len].copy_from_slice(&row[k0..k1]);
            }
        } else {
            for i in 0..bx {
                let row = self.rows[i * by + (by - 1)].read().unwrap();
                out[i * len..][..len].copy_from_slice(&row[k0..k1]);
            }
        }
    }

    fn unpack_from(&mut self, dir: usize, step: usize, data: &[f32]) {
        let (k0, k1) = self.d.krange(step);
        let mut halo = if dir == 0 {
            self.halo_i.write().unwrap()
        } else {
            self.halo_j.write().unwrap()
        };
        halo::unpack_rows(data, &mut halo, 0, self.d.nz, k0, k1 - k0);
    }

    /// Publish tile `step` to the pool and compute the engine's own
    /// share; returns only when the whole tile is done (the final
    /// diagonal barrier is the completion rendezvous).
    fn compute(&mut self, step: usize) {
        {
            let mut g = self.job.lock().unwrap();
            g.seq += 1;
            g.step = step;
        }
        self.cv.notify_all();
        self.run_tile(0, step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn barrier_synchronizes_phases() {
        // 4 threads × many rounds: after leaving barrier round r, every
        // thread must observe all 4 arrivals of round r.
        let parties = 4;
        let b = WaveBarrier::new(parties);
        let hits = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..parties {
                s.spawn(|| {
                    for round in 1..=200u64 {
                        hits.fetch_add(1, Ordering::AcqRel);
                        b.wait();
                        let seen = hits.load(Ordering::Acquire);
                        assert!(
                            seen >= round * parties as u64,
                            "left barrier round {round} having seen only {seen} arrivals"
                        );
                        b.wait();
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Acquire), 200 * parties as u64);
    }
}
