//! Shared-memory slot transport: per-directed-link SPSC rings of
//! fixed-capacity payload slots.
//!
//! A link is two structures:
//!
//! * a slot pool, owned by the sender: refcounted payload buffers,
//!   `slots` of them to start with. The sender claims a free slot
//!   (refcount 0 → 1), packs the payload **directly into it** while
//!   holding exclusive access, and wraps it in a [`SlotLease`] that
//!   travels inside the envelope. The receiver (and the reliability
//!   layer's ledger/duplicates) read straight out of the slot; the slot
//!   is not reclaimed until the last lease drops.
//! * an envelope ring, shared by both endpoints: a single-producer single-consumer circular
//!   buffer with cache-line-padded head/tail counters. The producer
//!   publishes with a release store of `tail`; the consumer acquires
//!   `tail` and releases `head`. No allocation per message — unlike an
//!   mpsc channel, which heap-allocates a queue node per send.
//!
//! A sender that finds every slot leased asks *why* before it waits.
//! It knows when each message it pushed leaves the wire
//! ([`Envelope::ready_at`]), so:
//!
//! * **every lease is still on the wire** — no consumer could have
//!   released one yet, and waiting would charge the wire's own hold time
//!   to the sender's CPU lane, which eq. 4's `A₁+A₂+A₃` never contains.
//!   The pool **grows** instead (a new chunk doubling it, up to
//!   [`MAX_SLOTS`]): the window follows the link's bandwidth-delay
//!   product, and is paid once, not per step;
//! * **some lease is past due** (or was never pushed: parked in a
//!   retransmission ledger) — the consumer is behind. The sender waits
//!   a bounded while for it to free a slot (the transport's
//!   backpressure — `wait_send` is eager, so nothing else throttles a
//!   producer that outruns its consumer) and then falls back to an
//!   owned heap copy. While the consumer still has envelopes queued on
//!   the link it is merely off a core, not wedged, so that wait
//!   stretches to [`BEHIND_WAIT_CAP`] instead of ending in a copy. A
//!   zero-latency world is always in this case: its messages are due
//!   the instant they are pushed, so its pools never grow.
//!
//! A full ring spills into a mutex-guarded overflow queue that preserves
//! link FIFO order (the producer keeps using the overflow until the
//! consumer has drained it).
//!
//! After a warm-up in which the window settles and each slot's buffer
//! grows to the payload size once, a steady-state halo exchange
//! performs **zero heap allocations** in the transport —
//! `tests/zero_alloc.rs` asserts this with a counting global allocator.

use crate::transport::{Envelope, LinkClosed, LinkRx, LinkTx, Payload, PoolStats};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pad to a cache line so the producer's `tail` and the consumer's
/// `head` never false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

/// One payload slot: a refcount and the buffer it guards.
///
/// Invariant: the buffer is only written between a successful claim
/// (`refs` 0 → 1 by the producer) and the creation of the first lease;
/// from then until `refs` returns to 0 every access is a shared read.
struct Slot<T> {
    refs: CachePadded<AtomicU32>,
    /// When the message last pushed from this slot leaves the wire, in
    /// nanoseconds after the chunk's `epoch`; 0 for a lease that is not
    /// on the wire at all (being staged, or parked in a retransmission
    /// ledger). Read and written by the sender alone (hence `Relaxed`),
    /// next to the buffer it has just filled; it only ever picks
    /// between growing and waiting — no access to `buf` depends on it.
    due_ns: AtomicU64,
    buf: UnsafeCell<Vec<T>>,
}

/// One append-only run of payload slots. A lease keeps its chunk
/// alive, so a slot outlives both endpoints for as long as anything
/// (stash, ledger, duplicate) still reads it.
struct Chunk<T> {
    /// Pool-wide index of `slots[0]`.
    base: usize,
    /// The pool's time origin: one zero for every chunk's `due_ns`.
    epoch: Instant,
    slots: Box<[Slot<T>]>,
}

// SAFETY: the refcount protocol above makes cross-thread access to the
// `UnsafeCell` buffers data-race-free; the payloads themselves only
// need to be sendable.
unsafe impl<T: Send + Sync> Send for Chunk<T> {}
// SAFETY: same protocol as `Send` above — shared references only reach
// a slot's buffer through a claimed lease or a positive refcount.
unsafe impl<T: Send + Sync> Sync for Chunk<T> {}

impl<T> Chunk<T> {
    fn new(base: usize, epoch: Instant, slots: usize) -> Arc<Self> {
        Arc::new(Chunk {
            base,
            epoch,
            slots: (0..slots)
                .map(|_| Slot {
                    refs: CachePadded(AtomicU32::new(0)),
                    due_ns: AtomicU64::new(0),
                    buf: UnsafeCell::new(Vec::new()),
                })
                .collect(),
        })
    }

    /// `at` on the `due_ns` clock (0 for anything at or before `epoch`).
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// Hard cap on a link's payload slots: a pool doubles from its
/// configured count up to this and no further.
pub(crate) const MAX_SLOTS: usize = 1024;

/// The payload slots of one directed link. Only the sender claims and
/// grows, so it owns the pool; the receiver and every other holder
/// reach a slot through a [`SlotLease`] on its chunk.
struct SlotPool<T> {
    /// Append-only, so a lease's `(chunk, offset)` stays valid across
    /// growth.
    chunks: Vec<Arc<Chunk<T>>>,
    /// Where the next claim starts scanning: the slot after the last
    /// one claimed, which on a FIFO link holds the oldest lease — the
    /// first to free.
    next: usize,
}

impl<T> SlotPool<T> {
    fn new(slots: usize) -> Self {
        SlotPool {
            chunks: vec![Chunk::new(0, Instant::now(), slots)],
            next: 0,
        }
    }

    fn total(&self) -> usize {
        let last = self.chunks.last().expect("a pool has a chunk");
        last.base + last.slots.len()
    }

    fn slot(&self, idx: usize) -> (&Arc<Chunk<T>>, usize) {
        let mut newest_first = self.chunks.iter().rev();
        let chunk = newest_first
            .find(|c| c.base <= idx)
            .expect("chunk 0 starts at slot 0");
        (chunk, idx - chunk.base)
    }

    /// Claim a free slot for exclusive filling: refcount 0 → 1 with
    /// acquire ordering, so the claim synchronizes with the release
    /// decrement of the lease that last used the slot. A leased slot
    /// is only read — a failed CAS would still take its cache line
    /// exclusive, against the receiver about to decrement it.
    fn claim(&mut self) -> Option<usize> {
        let total = self.total();
        let idx = (self.next..total).chain(0..self.next).find(|&idx| {
            let (chunk, off) = self.slot(idx);
            let refs = &chunk.slots[off].refs.0;
            refs.load(Ordering::Relaxed) == 0
                && refs
                    .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
        })?;
        self.next = if idx + 1 == total { 0 } else { idx + 1 };
        Some(idx)
    }

    /// Whether every slot holds a message that is still on the wire at
    /// `now`: nothing a consumer does could have freed one.
    fn held_by_wire(&self, now: Instant) -> bool {
        self.chunks.iter().all(|chunk| {
            let now_ns = chunk.ns(now);
            let mut slots = chunk.slots.iter();
            slots.all(|slot| slot.due_ns.load(Ordering::Relaxed) > now_ns)
        })
    }

    /// Double the pool (up to [`MAX_SLOTS`]); returns the slots added.
    fn grow(&mut self) -> usize {
        let total = self.total();
        let added = total.min(MAX_SLOTS.saturating_sub(total));
        if added > 0 {
            let epoch = self.chunks[0].epoch;
            self.chunks.push(Chunk::new(total, epoch, added));
            self.next = total;
        }
        added
    }
}

/// A zero-copy handle on a filled transport slot. Clones share the
/// slot (refcount bump); the slot returns to its pool when the last
/// lease drops. This is how a retransmission ledger entry, a duplicate
/// on the wire, and the original message all reference one buffer.
pub struct SlotLease<T> {
    chunk: Arc<Chunk<T>>,
    /// Offset within `chunk`.
    off: usize,
    len: usize,
}

impl<T> SlotLease<T> {
    /// Which pool slot this lease holds (model-check introspection).
    #[cfg(test)]
    pub(crate) fn slot_index(&self) -> usize {
        self.chunk.base + self.off
    }

    /// The leased payload.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: leases only exist after the producer finished writing
        // (see `Slot` invariant), so shared reads are race-free.
        unsafe {
            let buf: &Vec<T> = &*self.chunk.slots[self.off].buf.get();
            &buf[..self.len]
        }
    }
}

impl<T> Clone for SlotLease<T> {
    fn clone(&self) -> Self {
        // Relaxed suffices: a clone is always derived from a live lease,
        // so the count cannot concurrently hit zero.
        self.chunk.slots[self.off]
            .refs
            .0
            .fetch_add(1, Ordering::Relaxed);
        SlotLease {
            chunk: Arc::clone(&self.chunk),
            off: self.off,
            len: self.len,
        }
    }
}

impl<T> Drop for SlotLease<T> {
    fn drop(&mut self) {
        // Release pairs with the acquire CAS in `SlotPool::claim`: all
        // reads of this lease happen-before the slot's next refill.
        self.chunk.slots[self.off]
            .refs
            .0
            .fetch_sub(1, Ordering::Release);
    }
}

/// SPSC envelope ring with a FIFO-preserving mutex overflow.
struct Ring<T> {
    cells: Box<[UnsafeCell<MaybeUninit<Envelope<T>>>]>,
    /// Consumer cursor (monotonic; index = `head % capacity`).
    head: CachePadded<AtomicUsize>,
    /// Producer cursor.
    tail: CachePadded<AtomicUsize>,
    /// Set by the producer's drop; the consumer drains, then reports
    /// the link closed.
    closed: AtomicBool,
    /// Set by the consumer's drop; pushes start failing.
    rx_gone: AtomicBool,
    /// Spill queue for a full ring. The producer routes *every* push
    /// here while `overflow_len > 0`, so ring entries are always older
    /// than overflow entries and the consumer's ring-first drain order
    /// preserves link FIFO.
    overflow: Mutex<VecDeque<Envelope<T>>>,
    overflow_len: AtomicUsize,
}

// SAFETY: head/tail/overflow_len ordering makes cell handoff
// race-free; envelopes cross threads, so `T: Send` is required.
unsafe impl<T: Send + Sync> Send for Ring<T> {}
unsafe impl<T: Send + Sync> Sync for Ring<T> {}

impl<T> Ring<T> {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Ring {
            cells: (0..capacity.max(2))
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
            closed: AtomicBool::new(false),
            rx_gone: AtomicBool::new(false),
            overflow: Mutex::new(VecDeque::new()),
            overflow_len: AtomicUsize::new(0),
        })
    }

    /// Producer side. Never blocks: a full ring spills to the overflow
    /// queue instead.
    fn push(&self, env: Envelope<T>) {
        let cap = self.cells.len();
        let tail = self.tail.0.load(Ordering::Relaxed);
        if self.overflow_len.load(Ordering::Acquire) == 0
            && tail - self.head.0.load(Ordering::Acquire) < cap
        {
            // SAFETY: single producer, and `tail - head < cap` means the
            // consumer is done with this cell.
            unsafe { (*self.cells[tail % cap].get()).write(env) };
            self.tail.0.store(tail + 1, Ordering::Release);
            return;
        }
        // A poisoned overflow mutex (a peer panicked mid-queue-op) still
        // guards a structurally valid VecDeque — keep delivering rather
        // than cascading the panic across the link.
        let mut q = self.overflow.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(env);
        self.overflow_len.store(q.len(), Ordering::Release);
    }

    /// Producer side: whether the consumer is still there and has
    /// envelopes it has not popped yet.
    fn backlog(&self) -> bool {
        !self.rx_gone.load(Ordering::Acquire)
            && (self.head.0.load(Ordering::Acquire) < self.tail.0.load(Ordering::Relaxed)
                || self.overflow_len.load(Ordering::Acquire) > 0)
    }

    /// Consumer side: ring first, then overflow.
    fn try_pop(&self) -> Option<Envelope<T>> {
        let cap = self.cells.len();
        let head = self.head.0.load(Ordering::Relaxed);
        if head < self.tail.0.load(Ordering::Acquire) {
            // SAFETY: single consumer, and `head < tail` means the
            // producer published this cell.
            let env = unsafe { (*self.cells[head % cap].get()).assume_init_read() };
            self.head.0.store(head + 1, Ordering::Release);
            return Some(env);
        }
        if self.overflow_len.load(Ordering::Acquire) > 0 {
            let mut q = self.overflow.lock().unwrap_or_else(|e| e.into_inner());
            let env = q.pop_front();
            self.overflow_len.store(q.len(), Ordering::Release);
            return env;
        }
        None
    }
}

/// Unconsumed envelopes are dropped with the ring (their slot leases
/// release themselves).
impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        let cap = self.cells.len();
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        for i in head..tail {
            // SAFETY: exclusive access (last Arc holder), and cells in
            // `head..tail` are initialized.
            unsafe { self.cells[i % cap].get_mut().assume_init_drop() };
        }
    }
}

/// Cap of the backoff ladder's longest park — the same worst-case wait
/// as the fixed 20 µs sleep this ladder replaced.
const BACKOFF_CAP: Duration = Duration::from_micros(20);

/// Incremental backoff for the transport wait loops: spin briefly,
/// yield, then park in exponentially growing slices (1 µs doubling up
/// to [`BACKOFF_CAP`]). The exponential ramp is what keeps
/// oversubscribed worlds (more ranks than cores) from serializing on
/// sleeps: a consumer that frees a slot a microsecond after the
/// producer starts waiting costs the producer ~1 µs, not a fixed full
/// sleep quantum, while a long-wedged peer still converges to
/// cap-sized parks instead of burning the core.
#[derive(Default)]
pub(crate) struct Backoff {
    step: u32,
}

impl Backoff {
    fn snooze(&mut self) {
        if !self.spin_or_yield() {
            let exp = (self.step - 192).min(14);
            let park = Duration::from_micros(1u64 << exp).min(BACKOFF_CAP);
            std::thread::park_timeout(park);
            self.step = self.step.saturating_add(1);
        }
    }

    /// One step of the ladder's first two rungs — 64 spins, then 128
    /// yields — or `false` once both are used up and it is time to park.
    pub(crate) fn spin_or_yield(&mut self) -> bool {
        if self.step < 64 {
            std::hint::spin_loop();
        } else if self.step < 192 {
            std::thread::yield_now();
        } else {
            return false;
        }
        self.step += 1;
        true
    }
}

/// Sender half of a slot link.
pub(crate) struct SlotTx<T> {
    ring: Arc<Ring<T>>,
    pool: SlotPool<T>,
    /// The last stage found no slot even after its wait: until a claim
    /// succeeds again, waits stop at the budget instead of stretching
    /// to [`BEHIND_WAIT_CAP`], so a consumer that stopped popping costs
    /// the cap once, not once per send.
    stalled: bool,
}

/// Receiver half of a slot link.
pub(crate) struct SlotRx<T> {
    ring: Arc<Ring<T>>,
}

/// Build one directed slot link that starts with `slots` payload slots
/// (the envelope ring gets twice that, so it only overflows when the
/// initial window is oversubscribed).
pub(crate) fn make_slot_link<T: Send + Sync + 'static>(
    slots: usize,
) -> (Box<dyn LinkTx<T>>, Box<dyn LinkRx<T>>) {
    let (tx, rx) = make_slot_link_raw(slots);
    (Box::new(tx), Box::new(rx))
}

/// Like [`make_slot_link`], but returns the concrete halves — the
/// model checker (`crate::modelcheck`) drives the real endpoint types
/// and inspects slot refcounts through the sender.
pub(crate) fn make_slot_link_raw<T: Send + Sync + 'static>(slots: usize) -> (SlotTx<T>, SlotRx<T>) {
    let slots = slots.max(1);
    let ring = Ring::new(slots * 2);
    (
        SlotTx {
            ring: Arc::clone(&ring),
            pool: SlotPool::new(slots),
            stalled: false,
        },
        SlotRx { ring },
    )
}

/// How many backoff iterations a sender waits for a consumer that is
/// *behind* to free a pool slot before falling back to an owned copy
/// (~1 ms worst case): long enough that ordinary consumer lag always
/// resolves inside it — the wait *is* the transport's backpressure —
/// yet bounded so a lease parked forever (a fault-injected drop
/// awaiting retransmission) degrades the sender to copies instead of
/// deadlocking it. The wire's own hold time is never waited out here:
/// a pool held entirely by the wire grows.
const STAGE_WAIT_BUDGET: u32 = 256;

/// How long a sender keeps waiting past [`STAGE_WAIT_BUDGET`] while its
/// consumer still has envelopes queued on the link. Such a consumer is
/// behind, not wedged: it frees a slot as soon as it is scheduled
/// again, which on a loaded host can take longer than the budget's
/// ~1 ms. Copying instead would make a descheduled peer cost an
/// allocation per send.
const BEHIND_WAIT_CAP: Duration = Duration::from_millis(50);

impl<T: Send + Sync> SlotTx<T> {
    /// Number of payload slots right now (model-check introspection).
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.pool.total()
    }

    /// Current refcount of slot `idx` (model-check introspection).
    #[cfg(test)]
    pub(crate) fn ref_count(&self, idx: usize) -> u32 {
        let (chunk, off) = self.pool.slot(idx);
        chunk.slots[off].refs.0.load(Ordering::Acquire)
    }

    /// [`LinkTx::stage`] with an explicit wait budget. The model
    /// checker replays schedules on one thread, where no consumer can
    /// free a slot *during* the wait — it stages with budget 0 so an
    /// exhausted pool falls straight through to the owned-copy path
    /// instead of spinning out the full backoff per schedule.
    pub(crate) fn stage_with_budget(
        &mut self,
        stats: &mut PoolStats,
        fill: &mut dyn FnMut(&mut Vec<T>),
        wait_budget: u32,
    ) -> Payload<T> {
        let mut claimed = self.pool.claim();
        if claimed.is_none() && self.pool.held_by_wire(Instant::now()) {
            // Every slot is leased to a message that has not arrived
            // yet: the window is smaller than what the wire holds.
            stats.grown += self.pool.grow() as u64;
            claimed = self.pool.claim();
        }
        if claimed.is_none() {
            // Every slot is leased and the consumer could have freed
            // one: the producer has outrun it (there is no other
            // wire-level flow control — an eager-protocol `wait_send`
            // completes immediately). Wait a bounded while for the
            // consumer to release one.
            // A zero budget never waits: in the model checker's replays
            // no consumer runs during the wait.
            stats.stage_waits += 1;
            let mut backoff = Backoff::default();
            let deadline = Instant::now() + BEHIND_WAIT_CAP;
            let mut spent = 0;
            while spent < wait_budget
                || (wait_budget > 0
                    && !self.stalled
                    && self.ring.backlog()
                    && Instant::now() < deadline)
            {
                backoff.snooze();
                spent += 1;
                claimed = self.pool.claim();
                if claimed.is_some() {
                    break;
                }
            }
        }
        self.stalled = claimed.is_none();
        match claimed {
            Some(idx) => {
                let (chunk, off) = self.pool.slot(idx);
                let slot = &chunk.slots[off];
                // On no wire until `push` says so.
                slot.due_ns.store(0, Ordering::Relaxed);
                // SAFETY: the claim gives exclusive access until the
                // lease below is created.
                let buf = unsafe { &mut *slot.buf.get() };
                let cap = buf.capacity();
                fill(buf);
                if buf.capacity() == cap {
                    stats.recycled += 1;
                } else {
                    stats.fresh_allocs += 1; // slot grew: warm-up
                }
                let len = buf.len();
                Payload::Lease(SlotLease {
                    chunk: Arc::clone(chunk),
                    off,
                    len,
                })
            }
            None => {
                // Still nothing after the wait (a lease is parked in a
                // retransmission ledger, the consumer is truly wedged,
                // or the wire holds all `MAX_SLOTS`): fall back to an
                // owned copy so the sender never blocks forever on its
                // own pool.
                stats.fresh_allocs += 1;
                let mut buf = Vec::new();
                fill(&mut buf);
                Payload::Owned(buf)
            }
        }
    }
}

impl<T: Send + Sync> LinkTx<T> for SlotTx<T> {
    fn stage(&mut self, stats: &mut PoolStats, fill: &mut dyn FnMut(&mut Vec<T>)) -> Payload<T> {
        self.stage_with_budget(stats, fill, STAGE_WAIT_BUDGET)
    }

    fn push(&mut self, env: Envelope<T>) -> Result<(), LinkClosed> {
        if self.ring.rx_gone.load(Ordering::Acquire) {
            return Err(LinkClosed);
        }
        if let Payload::Lease(lease) = &env.payload {
            // A duplicate of the same slot leaves with the later one.
            let due_ns = &lease.chunk.slots[lease.off].due_ns;
            let at = lease.chunk.ns(env.ready_at);
            due_ns.store(due_ns.load(Ordering::Relaxed).max(at), Ordering::Relaxed);
        }
        self.ring.push(env);
        Ok(())
    }
}

impl<T> Drop for SlotTx<T> {
    fn drop(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
    }
}

impl<T: Send + Sync> LinkRx<T> for SlotRx<T> {
    fn try_pop(&mut self) -> Option<Envelope<T>> {
        self.ring.try_pop()
    }

    fn pop_blocking(&mut self) -> Result<Envelope<T>, LinkClosed> {
        let mut backoff = Backoff::default();
        loop {
            if let Some(env) = self.ring.try_pop() {
                return Ok(env);
            }
            if self.ring.closed.load(Ordering::Acquire) {
                // The close flag is set after the producer's last push,
                // so one more drain after observing it is definitive.
                return self.ring.try_pop().ok_or(LinkClosed);
            }
            backoff.snooze();
        }
    }

    fn pop_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope<T>>, LinkClosed> {
        let deadline = Instant::now() + timeout;
        let mut backoff = Backoff::default();
        loop {
            if let Some(env) = self.ring.try_pop() {
                return Ok(Some(env));
            }
            if self.ring.closed.load(Ordering::Acquire) {
                return match self.ring.try_pop() {
                    Some(env) => Ok(Some(env)),
                    None => Err(LinkClosed),
                };
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            backoff.snooze();
        }
    }

    fn reclaim(&mut self, payload: Payload<T>, stats: &mut PoolStats) {
        stats.returned += 1;
        // Dropping a lease releases its slot; owned overflow copies
        // just free.
        drop(payload);
    }
}

impl<T> Drop for SlotRx<T> {
    fn drop(&mut self) {
        self.ring.rx_gone.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Tag;

    fn env(tag: Tag, val: u32) -> Envelope<u32> {
        Envelope {
            tag,
            payload: Payload::Owned(vec![val]),
            seq: 0,
            ready_at: Instant::now(),
        }
    }

    #[test]
    fn ring_overflow_preserves_fifo() {
        // Capacity 2 ring (slots=1): push far more than fits, pop
        // everything, and demand exact FIFO order across the
        // ring → overflow → ring transitions.
        let (mut tx, mut rx) = make_slot_link::<u32>(1);
        let mut popped = Vec::new();
        for round in 0..4u32 {
            for i in 0..10u32 {
                tx.push(env(0, round * 10 + i)).expect("rx alive");
            }
            for _ in 0..7 {
                let e = rx.try_pop().expect("pushed more than popped");
                popped.push(e.payload.as_slice()[0]);
            }
        }
        while let Some(e) = rx.try_pop() {
            popped.push(e.payload.as_slice()[0]);
        }
        let expected: Vec<u32> = (0..4)
            .flat_map(|r| (0..10).map(move |i| r * 10 + i))
            .collect();
        assert_eq!(popped, expected);
    }

    #[test]
    fn exhausted_pool_falls_back_to_owned_copies() {
        let (mut tx, mut rx) = make_slot_link::<u32>(2);
        let mut stats = PoolStats::default();
        // Stage 5 payloads without consuming: 2 leases, then owned
        // fallbacks — all still delivered in order.
        for i in 0..5u32 {
            let p = tx.stage(&mut stats, &mut |buf| {
                buf.clear();
                buf.extend_from_slice(&[i]);
            });
            tx.push(Envelope {
                tag: 0,
                payload: p,
                seq: 0,
                ready_at: Instant::now(),
            })
            .expect("rx alive");
        }
        assert_eq!(stats.fresh_allocs, 5, "2 slot warm-ups + 3 fallback copies");
        assert_eq!(stats.stage_waits, 3, "each copy came after a bounded wait");
        assert_eq!(stats.grown, 0, "due at once: the consumer is behind");
        for i in 0..5u32 {
            let e = rx.try_pop().expect("queued");
            assert_eq!(e.payload.as_slice(), &[i]);
            rx.reclaim(e.payload, &mut stats);
        }
        assert_eq!(stats.returned, 5);
    }

    /// Stage one `u32` with no wait budget and push it as a message
    /// that leaves the wire `wire` from now.
    fn send_held(tx: &mut SlotTx<u32>, stats: &mut PoolStats, val: u32, wire: Duration) -> bool {
        let payload = tx.stage_with_budget(
            stats,
            &mut |buf| {
                buf.clear();
                buf.push(val);
            },
            0,
        );
        let leased = matches!(payload, Payload::Lease(_));
        tx.push(Envelope {
            tag: 0,
            payload,
            seq: 0,
            ready_at: Instant::now() + wire,
        })
        .expect("rx alive");
        leased
    }

    #[test]
    fn a_pool_held_by_the_wire_grows_to_the_cap_and_degrades_past_it() {
        // 768 slots, every message a minute from arriving: the first
        // 768 sends fill the pool, the next grows it by the 256 the cap
        // leaves (not by a doubling), and past 1024 the sender is back
        // on today's path — a (here zero-budget) wait, then a copy.
        const WIRE: Duration = Duration::from_secs(60);
        let (mut tx, mut rx) = make_slot_link_raw::<u32>(768);
        let mut stats = PoolStats::default();
        for i in 0..MAX_SLOTS as u32 {
            assert!(send_held(&mut tx, &mut stats, i, WIRE), "message {i}");
        }
        assert_eq!((tx.slot_count(), stats.grown), (MAX_SLOTS, 256));
        assert_eq!(stats.stage_waits, 0);
        for i in 0..3 {
            assert!(!send_held(&mut tx, &mut stats, MAX_SLOTS as u32 + i, WIRE));
        }
        assert_eq!((tx.slot_count(), stats.grown), (MAX_SLOTS, 256));
        assert_eq!(stats.stage_waits, 3);
        assert_eq!(stats.fresh_allocs, MAX_SLOTS as u64 + 3);
        // Everything arrives in order across ring, overflow and chunks,
        // and every slot of every chunk comes back.
        for i in 0..MAX_SLOTS as u32 + 3 {
            let e = rx.try_pop().expect("queued");
            assert_eq!(e.payload.as_slice(), &[i]);
            rx.reclaim(e.payload, &mut stats);
        }
        assert!((0..MAX_SLOTS).all(|idx| tx.ref_count(idx) == 0));
        // A freed pool is a pool again: no wait, no growth, no copy.
        assert!(send_held(&mut tx, &mut stats, 0, WIRE));
        assert_eq!((stats.stage_waits, stats.recycled), (3, 1));
    }

    #[test]
    fn one_past_due_lease_means_wait_not_growth() {
        // Two slots on the wire, one already due: the consumer could
        // have freed it, so the sender must not buy its way out.
        let (mut tx, _rx) = make_slot_link_raw::<u32>(3);
        let mut stats = PoolStats::default();
        assert!(send_held(&mut tx, &mut stats, 0, Duration::from_secs(60)));
        assert!(send_held(&mut tx, &mut stats, 1, Duration::ZERO));
        assert!(send_held(&mut tx, &mut stats, 2, Duration::from_secs(60)));
        assert!(!send_held(&mut tx, &mut stats, 3, Duration::from_secs(60)));
        assert_eq!((tx.slot_count(), stats.grown, stats.stage_waits), (3, 0, 1));
    }

    #[test]
    fn slot_is_not_reused_while_a_lease_is_parked() {
        let (mut tx, _rx) = make_slot_link::<u32>(1);
        let mut stats = PoolStats::default();
        let first = tx.stage(&mut stats, &mut |buf| {
            buf.clear();
            buf.extend_from_slice(&[7, 8]);
        });
        let mut first = first;
        let parked = first.share(); // e.g. a retransmission-ledger entry
        drop(first); // wire copy consumed
                     // The slot still has a live lease: staging again must not
                     // scribble over it.
        let second = tx.stage(&mut stats, &mut |buf| {
            buf.clear();
            buf.extend_from_slice(&[9, 9]);
        });
        assert_eq!(parked.as_slice(), &[7, 8], "parked lease untouched");
        assert!(
            matches!(second, Payload::Owned(_)),
            "exhausted pool must fall back to an owned copy"
        );
        drop(parked);
        // Lease released: the slot (and its warm buffer) is reusable.
        let third = tx.stage(&mut stats, &mut |buf| {
            buf.clear();
            buf.extend_from_slice(&[1, 2]);
        });
        assert!(matches!(third, Payload::Lease(_)));
        assert_eq!(third.as_slice(), &[1, 2]);
    }

    #[test]
    fn steady_state_staging_recycles_slot_buffers() {
        let (mut tx, mut rx) = make_slot_link::<f32>(4);
        let mut stats = PoolStats::default();
        for step in 0..100 {
            let p = tx.stage(&mut stats, &mut |buf| {
                buf.clear();
                buf.resize(64, step as f32);
            });
            tx.push(Envelope {
                tag: step,
                payload: p,
                seq: 0,
                ready_at: Instant::now(),
            })
            .expect("rx alive");
            let e = rx.try_pop().expect("lockstep");
            assert_eq!(e.payload.len(), 64);
            rx.reclaim(e.payload, &mut stats);
        }
        // Lockstep walks the 4 slots round-robin: one warm-up growth
        // each, then nothing but reuse.
        assert_eq!(stats.fresh_allocs, 4, "{stats:?}");
        assert_eq!(stats.recycled, 96, "{stats:?}");
        assert_eq!(stats.returned, 100, "{stats:?}");
    }

    #[test]
    fn closed_link_reports_after_draining() {
        let (mut tx, mut rx) = make_slot_link::<u32>(2);
        tx.push(env(1, 42)).expect("rx alive");
        drop(tx);
        let e = rx
            .pop_timeout(Duration::from_millis(100))
            .expect("message before close")
            .expect("not a timeout");
        assert_eq!(e.payload.as_slice(), &[42]);
        assert!(rx.pop_blocking().is_err(), "drained + closed");
        assert!(rx.pop_timeout(Duration::from_millis(1)).is_err());
    }

    #[test]
    fn push_to_dropped_receiver_fails() {
        let (mut tx, rx) = make_slot_link::<u32>(2);
        drop(rx);
        assert!(tx.push(env(0, 1)).is_err());
    }

    #[test]
    fn cross_thread_spsc_delivers_everything_in_order() {
        let (mut tx, mut rx) = make_slot_link::<u64>(4);
        const N: u64 = 10_000;
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut stats = PoolStats::default();
                for i in 0..N {
                    let p = tx.stage(&mut stats, &mut |buf| {
                        buf.clear();
                        buf.extend_from_slice(&[i]);
                    });
                    tx.push(Envelope {
                        tag: 0,
                        payload: p,
                        seq: 0,
                        ready_at: Instant::now(),
                    })
                    .expect("rx alive");
                }
            });
            let mut stats = PoolStats::default();
            for i in 0..N {
                let e = rx.pop_blocking().expect("producer sends N");
                assert_eq!(e.payload.as_slice(), &[i]);
                rx.reclaim(e.payload, &mut stats);
            }
            assert!(rx.pop_blocking().is_err(), "producer dropped");
        });
    }
}
