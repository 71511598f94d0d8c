//! Exhaustive interleaving checks of the slot-ring transport and of the
//! rank-thread handoff.
//!
//! The cross-thread stress tests exercise *some* interleavings of
//! [`crate::slot_transport`]; this module drives the **real**
//! `SlotTx`/`SlotRx` endpoints through [`miniloom`] to execute *every*
//! producer/consumer merge order at operation granularity and prove,
//! for each one:
//!
//! * **no double-claim** — a freshly claimed slot is never one that a
//!   live lease (staged, on the wire, or held by the consumer) still
//!   references;
//! * **no ABA reuse** — every live payload still holds exactly the
//!   generation value it was staged with, after every step;
//! * **refcount exactness** — each tracked live lease's slot counts
//!   exactly 1 reference and every other slot counts 0;
//! * **no lost slot** — after draining, all messages arrived in FIFO
//!   order with intact contents and every slot refcount returned to 0.
//!
//! The wire-held variant ([`SlotRingModel::wire_held`]) stamps every
//! message as still on the wire, so a producer that finds its pool
//! exhausted **grows** it mid-schedule: the same four properties then
//! range over every chunk, a lease issued before a grow must still
//! read its own generation after it, and no stage may fall back to a
//! copy — while the plain variant must never grow at all.
//!
//! [`HandoffModel`] checks the other protocol here with a wait in it:
//! how a world's launching thread hands a run to a resident rank
//! thread and waits for it (post, unpark, park, re-read) — no
//! interleaving loses the wakeup, and the job's result is ordered
//! before the caller reads it.
//!
//! The schedules are replayed on one thread, so these checks cover the
//! *protocol logic* (claim/stage/publish/consume/release ordering);
//! the memory-ordering correctness of the individual atomics is
//! covered separately (`cargo miri test -p msgpass` in `ci.sh`, plus
//! the cross-thread stress tests).

use crate::slot_transport::{make_slot_link_raw, SlotRx, SlotTx};
use crate::transport::{Envelope, LinkRx, LinkTx, Payload, PoolStats};
use miniloom::CheckOptions;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Elements per staged payload — enough to make a scribbled buffer
/// visible, small enough to keep replays cheap.
const PAYLOAD_LEN: usize = 3;

/// The slot-ring protocol as a [`miniloom::Model`]: a producer thread
/// staging and pushing `messages` generation-stamped payloads, and a
/// consumer thread alternating pops with lease releases.
struct SlotRingModel {
    /// Payload slots the link starts with (ring capacity is twice
    /// this).
    slots: usize,
    /// Messages the producer stages and pushes.
    messages: usize,
    /// How long after its push a message leaves the wire. Zero: every
    /// lease is past due at once and the pool must keep its size.
    wire: Duration,
    /// Test hook: skip the final lease release so the lost-slot
    /// invariant must fire.
    leak_one: bool,
}

impl SlotRingModel {
    /// A model of a `slots`-slot zero-latency link carrying `messages`
    /// messages.
    fn new(slots: usize, messages: usize) -> Self {
        SlotRingModel {
            slots,
            messages,
            wire: Duration::ZERO,
            leak_one: false,
        }
    }

    /// The same link with every message still on the wire for the whole
    /// exploration: an exhausted pool grows instead of copying.
    fn wire_held(slots: usize, messages: usize) -> Self {
        SlotRingModel {
            wire: Duration::from_secs(3600),
            ..SlotRingModel::new(slots, messages)
        }
    }
}

/// One execution's state: the real link endpoints plus the shadow
/// bookkeeping the invariants are phrased over.
struct RingState {
    tx: SlotTx<u32>,
    rx: SlotRx<u32>,
    stats: PoolStats,
    /// Staged but not yet pushed: (generation, payload).
    staged: VecDeque<(u32, Payload<u32>)>,
    /// Pushed but not yet popped: (generation, slot index if leased).
    wire: VecDeque<(u32, Option<usize>)>,
    /// Popped but not yet released: (generation, payload).
    held: VecDeque<(u32, Payload<u32>)>,
    /// Next generation the consumer must observe (FIFO check).
    next_pop: u32,
}

impl RingState {
    /// Slot indices of every live lease the shadow state tracks.
    fn live_slots(&self) -> Vec<usize> {
        let staged = self.staged.iter().filter_map(|(_, p)| lease_slot(p));
        let wire = self.wire.iter().filter_map(|(_, idx)| *idx);
        let held = self.held.iter().filter_map(|(_, p)| lease_slot(p));
        staged.chain(wire).chain(held).collect()
    }

    /// Pop one envelope off the real link and run the FIFO + content
    /// checks; `Ok(false)` when the link is currently empty.
    fn pop_checked(&mut self) -> Result<bool, String> {
        let Some(env) = self.rx.try_pop() else {
            return Ok(false);
        };
        let Some((gen, _)) = self.wire.pop_front() else {
            return Err(format!("popped tag {} but nothing is on the wire", env.tag));
        };
        if env.tag != u64::from(gen) || gen != self.next_pop {
            return Err(format!(
                "FIFO violated: expected generation {}, popped tag {} (wire says {gen})",
                self.next_pop, env.tag
            ));
        }
        check_contents("popped", gen, &env.payload)?;
        self.next_pop += 1;
        self.held.push_back((gen, env.payload));
        Ok(true)
    }
}

/// The slot index behind a payload, when it is a lease.
fn lease_slot(p: &Payload<u32>) -> Option<usize> {
    match p {
        Payload::Lease(l) => Some(l.slot_index()),
        Payload::Owned(_) | Payload::Shared(_) => None,
    }
}

/// ABA check: a payload staged with generation `gen` must still read
/// as `[gen; PAYLOAD_LEN]`.
fn check_contents(what: &str, gen: u32, p: &Payload<u32>) -> Result<(), String> {
    let s = p.as_slice();
    if s.len() != PAYLOAD_LEN || s.iter().any(|&v| v != gen) {
        return Err(format!(
            "{what} payload of generation {gen} was scribbled over: {s:?}"
        ));
    }
    Ok(())
}

impl miniloom::Model for SlotRingModel {
    type State = RingState;

    fn init(&self) -> RingState {
        let (tx, rx) = make_slot_link_raw(self.slots);
        RingState {
            tx,
            rx,
            stats: PoolStats::default(),
            staged: VecDeque::new(),
            wire: VecDeque::new(),
            held: VecDeque::new(),
            next_pop: 0,
        }
    }

    fn threads(&self) -> usize {
        2
    }

    fn steps(&self, _tid: usize) -> usize {
        // Producer: stage + push per message. Consumer: a pop attempt
        // and a release attempt per message (the finalizer drains
        // whatever a schedule's attempts missed).
        2 * self.messages
    }

    fn step(&self, state: &mut RingState, tid: usize, idx: usize) -> Result<(), String> {
        if tid == 0 {
            if idx.is_multiple_of(2) {
                // Stage generation `idx / 2`. Budget 0: in a replayed
                // schedule no consumer runs *during* the wait, so
                // waiting could never succeed — an exhausted pool goes
                // straight to the owned-copy path (which is itself an
                // interleaving worth covering).
                let gen = (idx / 2) as u32;
                let live = state.live_slots();
                let payload = state.tx.stage_with_budget(
                    &mut state.stats,
                    &mut |buf| {
                        buf.clear();
                        buf.resize(PAYLOAD_LEN, gen);
                    },
                    0,
                );
                match lease_slot(&payload) {
                    Some(idx) if live.contains(&idx) => {
                        return Err(format!(
                            "double-claim: stage of generation {gen} returned slot {idx}, \
                             already referenced by a live lease"
                        ));
                    }
                    None if !self.wire.is_zero() => {
                        return Err(format!(
                            "stage of generation {gen} copied although the wire held every slot"
                        ));
                    }
                    _ => {}
                }
                state.staged.push_back((gen, payload));
            } else if let Some((gen, payload)) = state.staged.pop_front() {
                let slot = lease_slot(&payload);
                state
                    .tx
                    .push(Envelope {
                        tag: u64::from(gen),
                        payload,
                        seq: 0,
                        ready_at: Instant::now() + self.wire,
                    })
                    .map_err(|_| "receiver vanished mid-run".to_string())?;
                state.wire.push_back((gen, slot));
            }
        } else if idx.is_multiple_of(2) {
            state.pop_checked()?;
        } else if let Some((gen, payload)) = state.held.pop_front() {
            check_contents("held", gen, &payload)?;
            state.rx.reclaim(payload, &mut state.stats);
        }
        Ok(())
    }

    fn invariant(&self, state: &RingState) -> Result<(), String> {
        // Refcount exactness: every tracked live lease holds exactly
        // one reference to a distinct slot; all other slots are free.
        let mut live = state.live_slots();
        live.sort_unstable();
        if live.windows(2).any(|w| w[0] == w[1]) {
            return Err(format!("two live leases share a slot: {live:?}"));
        }
        for idx in 0..state.tx.slot_count() {
            let refs = state.tx.ref_count(idx);
            let expected = u32::from(live.contains(&idx));
            if refs != expected {
                return Err(format!(
                    "slot {idx} refcount {refs}, expected {expected} (live: {live:?})"
                ));
            }
        }
        // ABA: every live payload still carries its generation.
        for (gen, p) in state.staged.iter().chain(state.held.iter()) {
            check_contents("live", *gen, p)?;
        }
        Ok(())
    }

    fn finalize(&self, state: &mut RingState) -> Result<(), String> {
        // Drain whatever this schedule's pop attempts missed.
        while state.pop_checked()? {}
        while let Some((gen, payload)) = state.held.pop_front() {
            check_contents("held", gen, &payload)?;
            if self.leak_one && state.held.is_empty() {
                std::mem::forget(payload); // deliberate leak (test hook)
            } else {
                state.rx.reclaim(payload, &mut state.stats);
            }
        }
        if state.next_pop != self.messages as u32 {
            return Err(format!(
                "lost message: only {} of {} arrived",
                state.next_pop, self.messages
            ));
        }
        // Lost-slot check: with no live leases left, every slot's
        // refcount must have returned to 0.
        for idx in 0..state.tx.slot_count() {
            let refs = state.tx.ref_count(idx);
            if refs != 0 {
                return Err(format!(
                    "lost slot: slot {idx} still holds {refs} reference(s)"
                ));
            }
        }
        let grown = state.tx.slot_count() - self.slots;
        if grown as u64 != state.stats.grown || (self.wire.is_zero() && grown > 0) {
            return Err(format!(
                "pool grew by {grown} slot(s), counted {}, wire time {:?}",
                state.stats.grown, self.wire
            ));
        }
        Ok(())
    }
}

/// The slot transport with a retransmission ledger as a 3-participant
/// [`miniloom::Model`]: a producer (tid 0) that parks a zero-copy
/// ledger handle ([`Payload::share`]) for every message it pushes, a
/// consumer (tid 1) that deduplicates by tag, and a retransmitter
/// (tid 2) that either *drops* the front ledger lease once the
/// consumer has acknowledged its generation, or pushes a duplicate of
/// it onto the same wire.
///
/// On top of [`SlotRingModel`]'s refcount/ABA machinery this proves
/// the duplicate path: a slot referenced by the ledger, the wire copy,
/// *and* a retransmitted duplicate must count exactly that many
/// references, and the consumer must discard stale duplicates without
/// miscounting deliveries.
struct SlotRetransModel {
    /// Payload slots per link.
    slots: usize,
    /// Messages the producer stages and pushes.
    messages: usize,
    /// Seeded bug: the retransmitter re-stamps each duplicate with a
    /// *fresh* tag instead of the original generation, so the consumer
    /// counts a stale buffer as a new delivery.
    blind_retransmit: bool,
}

impl SlotRetransModel {
    /// A model of a `slots`-slot link carrying `messages` messages
    /// with a correct, ack-respecting retransmitter.
    fn new(slots: usize, messages: usize) -> Self {
        SlotRetransModel {
            slots,
            messages,
            blind_retransmit: false,
        }
    }

    /// The deliberately buggy variant: duplicates are re-tagged as
    /// fresh generations. The checker must report a violating schedule.
    fn seeded_blind_retransmit(slots: usize, messages: usize) -> Self {
        SlotRetransModel {
            blind_retransmit: true,
            ..SlotRetransModel::new(slots, messages)
        }
    }
}

/// One shadow record of an envelope currently on the wire.
struct WireEntry {
    /// True generation of the buffer contents.
    gen: u32,
    /// Tag actually stamped on the envelope (differs from `gen` only
    /// for the seeded blind-retransmit bug).
    tag: u64,
    /// Slot index if the payload is a lease.
    slot: Option<usize>,
}

/// One execution's state for [`SlotRetransModel`].
struct RetransState {
    tx: SlotTx<u32>,
    rx: SlotRx<u32>,
    stats: PoolStats,
    /// Staged but not yet pushed (at most one: stage/push alternate).
    staged: Option<(u32, Payload<u32>)>,
    /// Parked ledger handles, oldest generation first.
    ledger: VecDeque<(u32, Payload<u32>)>,
    /// Envelopes pushed but not yet popped, in wire FIFO order.
    wire: VecDeque<WireEntry>,
    /// Fresh deliveries popped but not yet released.
    held: VecDeque<(u32, Payload<u32>)>,
    /// Next fresh generation the consumer expects.
    next_pop: u32,
    /// Tag counter for the seeded blind-retransmit bug.
    restamp: u64,
}

impl RetransState {
    /// Slot index and multiplicity of every live lease handle.
    fn live_slot_counts(&self, slot_count: usize) -> Vec<u32> {
        let mut counts = vec![0u32; slot_count];
        let staged = self.staged.iter().filter_map(|(_, p)| lease_slot(p));
        let ledger = self.ledger.iter().filter_map(|(_, p)| lease_slot(p));
        let wire = self.wire.iter().filter_map(|e| e.slot);
        let held = self.held.iter().filter_map(|(_, p)| lease_slot(p));
        for idx in staged.chain(ledger).chain(wire).chain(held) {
            counts[idx] += 1;
        }
        counts
    }

    /// Pop one envelope and run the receiver's dedup logic: a tag equal
    /// to the expected generation is a fresh delivery, a smaller tag is
    /// a stale duplicate to discard, a larger one is a protocol error.
    fn pop_checked(&mut self) -> Result<bool, String> {
        let Some(env) = self.rx.try_pop() else {
            return Ok(false);
        };
        let Some(entry) = self.wire.pop_front() else {
            return Err(format!("popped tag {} but nothing is on the wire", env.tag));
        };
        if env.tag != entry.tag {
            return Err(format!(
                "wire reordered: popped tag {}, shadow front says {}",
                env.tag, entry.tag
            ));
        }
        if env.tag == u64::from(self.next_pop) {
            // Fresh delivery: the buffer must carry the tag's data.
            check_contents("delivered", env.tag as u32, &env.payload)?;
            self.next_pop += 1;
            self.held.push_back((entry.gen, env.payload));
        } else if env.tag < u64::from(self.next_pop) {
            // Stale duplicate: verify and discard immediately.
            check_contents("duplicate", entry.gen, &env.payload)?;
            self.rx.reclaim(env.payload, &mut self.stats);
        } else {
            return Err(format!(
                "message from the future: tag {} while expecting generation {}",
                env.tag, self.next_pop
            ));
        }
        Ok(true)
    }
}

impl miniloom::Model for SlotRetransModel {
    type State = RetransState;

    fn init(&self) -> RetransState {
        let (tx, rx) = make_slot_link_raw(self.slots);
        RetransState {
            tx,
            rx,
            stats: PoolStats::default(),
            staged: None,
            ledger: VecDeque::new(),
            wire: VecDeque::new(),
            held: VecDeque::new(),
            next_pop: 0,
            restamp: self.messages as u64,
        }
    }

    fn threads(&self) -> usize {
        3
    }

    fn steps(&self, tid: usize) -> usize {
        match tid {
            // Producer stages + pushes, consumer pops + releases.
            0 | 1 => 2 * self.messages,
            // Retransmitter: one ledger action per message.
            _ => self.messages,
        }
    }

    fn step(&self, state: &mut RetransState, tid: usize, idx: usize) -> Result<(), String> {
        match tid {
            0 => {
                if idx.is_multiple_of(2) {
                    // Stage generation idx/2 and park a ledger handle on
                    // the same buffer before it ever hits the wire.
                    let gen = (idx / 2) as u32;
                    let mut payload = state.tx.stage_with_budget(
                        &mut state.stats,
                        &mut |buf| {
                            buf.clear();
                            buf.resize(PAYLOAD_LEN, gen);
                        },
                        0,
                    );
                    state.ledger.push_back((gen, payload.share()));
                    state.staged = Some((gen, payload));
                } else if let Some((gen, payload)) = state.staged.take() {
                    let slot = lease_slot(&payload);
                    state
                        .tx
                        .push(Envelope {
                            tag: u64::from(gen),
                            payload,
                            seq: 0,
                            ready_at: Instant::now(),
                        })
                        .map_err(|_| "receiver vanished mid-run".to_string())?;
                    state.wire.push_back(WireEntry {
                        gen,
                        tag: u64::from(gen),
                        slot,
                    });
                }
            }
            1 => {
                if idx.is_multiple_of(2) {
                    state.pop_checked()?;
                } else if let Some((gen, payload)) = state.held.pop_front() {
                    check_contents("held", gen, &payload)?;
                    state.rx.reclaim(payload, &mut state.stats);
                }
            }
            _ => {
                let acked = state
                    .ledger
                    .front()
                    .is_some_and(|(gen, _)| *gen < state.next_pop);
                if acked {
                    // The consumer confirmed this generation: drop the
                    // parked lease so the slot can recycle.
                    state.ledger.pop_front();
                } else if let Some((gen, payload)) = state.ledger.front_mut() {
                    // Unacked: push a zero-copy duplicate.
                    let dup = payload.share();
                    let slot = lease_slot(&dup);
                    let gen = *gen;
                    let tag = if self.blind_retransmit {
                        let t = state.restamp;
                        state.restamp += 1;
                        t
                    } else {
                        u64::from(gen)
                    };
                    state
                        .tx
                        .push(Envelope {
                            tag,
                            payload: dup,
                            seq: 0,
                            ready_at: Instant::now(),
                        })
                        .map_err(|_| "receiver vanished mid-run".to_string())?;
                    state.wire.push_back(WireEntry { gen, tag, slot });
                }
            }
        }
        Ok(())
    }

    fn invariant(&self, state: &RetransState) -> Result<(), String> {
        // Refcount exactness, duplicate-aware: a slot's refcount must
        // equal the number of live handles on it (staged + ledger +
        // wire + held), not merely 0 or 1.
        let counts = state.live_slot_counts(state.tx.slot_count());
        for (idx, &expected) in counts.iter().enumerate() {
            let refs = state.tx.ref_count(idx);
            if refs != expected {
                return Err(format!(
                    "slot {idx} refcount {refs}, expected {expected} live handle(s)"
                ));
            }
        }
        // ABA: every inspectable live payload still carries its
        // generation (wire payloads are checked at pop).
        let held = state.staged.iter().chain(&state.ledger).chain(&state.held);
        for (gen, p) in held {
            check_contents("live", *gen, p)?;
        }
        Ok(())
    }

    fn finalize(&self, state: &mut RetransState) -> Result<(), String> {
        // Drain the wire, release deliveries, drop the ledger.
        while state.pop_checked()? {}
        while let Some((gen, payload)) = state.held.pop_front() {
            check_contents("held", gen, &payload)?;
            state.rx.reclaim(payload, &mut state.stats);
        }
        state.ledger.clear();
        if state.next_pop != self.messages as u32 {
            return Err(format!(
                "delivery miscount: {} of {} fresh generations arrived",
                state.next_pop, self.messages
            ));
        }
        for idx in 0..state.tx.slot_count() {
            let refs = state.tx.ref_count(idx);
            if refs != 0 {
                return Err(format!(
                    "lost slot: slot {idx} still holds {refs} reference(s)"
                ));
            }
        }
        Ok(())
    }
}

/// `thread_backend`'s handoff of one run from the launching thread
/// (tid 0: fill the job slot, publish `POSTED`, unpark, await `DONE`
/// and read the result) to a resident rank thread (tid 1: read the
/// state, park unless it saw `POSTED` — enabled once the token is set —
/// re-read, run the job into the result slot, publish `DONE`). The race
/// detector checks that the state orders both slots, which is what
/// makes the launcher's lifetime erasure sound. The seeded lost wakeup
/// unparks before it publishes and never re-reads after the park.
struct HandoffModel {
    lost_wakeup: bool,
}

#[derive(Clone, Copy)]
enum Op {
    FillJob,
    Publish,
    Unpark,
    AwaitDone,
    Read,
    Park,
    Skip,
    RunJob,
    Done,
}

/// One execution: the mailbox state (0 idle, 1 posted, 2 done) and the
/// resident's last read of it, the park token, the two slots.
#[derive(Default)]
struct Handoff {
    state: u8,
    seen: u8,
    token: bool,
    job: bool,
    result: bool,
}

/// [`HandoffModel`]'s locations.
const STATE: miniloom::Loc = 0;
const TOKEN: miniloom::Loc = 1;
const JOB: miniloom::Loc = 2;
const RESULT: miniloom::Loc = 3;

impl HandoffModel {
    fn op(&self, tid: usize, idx: usize) -> Op {
        use Op::*;
        let script: &[Op] = match (tid, self.lost_wakeup) {
            (0, false) => &[FillJob, Publish, Unpark, AwaitDone],
            (0, true) => &[FillJob, Unpark, Publish, AwaitDone],
            (_, false) => &[Read, Park, Read, RunJob, Done],
            (_, true) => &[Read, Park, Skip, RunJob, Done],
        };
        script[idx]
    }
}

impl miniloom::Model for HandoffModel {
    type State = Handoff;

    fn init(&self) -> Handoff {
        Handoff::default()
    }

    fn threads(&self) -> usize {
        2
    }

    fn steps(&self, tid: usize) -> usize {
        [4, 5][tid]
    }

    fn step(&self, st: &mut Handoff, tid: usize, idx: usize) -> Result<(), String> {
        match self.op(tid, idx) {
            Op::FillJob => st.job = true,
            Op::Publish => st.state = 1,
            Op::Unpark => st.token = true,
            Op::AwaitDone if !st.result => return Err("DONE before the job's result".into()),
            Op::Read => st.seen = st.state,
            Op::Park => st.token &= st.seen == 1,
            Op::RunJob if !st.job => return Err("ran a job nobody posted".into()),
            Op::RunJob => st.result = true,
            Op::Done => st.state = 2,
            Op::AwaitDone | Op::Skip => {}
        }
        Ok(())
    }

    fn footprint(&self, tid: usize, idx: usize) -> miniloom::Footprint {
        let fp = miniloom::Footprint::empty();
        match self.op(tid, idx) {
            Op::FillJob => fp.write(JOB),
            Op::Publish | Op::Read | Op::Done => fp.sync(STATE),
            Op::Unpark | Op::Park => fp.sync(TOKEN),
            Op::AwaitDone => fp.sync(STATE).read(RESULT),
            Op::RunJob => fp.read(JOB).write(RESULT),
            Op::Skip => fp,
        }
    }

    fn enabled(&self, st: &Handoff, tid: usize, idx: usize) -> bool {
        match self.op(tid, idx) {
            Op::AwaitDone => st.state == 2,
            // Parked until unparked, unless the post was already seen.
            Op::Park => st.seen == 1 || st.token,
            // A resident that has not seen the post goes back to sleep.
            Op::RunJob => st.seen == 1,
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_two_ring_is_clean_across_all_924_interleavings() {
        // slots = 1 → ring capacity 2; 3 messages → 6 steps per thread.
        let report = miniloom::explore(&SlotRingModel::new(1, 3))
            .expect("no interleaving violates the slot protocol");
        assert_eq!(
            Ok(report.schedules),
            miniloom::schedule_count(&[6, 6]).map_err(|e| e.to_string())
        );
        assert_eq!(report.schedules, 924);
    }

    #[test]
    fn two_slot_ring_is_clean() {
        // 12!/(6!·6!) = 924 and 16!/(8!·8!) = 12870 merge orders.
        for (messages, schedules) in [(3, 924), (4, 12870)] {
            let report = miniloom::explore(&SlotRingModel::new(2, messages))
                .expect("no interleaving violates the slot protocol");
            assert_eq!(report.schedules, schedules);
        }
    }

    #[test]
    fn wire_held_ring_grows_and_stays_clean_across_all_interleavings() {
        // One and two initial slots, more messages than either: the
        // producer-first schedules grow the pool (1 → 2 → 4), the
        // lockstep ones reuse slot 0 and never do, and every mix in
        // between claims across chunk boundaries.
        for (slots, messages) in [(1, 3), (2, 4)] {
            let model = SlotRingModel::wire_held(slots, messages);
            let report = miniloom::explore(&model).expect("growth keeps the slot protocol");
            assert_eq!(
                Ok(report.schedules),
                miniloom::schedule_count(&[2 * messages, 2 * messages]).map_err(|e| e.to_string())
            );
        }
        // The all-producer-then-all-consumer schedule, by hand: the
        // pool did grow, and by exactly what the counters say.
        let model = SlotRingModel::wire_held(1, 3);
        let mut state = miniloom::Model::init(&model);
        for tid in 0..2 {
            for idx in 0..6 {
                miniloom::Model::step(&model, &mut state, tid, idx).expect("clean step");
                miniloom::Model::invariant(&model, &state).expect("clean state");
            }
        }
        miniloom::Model::finalize(&model, &mut state).expect("clean drain");
        assert_eq!(state.tx.slot_count(), 4, "1 → 2 → 4");
        assert_eq!(state.stats.grown, 3);
        assert_eq!(state.stats.stage_waits, 0);
    }

    #[test]
    fn checker_detects_a_leaked_lease() {
        // Sanity-check the harness itself: forgetting one lease must
        // trip the lost-slot invariant on the very first schedule —
        // whether or not the pool grew on the way.
        for mut model in [SlotRingModel::new(2, 2), SlotRingModel::wire_held(1, 2)] {
            model.leak_one = true;
            let v = miniloom::explore(&model).expect_err("a leak must be caught");
            assert!(v.message.contains("lost slot"), "{v}");
        }
    }

    #[test]
    fn retransmission_protocol_is_clean_across_all_3150_interleavings() {
        // Scripts of 4 + 4 + 2 steps: 10!/(4!·4!·2!) = 3150 merge
        // orders, all explored (the wire serializes every step).
        let report = miniloom::check(&SlotRetransModel::new(2, 2), &CheckOptions::default())
            .expect("retransmission protocol is clean");
        assert_eq!(report.unreduced, Some(3150));
        assert!(
            report.schedules > 0 && report.schedules <= 3150,
            "{report:?}"
        );
    }

    #[test]
    fn blind_retransmit_restamping_is_caught_with_a_schedule() {
        let model = SlotRetransModel::seeded_blind_retransmit(2, 2);
        let err = miniloom::check(&model, &CheckOptions::default())
            .expect_err("fresh-tagged duplicates must be caught");
        match err {
            miniloom::ExploreError::Violation(v) => {
                assert!(!v.schedule.is_empty(), "needs a concrete prefix");
                assert!(
                    v.message.contains("future") || v.message.contains("delivered"),
                    "{v}"
                );
            }
            other => panic!("expected a Violation, got {other}"),
        }
    }

    #[test]
    fn the_rank_thread_handoff_is_clean_across_all_interleavings() {
        let clean = HandoffModel { lost_wakeup: false };
        let report = miniloom::check(&clean, &CheckOptions::default())
            .expect("post, unpark, park, re-read never loses a wakeup or races");
        assert_eq!(report.unreduced, Some(126), "9!/(4!·5!) merge orders");
    }

    #[test]
    fn an_unpark_before_the_post_is_caught_as_a_deadlock() {
        let seeded = HandoffModel { lost_wakeup: true };
        match miniloom::check(&seeded, &CheckOptions::default()) {
            Err(miniloom::ExploreError::Deadlock { schedule, blocked }) => {
                assert!(!schedule.is_empty(), "needs a concrete prefix");
                assert_eq!(blocked, [0, 1], "caller waits for DONE, resident sleeps");
            }
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }
}
