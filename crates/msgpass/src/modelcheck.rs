//! Exhaustive interleaving checks of the slot-ring transport and of the
//! rank-thread handoff.
//!
//! The cross-thread stress tests exercise *some* interleavings of
//! [`crate::slot_transport`]; [`SlotModel`] drives the **real**
//! `SlotTx`/`SlotRx` endpoints through [`miniloom::check`] to execute
//! *every* merge order of a producer, a consumer and, when it runs, a
//! retransmitter at operation granularity and prove, for each one:
//!
//! * **no double-claim** — a freshly claimed slot is never one that a
//!   live handle (staged, parked in the ledger, on the wire, or held by
//!   the consumer) still references;
//! * **no ABA reuse** — every live payload still holds exactly the
//!   generation value it was staged with, after every step;
//! * **refcount exactness** — each slot counts exactly as many
//!   references as there are live handles on it (the ledger handle and
//!   a retransmitted duplicate share their message's slot);
//! * **FIFO, dedup and delivery count** — fresh generations arrive in
//!   order with intact contents, stale duplicates are discarded, and
//!   after draining every generation arrived;
//! * **no lost slot** — after draining, every slot refcount returned
//!   to 0.
//!
//! A held wire ([`SlotModel::wire_held`]) stamps every message as still
//! on the wire, so a producer that finds its pool exhausted **grows** it
//! mid-schedule: the same properties then range over every chunk, a
//! lease issued before a grow — a ledger handle too — must still read
//! its own generation after it, the pool's grow counter must match its
//! size, and no stage may fall back to a copy; a zero wire must never
//! grow at all.
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
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Elements per staged payload — enough to make a scribbled buffer
/// visible, small enough to keep replays cheap.
const PAYLOAD_LEN: usize = 3;

/// A bug seeded into [`SlotModel`], which the checker must catch.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Bug {
    /// The drain forgets the last lease instead of releasing it.
    LeakedLease,
    /// The retransmitter stamps each duplicate with a *fresh* tag
    /// instead of its generation, so the consumer would count a stale
    /// buffer as a new delivery.
    BlindRestamp,
}

/// The slot-ring protocol as a [`miniloom::Model`]: a producer (tid 0)
/// staging and pushing `messages` generation-stamped payloads, a
/// consumer (tid 1) alternating pops with lease releases, and with
/// `retransmit` a retransmitter (tid 2). The producer then parks a
/// zero-copy ledger handle ([`Payload::share`]) on every message it
/// stages, and the retransmitter, once per message, either drops the
/// front ledger handle when the consumer has acknowledged its
/// generation or pushes a duplicate of it onto the same wire.
struct SlotModel {
    /// Payload slots the link starts with (ring capacity is twice
    /// this).
    slots: usize,
    /// Messages the producer stages and pushes.
    messages: usize,
    /// How long after its push a message leaves the wire. Zero: every
    /// lease is past due at once and the pool must keep its size.
    wire: Duration,
    /// Whether the retransmitter runs.
    retransmit: bool,
    /// The seeded bug, if any.
    bug: Option<Bug>,
}

impl SlotModel {
    /// A `slots`-slot zero-latency link carrying `messages` messages.
    fn new(slots: usize, messages: usize) -> Self {
        SlotModel {
            slots,
            messages,
            wire: Duration::ZERO,
            retransmit: false,
            bug: None,
        }
    }

    /// The same link with every message still on the wire for the whole
    /// exploration: an exhausted pool grows instead of copying.
    fn wire_held(self) -> Self {
        let wire = Duration::from_secs(3600);
        SlotModel { wire, ..self }
    }

    /// The same link with a retransmitter and its ledger.
    fn retransmitting(self) -> Self {
        SlotModel {
            retransmit: true,
            ..self
        }
    }

    /// The same link with `bug` seeded.
    fn seeded(self, bug: Bug) -> Self {
        let bug = Some(bug);
        SlotModel { bug, ..self }
    }

    /// Push `payload` of generation `gen` under `tag`, on the shadow
    /// wire too.
    fn push(
        &self,
        st: &mut RingState,
        gen: u32,
        tag: u64,
        payload: Payload<u32>,
    ) -> Result<(), String> {
        let slot = lease_slot(&payload);
        let ready_at = Instant::now() + self.wire;
        let env = Envelope {
            tag,
            payload,
            seq: 0,
            ready_at,
        };
        st.tx.push(env).map_err(|_| "receiver vanished mid-run")?;
        st.wire.push_back(WireEntry { gen, tag, slot });
        Ok(())
    }
}

/// One shadow record of an envelope currently on the wire.
struct WireEntry {
    /// True generation of the buffer contents.
    gen: u32,
    /// Tag stamped on the envelope (differs from `gen` only under
    /// [`Bug::BlindRestamp`]).
    tag: u64,
    /// Slot index if the payload is a lease.
    slot: Option<usize>,
}

/// One execution's state: the real link endpoints plus the shadow
/// bookkeeping the invariants are phrased over.
struct RingState {
    tx: SlotTx<u32>,
    rx: SlotRx<u32>,
    stats: PoolStats,
    /// Staged but not yet pushed (stage and push alternate).
    staged: Option<(u32, Payload<u32>)>,
    /// Parked ledger handles, oldest generation first.
    ledger: VecDeque<(u32, Payload<u32>)>,
    /// Envelopes pushed but not yet popped, in wire FIFO order.
    wire: VecDeque<WireEntry>,
    /// Fresh deliveries popped but not yet released.
    held: VecDeque<(u32, Payload<u32>)>,
    /// Next fresh generation the consumer expects.
    next_pop: u32,
    /// Next tag of a blindly re-stamped duplicate.
    restamp: u64,
}

impl RingState {
    /// Live handles per slot: staged, in the ledger, on the wire, held.
    fn live_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.tx.slot_count()];
        let staged = self.staged.iter().filter_map(|(_, p)| lease_slot(p));
        let ledger = self.ledger.iter().filter_map(|(_, p)| lease_slot(p));
        let wire = self.wire.iter().filter_map(|e| e.slot);
        let held = self.held.iter().filter_map(|(_, p)| lease_slot(p));
        for idx in staged.chain(ledger).chain(wire).chain(held) {
            counts[idx] += 1;
        }
        counts
    }

    /// Pop one envelope off the real link and run the receiver's
    /// checks: it is the shadow wire's front, a tag equal to the
    /// expected generation is a fresh delivery, a smaller one a stale
    /// duplicate to discard, a larger one a protocol error. `Ok(false)`
    /// when the link is currently empty.
    fn pop_checked(&mut self) -> Result<bool, String> {
        let Some(env) = self.rx.try_pop() else {
            return Ok(false);
        };
        let Some(entry) = self.wire.pop_front() else {
            return Err(format!("popped tag {} but nothing is on the wire", env.tag));
        };
        let next = u64::from(self.next_pop);
        if env.tag != entry.tag {
            return Err(format!(
                "FIFO violated: popped tag {}, the wire's front is {}",
                env.tag, entry.tag
            ));
        } else if env.tag == next {
            check_contents("delivered", self.next_pop, &env.payload)?;
            self.next_pop += 1;
            self.held.push_back((entry.gen, env.payload));
        } else if env.tag < next {
            check_contents("duplicate", entry.gen, &env.payload)?;
            self.rx.reclaim(env.payload, &mut self.stats);
        } else {
            return Err(format!(
                "message from the future: tag {} while expecting generation {next}",
                env.tag
            ));
        }
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

impl miniloom::Model for SlotModel {
    type State = RingState;

    fn init(&self) -> RingState {
        let (tx, rx) = make_slot_link_raw(self.slots);
        RingState {
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
        2 + usize::from(self.retransmit)
    }

    fn steps(&self, tid: usize) -> usize {
        // Producer: stage + push per message. Consumer: a pop attempt
        // and a release attempt per message (the finalizer drains
        // whatever a schedule's attempts missed). Retransmitter: one
        // ledger action per message.
        match tid {
            0 | 1 => 2 * self.messages,
            _ => self.messages,
        }
    }

    fn step(&self, state: &mut RingState, tid: usize, idx: usize) -> Result<(), String> {
        match tid {
            0 if idx.is_multiple_of(2) => {
                // Stage generation `idx / 2`. Budget 0: in a replayed
                // schedule no consumer runs *during* the wait, so
                // waiting could never succeed — an exhausted pool goes
                // straight to the owned-copy path (which is itself an
                // interleaving worth covering).
                let gen = (idx / 2) as u32;
                let live = state.live_counts();
                let fill = &mut |buf: &mut Vec<u32>| {
                    buf.clear();
                    buf.resize(PAYLOAD_LEN, gen);
                };
                let mut payload = state.tx.stage_with_budget(&mut state.stats, fill, 0);
                match lease_slot(&payload) {
                    Some(idx) if live.get(idx).is_some_and(|&n| n > 0) => {
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
                if self.retransmit {
                    state.ledger.push_back((gen, payload.share()));
                }
                state.staged = Some((gen, payload));
            }
            0 => {
                if let Some((gen, payload)) = state.staged.take() {
                    self.push(state, gen, u64::from(gen), payload)?;
                }
            }
            1 if idx.is_multiple_of(2) => {
                state.pop_checked()?;
            }
            1 => {
                if let Some((gen, payload)) = state.held.pop_front() {
                    check_contents("held", gen, &payload)?;
                    state.rx.reclaim(payload, &mut state.stats);
                }
            }
            _ => match state.ledger.front_mut() {
                // The consumer confirmed this generation: drop the
                // parked lease so the slot can recycle.
                Some((gen, _)) if *gen < state.next_pop => drop(state.ledger.pop_front()),
                // Unacked: push a zero-copy duplicate.
                Some((gen, payload)) => {
                    let (gen, dup) = (*gen, payload.share());
                    let tag = match self.bug {
                        Some(Bug::BlindRestamp) => {
                            state.restamp += 1;
                            state.restamp - 1
                        }
                        _ => u64::from(gen),
                    };
                    self.push(state, gen, tag, dup)?;
                }
                None => {}
            },
        }
        Ok(())
    }

    fn invariant(&self, state: &RingState) -> Result<(), String> {
        // Refcount exactness: a slot's refcount is the number of live
        // handles on it, and every other slot is free.
        for (idx, expected) in state.live_counts().into_iter().enumerate() {
            let refs = state.tx.ref_count(idx);
            if refs != expected {
                return Err(format!(
                    "slot {idx} refcount {refs}, expected {expected} live handle(s)"
                ));
            }
        }
        // ABA: every inspectable live payload still carries its
        // generation (wire payloads are checked at pop).
        let live = state.staged.iter().chain(&state.ledger).chain(&state.held);
        for (gen, p) in live {
            check_contents("live", *gen, p)?;
        }
        Ok(())
    }

    fn finalize(&self, state: &mut RingState) -> Result<(), String> {
        // Drain the wire, release deliveries, drop the ledger.
        while state.pop_checked()? {}
        while let Some((gen, payload)) = state.held.pop_front() {
            check_contents("held", gen, &payload)?;
            if self.bug == Some(Bug::LeakedLease) && state.held.is_empty() {
                std::mem::forget(payload); // the seeded leak
            } else {
                state.rx.reclaim(payload, &mut state.stats);
            }
        }
        state.ledger.clear();
        if state.next_pop != self.messages as u32 {
            return Err(format!(
                "lost message: only {} of {} generations arrived",
                state.next_pop, self.messages
            ));
        }
        // Lost-slot check: with no live handle left, every slot's
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
    use miniloom::{assert_clean, assert_violation, Model};

    /// Run `schedule` (thread ids in order) on a fresh state by hand,
    /// checking the invariant after every step.
    fn replay(model: &SlotModel, schedule: &[usize]) -> RingState {
        let mut state = model.init();
        let mut next = [0; 3];
        for &tid in schedule {
            model.step(&mut state, tid, next[tid]).expect("clean step");
            model.invariant(&state).expect("clean state");
            next[tid] += 1;
        }
        state
    }

    #[test]
    fn capacity_two_ring_is_clean_across_all_924_interleavings() {
        // slots = 1 → ring capacity 2; 3 messages → 6 steps per thread.
        let report = assert_clean(&SlotModel::new(1, 3), 924);
        assert_eq!(report.schedules, 924);
    }

    #[test]
    fn two_slot_ring_is_clean() {
        // 12!/(6!·6!) = 924 and 16!/(8!·8!) = 12870 merge orders.
        for (messages, schedules) in [(3, 924), (4, 12870)] {
            let report = assert_clean(&SlotModel::new(2, messages), schedules);
            assert_eq!(report.schedules, schedules);
        }
    }

    #[test]
    fn wire_held_ring_grows_and_stays_clean_across_all_interleavings() {
        // One and two initial slots, more messages than either: the
        // producer-first schedules grow the pool (1 → 2 → 4), the
        // lockstep ones reuse slot 0 and never do, and every mix in
        // between claims across chunk boundaries.
        for (slots, messages, schedules) in [(1, 3, 924), (2, 4, 12870)] {
            let model = SlotModel::new(slots, messages).wire_held();
            let report = assert_clean(&model, schedules);
            assert_eq!(report.schedules, schedules);
        }
        // The all-producer-then-all-consumer schedule, by hand: the
        // pool did grow, and by exactly what the counters say.
        let model = SlotModel::new(1, 3).wire_held();
        let mut state = replay(&model, &[0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]);
        model.finalize(&mut state).expect("clean drain");
        assert_eq!(state.tx.slot_count(), 4, "1 → 2 → 4");
        assert_eq!(state.stats.grown, 3);
        assert_eq!(state.stats.stage_waits, 0);
    }

    #[test]
    fn checker_detects_a_leaked_lease() {
        // Sanity-check the harness itself: forgetting one lease must
        // trip the lost-slot check on the very first schedule —
        // whether or not the pool grew on the way.
        for model in [SlotModel::new(2, 2), SlotModel::new(1, 2).wire_held()] {
            assert_violation(&model.seeded(Bug::LeakedLease), &["lost slot"]);
        }
    }

    #[test]
    fn retransmission_protocol_is_clean_across_all_3150_interleavings() {
        // Scripts of 4 + 4 + 2 steps: 10!/(4!·4!·2!) = 3150 merge
        // orders, all explored (the wire serializes every step). On a
        // held wire one slot must grow, whether the wire, the consumer
        // or only the ledger still leases slot 0, and the ledger's
        // handles must keep their generation across the grow.
        let held = SlotModel::new(1, 2).retransmitting().wire_held();
        for model in [&SlotModel::new(2, 2).retransmitting(), &held] {
            let report = assert_clean(model, 3150);
            assert_eq!(report.schedules, 3150);
        }
        // The producer first, by hand: the second stage grew the pool.
        let state = replay(&held, &[0, 0, 0, 0]);
        assert_eq!((state.tx.slot_count(), state.stats.grown), (2, 1));
        assert_eq!(state.ledger.len(), 2);
    }

    #[test]
    fn blind_retransmit_restamping_is_caught_with_a_schedule() {
        let model = SlotModel::new(2, 2)
            .retransmitting()
            .seeded(Bug::BlindRestamp);
        assert_violation(&model, &["future", "delivered"]);
    }

    #[test]
    fn the_rank_thread_handoff_is_clean_across_all_interleavings() {
        // 9!/(4!·5!) merge orders: post, unpark, park, re-read never
        // loses a wakeup or races.
        assert_clean(&HandoffModel { lost_wakeup: false }, 126);
    }

    #[test]
    fn an_unpark_before_the_post_is_caught_as_a_deadlock() {
        let seeded = HandoffModel { lost_wakeup: true };
        match miniloom::check(&seeded, &miniloom::CheckOptions::default()) {
            Err(miniloom::ExploreError::Deadlock { schedule, blocked }) => {
                assert!(!schedule.is_empty(), "needs a concrete prefix");
                assert_eq!(blocked, [0, 1], "caller waits for DONE, resident sleeps");
            }
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }
}
