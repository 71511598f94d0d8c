//! Model checking of planc's concurrency protocols.
//!
//! Two of this crate's subsystems arbitrate between threads:
//! [`crate::compiler`]'s single-flight coalescing (inflight map +
//! per-key flight condvar) and [`crate::worlds`]'s keyed warm-world
//! pool. This module restates each protocol as a [`miniloom::Model`]
//! over *shadow state* — the lock-held decision logic, not the real
//! `Mutex`/`Condvar` objects, which would block the checker's single
//! replay thread — and explores every reachable interleaving of 3
//! participants per protocol.
//!
//! Each model comes in two flavors:
//!
//! * the **shipped protocol**, which the checker must pass clean
//!   (correct variants declare reduced footprints where a step
//!   provably touches only private state, letting DPOR skip
//!   equivalent orders);
//! * a **seeded-bug variant** reintroducing the classic mistake the
//!   shipped code avoids — a split check-then-act in place of the
//!   single-flight recheck, or parking a world before the job stops
//!   driving it. Buggy variants keep the default serial footprints so
//!   exploration is exhaustive, and the checker must report each with a
//!   concrete schedule prefix.

use miniloom::{Footprint, Model};

/// Modeled location: the single-flight inflight map + cache mutexes.
const SF: usize = 0;
/// Modeled location: the world pool's parked map mutex.
const POOL: usize = 1;
/// Modeled locations `WORLD + w`: the fabric of pooled world `w`.
const WORLD: usize = 10;

// ---------------------------------------------------------------------------
// Single-flight compilation
// ---------------------------------------------------------------------------

/// How a modeled compile call was satisfied (mirrors
/// [`crate::compiler::Provenance`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Prov {
    Hit,
    Coalesced,
    Compiled,
}

/// A requester's current plan of record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Decision {
    /// Serve from cache.
    Hit,
    /// Wait on the open flight and share its outcome.
    Join,
    /// Open the flight and own the compilation.
    Lead,
}

/// The per-key flight slot of the inflight map.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
enum FlightState {
    /// No flight for the key.
    #[default]
    Idle,
    /// A leader opened the flight; the compiler may run.
    Open,
    /// Outcome published, leader has not retired the entry yet.
    Done,
}

/// Two requesters racing one key through the single-flight
/// [`crate::compiler::Compiler`] protocol, with the pipeline execution
/// scripted as a third participant so its timing interleaves freely.
///
/// A late requester that finds the flight already retired adopts the
/// published outcome through the flight handle it would hold in the
/// real code (an `Arc<Flight>` outlives the inflight-map entry). On
/// the error path the real code would open a *second* flight and
/// recompile; the model adopts the shared deterministic error instead,
/// keeping the scripts finite without weakening the properties under
/// check — at most one compilation per flight, outcome shared with
/// every joiner, errors never cached.
struct SingleFlightModel {
    /// Model the error-sharing path: the pipeline fails.
    fail: bool,
    /// Seeded bug: the leader publishes its flight *without*
    /// re-validating cache and inflight map under the lock — the
    /// split check-then-act the shipped `get_recheck` dance prevents.
    skip_recheck: bool,
}

impl SingleFlightModel {
    /// The protocol as shipped; `fail` selects the error-sharing path.
    fn new(fail: bool) -> Self {
        SingleFlightModel {
            fail,
            skip_recheck: false,
        }
    }

    /// Deliberately buggy variant: check and act are split. The
    /// checker must report a duplicate-leader schedule.
    fn seeded_split_probe(fail: bool) -> Self {
        SingleFlightModel {
            skip_recheck: true,
            ..SingleFlightModel::new(fail)
        }
    }
}

/// Shadow state of one contended key.
#[derive(Default)]
struct FlightShadow {
    /// The artifact cache entry for the key (errors are never stored,
    /// structurally: only a successful artifact id fits).
    cache: Option<u32>,
    flight: FlightState,
    /// The published outcome; persists after retirement, like the
    /// `Arc<Flight>` a joiner holds.
    outcome: Option<Result<u32, ()>>,
    /// Pipeline compilations actually run.
    compiles: u32,
    /// Requester decisions as of their last probe step.
    decision: [Option<Decision>; 2],
    /// Requester results: outcome + provenance.
    result: [Option<(Result<u32, ()>, Prov)>; 2],
}

impl FlightShadow {
    /// The probe logic both requester steps share: cache first, then
    /// any live-or-published flight, else lead.
    fn probe(&self) -> Decision {
        if self.cache.is_some() {
            Decision::Hit
        } else if self.flight != FlightState::Idle || self.outcome.is_some() {
            Decision::Join
        } else {
            Decision::Lead
        }
    }
}

impl Model for SingleFlightModel {
    type State = FlightShadow;

    fn init(&self) -> FlightShadow {
        FlightShadow::default()
    }

    fn threads(&self) -> usize {
        3
    }

    fn steps(&self, tid: usize) -> usize {
        // Requesters: check, act, resolve. Compiler: one pipeline run.
        if tid < 2 {
            3
        } else {
            1
        }
    }

    fn step(&self, state: &mut FlightShadow, tid: usize, idx: usize) -> Result<(), String> {
        if tid == 2 {
            // The pipeline body of the leader's compile call.
            state.compiles += 1;
            let outcome = if self.fail { Err(()) } else { Ok(7) };
            if let Ok(a) = outcome {
                state.cache = Some(a);
            }
            state.outcome = Some(outcome);
            state.flight = FlightState::Done;
            return Ok(());
        }
        match idx {
            0 => {
                // Check: the optimistic probe outside the lock.
                state.decision[tid] = Some(state.probe());
            }
            1 => {
                // Act: publish the decision.
                if state.decision[tid] != Some(Decision::Lead) {
                    return Ok(());
                }
                if self.skip_recheck {
                    // Seeded bug: trust the stale probe.
                    if state.flight != FlightState::Idle {
                        return Err(format!(
                            "requester {tid} opened a second flight over an \
                             active one: duplicate compilation"
                        ));
                    }
                    if state.cache.is_some() || state.outcome.is_some() {
                        return Err(format!(
                            "requester {tid} opened a flight for an already-\
                             resolved key: missing recheck"
                        ));
                    }
                } else {
                    // Shipped path: re-validate under the inflight lock
                    // (the `get_recheck` + map-entry double check).
                    let fresh = state.probe();
                    if fresh != Decision::Lead {
                        state.decision[tid] = Some(fresh);
                        return Ok(());
                    }
                }
                state.flight = FlightState::Open;
            }
            _ => {
                // Resolve: record the outcome this requester observes.
                let (outcome, prov) = match state.decision[tid] {
                    Some(Decision::Hit) => {
                        (Ok(state.cache.expect("hit implies cached")), Prov::Hit)
                    }
                    Some(Decision::Join) => (
                        state.outcome.expect("resolve gated on outcome"),
                        Prov::Coalesced,
                    ),
                    Some(Decision::Lead) => {
                        let out = state.outcome.expect("resolve gated on Done");
                        state.flight = FlightState::Idle; // retire
                        (out, Prov::Compiled)
                    }
                    None => return Err(format!("requester {tid} resolved before probing")),
                };
                state.result[tid] = Some((outcome, prov));
            }
        }
        Ok(())
    }

    fn enabled(&self, state: &FlightShadow, tid: usize, idx: usize) -> bool {
        if tid == 2 {
            // The pipeline runs once a leader opened the flight.
            return state.flight == FlightState::Open;
        }
        if idx != 2 {
            return true;
        }
        match state.decision[tid] {
            Some(Decision::Hit) => true,
            // A joiner blocks on `Flight::wait` until publication.
            Some(Decision::Join) => state.outcome.is_some(),
            // The leader's compile call returns after the pipeline.
            Some(Decision::Lead) => state.flight == FlightState::Done,
            None => false,
        }
    }

    fn footprint(&self, tid: usize, idx: usize) -> Footprint {
        if self.skip_recheck {
            // Buggy variant: explore exhaustively.
            return Footprint::serial();
        }
        // Every step reads or writes the cache/inflight shadow under
        // their mutexes; resolve also writes the requester's own slot.
        let fp = Footprint::empty().sync(SF);
        if tid < 2 && idx == 2 {
            fp.write(WORLD + tid)
        } else {
            fp
        }
    }

    fn invariant(&self, state: &FlightShadow) -> Result<(), String> {
        if state.compiles > 1 {
            return Err(format!(
                "{} pipeline runs for one key: coalescing failed",
                state.compiles
            ));
        }
        if self.fail && state.cache.is_some() {
            return Err("a failed compilation was cached".into());
        }
        Ok(())
    }

    fn finalize(&self, state: &mut FlightShadow) -> Result<(), String> {
        for (tid, r) in state.result.iter().enumerate() {
            match r {
                None => return Err(format!("requester {tid} never resolved")),
                Some((out, prov)) => {
                    if out.is_err() != self.fail {
                        return Err(format!(
                            "requester {tid} got {out:?} on a fail={} run",
                            self.fail
                        ));
                    }
                    if self.fail && *prov == Prov::Hit {
                        return Err(format!("requester {tid} cache-hit an error"));
                    }
                }
            }
        }
        if state.compiles != 1 {
            return Err(format!(
                "expected exactly 1 pipeline run, saw {}",
                state.compiles
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Warm-world pool
// ---------------------------------------------------------------------------

/// Two jobs (checkout → drive → checkin) and one evicting requester (a
/// checkout that never returns its world — the errored-job path)
/// racing one [`crate::worlds::WorldPool`] key with `max_per_key = 1`.
///
/// The property: a world is driven only by the job it is checked out
/// to — never while parked, never by two jobs.
struct WorldPoolModel {
    /// Seeded bug: job 0 parks its world *before* its last step of
    /// driving it, so a concurrent checkout can start driving the same
    /// fabric.
    park_while_held: bool,
}

impl WorldPoolModel {
    /// The pool protocol as shipped.
    fn new() -> Self {
        WorldPoolModel {
            park_while_held: false,
        }
    }

    /// Deliberately buggy variant: check-in ordered before the job's
    /// final use. The checker must report a use-after-return schedule.
    fn seeded_park_while_held() -> Self {
        WorldPoolModel {
            park_while_held: true,
        }
    }
}

/// Shadow state of one pool key.
struct PoolShadow {
    /// Parked world ids (one key, cap 1).
    parked: Vec<usize>,
    /// `holder[w]` = the thread currently driving world `w`.
    holder: Vec<Option<usize>>,
    /// The world each thread currently holds.
    held: [Option<usize>; 3],
    /// The last world each thread checked out (survives checkin, for
    /// the seeded use-after-return).
    last: [Option<usize>; 3],
    created: u32,
    reused: u32,
}

const PARK_CAP: usize = 1;

impl PoolShadow {
    fn checkout(&mut self, tid: usize) -> Result<(), String> {
        let w = if let Some(w) = self.parked.pop() {
            self.reused += 1;
            if let Some(other) = self.holder[w] {
                return Err(format!(
                    "checkout of thread {tid} popped world {w} still held by thread {other}"
                ));
            }
            w
        } else {
            self.created += 1;
            self.holder.push(None);
            self.holder.len() - 1
        };
        self.holder[w] = Some(tid);
        self.held[tid] = Some(w);
        self.last[tid] = Some(w);
        Ok(())
    }

    fn checkin(&mut self, tid: usize) {
        if let Some(w) = self.held[tid].take() {
            self.holder[w] = None;
            if self.parked.len() < PARK_CAP {
                self.parked.push(w);
            }
        }
    }

    fn drive(&mut self, tid: usize) -> Result<(), String> {
        let Some(w) = self.last[tid] else {
            return Err(format!("thread {tid} drove a world before any checkout"));
        };
        match self.holder[w] {
            Some(h) if h == tid => Ok(()),
            Some(other) => Err(format!(
                "thread {tid} drove world {w} while thread {other} holds it: \
                 one fabric, two jobs"
            )),
            None => Err(format!(
                "thread {tid} drove world {w} after returning it (parked or dropped)"
            )),
        }
    }
}

impl Model for WorldPoolModel {
    type State = PoolShadow;

    fn init(&self) -> PoolShadow {
        // One world pre-parked: the warm pool the evictor competes for.
        PoolShadow {
            parked: vec![0],
            holder: vec![None],
            held: [None; 3],
            last: [None; 3],
            created: 0,
            reused: 0,
        }
    }

    fn threads(&self) -> usize {
        3
    }

    fn steps(&self, tid: usize) -> usize {
        // Jobs: checkout, drive, checkin. Evictor: checkout only.
        if tid < 2 {
            3
        } else {
            1
        }
    }

    fn step(&self, state: &mut PoolShadow, tid: usize, idx: usize) -> Result<(), String> {
        if tid == 2 {
            return state.checkout(tid);
        }
        // The seeded bug swaps job 0's drive and checkin.
        let idx = match (self.park_while_held && tid == 0, idx) {
            (true, 1) => 2,
            (true, 2) => 1,
            (_, i) => i,
        };
        match idx {
            0 => state.checkout(tid)?,
            1 => state.drive(tid)?,
            _ => state.checkin(tid),
        }
        Ok(())
    }

    fn footprint(&self, tid: usize, idx: usize) -> Footprint {
        if self.park_while_held {
            return Footprint::serial();
        }
        // Checkout/checkin mutate the pool under its mutex; driving
        // touches only the exclusively-held fabric (modeled per-thread:
        // ownership is what the checkout invariants prove).
        if tid < 2 && idx == 1 {
            Footprint::empty().write(WORLD + tid)
        } else {
            Footprint::empty().sync(POOL)
        }
    }

    fn invariant(&self, state: &PoolShadow) -> Result<(), String> {
        if state.parked.len() > PARK_CAP {
            return Err(format!(
                "{} worlds parked over cap {PARK_CAP}",
                state.parked.len()
            ));
        }
        for &w in &state.parked {
            if let Some(h) = state.holder[w] {
                return Err(format!("world {w} parked while held by thread {h}"));
            }
        }
        Ok(())
    }

    fn finalize(&self, state: &mut PoolShadow) -> Result<(), String> {
        let total = state.created + state.reused;
        if total != 3 {
            return Err(format!(
                "3 checkouts ran but created {} + reused {} = {total}",
                state.created, state.reused
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miniloom::{assert_clean, assert_violation};

    #[test]
    fn single_flight_is_clean_on_both_outcome_paths() {
        for fail in [false, true] {
            // 7!/(3!·3!·1!) = 140 raw merge orders.
            assert!(assert_clean(&SingleFlightModel::new(fail), 140).schedules > 0);
        }
    }

    #[test]
    fn split_probe_toctou_is_caught() {
        for fail in [false, true] {
            let model = SingleFlightModel::seeded_split_probe(fail);
            assert_violation(&model, &["duplicate", "recheck"]);
        }
    }

    #[test]
    fn world_pool_is_clean_and_reduced() {
        let report = assert_clean(&WorldPoolModel::new(), 140);
        assert!(
            report.schedules < 140,
            "driving is private, DPOR must skip those orders: {report:?}"
        );
    }

    #[test]
    fn park_while_held_is_caught() {
        assert_violation(&WorldPoolModel::seeded_park_while_held(), &["drove world"]);
    }
}
