//! Per-step access footprints: what a model step reads and writes.
//!
//! Dynamic partial-order reduction and the vector-clock race detector
//! both consume the same declaration: each scripted step names the
//! *modeled shared locations* it touches, and how. Two steps of
//! different threads are **independent** exactly when no location they
//! share is written (or synchronized) by either — independent steps
//! commute, so the explorer only needs one order of the pair.
//!
//! Three access kinds cover the protocols this workspace models:
//!
//! * [`Access::Read`] — a plain load of a data location.
//! * [`Access::Write`] — a plain store to a data location.
//! * [`Access::Sync`] — an acquire+release operation on a
//!   synchronization location (a mutex-guarded section, an atomic RMW,
//!   a condvar publish, a channel endpoint). A `Sync` orders the step
//!   after every earlier `Sync` on the same location, which is what
//!   gives the race detector its happens-before edges.
//!
//! A step's footprint must also cover the locations its
//! [`Model::enabled`] guard reads: the explorer wakes a blocked thread
//! only when a *dependent* step runs, so an undeclared guard input
//! could hide the wakeup from the search.
//!
//! [`Model::enabled`]: crate::Model::enabled

/// Identifier of one modeled shared location. Models pick small dense
/// values; [`Footprint::serial`] reserves [`GLOBAL`].
pub type Loc = usize;

/// The location [`Footprint::serial`] synchronizes on: every step using
/// it conflicts with every other, so the explorer enumerates every
/// merge order.
pub const GLOBAL: Loc = usize::MAX;

/// One declared access of a step. See the module docs for the kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Plain read of a data location.
    Read(Loc),
    /// Plain write to a data location.
    Write(Loc),
    /// Acquire+release on a synchronization location.
    Sync(Loc),
}

impl Access {
    /// The location this access touches.
    pub fn loc(self) -> Loc {
        match self {
            Access::Read(l) | Access::Write(l) | Access::Sync(l) => l,
        }
    }

    /// Whether two accesses to the *same* location conflict. Only a
    /// pair of plain reads commutes; everything else orders.
    fn clashes(self, other: Access) -> bool {
        matches!(
            (self, other),
            (Access::Write(_) | Access::Sync(_), _) | (_, Access::Write(_) | Access::Sync(_))
        )
    }
}

/// The declared accesses of one scripted step.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    accesses: Vec<Access>,
}

impl Footprint {
    /// A step touching nothing shared: independent of every other step.
    pub fn empty() -> Self {
        Footprint::default()
    }

    /// The conservative default: one [`Sync`] on the [`GLOBAL`]
    /// location, making the step dependent with every other serial
    /// step. Models that do not declare footprints get an exhaustive
    /// exploration and no race reports.
    ///
    /// [`Sync`]: Access::Sync
    pub fn serial() -> Self {
        Footprint::empty().sync(GLOBAL)
    }

    /// Add a plain read of `loc`.
    #[must_use]
    pub fn read(mut self, loc: Loc) -> Self {
        self.accesses.push(Access::Read(loc));
        self
    }

    /// Add a plain write of `loc`.
    #[must_use]
    pub fn write(mut self, loc: Loc) -> Self {
        self.accesses.push(Access::Write(loc));
        self
    }

    /// Add an acquire+release synchronization on `loc`.
    #[must_use]
    pub fn sync(mut self, loc: Loc) -> Self {
        self.accesses.push(Access::Sync(loc));
        self
    }

    /// The declared accesses, in declaration order (the race detector
    /// replays them in this order within the step).
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Whether steps with these footprints are *dependent*: some
    /// location appears in both and at least one side writes or
    /// synchronizes it. Dependent steps do not commute, so the
    /// explorer must cover both orders.
    pub fn conflicts(&self, other: &Footprint) -> bool {
        self.accesses.iter().any(|a| {
            other
                .accesses
                .iter()
                .any(|b| a.loc() == b.loc() && a.clashes(*b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_commute_writes_do_not() {
        let r = Footprint::empty().read(3);
        let w = Footprint::empty().write(3);
        let s = Footprint::empty().sync(3);
        assert!(!r.conflicts(&r));
        assert!(r.conflicts(&w));
        assert!(w.conflicts(&w));
        assert!(r.conflicts(&s));
        assert!(s.conflicts(&s));
    }

    #[test]
    fn distinct_locations_are_independent() {
        let a = Footprint::empty().write(0).read(1);
        let b = Footprint::empty().write(2).sync(3);
        assert!(!a.conflicts(&b));
        assert!(a.conflicts(&Footprint::empty().read(0)));
    }

    #[test]
    fn serial_conflicts_with_serial_but_not_with_local() {
        assert!(Footprint::serial().conflicts(&Footprint::serial()));
        assert!(!Footprint::serial().conflicts(&Footprint::empty().write(7)));
        assert!(!Footprint::empty().conflicts(&Footprint::empty()));
    }
}
