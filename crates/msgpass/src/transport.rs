//! Transport abstraction of the threaded backend: a directed link is a
//! `(LinkTx, LinkRx)` endpoint pair moving [`Envelope`]s whose payloads
//! are [`Payload`]s — owned vectors, refcounted shared vectors, or
//! zero-copy slot leases ([`crate::slot_transport`]).
//!
//! Two implementations exist behind the traits:
//!
//! * **mpsc** (the default, [`TransportKind::Mpsc`]): `std::sync::mpsc`
//!   channels plus a reverse buffer-return channel per link, recycling
//!   send buffers after a warm-up.
//! * **shared slots** ([`TransportKind::SharedSlots`]): per-link SPSC
//!   rings of fixed-capacity slots. `stage` packs the payload directly
//!   into peer-visible slot memory and the receiver reads straight out
//!   of it, so a steady-state halo exchange allocates nothing and
//!   copies each face exactly once on each side (pack, unpack) — the
//!   paper's B₂/B₃ buffer-copy phases drop out of the on-node path.
//!
//! The reliability layer composes with both: instead of cloning a
//! payload into the retransmission ledger or a duplicate message, it
//! calls [`Payload::share`], which refcounts one buffer (an
//! `Arc<Vec<T>>` on the mpsc path, a slot lease on the slot path).

use crate::comm::Tag;
use crate::slot_transport::SlotLease;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Buffer-pool counters of one rank's transport endpoints (see
/// `ThreadComm::pool_stats`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Payload buffers that had to grow or be allocated (warm-up, or a
    /// pool/ring falling back to an owned copy under pressure).
    pub fresh_allocs: u64,
    /// Sends served entirely from recycled transport storage
    /// (steady state).
    pub recycled: u64,
    /// Consumed receive payloads handed back to the transport.
    pub returned: u64,
    /// Payload slots added to slot pools beyond their configured count,
    /// because the wire alone held every slot (see
    /// [`crate::slot_transport`]). Zero on a zero-latency world.
    pub grown: u64,
    /// Sends that found every slot leased with the consumer behind and
    /// entered the bounded backpressure wait.
    pub stage_waits: u64,
}

/// Which wire implementation a world's links use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// `std::sync::mpsc` channels with a buffer-return pool (fallback;
    /// every envelope costs one queue-node allocation).
    #[default]
    Mpsc,
    /// Shared-memory SPSC slot rings: zero-copy, zero steady-state
    /// allocations.
    SharedSlots {
        /// Payload slots a directed link starts with: how far a sender
        /// may run ahead of a consumer that is *behind* before it waits
        /// (and then falls back to owned copies — correct, but
        /// allocating). Messages still on the wire do not count against
        /// it: a link whose bandwidth-delay product exceeds the window
        /// grows it.
        slots: usize,
    },
}

impl TransportKind {
    /// Shared-slot transport with the default initial window: 8 faces
    /// of run-ahead over a lagging consumer, on top of whatever the
    /// wire itself holds.
    pub fn shared_slots() -> Self {
        TransportKind::SharedSlots { slots: 8 }
    }
}

/// A message payload. The transport decides the representation; every
/// consumer reads it through [`Payload::as_slice`].
pub enum Payload<T> {
    /// A plain owned vector (mpsc path, or a slot ring's overflow copy).
    Owned(Vec<T>),
    /// A refcounted vector: the reliability layer's way of parking the
    /// same buffer in the ledger and on the wire without copying.
    Shared(Arc<Vec<T>>),
    /// A zero-copy lease on a transport slot; the slot is not reused
    /// until every lease (wire, stash, ledger) is dropped.
    Lease(SlotLease<T>),
}

impl<T> Payload<T> {
    /// The payload contents.
    pub fn as_slice(&self) -> &[T] {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(a) => a,
            Payload::Lease(l) => l.as_slice(),
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// A second handle on the same buffer, without copying the data:
    /// an owned vector is promoted to `Shared` in place, shared and
    /// leased payloads just bump a refcount. This is what the fault
    /// layer uses for duplicates and ledger parking.
    pub fn share(&mut self) -> Payload<T> {
        match self {
            Payload::Owned(v) => {
                let arc = Arc::new(std::mem::take(v));
                *self = Payload::Shared(Arc::clone(&arc));
                Payload::Shared(arc)
            }
            Payload::Shared(a) => Payload::Shared(Arc::clone(a)),
            Payload::Lease(l) => Payload::Lease(l.clone()),
        }
    }
}

/// One message on a directed link.
pub struct Envelope<T> {
    /// Application tag (see `stencil::proto` for the wire encoding).
    pub tag: Tag,
    /// The payload, in whatever representation the transport staged.
    pub payload: Payload<T>,
    /// Per-`(src, dst, tag)` occurrence index, stamped only on
    /// reliability-enabled worlds (always 0 otherwise).
    pub seq: u64,
    /// Receiver may not consume the message before this instant.
    pub ready_at: Instant,
}

/// The peer endpoint of a link is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkClosed;

/// Sender half of one directed link.
pub trait LinkTx<T>: Send {
    /// Obtain transport-owned storage for an outgoing payload, let
    /// `fill` write it (the closure must leave the buffer holding the
    /// complete payload — resize first, then overwrite every element),
    /// and wrap it for transmission. This is where the slot transport
    /// hands out peer-visible memory; the mpsc transport hands out a
    /// pooled vector.
    fn stage(&mut self, stats: &mut PoolStats, fill: &mut dyn FnMut(&mut Vec<T>)) -> Payload<T>;

    /// Queue a staged envelope on the wire (FIFO per link).
    fn push(&mut self, env: Envelope<T>) -> Result<(), LinkClosed>;
}

/// Receiver half of one directed link.
pub trait LinkRx<T>: Send {
    /// Non-blocking pop of the next envelope in link order.
    fn try_pop(&mut self) -> Option<Envelope<T>>;

    /// Block until an envelope arrives; `Err` when the sender is gone
    /// and the link is drained.
    fn pop_blocking(&mut self) -> Result<Envelope<T>, LinkClosed>;

    /// Block up to `timeout`; `Ok(None)` on timeout, `Err` when the
    /// sender is gone and the link is drained.
    fn pop_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope<T>>, LinkClosed>;

    /// Hand a consumed payload back to the transport (return a pooled
    /// buffer to its sender, release a slot lease).
    fn reclaim(&mut self, payload: Payload<T>, stats: &mut PoolStats);
}

/// Build one directed link of the given kind.
pub(crate) fn make_link<T: Send + Sync + 'static>(
    kind: TransportKind,
) -> (Box<dyn LinkTx<T>>, Box<dyn LinkRx<T>>) {
    match kind {
        TransportKind::Mpsc => {
            let (data_tx, data_rx) = channel();
            let (pool_tx, pool_rx) = channel();
            (
                Box::new(MpscTx {
                    data: data_tx,
                    pool: pool_rx,
                }),
                Box::new(MpscRx {
                    data: data_rx,
                    pool: pool_tx,
                }),
            )
        }
        TransportKind::SharedSlots { slots } => crate::slot_transport::make_slot_link(slots),
    }
}

/// Sender half of an mpsc link: data channel out, buffer pool back.
struct MpscTx<T> {
    data: Sender<Envelope<T>>,
    pool: Receiver<Vec<T>>,
}

/// Receiver half of an mpsc link.
struct MpscRx<T> {
    data: Receiver<Envelope<T>>,
    pool: Sender<Vec<T>>,
}

impl<T: Send + Sync> LinkTx<T> for MpscTx<T> {
    fn stage(&mut self, stats: &mut PoolStats, fill: &mut dyn FnMut(&mut Vec<T>)) -> Payload<T> {
        let mut buf = match self.pool.try_recv() {
            Ok(b) => {
                stats.recycled += 1;
                b
            }
            Err(_) => {
                stats.fresh_allocs += 1;
                Vec::new()
            }
        };
        fill(&mut buf);
        Payload::Owned(buf)
    }

    fn push(&mut self, env: Envelope<T>) -> Result<(), LinkClosed> {
        self.data.send(env).map_err(|_| LinkClosed)
    }
}

impl<T: Send + Sync> LinkRx<T> for MpscRx<T> {
    fn try_pop(&mut self) -> Option<Envelope<T>> {
        self.data.try_recv().ok()
    }

    fn pop_blocking(&mut self) -> Result<Envelope<T>, LinkClosed> {
        self.data.recv().map_err(|_| LinkClosed)
    }

    fn pop_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope<T>>, LinkClosed> {
        match self.data.recv_timeout(timeout) {
            Ok(env) => Ok(Some(env)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(LinkClosed),
        }
    }

    fn reclaim(&mut self, payload: Payload<T>, stats: &mut PoolStats) {
        stats.returned += 1;
        match payload {
            // The sender may already have exited; its pool is then
            // simply dropped.
            Payload::Owned(v) => {
                let _ = self.pool.send(v);
            }
            // A buffer the fault layer shared: recycle it once the
            // last holder lets go, otherwise let the other holders
            // keep it.
            Payload::Shared(a) => {
                if let Ok(v) = Arc::try_unwrap(a) {
                    let _ = self.pool.send(v);
                }
            }
            // Slot leases release themselves on drop (and never occur
            // on an mpsc link anyway).
            Payload::Lease(_) => {}
        }
    }
}
