//! The message-passing interface used by the distributed executors.
//!
//! The paper's two schedules need five primitives: `MPI_Send`/`MPI_Recv`
//! for the §3 non-overlapping executor, `MPI_Isend`/`MPI_Irecv`/
//! `MPI_Wait` for the §4 overlapping one. [`Communicator`] is those
//! five in one form: the caller packs an outgoing face straight into
//! the transport's wire buffer and consumes an incoming one in place,
//! and every call that can meet a transport fault returns a typed
//! [`CommError`] — a peer that hung up, and on a reliability-enabled
//! world (see [`crate::thread_backend::WorldConfig`]) a timeout or a
//! sequence gap — instead of hanging or panicking. Matching is by
//! `(peer rank, tag)` in FIFO order, like MPI with a fixed communicator.

use std::fmt;
use std::time::Duration;

/// A tag disambiguating messages between the same pair of ranks.
pub type Tag = u64;

/// Why a communication operation failed. Returned by every fallible
/// [`Communicator`] call so the engine can fail a run cleanly; only the
/// `send_from`/`recv_into` conveniences turn one into a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived within the configured retry
    /// schedule.
    Timeout {
        /// The peer the receive was posted against.
        from: usize,
        /// The expected tag.
        tag: Tag,
        /// Total time spent waiting across all attempts.
        waited: Duration,
        /// Number of retry attempts made.
        retries: u32,
    },
    /// The sender committed a message that can no longer be delivered
    /// or recovered — an unrecoverable loss on the link.
    SequenceGap {
        /// The peer the receive was posted against.
        from: usize,
        /// The expected tag.
        tag: Tag,
        /// The sequence number that can never arrive.
        seq: u64,
    },
    /// The peer's channel closed before the expected message arrived
    /// (its thread exited or panicked).
    PeerClosed {
        /// The rank whose channel hung up.
        peer: usize,
    },
    /// The matched message's length differs from the receive buffer's.
    SizeMismatch {
        /// The sending peer.
        from: usize,
        /// The message tag.
        tag: Tag,
        /// Received payload length.
        got: usize,
        /// Expected payload length.
        want: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout {
                from,
                tag,
                waited,
                retries,
            } => write!(
                f,
                "receive (from {from}, tag {tag}) timed out after {waited:?} and {retries} retries"
            ),
            CommError::SequenceGap { from, tag, seq } => write!(
                f,
                "sequence gap (from {from}, tag {tag}): message #{seq} was sent but is unrecoverable"
            ),
            CommError::PeerClosed { peer } => {
                write!(f, "peer {peer} hung up before sending expected message")
            }
            CommError::SizeMismatch {
                from,
                tag,
                got,
                want,
            } => write!(
                f,
                "message length mismatch (from {from}, tag {tag}): got {got}, want {want}"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Handle for an in-flight non-blocking send.
#[derive(Debug)]
#[must_use = "a send request must be waited on before its buffer is reused"]
pub struct SendRequest(pub(crate) ());

/// Handle for an in-flight non-blocking receive.
#[derive(Debug)]
#[must_use = "a receive request must be waited on to obtain the data"]
pub struct RecvRequest {
    pub(crate) from: usize,
    pub(crate) tag: Tag,
}

/// A process-group communicator.
///
/// Payloads never pass through a caller-side staging vector: a send
/// hands `fill` the wire buffer itself and a receive hands `take` the
/// arrived payload in place — on [`crate::thread_backend::ThreadComm`]
/// with `TransportKind::SharedSlots` that storage is the peer-visible
/// slot, so a halo face is written once and read once end to end.
///
/// Implementation: [`crate::thread_backend::ThreadComm`] (real OS
/// threads with injected wire latency — communication genuinely
/// overlaps computation in wall-clock time). The executors stay
/// generic over the trait, as do the harness's probes.
pub trait Communicator<T: Copy + Default + Send + 'static> {
    /// This process's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of processes.
    fn size(&self) -> usize;

    /// Block until every rank has entered the barrier.
    fn barrier(&mut self);

    /// Blocking send (`MPI_Send`) of a `len`-element payload packed in
    /// place by `fill`, which receives the (zeroed or stale) wire buffer
    /// and must overwrite all of it. Returns when the payload has been
    /// handed to the transport *and* the modeled transmission time has
    /// elapsed on the caller (Fig. 7 of the paper).
    fn send_with(
        &mut self,
        to: usize,
        tag: Tag,
        len: usize,
        fill: &mut dyn FnMut(&mut [T]),
    ) -> Result<(), CommError>;

    /// Non-blocking send (`MPI_Isend`) of a `len`-element payload packed
    /// in place by `fill` (see [`Communicator::send_with`]): hands the
    /// payload to the transport and returns immediately.
    fn isend_with(
        &mut self,
        to: usize,
        tag: Tag,
        len: usize,
        fill: &mut dyn FnMut(&mut [T]),
    ) -> Result<SendRequest, CommError>;

    /// Non-blocking receive (`MPI_Irecv`): registers interest and
    /// returns immediately.
    fn irecv(&mut self, from: usize, tag: Tag) -> RecvRequest;

    /// Blocking receive (`MPI_Recv`) of a `want`-element payload
    /// consumed in place by `take`, which reads directly from wire
    /// storage. Fails with [`CommError::SizeMismatch`] if the message
    /// length differs.
    fn recv_with(
        &mut self,
        from: usize,
        tag: Tag,
        want: usize,
        take: &mut dyn FnMut(&[T]),
    ) -> Result<(), CommError>;

    /// Complete a non-blocking receive (`MPI_Wait`), consuming the
    /// payload in place (see [`Communicator::recv_with`]).
    fn wait_recv_with(
        &mut self,
        req: RecvRequest,
        want: usize,
        take: &mut dyn FnMut(&[T]),
    ) -> Result<(), CommError>;

    /// Complete a non-blocking send (`MPI_Wait`).
    fn wait_send(&mut self, req: SendRequest) -> Result<(), CommError>;

    /// [`Communicator::send_with`] out of a caller-owned buffer, for
    /// callers with nothing to pack (probes, ping-pongs). Keeps MPI's
    /// abort-on-error behavior: panics on any [`CommError`].
    fn send_from(&mut self, to: usize, tag: Tag, data: &[T]) {
        self.send_with(to, tag, data.len(), &mut |out| out.copy_from_slice(data))
            .unwrap_or_else(|e| panic!("send_from failed: {e}"));
    }

    /// [`Communicator::recv_with`] into a caller-owned buffer. Panics on
    /// any [`CommError`], a length other than `out.len()` included.
    fn recv_into(&mut self, from: usize, tag: Tag, out: &mut [T]) {
        self.recv_with(from, tag, out.len(), &mut |data| out.copy_from_slice(data))
            .unwrap_or_else(|e| panic!("recv_into failed: {e}"));
    }
}
