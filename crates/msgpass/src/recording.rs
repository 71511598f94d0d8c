//! Trace-driven simulation: record a *real* execution's communication
//! ops and measured compute segments, then replay the recorded program
//! through the `cluster-sim` discrete-event model under any machine
//! parameters.
//!
//! This is how one predicts cluster performance of actual code from a
//! single-machine run: the executors from `stencil` (or any code written
//! against [`Communicator`]) run unchanged against a [`RecordingComm`];
//! the wrapper times the gaps between communication calls (= the real
//! computation, face packing and unpacking included) and logs every
//! operation with its real byte count. The
//! result converts to per-rank [`cluster_sim::program::Program`]s whose
//! `Compute` durations are *measured*, while all communication costs
//! come from the simulated machine model.
//!
//! Recording runs the ranks **sequentially on one thread** (in rank
//! order) so compute timings are undistorted by scheduling. That works
//! for any program whose messages flow from lower to higher ranks — the
//! wavefront pipelines of this repository all qualify; a program that
//! receives from a higher rank would block forever, which the unbounded
//! eager channels turn into a clear panic (recv on an empty, hung-up
//! channel) rather than a silent hang once the lower ranks finished.

use crate::comm::{CommError, Communicator, RecvRequest, SendRequest, Tag};
use crate::thread_backend::{build_world, LatencyModel, ThreadComm};
use crate::transport::Envelope;
use cluster_sim::program::{Program, ReqId};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// One recorded operation.
#[derive(Clone, Debug, PartialEq)]
enum Rec {
    Compute {
        us: f64,
    },
    Send {
        to: usize,
        tag: Tag,
        bytes: u64,
    },
    Recv {
        from: usize,
        tag: Tag,
        bytes: u64,
    },
    Isend {
        to: usize,
        tag: Tag,
        bytes: u64,
    },
    Irecv {
        from: usize,
        tag: Tag,
        /// Resolved when the matching `wait_recv` learns the length.
        bytes: Option<u64>,
    },
    Wait {
        /// Index of the `Isend`/`Irecv` record this waits for.
        op: usize,
    },
}

/// A [`Communicator`] wrapper that executes for real (through an inner
/// [`ThreadComm`]) while recording a simulator program.
pub struct RecordingComm<T: Send + Sync + 'static> {
    inner: ThreadComm<T>,
    ops: Vec<Rec>,
    mark: Instant,
    /// Unresolved `Irecv` record indices per (src, tag), FIFO.
    pending_irecvs: HashMap<(usize, Tag), VecDeque<usize>>,
    /// Inner send-request id → `Isend` record index.
    send_ops: HashMap<u64, usize>,
}

/// Close the compute segment that started at `mark`.
fn close_compute(ops: &mut Vec<Rec>, mark: Instant) {
    let us = mark.elapsed().as_secs_f64() * 1e6;
    if us > 0.0 {
        ops.push(Rec::Compute { us });
    }
}

impl<T: Copy + Default + Send + Sync + 'static> RecordingComm<T> {
    fn new(inner: ThreadComm<T>) -> Self {
        RecordingComm {
            inner,
            ops: Vec::new(),
            mark: Instant::now(),
            pending_irecvs: HashMap::new(),
            send_ops: HashMap::new(),
        }
    }

    /// Close the current compute segment (time since the last op).
    fn note_compute(&mut self) {
        close_compute(&mut self.ops, self.mark);
    }

    /// Restart the compute timer (call after the op's own work).
    fn rearm(&mut self) {
        self.mark = Instant::now();
    }

    fn payload_bytes(&self, len: usize) -> u64 {
        (len * std::mem::size_of::<T>()) as u64
    }

    /// Stage and hand off one send through `post` (the inner blocking
    /// or non-blocking call). Packing the face is the caller's work, so
    /// the compute segment closes when `fill` returns, not before it.
    fn record_send<R>(
        &mut self,
        fill: &mut dyn FnMut(&mut [T]),
        post: impl FnOnce(&mut ThreadComm<T>, &mut dyn FnMut(&mut [T])) -> Result<R, CommError>,
    ) -> Result<R, CommError> {
        let (ops, mark) = (&mut self.ops, self.mark);
        post(&mut self.inner, &mut |out| {
            fill(out);
            close_compute(ops, mark);
        })
    }

    /// Take the already-buffered `(from, tag)` message off the link and
    /// close the compute segment; returns it with its byte count.
    ///
    /// Non-blocking: during sequential recording the message must
    /// already be there; a blocking receive would hang forever on a
    /// non-rank-ordered program instead of diagnosing it.
    fn record_arrival(&mut self, from: usize, tag: Tag) -> (Envelope<T>, u64) {
        self.note_compute();
        let msg = self.inner.recv_now(from, tag);
        let bytes = self.payload_bytes(msg.payload.len());
        (msg, bytes)
    }

    /// Convert the recording into a simulator program.
    ///
    /// # Errors
    /// Fails if an `Irecv` was posted but never waited (its byte count
    /// is unknown to the simulator).
    pub fn into_program(self) -> Result<Program, String> {
        let mut p = Program::new();
        let mut req_of: HashMap<usize, ReqId> = HashMap::new();
        for (idx, rec) in self.ops.iter().enumerate() {
            match *rec {
                Rec::Compute { us } => p.compute(us, idx as u64),
                Rec::Send { to, tag, bytes } => p.send(to, tag, bytes),
                Rec::Recv { from, tag, bytes } => p.recv(from, tag, bytes),
                Rec::Isend { to, tag, bytes } => {
                    let r = p.isend(to, tag, bytes);
                    req_of.insert(idx, r);
                }
                Rec::Irecv { from, tag, bytes } => {
                    let bytes = bytes
                        .ok_or_else(|| format!("Irecv from {from} tag {tag} was never waited"))?;
                    let r = p.irecv(from, tag, bytes);
                    req_of.insert(idx, r);
                }
                Rec::Wait { op } => {
                    let r = *req_of
                        .get(&op)
                        .ok_or_else(|| format!("wait references unknown op {op}"))?;
                    p.wait(r);
                }
            }
        }
        p.validate().map_err(|e| e.to_string())?;
        Ok(p)
    }
}

impl<T: Copy + Default + Send + Sync + 'static> Communicator<T> for RecordingComm<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn barrier(&mut self) {
        // Sequential recording cannot block on a real barrier; the
        // simulator has no barrier op either, so it is recorded as a
        // no-op (barriers separate phases, they don't move data).
    }

    fn send_with(
        &mut self,
        to: usize,
        tag: Tag,
        len: usize,
        fill: &mut dyn FnMut(&mut [T]),
    ) -> Result<(), CommError> {
        self.record_send(fill, |c, f| c.send_with(to, tag, len, f))?;
        let bytes = self.payload_bytes(len);
        self.ops.push(Rec::Send { to, tag, bytes });
        self.rearm();
        Ok(())
    }

    fn isend_with(
        &mut self,
        to: usize,
        tag: Tag,
        len: usize,
        fill: &mut dyn FnMut(&mut [T]),
    ) -> Result<SendRequest, CommError> {
        let req = self.record_send(fill, |c, f| c.isend_with(to, tag, len, f))?;
        let bytes = self.payload_bytes(len);
        self.ops.push(Rec::Isend { to, tag, bytes });
        self.send_ops.insert(req.id, self.ops.len() - 1);
        self.rearm();
        Ok(req)
    }

    fn irecv(&mut self, from: usize, tag: Tag) -> RecvRequest {
        self.note_compute();
        let req = self.inner.irecv(from, tag);
        self.ops.push(Rec::Irecv {
            from,
            tag,
            bytes: None,
        });
        self.pending_irecvs
            .entry((from, tag))
            .or_default()
            .push_back(self.ops.len() - 1);
        self.rearm();
        req
    }

    fn recv_with(
        &mut self,
        from: usize,
        tag: Tag,
        want: usize,
        take: &mut dyn FnMut(&[T]),
    ) -> Result<(), CommError> {
        let (msg, bytes) = self.record_arrival(from, tag);
        self.ops.push(Rec::Recv { from, tag, bytes });
        self.rearm();
        // Unpacking is the caller's work: it runs on the next segment.
        self.inner.consume(from, msg, want, take)
    }

    fn wait_recv_with(
        &mut self,
        req: RecvRequest,
        want: usize,
        take: &mut dyn FnMut(&[T]),
    ) -> Result<(), CommError> {
        let (msg, nbytes) = self.record_arrival(req.from, req.tag);
        let op = self
            .pending_irecvs
            .get_mut(&(req.from, req.tag))
            .and_then(VecDeque::pop_front)
            .expect("wait_recv without a matching irecv");
        if let Rec::Irecv { bytes, .. } = &mut self.ops[op] {
            *bytes = Some(nbytes);
        }
        self.ops.push(Rec::Wait { op });
        self.rearm();
        self.inner.consume(req.from, msg, want, take)
    }

    fn wait_send(&mut self, req: SendRequest) -> Result<(), CommError> {
        self.note_compute();
        let op = self
            .send_ops
            .remove(&req.id)
            .expect("wait_send on a request not issued through this comm");
        self.inner.wait_send(req)?;
        self.ops.push(Rec::Wait { op });
        self.rearm();
        Ok(())
    }
}

/// Run `size` ranks **sequentially in rank order** on the current
/// thread, recording each; returns the per-rank results and the per-rank
/// simulator programs.
///
/// All messages must flow from lower to higher ranks (wavefront order) —
/// see the module docs.
pub fn record_sequential<T, R, F>(size: usize, body: F) -> (Vec<R>, Vec<Program>)
where
    T: Copy + Default + Send + Sync + 'static,
    F: Fn(&mut RecordingComm<T>) -> R,
{
    let comms = build_world::<T>(size, LatencyModel::zero());
    let mut results = Vec::with_capacity(size);
    let mut programs = Vec::with_capacity(size);
    for inner in comms {
        let mut rec = RecordingComm::new(inner);
        rec.rearm();
        results.push(body(&mut rec));
        rec.note_compute();
        programs.push(rec.into_program().expect("recording is self-consistent"));
    }
    (results, programs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::engine::{simulate, SimConfig};
    use cluster_sim::program::Op;
    use tiling_core::machine::MachineParams;

    #[test]
    fn records_a_pipeline_and_replays_in_simulator() {
        // Rank 0 computes then sends; rank 1 receives then computes.
        let (results, programs) = record_sequential::<f32, _, _>(2, |comm| {
            if comm.rank() == 0 {
                let mut acc = 0.0f32;
                for i in 0..200_000 {
                    acc += (i as f32).sqrt();
                }
                comm.send_from(1, 0, &[acc; 256]);
                acc
            } else {
                let mut data = [0.0f32; 256];
                comm.recv_into(0, 0, &mut data);
                data[0]
            }
        });
        assert_eq!(results[0], results[1]);
        // Program 0: Compute then Send(1024 B).
        let ops0: Vec<Op> = programs[0].ops().collect();
        assert!(matches!(ops0[0], Op::Compute { .. }));
        assert!(matches!(
            ops0[1],
            Op::Send {
                to: 1,
                bytes: 1024,
                ..
            }
        ));
        // Replay through the simulator.
        let machine = MachineParams::paper_cluster();
        let res = simulate(SimConfig::new(machine).with_trace(false), programs).unwrap();
        assert!(res.makespan.as_us() > 0.0);
    }

    #[test]
    fn nonblocking_ops_resolve_bytes_at_wait() {
        let (_, programs) = record_sequential::<f64, _, _>(2, |comm| {
            if comm.rank() == 0 {
                let q = comm.isend_with(1, 5, 64, &mut |out| out.fill(1.0)).unwrap();
                comm.wait_send(q).unwrap();
            } else {
                let q = comm.irecv(0, 5);
                comm.wait_recv_with(q, 64, &mut |data| assert_eq!(data[63], 1.0))
                    .unwrap();
            }
        });
        let ops1: Vec<Op> = programs[1].ops().collect();
        let irecv = ops1.iter().find(|o| matches!(o, Op::Irecv { .. })).unwrap();
        assert!(matches!(irecv, Op::Irecv { bytes: 512, .. }));
    }

    #[test]
    fn recorded_program_validates_and_simulates_deterministically() {
        let build = || {
            record_sequential::<f32, _, _>(3, |comm| {
                let r = comm.rank();
                if r > 0 {
                    comm.recv_into(r - 1, 0, &mut [0.0f32; 128]);
                }
                std::hint::black_box((0..10_000).map(|x| x as f32).sum::<f32>());
                if r + 1 < comm.size() {
                    comm.send_from(r + 1, 0, &[0.0f32; 128]);
                }
            })
            .1
        };
        for p in build() {
            p.validate().unwrap();
        }
        // Note: compute durations are *measured*, so two recordings
        // differ slightly — but each replay is deterministic.
        let machine = MachineParams::paper_cluster();
        let programs = build();
        let a = simulate(SimConfig::new(machine).with_trace(false), programs.clone()).unwrap();
        let b = simulate(SimConfig::new(machine).with_trace(false), programs).unwrap();
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    #[should_panic(expected = "messages must flow from lower to higher ranks")]
    fn non_rank_ordered_program_is_diagnosed() {
        // Rank 0 receives from rank 1: impossible during sequential
        // recording; must panic with a diagnosis, not hang.
        let _ = record_sequential::<f32, _, _>(2, |comm| {
            if comm.rank() == 0 {
                comm.recv_into(1, 0, &mut [0.0]);
            } else {
                comm.send_from(0, 0, &[1.0]);
            }
        });
    }

    /// The engine's overlap loop over `steps` 100-element faces, for a
    /// rank with the given upstream and downstream peers (the unchanged
    /// executor from `stencil` can't be used here — circular
    /// dev-dependency). Direction `d` of step `k` travels under tag
    /// `2k + d`.
    fn overlap_rank(
        comm: &mut RecordingComm<f32>,
        up: [Option<usize>; 2],
        down: [Option<usize>; 2],
        steps: u64,
    ) {
        let work = || std::hint::black_box((0..5_000).map(|x| x as f32).sum::<f32>());
        let post = |comm: &mut RecordingComm<f32>, k: u64| {
            [0, 1].map(|d| up[d].map(|src| comm.irecv(src, 2 * k + d as u64)))
        };
        let send = |comm: &mut RecordingComm<f32>, k: u64| {
            [0, 1].map(|d| {
                down[d].map(|dst| {
                    comm.isend_with(dst, 2 * k + d as u64, 100, &mut |out| out.fill(1.0))
                        .unwrap()
                })
            })
        };
        let mut cur = post(comm, 0);
        for k in 0..steps {
            let next = if k + 1 < steps {
                post(comm, k + 1)
            } else {
                [None, None]
            };
            let sends = if k >= 1 {
                send(comm, k - 1)
            } else {
                [None, None]
            };
            for req in cur.into_iter().flatten() {
                comm.wait_recv_with(req, 100, &mut |_| ()).unwrap();
            }
            work();
            for req in sends.into_iter().flatten() {
                comm.wait_send(req).unwrap();
            }
            cur = next;
        }
        for req in send(comm, steps - 1).into_iter().flatten() {
            comm.wait_send(req).unwrap();
        }
    }

    #[test]
    fn overlap_pipeline_on_2x2_records_and_retires_every_request() {
        // Rank r sits at (r / 2, r % 2): faces flow down both axes.
        let mut programs = Vec::new();
        for inner in build_world::<f32>(4, LatencyModel::zero()) {
            let mut rec = RecordingComm::new(inner);
            let (i, j) = (rec.rank() / 2, rec.rank() % 2);
            let up = [
                (i > 0).then(|| rec.rank() - 2),
                (j > 0).then(|| rec.rank() - 1),
            ];
            let down = [
                (i < 1).then(|| rec.rank() + 2),
                (j < 1).then(|| rec.rank() + 1),
            ];
            overlap_rank(&mut rec, up, down, 4);
            // A completed wait forgets its request: nothing accumulates
            // over the life of a recording.
            assert!(rec.send_ops.is_empty(), "rank {}", rec.rank());
            assert!(rec.pending_irecvs.values().all(VecDeque::is_empty));
            programs.push(rec.into_program().expect("self-consistent"));
        }
        let machine = MachineParams::paper_cluster();
        let res = simulate(SimConfig::new(machine).with_trace(false), programs).unwrap();
        assert!(res.makespan.as_us() > 0.0);
    }
}
