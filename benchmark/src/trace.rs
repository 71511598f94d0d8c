//! The harness-side span recorder of the traced pass.
//!
//! Spans are recorded from outside the crates, around the calls into
//! each layer, kept in memory, and written once at exit as Chrome
//! trace events (`chrome://tracing`, Perfetto). Spans inside the
//! crates are a later issue; the one hook the crates do offer — the
//! engine's [`StepObserver`] — is used to split a rank's time into its
//! phases.

use crate::stats::self_time;
use std::io::Write;
use std::time::Instant;
use stencil::engine::{Phase, StepObserver};

/// One recorded interval. `parent` is the span that caused it; the
/// spans of one op share its `op` root.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub workload: &'static str,
    pub name: &'static str,
    pub rank: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store; times are nanoseconds since its creation.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        parent: Option<u32>,
        workload: &'static str,
        name: &'static str,
        rank: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.ns(start);
        self.spans.push(Span {
            id,
            parent,
            workload,
            name,
            rank,
            start_ns,
            end_ns: self.ns(end).max(start_ns),
        });
        id
    }

    /// Self time of every span, indexed by span id.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .map(|s| self_time((s.start_ns, s.end_ns), &children[s.id as usize]))
            .collect()
    }

    /// Write every span as a Chrome "complete" event: one process per
    /// workload, thread 0 for the caller's side and thread `rank + 1`
    /// for rank threads. `id`/`parent` ride in `args`.
    pub fn write_chrome(&self, path: &std::path::Path, workloads: &[&str]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (pid, w) in workloads.iter().enumerate() {
            writeln!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{w}\"}}}},"
            )?;
        }
        for (i, s) in self.spans.iter().enumerate() {
            let pid = workloads.iter().position(|w| *w == s.workload).unwrap_or(0);
            let tid = s.rank.map_or(0, |r| r + 1);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"id\":{},\"parent\":{parent}}}}}{sep}",
                s.name,
                s.workload,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// The harness's own [`StepObserver`]: keeps every phase interval of
/// one rank, plus the instant the rank thread started.
pub struct SpanObserver {
    pub rank: usize,
    pub created: Instant,
    pub phases: Vec<(Phase, Instant, Instant)>,
}

impl SpanObserver {
    /// `steps` sizes the buffer up front so recording never reallocates
    /// inside the measured run (≤ 9 phases per step on a 2-direction
    /// block).
    pub fn new(rank: usize, steps: usize) -> Self {
        SpanObserver {
            rank,
            created: Instant::now(),
            phases: Vec::with_capacity(steps * 9 + 16),
        }
    }

    /// `(compute, cpu lane, comm lane)` nanoseconds: A₂, A₁+A₂+A₃ and
    /// the exposed B lane of eq. 4.
    pub fn lane_ns(&self) -> (u64, u64, u64) {
        let (mut compute, mut a, mut b) = (0, 0, 0);
        for (phase, start, end) in &self.phases {
            let ns = end.duration_since(*start).as_nanos() as u64;
            if matches!(phase, Phase::Compute { .. }) {
                compute += ns;
            }
            if phase.is_cpu_lane() {
                a += ns;
            } else {
                b += ns;
            }
        }
        (compute, a, b)
    }

    /// When the rank finished its last phase (its start if it had none).
    pub fn last_end(&self) -> Instant {
        self.phases.last().map_or(self.created, |p| p.2)
    }
}

impl StepObserver for SpanObserver {
    const ENABLED: bool = true;

    fn on_phase(&mut self, phase: Phase, start: Instant, end: Instant) {
        self.phases.push((phase, start, end));
    }
}

/// Span name of an engine phase.
pub fn phase_name(phase: &Phase) -> &'static str {
    match phase {
        Phase::Compute { .. } => "compute",
        Phase::Pack { .. } => "pack",
        Phase::Unpack { .. } => "unpack",
        Phase::PostRecv { .. } => "post_recv",
        Phase::PostSend { .. } => "post_send",
        Phase::Recv { .. } => "recv",
        Phase::Send { .. } => "send",
        Phase::WaitRecv { .. } => "wait_recv",
        Phase::WaitSend { .. } => "wait_send",
    }
}
