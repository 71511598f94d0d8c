//! Execution traces: per-rank activity intervals, utilization statistics,
//! ASCII Gantt charts and CSV export.
//!
//! The Gantt rendering reproduces the structure of the paper's Fig. 1
//! (non-overlapping: striped receive/compute/send triplets) and Fig. 2
//! (overlapping: solid compute bars with communication hidden on the
//! DMA lanes).

use crate::program::Rank;
use crate::time::SimTime;
use std::fmt::Write as _;

/// What a rank (or one of its lanes) was doing during an interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Activity {
    /// CPU: tile computation.
    Compute,
    /// CPU: posting a non-blocking send (`A₁`, MPI buffer fill).
    PostSend,
    /// CPU: posting a non-blocking receive (`A₃`).
    PostRecv,
    /// CPU: a blocking send's full copy+transmit path.
    BlockingSend,
    /// CPU: a blocking receive's copy path (after arrival).
    BlockingRecv,
    /// CPU idle, waiting for a request or message.
    Idle,
    /// CPU idle past the configured stall threshold — a wait that
    /// should have been hidden by the schedule (or a fault-induced
    /// retry). Rendered prominently so stalls stand out in figures.
    Stall,
    /// NIC/DMA transmit lane busy (`B₃+B₄`).
    TxBusy,
    /// NIC/DMA receive lane busy (`B₁+B₂`).
    RxBusy,
}

impl Activity {
    /// Single-character glyph for Gantt rendering.
    pub fn glyph(&self) -> char {
        match self {
            Activity::Compute => '#',
            Activity::PostSend => 's',
            Activity::PostRecv => 'r',
            Activity::BlockingSend => 'S',
            Activity::BlockingRecv => 'R',
            Activity::Idle => '.',
            Activity::Stall => '!',
            Activity::TxBusy => '>',
            Activity::RxBusy => '<',
        }
    }

    /// True for activities that occupy the CPU.
    pub fn is_cpu(&self) -> bool {
        !matches!(
            self,
            Activity::TxBusy | Activity::RxBusy | Activity::Idle | Activity::Stall
        )
    }
}

/// One recorded interval.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Interval {
    /// The rank it belongs to.
    pub rank: Rank,
    /// Activity kind.
    pub activity: Activity,
    /// Start time.
    pub start: SimTime,
    /// End time (≥ start).
    pub end: SimTime,
}

/// A full simulation trace.
#[derive(Clone, Default, Debug)]
pub struct Trace {
    intervals: Vec<Interval>,
    enabled: bool,
}

impl Trace {
    /// A trace that records intervals.
    pub fn enabled() -> Self {
        Trace {
            intervals: Vec::new(),
            enabled: true,
        }
    }

    /// A trace that drops everything (for large simulations).
    pub fn disabled() -> Self {
        Trace {
            intervals: Vec::new(),
            enabled: false,
        }
    }

    /// Record an interval (no-op when disabled or empty).
    pub fn record(&mut self, rank: Rank, activity: Activity, start: SimTime, end: SimTime) {
        debug_assert!(end >= start, "interval ends before it starts");
        if self.enabled && end > start {
            self.intervals.push(Interval {
                rank,
                activity,
                start,
                end,
            });
        }
    }

    /// All recorded intervals.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Latest interval end — the natural horizon for rendering.
    pub fn horizon(&self) -> SimTime {
        self.intervals
            .iter()
            .map(|i| i.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Intervals of one rank, in recording order.
    pub fn for_rank(&self, rank: Rank) -> impl Iterator<Item = &Interval> {
        self.intervals.iter().filter(move |i| i.rank == rank)
    }

    /// Total CPU-busy time of a rank.
    pub fn cpu_busy(&self, rank: Rank) -> SimTime {
        let ns = self
            .for_rank(rank)
            .filter(|i| i.activity.is_cpu())
            .map(|i| (i.end - i.start).as_nanos())
            .sum();
        SimTime::from_nanos(ns)
    }

    /// Total compute-only time of a rank.
    pub fn compute_time(&self, rank: Rank) -> SimTime {
        let ns = self
            .for_rank(rank)
            .filter(|i| i.activity == Activity::Compute)
            .map(|i| (i.end - i.start).as_nanos())
            .sum();
        SimTime::from_nanos(ns)
    }

    /// CPU utilization of a rank over `[0, horizon]` (compute + posts).
    pub fn utilization(&self, rank: Rank, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.cpu_busy(rank).as_us() / horizon.as_us()
    }

    /// The narrowest ASCII Gantt chart [`Trace::gantt`] will render.
    pub const MIN_GANTT_WIDTH: usize = 10;

    /// Render an ASCII Gantt chart of CPU activities, `width` columns
    /// spanning `[0, horizon]`. One row per rank in `ranks`.
    ///
    /// Widths below [`Trace::MIN_GANTT_WIDTH`] are clamped up to it —
    /// this is reachable from CLI flags, so a too-small terminal is a
    /// rendering preference to correct, not a reason to panic.
    pub fn gantt(&self, ranks: &[Rank], horizon: SimTime, width: usize) -> String {
        let width = width.max(Self::MIN_GANTT_WIDTH);
        let mut out = String::new();
        let span = horizon.as_us().max(1e-9);
        for &rank in ranks {
            let mut row = vec!['.'; width];
            for iv in self.for_rank(rank) {
                // Stalls are idle time, but they are exactly what a
                // reader scans a chart for — draw them like CPU work.
                if !iv.activity.is_cpu() && iv.activity != Activity::Stall {
                    continue;
                }
                let a = ((iv.start.as_us() / span) * width as f64).floor() as usize;
                let b = ((iv.end.as_us() / span) * width as f64).ceil() as usize;
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = iv.activity.glyph();
                }
            }
            let _ = writeln!(out, "P{rank:<3} |{}|", row.iter().collect::<String>());
        }
        let _ = writeln!(
            out,
            "      0{:>w$}",
            format!("{horizon}"),
            w = width.saturating_sub(1)
        );
        out
    }

    /// Render an SVG Gantt chart: one row per rank, CPU activities
    /// colored, NIC lanes as thin strips under each row. Suitable for
    /// embedding in documentation (the publication-quality Fig. 1/2).
    pub fn to_svg(&self, ranks: &[Rank], horizon: SimTime, width: u32) -> String {
        let row_h = 26u32;
        let lane_h = 6u32;
        let label_w = 46u32;
        // Same clamp rationale as `gantt`: anything narrower than the
        // label gutter would underflow the plot width below.
        let width = width.max(label_w + 18);
        let height = ranks.len() as u32 * (row_h + lane_h + 6) + 28;
        let span = horizon.as_us().max(1e-9);
        let x_of = |t: SimTime| label_w as f64 + t.as_us() / span * (width - label_w - 8) as f64;
        let color = |a: Activity| match a {
            Activity::Compute => "#4c78a8",
            Activity::PostSend => "#f58518",
            Activity::PostRecv => "#e45756",
            Activity::BlockingSend => "#b27900",
            Activity::BlockingRecv => "#9d5555",
            Activity::Idle => "#e8e8e8",
            Activity::Stall => "#d62728",
            Activity::TxBusy => "#72b7b2",
            Activity::RxBusy => "#54a24b",
        };
        let mut out = format!(
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" font-family="monospace" font-size="11">"#
        );
        out.push('\n');
        for (row, &rank) in ranks.iter().enumerate() {
            let y = 8 + row as u32 * (row_h + lane_h + 6);
            out += &format!(
                r##"<text x="2" y="{}" fill="#333">P{rank}</text>"##,
                y + row_h / 2 + 4
            );
            out.push('\n');
            for iv in self.for_rank(rank) {
                let x0 = x_of(iv.start);
                let x1 = x_of(iv.end);
                let (yy, hh) = if iv.activity.is_cpu()
                    || iv.activity == Activity::Idle
                    || iv.activity == Activity::Stall
                {
                    (y, row_h)
                } else {
                    (y + row_h + 1, lane_h)
                };
                out += &format!(
                    r#"<rect x="{:.2}" y="{yy}" width="{:.2}" height="{hh}" fill="{}"><title>{:?} {}–{}</title></rect>"#,
                    x0,
                    (x1 - x0).max(0.5),
                    color(iv.activity),
                    iv.activity,
                    iv.start,
                    iv.end
                );
                out.push('\n');
            }
        }
        out += &format!(
            r##"<text x="{label_w}" y="{}" fill="#666">0 … {horizon}</text>"##,
            height - 8
        );
        out.push_str("\n</svg>\n");
        out
    }

    /// Export all intervals as CSV (`rank,activity,start_us,end_us`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("rank,activity,start_us,end_us\n");
        for iv in &self.intervals {
            let _ = writeln!(
                out,
                "{},{:?},{:.3},{:.3}",
                iv.rank,
                iv.activity,
                iv.start.as_us(),
                iv.end.as_us()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: f64) -> SimTime {
        SimTime::from_us(us)
    }

    #[test]
    fn record_and_query() {
        let mut tr = Trace::enabled();
        tr.record(0, Activity::Compute, t(0.0), t(10.0));
        tr.record(0, Activity::Idle, t(10.0), t(12.0));
        tr.record(1, Activity::Compute, t(0.0), t(4.0));
        assert_eq!(tr.intervals().len(), 3);
        assert_eq!(tr.for_rank(0).count(), 2);
        assert_eq!(tr.cpu_busy(0), t(10.0));
        assert_eq!(tr.compute_time(1), t(4.0));
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::disabled();
        tr.record(0, Activity::Compute, t(0.0), t(10.0));
        assert!(tr.intervals().is_empty());
    }

    #[test]
    fn empty_intervals_dropped() {
        let mut tr = Trace::enabled();
        tr.record(0, Activity::Compute, t(5.0), t(5.0));
        assert!(tr.intervals().is_empty());
    }

    #[test]
    fn horizon_tracks_latest_end() {
        let mut tr = Trace::enabled();
        tr.record(0, Activity::Compute, t(0.0), t(10.0));
        tr.record(1, Activity::Compute, t(5.0), t(25.0));
        tr.record(0, Activity::Idle, t(12.0), t(20.0));
        assert_eq!(tr.intervals().len(), 3);
        assert_eq!(tr.horizon(), t(25.0));
        assert_eq!(Trace::enabled().horizon(), SimTime::ZERO);
    }

    #[test]
    fn utilization() {
        let mut tr = Trace::enabled();
        tr.record(0, Activity::Compute, t(0.0), t(50.0));
        assert!((tr.utilization(0, t(100.0)) - 0.5).abs() < 1e-12);
        assert_eq!(tr.utilization(0, SimTime::ZERO), 0.0);
    }

    #[test]
    fn gantt_renders_rows() {
        let mut tr = Trace::enabled();
        tr.record(0, Activity::Compute, t(0.0), t(50.0));
        tr.record(1, Activity::Compute, t(50.0), t(100.0));
        tr.record(1, Activity::TxBusy, t(0.0), t(100.0)); // not CPU: hidden
        let g = tr.gantt(&[0, 1], t(100.0), 20);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("P0"));
        assert!(lines[0].contains('#'));
        // Rank 1 computes in the second half only.
        let row1: String = lines[1].chars().collect();
        assert!(row1.contains('#'));
        assert!(row1.find('#').unwrap() > row1.len() / 2);
    }

    #[test]
    fn tiny_widths_clamp_instead_of_panicking() {
        // Both widths are CLI-reachable; a 1-column request renders at
        // the minimum instead of asserting.
        let mut tr = Trace::enabled();
        tr.record(0, Activity::Compute, t(0.0), t(50.0));
        let g = tr.gantt(&[0], t(100.0), 1);
        let wide = tr.gantt(&[0], t(100.0), Trace::MIN_GANTT_WIDTH);
        assert_eq!(g, wide);
        let svg = tr.to_svg(&[0], t(100.0), 1);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn svg_export_structure() {
        let mut tr = Trace::enabled();
        tr.record(0, Activity::Compute, t(0.0), t(50.0));
        tr.record(0, Activity::TxBusy, t(10.0), t(30.0));
        tr.record(1, Activity::Idle, t(0.0), t(20.0));
        let svg = tr.to_svg(&[0, 1], t(100.0), 600);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains(">P0</text>"));
        assert!(svg.contains(">P1</text>"));
        // Compute bar + NIC strip + idle bar = 3 rects.
        assert_eq!(svg.matches("<rect").count(), 3);
        assert!(svg.contains("#4c78a8")); // compute color
        assert!(svg.contains("#72b7b2")); // tx color
    }

    #[test]
    fn csv_export() {
        let mut tr = Trace::enabled();
        tr.record(2, Activity::PostSend, t(1.0), t(2.5));
        let csv = tr.to_csv();
        assert!(csv.starts_with("rank,activity,start_us,end_us"));
        assert!(csv.contains("2,PostSend,1.000,2.500"));
    }

    #[test]
    fn glyphs_distinct() {
        use Activity::*;
        let all = [
            Compute,
            PostSend,
            PostRecv,
            BlockingSend,
            BlockingRecv,
            Idle,
            Stall,
            TxBusy,
            RxBusy,
        ];
        let set: std::collections::HashSet<char> = all.iter().map(|a| a.glyph()).collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn stalls_render_in_gantt_and_svg() {
        let mut tr = Trace::enabled();
        tr.record(0, Activity::Compute, t(0.0), t(40.0));
        tr.record(0, Activity::Stall, t(40.0), t(100.0));
        assert!(!Activity::Stall.is_cpu());
        // ASCII: stalls draw even though they are not CPU work.
        let g = tr.gantt(&[0], t(100.0), 20);
        assert!(g.contains('!'), "{g}");
        // SVG: full-height bar in the stall color.
        let svg = tr.to_svg(&[0], t(100.0), 600);
        assert!(svg.contains("#d62728"), "{svg}");
        assert!(svg.contains("Stall"));
    }

    #[test]
    fn empty_trace_renders_without_panicking() {
        // Zero-step runs produce empty traces with a zero horizon; both
        // renderers must survive the degenerate time scale.
        let tr = Trace::enabled();
        assert_eq!(tr.horizon(), SimTime::ZERO);
        let g = tr.gantt(&[0, 1], tr.horizon(), 20);
        assert_eq!(g.lines().count(), 3); // two empty rows + axis
        assert!(g.lines().all(|l| !l.contains('#')));
        let svg = tr.to_svg(&[0, 1], tr.horizon(), 400);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<rect").count(), 0);
        // CSV degenerates to just the header.
        assert_eq!(tr.to_csv(), "rank,activity,start_us,end_us\n");
    }

    #[test]
    fn single_interval_trace_renders() {
        let mut tr = Trace::enabled();
        tr.record(0, Activity::Compute, t(0.0), t(1.0));
        let g = tr.gantt(&[0], tr.horizon(), 10);
        // The lone interval fills the whole row.
        assert!(g.lines().next().unwrap().contains("##########"), "{g}");
        let svg = tr.to_svg(&[0], tr.horizon(), 400);
        assert_eq!(svg.matches("<rect").count(), 1);
    }
}
