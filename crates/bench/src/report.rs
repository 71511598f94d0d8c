//! Plain-text reporting: CSV series and markdown tables for the
//! regenerated figures, written without any serialization dependency.

use crate::experiments::{SimSweepPoint, Table12Row};
use std::fmt::Write as _;

/// CSV of a figure sweep: `v,g,nonoverlap_us,overlap_us`.
pub fn sweep_csv(points: &[SimSweepPoint]) -> String {
    let mut out = String::from("v,g,nonoverlap_us,overlap_us\n");
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{:.1},{:.1}",
            p.v, p.g, p.blocking_us, p.overlap_us
        );
    }
    out
}

/// A small ASCII plot of a sweep (time vs V, log-x), mirroring the shape
/// of the paper's Fig. 9–11.
pub fn sweep_ascii_plot(points: &[SimSweepPoint], width: usize, height: usize) -> String {
    assert!(width >= 16 && height >= 4, "plot too small");
    let (Some(first), Some(last)) = (points.first(), points.last()) else {
        return String::from("(no data)\n");
    };
    let tmax = points
        .iter()
        .map(|p| p.blocking_us.max(p.overlap_us))
        .fold(0.0f64, f64::max);
    let tmin = points
        .iter()
        .map(|p| p.blocking_us.min(p.overlap_us))
        .fold(f64::INFINITY, f64::min);
    let span = (tmax - tmin).max(1e-9);
    let vmin = (first.v as f64).ln();
    let vmax = (last.v as f64).ln().max(vmin + 1e-9);
    let mut rows = vec![vec![' '; width]; height];
    let mut place = |v: i64, t: f64, c: char| {
        let x = (((v as f64).ln() - vmin) / (vmax - vmin) * (width - 1) as f64).round() as usize;
        let y = ((tmax - t) / span * (height - 1) as f64).round() as usize;
        let cell = &mut rows[y.min(height - 1)][x.min(width - 1)];
        // Overlapping marks become '*'.
        *cell = if *cell == ' ' || *cell == c { c } else { '*' };
    };
    for p in points {
        place(p.v, p.blocking_us, 'N');
        place(p.v, p.overlap_us, 'O');
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "time {:.3}s (top) … {:.3}s (bottom); x = tile height V (log), N = non-overlap, O = overlap",
        tmax * 1e-6,
        tmin * 1e-6
    );
    for r in rows {
        let _ = writeln!(out, "|{}|", r.iter().collect::<String>());
    }
    out
}

/// Markdown rendering of the Fig. 12 table, paper columns included.
pub fn table12_markdown(rows: &[Table12Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| quantity | {} |",
        rows.iter()
            .map(|r| r.exp.name.to_string())
            .collect::<Vec<_>>()
            .join(" | ")
    );
    let _ = writeln!(
        out,
        "|---|{}|",
        rows.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    let row = |label: &str, f: &dyn Fn(&Table12Row) -> String| {
        let cells = rows.iter().map(f).collect::<Vec<_>>().join(" | ");
        format!("| {label} | {cells} |\n")
    };
    out += &row("index set size", &|r| {
        format!("{}×{}×{}", r.exp.nx, r.exp.ny, r.exp.nz)
    });
    out += &row("V_optimal (sim)", &|r| r.v_optimal.to_string());
    out += &row("V_optimal (paper)", &|r| r.exp.paper_v_optimal.to_string());
    out += &row("g_optimal (sim)", &|r| r.g_optimal.to_string());
    out += &row("t_optimal overlap sim (s)", &|r| {
        format!("{:.4}", r.t_overlap_s)
    });
    out += &row("t_optimal overlap paper (s)", &|r| {
        format!("{:.4}", r.exp.paper_t_overlap_s)
    });
    out += &row("T_fill_MPI_buf model (ms)", &|r| {
        format!("{:.3}", r.fill_ms)
    });
    out += &row("T_fill_MPI_buf paper (ms)", &|r| {
        format!("{:.3}", r.exp.paper_fill_ms)
    });
    out += &row("P(g) (exact UET-UCT)", &|r| r.planes.to_string());
    out += &row("t_optimal overlap theory (s)", &|r| {
        format!("{:.4}", r.t_theory_s)
    });
    out += &row("theory vs sim difference", &|r| {
        format!("{:.1}%", r.theory_diff * 100.0)
    });
    out += &row("t_optimal non-overlap sim (s)", &|r| {
        format!("{:.4}", r.t_nonoverlap_s)
    });
    out += &row("t_optimal non-overlap paper (s)", &|r| {
        format!("{:.4}", r.exp.paper_t_nonoverlap_s)
    });
    out += &row("improvement overlap vs non-overlap", &|r| {
        format!("{:.0}%", r.improvement * 100.0)
    });
    out += &row("improvement (paper)", &|r| {
        format!(
            "{:.0}%",
            (1.0 - r.exp.paper_t_overlap_s / r.exp.paper_t_nonoverlap_s) * 100.0
        )
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{paper_experiments, Experiment};

    fn pts() -> Vec<SimSweepPoint> {
        let p = |v, blocking_us, overlap_us| SimSweepPoint {
            v,
            g: 16 * v,
            blocking_us,
            overlap_us,
        };
        vec![
            p(4, 900_000.0, 700_000.0),
            p(64, 400_000.0, 250_000.0),
            p(1024, 600_000.0, 500_000.0),
        ]
    }

    #[test]
    fn csv_format() {
        let csv = sweep_csv(&pts());
        assert!(csv.starts_with("v,g,nonoverlap_us,overlap_us\n"));
        assert!(csv.contains("64,1024,400000.0,250000.0"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn ascii_plot_contains_series_markers() {
        let plot = sweep_ascii_plot(&pts(), 40, 10);
        assert!(plot.contains('N'));
        assert!(plot.contains('O'));
        assert!(plot.lines().count() >= 10);
    }

    #[test]
    fn ascii_plot_empty() {
        assert_eq!(sweep_ascii_plot(&[], 40, 10), "(no data)\n");
    }

    #[test]
    fn table12_markdown_structure() {
        let exp: Experiment = paper_experiments()[0];
        let row = Table12Row {
            exp,
            v_optimal: 400,
            g_optimal: 6400,
            t_overlap_s: 0.25,
            fill_ms: 0.6,
            planes: 49,
            t_theory_s: 0.27,
            theory_diff: 0.08,
            t_nonoverlap_s: 0.35,
            improvement: 0.29,
        };
        let md = table12_markdown(&[row]);
        assert!(md.contains("| V_optimal (sim) | 400 |"));
        assert!(md.contains("16×16×16384"));
        assert!(md.contains("29%"));
        assert!(md.contains("| improvement (paper) | 38% |"));
    }
}
