//! Columnar CSV output and the JSON percentile summary.
//!
//! Formatting is part of the determinism contract: every float is
//! printed at a fixed precision, rows are emitted in config order, and
//! slices appear in first-seen order — so the same seed yields
//! byte-identical files, which CI verifies with a literal re-run `cmp`.

use crate::config::Schedule;
use crate::run::{best, RowStatus, SweepOutcome, SweepRow};
use std::fmt::Write as _;

/// The CSV column list, in order. The header line is this joined with
/// commas; CI gates on it verbatim.
pub const CSV_COLUMNS: [&str; 29] = [
    "id",
    "slice",
    "preset",
    "comm_scale",
    "measured_curve",
    "hetero_spread",
    "grid_i",
    "grid_j",
    "side_i",
    "side_j",
    "nx",
    "ny",
    "nz",
    "v",
    "schedule",
    "duplex",
    "topology",
    "seed",
    "status",
    "ranks",
    "steps",
    "makespan_us",
    "mean_util",
    "min_util",
    "max_util",
    "compute_fraction",
    "predicted_us",
    "pred_err_rel",
    "pred_in_model",
];

/// The CSV header line (no trailing newline).
pub fn csv_header() -> String {
    CSV_COLUMNS.join(",")
}

/// Render rows as a CSV document (header + one line per row).
pub fn to_csv(rows: &[SweepRow]) -> String {
    let mut out = csv_header();
    out.push('\n');
    for r in rows {
        let c = &r.config;
        let _ = write!(
            out,
            "{},{},{},{:.2},{},{:.2},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            c.id,
            c.slice,
            c.preset.name(),
            c.comm_scale,
            c.measured_curve,
            c.hetero_spread,
            c.grid[0],
            c.grid[1],
            c.cross_sides[0],
            c.cross_sides[1],
            c.extents[0],
            c.extents[1],
            c.extents[2],
            c.v,
            c.schedule.name(),
            c.duplex,
            if c.shared_bus {
                "shared_bus"
            } else {
                "switched"
            },
            c.seed,
            r.status.name(),
        );
        match &r.metrics {
            Some(m) => {
                let _ = write!(
                    out,
                    ",{},{},{:.3},{:.6},{:.6},{:.6},{:.6},{:.3},{:.6},{}",
                    m.ranks,
                    m.steps,
                    m.makespan_us,
                    m.mean_util,
                    m.min_util,
                    m.max_util,
                    m.compute_fraction,
                    m.predicted_us,
                    m.pred_err_rel,
                    m.pred_in_model,
                );
            }
            None => out.push_str(",,,,,,,,,,"),
        }
        out.push('\n');
    }
    out
}

/// Nearest-rank percentile of a non-empty sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Aggregates of one named slice.
struct SliceAgg {
    name: &'static str,
    count: usize,
    ok: usize,
    makespans: Vec<f64>,
    mean_utils: Vec<f64>,
    abs_errs: Vec<f64>,
}

fn aggregate(rows: &[SweepRow]) -> Vec<SliceAgg> {
    let mut slices: Vec<SliceAgg> = Vec::new();
    for r in rows {
        let name = r.config.slice;
        let idx = match slices.iter().position(|s| s.name == name) {
            Some(idx) => idx,
            None => {
                slices.push(SliceAgg {
                    name,
                    count: 0,
                    ok: 0,
                    makespans: Vec::new(),
                    mean_utils: Vec::new(),
                    abs_errs: Vec::new(),
                });
                slices.len() - 1
            }
        };
        let s = &mut slices[idx];
        s.count += 1;
        if r.status == RowStatus::Ok {
            s.ok += 1;
        }
        if let Some(m) = &r.metrics {
            s.makespans.push(m.makespan_us);
            s.mean_utils.push(m.mean_util);
            // Only in-model rows speak to the closed form's fidelity;
            // curves and heterogeneous fleets are tuner territory.
            if m.pred_err_rel.is_finite() && m.pred_in_model {
                s.abs_errs.push(m.pred_err_rel.abs());
            }
        }
    }
    slices
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// JSON number at fixed precision (total order, no exponent) — `null`
/// for non-finite values so the document stays valid JSON.
fn num(x: f64, prec: usize) -> String {
    if x.is_finite() {
        format!("{x:.prec$}")
    } else {
        "null".into()
    }
}

/// Render the whole outcome as a JSON summary document.
///
/// Top level: seed, config/ok/error/panic counts. Per slice (in
/// first-seen order): row counts, `p10/p50/p90/mean` of the simulated
/// makespan, mean utilization, mean absolute closed-form error (over
/// in-model rows only — see `RowMetrics::pred_in_model`), and —
/// where both schedules appear — the best overlap point and its
/// improvement over the best blocking point (the Fig. 12 quantities).
pub fn summary_json(seed: u64, outcome: &SweepOutcome) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"configs\": {},", outcome.rows.len());
    let ok = outcome
        .rows
        .iter()
        .filter(|r| r.status == RowStatus::Ok)
        .count();
    let _ = writeln!(out, "  \"ok\": {ok},");
    let _ = writeln!(out, "  \"errors\": {},", outcome.errors);
    let _ = writeln!(out, "  \"panics\": {},", outcome.panics);
    out.push_str("  \"slices\": {\n");
    let slices = aggregate(&outcome.rows);
    for (i, s) in slices.iter().enumerate() {
        let mut mk = s.makespans.clone();
        mk.sort_by(f64::total_cmp);
        let _ = writeln!(out, "    \"{}\": {{", s.name);
        let _ = writeln!(out, "      \"count\": {},", s.count);
        let _ = writeln!(out, "      \"ok\": {},", s.ok);
        if mk.is_empty() {
            out.push_str("      \"makespan_us\": null,\n");
        } else {
            let _ = writeln!(
                out,
                "      \"makespan_us\": {{\"p10\": {}, \"p50\": {}, \"p90\": {}, \"mean\": {}}},",
                num(percentile(&mk, 0.10), 3),
                num(percentile(&mk, 0.50), 3),
                num(percentile(&mk, 0.90), 3),
                num(mean(&mk), 3),
            );
        }
        let _ = writeln!(
            out,
            "      \"mean_utilization\": {},",
            num(mean(&s.mean_utils), 6)
        );
        let _ = writeln!(
            out,
            "      \"mean_abs_pred_err\": {},",
            num(mean(&s.abs_errs), 6)
        );
        let in_slice = || outcome.rows.iter().filter(|r| r.config.slice == s.name);
        match (
            best(in_slice(), Schedule::Overlap),
            best(in_slice(), Schedule::Blocking),
        ) {
            (Some((ov, v)), Some((bl, _))) => {
                let _ = writeln!(out, "      \"best_overlap_us\": {},", num(ov, 3));
                let _ = writeln!(out, "      \"best_overlap_v\": {v},");
                let _ = writeln!(out, "      \"best_blocking_us\": {},", num(bl, 3));
                let _ = writeln!(out, "      \"improvement\": {}", num(1.0 - ov / bl, 6));
            }
            _ => {
                out.push_str("      \"best_overlap_us\": null,\n");
                out.push_str("      \"best_overlap_v\": null,\n");
                out.push_str("      \"best_blocking_us\": null,\n");
                out.push_str("      \"improvement\": null\n");
            }
        }
        out.push_str(if i + 1 == slices.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{generate, SweepSpec};
    use crate::run::run_sweep;

    fn small_outcome(seed: u64) -> SweepOutcome {
        let spec = SweepSpec {
            seed,
            random_configs: 12,
            quick: true,
            figures: false,
        };
        run_sweep(&generate(&spec), 4)
    }

    #[test]
    fn header_matches_row_arity() {
        let out = small_outcome(5);
        let csv = to_csv(&out.rows);
        let mut lines = csv.lines();
        let header = lines.next().expect("header");
        assert_eq!(header, csv_header());
        let n = header.split(',').count();
        assert_eq!(n, CSV_COLUMNS.len());
        for line in lines {
            assert_eq!(line.split(',').count(), n, "bad row: {line}");
        }
    }

    #[test]
    fn csv_is_reproducible() {
        let a = to_csv(&small_outcome(6).rows);
        let b = to_csv(&small_outcome(6).rows);
        assert_eq!(a, b);
    }

    #[test]
    fn summary_is_valid_enough_json() {
        // No serde in the container: check structure mechanically —
        // balanced braces, expected keys, no trailing commas.
        let out = small_outcome(7);
        let json = summary_json(7, &out);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
        assert!(json.contains("\"panics\": 0"), "{json}");
        assert!(json.contains("\"slices\""));
        assert!(json.contains("\"random\""));
        assert!(!json.contains(",\n  }"), "trailing comma:\n{json}");
        assert!(!json.contains(",\n    }"), "trailing comma:\n{json}");
    }

    #[test]
    fn out_of_model_rows_are_excluded_from_error_percentiles() {
        use crate::config::SweepConfig;
        use crate::run::tests::paper_point;
        let mk = |id: usize, spread: f64| SweepConfig {
            id,
            hetero_spread: spread,
            ..paper_point(11)
        };
        // One in-model row, one heterogeneous row with a different
        // error: the summary's mean must reflect only the former (a
        // mixed-in hetero row would shift it).
        let out = run_sweep(&[mk(0, 0.0), mk(1, 0.6)], 2);
        let in_model_err = out.rows[0].metrics.unwrap().pred_err_rel.abs();
        let hetero_err = out.rows[1].metrics.unwrap().pred_err_rel.abs();
        assert!(
            (hetero_err - in_model_err).abs() > 1e-3,
            "degenerate test point"
        );
        let json = summary_json(11, &out);
        let line = json
            .lines()
            .find(|l| l.contains("mean_abs_pred_err"))
            .unwrap();
        let val: f64 = line
            .trim()
            .trim_start_matches("\"mean_abs_pred_err\": ")
            .trim_end_matches(',')
            .parse()
            .unwrap();
        assert!((val - in_model_err).abs() < 1e-5, "{val} vs {in_model_err}");
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(percentile(&xs, 0.5), 6.0); // nearest-rank rounds up
        let one = [42.0];
        assert_eq!(percentile(&one, 0.9), 42.0);
    }
}
