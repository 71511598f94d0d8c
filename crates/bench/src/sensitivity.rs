//! Beyond the paper: how the overlap win depends on the machine.
//!
//! The paper evaluates one cluster (FastEthernet, MPICH 1998-era
//! buffer-copy costs). A natural question — and the premise of its §6
//! future work on DMA/SCI hardware — is how the improvement behaves as
//! the communication-to-computation ratio changes. This module sweeps a
//! scale factor over *all* communication costs (startup, per-byte wire,
//! buffer fills) while holding `t_c` fixed, re-optimizing the tile
//! height for **each schedule at each point** (comparing both at their
//! own optima, as the paper does), and reports the improvement curve.
//!
//! Expected shape: at near-zero communication both schedules converge
//! (nothing to hide); the win grows with communication cost while the
//! CPU can still hide it, then shrinks again once even the overlapped
//! pipeline is communication-bound (`B`-lane dominated, §4 case 2).

use crate::experiments::{ladder_optima, Experiment, Optima};
use std::fmt::Write as _;
use sweep::config::{MachinePreset, Schedule, SweepConfig};

/// Sweep communication scale factors for one experiment on the paper
/// machine; each point, labelled with its factor, re-optimizes V on a
/// geometric ladder for both schedules.
pub fn comm_scale_sweep(
    exp: &Experiment,
    scales: &[f64],
    ladder_points: usize,
    workers: usize,
) -> Vec<(String, Optima)> {
    let templates = scales.iter().map(|&comm_scale| {
        let mut config = exp.config(0, 0, Schedule::Overlap);
        config.comm_scale = comm_scale;
        (format!("{comm_scale:.2}×"), config)
    });
    ladder_optima(templates, ladder_points, workers)
}

/// Run one experiment across named machine presets (network
/// generations), re-optimizing V per schedule per machine.
pub fn network_generations(
    exp: &Experiment,
    machines: &[(&str, MachinePreset)],
    ladder_points: usize,
    workers: usize,
) -> Vec<(String, Optima)> {
    let templates = machines.iter().map(|&(name, preset)| {
        let config = exp.config(0, 0, Schedule::Overlap);
        (name.to_string(), SweepConfig { preset, ..config })
    });
    ladder_optima(templates, ladder_points, workers)
}

/// Markdown of labelled optima, one row each: the label (in the `label`
/// column), each schedule's best time at its V, the improvement.
pub fn optima_markdown(label: &str, rows: &[(String, Optima)]) -> String {
    let mut out = format!(
        "| {label} | blocking t_opt (s) @ V | overlap t_opt (s) @ V | improvement |\n|---|---|---|---|\n",
    );
    for (name, p) in rows {
        let _ = writeln!(
            out,
            "| {} | {:.4} @ {} | {:.4} @ {} | {:.0}% |",
            name,
            p.blocking_us * 1e-6,
            p.blocking_v,
            p.overlap_us * 1e-6,
            p.overlap_v,
            p.improvement() * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::mini;

    #[test]
    fn zero_scale_equalizes() {
        let pts = comm_scale_sweep(&mini(512), &[0.0], 6, 2);
        // Free communication: improvement collapses to ~0.
        assert!(pts[0].1.improvement().abs() < 0.02, "{:?}", pts[0]);
    }

    #[test]
    fn paper_scale_shows_win() {
        let pts = comm_scale_sweep(&mini(512), &[1.0], 8, 2);
        assert!(pts[0].1.improvement() > 0.10, "{:?}", pts[0]);
    }

    #[test]
    fn optimal_v_grows_with_comm_cost() {
        // Costlier communication pushes both schedules to coarser grain.
        let pts = comm_scale_sweep(&mini(512), &[0.25, 4.0], 10, 2);
        assert!(pts[1].1.overlap_v >= pts[0].1.overlap_v, "{pts:?}");
        assert!(pts[1].1.blocking_v >= pts[0].1.blocking_v, "{pts:?}");
    }

    #[test]
    fn markdown_renders() {
        let pts = comm_scale_sweep(&mini(512), &[1.0], 5, 1);
        let md = optima_markdown("comm scale", &pts);
        assert!(md.starts_with("| comm scale |"));
        assert!(md.contains("| 1.00× |"));
    }

    #[test]
    fn generations_faster_networks_run_faster() {
        let rows = network_generations(
            &mini(512),
            &[
                ("FastEthernet (paper)", MachinePreset::Paper),
                ("Gigabit-class", MachinePreset::Gigabit),
                ("OS-bypass", MachinePreset::OsBypass),
            ],
            8,
            2,
        );
        assert_eq!(rows.len(), 3);
        assert!(rows[1].1.overlap_us < rows[0].1.overlap_us);
        assert!(rows[2].1.overlap_us < rows[1].1.overlap_us);
        let md = optima_markdown("network", &rows);
        assert!(md.contains("OS-bypass"));
    }
}
