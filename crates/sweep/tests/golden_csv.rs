//! The quick sweep's CSV, pinned across commits.
//!
//! `proptest_sweep.rs` proves a sweep equals *itself* across runs and
//! worker counts; this pins it against the bytes the simulator produced
//! before its host-time rewrite — 526 configs × 29 columns, every
//! makespan, utilisation and prediction error — so a change that moves
//! a simulated number anywhere in the design space fails here first.

use sweep::config::{generate, SweepSpec};
use sweep::output::{summary_json, to_csv};
use sweep::run::run_sweep;

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn quick_sweep_csv_is_byte_identical_to_the_pinned_run() {
    let configs = generate(&SweepSpec::quick(2026));
    let outcome = run_sweep(&configs, 1);
    let one = to_csv(&outcome.rows);
    assert_eq!(one.lines().count(), 527, "header + 526 configs");
    assert_eq!(fnv64(one.as_bytes()), PINNED_QUICK_2026);
    let three = run_sweep(&configs, 3);
    assert_eq!(fnv64(to_csv(&three.rows).as_bytes()), PINNED_QUICK_2026);
    // No config escaped the workers' panic isolation, and the summary
    // — the same bytes on a re-run — carries the Figs. 9-11 curves as
    // named slices.
    assert_eq!(outcome.panics, 0);
    let summary = summary_json(2026, &outcome);
    assert_eq!(summary, summary_json(2026, &three));
    for slice in ["fig9", "fig10", "fig11"] {
        assert!(summary.contains(&format!("    \"{slice}\": {{")), "{slice}");
    }
}

const PINNED_QUICK_2026: u64 = 0x2c93_2e8a_33d6_b411;
