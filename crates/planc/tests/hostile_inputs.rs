//! Hostile `serve` lines: every line built from a table of edge values —
//! zero, one, `2³²`, `u64::MAX`, a 20-digit overflow, empty, not a
//! number, keys missing or given twice — parses and compiles to a plan
//! or to a typed error, never a panic or an allocation abort.
//!
//! Every line names its tile height: a plan of some million steps is
//! legal and takes seconds to analyse, and no value in the table makes
//! one. A step count from the table is tiny, or so large (≥ 3·10⁸) that
//! pre-flight refuses its messages at once — or the plan has one rank,
//! which sends none.

use planc::{compile, PlanRequest};
use proptest::prelude::*;

/// Numbers a key may be set to.
const NUMBERS: [&str; 6] = ["0", "1", "2", "12", "4294967296", "18446744073709551615"];

/// Values that are no `usize`.
const NOT_NUMBERS: [&str; 4] = ["99999999999999999999", "", "x", "-1"];

/// Picks of a key's value: a number three times as often as each
/// value that is none, and one pick that leaves the key out.
const PICKS: usize = 3 * NUMBERS.len() + NOT_NUMBERS.len() + 1;

/// The integer keys of the two workloads, `v` last: it is never left
/// out (see the module documentation).
const KEYS: [&str; 7] = ["nx", "ny", "nz", "pi", "pj", "ranks", "v"];

/// The value `pick` (`< PICKS`) sets a key to, `None` to leave it out.
fn value(pick: usize) -> Option<&'static str> {
    match pick.checked_sub(3 * NUMBERS.len()) {
        None => Some(NUMBERS[pick % NUMBERS.len()]),
        Some(other) => NOT_NUMBERS.get(other).copied(),
    }
}

/// The `serve` line of `workload` with `KEYS[i]` set by `picks[i]` (`v`
/// to 1 where it would be left out), then `KEYS[dup.0]` again, set by
/// `dup.1`.
fn line(workload: &str, picks: &[usize], dup: (usize, usize)) -> String {
    let mut line = format!("workload={workload}");
    for (i, (key, &pick)) in KEYS.iter().zip(picks).enumerate() {
        let last = i + 1 == KEYS.len();
        if let Some(value) = value(pick).or(last.then_some("1")) {
            line += &format!(" {key}={value}");
        }
    }
    match value(dup.1) {
        Some(value) => line + &format!(" {}={value}", KEYS[dup.0]),
        None => line,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn serve_lines_compile_or_fail_typed(
        strip in any::<bool>(),
        picks in prop::collection::vec(0..PICKS, KEYS.len()..=KEYS.len()),
        dup in (0..KEYS.len(), 0..PICKS),
    ) {
        let line = line(if strip { "strip2" } else { "grid3" }, &picks, dup);
        let Ok(req) = PlanRequest::parse_kv(&line) else {
            return Ok(());
        };
        match compile(&req) {
            Ok(plan) => {
                prop_assert!(plan.ranks() <= analyzer::plan::MAX_RANKS, "{line}");
                prop_assert!(plan.steps() < 1 << 32, "{line}");
            }
            Err(e) => prop_assert!(!e.to_string().is_empty(), "{line}"),
        }
    }
}

#[test]
fn the_table_reaches_every_stage() {
    // The property's lines end in a parse error, in each compile stage's
    // typed error, and in a plan.
    let stage = |line: &str| match PlanRequest::parse_kv(line) {
        Err(_) => "parse",
        Ok(req) => compile(&req).map_or_else(|e| e.stage(), |_| "plan"),
    };
    let grid = "workload=grid3 nx=12 ny=12 pi=2 pj=1 v=12";
    let cases = [
        (format!("{grid} nz=x"), "parse"),
        (format!("{grid} nz=99999999999999999999"), "parse"),
        (format!("{grid} nz=0"), "decompose"),
        (format!("{grid} nz=18446744073709551615"), "decompose"),
        (
            "workload=grid3 nx=12 ny=12 nz=12 pi=2 pj=1 v=0".into(),
            "optimize",
        ),
        (format!("{grid} nz=4294967296"), "analyze"),
        (format!("{grid} nz=12"), "plan"),
        (
            "workload=strip2 nx=1 ny=4294967296 ranks=4294967296 v=1".into(),
            "analyze",
        ),
    ];
    for (line, want) in cases {
        assert_eq!(stage(&line), want, "{line}");
    }
}
