#!/usr/bin/env sh
# Tier-1 gate: build, test, lint. Run from the repository root.
set -eu

# Formatting is a hard gate: rustfmt ships with every toolchain the
# project supports, so there is no missing-component escape hatch.
cargo fmt --all -- --check || {
    echo "ci.sh: formatting gate failed — run 'cargo fmt --all' and re-commit" >&2
    exit 1
}

cargo build --release --workspace
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo build --workspace --examples
# Every correctness gate is a #[test] in here — pre-flight of each
# shipped configuration, bad-plan rejection, the DPOR models with their
# seeded bugs, the pinned quick-sweep CSV, the tuner's acceptance rows,
# the plan service over TCP, the chaos suite at its default seed.
cargo test -q --workspace

# Clippy is part of the gate when the component is installed. A
# CI-tagged run (CI=1) must not silently lose the lint coverage, so a
# missing clippy is a hard failure there; local minimal toolchains
# still degrade gracefully.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
elif [ "${CI:-0}" = "1" ]; then
    echo "ci.sh: CI=1 but cargo-clippy is not installed — the lint gate cannot run" >&2
    exit 1
else
    echo "ci.sh: cargo-clippy not installed, skipping lint (local dev only)" >&2
fi

# SAFETY lint: every line using the `unsafe` keyword in library, bin or
# test sources must carry a `// SAFETY:` comment within the three lines
# above it (or on the line itself). Attribute mentions like
# `forbid(unsafe_code)` don't use the bare token and are not matched;
# comment lines are skipped.
#
# LINT lint, same shape: every `#[allow(clippy::...)]` or
# `#[allow(unsafe_code)]` attribute must carry a `// LINT:`
# justification on the line or within the three lines above it, so a
# silenced lint always says why it was silenced.
find crates src tests -name '*.rs' -print | sort | xargs awk '
    FNR == 1 { ctx[0] = ctx[1] = ctx[2] = ctx[3] = "" }
    {
        stripped = $0
        sub(/^[ \t]+/, "", stripped)
        is_comment = (stripped ~ /^\/\//)
        if (!is_comment && $0 ~ /(^|[^_[:alnum:]])unsafe([^_[:alnum:]]|$)/) {
            ok = ($0 ~ /SAFETY:/)
            for (i = 1; i <= 3 && !ok; i++)
                if (FNR > i && ctx[(FNR - i) % 4] ~ /SAFETY:/) ok = 1
            if (!ok) {
                printf "%s:%d: unsafe without a SAFETY: comment\n", FILENAME, FNR
                bad = 1
            }
        }
        if (!is_comment && $0 ~ /#\[allow\((clippy::|unsafe_code)/) {
            ok = ($0 ~ /LINT:/)
            for (i = 1; i <= 3 && !ok; i++)
                if (FNR > i && ctx[(FNR - i) % 4] ~ /LINT:/) ok = 1
            if (!ok) {
                printf "%s:%d: #[allow(...)] without a LINT: justification\n", FILENAME, FNR
                bad = 1
            }
        }
        ctx[FNR % 4] = $0
    }
    END { exit bad }
' || {
    echo "ci.sh: SAFETY/LINT lint failed — annotate every unsafe and allow() site" >&2
    exit 1
}

# Miri hunts UB in the unsafe slot-transport paths when the component
# is installed; degrade gracefully on minimal toolchains.
if cargo miri --version >/dev/null 2>&1; then
    cargo miri test -p msgpass
else
    echo "ci.sh: cargo-miri not installed, skipping UB check" >&2
fi

# Wave-kernel gate: `eval_wave` over MAX_WAVE pencils must cost less
# per cell than one `eval_pencil` each, a V = 8 tile at most 3.0 × a
# V = 256 tile per cell, and the verifier (`max_abs_diff_from_seq3d`)
# at most 0.4 × the naive `run_seq3d` per cell on the compute-bound and
# fine-grain shapes, which a one-chain-at-a-time verifier (≈ 0.7–0.8)
# fails (asserted inside the tests, whose tables land in the log). Both
# sides are timed in one process, one test at a time, so the ratios
# hold where absolute rates do not; one re-measure all the same.
wave_micro_gate() {
    cargo test -p stencil --release --test wave_micro -- --ignored --nocapture --test-threads=1
}
if ! wave_micro_gate; then
    echo "ci.sh: wave-kernel gate missed once, re-measuring (noisy box tolerance)" >&2
    wave_micro_gate || exit 1
fi

# Launch gate: an empty-body run of a kept 2-rank world, whose rank 1
# is a resident thread, must cost at most 0.25 × an empty-body
# `run_threads_with` of size 2, which starts and joins its thread
# (≈ 0.03 when rank 1 is resident, ≈ 1 if each run spawned again).
# Same-process ratio, one re-measure.
launch_micro_gate() {
    cargo test -p msgpass --release --test launch_micro -- --ignored --nocapture --test-threads=1
}
if ! launch_micro_gate; then
    echo "ci.sh: launch gate missed once, re-measuring (noisy box tolerance)" >&2
    launch_micro_gate || exit 1
fi

# Benchmark smoke: the out-of-workspace harness (built above) still
# links against the crates' public surface, its own tests pass, and a
# ~3 s quick run of each world workload still matches its bitwise
# checksum. Never a recorded number: only the verdict on the last line
# is read.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
for workload in compute-bound fine-grain wire-overlap wire-blocking plan-service sim-sweep; do
    verdict=$(bash benchmark/run.sh --quick --workload "$workload" --trace 0 | tail -n 1)
    case "$verdict" in
    *'"correct": true'*'"failed": 0'*) ;;
    *)
        echo "$verdict"
        echo "ci.sh: benchmark smoke failed on $workload" >&2
        exit 1
        ;;
    esac
done

# Simulated-numbers gate. Host time of the simulator may move; what it
# simulates may not. (a) The traced sim-sweep pass at the reference
# seed must add up to the makespan sum benchmark/REPEATABILITY.md
# records (897652 µs), with no failed row. (b) The committed Fig. 9-11
# slices and the Fig. 12, sensitivity and scaling tables are regenerated
# and must come back byte-identical, which makes them a cross-commit
# golden for every makespan and optimum they contain.
sim_out=$(bash benchmark/run.sh --quick --workload sim-sweep --seed 1 --trace 1)
echo "$sim_out" | grep -Eq 'cluster-sim\.sim_makespan_us_sum +897651\.873000 us' &&
    echo "$sim_out" | grep -Eq 'sweep\.rows_failed +0\.000000 count' || {
    echo "$sim_out" | grep -E 'sim_makespan_us_sum|rows_failed' >&2
    echo "ci.sh: sim-sweep at seed 1 no longer simulates 897651.873 us with zero failed rows" >&2
    exit 1
}
for study in fig9 fig10 fig11 table12 sensitivity scaling; do
    cargo run --release -q -p bench --bin paper -- "$study" >/dev/null
done
git diff --exit-code results/fig9.csv results/fig10.csv results/fig11.csv \
    results/table12.md results/sensitivity.md results/scaling.md || {
    echo "ci.sh: a regenerated figure or table differs from the committed one — a simulated number moved" >&2
    exit 1
}
echo "ci.sh: simulated-numbers gate ok — sim-sweep sum 897651.873 us, Figs. 9-12, sensitivity and scaling byte-identical"

# Slot-window gate, from the same traced pass: its probe runs the
# zero-latency `fine-grain` shape on a cold and then a warm slot world.
# A world without a wire may neither copy a payload (a warm run that
# allocates is a slot pool falling back) nor grow a pool (a cold run
# warms the 8 slots a link starts with: 8 / 2048 steps).
echo "$sim_out" | grep -Eq 'msgpass\.slot_fallbacks +0\.000000 count' &&
    echo "$sim_out" | awk '
        $1 == "msgpass.fresh_allocs_per_step" { seen = 1; if ($2 + 0 > 0.01) bad = 1 }
        END { exit !seen || bad }
    ' || {
    echo "$sim_out" | grep -E 'slot_fallbacks|fresh_allocs_per_step' >&2
    echo "ci.sh: a zero-latency slot world copied a payload or grew its window" >&2
    exit 1
}
echo "ci.sh: slot-window gate ok — no fallback copy, no growth without a wire"

# Line ratchet (ROADMAP item 2): the workspace may not grow past the
# count the last PR left it at.
max_rust_lines=37174
rust_lines=$(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)
[ "$rust_lines" -le "$max_rust_lines" ] || {
    echo "ci.sh: workspace Rust lines (crates src tests examples) grew: $rust_lines > $max_rust_lines." \
        "A [simplicity] PR lowers max_rust_lines; any other PR states its growth in its issue and raises it by that much." >&2
    exit 1
}
echo "ci.sh: line ratchet ok — $rust_lines <= $max_rust_lines workspace Rust lines"

echo "ci.sh: all checks passed"
