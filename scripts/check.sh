#!/usr/bin/env bash
# Local quality gate: formatting, lints, and the full test suite.
# Mirrors what CI would run; keep it green before pushing.
#
# Usage:
#   scripts/check.sh              # full gate: fmt, clippy, rustdoc with
#                                 # warnings as errors, benches, tests,
#                                 # the safexbench package's tests,
#                                 # quick bench + hardening-overhead perf
#                                 # smoke (Full CRC every decision <= 2x bare)
#   scripts/check.sh --tests-only # fast tier: just the workspace test suite
#                                 # (plus the test-count floor below)
#   scripts/check.sh --soak-smoke # bounded wall-clock soak tier: ~6 s of
#                                 # real-time pacing with seeded SEU faults,
#                                 # one atomic hot swap, the watchdog armed,
#                                 # and a snapshot/restore fidelity check
#   scripts/check.sh --falsify-smoke # bounded adversarial-search tier: a few
#                                 # seconds of scenario search that must
#                                 # rediscover a seeded violation region in
#                                 # the automotive and trajectory workloads
#   scripts/check.sh --fuzz-smoke # bounded structure-aware fuzzing tier:
#                                 # >= 10k seed-reproducible cases across the
#                                 # byte decoders, the admission/ladder state
#                                 # machines, and the differential oracles;
#                                 # nonzero exit on any panic, fail-open
#                                 # decode, or divergence (seed printed, so
#                                 # SAFEX_FUZZ_SEED=... replays the run)
#
# The test modes count the tests the workspace actually ran and fail if
# the total drops below the floor recorded in scripts/test_baseline —
# a silently deleted or no-longer-compiled test binary is a regression,
# not a cleanup.
set -euo pipefail

cd "$(dirname "$0")/.."

TESTS_ONLY=0
if [[ "${1:-}" == "--tests-only" ]]; then
    TESTS_ONLY=1
fi

if [[ "${1:-}" == "--soak-smoke" ]]; then
    echo "==> cargo run --release -p safex-serve --example soak_smoke"
    cargo run --release -p safex-serve --example soak_smoke
    echo "Soak smoke passed."
    exit 0
fi

if [[ "${1:-}" == "--falsify-smoke" ]]; then
    echo "==> cargo run --release -p safex-falsify --example falsify_smoke"
    cargo run --release -p safex-falsify --example falsify_smoke
    echo "Falsify smoke passed."
    exit 0
fi

if [[ "${1:-}" == "--fuzz-smoke" ]]; then
    echo "==> cargo run --release -p safex-fuzz --example fuzz_smoke"
    cargo run --release -p safex-fuzz --example fuzz_smoke
    echo "Fuzz smoke passed."
    exit 0
fi

if [[ "$TESTS_ONLY" == 0 ]]; then
    echo "==> cargo fmt --check"
    cargo fmt --check

    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    echo "==> cargo doc --no-deps --workspace (rustdoc warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

    echo "==> cargo build --benches"
    cargo build --benches
fi

echo "==> cargo test -q --workspace"
TEST_LOG="$(mktemp)"
trap 'rm -f "$TEST_LOG"' EXIT
cargo test -q --workspace 2>&1 | tee "$TEST_LOG"

# Sum the "N passed" counts over every test binary and doc-test run.
TOTAL=$(awk '/^test result: ok\./ { for (i = 1; i <= NF; i++) if ($(i+1) == "passed;") sum += $i } END { print sum + 0 }' "$TEST_LOG")
BASELINE=$(cat scripts/test_baseline)
echo "==> workspace test count: $TOTAL (baseline $BASELINE)"
if [[ "$TOTAL" -lt "$BASELINE" ]]; then
    echo "error: workspace ran $TOTAL tests, below the recorded baseline of $BASELINE." >&2
    echo "       If tests were intentionally consolidated, update scripts/test_baseline." >&2
    exit 1
fi

if [[ "$TESTS_ONLY" == 0 ]]; then
    # The serve-path benchmark is a package of its own, outside the
    # workspace; its tests hold the zero-silent-corruption gate against
    # pristine labels and the traced-rep digest identity.
    echo "==> cargo test --offline --manifest-path safexbench/Cargo.toml"
    cargo test --offline --manifest-path safexbench/Cargo.toml

    # Same bits on every CPU: `--cfg safex_portable` pins the runtime-
    # detected CRC and dense kernels to their portable rungs, and the
    # system goldens must hold there unedited too. Its own target dir
    # keeps the RUSTFLAGS change from invalidating the main build.
    echo "==> goldens on the portable rungs (RUSTFLAGS=--cfg safex_portable)"
    PORTABLE=(env RUSTFLAGS="--cfg safex_portable" CARGO_TARGET_DIR=target/portable)
    "${PORTABLE[@]}" cargo test -q --offline -p safex-tensor --lib
    "${PORTABLE[@]}" cargo test -q --offline \
        -p safexplain -p safex-core -p safex-serve -p safex-nn -p safex-tensor \
        --test determinism --test campaign_golden --test serving --test fleet \
        --test snapshot_props --test props --test pool_batches --test chunk_order \
        --test alloc_budget

    echo "==> scripts/bench.sh --quick"
    scripts/bench.sh --quick
fi

echo "All checks passed."
