#!/usr/bin/env bash
# Benchmark runner: executes the overhead-relevant experiment benches
# (E6 pipeline cost, E10 throughput, E11 hardening overhead, E12 serving,
# E14 fleet serving, E15 soak runtime, E16 hardening tax,
# E17 falsification search, E18 fuzz smoke)
# and collects machine-readable medians.
#
# Usage:
#   scripts/bench.sh OUT.json  # full run, writes OUT.json (relative
#                              # paths are from the repo root), e.g. a new
#                              # BENCH_prN.json beside the earlier records
#   scripts/bench.sh --quick   # CI smoke: short budgets, writes
#                              # target/BENCH_quick.json and validates that
#                              # every expected bench emitted an entry
#
# Output format: one JSON object per line,
#   {"id": "<group>/<bench>", "median_ns": N, "mean_ns": N, "min_ns": N}
# written by the vendored criterion shim when SAFEX_BENCH_JSON is set.
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
    QUICK=1
elif [[ -z "${1:-}" ]]; then
    echo "usage: scripts/bench.sh OUT.json | --quick" >&2
    echo "       a full run needs an explicit output file" >&2
    exit 2
fi

BENCHES=(e6_overhead e10_throughput e11_fault_campaign e12_serving e13_repair e14_fleet e15_soak e16_fused e17_falsify e18_fuzz)

if [[ "$QUICK" == 1 ]]; then
    OUT="target/BENCH_quick.json"
    export SAFEX_BENCH_QUICK=1
else
    OUT="$1"
fi
mkdir -p "$(dirname "$OUT")" 2>/dev/null || true
rm -f "$OUT"
case "$OUT" in
    /*) export SAFEX_BENCH_JSON="$OUT" ;;
    *) export SAFEX_BENCH_JSON="$PWD/$OUT" ;;
esac

for bench in "${BENCHES[@]}"; do
    echo "==> cargo bench -p safex-bench --bench $bench"
    cargo bench -p safex-bench --bench "$bench"
done

echo "==> wrote $OUT ($(wc -l <"$OUT") entries)"

# Every bench binary must have emitted at least one entry; a missing
# prefix means a bench silently stopped registering its group.
for prefix in e6_pipeline_decide e10_batch_256 e11_hardened_inference e12_serving e13_repair_overhead e14_fleet/fleet_replay e14_fleet/stats/cache_hit_rate e14_fleet/stats/time_in_state e14_fleet/stats/fairness e15_soak/soak_replay e15_soak/snapshot_codec e15_soak/restore_stage e15_soak/stats/swap_latency e15_soak/stats/watchdog e15_soak/stats/restore_fidelity e16_fused/bare_engine e16_fused/full_every_decision e16_fused/requests16_batch1 e16_fused/requests16_batch16 e17_falsify/classification_eval e17_falsify/trajectory_episode e17_falsify/search_trajectory e17_falsify/stats/automotive e17_falsify/stats/railway e17_falsify/stats/space e17_falsify/stats/trajectory e18_fuzz/mutate_probe_snapshot e18_fuzz/mutate_probe_model e18_fuzz/queue_sequence e18_fuzz/stats/smoke_wall_ms e18_fuzz/stats/smoke_cases; do
    if ! grep -q "\"id\":\"$prefix" "$OUT"; then
        echo "error: no benchmark entries matching '$prefix' in $OUT" >&2
        exit 1
    fi
done
echo "All expected benchmark groups present."

# Perf floor for the hardening tax: hardened inference with a Full CRC
# check on every decision must stay within 2.0x of the bare engine. The
# ratio is generous against the ~1.4x full-run measurement (medians
# 1.24-1.85x over five runs with the AVX-512 dense kernel) so CI jitter
# in --quick mode does not flap the gate.
median() {
    grep "\"id\":\"$1\"" "$OUT" | sed -n 's/.*"median_ns":\([0-9]*\).*/\1/p' | head -1
}
BARE=$(median "e16_fused/bare_engine")
FULL=$(median "e16_fused/full_every_decision")
if [[ -n "$BARE" && -n "$FULL" && "$BARE" -gt 0 ]]; then
    RATIO_X100=$((FULL * 100 / BARE))
    echo "full/bare per-decision ratio: ${RATIO_X100}% (full ${FULL}ns vs bare ${BARE}ns)"
    if [[ "$RATIO_X100" -gt 200 ]]; then
        echo "error: Full every-decision hardening costs ${RATIO_X100}% of bare (>200%)." >&2
        echo "       The layer checksum or the dense kernel regressed; see" >&2
        echo "       crates/tensor/src/crc.rs and crates/tensor/src/ops.rs." >&2
        exit 1
    fi
else
    echo "error: could not extract e16 medians from $OUT" >&2
    exit 1
fi
