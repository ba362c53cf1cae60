#!/usr/bin/env bash
# A/B of the end-to-end benchmark between two checkouts, the way
# choosing-metrics §8 asks for it: each side's benchmark is built once
# into its own target directory, the two binaries are run in pairs with
# the side that goes first alternating, and every end-to-end metric is
# reported as each side's median and quartiles plus the pairs each side
# won. Run it before sending a change that touches a measured path — the
# pipeline rejects a change on the same numbers, only later.
#
#   scripts/bench_ab.sh <parent-checkout> <change-checkout> <workload> [pairs] [seed]
#
#   pairs  default 10 (the fewest §8 accepts for a claim)
#   seed   default: the benchmark's own default seed
#
# Run length is the `run_seconds` of the change checkout's BENCHMARK.json,
# the same on both sides. Build output and per-run results go under
# $BENCH_AB_DIR (default ${TMPDIR:-/tmp}/mscope_bench_ab), never into
# either checkout. Needs cargo (offline) and python3.
set -euo pipefail

if [ "$#" -lt 3 ]; then
    sed -n '2,20p' "$0" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="${4:-10}"
seed="${5:-}"
work="${BENCH_AB_DIR:-${TMPDIR:-/tmp}/mscope_bench_ab}"
spec="$change/BENCHMARK.json"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"

mkdir -p "$work"
for side in parent change; do
    echo "building $side (${!side})" >&2
    CARGO_TARGET_DIR="$work/target_$side" cargo build --quiet --release --offline \
        --manifest-path "${!side}/benchmark/Cargo.toml"
done

runs="$work/runs_${workload}.jsonl"
: >"$runs"
run_side() { # side pair
    local line
    line="$("$work/target_$1/release/mscope-benchmark" --workload "$workload" \
        --seconds "$seconds" --trace 0 ${seed:+--seed "$seed"} \
        --out "$work/out_$1" 2>/dev/null | grep '^{' | tail -n 1)"
    echo "{\"side\":\"$1\",\"pair\":$2,\"result\":${line:-null}}" >>"$runs"
}
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    echo "pair $pair/$pairs: $order" >&2
    for side in $order; do run_side "$side" "$pair"; done
done

python3 - "$spec" "$runs" "$workload" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
workload = sys.argv[3]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

by_pair = {}
failed = {"parent": 0, "change": 0}
attempted = {"parent": 0, "change": 0}
for r in runs:
    res = r["result"]
    if res is None:
        sys.exit(f"{r['side']} printed no result line in pair {r['pair']}")
    failed[r["side"]] += res["failed"] + (0 if res["correct"] else 1)
    attempted[r["side"]] += res["attempted"]
    by_pair.setdefault(r["pair"], {})[r["side"]] = res["metrics"]

print(f"## {workload}: {len(by_pair)} pairs, run_seconds {spec['run_seconds']}")
for side in ("parent", "change"):
    print(f"  {side}: {failed[side]} failed of {attempted[side]} attempted")
print()
header = ("metric", "parent q1/median/q3", "change q1/median/q3", "median Δ", "pairs won c/p/tie", "reading")
print("| " + " | ".join(header) + " |")
print("|" + "---|" * len(header))
for m in spec["end_to_end"]:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    p = [v["parent"][name]["value"] for v in by_pair.values()]
    c = [v["change"][name]["value"] for v in by_pair.values()]
    wins_c = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
    wins_p = sum((cv > pv) if lower else (cv < pv) for pv, cv in zip(p, c))
    ties = len(p) - wins_c - wins_p
    (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
    delta = (cm - pm) / pm if pm else 0.0
    gain = -delta if lower else delta
    if wins_c >= 0.9 * len(p) and abs(cm - pm) > (pq3 - pq1) and gain > 0:
        reading = "gain (§8)" if len(p) >= 10 else "better (fewer than 10 pairs: no claim)"
    elif gain < -bound:
        apart = (min(c) > max(p)) if lower else (max(c) < min(p))
        spread = (pq3 - pq1) / pm if pm else 0.0
        reading = "REGRESSION" if apart or spread <= bound else "unresolved (spread > bound)"
    else:
        reading = "within bound"
    fmt = lambda a, b, c_: f"{a:.4g} / {b:.4g} / {c_:.4g}"
    print(f"| {name} ({m['unit']}) | {fmt(pq1, pm, pq3)} | {fmt(cq1, cm, cq3)} | {delta:+.1%} | "
          f"{wins_c}/{wins_p}/{ties} | {reading} |")
print()
print("gain (§8): the change won ≥ 9/10 of the pairs and the medians differ by more than the")
print("parent's own interquartile distance. Every run made is in", sys.argv[2])
PY
