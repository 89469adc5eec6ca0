#!/usr/bin/env python3
"""CI perf-regression gate for the serving benches.

Compares freshly produced BENCH_serving.json / BENCH_scaling.json /
BENCH_soak.json / BENCH_persistence.json against the
committed baselines in bench/baselines/
and fails when any gated metric regresses by more than the allowed
fraction (default 15%). The soak's SLO fields additionally gate against
absolute ceilings (p999 latency, staleness p95, handover error), and the
persistence bench gates its acceptance bar (restart speedup) as an
absolute floor — an acceptance bar, not a baseline-relative ratio.

Only higher-is-better metrics gate (qps and the multicore speedup
ratios); latency percentiles and accuracy numbers are printed as
non-gating context — they are far noisier on shared CI runners, and a real
latency cliff always shows up as a qps/speedup drop on these closed-loop
benches.

Caveat for heterogeneous CI fleets: the baselines are absolute qps from
the machine that recorded them. Runners of a different hardware class
(slower cores, AVX2-only vs AVX-512) shift every metric together and can
trip the gate without a real regression — either refresh the baselines
from the CI runner class, or loosen the floor via --max-regression /
the BENCH_GATE_MAX_REGRESSION env knob in ci.yml.

Usage:
    python3 tools/check_bench_regression.py \
        [--fresh-dir build] [--baseline-dir bench/baselines] \
        [--max-regression 0.15]

Refreshing baselines after an intentional perf change:
    ./build/bench_serving_throughput --smoke &&
    ./build/bench_soak --smoke &&
    ./build/bench_persistence --smoke &&
    cp build/BENCH_serving.json bench/baselines/serving.json &&
    cp build/BENCH_soak.json bench/baselines/soak.json &&
    cp build/BENCH_persistence.json bench/baselines/persistence.json
(For the persistence baseline, prefer the most conservative of a few
runs — fsync-adjacent numbers wobble more than closed-loop qps.)
"""
import argparse
import json
import pathlib
import sys

# (fresh file, baseline file, gated qps keys, context-only keys — dotted
# paths into the JSON, plus optional 5th element: multicore-only gated
# keys, optional 6th element: a dict of absolute floors, metrics that
# must be >= the given value regardless of the baseline, and optional 7th
# element: a dict of absolute ceilings — lower-is-better SLO metrics that
# must stay <= the given value; used for the soak's latency/staleness/
# handover bars, which are acceptance criteria rather than
# baseline-relative throughputs). Context keys are printed for the CI log
# but never gate.
BENCHES = [
    (
        "BENCH_serving.json",
        "serving.json",
        [
            "scalar_qps",
            "batch_qps",
            "partial_batch_qps",
            "index_pruned_qps",
            "server.qps",
        ],
        ["server.p50_us", "server.p95_us", "server.p99_us"],
    ),
    # Multicore scaling. The single-thread qps gate everywhere; the
    # 4-thread-vs-1-thread serving speedup (5th tuple element) only
    # measures real parallelism on a runner with >= 4 cores, so it gates
    # only when the fresh JSON's hardware block reports that — on smaller
    # runners it is demoted to context. Its committed baseline is a floor
    # chosen so the 15% tolerance lands at the 1.5x acceptance bar, not a
    # measurement to chase.
    (
        "BENCH_scaling.json",
        "scaling.json",
        [
            "serving.t1.qps",
            "rebuild.t1.qps",
        ],
        [
            "serving.t1.p95_us",
            "rebuild_speedup_4t",
            "hardware.hardware_concurrency",
        ],
        ["serving_speedup_4t"],
    ),
    # Persistence. The acceptance bar gates as an absolute floor: a
    # persisted restart must beat a cold re-impute by >= 10x (median-of-3
    # timings). Publish overhead and restart timings are context: absolute
    # milliseconds on shared runners say little, and the fsync-heavy
    # persisted publish cost is expected.
    (
        "BENCH_persistence.json",
        "persistence.json",
        [],
        [
            "restart.cold_seconds",
            "restart.restore_seconds",
            "restart.wal_records_replayed",
            "publish.memory_only_ms",
            "publish.persisted_ms",
            "publish.overhead_ratio",
        ],
        [],
        {"restart.speedup": 10.0},
    ),
    # Trace-driven soak. achieved_qps is the open-loop pacing outcome and
    # gates against the baseline ratio like the other benches (a stall in
    # serving or a wedged updater collapses it). The SLO fields are
    # lower-is-better acceptance bars, so they gate against absolute
    # ceilings, deliberately far above a healthy run (smoke measures p999
    # ~30 ms, staleness p95 ~10 ms, handover error ~0.02 on one core) —
    # they catch a cliff, not runner-to-runner noise.
    (
        "BENCH_soak.json",
        "soak.json",
        ["load.achieved_qps"],
        [
            "slo.p50_ms",
            "slo.p99_ms",
            "slo.ape_p50_m",
            "slo.ape_p95_m",
            "slo.staleness_p50_ms",
            "churn.rebuilds_completed",
            "churn.rebuild_failures",
        ],
        [],
        {},
        {
            "slo.p999_ms": 500.0,
            "slo.staleness_p95_ms": 1000.0,
            "slo.handover_error_rate": 0.05,
        },
    ),
]


def lookup(doc, dotted):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh-dir", default="build")
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.15,
        help="largest tolerated fractional qps drop vs baseline",
    )
    args = parser.parse_args()

    fresh_dir = pathlib.Path(args.fresh_dir)
    baseline_dir = pathlib.Path(args.baseline_dir)
    floor = 1.0 - args.max_regression

    failures = []
    for entry in BENCHES:
        fresh_name, baseline_name, keys, context_keys = entry[:4]
        multicore_keys = entry[4] if len(entry) > 4 else []
        absolute_floors = entry[5] if len(entry) > 5 else {}
        absolute_ceilings = entry[6] if len(entry) > 6 else {}
        fresh_path = fresh_dir / fresh_name
        baseline_path = baseline_dir / baseline_name
        if not baseline_path.exists():
            print(f"[gate] no baseline {baseline_path} — skipping {fresh_name}")
            continue
        if not fresh_path.exists():
            failures.append(f"{fresh_path} missing (bench did not run?)")
            continue
        fresh = json.loads(fresh_path.read_text())
        baseline = json.loads(baseline_path.read_text())
        print(f"[gate] {fresh_name} vs {baseline_path}")
        if multicore_keys:
            hw = lookup(fresh, "hardware.hardware_concurrency") or 0
            if hw >= 4:
                keys = list(keys) + list(multicore_keys)
            else:
                print(
                    f"  (runner has {hw} hardware threads < 4 — scaling "
                    "ratios demoted to context)"
                )
                context_keys = list(context_keys) + list(multicore_keys)
        for key in keys:
            base_value = lookup(baseline, key)
            if base_value is None:
                # Baselines predating a metric don't gate it; the next
                # baseline refresh picks it up.
                print(f"  {key:24s} (no baseline value — skipped)")
                continue
            fresh_value = lookup(fresh, key)
            if fresh_value is None:
                failures.append(f"{fresh_name}: metric {key} disappeared")
                continue
            ratio = fresh_value / base_value if base_value > 0 else float("inf")
            verdict = "ok" if ratio >= floor else "REGRESSION"
            print(
                f"  {key:24s} {fresh_value:12.1f} / {base_value:12.1f}"
                f"  ({ratio:6.2f}x)  {verdict}"
            )
            if ratio < floor:
                failures.append(
                    f"{fresh_name}: {key} fell to {ratio:.2f}x of baseline "
                    f"({fresh_value:.1f} vs {base_value:.1f}, floor {floor:.2f}x)"
                )
        for key, floor_value in absolute_floors.items():
            fresh_value = lookup(fresh, key)
            if fresh_value is None:
                failures.append(f"{fresh_name}: metric {key} disappeared")
                continue
            verdict = "ok" if fresh_value >= floor_value else "REGRESSION"
            print(
                f"  {key:24s} {fresh_value:12.4f} >= floor "
                f"{floor_value:.4f}  {verdict}"
            )
            if fresh_value < floor_value:
                failures.append(
                    f"{fresh_name}: {key} = {fresh_value:.4f} below the "
                    f"absolute floor {floor_value:.4f}"
                )
        for key, ceiling_value in absolute_ceilings.items():
            fresh_value = lookup(fresh, key)
            if fresh_value is None:
                failures.append(f"{fresh_name}: metric {key} disappeared")
                continue
            verdict = "ok" if fresh_value <= ceiling_value else "SLO BREACH"
            print(
                f"  {key:24s} {fresh_value:12.4f} <= ceiling "
                f"{ceiling_value:.4f}  {verdict}"
            )
            if fresh_value > ceiling_value:
                failures.append(
                    f"{fresh_name}: {key} = {fresh_value:.4f} above the "
                    f"absolute ceiling {ceiling_value:.4f}"
                )
        for key in context_keys:
            fresh_value = lookup(fresh, key)
            base_value = lookup(baseline, key)
            if fresh_value is None:
                continue
            base_text = f"{base_value:12.1f}" if base_value is not None else "           -"
            print(f"  {key:24s} {fresh_value:12.1f} / {base_text}  (context only)")

    if failures:
        print("\n[gate] FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\n[gate] all gated metrics within "
          f"{args.max_regression:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
