#!/usr/bin/env python3
"""Gate a bench JSON report against its committed baseline.

Compares the tracked ratios of a fresh bench run against the matching
file under bench/baselines/ and fails (exit 1) when any ratio dropped
more than --max-drop (default 30%) below the baseline value. Tracked
ratios are in-process comparisons of the same two measurements (speedups,
compression ratios), so they are far more stable across runner hardware
than absolute timings — which is why the gate tracks them and not the
raw numbers.

A report's top-level "gates" object maps name -> ratio
(BENCH_waveform.json: open_vs_parse_speedup, rle_clock_compression;
BENCH_fanout.json: binary_fanout_speedup).

Reports may also carry a top-level "ceilings" object of name -> upper
bound. Ceilings gate in the opposite direction and with no drop budget:
the run fails when the current value exceeds the committed baseline
value. Use them for quantities where "bigger" is strictly worse and the
committed bound already carries the budget. BENCH_fanout.json bounds an
absolute delivery p99 in ms. BENCH_fig5.json bounds
hot_eval_per_sim_cycle and quiet_eval_per_sim_cycle: the compiled
condition pipeline's eval ns per clock edge divided by the bare
simulator's ns per cycle on the same design, measured in the same run.
Its committed ceilings are the values measured when they were recorded,
divided by 0.7 (a 30% budget).

A baseline must track at least one gate or ceiling.

Usage:
  check_bench_regression.py CURRENT.json BASELINE.json [--max-drop 0.30]
"""

import argparse
import json
import sys


def tracked_speedups(report):
    """(name, value) pairs of the ratios the gate protects."""
    out = []
    for name, value in sorted(report.get("gates", {}).items()):
        if isinstance(value, (int, float)):
            out.append((f"gates.{name}", float(value)))
    return out


def tracked_ceilings(report):
    """(name, value) pairs of the absolute upper bounds the gate protects."""
    out = []
    for name, value in sorted(report.get("ceilings", {}).items()):
        if isinstance(value, (int, float)):
            out.append((f"ceilings.{name}", float(value)))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly produced BENCH_*.json")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("--max-drop", type=float, default=0.30,
                        help="maximum allowed fractional drop below the "
                             "baseline (default 0.30 = 30%%)")
    args = parser.parse_args()

    with open(args.current) as f:
        current = json.load(f)
    with open(args.baseline) as f:
        baseline = json.load(f)

    baseline_values = dict(tracked_speedups(baseline))
    current_values = dict(tracked_speedups(current))
    baseline_ceilings = dict(tracked_ceilings(baseline))
    current_ceilings = dict(tracked_ceilings(current))
    if not baseline_values and not baseline_ceilings:
        print("error: baseline has no tracked gates or ceilings",
              file=sys.stderr)
        return 2

    failed = False
    for name, base in sorted(baseline_values.items()):
        if name not in current_values:
            print(f"FAIL {name}: missing from the current report")
            failed = True
            continue
        now = current_values[name]
        floor = base * (1.0 - args.max_drop)
        status = "ok" if now >= floor else "FAIL"
        print(f"{status:>4} {name}: current {now:.2f}x vs baseline "
              f"{base:.2f}x (floor {floor:.2f}x)")
        if now < floor:
            failed = True

    for name, bound in sorted(baseline_ceilings.items()):
        if name not in current_ceilings:
            print(f"FAIL {name}: missing from the current report")
            failed = True
            continue
        now = current_ceilings[name]
        status = "ok" if now <= bound else "FAIL"
        print(f"{status:>4} {name}: current {now:.3f} vs ceiling {bound:.3f}")
        if now > bound:
            failed = True

    if failed:
        print(f"\nbench regression: a speedup dropped more than "
              f"{args.max_drop:.0%} below bench/baselines/ or a ceiling "
              f"was exceeded", file=sys.stderr)
        return 1
    print("\nall tracked speedups and ceilings within the regression budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
