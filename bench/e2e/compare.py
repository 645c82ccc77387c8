#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results, metric by metric.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds at least five result files written by
`run.py --out FILE` (for a fair comparison, run parent and change
alternately). For every (workload, end-to-end metric) it prints each side's
median and quartiles over the files and a verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound
  better      it is better by more than the bound
  same        the medians differ by less than the bound
  unresolved  either side's quartile spread exceeds the bound, so a
              difference within the noise cannot be told apart, unless every
              run of the change beats every run of the parent (then better)

Bounds are the end_to_end bounds in BENCHMARK.json. The rates and latencies
it does not list (pairs_per_s, frame_us_*, auth_*) come from the same reps as
runs_per_s and take its bound. error_rate has no bound: any rise is worse. A
metric present on one side only also counts as worse. Exits 1 on any worse,
2 on unusable input. Standard library only.
"""
import json
import statistics
import sys
from pathlib import Path

MIN_FILES = 5
BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(directory):
    files = sorted(Path(directory).glob("*.json"))
    if len(files) < MIN_FILES:
        sys.exit(f"compare.py: {directory} holds {len(files)} result files; need {MIN_FILES}")
    values, better = {}, {}
    for f in files:
        for e in json.loads(f.read_text()):
            if e["layer"] != "e2e" or e["value"] is None:
                continue
            key = (e["workload"], e["name"])
            values.setdefault(key, []).append(e["value"])
            better[key] = e["better"]
    return values, better


def summary(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(name, higher, bound, parent, change):
    if name == "error_rate":
        if max(change) > max(parent):
            return "worse"
        return "better" if max(change) < max(parent) else "same"
    p_q1, p_med, p_q3 = summary(parent)
    c_q1, c_med, c_q3 = summary(change)
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    beats_all = min(change) > max(parent) if higher else max(change) < min(parent)
    if spread > bound:
        return "better" if beats_all else "unresolved"
    gain = (c_med - p_med) / abs(p_med) * (1 if higher else -1) if p_med else 0.0
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "same"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    parent, better = load(sys.argv[1])
    change, _ = load(sys.argv[2])
    failed = False
    print(f"{'workload':<15} {'metric':<18} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'delta':>8} {'bound':>6}  verdict")
    for key in sorted(set(parent) | set(change)):
        workload, name = key
        if key not in parent or key not in change:
            print(f"{workload:<15} {name:<18} missing on the {'change' if key in parent else 'parent'} side")
            failed = True
            continue
        bound = bounds.get(name, bounds["runs_per_s"])
        v = verdict(name, better[key] == "higher", bound, parent[key], change[key])
        failed |= v == "worse"
        p_q1, p_med, p_q3 = summary(parent[key])
        c_q1, c_med, c_q3 = summary(change[key])
        delta = f"{(c_med - p_med) / abs(p_med):+.1%}" if p_med else "n/a"
        shown_bound = "rise" if name == "error_rate" else f"{bound:.0%}"
        print(f"{workload:<15} {name:<18} {p_med:<11.5g} [{p_q1:.5g}, {p_q3:.5g}]".ljust(71)
              + f" {c_med:<11.5g} [{c_q1:.5g}, {c_q3:.5g}]".ljust(37)
              + f" {delta:>8} {shown_bound:>6}  {v}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
