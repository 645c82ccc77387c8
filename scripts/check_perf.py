#!/usr/bin/env python3
"""Judge fresh micro-bench results against the committed baseline.

    scripts/check_perf.py BASELINE FRESH [FRESH ...]

Every file is a JSON list of entries in the bench/e2e result schema:
{name, layer, workload, value, unit, better, measured, host}. The micro
benches write it (bench/bench_util.hpp); BENCH_micro.json is the baseline.

One rule. Entries match on (workload, name). A pair is compared only when
both sides are measured and host.threads agrees; otherwise a note says why.
A `higher` entry fails below TOLERANCE x baseline, a `lower` entry above
baseline / TOLERANCE. A baseline entry whose workload appears in the fresh
results but which they lack fails. Baseline workloads that did not run and
fresh entries the baseline does not hold are not judged.

Every verdict is printed; the exit code is 1 if any failed, 2 if an input
cannot be read as results, else 0.
"""

import json
import sys

# Shared CI runners are noisy: the floor catches 2x cliffs, not 5% jitter.
TOLERANCE = 0.6

KEYS = ("name", "layer", "workload", "value", "unit", "better", "measured", "host")


def well_formed(e):
    """An entry has every key, a host object, and measured iff its value is a number."""
    if not isinstance(e, dict) or any(k not in e for k in KEYS):
        return False
    number = isinstance(e["value"], (int, float)) and not isinstance(e["value"], bool)
    return (isinstance(e["host"], dict) and e["better"] in ("higher", "lower")
            and e["measured"] is number)


def load(path):
    """Returns {(workload, name): entry}; exits 2 on unreadable input."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, list):
            raise ValueError("top level is not a list of entries")
        for e in doc:
            if not well_formed(e):
                raise ValueError(f"malformed entry: {e!r}")
    except (OSError, ValueError) as err:  # json.JSONDecodeError is a ValueError
        print(f"error: {path}: {err}", file=sys.stderr)
        sys.exit(2)
    return {(e["workload"], e["name"]): e for e in doc}


def judge(base, fresh):
    """Returns (verdict, detail) for one matched pair."""
    if not (base["measured"] and fresh["measured"]):
        side = "baseline" if not base["measured"] else "fresh"
        return "note", f"unmeasured in {side}; not compared"
    b_threads, f_threads = base["host"].get("threads"), fresh["host"].get("threads")
    if b_threads != f_threads:
        return "note", f"threads differ (baseline {b_threads}, fresh {f_threads}); not compared"
    b, f = base["value"], fresh["value"]
    if base["better"] == "higher":
        limit, ok, bound = TOLERANCE * b, f >= TOLERANCE * b, "floor"
    else:
        limit, ok, bound = b / TOLERANCE, f <= b / TOLERANCE, "ceiling"
    delta = f"{100.0 * (f - b) / b:+.1f}%" if b else "n/a"
    return ("OK" if ok else "FAIL"), (f"baseline {b:.6g}, fresh {f:.6g} ({delta}), "
                                      f"{bound} {limit:.6g} {base['unit']}")


def main(argv):
    if len(argv) < 3:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    baseline = load(argv[1])
    fresh = {}
    for path in argv[2:]:
        fresh.update(load(path))
    ran = {workload for workload, _ in fresh}

    failed = compared = 0
    for key in sorted(baseline):
        workload, name = key
        if workload not in ran:
            continue
        if key in fresh:
            verdict, detail = judge(baseline[key], fresh[key])
        else:
            verdict, detail = "FAIL", "missing from the fresh results"
        compared += verdict != "note"
        failed += verdict == "FAIL"
        print(f"{verdict:<4} {workload} {name}: {detail}")
    for workload in sorted({w for w, _ in baseline} - ran):
        print(f"note {workload}: not in the fresh results; not judged")

    print(f"perf check: {compared} compared, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
