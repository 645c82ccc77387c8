#!/usr/bin/env python3
"""End-to-end discovery benchmark: build, run every workload, check, report.

    python3 bench/e2e/run.py [--seed S] [--smoke] [--out FILE]
    python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1

Builds bench/e2e (Release) into build-e2e/, then runs each workload in its
own process: the timed pass (tracing off; end-to-end metrics), then the
serial traced pass (per-layer metrics; spans in build-e2e/trace-W.json).
Prints every metric by name with its unit, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
correctness check failed.

--workload runs one workload; --trace 0 runs only its timed pass and --trace
1 only its traced pass, and the last line then holds exactly the
BENCHMARK.json end_to_end (resp. per_layer) metrics. --seconds measures each
timed pass for that long instead of 7 reps. --out writes every metric entry
(the result schema compare.py reads). Standard library only.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = ROOT / "bench" / "e2e"
BUILD_DIR = ROOT / "build-e2e"
BINARY = BUILD_DIR / "e2e_discovery"
WORKLOADS = ["fig2_random", "fig2_telemetry", "mndp_full", "chip_dndp", "auth_flood"]
MC_WORKLOADS = ["fig2_random", "fig2_telemetry", "mndp_full"]
PROCESS_TIMEOUT_S = 170  # one pass; the whole invocation must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no jrsnd sources next to bench/e2e; nothing to build")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "e2e_discovery", "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)


def run_pass(workload, args, traced):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    if traced:
        cmd += ["--trace", str(BUILD_DIR / f"trace-{workload}.json")]
    elif args.seconds:
        cmd += ["--seconds", repr(args.seconds)]
    log(f"run.py: {workload} {'traced' if traced else 'timed'} pass")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        sys.exit(f"run.py: {workload} ran longer than {PROCESS_TIMEOUT_S} s")
    if proc.returncode not in (0, 1):  # 1 = ran to the end with a failed check
        sys.exit(f"run.py: {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout)


def entry(name, layer, workload, value, unit, better, n, host):
    return {"name": name, "layer": layer, "workload": workload, "value": value, "unit": unit,
            "better": better, "measured": value is not None, "n": n if value is not None else 0,
            "q1": value, "q3": value, "host": host}


def collect(workloads, passes, args):
    """Runs the passes; returns (entries, attempted, failed)."""
    entries, attempted, failed = [], 0, 0
    by_workload = {}
    for w in workloads:
        results = [run_pass(w, args, traced) for traced in passes]
        by_workload[w] = results
        w_attempted = sum(r["attempted"] for r in results)
        w_failed = sum(r["failed"] for r in results)
        attempted += w_attempted
        failed += w_failed
        for r in results:
            for m in r["metrics"]:
                entries.append(dict(m, host=r["host"]))
        entries.append(entry("error_rate", "e2e", w, w_failed / w_attempted if w_attempted else None,
                             "ratio", "lower", w_attempted, results[0]["host"]))
    entries += derived(by_workload)
    return entries, attempted, failed


def derived(by_workload):
    """Metrics that combine two passes or two workloads."""
    def value(w, name):
        for r in by_workload.get(w, []):
            for m in r["metrics"]:
                if m["name"] == name:
                    return m["value"]
        return None

    out = []
    for w in MC_WORKLOADS:
        if w not in by_workload:
            continue
        host = by_workload[w][0]["host"]
        serial = next((r["serial_runs_per_s"] for r in by_workload[w]
                       if r["serial_runs_per_s"] is not None), None)
        runs = value(w, "runs_per_s")
        threads = host["threads"]
        eff = runs / (threads * serial) if runs and serial and threads > 1 else None
        out.append(entry("common.pool.scaling_eff", "common", w, eff, "ratio", "higher", 1, host))
    if "fig2_telemetry" in by_workload:
        plain, telemetry = value("fig2_random", "runs_per_s"), value("fig2_telemetry", "runs_per_s")
        overhead = 100.0 * (plain / telemetry - 1.0) if plain and telemetry else None
        out.append(entry("obs.telemetry_overhead_pct", "obs", "fig2_telemetry", overhead, "%",
                         "lower", 1, by_workload["fig2_telemetry"][0]["host"]))
    return out


def print_table(entries):
    for e in entries:
        if e["value"] is None:
            shown = "unmeasured"
        else:
            shown = f"{e['value']:.6g} {e['unit']}"
            if e["n"] > 1 and e["q1"] != e["q3"]:
                shown += f"  [q1 {e['q1']:.6g}, q3 {e['q3']:.6g}, n={e['n']}]"
        print(f"{e['workload']:<15} {e['layer']:<9} {e['name']:<36} {shown}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, help="measure each timed pass this long")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed pass only, 1: traced pass only (default: both)")
    parser.add_argument("--smoke", action="store_true", help="shrunken inputs, every check")
    parser.add_argument("--out", type=Path, help="write every metric entry to this file")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is not None and not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")

    build()
    workloads = [args.workload] if args.workload else WORKLOADS
    passes = [False, True] if args.trace is None else [bool(args.trace)]
    entries, attempted, failed = collect(workloads, passes, args)

    print_table(entries)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(entries, indent=1) + "\n")

    if args.workload and args.trace is not None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        found = {e["name"]: e for e in entries}
        metrics = {}
        for m in wanted:
            e = found.get(m["name"])
            if e is None or e["value"] is None:
                sys.exit(f"run.py: {args.workload} did not measure {m['name']}")
            metrics[m["name"]] = {"value": e["value"], "unit": e["unit"]}
    else:
        key = (lambda e: e["name"]) if args.workload else (lambda e: f"{e['workload']}/{e['name']}")
        metrics = {key(e): {"value": e["value"], "unit": e["unit"]}
                   for e in entries if e["value"] is not None}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
