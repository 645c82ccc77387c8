#!/usr/bin/env bash
# End-to-end observability demo (docs/observability.md):
#   1. build the CLI if needed,
#   2. run a small jammed discovery sweep with tracing + metrics on,
#   3. summarize the captured JSONL with `jrsnd analyze`,
#   4. show a single chip-free D-NDP handshake as phy.tx events.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build"
out="${JRSND_TRACE_OUT:-$repo/build/trace_demo.jsonl}"

if [[ ! -x "$build/tools/jrsnd" ]]; then
  cmake -B "$build" -S "$repo" >/dev/null
  cmake --build "$build" -j --target jrsnd_cli >/dev/null 2>&1 ||
    cmake --build "$build" -j >/dev/null
fi
jrsnd="$build/tools/jrsnd"

echo "== simulate (trace -> $out) =="
"$jrsnd" simulate --runs 2 --n 200 --seed 7 --trace-out "$out" --metrics

if [[ ! -s "$out" ]]; then
  echo "error: trace file is empty" >&2
  exit 1
fi

echo
echo "== analyze =="
"$jrsnd" analyze "$out"

echo
echo "== one D-NDP handshake as phy.tx events =="
"$jrsnd" trace --jsonl

echo
echo "trace kept at $out"
