#!/usr/bin/env bash
# --engine must be invisible in an experiment's output.
#
# Usage: .github/scripts/engine-determinism.sh EXP [flags...]
#
# Runs `python -m repro.cli run EXP --quick --no-plot [flags...]` with
# --engine linear and --engine dtree, normalizes the wall-clock chatter
# (`took Xs`), the metrics file names and the echoed engine name (an
# experiment that records its engine in its notes), and requires
# byte-identical stdout and metrics documents; then `repro obs
# diff` must agree the runs are identical.  Both engines return the same
# winner for every lookup, and DecisionTreeEngine answers win fragments
# from the same mask index as LinearEngine, so any difference is a bug.
# Works from an installed package or a plain checkout (src/ is put on
# PYTHONPATH).  Exits non-zero on the first difference.
set -euo pipefail

if [ "$#" -lt 1 ]; then
  echo "usage: $0 EXP [flags...]" >&2
  exit 2
fi
experiment="$1"
shift

root="$(cd "$(dirname "$0")/../.." && pwd)"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

for engine in linear dtree; do
  python -m repro.cli run "$experiment" --quick --no-plot "$@" --engine "$engine" \
    --metrics-out "$out/metrics-$engine.json" > "$out/stdout-$engine.txt"
done
sed -i -e 's/took [0-9.]*s/took Xs/' -e 's/metrics-[a-z]*\.json/OUT/' \
  -e "s/'engine': '[a-z]*'/'engine': ENGINE/" \
  "$out/stdout-linear.txt" "$out/stdout-dtree.txt"
sed -i -e 's/"engine": "[a-z]*"/"engine": "ENGINE"/' \
  "$out/metrics-linear.json" "$out/metrics-dtree.json"
diff "$out/stdout-linear.txt" "$out/stdout-dtree.txt"
diff "$out/metrics-linear.json" "$out/metrics-dtree.json"
python -m repro.cli obs diff "$out/metrics-linear.json" "$out/metrics-dtree.json"
echo "$experiment${*:+ $*}: --engine dtree reproduces linear"
