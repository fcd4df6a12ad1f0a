#!/usr/bin/env bash
# --jobs N must be invisible in an experiment's output.
#
# Usage: .github/scripts/jobs-determinism.sh EXP [flags...]
#
# Runs `python -m repro.cli run EXP --quick --no-plot [flags...]` with
# --jobs 1 and --jobs 2, normalizes the wall-clock chatter (`took Xs`) and
# the metrics file names in stdout, and requires byte-identical stdout and
# metrics documents; then `repro obs diff` must agree the runs are
# identical.  Works from an installed package or a plain checkout (src/ is
# put on PYTHONPATH).  Exits non-zero on the first difference.
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

for jobs in 1 2; do
  python -m repro.cli run "$experiment" --quick --no-plot "$@" --jobs "$jobs" \
    --metrics-out "$out/metrics-j$jobs.json" > "$out/stdout-j$jobs.txt"
done
sed -i -e 's/took [0-9.]*s/took Xs/' -e 's/metrics-j[0-9]*\.json/OUT/' \
  "$out/stdout-j1.txt" "$out/stdout-j2.txt"
diff "$out/stdout-j1.txt" "$out/stdout-j2.txt"
diff "$out/metrics-j1.json" "$out/metrics-j2.json"
python -m repro.cli obs diff "$out/metrics-j1.json" "$out/metrics-j2.json"
echo "$experiment${*:+ $*}: --jobs 2 reproduces --jobs 1"
