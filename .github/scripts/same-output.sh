#!/usr/bin/env bash
# Two flag sets must be invisible in an experiment's output.
#
# Usage: .github/scripts/same-output.sh EXP 'FLAGS_A' 'FLAGS_B' [shared flags...]
#
# Runs `python -m repro.cli run EXP --quick --no-plot [shared flags...]`
# once with FLAGS_A and once with FLAGS_B (each one word-split string, may
# be empty), normalizes the wall-clock chatter (`took Xs`) and the metrics
# file names, and requires byte-identical stdout and metrics documents;
# then `repro obs diff` must agree the runs are identical.  CI runs it
# for `--jobs 1` vs `--jobs 2` and for a cold vs a warm `--cache-dir`.
# Works from an installed package or a plain checkout (src/ is put on
# PYTHONPATH).
# Exits non-zero on the first difference.
set -euo pipefail

if [ "$#" -lt 3 ]; then
  echo "usage: $0 EXP 'FLAGS_A' 'FLAGS_B' [shared flags...]" >&2
  exit 2
fi
experiment="$1"
flags_a="$2"
flags_b="$3"
shift 3

root="$(cd "$(dirname "$0")/../.." && pwd)"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

for side in a b; do
  if [ "$side" = a ]; then flags="$flags_a"; else flags="$flags_b"; fi
  # shellcheck disable=SC2086  # a flag set is a word list on purpose
  python -m repro.cli run "$experiment" --quick --no-plot "$@" $flags \
    --metrics-out "$out/metrics-$side.json" > "$out/stdout-$side.txt"
done
sed -i -e 's/took [0-9.]*s/took Xs/' -e 's/metrics-[ab]\.json/OUT/' \
  "$out/stdout-a.txt" "$out/stdout-b.txt"
diff "$out/stdout-a.txt" "$out/stdout-b.txt"
diff "$out/metrics-a.json" "$out/metrics-b.json"
python -m repro.cli obs diff "$out/metrics-a.json" "$out/metrics-b.json"
echo "$experiment${*:+ $*}: [${flags_b:-no flags}] reproduces [${flags_a:-no flags}]"
