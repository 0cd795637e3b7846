#!/bin/sh
# Perfbench A/B gate: is this checkout's served benchmark worse than
# PARENT_DIR's?
#
#   bench/perf_ab.sh PARENT_DIR WORKLOAD
#
# PARENT_DIR is another entangle checkout.  Runs
# `python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds 10
# --trace 0` PAIRS times in each, alternating which side runs first from
# pair to pair, and prints every run's result line.  PAIRS and SEED come
# from the environment (defaults 5 and 1): `PAIRS=10 SEED=7
# bench/perf_ab.sh ../parent chains` is a held-out-seed A/B of 10
# pairs.  A run whose last stdout line is not a JSON object (a crash, a
# timeout, a failed build) counts as a run that is not correct.  Then the bench gate of this
# checkout judges the two sides' runs by the end_to_end metrics of
# PARENT_DIR's BENCHMARK.json (see bench/gate.ml), so a change cannot
# loosen the bounds it is judged by, and the script exits with the
# gate's status.  The gate also prints each metric's wins out of the
# pairs and both sides' quartiles, and whether they support a claimed
# gain; that line never changes the verdict.
set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_DIR WORKLOAD" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
workload=$2
root=$(cd "$(dirname "$0")/.." && pwd)
pairs=${PAIRS:-5}
seed=${SEED:-1}
case $pairs$seed in
  *[!0-9]*)
    echo "$0: PAIRS and SEED must be non-negative integers" >&2
    exit 2 ;;
esac
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run SIDE DIR: one perfbench run in DIR; its result line goes to
# $out/SIDE.jsonl.
run() {
  (cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
    --seconds 10 --trace 0) > "$out/$1.log" || true
  line=$(tail -n 1 "$out/$1.log")
  case $line in
    '{'*) ;;
    *) line='{"correct": false, "attempted": 0, "failed": 0, "metrics": {}}' ;;
  esac
  printf '%s\n' "$line" >> "$out/$1.jsonl"
  printf '%s %s: %s\n' "$1" "$i" "$line"
}

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent"; run change "$root"
  else
    run change "$root"; run parent "$parent"
  fi
  i=$((i + 1))
done

(cd "$root" && dune build ./bench/gate.exe)
cd "$parent"
"$root/_build/default/bench/gate.exe" --baseline "$out/parent.jsonl" \
  --fresh "$out/change.jsonl"
