#!/usr/bin/env bash
# CLI smoke commands: run each command once, write every output to the
# working directory, and check in-tree that sweep CSVs do not depend on the
# worker count or on which modes share a run.  The arguments are the
# command that starts the CLI, for example:
#   .github/smoke.sh specsense
#   PYTHONPATH=src .github/smoke.sh python -m specsense.cli
set -euo pipefail
run() { "${cli[@]}" "$@"; }
cli=("$@")

run --help > /dev/null
run sense --mode dynamic > sense.txt
run sense --mode dynamic --hypothesis h0 > sense-dynamic-h0.txt
run sense --mode static > sense-static.txt
run sense --mode static --hypothesis h0 > sense-static-h0.txt
run sense --mode static --nominal 1.7 --pfa 0.03 > sense-static-nominal.txt
run estimate-noise > estimate-noise.txt
run estimate-noise --hypothesis h1 --snr 3 > estimate-noise-h1.txt
run estimate-noise --l 16 --n 256 --m-grid 200 > estimate-noise-l16.txt
run sweep-pfa --quick --out smoke_pfa > /dev/null
# One config file serves three commands: each reads its own keys and drops
# the rest.
cat > shared.cfg <<'CFG'
seed = 5
mismatch-db = 0
trials = 400
workers = 2
plot = yes
snr-min = -4
pfa-grid = 0.1,0.2
hypothesis = h0
CFG
run sense --mode dynamic --config shared.cfg > shared-sense.txt
run estimate-noise --config shared.cfg > shared-estimate-noise.txt
run sweep-pfa --quick --config shared.cfg --out shared_pfa > /dev/null
# The factor sweep puts many plans on each chunk across the pool.  The pfa
# sweep's 7 targets and both modes are one group of plans, so its 300
# trials are 3 units, one per chunk, on a pool of 2.
for w in 1 2; do
  run sweep-snr --quick --trials 1000 --snr-min 0 --snr-max 0 --workers $w --out smoke_w$w
  run sweep-factor --quick --trials 1000 --snr-min -4 --snr-max 0 --workers $w --out factor_w$w
  run sweep-pfa --quick --trials 3000 --workers $w --out pfa_w$w
done > /dev/null
for mode in static dynamic; do
  cmp smoke_w1_$mode.csv smoke_w2_$mode.csv
  cmp pfa_w1_$mode.csv pfa_w2_$mode.csv
done
for csv in factor_w1_factor_*.csv; do
  cmp "$csv" "factor_w2${csv#factor_w1}"
done
# A master seed of five 32-bit words (2**128 + 1): the seed kernel mixes a
# trial's words into its pool after all five.  3 units again, on a pool of 2.
for w in 1 2; do
  run sweep-pfa --quick --trials 3000 --seed 340282366920938463463374607431768211457 \
    --workers $w --out seed5_w$w > /dev/null
done
for mode in static dynamic; do
  cmp seed5_w1_$mode.csv seed5_w2_$mode.csv
done
# Each mode run alone writes the both-modes run's CSV.
for mode in static dynamic; do
  run sweep-snr --quick --trials 1000 --snr-min 0 --snr-max 0 --workers 2 --mode $mode \
    --out smoke_$mode > /dev/null
  cmp smoke_w2_$mode.csv smoke_${mode}_$mode.csv
done
# Usage errors: each one's arguments, stderr and exit code (2), which the
# base-branch identity step compares.
while read -ra args; do
  echo "${args[*]}" >> usage-errors.txt
  code=0
  run "${args[@]}" < /dev/null 2>> usage-errors.txt > /dev/null || code=$?
  echo "exit $code" >> usage-errors.txt
done <<'LIST'
sense --l 1
sense --n 4 --l 8
sense --m-grid 1
sense --sigma-w2 0
sense --seed -1
sense --sps 0
sense --pfa 1.5
estimate-noise --n 8 --l 8
sweep-snr --snr-max 4000
sweep-snr --workers 0
LIST
