#!/usr/bin/env bash
# The README's command chain against the `socnav` and `python` first on PATH:
# reruns diffed byte for byte, exit codes, exact error lines and the golden
# files. Runs in a new temporary directory; run it as
#   bash -e tests/cli_chain.sh
set -e
golden="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/golden"
cd "$(mktemp -d)"
socnav --help
socnav simulate --scenario frontal_approach --seed 7 --count 2 -o eps/
socnav simulate --scenario frontal_approach --seed 7 --count 2 -o eps-again/
diff -r eps eps-again
python -X importtime -m socnav.cli simulate --scenario random_crossing --seed 3 -o lean/ 2> importtime.txt
if grep 'numpy\.random' importtime.txt; then exit 1; fi
socnav simulate --scenario random_crossing --seed 340282366920938463463374607431768211457 --count 2 -o big/
socnav simulate --scenario random_crossing --seed 340282366920938463463374607431768211457 --count 2 -o big-again/
diff -r big big-again
socnav validate eps/*.json
socnav classify eps/*.json -o labels.json
socnav compute eps/frontal_approach_7_0.json --stepwise -o reports/0.json
socnav compute eps/frontal_approach_7_1.json -o reports/1.json
socnav compute eps/*.json -o batch/
cmp batch/frontal_approach_7_1.json reports/1.json
socnav compute eps/frontal_approach_7_1.json -o one/
cmp one/frontal_approach_7_1.json reports/1.json
socnav compute eps/*.json --stepwise -o batch-stepwise/
cmp batch-stepwise/frontal_approach_7_0.json reports/0.json
socnav summarize reports/*.json -o summary.json
socnav compare --label first=summary.json --label second=summary.json -o table.json
printf '0\trobot\t0.0\t0.0\n0\th1\t3.0\t0.5\n1\trobot\t0.1\t0.0\n1\th1\t2.9\t0.5\n2\trobot\t0.2\t0.0\n2\th1\t2.8\t0.5\n' > walk.tsv
socnav import --tsv walk.tsv --hz 10 --robot robot -o imported.json
socnav validate imported.json
socnav compute imported.json
socnav import --tsv walk.tsv --hz 10 --robot robot -o imported-again.json
cmp imported.json imported-again.json
printf '0\trobot\t0.0\t0.0\n1e308\trobot\t0.1\t0.0\n' > far.tsv
got=0
socnav import --tsv far.tsv --hz 0.1 2> far.err || got=$?
test "$got" = 1
printf 'error: /agents/0/states/1/t: must be finite\n' | cmp - far.err
socnav compute --stepwise "$golden/dynamic_obstacles/episode.json" -o golden.json && cmp golden.json "$golden/dynamic_obstacles/report.json"
for dir in "$golden"/*/; do
  case "$dir" in */invalid_*/) want=1 ;; *) want=0 ;; esac
  got=0
  (cd "$dir" && socnav validate episode.json) 2> validate.err || got=$?
  test "$got" = "$want"
  cmp validate.err "$dir/validate.txt"
done
printf '{"timeout": -1}' > bad_params.json
got=0
socnav compute eps/frontal_approach_7_1.json --params bad_params.json 2> params.err || got=$?
test "$got" = 1
printf 'error: /params/timeout: must be a positive finite number, got -1\n' | cmp - params.err
