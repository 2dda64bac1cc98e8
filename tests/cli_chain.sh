#!/usr/bin/env bash
# The README's command chain against the `socnav` and `python` first on PATH:
# reruns diffed byte for byte, exit codes, exact error lines and the golden
# files. Runs in a new temporary directory, removed on every exit; run it as
#   bash -e tests/cli_chain.sh
set -e
golden="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/golden"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"
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
mkdir cards
python -c '
import sys
from socnav.scenarios import builtin_cards, serialize_card
for name, card in builtin_cards().items():
    open(f"{sys.argv[1]}/{name}.json", "wb").write(serialize_card(card))
' cards
socnav classify eps/*.json --cards cards -o labels-cards.json
cmp labels.json labels-cards.json
mkdir misspelled
python -c '
import json, sys
from socnav.scenarios import builtin_cards, serialize_card
doc = json.loads(serialize_card(builtin_cards()["intersection"]))
doc["usage_guide"]["labeling_criteria"]["proximity_maxx"] = 0.01
open(f"{sys.argv[1]}/intersection.json", "w").write(json.dumps(doc))
' misspelled
got=0
socnav classify eps/*.json --cards misspelled 2> misspelled.err || got=$?
test "$got" = 1
printf 'error: misspelled/intersection.json: /usage_guide/labeling_criteria/proximity_maxx: unknown field\n' | cmp - misspelled.err
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
printf 'error: far.tsv: /agents/0/states/1/t: must be finite\n' | cmp - far.err
socnav compute --stepwise "$golden/dynamic_obstacles/episode.json" -o golden.json
cmp golden.json "$golden/dynamic_obstacles/report.json"
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
printf 'error: bad_params.json: /params/timeout: must be a positive finite number, got -1\n' | cmp - params.err
printf '{"cooperative_agent_ids": ["robot"]}' > coop_params.json
socnav compute eps/frontal_approach_7_0.json --params coop_params.json -o coop.json
python -c '
import json, sys
at = json.load(open(sys.argv[1]))["metrics"]["AT"]["value"]
assert type(at) is float, at
print("AT", at)
' coop.json
printf '{"collision_terminate_count": 1}' > terminate_params.json
socnav compute "$golden/int_numbers/episode.json" -o untouched.json
socnav compute "$golden/int_numbers/episode.json" --params terminate_params.json -o terminated.json
python -c '
import json, sys
untouched, terminated = (json.load(open(f)) for f in sys.argv[1:])
m = untouched["metrics"]
assert (m["C"]["value"], m["S"]["value"], m["T"]["value"]) == (2, True, 9.0), m
m = terminated["metrics"]
assert terminated["params"]["collision_terminate_count"] == 1, terminated["params"]
assert m["S"]["params_used"]["collision_terminate_count"] == 1, m["S"]
assert (m["C"]["value"], m["S"]["value"], m["T"]["value"]) == (2, False, None), m
' untouched.json terminated.json
mkdir goldens
for dir in "$golden"/*/; do
  case "$dir" in */invalid_*/) ;; *) cp "$dir/episode.json" "goldens/$(basename "$dir").json" ;; esac
done
socnav compute goldens/*.json -o golden-reports/ 2> batch.err
for f in goldens/*.json; do echo "wrote golden-reports/${f#goldens/}"; done | cmp - batch.err
test "$(wc -l < batch.err)" = 5
python -c 'print("[" * 200000 + "]" * 200000)' > nested.json
got=0
socnav validate nested.json 2> nested.err || got=$?
test "$got" = 1
test "$(wc -l < nested.err)" = 1
if grep Traceback nested.err; then exit 1; fi
