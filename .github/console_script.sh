#!/usr/bin/env bash
# Drive the installed `snmix` entry point end to end, failing on any non-zero
# exit: simulate, the EM and both k-means clusterers (a plain input goes
# through NumPy's C CSV reader, a --has-header input through the csv module),
# then sampling from the saved model and a fit of the draws. An overfit K=4
# soft fit guards the warm-started M-steps by their inner iteration counts, and a
# small estimation benchmark runs both concentration root methods.
set -euo pipefail
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
snmix simulate --scenario large-mix --seed 1 --output "$d/lm"
snmix cluster --input "$d/lm.data.csv" -K 3 --seed 1 --output "$d/run"
{ echo "x0,x1,x2,x3"; cat "$d/lm.data.csv"; } > "$d/header.csv"
for algorithm in kmeans spkmeans; do
  snmix cluster --input "$d/lm.data.csv" -K 3 --algorithm "$algorithm" --seed 1 --output "$d/$algorithm"
  snmix cluster --input "$d/header.csv" --has-header -K 3 --algorithm "$algorithm" --seed 1 \
    --output "$d/$algorithm-header"
  cmp "$d/$algorithm.labels.txt" "$d/$algorithm-header.labels.txt"
done
snmix cluster --input "$d/lm.data.csv" -K 4 --seed 1 --output "$d/k4"
# cold M-steps take 5 Frechet and 4 concentration iterations per sweep here,
# warm Newton solves 2.29 concentration iterations and warm Halley solves 2.0
python - "$d/k4.report.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
bounds = {"frechet_iterations": 3.0, "concentration_iterations": 2.2}
per_sweep = {k: report[k] / report["iterations"] for k in bounds}
print("inner iterations per sweep", per_sweep)
sys.exit(any(per_sweep[k] > bound for k, bound in bounds.items()))
EOF
snmix sample --model "$d/run.model.json" -n 500 --seed 2 --output "$d/draws.csv"
snmix fit --input "$d/draws.csv" --output "$d/fit.json"
snmix bench --dims 2 --lambdas 5 --sizes 30 --reps 2 --output "$d/bench.csv"
# the Newton and Halley solves of the same sample reach the same root
python - "$d/bench.csv" <<'EOF'
import csv, sys
rows = list(csv.DictReader(open(sys.argv[1])))
gaps = [abs(float(r["relerr_lambda_newton"]) - float(r["relerr_lambda_halley"])) for r in rows]
print("newton-halley relative error gaps", gaps)
sys.exit(not rows or max(gaps) >= 1e-6)
EOF
# lambda = 0 has no relative error: a usage error, exit 2
status=0
snmix bench --dims 2 --lambdas 0 --sizes 20 --reps 1 || status=$?
test "$status" -eq 2
