#!/usr/bin/env bash
# End-to-end batch pipeline through the CLI: simulate -> fit -> derive,
# plus a manifest replay to show byte-identical reproduction.
set -euo pipefail

WORK="$(mktemp -d)"
echo "working in $WORK"

landscaper simulate --model cusp --alpha 0 --beta 1 --lam 0 --r 1 --epsilon 0.5 \
    --n-series 60 --points 4 --dt 0.2 --seed 11 --out "$WORK/data"

cat > "$WORK/fit.json" <<'JSON'
{"n_chains": 4, "n_iterations": 1000, "seed": 5}
JSON

# The chains run in lockstep in the `fit` process, one batched log-posterior
# call per step.
landscaper fit --data "$WORK/data/dataset.csv" --config "$WORK/fit.json" \
    --allow-nonconverged --out "$WORK/fit"

landscaper derive --posterior "$WORK/fit/posterior.json" --out "$WORK/derived"
echo "derived bundle:" && ls "$WORK/derived"

landscaper replay --manifest "$WORK/data/manifest.json" --out "$WORK/data2"
cmp "$WORK/data/dataset.csv" "$WORK/data2/dataset.csv" \
    && echo "replayed dataset is byte-identical"

cat > "$WORK/coverage.json" <<'JSON'
{"model": {"name": "cusp", "alpha": 0, "beta": 1, "lam": 0, "r": 1, "epsilon": 0.5},
 "total_time": 100, "replicates": 3, "seed": 2}
JSON
landscaper experiment --name coverage --config "$WORK/coverage.json" --out "$WORK/coverage"
head -3 "$WORK/coverage/coverage.csv"
