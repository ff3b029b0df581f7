#!/usr/bin/env bash
# End-to-end batch pipeline through the CLI: simulate -> fit -> derive, a
# second fit that names the long file's `value` column, plus manifest replays
# of the dataset, the fit, the derived bundle and a coverage study to show
# byte-identical reproduction.
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

# The long layout (unit_id,time,value) is the wide layout whose one variable
# is `value`, the default --column: naming it gives the same posterior.
landscaper fit --data "$WORK/data/dataset.csv" --column value --config "$WORK/fit.json" \
    --allow-nonconverged --out "$WORK/fit-column"
cmp "$WORK/fit/posterior.json" "$WORK/fit-column/posterior.json" \
    && echo "long file read as the value column gives the same posterior"

landscaper derive --posterior "$WORK/fit/posterior.json" --out "$WORK/derived"
echo "derived bundle:" && ls "$WORK/derived"

landscaper replay --manifest "$WORK/data/manifest.json" --out "$WORK/data2"
cmp "$WORK/data/dataset.csv" "$WORK/data2/dataset.csv" \
    && echo "replayed dataset is byte-identical"

landscaper replay --manifest "$WORK/fit/manifest.json" --out "$WORK/fit2"
for f in posterior.json summary.csv diagnostics.csv; do
    cmp "$WORK/fit/$f" "$WORK/fit2/$f"
done
echo "replayed fit is byte-identical"

landscaper replay --manifest "$WORK/derived/manifest.json" --out "$WORK/derived2"
for f in "$WORK"/derived/*.csv "$WORK"/derived/*.json; do
    [ "$(basename "$f")" = manifest.json ] || cmp "$f" "$WORK/derived2/$(basename "$f")"
done
echo "replayed derived bundle is byte-identical"

cat > "$WORK/coverage.json" <<'JSON'
{"model": {"name": "cusp", "alpha": 0, "beta": 1, "lam": 0, "r": 1, "epsilon": 0.5},
 "total_time": 100, "replicates": 3, "seed": 2}
JSON
landscaper experiment --name coverage --config "$WORK/coverage.json" --out "$WORK/coverage"
head -3 "$WORK/coverage/coverage.csv"

landscaper replay --manifest "$WORK/coverage/manifest.json" --out "$WORK/coverage2"
cmp "$WORK/coverage/coverage.csv" "$WORK/coverage2/coverage.csv" \
    && cmp "$WORK/coverage/coverage.json" "$WORK/coverage2/coverage.json" \
    && echo "replayed coverage study is byte-identical"
