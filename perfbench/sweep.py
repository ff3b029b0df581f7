"""Time one log-posterior + gradient evaluation over transition count n and
anchor count m, through the public `landscaper.inference.log_posterior`.

    python3 perfbench/sweep.py --seed N --out OUT.json [--smoke]

Each timed call includes building the evaluation context (the n x m squared
distances and the (x, dx, dt) arrays), because the public entry point builds
it on every call; inside `fit` that context is built once. The transitions
are differenced short series of the benchmark's bistable cusp (5 points per
series at dt = 0.3), generated from the seed. Writes
{"inference.log_posterior_ms.n<n>.m<m>": median milliseconds, ...}.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SIZES_N = (400, 4000, 40000)
SIZES_M = (30, 100)
MIN_REPEATS = 5
MIN_SECONDS = 0.3  # per (n, m) cell, so the fast cells get more repeats
MAX_REPEATS = 200


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true", help="one timed call per cell")
    args = parser.parse_args()
    min_repeats, min_seconds = (1, 0.0) if args.smoke else (MIN_REPEATS, MIN_SECONDS)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from landscaper import inference, sim, tsdata

    model = sim.cusp_model(sim.CuspParams(alpha=0.0, beta=1.0, lam=0.0, r=1.0, epsilon=0.5))
    rng = np.random.default_rng(args.seed)
    results = {}
    for n in SIZES_N:
        data = sim.generate_short_series(model, n // 4, 5, 0.3, seed=args.seed)
        transitions = tsdata.to_transitions(data.collection)
        lo, hi = data.collection.value_range
        pad = 0.1 * (hi - lo)
        for m in SIZES_M:
            anchors = np.linspace(lo - pad, hi + pad, m)
            state = inference.ModelState(
                z_f=0.1 * rng.standard_normal(m),
                z_g=0.1 * rng.standard_normal(m),
                drift_hypers=np.log([2.0, 1.25, 2.0, 2.0]),
                diff_hypers=np.log([2.0, 1.25]),
            )
            inference.log_posterior(state, transitions, anchors)  # warm-up
            times = []
            begin = time.perf_counter()
            while len(times) < MAX_REPEATS and (
                    len(times) < min_repeats or time.perf_counter() - begin < min_seconds):
                start = time.perf_counter()
                lp, grad = inference.log_posterior(state, transitions, anchors)
                times.append(time.perf_counter() - start)
            if not (math.isfinite(lp) and np.all(np.isfinite(grad))):
                print(f"error: non-finite log posterior at n={n}, m={m}", file=sys.stderr)
                return 1
            results[f"inference.log_posterior_ms.n{n}.m{m}"] = 1e3 * statistics.median(times)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
