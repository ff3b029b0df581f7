"""Reconstruct a stability landscape from a pile of 5-point time series.

Simulates a bistable cusp process, samples 100 short series the way a field
campaign might (independent units, few points each), fits the drift/diffusion
posterior, and prints where the stable states, tipping region and
multistability posterior ended up relative to the ground truth.

Runs in a few seconds. At 1000 iterations the chains are not shown to
converge (it prints converged=False, and the fit's ConvergenceWarning
reaches stderr), and they are not at 2000 either, so read its numbers as a
picture of one unconverged fit: the posterior still puts most of its mass on
two stable states and centres the tipping region near the true tipping point.
"""

import numpy as np

from landscaper.derived import multistability_posterior, tipping_region
from landscaper.inference import FitConfig, fit
from landscaper.sim import CuspParams, cusp_model, estimate_timescale, generate_short_series

N_ITERATIONS = 1000

params = CuspParams(alpha=0.0, beta=1.0, lam=0.0, r=1.0, epsilon=0.5)
model = cusp_model(params)
print(f"true stable states: {model.stable_points}, tipping point: {model.tipping_points}")

t_c = estimate_timescale(model, seed=1)
dt = round(0.01 * t_c, 2)
print(f"characteristic time scale t_c = {t_c:.1f}; sampling every {dt} time units")

dataset = generate_short_series(model, n_series=100, pts_per_series=5, dt_target=dt, seed=42)
values = dataset.collection.all_values()
print(f"dataset: {len(dataset.collection.series)} series, "
      f"values spanning [{values.min():.2f}, {values.max():.2f}]")

posterior = fit(dataset.collection, FitConfig(n_iterations=N_ITERATIONS, seed=7))
print(f"sampler: {posterior.n_draws} draws, {posterior.divergences} divergences, "
      f"converged={posterior.converged}")

drift_mean = posterior.drift_draws.mean(axis=0)
inside = (posterior.grid >= values.min()) & (posterior.grid <= values.max())
lo, hi = np.quantile(posterior.drift_draws, [0.025, 0.975], axis=0)
truth = model.drift(posterior.grid)
coverage = ((truth >= lo) & (truth <= hi))[inside].mean()
print(f"true drift inside the 95% band at {100 * coverage:.0f}% of grid points in range")

ms = multistability_posterior(posterior)
print("posterior over number of stable states:",
      {k: round(v, 3) for k, v in ms.probabilities.items()})
region = tipping_region(posterior)
print(f"tipping region: mean {region.mean:+.3f}, "
      f"50% [{region.interval50[0]:+.3f}, {region.interval50[1]:+.3f}], "
      f"95% [{region.interval95[0]:+.3f}, {region.interval95[1]:+.3f}]")

np.savetxt(
    "landscape_curves.csv",
    np.column_stack([posterior.grid, drift_mean, lo, hi, posterior.diffusion_draws.mean(axis=0)]),
    delimiter=",",
    header="grid,drift_mean,drift_lo95,drift_hi95,diffusion_mean",
    comments="",
)
print("wrote landscape_curves.csv")
