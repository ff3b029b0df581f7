"""Mean exit times for a bistable system, solver vs. brute force.

The boundary value problem f T' + (g/2) T'' = -1 gives the expected time to
reach the tipping point from any state. This script solves it on the analytic
cusp drift and checks the answer at the two stable states against a direct
Monte Carlo first-passage simulation.
"""

import numpy as np

from landscaper.derived import CurvePair, exit_time
from landscaper.sim import CuspParams, cusp_model

params = CuspParams(alpha=0.0, beta=1.0, lam=0.0, r=1.0, epsilon=0.5)
model = cusp_model(params)

grid = np.linspace(-2.5, 2.5, 201)
pair = CurvePair(grid, model.drift(grid), np.full_like(grid, params.epsilon))
solution = exit_time(pair, tipping=0.0)
print(f"T = 0 anchored at x = {solution.tipping}")
for x0 in (-1.0, 1.0):
    print(f"BVP exit time from {x0:+.0f}: {np.interp(x0, grid, solution.times):.2f}")

# brute force: run walkers until they cross the tipping point
n_walkers, dt = 2000, 0.001
for x0 in (-1.0, 1.0):
    rng = np.random.default_rng(99)
    x = np.full(n_walkers, x0)
    times = np.zeros(n_walkers)
    alive = np.arange(n_walkers)
    step = 0
    side = np.sign(x0)
    while alive.size:
        step += 1
        x = x + model.drift(x) * dt + np.sqrt(params.epsilon * dt) * rng.standard_normal(x.size)
        crossed = x * side <= 0
        times[alive[crossed]] = step * dt
        alive, x = alive[~crossed], x[~crossed]
    print(f"Monte Carlo from {x0:+.0f}: {times.mean():.2f} "
          f"(+- {1.96 * times.std() / np.sqrt(n_walkers):.2f})")

np.savetxt("exit_time_curve.csv",
           np.column_stack([grid, solution.times]),
           delimiter=",", header="grid,exit_time", comments="")
print("wrote exit_time_curve.csv")
