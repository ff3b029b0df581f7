"""How often does the model detect bistability from 2-point series?

One cell of the true-positive-rate grid: datasets of 50 two-point series
sampled at a tenth of the characteristic time scale, fitted and scored by
whether the modal stable-state count matches the truth. Small replicate count
here to keep the runtime friendly; the experiment module scales it up.
"""

from landscaper.experiments import tpr_grid
from landscaper.inference import FitConfig
from landscaper.sim import CuspParams, cusp_model

model = cusp_model(CuspParams(alpha=0.0, beta=1.0, lam=0.0, r=1.0, epsilon=0.5))
result = tpr_grid(
    model,
    series_counts=[50],
    timesteps=[0.1],
    replicates=3,
    cfg=FitConfig(n_iterations=2000, seed=0),
    seed=77,
)
print(f"t_c = {result.t_c:.1f}; sampling step = 0.1 t_c")
print(f"true positive rate over {result.replicates} replicates: {result.tpr[0, 0]:.2f}")
print(f"fit failures: {int(result.failures[0, 0])}")
print(f"fits that ran but did not converge: {int(result.nonconverged[0, 0])}")
