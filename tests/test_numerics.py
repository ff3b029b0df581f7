import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import landscaper
from landscaper.errors import DegenerateDataError
from landscaper.numerics import cumulative_trapezoid, density_from_drift_diffusion


def test_cli_import_leaves_out_scipy_integrate():
    # A fresh interpreter: this one has scipy loaded by the test. Neither
    # scipy.integrate nor scipy.linalg (bound when a fit starts) is loaded.
    src = str(Path(landscaper.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, landscaper.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.linalg') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("n", [1, 2, 3, 50, 4001])
def test_cumulative_trapezoid_equals_scipy(rng, n):
    for _ in range(5):
        x = np.sort(rng.uniform(-5, 5, n))
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        expected = integrate.cumulative_trapezoid(y, x, initial=0.0)
        np.testing.assert_array_equal(cumulative_trapezoid(y, x), expected)


@pytest.mark.parametrize("drift_sign", [-1.0, 1.0])
def test_density_refused_when_rounding_decides_it(drift_sign):
    # g = 1e-16 on (-1, 1) drives the running integral of 2f/g to 1e16 in
    # magnitude. The confining drift -x climbs to +1e16 at the centre; the
    # repelling drift x falls to -1e16 and climbs back, and its two end
    # masses, equal by symmetry, would come out about 7e35 to 1.
    grid = np.linspace(-1.0, 1.0, 4001)
    with pytest.raises(DegenerateDataError, match="2f/g"):
        density_from_drift_diffusion(grid, drift_sign * grid, np.full_like(grid, 1e-16))
