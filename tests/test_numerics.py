import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import landscaper
from landscaper.numerics import cumulative_trapezoid


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
