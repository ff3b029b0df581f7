import ast
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
from landscaper.tsdata import dump_json

from test_cli import synthetic_posterior

PACKAGE = Path(landscaper.__file__).resolve().parent


def run_fresh(code):
    """stdout of `code` run in a fresh interpreter: this one has scipy loaded
    by the tests."""
    src = str(PACKAGE.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_cli_import_leaves_out_scipy_integrate(tmp_path):
    # Neither scipy.integrate nor scipy.linalg is loaded by importing the CLI,
    # nor by a derive that solves exit-time systems.
    code = ("import sys, landscaper.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.linalg') if m in sys.modules])")
    assert run_fresh(code).strip() == "[]"

    post_path, out = tmp_path / "posterior.json", tmp_path / "derived"
    dump_json(synthetic_posterior(bistable=True).to_json(), post_path)
    code = ("import sys; from landscaper import cli; "
            f"code = cli.main(['derive', '--posterior', {str(post_path)!r}, "
            f"'--out', {str(out)!r}]); "
            "print(code, [m for m in ('scipy.integrate', 'scipy.linalg') if m in sys.modules])")
    assert run_fresh(code).strip() == "0 []"
    assert (out / "exit_time_band.csv").exists()


def test_lapack_loads_without_scipy_linalg():
    # A context and the exit-time solver take scipy's LAPACK wrappers without
    # importing the scipy.linalg package, and they are the ones that package
    # exports.
    code = ("import sys; import numpy as np; from landscaper import inference, numerics; "
            "c = inference.TargetContext(np.zeros(3), np.ones(3), np.ones(3), "
            "np.linspace(-1, 1, 4), 0.0); "
            "routines = (c._potrf, c._trtri, c._trtrs) + numerics.lapack('dgtsv'); "
            "print('scipy.linalg' in sys.modules); "
            "from scipy.linalg import lapack; "
            "expected = (lapack.dpotrf, lapack.dtrtri, lapack.dtrtrs, lapack.dgtsv); "
            "print(routines == expected, numerics.lapack('dgtsv') == (lapack.dgtsv,))")
    assert run_fresh(code).split() == ["False", "True", "True"]


def test_only_numerics_imports_scipy():
    # numerics is the package's one entry to scipy; every other module stays
    # free of it, so that no command pays for importing scipy.linalg.
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                importers.append(path.name)
    assert set(importers) <= {"numerics.py"}, importers


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
