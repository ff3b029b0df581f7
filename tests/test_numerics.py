import ast
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg.lapack import dgtsv

import landscaper
from landscaper.errors import DegenerateDataError, SamplerError
from landscaper.numerics import (cumulative_trapezoid, density_from_drift_diffusion, fork_map,
                                 solve_tridiagonal, usable_cpus)
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


def test_pipeline_runs_without_scipy(tmp_path):
    # The package needs numpy alone: with every scipy import failing, a
    # simulate, a small fit, and a derive that solves exit-time systems each
    # exit 0.
    post_path, out = tmp_path / "posterior.json", tmp_path / "derived"
    dump_json(synthetic_posterior(bistable=True).to_json(), post_path)
    (tmp_path / "fit.json").write_text('{"n_chains": 2, "n_iterations": 100, "n_anchors": 6}')
    commands = [
        ["simulate", "--model", "cusp", "--n-series", "6", "--points", "4", "--dt", "0.3",
         "--out", str(tmp_path / "data")],
        ["fit", "--data", str(tmp_path / "data" / "dataset.csv"), "--config",
         str(tmp_path / "fit.json"), "--allow-nonconverged", "--out", str(tmp_path / "fit")],
        ["derive", "--posterior", str(post_path), "--out", str(out)],
    ]
    code = ("import sys; sys.modules['scipy'] = None; from landscaper import cli; "
            f"print([cli.main(argv) for argv in {commands!r}])")
    assert run_fresh(code).splitlines()[-1] == "[0, 0, 0]"
    assert (out / "exit_time_band.csv").exists()


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


def test_fit_loads_no_scipy():
    # The sampler's target is numpy alone: a fit, its posterior and a reload
    # of it import no scipy module.
    code = ("import json, sys, warnings; import numpy as np; "
            "from landscaper import inference, tsdata; "
            "rng = np.random.default_rng(0); "
            "c = tsdata.TimeSeriesCollection(tuple(tsdata.TimeSeries(f's{i}', np.arange(4.0), "
            "rng.standard_normal(4)) for i in range(6))); "
            "warnings.simplefilter('ignore'); "
            "post = inference.fit(c, inference.FitConfig(n_chains=2, n_iterations=100, "
            "n_anchors=6)); "
            "inference.Posterior.from_json(json.loads(json.dumps(post.to_json()))); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_fresh(code).strip() == "[]"


def test_no_module_imports_scipy():
    # scipy is the tests' oracle, not a dependency of the package.
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
    assert importers == []


@pytest.mark.parametrize("n", [1, 2, 3, 50, 4001])
def test_cumulative_trapezoid_equals_scipy(rng, n):
    for _ in range(5):
        x = np.sort(rng.uniform(-5, 5, n))
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        expected = integrate.cumulative_trapezoid(y, x, initial=0.0)
        np.testing.assert_array_equal(cumulative_trapezoid(y, x), expected)


@pytest.mark.parametrize("n", [2, 3, 50])
def test_solve_tridiagonal_equals_dgtsv(rng, n):
    # Random systems pivot often; a twentieth of the entries are zero, so
    # some systems hit a zero pivot, where only `info` has to agree.
    m = 300
    sub = rng.standard_normal((m, n - 1)) * 10.0 ** rng.uniform(-3, 3, (m, 1))
    main, sup, rhs = rng.standard_normal((3, m, n))
    sup = sup[:, 1:]
    sub[rng.random(sub.shape) < 0.05] = 0.0
    main[rng.random(main.shape) < 0.05] = 0.0
    x, info = solve_tridiagonal(sub, main, sup, rhs)
    assert 0 < np.count_nonzero(info) < m
    for row in range(m):
        *_, expected, expected_info = dgtsv(sub[row], main[row], sup[row], rhs[row])
        assert info[row] == expected_info
        if not expected_info:
            np.testing.assert_array_equal(x[row], expected)


@pytest.mark.parametrize("drift_sign", [-1.0, 1.0])
def test_density_refused_when_rounding_decides_it(drift_sign):
    # g = 1e-16 on (-1, 1) drives the running integral of 2f/g to 1e16 in
    # magnitude. The confining drift -x climbs to +1e16 at the centre; the
    # repelling drift x falls to -1e16 and climbs back, and its two end
    # masses, equal by symmetry, would come out about 7e35 to 1.
    grid = np.linspace(-1.0, 1.0, 4001)
    with pytest.raises(DegenerateDataError, match="2f/g"):
        density_from_drift_diffusion(grid, drift_sign * grid, np.full_like(grid, 1e-16))


class ItemWarning(UserWarning):
    pass


def test_fork_map_returns_results_in_item_order(set_cpus):
    # 7 items in 3 shares: items 0-2 run here, 3-4 and 5-6 in two children.
    set_cpus(3)
    results = fork_map(lambda x: (x * x, os.getpid()), range(7))
    assert [r[0] for r in results] == [x * x for x in range(7)]
    pids = [r[1] for r in results]
    assert pids[:3] == [os.getpid()] * 3
    assert pids[3] == pids[4] and pids[5] == pids[6]
    assert len({os.getpid(), pids[3], pids[5]}) == 3
    assert multiprocessing.active_children() == []


def test_fork_map_raises_the_first_failing_item(set_cpus):
    # Items 3 and 4 fail, in different children; item 3's error is raised.
    def fn(x):
        if x in (3, 4):
            raise ValueError(f"item {x} failed")
        return x

    set_cpus(3)
    with pytest.raises(ValueError, match="item 3 failed"):
        fork_map(fn, range(6))
    assert multiprocessing.active_children() == []


def test_fork_map_error_here_kills_the_children(set_cpus):
    # The first share fails at once while the children would sleep for a
    # minute: they are killed and reaped, not waited for.
    def fn(x):
        if x == 0:
            raise ValueError("first share failed")
        time.sleep(60)

    started = time.perf_counter()
    set_cpus(3)
    with pytest.raises(ValueError, match="first share failed"):
        fork_map(fn, range(3))
    assert time.perf_counter() - started < 30
    assert multiprocessing.active_children() == []


def test_fork_map_child_killed_by_a_signal(set_cpus):
    here = os.getpid()

    def fn(x):
        if os.getpid() != here:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    set_cpus(2)
    with pytest.raises(SamplerError, match="exited with code -9 before sending"):
        fork_map(fn, range(2))
    assert multiprocessing.active_children() == []


def test_fork_map_unpicklable_child_error_is_a_sampler_error(set_cpus):
    # A child's exception that does not survive pickling comes back as a
    # SamplerError that names it.
    class Unpicklable(Exception):
        pass  # a local class: pickling it fails

    here = os.getpid()

    def fn(x):
        if os.getpid() != here:
            raise Unpicklable("bad item")
        return x

    set_cpus(2)
    with pytest.raises(SamplerError, match="a forked process raised Unpicklable: bad item"):
        fork_map(fn, range(2))
    assert multiprocessing.active_children() == []


def test_fork_map_reissues_child_warnings_in_item_order(set_cpus):
    # Every item warns; the children's warnings come back with their
    # category, message, file and line, after those of the first share.
    def fn(x):
        warnings.warn(f"item {x}", ItemWarning)
        return x

    line = fn.__code__.co_firstlineno + 1
    set_cpus(3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert fork_map(fn, range(5)) == list(range(5))
    assert [str(w.message) for w in caught] == [f"item {x}" for x in range(5)]
    assert {(w.category, w.filename, w.lineno) for w in caught} == {(ItemWarning, __file__, line)}


def test_fork_map_runs_here_without_fork(monkeypatch, set_cpus):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    set_cpus(3)
    assert fork_map(lambda x: os.getpid(), range(3)) == [os.getpid()] * 3


def test_fork_map_with_one_cpu_runs_every_item_here(set_cpus):
    set_cpus(1)
    assert fork_map(lambda x: os.getpid(), range(3)) == [os.getpid()] * 3


@pytest.mark.parametrize("count, expected", [(5, 5), (None, 1)])
def test_usable_cpus_without_affinity_is_the_cpu_count(monkeypatch, count, expected):
    # A platform without sched_getaffinity; os.cpu_count() is None where the
    # count cannot be told.
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert usable_cpus() == expected
