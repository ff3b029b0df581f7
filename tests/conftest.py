import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from landscaper.sim import CuspParams, cusp_model


@pytest.fixture(scope="session")
def bistable_cusp():
    """Symmetric bistable cusp used across tests (stable at +-1, tipping at 0)."""
    return cusp_model(CuspParams(alpha=0.0, beta=1.0, lam=0.0, r=1.0, epsilon=0.5))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def set_cpus(monkeypatch):
    """`set_cpus(n)` gives this process an affinity mask of n CPUs, so
    `numerics.usable_cpus` reports n and `fork_map` uses up to n processes."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_cpus


@pytest.fixture(autouse=True)
def no_leftover_child_processes():
    """Fail any test after which a child process started through
    multiprocessing (a forked share of `numerics.fork_map`) is still alive."""
    yield
    leftover = multiprocessing.active_children()
    if leftover:
        for child in leftover:
            child.kill()
            child.join()
        pytest.fail(f"child processes outlived the test: {leftover}")
