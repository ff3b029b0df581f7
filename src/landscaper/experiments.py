"""Simulation studies: state-space coverage of short vs long series, and the
true-positive-rate grid for multistability detection."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .derived import multistability_posterior
from .errors import LandscaperError, PreconditionError
from .inference import FitConfig, fit
from .numerics import fork_map, seed_sequence
from .sim import (
    INTERNAL_DT,
    SdeModel,
    _reference_path,
    _short_paths,
    estimate_timescale,
    generate_short_series,
    step_from_fraction,
)

__all__ = [
    "CoverageResult",
    "TprGrid",
    "kl_divergence",
    "coverage_experiment",
    "tpr_grid",
]

DENSITY_FLOOR = 1e-12
# Observations per short series in each tpr_grid fit.
TPR_POINTS_PER_SERIES = 2
COVERAGE_POINTS_PER_SERIES = 5
COVERAGE_BINS = 50


@dataclass(frozen=True)
class CoverageResult:
    """Agreement-with-truth curves for short vs long series, per budget."""

    budgets: np.ndarray
    agreement_short: np.ndarray       # replicate means
    agreement_long: np.ndarray
    replicates: int
    per_replicate_short: np.ndarray   # (replicates, n_budgets)
    per_replicate_long: np.ndarray


@dataclass(frozen=True)
class TprGrid:
    """True-positive rates for recovering the true stable-state count."""

    series_counts: tuple[int, ...]
    timesteps: tuple[float, ...]      # fractions of t_c
    tpr: np.ndarray                   # (len(series_counts), len(timesteps))
    replicates: int
    failures: np.ndarray              # fit failures per cell
    t_c: float
    nonconverged: np.ndarray          # fits per cell that ran but did not converge


def kl_divergence(p, q, dx: float = 1.0):
    """KL(p || q) = sum p log(p/q) dx over the grid cells of p's last axis, 1e-12 floor."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape[-1:] != q.shape:
        raise PreconditionError("histogram and reference must share one grid")
    pf = np.maximum(p, DENSITY_FLOOR)
    qf = np.maximum(q, DENSITY_FLOOR)
    return np.sum(pf * np.log(pf / qf), axis=-1) * dx


def coverage_experiment(
    model: SdeModel,
    total_time: float = 250.0,
    replicates: int = 50,
    seed=0,
) -> CoverageResult:
    """Expanding-window agreement between data histograms and the true density.

    Per replicate, one long trajectory and a collection of independently
    initialized short series of COVERAGE_POINTS_PER_SERIES points share the
    same total simulation time, and both observe every step of INTERNAL_DT.
    At each whole-unit budget the values seen so far are histogrammed in
    COVERAGE_BINS equal bins from the 5e-4 to the 1 - 5e-4 quantile of the
    model's stationary table, the one its series start from, by np.histogram's
    rule (the last bin closed, values outside dropped but counted in the
    density's normalization), and compared to the table's density by KL
    divergence; agreement is 1 - KL/maxKL with maxKL taken over both designs
    and all budgets within the replicate. One 2-D histogram per design scores
    every budget. The replicates run in one process per usable CPU
    (`numerics.fork_map`), with the same results for any count.
    """
    if replicates < 1 or not 1 <= total_time < np.iinfo(np.intp).max * INTERNAL_DT:
        raise PreconditionError("replicates must be >= 1 and total_time >= 1 and below "
                                f"{np.iinfo(np.intp).max * INTERNAL_DT:.3g} time units")
    if model.stationary is None:
        raise PreconditionError(f"model {model.name!r} has no stationary table to score against")
    grid, cdf = model.stationary
    lo = float(np.interp(5e-4, cdf, grid))
    hi = float(np.interp(1.0 - 5e-4, cdf, grid))
    edges = np.linspace(lo, hi, COVERAGE_BINS + 1)
    width = edges[1] - edges[0]
    ref = np.diff(np.interp(edges, grid, cdf)) / width

    budgets = np.arange(1, int(total_time) + 1)
    span = (COVERAGE_POINTS_PER_SERIES - 1) * INTERNAL_DT
    n_short = int(np.floor(total_time / span))
    # How many values each design has seen by each budget.
    seen_short = COVERAGE_POINTS_PER_SERIES * np.minimum(np.floor(budgets / span), n_short)
    seen_long = np.rint(budgets / INTERNAL_DT) + 1

    def replicate(child):
        short_seed, long_seed = child.spawn(2)
        short_values = _short_paths(model, n_short, COVERAGE_POINTS_PER_SERIES - 1,
                                    short_seed).ravel()
        kl_s = _prefix_kl(short_values, seen_short, edges, ref)
        kl_l = _prefix_kl(_reference_path(model, long_seed, total_time), seen_long, edges, ref)
        max_kl = max(kl_s.max(), kl_l.max())
        return 1.0 - kl_s / max_kl, 1.0 - kl_l / max_kl

    rows = fork_map(replicate, seed_sequence(seed).spawn(replicates))
    agree_s = np.array([short for short, _ in rows])
    agree_l = np.array([long for _, long in rows])

    return CoverageResult(
        budgets=budgets.astype(float),
        agreement_short=agree_s.mean(axis=0),
        agreement_long=agree_l.mean(axis=0),
        replicates=replicates,
        per_replicate_short=agree_s,
        per_replicate_long=agree_l,
    )


def _prefix_kl(values, seen, edges, ref) -> np.ndarray:
    """KL from `ref` of each prefix values[:seen[j]]'s histogram on `edges` (np.histogram's
    bins); row j of the 2-D histogram counts the values prefix j adds to prefix j - 1."""
    counts = np.histogram2d(np.arange(values.size), values, bins=(np.r_[0, seen] - 0.5, edges))[0]
    width = edges[1] - edges[0]
    return kl_divergence(np.cumsum(counts, axis=0) / (seen[:, None] * width), ref, width)


def tpr_grid(
    true_model: SdeModel,
    series_counts=(50,),
    timesteps=(0.1,),
    replicates: int = 20,
    cfg: FitConfig = FitConfig(),
    seed=0,
) -> TprGrid:
    """Fraction of replicate fits whose modal stable-state count is correct.

    Cells vary the number of short series and the sampling step expressed as
    a fraction of the model's characteristic time scale (measured on a long
    reference run), rounded to a whole number of INTERNAL_DT steps; each
    series has TPR_POINTS_PER_SERIES points. Fit failures count as misses,
    never as positives; fits that ran but did not converge are scored, and
    counted in `nonconverged`. The replicates of every cell run in one
    process per usable CPU (`numerics.fork_map`), each fit in one, with the
    same results for any count.
    """
    if replicates < 1:
        raise PreconditionError("replicates must be >= 1")
    if true_model.label is None:
        raise PreconditionError("true_model must carry a ground-truth label")
    series_counts = tuple(int(n) for n in series_counts)
    timesteps = tuple(float(t) for t in timesteps)
    if not series_counts or any(n < 1 for n in series_counts):
        raise PreconditionError("series_counts must be non-empty, with entries >= 1")
    if not timesteps or not all(0 < t < np.inf for t in timesteps):
        raise PreconditionError("timesteps must be non-empty, each finite and positive")

    tc_seed, data_seed = seed_sequence(seed).spawn(2)
    t_c = estimate_timescale(true_model, seed=tc_seed)
    steps = {frac: step_from_fraction(frac, t_c) for frac in timesteps}

    cells = [(i, j) for i in range(len(series_counts)) for j in range(len(timesteps))]
    jobs = [(cell, rep_seed) for cell, cell_seed in zip(cells, data_seed.spawn(len(cells)))
            for rep_seed in cell_seed.spawn(replicates)]

    def replicate(job):
        # (hit, failed, nonconverged) of one replicate fit.
        (i, j), rep_seed = job
        data_child, fit_child = rep_seed.spawn(2)
        try:
            ds = generate_short_series(true_model, series_counts[i], TPR_POINTS_PER_SERIES,
                                       steps[timesteps[j]], data_child)
            post = fit(ds.collection, replace(cfg, seed=int(fit_child.generate_state(1)[0])))
            hit = multistability_posterior(post).mode == true_model.label
            return hit, False, not post.converged
        except LandscaperError:
            return False, True, False

    hits = np.zeros((len(series_counts), len(timesteps)), dtype=int)
    failures, nonconverged = np.zeros_like(hits), np.zeros_like(hits)
    for ((i, j), _), (hit, failed, unconverged) in zip(jobs, fork_map(replicate, jobs)):
        hits[i, j] += hit
        failures[i, j] += failed
        nonconverged[i, j] += unconverged
    tpr = hits / replicates

    return TprGrid(
        series_counts=series_counts,
        timesteps=timesteps,
        tpr=tpr,
        replicates=replicates,
        failures=failures,
        t_c=float(t_c),
        nonconverged=nonconverged,
    )
