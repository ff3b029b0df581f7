"""Command-line entry point: simulate | fit | derive | experiment | replay.

Every command funnels randomness through --seed, writes its outputs with
stable formatting (sorted JSON keys, repr floats) and drops a manifest.json
recording argv, input digests, output digests, config hash, seed and tool
version, so any run can be replayed bit-identically. The `timings` field of
the manifest is the only part that varies between identical runs: the total
seconds; for `fit` also `fit_seconds`, the wall time of the `inference.fit`
call; and for `experiment` also `workers`, the number of processes its
replicates ran in (which follows the machine's CPU count).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__, derived
from .errors import (
    DegenerateDataError,
    IngestError,
    LandscaperError,
    PreconditionError,
    SamplerError,
    SimulationDiverged,
)
from .experiments import coverage_experiment, tpr_grid
from .inference import FitConfig, Posterior, fit
from .numerics import seed_sequence
from .sim import (
    INTERNAL_DT,
    CuspParams,
    cusp_model,
    custom_bimodal_unistable,
    estimate_timescale,
    generate_short_series,
    step_from_fraction,
)
from .tsdata import (
    TimeSeriesCollection,
    dump_json,
    filter_by_timestep,
    integer,
    list_of,
    load_json,
    number,
    read_document,
    read_observations_csv,
    read_wide_csv,
    text,
    write_observations_csv,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_CONVERGENCE = 4
EXIT_IO = 5
EXIT_SAMPLER = 6


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_hash(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _write_manifest(out_dir: Path, command: str, argv: list[str], seed, config_doc,
                    inputs: list[Path], outputs: list[Path], started: float,
                    timings: dict | None = None) -> None:
    manifest = {
        "command": command,
        "argv": argv,
        "tool_version": __version__,
        "seed": seed,
        "config_hash": _config_hash(config_doc),
        "details": config_doc,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {p.name: _sha256(p) for p in outputs},
        "timings": {"seconds": time.perf_counter() - started, **(timings or {})},
    }
    dump_json(manifest, out_dir / "manifest.json")


def _write_csv(path: Path, header, rows) -> None:
    # csv writes a Python float as its repr, which reads back to the same bits.
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _float_rows(columns) -> list:
    """The rows of equal-length columns, every value a Python float."""
    return np.column_stack([np.asarray(c, dtype=float) for c in columns]).tolist()


def _resolve_threads(value=None) -> int:
    # The number of usable CPUs. `value` is unused; perfbench/run.py passes None.
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


# The keys of a model spec document and their converters. Every model takes
# the cusp parameters, and bimodal-unistable ignores them. `simulate` hands
# the ones it is given to `_make_model` as flags, not as a document.
CUSP_PARAMS = tuple(f.name for f in fields(CuspParams))
MODEL_SPEC = {"name": text, **dict.fromkeys(CUSP_PARAMS, number)}


def _build_model(spec):
    return _make_model(**read_document(spec, MODEL_SPEC, "model spec"))


def _make_model(name=None, **params):
    cusp = CuspParams(**params)  # checked for every model: the manifest records them
    if name == "cusp":
        return cusp_model(cusp)
    if name == "bimodal-unistable":
        return custom_bimodal_unistable()
    raise IngestError(f"unknown model name {name!r}")


def _replicate_fit_config(doc) -> FitConfig:
    # tpr_grid draws every replicate's fit seed from the experiment seed, so a
    # seed here would be ignored.
    if isinstance(doc, dict) and "seed" in doc:
        raise IngestError("seed is not a key of a tpr-grid fit document; the "
                          "experiment seed sets every replicate's fit seed")
    return FitConfig.from_json(doc)


# The keys each experiment config takes and their converters; a key left out
# takes the experiment function's default.
EXPERIMENT_CONFIGS = {
    "coverage": {"model": _build_model, "seed": integer, "total_time": number,
                 "replicates": integer},
    "tpr-grid": {"model": _build_model, "seed": integer, "series_counts": list_of(integer),
                 "timesteps": list_of(number), "replicates": integer,
                 "fit": _replicate_fit_config},
}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args, argv) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = {"name": args.model, **{k: getattr(args, k) for k in CUSP_PARAMS
                                   if getattr(args, k) is not None}}
    model = _make_model(**spec)
    tc_seed, data_seed = seed_sequence(args.seed).spawn(2)
    if args.dt_frac is not None:
        if not 0 < args.dt_frac < math.inf:
            raise PreconditionError(f"--dt-frac must be finite and positive, got {args.dt_frac}")
        dt = step_from_fraction(args.dt_frac, estimate_timescale(model, seed=tc_seed).t_c)
    else:
        dt = args.dt
    ds = generate_short_series(model, args.n_series, args.points, dt, data_seed)
    csv_path = out / f"{args.name}.csv"
    truth_path = out / f"{args.name}_truth.json"
    write_observations_csv(ds.collection, csv_path)
    truth = dict(ds.ground_truth)
    truth["seed"] = args.seed
    dump_json(truth, truth_path)
    config = {"spec": spec, "n_series": args.n_series, "points": args.points,
              "dt": dt, "internal_dt": INTERNAL_DT}
    _write_manifest(out, "simulate", argv, args.seed, config, [],
                    [csv_path, truth_path], started)
    return EXIT_OK


def _load_fit_collection(args) -> TimeSeriesCollection:
    if args.clr and not args.column:
        raise PreconditionError("--clr requires --column to select the variable to analyze")
    if args.column:
        collection = read_wide_csv(args.data, args.column, args.clr)
    else:
        collection = read_observations_csv(args.data)
    if args.max_dt is not None:
        collection = filter_by_timestep(collection, args.max_dt)
    return collection


def cmd_fit(args, argv) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = FitConfig()
    if args.config:
        doc = load_json(args.config)
        try:
            cfg = FitConfig.from_json(doc)
        except IngestError as exc:
            raise IngestError(f"fit config {args.config}: {exc}") from None
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)

    collection = _load_fit_collection(args)
    fit_started = time.perf_counter()
    posterior = fit(collection, cfg)
    timings = {"fit_seconds": time.perf_counter() - fit_started}

    post_path = out / "posterior.json"
    dump_json(posterior.to_json(), post_path)
    header, rows = posterior.summary_rows()
    summary_path = out / "summary.csv"
    _write_csv(summary_path, header, rows.tolist())
    diag_path = out / "diagnostics.csv"
    rhats, esses = posterior.diagnostics["rhat"], posterior.diagnostics["ess"]
    _write_csv(diag_path, ["parameter", "rhat", "ess"],
               [[name, float(rhats[name]), float(esses[name])] for name in rhats])
    config = {"fit": posterior.config.to_json(), "max_dt": args.max_dt,
              "clr": args.clr, "column": args.column,
              "n_transitions": collection.n_points - len(collection.series)}
    _write_manifest(out, "fit", argv, posterior.config.seed, config,
                    [Path(args.data)] + ([Path(args.config)] if args.config else []),
                    [post_path, summary_path, diag_path], started, timings)
    problem = posterior.convergence_problem()
    if problem and not args.allow_nonconverged:
        print(f"error: chains not shown to converge ({problem}); "
              f"divergences={posterior.divergences}", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def cmd_derive(args, argv) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = load_json(args.posterior)
    try:
        posterior = Posterior.from_json(doc)
    except IngestError as exc:
        raise IngestError(f"posterior {args.posterior}: {exc}") from None
    grid = posterior.grid
    mean_cp = derived.CurvePair(grid, posterior.drift_mean(), posterior.diffusion_mean())
    outputs: list[Path] = []

    def emit(name: str, header, rows, meta: dict):
        csv_path = out / f"{name}.csv"
        _write_csv(csv_path, header, rows)
        meta_path = out / f"{name}.json"
        dump_json({"quantity": name, **meta}, meta_path)
        outputs.extend([csv_path, meta_path])

    def notice(name: str, reason: str):
        path = out / f"{name}_notice.json"
        dump_json({"quantity": name, "skipped": True, "reason": reason}, path)
        outputs.append(path)

    sd = derived.stationary_density(mean_cp)
    emit("stationary_density", ["grid", "density"], _float_rows([grid, sd.density]),
         {"source": "posterior mean drift/diffusion curves"})
    emit("potential", ["grid", "potential"], _float_rows([grid, derived.potential(mean_cp)]),
         {"anchored": "U(grid start) = 0"})
    emit("effective_potential", ["grid", "u_eff"],
         _float_rows([grid, derived.effective_potential(sd)]), {})

    ms = derived.multistability_posterior(posterior)
    # The count is written as an integer, the probability as a float's repr.
    emit("multistability", ["n_stable", "probability"], ms.probabilities.items(),
         {"discarded_fraction": ms.discarded_fraction, "n_draws": ms.n_draws})

    try:
        tr = derived.tipping_region(posterior)
        emit("tipping_region", ["mean", "q025", "q25", "q75", "q975"],
             [[tr.mean, tr.interval95[0], tr.interval50[0], tr.interval50[1],
               tr.interval95[1]]],
             {"n_used": tr.n_used})
    except (PreconditionError, DegenerateDataError) as exc:
        notice("tipping_region", str(exc))

    try:
        band = derived.exit_time_band(posterior)
        emit("exit_time_band", ["grid", "mean", "lower60", "lower40"],
             _float_rows([grid, band.mean, band.lower60, band.lower40]),
             {"retained": band.retained, "tipping": band.tipping,
              "boundary": "two-sided split at the tipping node; zero-slope outer rows"})
    except (PreconditionError, DegenerateDataError) as exc:
        notice("exit_time_band", str(exc))

    _write_manifest(out, "derive", argv, None, {}, [Path(args.posterior)],
                    outputs, started)
    return EXIT_OK


def cmd_experiment(args, argv) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.name not in EXPERIMENT_CONFIGS:
        raise IngestError(f"unknown experiment name {args.name!r}")
    doc = load_json(args.config)
    what = f"{args.name} config {args.config}"
    kw = read_document(doc, EXPERIMENT_CONFIGS[args.name], what, required=("model",))
    model = kw.pop("model")
    if args.seed is not None:
        kw["seed"] = args.seed
    # Both experiments default to seed 0; the manifest records the seed used.
    seed = kw.setdefault("seed", 0)
    # One replicate process per usable CPU; each replicate fit runs in one.
    workers = _resolve_threads()

    if args.name == "coverage":
        result = coverage_experiment(model, workers=workers, **kw)
        jobs = result.replicates
        table = out / "coverage.csv"
        _write_csv(table, ["budget", "agreement_short", "agreement_long"],
                   _float_rows([result.budgets, result.agreement_short,
                                result.agreement_long]))
        meta = {"replicates": result.replicates,
                "final_short": float(result.agreement_short[-1]),
                "final_long": float(result.agreement_long[-1])}
    else:
        if "fit" in kw:
            kw["cfg"] = kw.pop("fit")
        result = tpr_grid(model, workers=workers, **kw)
        jobs = len(result.series_counts) * len(result.timesteps) * result.replicates
        table = out / "tpr.csv"
        _write_csv(table, ["n_series"] + [repr(t) for t in result.timesteps],
                   [[n] + row for n, row in zip(result.series_counts, result.tpr.tolist())])
        meta = {"replicates": result.replicates, "t_c": result.t_c,
                "failures": result.failures.tolist()}
    meta_path = table.with_suffix(".json")
    dump_json(meta, meta_path)
    _write_manifest(out, "experiment", argv, seed, doc, [Path(args.config)],
                    [table, meta_path], started, {"workers": min(workers, jobs)})
    return EXIT_OK


def cmd_replay(args, argv) -> int:
    manifest = load_json(args.manifest)
    replay_argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(replay_argv, list) and all(isinstance(a, str) for a in replay_argv)):
        raise IngestError(f"{args.manifest}: manifest has no argv list of strings to replay")
    if replay_argv[:1] == ["replay"]:
        raise IngestError(f"{args.manifest}: manifest argv is itself a replay, not a run")
    if args.out is not None:
        if "--out" not in replay_argv:
            replay_argv += ["--out", args.out]
        elif replay_argv[-1] == "--out":
            raise IngestError(f"{args.manifest}: manifest argv ends in --out without a directory")
        else:
            replay_argv[replay_argv.index("--out") + 1] = args.out
    return main(replay_argv)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landscaper",
        description="Reconstruct drift/diffusion dynamics from short time series, "
                    "derive stability landscapes, and run the simulation studies.",
    )
    parser.add_argument("--version", action="version", version=f"landscaper {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a labeled short-series dataset")
    p.add_argument("--model", required=True, help="cusp or bimodal-unistable")
    for f in fields(CuspParams):
        p.add_argument(f"--{f.name}", type=float, help=f"cusp parameter (default {f.default})")
    p.add_argument("--n-series", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    step = p.add_mutually_exclusive_group(required=True)
    step.add_argument("--dt", type=float, help="sampling step (time units)")
    step.add_argument("--dt-frac", type=float,
                      help="sampling step as a fraction of the model's t_c")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="dataset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit the drift/diffusion posterior to a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="FitConfig JSON document")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-dt", type=float, default=None,
                   help="split series at gaps exceeding this step")
    p.add_argument("--clr", action="store_true",
                   help="apply a centred log-ratio transform (wide CSV input)")
    p.add_argument("--column", default=None, help="variable column in a wide CSV")
    p.add_argument("--allow-nonconverged", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("derive", help="derive stability quantities from a posterior")
    p.add_argument("--posterior", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("experiment", help="run a simulation study")
    p.add_argument("--name", required=True, help="coverage or tpr-grid")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("replay", help="re-execute a recorded run from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None, help="redirect outputs to another directory")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, list(argv))
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, DegenerateDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (SamplerError, SimulationDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SAMPLER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except LandscaperError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
