"""Command-line entry point: simulate | fit | derive | experiment | replay.

`main` is the one run frame. It makes `--out`, starts the timer and calls
the command, which returns its exit code, seed, details, input files, output
files and extra timings. Then it writes manifest.json (argv, input and output
digests, config hash, seed, tool version), also for a `fit` that exits 4, so
any run replays bit-identically; `replay` rewrites argv and calls `main`.
Randomness comes from --seed; outputs have stable formatting (sorted JSON
keys, repr floats). Only the manifest's `timings` varies between identical
runs: the total seconds; for `fit` also `fit_seconds`, the wall time of the
`inference.fit` call; for `experiment` also `workers`, the number of
processes its replicates ran in (which follows the CPU affinity mask).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
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
from .numerics import seed_sequence, usable_cpus
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
# The exit code of each error a command reports, the first match winning.
EXIT_CODES = ((IngestError, EXIT_PARSE),
              ((PreconditionError, DegenerateDataError, MemoryError), EXIT_PRECONDITION),
              ((SamplerError, SimulationDiverged), EXIT_SAMPLER), (OSError, EXIT_IO),
              (LandscaperError, EXIT_INTERNAL))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_hash(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _load_doc(path, parse, what: str):
    """`parse` of the JSON document in the file `path`, its IngestError prefixed
    with `what` and the path; `load_json`'s own error already names the file."""
    doc = load_json(path)
    try:
        return parse(doc)
    except IngestError as exc:
        raise IngestError(f"{what} {path}: {exc}") from None


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
    # Kept for perfbench/run.py, which records it; `value` is unused.
    return usable_cpus()


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

def cmd_simulate(args, out: Path) -> tuple:
    spec = {"name": args.model, **{k: getattr(args, k) for k in CUSP_PARAMS
                                   if getattr(args, k) is not None}}
    model = _make_model(**spec)
    tc_seed, data_seed = seed_sequence(args.seed).spawn(2)
    if args.dt_frac is not None:
        if not 0 < args.dt_frac < math.inf:
            raise PreconditionError(f"--dt-frac must be finite and positive, got {args.dt_frac}")
        dt = step_from_fraction(args.dt_frac, estimate_timescale(model, seed=tc_seed))
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
    return EXIT_OK, args.seed, config, [], [csv_path, truth_path], {}


def _load_fit_collection(args) -> TimeSeriesCollection:
    if args.clr and not args.column:
        raise PreconditionError("--clr requires --column to select the variable to analyze")
    collection = read_observations_csv(args.data, args.column or "value", args.clr)
    if args.max_dt is not None:
        collection = filter_by_timestep(collection, args.max_dt)
    return collection


def cmd_fit(args, out: Path) -> tuple:
    cfg = FitConfig()
    if args.config:
        cfg = _load_doc(args.config, FitConfig.from_json, "fit config")
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
    code = EXIT_OK
    problem = posterior.convergence_problem()
    if problem and not args.allow_nonconverged:
        print(f"error: chains not shown to converge ({problem}); "
              f"divergences={posterior.divergences}", file=sys.stderr)
        code = EXIT_CONVERGENCE
    return (code, posterior.config.seed, config,
            [Path(args.data)] + ([Path(args.config)] if args.config else []),
            [post_path, summary_path, diag_path], timings)


def cmd_derive(args, out: Path) -> tuple:
    posterior = _load_doc(args.posterior, Posterior.from_json, "posterior")
    grid = posterior.grid
    mean_cp = derived.CurvePair(grid, posterior.drift_draws.mean(axis=0),
                                posterior.diffusion_draws.mean(axis=0))
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

    emit("potential", ["grid", "potential"], _float_rows([grid, derived.potential(mean_cp)]),
         {"anchored": "U(grid start) = 0"})

    try:
        sd = derived.stationary_density(mean_cp)
    except (PreconditionError, DegenerateDataError) as exc:
        notice("stationary_density", str(exc))
        notice("effective_potential", str(exc))
    else:
        emit("stationary_density", ["grid", "density"], _float_rows([grid, sd.density]),
             {"source": "posterior mean drift/diffusion curves"})
        emit("effective_potential", ["grid", "u_eff"],
             _float_rows([grid, derived.effective_potential(sd)]), {})

    try:
        ms = derived.multistability_posterior(posterior)
        # The count is written as an integer, the probability as a float's repr.
        emit("multistability", ["n_stable", "probability"], ms.probabilities.items(),
             {"discarded_fraction": ms.discarded_fraction, "n_draws": ms.n_draws})
    except (PreconditionError, DegenerateDataError) as exc:
        notice("multistability", str(exc))

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

    return EXIT_OK, None, {}, [Path(args.posterior)], outputs, {}


def cmd_experiment(args, out: Path) -> tuple:
    if args.name not in EXPERIMENT_CONFIGS:
        raise IngestError(f"unknown experiment name {args.name!r}")
    doc, kw = _load_doc(args.config, lambda doc: (doc, read_document(
        doc, EXPERIMENT_CONFIGS[args.name], "experiment config", required=("model",))),
        f"{args.name} config")
    model = kw.pop("model")
    if args.seed is not None:
        kw["seed"] = args.seed
    # Both experiments default to seed 0; the manifest records the seed used.
    seed = kw.setdefault("seed", 0)

    if args.name == "coverage":
        result = coverage_experiment(model, **kw)
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
        result = tpr_grid(model, **kw)
        jobs = len(result.series_counts) * len(result.timesteps) * result.replicates
        table = out / "tpr.csv"
        _write_csv(table, ["n_series"] + [repr(t) for t in result.timesteps],
                   [[n] + row for n, row in zip(result.series_counts, result.tpr.tolist())])
        meta = {"replicates": result.replicates, "t_c": result.t_c,
                "failures": result.failures.tolist(),
                "nonconverged": result.nonconverged.tolist()}
    meta_path = table.with_suffix(".json")
    dump_json(meta, meta_path)
    return (EXIT_OK, seed, doc, [Path(args.config)], [table, meta_path],
            {"workers": min(usable_cpus(), jobs)})


def cmd_replay(args) -> int:
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
                   help="apply a centred log-ratio transform to every variable first")
    p.add_argument("--column", default=None, help="variable column to fit (default: value)")
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            return args.func(args)
        started = time.perf_counter()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        code, seed, details, inputs, outputs, timings = args.func(args, out)
        dump_json({"command": args.command, "argv": argv, "tool_version": __version__,
                   "seed": seed, "config_hash": _config_hash(details), "details": details,
                   "inputs": {str(p): _sha256(p) for p in inputs},
                   "outputs": {p.name: _sha256(p) for p in outputs},
                   "timings": {"seconds": time.perf_counter() - started, **timings}},
                  out / "manifest.json")
        return code
    except (LandscaperError, OSError, MemoryError) as exc:
        # A MemoryError, from a size too large to allocate, may have no message.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
