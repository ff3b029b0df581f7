"""Command-line entry point: simulate | fit | derive | experiment | replay.

Every command funnels randomness through --seed, writes its outputs with
stable formatting (sorted JSON keys, repr floats) and drops a manifest.json
recording argv, input digests, output digests, config hash, seed and tool
version, so any run can be replayed bit-identically. The `timings` field of
the manifest is the only part that varies between identical runs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
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
from .sim import (
    CuspParams,
    cusp_model,
    custom_bimodal_unistable,
    estimate_timescale,
    generate_short_series,
)
from .tsdata import (
    TimeSeries,
    TimeSeriesCollection,
    apply_pseudocount,
    clr_transform,
    dump_json,
    filter_by_timestep,
    load_json,
    read_observations_csv,
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
                    inputs: list[Path], outputs: list[Path], started: float) -> None:
    manifest = {
        "command": command,
        "argv": argv,
        "tool_version": __version__,
        "seed": seed,
        "config_hash": _config_hash(config_doc),
        "details": config_doc,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {p.name: _sha256(p) for p in outputs},
        "timings": {"seconds": time.perf_counter() - started},
    }
    dump_json(manifest, out_dir / "manifest.json")


def _write_csv(path: Path, header, columns) -> None:
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def _resolve_threads(value) -> int:
    if value is not None:
        return max(1, int(value))
    env = os.environ.get("LANDSCAPER_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise IngestError(f"LANDSCAPER_THREADS must be an integer, got {env!r}") from None
    # Serial unless asked: the chains' small numpy steps serialise on the GIL,
    # and a thread pool over chains measured slower than one thread.
    return 1


# The keys each experiment config and its model spec take; any other key is
# an input error, so that a misspelt key cannot fall back to a default.
EXPERIMENT_KEYS = {
    "coverage": ("model", "seed", "total_time", "replicates", "points_per_short", "n_bins"),
    "tpr-grid": ("model", "seed", "series_counts", "timesteps", "replicates", "fit"),
}
MODEL_KEYS = ("name", "alpha", "beta", "lam", "r", "epsilon")


def _check_keys(doc, allowed, what: str) -> None:
    """IngestError unless `doc` is a JSON object whose keys are all `allowed`."""
    if not isinstance(doc, dict):
        raise IngestError(f"{what} must be a JSON object, not {type(doc).__name__}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise IngestError(f"{what}: unknown keys {unknown}; it takes {', '.join(allowed)}")


def _build_model(spec: dict):
    # Every model takes the cusp parameters (`simulate` passes all five), and
    # bimodal-unistable ignores them.
    _check_keys(spec, MODEL_KEYS, "model spec")
    name = spec.get("name")
    if name == "cusp":
        return cusp_model(CuspParams(
            alpha=float(spec.get("alpha", 0.0)),
            beta=float(spec.get("beta", 1.0)),
            lam=float(spec.get("lam", 0.0)),
            r=float(spec.get("r", 1.0)),
            epsilon=float(spec.get("epsilon", 1.0)),
        ))
    if name == "bimodal-unistable":
        return custom_bimodal_unistable()
    raise IngestError(f"unknown model name {name!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args, argv) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = {
        "name": args.model, "alpha": args.alpha, "beta": args.beta,
        "lam": args.lam, "r": args.r, "epsilon": args.epsilon,
    }
    model = _build_model(spec)
    root = np.random.SeedSequence(args.seed)
    tc_seed, data_seed = root.spawn(2)
    if args.dt_frac is not None:
        t_c = estimate_timescale(model, seed=tc_seed).t_c
        stride = max(1, round(args.dt_frac * t_c / args.internal_dt))
        dt = stride * args.internal_dt
    else:
        if args.dt is None:
            raise PreconditionError("one of --dt or --dt-frac is required")
        dt = args.dt
    ds = generate_short_series(model, args.n_series, args.points, dt, data_seed,
                               internal_dt=args.internal_dt)
    csv_path = out / f"{args.name}.csv"
    truth_path = out / f"{args.name}_truth.json"
    write_observations_csv(ds.collection, csv_path)
    truth = dict(ds.ground_truth)
    truth["seed"] = args.seed
    dump_json(truth, truth_path)
    config = {"spec": spec, "n_series": args.n_series, "points": args.points,
              "dt": dt, "internal_dt": args.internal_dt}
    _write_manifest(out, "simulate", argv, args.seed, config, [],
                    [csv_path, truth_path], started)
    return EXIT_OK


def _load_fit_collection(args) -> TimeSeriesCollection:
    if args.clr and not args.column:
        raise PreconditionError("--clr requires --column to select the variable to analyze")
    if args.column:
        collection = _read_wide_csv(Path(args.data), args.column, args.clr)
    else:
        collection = read_observations_csv(args.data)
    if args.max_dt is not None:
        collection = filter_by_timestep(collection, args.max_dt)
    return collection


def _read_wide_csv(path: Path, column: str, clr: bool) -> TimeSeriesCollection:
    """Wide format: unit_id, time, then one column per variable."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None
        if len(header) < 3 or header[0].strip() != "unit_id" or header[1].strip() != "time":
            raise IngestError(f"{path}: line 1: expected header unit_id,time,<variables...>")
        names = [h.strip() for h in header[2:]]
        if column not in names:
            raise IngestError(f"{path}: column {column!r} not present")
        units, times, rows = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise IngestError(f"{path}: line {lineno}: expected {len(header)} columns")
            try:
                times.append(float(row[1]))
                rows.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise IngestError(f"{path}: line {lineno}: {exc}") from None
            units.append(row[0].strip())
    matrix = np.asarray(rows, dtype=float)
    if clr:
        matrix = clr_transform(apply_pseudocount(matrix))
    values = matrix[:, names.index(column)]
    groups: dict[str, list[tuple[float, float]]] = {}
    order = []
    for uid, t, v in zip(units, times, values):
        if uid not in groups:
            groups[uid] = []
            order.append(uid)
        groups[uid].append((t, float(v)))
    series = []
    for uid in order:
        pairs = sorted(groups[uid])
        ts = [t for t, _ in pairs]
        if len(set(ts)) != len(ts):
            raise IngestError(f"{path}: duplicate (unit_id, time) pair for unit {uid!r}")
        if len(pairs) < 2:
            continue
        series.append(TimeSeries(uid, ts, [v for _, v in pairs]))
    if not series:
        raise DegenerateDataError(f"{path}: no unit has two or more usable points")
    return TimeSeriesCollection(tuple(series))


def cmd_fit(args, argv) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_doc = load_json(args.config) if args.config else {}
    cfg = FitConfig.from_json(cfg_doc)
    if args.seed is not None:
        cfg_doc["seed"] = args.seed
    cfg_doc["threads"] = _resolve_threads(args.threads)
    cfg = FitConfig.from_json({**cfg.to_json(), **cfg_doc})

    collection = _load_fit_collection(args)
    posterior = fit(collection, cfg)

    post_path = out / "posterior.json"
    dump_json(posterior.to_json(), post_path)
    header, rows = posterior.summary_rows()
    summary_path = out / "summary.csv"
    _write_csv(summary_path, header, rows.T)
    diag_path = out / "diagnostics.csv"
    with open(diag_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "rhat", "ess"])
        for name in posterior.diagnostics["rhat"]:
            writer.writerow([
                name,
                repr(float(posterior.diagnostics["rhat"][name])),
                repr(float(posterior.diagnostics["ess"][name])),
            ])
    config = {"fit": posterior.config.to_json(), "max_dt": args.max_dt,
              "clr": args.clr, "column": args.column,
              "n_transitions": collection.n_points - len(collection.series)}
    _write_manifest(out, "fit", argv, posterior.config.seed, config,
                    [Path(args.data)] + ([Path(args.config)] if args.config else []),
                    [post_path, summary_path, diag_path], started)
    if not posterior.converged and not args.allow_nonconverged:
        print(f"error: chains did not converge (max Rhat > 1.05); "
              f"divergences={posterior.divergences}", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def cmd_derive(args, argv) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    posterior = Posterior.from_json(load_json(args.posterior))
    grid = posterior.grid
    mean_cp = derived.CurvePair(grid, posterior.drift_mean(), posterior.diffusion_mean())
    outputs: list[Path] = []

    def emit(name: str, header, columns, meta: dict):
        csv_path = out / f"{name}.csv"
        _write_csv(csv_path, header, columns)
        meta_path = out / f"{name}.json"
        dump_json({"quantity": name, **meta}, meta_path)
        outputs.extend([csv_path, meta_path])

    def notice(name: str, reason: str):
        path = out / f"{name}_notice.json"
        dump_json({"quantity": name, "skipped": True, "reason": reason}, path)
        outputs.append(path)

    sd = derived.stationary_density(mean_cp)
    emit("stationary_density", ["grid", "density"], [grid, sd.density],
         {"source": "posterior mean drift/diffusion curves"})
    emit("potential", ["grid", "potential"], [grid, derived.potential(mean_cp)],
         {"anchored": "U(grid start) = 0"})
    emit("effective_potential", ["grid", "u_eff"],
         [grid, derived.effective_potential(sd)], {})

    ms = derived.multistability_posterior(posterior)
    emit("multistability", ["n_stable", "probability"],
         [list(ms.probabilities), list(ms.probabilities.values())],
         {"discarded_fraction": ms.discarded_fraction, "n_draws": ms.n_draws})

    try:
        tr = derived.tipping_region(posterior)
        emit("tipping_region", ["mean", "q025", "q25", "q75", "q975"],
             [[tr.mean], [tr.interval95[0]], [tr.interval50[0]],
              [tr.interval50[1]], [tr.interval95[1]]],
             {"n_used": tr.n_used})
    except (PreconditionError, DegenerateDataError) as exc:
        notice("tipping_region", str(exc))

    try:
        band = derived.exit_time_band(posterior, mode=args.band_mode)
        emit("exit_time_band", ["grid", "mean", "lower60", "lower40"],
             [grid, band.mean, band.lower60, band.lower40],
             {"retained": band.retained, "tipping": band.tipping, "mode": band.mode,
              "boundary": "two-sided split at the tipping node; zero-slope outer rows"})
    except (PreconditionError, DegenerateDataError) as exc:
        notice("exit_time_band", str(exc))

    config = {"band_mode": args.band_mode}
    _write_manifest(out, "derive", argv, None, config, [Path(args.posterior)],
                    outputs, started)
    return EXIT_OK


def cmd_experiment(args, argv) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.name not in EXPERIMENT_KEYS:
        raise IngestError(f"unknown experiment name {args.name!r}")
    doc = load_json(args.config)
    _check_keys(doc, EXPERIMENT_KEYS[args.name], f"{args.name} config {args.config}")
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    model = _build_model(doc.get("model", {}))
    outputs: list[Path] = []

    if args.name == "coverage":
        result = coverage_experiment(
            model,
            total_time=float(doc.get("total_time", 250.0)),
            replicates=int(doc.get("replicates", 50)),
            seed=seed,
            points_per_short=int(doc.get("points_per_short", 5)),
            n_bins=int(doc.get("n_bins", 50)),
        )
        path = out / "coverage.csv"
        _write_csv(path, ["budget", "agreement_short", "agreement_long"],
                   [result.budgets, result.agreement_short, result.agreement_long])
        outputs.append(path)
        meta = {"replicates": result.replicates,
                "final_short": float(result.agreement_short[-1]),
                "final_long": float(result.agreement_long[-1])}
        meta_path = out / "coverage.json"
        dump_json(meta, meta_path)
        outputs.append(meta_path)
    else:
        fit_cfg = FitConfig.from_json(doc.get("fit", {}))
        result = tpr_grid(
            model,
            series_counts=doc.get("series_counts", [50]),
            timesteps=doc.get("timesteps", [0.1]),
            replicates=int(doc.get("replicates", 20)),
            cfg=fit_cfg,
            seed=seed,
        )
        path = out / "tpr.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n_series"] + [repr(t) for t in result.timesteps])
            for i, n in enumerate(result.series_counts):
                writer.writerow([n] + [repr(float(v)) for v in result.tpr[i]])
        outputs.append(path)
        meta_path = out / "tpr.json"
        dump_json({"replicates": result.replicates, "t_c": result.t_c,
                   "failures": result.failures.tolist()}, meta_path)
        outputs.append(meta_path)

    _write_manifest(out, "experiment", argv, seed, doc, [Path(args.config)],
                    outputs, started)
    return EXIT_OK


def cmd_replay(args, argv) -> int:
    manifest = load_json(args.manifest)
    replay_argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(replay_argv, list) and all(isinstance(a, str) for a in replay_argv)):
        raise IngestError(f"{args.manifest}: manifest has no argv list of strings to replay")
    if args.out is not None:
        try:
            idx = replay_argv.index("--out")
            replay_argv[idx + 1] = args.out
        except ValueError:
            replay_argv += ["--out", args.out]
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
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=0.0)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--n-series", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--dt", type=float, default=None, help="sampling step (time units)")
    p.add_argument("--dt-frac", type=float, default=None,
                   help="sampling step as a fraction of the model's t_c")
    p.add_argument("--internal-dt", type=float, default=0.01)
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
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("derive", help="derive stability quantities from a posterior")
    p.add_argument("--posterior", required=True)
    p.add_argument("--band-mode", choices=["pointwise", "curve"], default="pointwise")
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
