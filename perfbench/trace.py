"""Run one landscaper CLI command in-process, with a timing span around every
call into each module, and write the spans out when the command ends.

    python3 perfbench/trace.py --spans OUT.json --run-id ID -- <cli arguments>

The wrappers are installed from outside the program: each one replaces the
name a caller looks up (for example `landscaper.hmc.sample` or
`landscaper.experiments.fit`), so the program itself is unchanged. The
target callable handed to `hmc.sample` is wrapped as well, which counts and
times every log-posterior + gradient evaluation. Spans are kept in memory as
[id, name, start, end, parent, attrs] and written once, after the command.
The process exits with the command's own exit code.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import math
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Tracer:
    """In-memory span recorder; a span's parent is the innermost open span of
    the calling thread unless the wrapper fixes it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, func, *, parent=None, attrs=None, prepare=None):
        """Return `func` timed as span `name`.

        `attrs(result, args, kwargs)` adds a dict of attributes to the span;
        `prepare(span_id, args, kwargs)` may rewrite the arguments first.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            par = parent if parent is not None else (stack[-1] if stack else None)
            if prepare is not None:
                args, kwargs = prepare(sid, args, kwargs)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.spans.append([sid, name, start, time.perf_counter(), par,
                                     {"raised": True}])
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            tracer.spans.append([sid, name, start, end, par,
                                 attrs(result, args, kwargs) if attrs else None])
            return result

        return traced


def _grad_attrs(result, args, kwargs):
    return None if math.isfinite(result[0]) else {"nonfinite": True}


def _sample_attrs(chains, args, kwargs):
    return {
        "n_chains": int(chains.draws.shape[0]),
        "n_iterations": int(kwargs.get("n_iterations", 0)),
        "warmup": int(chains.warmup),
        "divergences": int(chains.divergences),
        "step_size": float(chains.step_sizes.mean()),
        "accept_rate": float(chains.accept_rates.mean()),
        "threads": kwargs.get("threads"),
    }


def _value_attrs(result, args, kwargs):
    return {"value": float(result)}


def _multistability_attrs(result, args, kwargs):
    return {"p2": float(result.probabilities.get(2, 0.0)), "mode": int(result.mode)}


def _band_attrs(result, args, kwargs):
    return {"retained": int(result.retained), "n_draws": int(len(args[0].drift_draws))}


def _fit_attrs(result, args, kwargs):
    return {"n_draws": int(result.n_draws)}


# (module, attribute, span name, attrs hook): every name a caller on a
# workload's path looks up. `gp` and `numerics` are on no workload's path.
PATCHES = [
    ("landscaper.cli", "cmd_simulate", "cli.simulate", None),
    ("landscaper.cli", "cmd_fit", "cli.fit", None),
    ("landscaper.cli", "cmd_derive", "cli.derive", None),
    ("landscaper.cli", "cmd_experiment", "cli.experiment", None),
    ("landscaper.cli", "read_observations_csv", "tsdata.read_csv", None),
    ("landscaper.cli", "write_observations_csv", "tsdata.write_csv", None),
    ("landscaper.cli", "dump_json", "tsdata.dump_json", None),
    ("landscaper.cli", "load_json", "tsdata.load_json", None),
    ("landscaper.inference", "to_transitions", "tsdata.to_transitions", None),
    ("landscaper.cli", "generate_short_series", "sim.generate_short_series", None),
    ("landscaper.experiments", "generate_short_series", "sim.generate_short_series", None),
    ("landscaper.cli", "estimate_timescale", "sim.estimate_timescale", None),
    ("landscaper.experiments", "estimate_timescale", "sim.estimate_timescale", None),
    ("landscaper.cli", "fit", "inference.fit", _fit_attrs),
    ("landscaper.experiments", "fit", "inference.fit", _fit_attrs),
    ("landscaper.inference", "rhat", "diagnostics.rhat", _value_attrs),
    ("landscaper.inference", "ess", "diagnostics.ess", _value_attrs),
    ("landscaper.derived", "multistability_posterior", "derived.multistability",
     _multistability_attrs),
    ("landscaper.experiments", "multistability_posterior", "derived.multistability",
     _multistability_attrs),
    ("landscaper.derived", "tipping_region", "derived.tipping", None),
    ("landscaper.derived", "exit_time_band", "derived.exit_band", _band_attrs),
    ("landscaper.derived", "exit_time", "derived.exit_time", None),
    ("landscaper.cli", "tpr_grid", "experiments.tpr_grid", None),
]


def install(tracer: Tracer) -> None:
    """Replace every name in PATCHES, plus the hmc sampler, the per-draw curve
    evaluation and posterior (de)serialisation, with traced versions."""
    for module, attr, name, attrs in PATCHES:
        mod = importlib.import_module(module)
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), attrs=attrs))

    hmc = importlib.import_module("landscaper.hmc")

    def wrap_target(sid, args, kwargs):
        target = tracer.wrap("inference.grad", args[0], parent=sid, attrs=_grad_attrs)
        return (target,) + tuple(args[1:]), kwargs

    hmc.sample = tracer.wrap("hmc.sample", hmc.sample, attrs=_sample_attrs,
                             prepare=wrap_target)

    inference = importlib.import_module("landscaper.inference")
    ctx = inference.TargetContext
    ctx.curves_on = tracer.wrap("inference.curves", ctx.curves_on)
    post = inference.Posterior
    post.to_json = tracer.wrap("inference.to_json", post.to_json)
    post.from_json = classmethod(
        tracer.wrap("inference.from_json", post.__dict__["from_json"].__func__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="file the spans are written to")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="landscaper CLI arguments, after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("landscaper.cli")
    tracer = Tracer(args.run_id)
    install(tracer)
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"run_id": tracer.run_id, "argv": argv, "exit_code": code,
                   "wall_s": wall, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
