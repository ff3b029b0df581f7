"""landscaper benchmark: simulate -> fit -> derive, and one TPR-grid cell,
run through the CLI the way a user runs it.

    python3 perfbench/run.py --workload canonical --seed 0 --seconds 48 --trace 0
    python3 perfbench/run.py --smoke          # all workloads at toy size, a few seconds

Each CLI command runs as its own process at its defaults (no --threads, no
LANDSCAPER_THREADS, no BLAS variables). A run sets up its inputs several
times (setup_s is the median), then repeats the workload's measured commands
until --seconds is used up, at least once, and reports medians. With
--trace 1 it alternates untraced and traced repetitions: a traced repetition
runs the same commands in-process under perfbench/trace.py, which times the
calls into every module. It then runs the gradient sweep (perfbench/sweep.py)
and reports the per-layer metrics and the tracing overhead instead of the
end-to-end ones.

Every output is checked: exit codes, the posterior loading through
`Posterior.from_json`, a modal stable-state count of 2 on the bistable cusp,
replicate failures of the TPR cell, and identical output digests in the
manifests of every repetition, and of every run on the same sources, seed and
workload. A failed check counts in `failed`.

End-to-end metrics, each the median over a run's untraced repetitions:
fit_s is the wall time of the `fit` process, or on the TPR cell the
`experiment` wall time per replicate fit; derive_s that of `derive`;
pipeline_s the wall time of all measured commands of one repetition;
peak_rss_mb the peak RSS of the `fit` or `experiment` process. Sampler and
result quality (min_ess, max_rhat, drift_rmse, p_true_states, tpr, ...) are
computed from the first repetition's outputs.

Stdout ends with one JSON line: {"correct", "attempted", "failed", "metrics"}
holding the metrics that BENCHMARK.json declares. The full record, with every
metric of the workload, the environment and the predictions, goes to
.perfbench/results/; the spans of traced runs go to .perfbench/spans/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from unittest import mock

import sweep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

# Every run must end within 180 s; children still running at this point are
# killed and counted as failed.
DEADLINE_S = 170.0
SETUP_REPEATS = 5

CUSP = {"alpha": 0.0, "beta": 1.0, "lam": 0.0, "r": 1.0, "epsilon": 0.5}
CUSP_ARGS = ["--model", "cusp"] + [a for k, v in CUSP.items() for a in (f"--{k}", repr(v))]
TRUE_STATES = 2

# The pipeline workloads always fit the README's dataset (simulate seed 42, at
# 100 or 500 series); --seed drives the sampler (fit seed 7 + seed). Whether
# the posterior favours 2 stable states is a property of the dataset: on the
# seed-47 dataset of 100 series it is a coin flip (P(2) = 0.50-0.58 at 200-400
# iterations), so a data seed taken from --seed would make the modal-count
# check fail on some seeds for a reason that is no defect. The TPR cell takes
# its experiment seed (data and fits of every replicate) from 77 + seed.
# --seed 0 gives the README example (fit seed 7) and the demo-04 cell (77).
DATA_SEED, FIT_SEED, EXPERIMENT_SEED = 42, 7, 77


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "pipeline": simulate, then fit + derive; "tpr": one tpr-grid cell
    n_series: int
    points: int
    fit: dict            # FitConfig fields (the seed comes from --seed)
    dt: float = 0.3      # pipeline sampling step
    dt_frac: float = 0.1  # tpr sampling step as a fraction of t_c
    replicates: int = 0


# The run length holds neither the default 2000 iterations nor the 300 of the
# original workload definitions, so n_iterations is lowered once, to the most
# that one repetition fits in a run. BENCHMARK.json declares canonical and
# tpr_cell only: on a shared 2-vCPU host the dense fit, whose two chain threads
# run numpy in parallel, read 17.7-36.8 s over ten consecutive runs (spread
# 0.47 of the median, against 0.16-0.20 for the others), beyond any bound the
# benchmark may set. It stays runnable here and in the smoke mode.
WORKLOADS = {
    "canonical": Workload(
        "canonical", "pipeline", n_series=100, points=5, fit={"n_iterations": 200}),
    "dense": Workload(
        "dense", "pipeline", n_series=500, points=5, fit={"n_iterations": 100}),
    "tpr_cell": Workload(
        "tpr_cell", "tpr", n_series=50, points=2, fit={"n_iterations": 100}, replicates=4),
}

TOY_FIT = {"n_iterations": 100, "n_chains": 2, "n_anchors": 12}
SMOKE = {
    "canonical": replace(WORKLOADS["canonical"], fit=TOY_FIT),
    "dense": replace(WORKLOADS["dense"], n_series=200, fit=TOY_FIT),
    "tpr_cell": replace(WORKLOADS["tpr_cell"], fit=TOY_FIT, replicates=1),
}

# name: (unit, better). End-to-end metrics first, then per-layer ones.
METRICS = {
    "setup_s": ("s", "lower"),
    "fit_s": ("s", "lower"),
    "derive_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "fits_per_min": ("1/min", "higher"),
    "min_ess": ("draws", "higher"),
    "min_ess_per_s": ("1/s", "higher"),
    "max_rhat": ("ratio", "lower"),
    "divergences": ("count", "lower"),
    "drift_rmse": ("state/time", "lower"),
    "p_true_states": ("prob", "higher"),
    "tpr": ("fraction", "higher"),
    "posterior_mb": ("MB", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_share": ("fraction", "lower"),
    "tsdata.read_csv_s": ("s", "lower"),
    "tsdata.to_transitions_s": ("s", "lower"),
    "tsdata.dump_json_s": ("s", "lower"),
    "tsdata.load_json_s": ("s", "lower"),
    "sim.generate_short_series_s": ("s", "lower"),
    "sim.estimate_timescale_s": ("s", "lower"),
    "inference.grad_calls": ("count", "lower"),
    "inference.grad_s": ("s", "lower"),
    "inference.grad_us": ("us", "lower"),
    "inference.grad_nonfinite_share": ("fraction", "lower"),
    "inference.curves_s": ("s", "lower"),
    "inference.fit_self_s": ("s", "lower"),
    "inference.to_json_s": ("s", "lower"),
    "inference.from_json_s": ("s", "lower"),
    "hmc.sample_s": ("s", "lower"),
    "hmc.self_s": ("s", "lower"),
    "hmc.grads_per_iter": ("count", "lower"),
    "hmc.accept_rate": ("fraction", "higher"),
    "hmc.step_size": ("state", "higher"),
    "hmc.min_ess_per_grad": ("1/count", "higher"),
    "hmc.divergences": ("count", "lower"),
    "hmc.threads": ("count", "lower"),
    "diagnostics.calls": ("count", "lower"),
    "diagnostics.s": ("s", "lower"),
    "derived.multistability_s": ("s", "lower"),
    "derived.tipping_s": ("s", "lower"),
    "derived.exit_band_s": ("s", "lower"),
    "derived.exit_time_calls": ("count", "lower"),
    "derived.exit_retained_share": ("fraction", "higher"),
    "experiments.fit_calls": ("count", "higher"),
    "experiments.fit_s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "experiments.p_true_states": ("prob", "higher"),
    "cli.fit_self_s": ("s", "lower"),
    "cli.derive_self_s": ("s", "lower"),
    "cli.experiment_self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
for _n in sweep.SIZES_N:
    for _m in sweep.SIZES_M:
        METRICS[f"inference.log_posterior_ms.n{_n}.m{_m}"] = ("ms", "lower")


class BenchError(Exception):
    """The benchmark cannot run here (for example, no program sources)."""


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


class Runner:
    """Starts each command as a child process, waits for it with os.wait4
    (wall time and peak RSS), and kills whatever outlives the deadline."""

    def __init__(self, work: Path, env: dict, deadline: float):
        self.work = work
        self.env = env
        self.deadline = deadline
        self.log = work / "commands.log"

    def cli(self, argv, *, spans: Path | None = None, run_id: str = "") -> Proc:
        if spans is None:
            cmd = [sys.executable, "-m", "landscaper.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "trace.py"), "--spans", str(spans),
                   "--run-id", run_id, "--", *argv]
        return self.run(cmd)

    def run(self, cmd) -> Proc:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Proc(-1, 0.0, 0.0, 0.0)
        with open(self.log, "ab") as log:
            log.write(("$ " + " ".join(map(str, cmd)) + "\n").encode())
            log.flush()
            start = time.perf_counter()
            child = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                     stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, child.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                os.wait4(child.pid, 0)
                raise
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
        child.returncode = code = os.waitstatus_to_exitcode(status)
        return Proc(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

class Checks:
    """Counts attempted operations and failed ones, with a reason for each."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        return self.record_many(1, 0 if ok else 1, what) == 0

    def record_many(self, n: int, n_failed: int, what: str) -> int:
        self.attempted += n
        if n_failed:
            self.failed += n_failed
            self.failures.append(what)
        return n_failed

    def proc(self, p: Proc, what: str) -> bool:
        return self.record(p.code == 0, f"{what}: exit code {p.code}")


def output_digests(out_dir: Path) -> dict:
    """The manifest's output digests; `timings` is the only part allowed to vary."""
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def modal_count(multistability_csv: Path) -> int:
    rows = read_rows(multistability_csv)
    best = max(rows, key=lambda r: float(r["probability"]))
    return int(float(best["n_stable"]))


def cusp_drift(x: float, p: dict) -> float:
    u = x - p["lam"]
    return p["r"] * (p["alpha"] + p["beta"] * u - u ** 3)


# ---------------------------------------------------------------------------
# Workload steps
# ---------------------------------------------------------------------------

@dataclass
class Rep:
    index: int
    traced: bool
    procs: dict = field(default_factory=dict)   # step -> Proc
    digests: dict = field(default_factory=dict)  # step -> manifest outputs
    spans: list = field(default_factory=list)    # span files of a traced rep
    quality: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs.values())


class Bench:
    def __init__(self, wl: Workload, seed: int, run_id: str, work: Path, runner: Runner,
                 checks: Checks, landscaper):
        self.wl = wl
        self.seed = seed
        self.run_id = run_id
        self.work = work
        self.runner = runner
        self.checks = checks
        self.landscaper = landscaper
        self.setup_dir: Path | None = None
        self.setup_spans: list[Path] = []

    # -- setup -------------------------------------------------------------

    def setup(self, index: int, traced: bool) -> float | None:
        """One set-up: simulate the data and write the config (pipeline), or
        write the config and check the CLI starts (tpr). Returns its time."""
        d = self.work / f"setup{index}"
        d.mkdir(parents=True)
        start = time.perf_counter()
        if self.wl.kind == "pipeline":
            argv = ["simulate", *CUSP_ARGS, "--n-series", str(self.wl.n_series),
                    "--points", str(self.wl.points), "--dt", repr(self.wl.dt),
                    "--seed", str(DATA_SEED), "--out", f"{d.name}/data"]
            spans = self.work / f"spans-setup{index}.json" if traced else None
            p = self.runner.cli(argv, spans=spans, run_id=f"{self.run_id}-setup{index}")
            ok = self.checks.proc(p, f"setup {index}: simulate")
            config = {**self.wl.fit, "seed": FIT_SEED + self.seed}
            if traced and ok:
                self.setup_spans.append(spans)
        else:
            p = self.runner.cli(["--version"])
            ok = self.checks.proc(p, f"setup {index}: landscaper --version")
            config = {"model": {"name": "cusp", **CUSP}, "series_counts": [self.wl.n_series],
                      "timesteps": [self.wl.dt_frac], "replicates": self.wl.replicates,
                      "fit": self.wl.fit}
        with open(d / "config.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh, sort_keys=True)
        elapsed = time.perf_counter() - start
        if not ok:
            return None
        if self.setup_dir is None:
            self.setup_dir = d
        elif self.wl.kind == "pipeline":
            same = output_digests(d / "data") == output_digests(self.setup_dir / "data")
            self.checks.record(same, f"setup {index}: simulate outputs differ from setup 0")
        return elapsed

    # -- measured repetitions ------------------------------------------------

    def rep(self, index: int, traced: bool) -> Rep:
        rep = Rep(index, traced)
        d = f"rep{index}"
        (self.work / d).mkdir()
        cfg = f"{self.setup_dir.name}/config.json"

        def step(name, argv):
            spans = self.work / f"spans-{d}-{name}.json" if traced else None
            p = self.runner.cli(argv, spans=spans, run_id=f"{self.run_id}-{d}-{name}")
            rep.procs[name] = p
            ok = self.checks.proc(p, f"{d}: {name}")
            if ok and traced:
                rep.spans.append(spans)
            return ok

        if self.wl.kind == "pipeline":
            data = f"{self.setup_dir.name}/data/dataset.csv"
            if step("fit", ["fit", "--data", data, "--config", cfg,
                            "--allow-nonconverged", "--out", f"{d}/fit"]):
                rep.digests["fit"] = output_digests(self.work / d / "fit")
                if step("derive", ["derive", "--posterior", f"{d}/fit/posterior.json",
                                   "--out", f"{d}/derive"]):
                    rep.digests["derive"] = output_digests(self.work / d / "derive")
                    self.check_pipeline(rep)
        else:
            if step("experiment", ["experiment", "--name", "tpr-grid", "--config", cfg,
                                   "--seed", str(EXPERIMENT_SEED + self.seed),
                                   "--out", f"{d}/tpr"]):
                rep.digests["experiment"] = output_digests(self.work / d / "tpr")
                self.check_tpr(rep)
        return rep

    def check_pipeline(self, rep: Rep) -> None:
        d = self.work / f"rep{rep.index}"
        post_path = d / "fit" / "posterior.json"
        with open(post_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            post = self.landscaper.inference.Posterior.from_json(doc)
            loaded = post.n_draws > 0
        except (KeyError, TypeError, ValueError, self.landscaper.errors.LandscaperError):
            loaded = False
        self.checks.record(loaded, f"rep{rep.index}: posterior.json does not load")
        mode = modal_count(d / "derive" / "multistability.csv")
        self.checks.record(mode == TRUE_STATES,
                           f"rep{rep.index}: modal stable-state count {mode}, expected 2")
        if rep.index > 0:
            return
        diag = read_rows(d / "fit" / "diagnostics.csv")
        probs = {int(float(r["n_stable"])): float(r["probability"])
                 for r in read_rows(d / "derive" / "multistability.csv")}
        lo, hi = doc["data_range"]
        errs = [float(r["drift_mean"]) - cusp_drift(float(r["grid"]), CUSP)
                for r in read_rows(d / "fit" / "summary.csv") if lo <= float(r["grid"]) <= hi]
        rep.quality = {
            "min_ess": min(float(r["ess"]) for r in diag),
            "max_rhat": max(float(r["rhat"]) for r in diag),
            "divergences": int(doc["divergences"]),
            "drift_rmse": math.sqrt(sum(e * e for e in errs) / len(errs)),
            "p_true_states": probs.get(TRUE_STATES, 0.0),
            "posterior_mb": post_path.stat().st_size / 1e6,
        }

    def check_tpr(self, rep: Rep) -> None:
        d = self.work / f"rep{rep.index}" / "tpr"
        with open(d / "tpr.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        n_failed = int(sum(sum(row) for row in meta["failures"]))
        self.checks.record_many(self.wl.replicates, n_failed,
                                f"rep{rep.index}: {n_failed} replicate fits failed")
        rows = read_rows(d / "tpr.csv")
        tpr = float(rows[0][repr(self.wl.dt_frac)])
        self.checks.record(0.0 <= tpr <= 1.0, f"rep{rep.index}: tpr {tpr} outside [0, 1]")
        if rep.index == 0:
            rep.quality = {"tpr": tpr}

    def check_digests(self, reps: list[Rep], store: Path, key: str) -> None:
        """Every repetition, and every earlier run on the same sources, seed and
        workload, must produce the same output digests."""
        done = [r for r in reps if r.digests]
        if not done:
            return
        reference = done[0].digests
        for r in done[1:]:
            self.checks.record(r.digests == reference,
                               f"rep{r.index}: output digests differ from rep{done[0].index}")
        known = json.loads(store.read_text()) if store.exists() else {}
        if key in known:
            self.checks.record(known[key] == reference,
                               "output digests differ from an earlier run of this seed")
        else:
            known[key] = reference
            store.write_text(json.dumps(known, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(span_files: list[Path]) -> dict:
    """Per-layer metrics from the spans of one traced repetition.

    Self time is a span's duration minus the part of it its direct children
    cover; gradient calls made on several threads at once count once. So
    when `fit` runs its chains on a thread pool, hmc.self_s is the time no
    chain was inside a gradient call (near zero), and inference.grad_us, the
    wall time per call, includes waiting for the interpreter lock.
    """
    total = defaultdict(float)
    self_t = defaultdict(float)
    count = defaultdict(int)
    attrs = defaultdict(list)
    fits = []          # (min ess, grad calls) per fit
    nonfinite = 0
    exp_fits, exp_fit_s, exp_p2 = 0, 0.0, []
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for sid, name, start, end, parent, at in spans:
            if parent is not None:
                children[parent].append((start, end))
        grads_under = defaultdict(int)   # sample span -> grad calls
        ess_under = defaultdict(list)    # fit span -> ESS values
        for sid, name, start, end, parent, at in spans:
            dur = end - start
            total[name] += dur
            count[name] += 1
            self_t[name] += dur - _covered(children.get(sid, ()), start, end)
            if at:
                attrs[name].append(at)
            if name == "inference.grad":
                grads_under[parent] += 1
                nonfinite += bool(at and at.get("nonfinite"))
            elif name == "diagnostics.ess" and "value" in at:
                ess_under[parent].append(at["value"])
            parent_name = by_id[parent][1] if parent in by_id else None
            if parent_name == "experiments.tpr_grid":
                if name == "inference.fit":
                    exp_fits += 1
                    exp_fit_s += dur
                elif name == "derived.multistability" and "p2" in at:
                    exp_p2.append(at["p2"])
        for sid, name, *_ in spans:
            if name == "inference.fit" and ess_under.get(sid):
                grads = sum(n for s, n in grads_under.items()
                            if s in by_id and by_id[s][4] == sid)
                fits.append((min(ess_under[sid]), grads))

    m = {}

    def put(metric, span, table=total):
        if count[span]:
            m[metric] = table[span]

    put("tsdata.read_csv_s", "tsdata.read_csv")
    put("tsdata.to_transitions_s", "tsdata.to_transitions")
    put("tsdata.dump_json_s", "tsdata.dump_json")
    put("tsdata.load_json_s", "tsdata.load_json")
    put("sim.generate_short_series_s", "sim.generate_short_series")
    put("sim.estimate_timescale_s", "sim.estimate_timescale")
    grads = count["inference.grad"]
    m["inference.grad_calls"] = grads
    put("inference.grad_s", "inference.grad")
    if grads:
        m["inference.grad_us"] = 1e6 * total["inference.grad"] / grads
        m["inference.grad_nonfinite_share"] = nonfinite / grads
    put("inference.curves_s", "inference.curves")
    put("inference.fit_self_s", "inference.fit", table=self_t)
    put("inference.to_json_s", "inference.to_json")
    put("inference.from_json_s", "inference.from_json")
    put("hmc.sample_s", "hmc.sample")
    put("hmc.self_s", "hmc.sample", table=self_t)
    samples = attrs["hmc.sample"]
    if samples:
        iters = sum(a["n_chains"] * a["n_iterations"] for a in samples)
        m["hmc.grads_per_iter"] = grads / iters
        m["hmc.accept_rate"] = statistics.fmean(a["accept_rate"] for a in samples)
        m["hmc.step_size"] = statistics.fmean(a["step_size"] for a in samples)
        m["hmc.divergences"] = sum(a["divergences"] for a in samples)
        m["hmc.threads"] = max(a["threads"] for a in samples)
    if fits:
        m["hmc.min_ess_per_grad"] = statistics.median(e / g for e, g in fits if g)
    diag = ("diagnostics.rhat", "diagnostics.ess")
    if any(count[n] for n in diag):
        m["diagnostics.calls"] = sum(count[n] for n in diag)
        m["diagnostics.s"] = sum(total[n] for n in diag)
    put("derived.multistability_s", "derived.multistability")
    put("derived.tipping_s", "derived.tipping")
    put("derived.exit_band_s", "derived.exit_band")
    if count["derived.exit_band"]:
        m["derived.exit_time_calls"] = count["derived.exit_time"]
        bands = [a for a in attrs["derived.exit_band"] if "retained" in a]
        if bands:
            m["derived.exit_retained_share"] = (sum(a["retained"] for a in bands)
                                                / sum(a["n_draws"] for a in bands))
    if count["experiments.tpr_grid"]:
        m["experiments.fit_calls"] = exp_fits
        m["experiments.fit_s"] = exp_fit_s
        m["experiments.self_s"] = self_t["experiments.tpr_grid"]
        if exp_p2:
            m["experiments.p_true_states"] = statistics.fmean(exp_p2)
    put("cli.fit_self_s", "cli.fit", table=self_t)
    put("cli.derive_self_s", "cli.derive", table=self_t)
    put("cli.experiment_self_s", "cli.experiment", table=self_t)
    commands = ("cli.fit", "cli.derive", "cli.experiment")
    m["cli.self_s"] = sum(self_t[c] for c in commands)
    return m


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

STRIPPED_ENV = ("LANDSCAPER_THREADS",)
STRIPPED_PREFIXES = ("OPENBLAS_", "OMP_", "MKL_")


def child_environment() -> tuple[dict, dict]:
    """Environment for the CLI processes: the caller's, without thread or BLAS
    settings, with the checkout's sources first on the path."""
    env, stripped = {}, {}
    for k, v in os.environ.items():
        if k in STRIPPED_ENV or k.startswith(STRIPPED_PREFIXES):
            stripped[k] = v
        else:
            env[k] = v
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env, stripped


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def environment(landscaper, env: dict, stripped: dict) -> dict:
    import numpy
    import scipy

    with mock.patch.dict(os.environ, env, clear=True):
        cli_threads = landscaper.cli._resolve_threads(None)

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cli_fit_threads": cli_threads,
        "stripped_env": stripped,  # thread/BLAS settings the CLI processes do not get
        "blas": blas,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def import_landscaper():
    """Import the program from this checkout's sources, and only from there."""
    if not (ROOT / "src" / "landscaper" / "cli.py").is_file():
        raise BenchError(f"no program sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import landscaper.cli
    import landscaper.errors
    import landscaper.inference

    where = Path(landscaper.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise BenchError(f"landscaper imported from {where}, not from this checkout")
    return landscaper


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {"end_to_end": [m["name"] for m in doc["end_to_end"]],
            "per_layer": [m["name"] for m in doc["per_layer"]],
            "workloads": {w["name"]: w["why"] for w in doc["workloads"]}}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
                 landscaper, deadline: float) -> dict:
    tag = f"{wl.name}-seed{seed}{'-smoke' if smoke else ''}-trace{int(trace)}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env, stripped = child_environment()
    runner = Runner(work, env, deadline)
    checks = Checks()
    bench = Bench(wl, seed, tag, work, runner, checks, landscaper)

    setups = [bench.setup(i, traced=trace) for i in range(1 if trace or smoke else SETUP_REPEATS)]
    reps: list[Rep] = []
    if bench.setup_dir is not None:
        start = time.perf_counter()
        while True:
            traced = trace and len(reps) % 2 == 1
            reps.append(bench.rep(len(reps), traced))
            if not reps[-1].digests or time.monotonic() > deadline:
                break
            if len(reps) < (2 if trace else 1):
                continue
            # Start another repetition only if even the slowest one so far,
            # with a margin, would end within --seconds; that bounds the run.
            slowest = max(r.wall_s for r in reps)
            if smoke or time.perf_counter() - start + 1.1 * slowest > seconds:
                break
        bench.check_digests(reps, OUT / "digests.json",
                            f"{wl}|seed={seed}|src={source_digest()}")

    plain = [r for r in reps if not r.traced and r.digests]
    traced_reps = [r for r in reps if r.traced and r.digests]
    quality = next((r.quality for r in reps if r.quality), {})
    e2e = {"setup_s": median_or_none(setups)}
    if plain:
        if wl.kind == "pipeline":
            e2e["fit_s"] = statistics.median(r.procs["fit"].wall_s for r in plain)
            e2e["derive_s"] = statistics.median(r.procs["derive"].wall_s for r in plain)
            e2e["peak_rss_mb"] = statistics.median(r.procs["fit"].rss_mb for r in plain)
        else:
            wall = statistics.median(r.procs["experiment"].wall_s for r in plain)
            e2e["fit_s"] = wall / wl.replicates
            e2e["fits_per_min"] = 60.0 * wl.replicates / wall
            e2e["peak_rss_mb"] = statistics.median(r.procs["experiment"].rss_mb for r in plain)
        e2e["pipeline_s"] = statistics.median(r.wall_s for r in plain)
        e2e.update(quality)
        if "min_ess" in quality:
            e2e["min_ess_per_s"] = quality["min_ess"] / e2e["fit_s"]

    layers = {}
    if trace:
        span_sets = [layer_metrics(bench.setup_spans + r.spans) for r in traced_reps]
        for name in sorted({k for s in span_sets for k in s}):
            layers[name] = median_or_none([s.get(name) for s in span_sets])
        if traced_reps and plain:
            def fit_s(r):
                p = r.procs["fit"] if wl.kind == "pipeline" else r.procs["experiment"]
                return p.wall_s / (1 if wl.kind == "pipeline" else wl.replicates)
            layers["trace.overhead_s"] = (statistics.median(map(fit_s, traced_reps))
                                          - statistics.median(map(fit_s, plain)))
        sweep_out = work / "sweep.json"
        p = runner.run([sys.executable, str(HERE / "sweep.py"), "--seed", str(seed),
                        "--out", str(sweep_out)] + (["--smoke"] if smoke else []))
        if checks.proc(p, "gradient sweep"):
            layers.update(json.loads(sweep_out.read_text()))
    e2e["failed_share"] = checks.failed / max(checks.attempted, 1)

    spans_dir = OUT / "spans" / tag
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        for path in work.glob("spans-*.json"):
            shutil.move(str(path), spans_dir / path.name)
    if not checks.failures:  # keep the outputs of a failed run for inspection
        shutil.rmtree(work)

    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "settings": {"n_series": wl.n_series, "points": wl.points, "fit": wl.fit,
                     "dt": wl.dt if wl.kind == "pipeline" else None,
                     "dt_frac": wl.dt_frac if wl.kind == "tpr" else None,
                     "replicates": wl.replicates or None,
                     **({"data_seed": DATA_SEED, "fit_seed": FIT_SEED + seed}
                        if wl.kind == "pipeline" else
                        {"experiment_seed": EXPERIMENT_SEED + seed})},
        "environment": environment(landscaper, env, stripped),
        "setups_s": setups,
        "reps": [{"index": r.index, "traced": r.traced,
                  "steps": {k: {"wall_s": p.wall_s, "cpu_s": p.cpu_s, "peak_rss_mb": p.rss_mb,
                                "exit_code": p.code}
                            for k, p in r.procs.items()},
                  "digests": r.digests} for r in reps],
        "end_to_end": {k: v for k, v in e2e.items() if v is not None},
        "per_layer": {k: v for k, v in layers.items() if v is not None},
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "spans": str(spans_dir.relative_to(ROOT)) if trace else None,
    }


def report(result: dict) -> None:
    """Print every metric of one workload by name, with its unit."""
    print(f"== {result['workload']} (seed {result['seed']}, trace {int(result['trace'])}, "
          f"{len(result['reps'])} repetitions; attempted {result['attempted']}, "
          f"failed {result['failed']})")
    for section in ("end_to_end", "per_layer"):
        for name, value in result[section].items():
            unit, better = METRICS[name]
            print(f"  {name:42s} {value:14.6g} {unit:10s} ({better} is better)")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def metric_line(results: list[dict], names: list[str], section: str, prefix: bool) -> dict:
    out = {}
    for r in results:
        for name in names:
            key = f"{r['workload']}.{name}" if prefix else name
            value = r[section].get(name)
            if value is None:
                raise BenchError(f"{r['workload']}: metric {name} was not measured")
            out[key] = {"value": value, "unit": METRICS[name][0]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at toy size, through the same checks")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    deadline = time.monotonic() + DEADLINE_S

    try:
        declared = declared_metrics()
        landscaper = import_landscaper()
        names = declared["per_layer"] if args.trace else declared["end_to_end"]
        section = "per_layer" if args.trace else "end_to_end"
        workloads = SMOKE if args.smoke else {args.workload: WORKLOADS[args.workload]}
        results = []
        for wl in workloads.values():
            result = run_workload(wl, args.seed, args.seconds, bool(args.trace), args.smoke,
                                  landscaper, deadline)
            result["why"] = declared["workloads"].get(wl.name)
            with open(HERE / "predictions.json", encoding="utf-8") as fh:
                result["predictions"] = json.load(fh)
            results.append(result)
            (OUT / "results").mkdir(parents=True, exist_ok=True)
            tag = (f"{wl.name}-seed{args.seed}{'-smoke' if args.smoke else ''}"
                   f"-trace{args.trace}.json")
            with open(OUT / "results" / tag, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1, sort_keys=True)
            report(result)
        metrics = metric_line(results, names, section, prefix=args.smoke)
    except (BenchError, OSError, json.JSONDecodeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
