import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import landscaper


def test_every_exported_name_resolves():
    # A deletion that forgets an `__all__` entry leaves a name that
    # `from landscaper.<module> import *` fails on.
    modules = [landscaper] + [
        importlib.import_module(f"landscaper.{info.name}")
        for info in pkgutil.iter_modules(landscaper.__path__)
    ]
    stale = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert stale == []


def demo_scripts(pattern):
    scripts = sorted((Path(__file__).resolve().parent.parent / "demos").glob(pattern))
    assert scripts
    return scripts


def test_demo_imports_resolve():
    # The demos are not run by the suite, so a deleted public name would
    # otherwise only show when someone runs them. Their `from landscaper...
    # import ...` lines are read with ast, without running the scripts.
    missing = []
    for script in demo_scripts("*.py"):
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "landscaper"):
                continue
            mod = importlib.import_module(node.module)
            missing += [f"{script.name}: {node.module}.{alias.name}"
                        for alias in node.names if not hasattr(mod, alias.name)]
    assert missing == []


def test_demo_keywords_are_parameters():
    # A removed keyword option breaks a demo that passes it as surely as a
    # removed name does. Each keyword a demo passes to a name it imported
    # from landscaper must still be a parameter of that callable.
    unknown = []
    for script in demo_scripts("*.py"):
        tree = ast.parse(script.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name: getattr(importlib.import_module(node.module),
                                                alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "landscaper"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and callable(imported.get(node.func.id))):
                continue
            params = inspect.signature(imported[node.func.id]).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            unknown += [f"{script.name}:{node.lineno}: {node.func.id}({kw.arg}=)"
                        for kw in node.keywords if kw.arg and kw.arg not in params]
    assert unknown == []


def test_readme_python_calls_resolve():
    # The README's Python session is not run by the suite either. Each
    # `module.attr(...)` call on a module it imports `from landscaper` must
    # name an attribute that exists and pass only keywords that are its
    # parameters, as the demos' calls must.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    checked, unknown = set(), []
    for block in blocks:
        tree = ast.parse(block)
        modules = {
            alias.asname or alias.name: getattr(landscaper, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "landscaper"
            for alias in node.names
            if inspect.ismodule(getattr(landscaper, alias.name, None))
        }
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if not (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name) and func.value.id in modules):
                continue
            name = f"{func.value.id}.{func.attr}"
            target = getattr(modules[func.value.id], func.attr, None)
            if not callable(target):
                unknown.append(name)
                continue
            checked.add(name)
            params = inspect.signature(target).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            unknown += [f"{name}({kw.arg}=)" for kw in node.keywords
                        if kw.arg and kw.arg not in params]
    assert unknown == []
    assert "sim.generate_short_series" in checked and "inference.fit" in checked


def test_cli_demo_commands_parse():
    # The `landscaper ...` commands of the shell demo and of the README's bash
    # blocks must still parse: a removed flag or subcommand would otherwise
    # only show when someone runs them.
    from landscaper import cli

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    sources = [(script.name, script.read_text(encoding="utf-8"))
               for script in demo_scripts("*.sh")]
    sources += [("README.md", block)
                for block in re.findall(r"^```bash\n(.*?)^```", readme, re.M | re.S)]
    parsed, refused = set(), []
    for name, text in sources:
        for line in text.replace("\\\n", " ").splitlines():
            tokens = shlex.split(line) if line.startswith("landscaper ") else []
            try:
                if tokens:
                    cli.build_parser().parse_args(tokens[1:])
                    parsed.add(name)
            except SystemExit:
                refused.append(f"{name}: {line}")
    assert refused == []
    assert "README.md" in parsed


def test_readme_fit_config_keys_are_the_config_fields():
    # The README lists the keys `fit --config` takes; it must name every
    # FitConfig field and nothing else.
    from dataclasses import fields

    from landscaper.inference import FitConfig

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    bullet = re.search(r"^- `fit --config` takes a JSON object setting any `FitConfig` "
                       r"field:(.*?)\.\s", readme, re.MULTILINE | re.DOTALL)
    assert bullet, "README has no `fit --config` key list"
    keys = re.findall(r"`(\w+)`", bullet.group(1))
    assert len(keys) == len(set(keys))
    assert set(keys) == {f.name for f in fields(FitConfig)}


def test_benchmark_tracer_targets_resolve():
    # perfbench/trace.py replaces each (module, attribute) of its PATCHES by
    # name, perfbench/run.py calls cli._resolve_threads and reads the
    # `threads` keyword of hmc.sample, and perfbench/sweep.py times
    # inference.log_posterior on a ModelState built by keyword from
    # tsdata.to_transitions of a simulated cusp. A rename in the program would
    # otherwise only show in the benchmark's own self-test, which is too slow
    # for this suite. The tracer is loaded, not installed: nothing is patched.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"
    spec = importlib.util.spec_from_file_location("perfbench_trace", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    assert trace.PATCHES
    missing = [f"{module}.{attr}" for module, attr, _, _ in trace.PATCHES
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
    cli = importlib.import_module("landscaper.cli")
    hmc = importlib.import_module("landscaper.hmc")
    inference = importlib.import_module("landscaper.inference")
    assert callable(cli._resolve_threads)
    assert "threads" in inspect.signature(hmc.sample).parameters
    assert callable(inference.TargetContext.curves_on)
    assert "from_json" in inference.Posterior.__dict__
    sim = importlib.import_module("landscaper.sim")
    tsdata = importlib.import_module("landscaper.tsdata")
    assert callable(inference.log_posterior) and callable(tsdata.to_transitions)
    assert {"z_f", "z_g", "drift_hypers", "diff_hypers"} <= set(
        inspect.signature(inference.ModelState).parameters)
    assert {"alpha", "beta", "lam", "r", "epsilon"} <= set(
        inspect.signature(sim.CuspParams).parameters)
    assert callable(sim.cusp_model) and callable(sim.generate_short_series)


def test_traced_fit_writes_the_plain_fit_outputs(tmp_path):
    # perfbench/trace.py installs its wrappers and runs `fit` in-process. The
    # sampler target it wraps is a plain function, which the sampler calls once
    # per point, and the traced fit's outputs must be those of a plain fit.
    from landscaper import cli, sim
    from landscaper.tsdata import write_observations_csv

    root = Path(__file__).resolve().parent.parent
    data = sim.generate_short_series(sim.cusp_model(sim.CuspParams()), 20, 4, 0.3, seed=3)
    write_observations_csv(data.collection, tmp_path / "data.csv")
    (tmp_path / "fit.json").write_text(json.dumps(
        {"n_chains": 2, "n_iterations": 100, "n_anchors": 12, "seed": 4}))
    fit_args = ["fit", "--data", str(tmp_path / "data.csv"), "--config",
                str(tmp_path / "fit.json"), "--allow-nonconverged", "--out"]
    spans = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(root / "perfbench" / "trace.py"), "--spans", str(spans),
         "--run-id", "t", "--"] + fit_args + [str(tmp_path / "traced")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert traced.returncode == 0, traced.stderr
    names = {span[1] for span in json.loads(spans.read_text())["spans"]}
    assert {"inference.grad", "hmc.sample", "inference.fit"} <= names
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(fit_args + [str(tmp_path / "plain")]) == 0
    outputs = [json.loads((tmp_path / out / "manifest.json").read_text())["outputs"]
               for out in ("traced", "plain")]
    assert outputs[0] == outputs[1]


def test_fit_passes_threads_to_the_sampler_as_an_int(monkeypatch, tmp_path):
    # perfbench/run.py takes `max` over the `threads` keyword the tracer sees
    # on each hmc.sample call, so every way into a fit must pass it as an int
    # keyword: the library call at its default and with `threads=`, and the
    # CLI without `--threads`.
    from landscaper import cli, hmc, inference, sim
    from landscaper.tsdata import write_observations_csv

    seen = []
    sample = hmc.sample

    def recording(*args, **kwargs):
        seen.append(kwargs.get("threads"))
        return sample(*args, **kwargs)

    monkeypatch.setattr(hmc, "sample", recording)
    data = sim.generate_short_series(sim.cusp_model(sim.CuspParams()), 10, 3, 0.1, seed=1)
    cfg = inference.FitConfig(n_chains=1, n_iterations=100, max_leapfrog=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inference.fit(data.collection, cfg)
        inference.fit(data.collection, cfg, threads=2)
        write_observations_csv(data.collection, tmp_path / "data.csv")
        (tmp_path / "fit.json").write_text(json.dumps(cfg.to_json()))
        assert cli.main(["fit", "--data", str(tmp_path / "data.csv"), "--config",
                         str(tmp_path / "fit.json"), "--allow-nonconverged",
                         "--out", str(tmp_path / "fit")]) == 0
    assert seen == [1, 2, len(os.sched_getaffinity(0))]
    assert all(type(t) is int for t in seen)
