import ast
import importlib
import importlib.util
import inspect
import pkgutil
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


def test_demo_imports_resolve():
    # The demos are not run by the suite, so a deleted public name would
    # otherwise only show when someone runs them. Their `from landscaper...
    # import ...` lines are read with ast, without running the scripts.
    demos = Path(__file__).resolve().parent.parent / "demos"
    scripts = sorted(demos.glob("*.py"))
    assert scripts
    missing = []
    for script in scripts:
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "landscaper"):
                continue
            mod = importlib.import_module(node.module)
            missing += [f"{script.name}: {node.module}.{alias.name}"
                        for alias in node.names if not hasattr(mod, alias.name)]
    assert missing == []


def test_benchmark_tracer_targets_resolve():
    # perfbench/trace.py replaces each (module, attribute) of its PATCHES by
    # name, and perfbench/run.py calls cli._resolve_threads and reads the
    # `threads` keyword of hmc.sample. A rename in the program would otherwise
    # only show in the benchmark's own self-test, which is too slow for this
    # suite. The tracer is loaded, not installed: nothing is patched.
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
