import importlib
import pkgutil

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
