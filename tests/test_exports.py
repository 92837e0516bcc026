"""Every name that ``gqlab`` or one of its modules lists in ``__all__`` exists."""

import importlib
import pkgutil

import gqlab


def test_every_all_entry_resolves():
    names = ["gqlab"] + [f"gqlab.{m.name}" for m in pkgutil.iter_modules(gqlab.__path__)]
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        absent = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        if absent:
            missing[name] = absent
    assert len(names) > 1 and missing == {}
