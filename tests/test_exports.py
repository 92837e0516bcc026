"""Every name that ``gqlab`` or one of its modules lists in ``__all__`` exists,
and so does every place the benchmark's tracer wraps."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

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


def test_benchmark_span_targets_resolve(monkeypatch):
    """Every place the benchmark's tracer wraps exists, and a span's places agree.

    ``perfbench/workloads.py`` is loaded by path, as the benchmark runs it;
    a traced run looks each place up with ``getattr`` and crashes on a
    missing one.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while they are built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    targets = workloads.span_targets()
    missing = [(name, attr) for name, places in targets.items()
               for owner, attr in places if not hasattr(owner, attr)]
    assert targets and missing == []
    split = [name for name, places in targets.items()
             if len({id(getattr(owner, attr)) for owner, attr in places}) != 1]
    assert split == []
