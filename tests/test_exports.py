"""Every name that ``gqlab`` or one of its modules lists in ``__all__`` exists,
and so does every place the benchmark's tracer wraps."""

import importlib
import importlib.util
import pkgutil
import sys
from collections import Counter
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


def test_trials_look_the_traced_draws_up_when_they_run(monkeypatch):
    """A trial finds ``generate`` and ``enumerate_all_graphs`` among the
    harness module's globals when it runs, so the tracer's patch of those two
    places sees every draw; a copy bound at import would bypass it."""
    from gqlab import harness

    calls = Counter()
    for name in ("generate", "enumerate_all_graphs"):
        def counted(*args, _name=name, _original=getattr(harness, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(harness, name, counted)
    # validation draws each point once, then every trial draws
    harness.run(harness.ExperimentConfig(
        learner="or_full", family="matching", grid=({"n": 8, "m": 2},), trials=3))
    harness.run(harness.ExperimentConfig(
        learner="bell_family", family="all_small_graphs", grid=({"n": 3, "r": 2},),
        trials=1))
    assert calls["generate"] == 4 and calls["enumerate_all_graphs"] >= 1
