#!/usr/bin/env python3
"""Time two gqlab source trees against each other in one interpreter.

    python3 scripts/ab_passes.py OLD_SRC NEW_SRC [--workload or_small] [--rounds 15]
    python3 scripts/ab_passes.py OLD_SRC NEW_SRC --preset sweep_bounded_degree_copies:40 ...

OLD_SRC and NEW_SRC are directories that hold a ``gqlab`` package (a
checkout's ``src``).  Both trees are imported into this process under the
name ``gqlab``, each with its own module objects, and the one in use is
swapped into ``sys.modules`` before each of its passes.  A pass runs every
preset of the workload once through ``harness.run``, with the presets and
trial counts that ``perfbench/workloads.py`` defines.  ``--preset NAME:TRIALS``
(repeatable) runs committed presets of ``scripts/`` instead, each with its
first TRIALS trials per grid point and its committed seed, loaded as the
benchmark loads its own; this reaches presets that no workload runs.  Each
round runs one pass of each tree, alternating which goes first, and checks
that the two trees gave the same ledger and outcome trial for trial.

Printed: per round, each tree's pass time; then each tree's median
``trials_per_s``, ``trial_ms_p50`` and ``trial_ms_tail`` over the rounds
(defined as in ``perfbench/run.py``) with the rounds each tree won; then per
grid point, each tree's median and minimum time summed over the point's
trials and the sorted per-round ratios NEW / OLD; then per grid point, each
tree's median ms per trial (the median over rounds of the point's median
trial); then on each side the points that set ``trial_ms_p50``, each with
the number of rounds in which its median trial was the middle one.  Passes
in one process see the same host state within a round, which a pair of
separate benchmark runs does not.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def _drop_gqlab() -> None:
    for name in [m for m in sys.modules if m == "gqlab" or m.startswith("gqlab.")]:
        del sys.modules[name]


def load_tree(src: Path) -> dict:
    """Import every module of the gqlab package under ``src``; returns them
    by module name, and leaves ``sys.modules`` without gqlab."""
    src = src.resolve()
    if not (src / "gqlab" / "__init__.py").is_file():
        raise SystemExit(f"ab_passes: no gqlab package under {src}")
    _drop_gqlab()
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("gqlab")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"gqlab.{info.name}")
    finally:
        sys.path.remove(str(src))
    if Path(package.__file__).resolve().parent != src / "gqlab":
        raise SystemExit(f"ab_passes: imported gqlab from {package.__file__}, not {src}")
    modules = {m: mod for m, mod in sys.modules.items() if m == "gqlab" or m.startswith("gqlab.")}
    _drop_gqlab()
    return modules


@contextmanager
def using(tree: dict):
    _drop_gqlab()
    sys.modules.update(tree)
    try:
        yield
    finally:
        _drop_gqlab()


def run_pass(tree: dict, workload: str) -> dict:
    """One pass over the workload's presets with ``tree``: wall seconds,
    per-point trial ms, and each trial's (ledger, success)."""
    with using(tree):
        presets = workloads.load_presets(workload, workloads.DEFAULT_SEED)
        harness = tree["gqlab.harness"]
        runs = []
        start = time.perf_counter()
        for name, cfg in presets:
            records, _ = harness.run(cfg)
            runs.append((name, cfg, records))
        wall_s = time.perf_counter() - start
    points, outcomes = {}, []
    for name, cfg, records in runs:
        for i, point in enumerate(cfg.grid):
            label = f"{name} " + ",".join(f"{k}={v}" for k, v in point.items())
            trials = records[i * cfg.trials:(i + 1) * cfg.trials]
            points[label] = [r.ms for r in trials]
        outcomes += [(name, r.trial, r.seed, r.ledger, r.success) for r in records]
    return {"wall_s": wall_s, "points": points, "outcomes": outcomes}


def end_to_end(result: dict) -> dict:
    trial_ms = [ms for ms in result["points"].values() for ms in ms]
    n = len(trial_ms)
    return {
        "trials_per_s": n / result["wall_s"],
        "trial_ms_p50": statistics.median(
            statistics.median(ms) for ms in result["points"].values()
        ),
        "trial_ms_tail": sorted(trial_ms)[n - 10 - 1],  # ten trials beyond it
    }


def point_medians(passes: list[dict]) -> dict[str, float]:
    """Each grid point's median trial ms, as the median over passes."""
    return {
        label: statistics.median(statistics.median(p["points"][label]) for p in passes)
        for label in passes[0]["points"]
    }


def p50_points(passes: list[dict]) -> Counter:
    """How many passes each point set ``trial_ms_p50`` in: the point, or the
    two points, whose median trial ms is the median of that pass's point
    medians."""
    counts: Counter = Counter()
    for p in passes:
        medians = {label: statistics.median(ms) for label, ms in p["points"].items()}
        ranked = sorted(medians, key=medians.get)
        mid = (len(ranked) - 1) // 2
        counts.update(ranked[mid:len(ranked) - mid])
    return counts


# the workload name under which --preset runs its presets
PRESETS = "presets"


def preset_arg(text: str) -> tuple[str, int]:
    """``NAME:TRIALS`` as (NAME, TRIALS) for a committed preset of scripts/."""
    name, _, trials = text.partition(":")
    path = ROOT / "scripts" / f"{name}.json"
    if not path.is_file():
        raise argparse.ArgumentTypeError(f"no preset scripts/{name}.json")
    committed = json.loads(path.read_text())["trials"]
    if not trials.isdigit() or not 1 <= int(trials) <= committed:
        raise argparse.ArgumentTypeError(f"{text!r}: want NAME:TRIALS with 1 <= TRIALS <= {committed}")
    return name, int(trials)


HIGHER_IS_BETTER = {"trials_per_s": True, "trial_ms_p50": False, "trial_ms_tail": False}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--workload", default="or_small", choices=tuple(workloads.WORKLOADS))
    source.add_argument("--preset", type=preset_arg, action="append",
                        help="NAME:TRIALS, a committed preset run instead of a workload")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    if args.preset:
        # a workload of this process only, so the presets load exactly as the
        # benchmark's own do (reduced trials, seed, validation)
        workloads.WORKLOADS[PRESETS] = tuple(args.preset)
        args.workload = PRESETS

    trees = {"old": load_tree(args.old_src), "new": load_tree(args.new_src)}
    for side in trees:  # warm caches and lazy set-up; not timed
        run_pass(trees[side], args.workload)

    results = {"old": [], "new": []}
    for r in range(args.rounds):
        order = ("old", "new") if r % 2 == 0 else ("new", "old")
        got = {side: run_pass(trees[side], args.workload) for side in order}
        if got["old"]["outcomes"] != got["new"]["outcomes"]:
            raise SystemExit(f"ab_passes: round {r + 1}: the trees' ledgers differ")
        for side in order:
            results[side].append(got[side])
        print(f"round {r + 1:>2} ({order[0]} first): old {got['old']['wall_s'] * 1000:8.1f} ms"
              f"  new {got['new']['wall_s'] * 1000:8.1f} ms", flush=True)

    trials = len(results["old"][0]["outcomes"])
    label = (", ".join(f"{name}:{n}" for name, n in args.preset) if args.preset
             else f"workload {args.workload}")
    print(f"\n{label}: {args.rounds} rounds, {trials} trials per pass, "
          "ledgers equal trial for trial in every round")
    print(f"{'metric':<16}{'old':>12}{'new':>12}{'new/old':>10}  rounds won old/new")
    for metric, higher in HIGHER_IS_BETTER.items():
        old = [end_to_end(p)[metric] for p in results["old"]]
        new = [end_to_end(p)[metric] for p in results["new"]]
        new_wins = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        old_wins = sum((a > b) if higher else (a < b) for a, b in zip(old, new))
        o, n = statistics.median(old), statistics.median(new)
        print(f"{metric:<16}{o:>12.3f}{n:>12.3f}{n / o:>10.3f}  {old_wins}/{new_wins}")

    print("\nper grid point: ms summed over its trials, median (min) over rounds; "
          "per-round new/old, sorted")
    for label in results["old"][0]["points"]:
        old = [sum(p["points"][label]) for p in results["old"]]
        new = [sum(p["points"][label]) for p in results["new"]]
        ratios = sorted(b / a for a, b in zip(old, new))
        print(f"{label:<42} old {statistics.median(old):8.1f} ({min(old):7.1f})"
              f"  new {statistics.median(new):8.1f} ({min(new):7.1f})"
              f"  {' '.join(f'{x:.2f}' for x in ratios)}")

    medians = {side: point_medians(results[side]) for side in results}
    print("\nper grid point: median ms per trial, the median over rounds of the "
          "point's median trial")
    for label in medians["old"]:
        o, n = medians["old"][label], medians["new"][label]
        print(f"{label:<42} old {o:8.3f}  new {n:8.3f}  new/old {n / o:5.2f}")
    for side in results:
        counts = p50_points(results[side]).most_common()
        print(f"trial_ms_p50 point, {side}: "
              + ", ".join(f"{label} in {c} of {args.rounds} rounds" for label, c in counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
