"""Seeded experiment sweeps: trial grids, ledger aggregation, CSV/JSON emission.

A sweep fixes one learner and one instance family, then runs a grid of size
points with a fixed number of trials per point.  Every trial derives its own
counter-based RNG stream from the master seed and the (point, trial) index
pair, so trial order does not matter: every order yields identical records.

Two tables say what a sweep can run.  ``FAMILIES`` holds one row per family
of hidden objects: the point keys its draw reads besides ``n``, and the draw
itself.  ``LEARNERS`` holds one row per learner: the families it runs on,
its cost metric, the point keys it reads and the call that runs it.  A grid
point may carry ``n`` and any key some row of either table reads.
"""

from __future__ import annotations

import functools
import json
import numbers
import os
import statistics
import time
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from gqlab import cgt as cgt_mod
from gqlab import f2, or_learners, parity_learners
from gqlab.errors import GqlabError, ViolationError
from gqlab.fourier import learn_symmetric_junta, maj_level_weights
from gqlab.graphs import Graph, enumerate_all_graphs, generate
from gqlab.oracles import GraphOracle, JuntaOracle, QueryLedger

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "FAMILIES",
    "LEARNERS",
    "CSV_COLUMNS",
    "run",
    "emit",
    "records_to_json",
    "records_from_json",
    "config_from_json",
]

CSV_COLUMNS = (
    "seed",
    "n",
    "m",
    "d",
    "k",
    "or_queries",
    "parity_queries",
    "copies",
    "charged_quantum",
    "success",
    "ms",
)

_CSV_COUNTERS = {
    "or_queries": "or_query",
    "parity_queries": "parity_query",
    "copies": "graph_state_copy",
    "charged_quantum": "charged_quantum",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a learner, a family, and a grid of size points.

    ``grid`` entries are plain dicts of point parameters: ``n`` plus the
    keys the family's and the learner's table rows read.  ``slack`` of
    None keeps each learner's own default.  ``sweep`` names the grid key
    driving the log-log slope fit of the learner's metric.
    """

    learner: str
    family: str
    grid: tuple[dict, ...]
    trials: int = 100
    seed: int = 0
    backend: str = "classical_adaptive"
    slack: int | None = None
    sweep: str | None = None
    min_success: float | None = None
    slope_range: tuple[float, float] | None = None
    record_wall_time: bool = False
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        if not isinstance(self.grid, Sequence) or not all(
            isinstance(p, Mapping) for p in self.grid
        ):
            raise ValueError(
                f"grid must be a list of point objects, not {self.grid!r}"
            )
        object.__setattr__(self, "grid", tuple(dict(p) for p in self.grid))
        if self.slope_range is not None:
            object.__setattr__(self, "slope_range", tuple(self.slope_range))

    def validate(self) -> None:
        for name in ("learner", "family", "backend", "fmt"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, not {getattr(self, name)!r}")
        for name in ("sweep", "out"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string or null, not {value!r}")
        if not isinstance(self.record_wall_time, bool):
            raise ValueError("record_wall_time must be true or false")
        if self.learner not in LEARNERS:
            raise ValueError(f"unknown learner {self.learner!r}")
        if self.family not in LEARNERS[self.learner].families:
            raise ValueError(
                f"family {self.family!r} is not runnable with {self.learner!r}"
            )
        if self.backend not in cgt_mod.BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if not _is_number(self.trials, numbers.Integral) or self.trials < 0:
            raise ValueError("trials must be a nonnegative integer")
        if not _is_number(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.slack is not None and not (
            _is_number(self.slack, numbers.Integral) and self.slack >= 0
        ):
            raise ValueError("slack must be a nonnegative integer")
        if self.min_success is not None and not (
            _is_number(self.min_success) and 0 <= self.min_success <= 1
        ):
            raise ValueError("min_success must be a number in [0, 1]")
        if self.slope_range is not None and not (
            len(self.slope_range) == 2
            and all(map(_is_number, self.slope_range))
            and self.slope_range[0] <= self.slope_range[1]
        ):
            raise ValueError("slope_range must be a pair [lo, hi] of numbers, lo <= hi")
        if not self.grid:
            raise ValueError("grid must have at least one point")
        for point in self.grid:
            if "n" not in point:
                raise ValueError("every grid point needs n")
            unknown = [key for key in point if key not in _POINT_KEYS]
            if unknown:
                raise ValueError(f"unknown grid keys {unknown} in point {point}")
            for key, value in point.items():
                if key != "known_k" and not _is_number(value, numbers.Integral):
                    raise ValueError(f"grid key {key!r} must be an integer, not {value!r}")
        for point in self.grid:
            _check_point(self.learner, self.family, point)
        if self.sweep is not None:
            for point in self.grid:
                if self.sweep not in point:
                    raise ValueError(f"sweep key {self.sweep!r} missing from a point")
        if self.fmt not in ("csv", "json"):
            raise ValueError("fmt must be csv or json")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _is_number(value, kind=numbers.Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_point(learner: str, family: str, point: dict) -> None:
    """Refuse a point the learner or the family cannot run.

    The family builds one instance on a throwaway generator, so a missing or
    out-of-range key fails here instead of at trial 0; trial streams are
    keyed by (point, trial) and do not see this draw.
    """
    missing = [key for key in LEARNERS[learner].needs if key not in point]
    if missing:
        raise ValueError(f"{learner} needs {missing} in every grid point, not {point}")
    try:
        if family == "all_small_graphs":
            # built uncached: a config that is only validated should not pin
            # up to 2^15 graphs in the trial cache
            enumerate_all_graphs(point["r"], point["n"])
        else:
            FAMILIES[family].draw(point, np.random.default_rng(0), QueryLedger())
    except (KeyError, ValueError, GqlabError) as exc:
        raise ValueError(f"{family} cannot build point {point}: {exc!r}") from exc


def config_from_json(text: str) -> ExperimentConfig:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    known = set(ExperimentConfig.__dataclass_fields__)
    extra = set(data) - known
    if extra:
        raise ValueError(f"unknown config fields: {sorted(extra)}")
    try:
        return ExperimentConfig(**data)
    except TypeError as exc:
        raise ValueError(str(exc)) from exc


@dataclass(frozen=True)
class TrialRecord:
    """One trial: the derived seed, the size point, and the full ledger."""

    trial: int
    seed: int
    n: int
    m: int | None
    d: int | None
    k: int | None
    ledger: dict[str, int] = field(compare=True)
    success: bool = False
    ms: float = 0.0


# -- the family table and the learner table ------------------------------------


@dataclass(frozen=True)
class Family:
    """One row of the family table: ``draw`` and the point keys it reads besides ``n``.

    ``draw(point, rng, ledger)`` returns ``(oracle, hidden, side)``, where
    ``side`` is what the learner is told besides the oracle: the candidate
    tuple for ``all_small_graphs``, the known supergraph for
    ``matching_union``, the ledger group testing bills for ``defect_set``,
    and None otherwise; ``defect_set`` hides the mask of its defects.
    """

    keys: tuple[str, ...]
    draw: Callable


def _graph_family(kind: str, keys: tuple[str, ...]) -> Family:
    def draw(point, rng, ledger):
        # ``generate`` is this module's global, looked up at each call
        hidden = generate(kind, point, rng)
        return GraphOracle(hidden, rng, ledger=ledger), hidden, None

    return Family(keys, draw)


@functools.cache
def _small_graphs(r: int, n: int) -> tuple[Graph, ...]:
    return tuple(enumerate_all_graphs(r, n))


def _draw_small_graph(point, rng, ledger):
    side = _small_graphs(point["r"], point["n"])
    hidden = side[int(rng.integers(len(side)))]
    return GraphOracle(hidden, rng, ledger=ledger), hidden, side


def _draw_matching_union(point, rng, ledger):
    """A union of ``d`` random perfect matchings and a hidden half of its edges."""
    n, d = point["n"], point["d"]
    if n % 2:
        raise ValueError("matching_union needs even n")
    rows = [0] * n
    for _ in range(d):
        perm = rng.permutation(n).tolist()
        for a, b in zip(perm[::2], perm[1::2]):
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    side = Graph.from_rows(rows)
    hidden = Graph(n, [e for e in sorted(side.edges) if rng.random() < 0.5])
    return GraphOracle(hidden, rng, ledger=ledger), hidden, side


def _draw_defect_set(point, rng, ledger):
    """The mask of ``k`` hidden items of ``n``, behind ``cgt_solve``'s test and block."""
    n = point["n"]
    hidden = f2.from_support(rng.choice(n, size=point["k"], replace=False).tolist(), n)

    def test(items):
        ledger.charge("or_query")
        return items & hidden != 0

    def block(items):
        ledger.charge("or_query", items.bit_count())
        return items & hidden

    return (test, block), hidden, ledger


def _draw_majority_junta(point, rng, ledger):
    """Majority of ``k`` hidden variables out of ``n``."""
    n, k = point["n"], point["k"]
    support = sorted(rng.choice(n, size=k, replace=False).tolist())
    oracle = JuntaOracle(
        n, support, rng, level_weights=maj_level_weights(k), ledger=ledger
    )
    return oracle, frozenset(support), None


# the families ``graphs.generate`` draws, with the point keys each reads
_GENERATED = {
    "matching": ("m",),
    "hamiltonian_cycle": ("k",),
    "star": ("m",),
    "clique": ("k",),
    "bounded_degree": ("d", "m"),
    "fixed_edge_count": ("m",),
    "two_clique_adversary": ("k",),
}

FAMILIES = {kind: _graph_family(kind, keys) for kind, keys in _GENERATED.items()} | {
    # every labelled graph on r vertices, embedded in n
    "all_small_graphs": Family(("r",), _draw_small_graph),
    "matching_union": Family(("d",), _draw_matching_union),
    "defect_set": Family(("k",), _draw_defect_set),
    "majority_junta": Family(("k",), _draw_majority_junta),
}


@dataclass(frozen=True)
class Learner:
    """One row of the learner table.

    ``solve(oracle, hidden, point, cfg, side)`` runs the learner; it reads
    ``hidden`` only for the ``m_hint`` default.  A trial succeeds when the
    answer equals ``hidden``, so a graph learner answers with a ``Graph``,
    ``cgt`` with the defect mask and the junta learner with its support.
    ``metric`` is the ledger counter the summary averages (terms summed
    with ``+``).  ``columns`` names the point keys echoed into the
    ``d``/``k`` CSV columns; ``m`` is the hidden graph's edge count (empty
    for defect masks and juntas).  A trial that raises a
    :class:`GqlabError` echoes the point's own ``m``, ``d`` and ``k``.
    ``needs`` names the point keys ``solve`` reads without a default and
    ``optional`` those it reads with one.
    """

    families: tuple[str, ...]
    metric: str
    solve: Callable
    columns: tuple[str, ...] = ()
    needs: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()


def _slack(cfg: ExperimentConfig) -> dict:
    return {} if cfg.slack is None else {"slack": cfg.slack}


def _m_hint(point: dict, hidden: Graph) -> int:
    # the hidden edge count is read only when the point gives no hint
    return point["m_hint"] if "m_hint" in point else hidden.m


# Solvers name learners through their modules (or this module's globals) so
# that a learner patched after import is the one that runs.
LEARNERS = {
    "or_full": Learner(
        tuple(_GENERATED), "or_query",
        lambda h, g, p, cfg, side: or_learners.learn_graph_or(
            h, m_hint=_m_hint(p, g), backend=cfg.backend),
        columns=("d", "k"), optional=("m_hint",)),
    "or_star": Learner(
        ("star",), "or_query+charged_quantum",
        lambda h, g, p, cfg, side: or_learners.learn_star_or(h, backend=cfg.backend)),
    "or_clique": Learner(
        ("clique",), "or_query+charged_quantum",
        lambda h, g, p, cfg, side: or_learners.learn_clique_or(
            h, p["k"], backend=cfg.backend),
        columns=("k",), needs=("k",)),
    "parity_arbitrary": Learner(
        tuple(_GENERATED), "parity_query",
        lambda h, g, p, cfg, side: parity_learners.learn_arbitrary_parity(h),
        columns=("d", "k")),
    "parity_bounded_edges": Learner(
        ("fixed_edge_count", "matching", "star", "bounded_degree", "hamiltonian_cycle"),
        "parity_query",
        lambda h, g, p, cfg, side: parity_learners.learn_bounded_edges_parity(
            h, m=p["m"], **_slack(cfg)),
        needs=("m",)),
    "graphstate_bounded_degree": Learner(
        ("bounded_degree", "matching", "hamiltonian_cycle", "star"),
        "graph_state_copy",
        lambda h, g, p, cfg, side: parity_learners.learn_bounded_degree(
            h, p["d"], m_hint=_m_hint(p, g), **_slack(cfg)),
        columns=("d",), needs=("d",), optional=("m_hint",)),
    "graphstate_star": Learner(
        ("star",), "graph_state_copy",
        lambda h, g, p, cfg, side: parity_learners.learn_star_graphstate(h)),
    "graphstate_clique": Learner(
        ("clique",), "graph_state_copy",
        lambda h, g, p, cfg, side: parity_learners.learn_clique_graphstate(h),
        columns=("k",)),
    "bell_family": Learner(
        ("all_small_graphs",), "graph_state_copy",
        lambda h, g, p, cfg, family: parity_learners.learn_from_family(
            h, family, k=p.get("k")),
        columns=("k",), optional=("k",)),
    "subgraph_known": Learner(
        ("matching_union",), "graph_state_copy",
        lambda h, g, p, cfg, base: parity_learners.learn_subgraph_of(
            h, base, d=p["d"], **_slack(cfg)),
        columns=("d",), needs=("d",)),
    "cgt": Learner(
        ("defect_set",), "charged_quantum",
        lambda tests, defects, p, cfg, ledger: cgt_mod.cgt_solve(
            (1 << p["n"]) - 1, tests[0], k=p["k"] if p.get("known_k") else None,
            backend=cfg.backend, ledger=ledger, block=tests[1]),
        columns=("k",), needs=("k",), optional=("known_k",)),
    "junta_symmetric": Learner(
        ("majority_junta",), "charged_quantum",
        lambda h, support, p, cfg, side: learn_symmetric_junta(
            h, l=(p["k"] + 1) // 2),
        columns=("k",), needs=("k",)),
}

# every grid-point key some family or learner reads; any other key is refused
# rather than silently ignored.  All but ``known_k`` are integers.
_POINT_KEYS = frozenset({"n"}).union(
    *(row.keys for row in FAMILIES.values()),
    *(row.needs + row.optional for row in LEARNERS.values()),
)


# -- the runner ----------------------------------------------------------------------


def _run_trial(cfg: ExperimentConfig, point_idx: int, trial_idx: int) -> TrialRecord:
    ss = np.random.SeedSequence(cfg.seed, spawn_key=(point_idx, trial_idx))
    seed_val = int(ss.generate_state(1, np.uint64)[0])
    rng = np.random.Generator(np.random.Philox(ss))
    ledger = QueryLedger()
    point = cfg.grid[point_idx]
    row = LEARNERS[cfg.learner]
    where = f"{cfg.learner} point {point_idx} trial {trial_idx} seed {seed_val}"
    t0 = time.perf_counter() if cfg.record_wall_time else 0.0
    try:
        oracle, hidden, side = FAMILIES[cfg.family].draw(point, rng, ledger)
        success = row.solve(oracle, hidden, point, cfg, side) == hidden
        m = hidden.m if isinstance(hidden, Graph) else None
        d = point.get("d") if "d" in row.columns else None
        k = point.get("k") if "k" in row.columns else None
    except GqlabError:
        success, m, d, k = False, point.get("m"), point.get("d"), point.get("k")
    except Exception as exc:
        raise RuntimeError(f"{where}: {exc!r}") from exc
    ms = round((time.perf_counter() - t0) * 1000.0, 3) if cfg.record_wall_time else 0.0
    if ledger.counts["reveal_used"]:
        raise ViolationError(
            f"{where}: learner used {ledger.counts['reveal_used']} reveal(s)"
        )
    return TrialRecord(
        trial=point_idx * cfg.trials + trial_idx,
        seed=seed_val,
        n=point["n"],
        m=m,
        d=d,
        k=k,
        ledger=ledger.snapshot(),
        success=bool(success),
        ms=ms,
    )


def run(cfg: ExperimentConfig) -> tuple[list[TrialRecord], dict]:
    """Run the sweep; returns records ordered by (point, trial) and a summary.

    The summary carries per-point success rates and query medians, the
    log-log slope of the mean metric against the sweep key when one is
    configured, and the verdict on any configured thresholds.  A trial that
    raises anything but a :class:`GqlabError` stops the sweep with a
    ``RuntimeError``, and one whose learner used an audited reveal with a
    :class:`ViolationError`; both messages name the learner, point, trial
    and seed.
    """
    cfg.validate()
    if cfg.trials == 0:
        return [], {}
    records = [
        _run_trial(cfg, pi, ti)
        for pi in range(len(cfg.grid))
        for ti in range(cfg.trials)
    ]

    metric = LEARNERS[cfg.learner].metric
    terms = metric.split("+")
    points_summary = []
    failures: list[str] = []
    means = []
    for pi, point in enumerate(cfg.grid):
        chunk = records[pi * cfg.trials : (pi + 1) * cfg.trials]
        rate = sum(r.success for r in chunk) / len(chunk)
        mean_metric = sum(r.ledger.get(t, 0) for r in chunk for t in terms) / len(chunk)
        means.append(mean_metric)
        entry = {
            "point": dict(point),
            "trials": len(chunk),
            "success_rate": rate,
            "mean_metric": mean_metric,
        }
        for column, counter in _CSV_COUNTERS.items():
            entry[f"median_{column}"] = float(
                statistics.median(r.ledger.get(counter, 0) for r in chunk)
            )
        points_summary.append(entry)
        if cfg.min_success is not None and rate < cfg.min_success:
            failures.append(
                f"point {pi} success rate {rate:.4f} below {cfg.min_success}"
            )

    slope = None
    if cfg.sweep is not None and len(cfg.grid) >= 2:
        xs = [float(point[cfg.sweep]) for point in cfg.grid]
        if len(set(xs)) >= 2 and all(v > 0 for v in xs) and all(v > 0 for v in means):
            slope = float(
                np.polyfit(np.log2(xs), np.log2(means), 1)[0]
            )
    if cfg.slope_range is not None:
        lo, hi = cfg.slope_range
        if slope is None:
            failures.append("slope requested but not computable")
        elif not lo <= slope <= hi:
            failures.append(f"slope {slope:.4f} outside [{lo}, {hi}]")

    summary = {
        "learner": cfg.learner,
        "family": cfg.family,
        "metric": metric,
        "sweep": cfg.sweep,
        "total_trials": len(records),
        "points": points_summary,
        "slope": slope,
        "thresholds_met": not failures,
        "threshold_failures": failures,
    }
    return records, summary


# -- emission --------------------------------------------------------------------------


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def emit(
    records: list[TrialRecord],
    path: str,
    fmt: str = "csv",
    allow_empty: bool = False,
) -> str:
    """Write records to ``path``; CSV keeps the pinned column order."""
    if not records and not allow_empty:
        raise ValueError("refusing to emit zero records without allow_empty")
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for r in records:
            row = [r.seed, r.n, r.m, r.d, r.k]
            row += [r.ledger.get(counter, 0) for counter in _CSV_COUNTERS.values()]
            row += [r.success, r.ms]
            lines.append(",".join(_csv_cell(v) for v in row))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = records_to_json(records)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def records_to_json(records: list[TrialRecord]) -> str:
    return json.dumps({"records": [asdict(r) for r in records]}, indent=2) + "\n"


def records_from_json(text: str) -> list[TrialRecord]:
    data = json.loads(text)
    return [TrialRecord(**entry) for entry in data["records"]]
