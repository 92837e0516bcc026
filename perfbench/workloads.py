"""Workloads of the gqlab benchmark and one pass over a workload's presets.

A workload is a list of committed presets from ``scripts/``, each run with
fewer trials per grid point than committed.  Because every trial's RNG
stream is keyed by (point, trial), the reduced run reproduces the first rows
of each grid point of the full preset.  Why each workload exists is recorded
in ``BENCHMARK.json``; the trial counts size one pass at roughly 1.5-3 s on
a 2-core x86 VM, so a 55-s run repeats a pass a few dozen times.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# --seed value that keeps each preset's committed seed
DEFAULT_SEED = 0

# workload -> ((preset, trials per grid point in one pass), ...)
WORKLOADS: dict[str, tuple[tuple[str, int], ...]] = {
    "parity_gate": (("gate_bounded_edges", 100),),
    "or_small": (
        ("sweep_star_or", 25),
        ("adversary_or", 25),
        ("sweep_junta_majority", 100),
        ("cgt_quantum_doubling", 100),
        ("gate_family_small_graphs", 400),
    ),
}


def preset_seed(bench_seed: int, preset: str, committed: int) -> int:
    """The master seed a preset runs with under the benchmark seed."""
    if bench_seed == DEFAULT_SEED:
        return committed
    digest = hashlib.sha256(f"{bench_seed}/{preset}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def load_presets(workload: str, bench_seed: int) -> list:
    """The workload's presets as validated, reduced-trial configs."""
    from gqlab.harness import config_from_json

    presets = []
    for name, trials in WORKLOADS[workload]:
        cfg = config_from_json((ROOT / "scripts" / f"{name}.json").read_text())
        if not 0 < trials <= cfg.trials:
            raise ValueError(f"{name}: {trials} trials outside 1..{cfg.trials}")
        cfg = dataclasses.replace(
            cfg,
            trials=trials,
            seed=preset_seed(bench_seed, name, cfg.seed),
            record_wall_time=True,
        )
        cfg.validate()
        presets.append((name, cfg))
    return presets


def warm_up(presets, outdir: Path) -> None:
    """One discarded trial per preset, on its first grid point, then emitted."""
    from gqlab import harness

    for name, cfg in presets:
        cfg = dataclasses.replace(cfg, grid=cfg.grid[:1], trials=1)
        records, _ = harness.run(cfg)
        harness.emit(records, str(outdir / f"warmup-{name}.csv"))


def span_targets() -> dict[str, list[tuple[object, str]]]:
    """Span name -> every place callers look the traced function up."""
    from gqlab import cgt, f2, fourier, graphs, harness, oracles, or_learners
    from gqlab import parity_learners

    return {
        "harness.trial": [(harness, "_run_trial")],
        "harness.emit": [(harness, "emit")],
        "graphs.generate": [(graphs, "generate"), (harness, "generate")],
        "graphs.enumerate_all_graphs": [
            (graphs, "enumerate_all_graphs"),
            (harness, "enumerate_all_graphs"),
        ],
        "oracles.or_query": [(oracles.GraphOracle, "or_query")],
        "oracles.bell_sample": [(oracles.GraphOracle, "bell_sample")],
        "oracles.parity_vector_query": [(oracles.GraphOracle, "parity_vector_query")],
        "oracles.fourier_sample_or": [(oracles.GraphOracle, "fourier_sample_or")],
        "oracles.amplified_level_sample": [
            (oracles.JuntaOracle, "amplified_level_sample")
        ],
        "f2.random_vector": [(f2, "random_vector")],
        "parity_learners.collect_samples": [(parity_learners, "collect_samples")],
        "parity_learners.learn_bounded_degree": [
            (parity_learners, "learn_bounded_degree")
        ],
        "parity_learners.learn_bounded_edges_parity": [
            (parity_learners, "learn_bounded_edges_parity")
        ],
        "parity_learners.learn_from_family": [(parity_learners, "learn_from_family")],
        "or_learners.learn_graph_or": [(or_learners, "learn_graph_or")],
        "or_learners.learn_star_or": [(or_learners, "learn_star_or")],
        "cgt.cgt_solve": [(cgt, "cgt_solve"), (or_learners, "cgt_solve")],
        "fourier.learn_symmetric_junta": [
            (fourier, "learn_symmetric_junta"),
            (harness, "learn_symmetric_junta"),
        ],
    }


def ledger_digest(csvs: list[tuple[str, str]]) -> str:
    """sha256 over (preset name, emitted CSV) pairs with the ms column blanked."""
    digest = hashlib.sha256()
    for name, text in csvs:
        lines = text.splitlines()
        ms_col = lines[0].split(",").index("ms")
        digest.update(f"{name}\n{lines[0]}\n".encode())
        for line in lines[1:]:
            cells = line.split(",")
            cells[ms_col] = ""
            digest.update((",".join(cells) + "\n").encode())
    return digest.hexdigest()


@dataclasses.dataclass
class PassResult:
    """What one pass over a workload's presets measured and produced."""

    wall_s: float
    point_ms: list[list[float]]  # per-trial ms, one list per grid point
    unsuccessful: int
    reveal_trials: int
    ledger_totals: dict[str, int]
    digest: str
    thresholds: list[tuple[str, bool]]

    @property
    def trial_ms(self) -> list[float]:
        return [ms for point in self.point_ms for ms in point]

    @property
    def trials(self) -> int:
        return sum(len(point) for point in self.point_ms)


def run_pass(presets, outdir: Path) -> PassResult:
    """Run and emit every preset once; the wall clock covers both."""
    from gqlab import harness

    runs = []
    start = time.perf_counter()
    for name, cfg in presets:
        records, summary = harness.run(cfg)
        path = outdir / f"{name}.csv"
        harness.emit(records, str(path))
        runs.append((name, cfg.trials, records, summary, path))
    wall_s = time.perf_counter() - start

    point_ms, totals = [], {}
    unsuccessful = reveal_trials = 0
    for _, trials, records, _, _ in runs:
        # records come ordered by (grid point, trial)
        point_ms += [[r.ms for r in records[i:i + trials]]
                     for i in range(0, len(records), trials)]
        for r in records:
            unsuccessful += not r.success
            reveal_trials += r.ledger.get("reveal_used", 0) != 0
            for kind, count in r.ledger.items():
                totals[kind] = totals.get(kind, 0) + count
    return PassResult(
        wall_s=wall_s,
        point_ms=point_ms,
        unsuccessful=unsuccessful,
        reveal_trials=reveal_trials,
        ledger_totals=totals,
        digest=ledger_digest([(run[0], run[4].read_text()) for run in runs]),
        thresholds=[(run[0], run[3]["thresholds_met"]) for run in runs],
    )


def pass_trials(presets) -> int:
    return sum(cfg.trials * len(cfg.grid) for _, cfg in presets)
