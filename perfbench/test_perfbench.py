"""Tests of the benchmark's own code: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json

import pytest

import run
import workloads
from tracer import Tracer

run.import_gqlab()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_on_a_nested_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        leaf()
        clock.advance(0.5)

    def root():
        clock.advance(4.0)
        middle()
        leaf()
        clock.advance(0.25)

    leaf, middle, root = (tracer.wrap(f.__name__, f) for f in (leaf, middle, root))
    root()
    root()

    stats = tracer.stats
    assert (stats["leaf"].calls, stats["middle"].calls, stats["root"].calls) == (4, 2, 2)
    assert stats["leaf"].total_s == stats["leaf"].self_s == 4.0
    assert stats["middle"].total_s == 2 * 3.5
    assert stats["middle"].self_s == 2 * 2.5
    assert stats["root"].total_s == 2 * 8.75
    assert stats["root"].self_s == 2 * 4.25
    # self times partition the root spans exactly
    assert sum(s.self_s for s in stats.values()) == stats["root"].total_s


def test_self_time_survives_an_exception_in_a_child():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def failing():
        clock.advance(1.0)
        raise ValueError("boom")

    failing = tracer.wrap("failing", failing)

    def outer():
        clock.advance(2.0)
        with pytest.raises(ValueError):
            failing()

    tracer.wrap("outer", outer)()
    assert tracer.stats["failing"].self_s == 1.0
    assert tracer.stats["outer"].self_s == 2.0


def _current(targets):
    return {(id(owner), attr): getattr(owner, attr) for places in targets.values()
            for owner, attr in places}


def test_tracing_restores_every_original():
    targets = workloads.span_targets()
    before = _current(targets)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(targets):
            during = _current(targets)
            assert all(during[key] is not before[key] for key in before)
            raise RuntimeError("leave the block early")
    after = _current(targets)
    assert all(after[key] is before[key] for key in before)


def test_traced_pass_sees_every_layer_of_its_workload(tmp_path):
    presets = workloads.load_presets("or_small", workloads.DEFAULT_SEED)
    presets = [(name, dataclasses.replace(cfg, trials=2)) for name, cfg in presets]
    tracer = Tracer()
    with tracer.installed(workloads.span_targets()):
        result = workloads.run_pass(presets, tmp_path)
    stats = tracer.stats
    assert stats["harness.trial"].calls == result.trials == 2 * (4 + 3 + 4 + 3 + 1)
    for span in ("oracles.or_query", "or_learners.learn_star_or",
                 "or_learners.learn_graph_or", "cgt.cgt_solve",
                 "fourier.learn_symmetric_junta",
                 "oracles.amplified_level_sample", "parity_learners.learn_from_family",
                 "graphs.enumerate_all_graphs", "harness.emit"):
        assert stats[span].calls > 0, span


def test_default_seed_keeps_the_committed_preset_seeds():
    for workload, presets in workloads.WORKLOADS.items():
        loaded = workloads.load_presets(workload, workloads.DEFAULT_SEED)
        for (name, _), (_, cfg) in zip(presets, loaded):
            committed = json.loads((workloads.ROOT / "scripts" / f"{name}.json").read_text())
            assert cfg.seed == committed["seed"]
            assert cfg.trials <= committed["trials"]


def test_other_seeds_derive_new_distinct_preset_seeds():
    names = [name for presets in workloads.WORKLOADS.values() for name, _ in presets]
    for bench_seed in (1, 2, 12345):
        seeds = [workloads.preset_seed(bench_seed, name, 0) for name in names]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [workloads.preset_seed(bench_seed, name, 0) for name in names]
    assert workloads.preset_seed(1, names[0], 0) != workloads.preset_seed(2, names[0], 0)


def _fake_pass(trials):
    from gqlab.oracles import QUERY_KINDS

    return workloads.PassResult(
        wall_s=1.0, point_ms=[[1.0] * trials], unsuccessful=0, reveal_trials=0,
        ledger_totals={kind: 0 for kind in QUERY_KINDS}, digest="", thresholds=[],
    )


def test_benchmark_json_lists_the_metrics_a_run_prints():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    passes = [_fake_pass(20)]
    timed = run.end_to_end(passes, cpu_s=1.0, setup=[0.5])
    assert [m["name"] for m in spec["end_to_end"]] == list(timed)
    assert all(m["unit"] == timed[m["name"]][1] for m in spec["end_to_end"])

    tracer = Tracer()
    for name in workloads.span_targets():
        tracer.wrap(name, lambda: None)
    traced = run.per_layer(passes, passes, tracer.stats)
    assert [m["name"] for m in spec["per_layer"]] == list(traced)
    assert all(m["unit"] == traced[m["name"]][1] for m in spec["per_layer"])
