import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from gqlab import harness
from gqlab.errors import ViolationError
from gqlab.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    TrialRecord,
    config_from_json,
    emit,
    records_from_json,
    records_to_json,
    run,
)
from gqlab import cli


def small_config(**overrides):
    base = dict(
        learner="parity_arbitrary",
        family="fixed_edge_count",
        grid=({"n": 12, "m": 8},),
        trials=6,
        seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_zero_trials_is_empty():
    records, summary = run(small_config(trials=0))
    assert records == []
    assert summary == {}


def test_records_are_ordered_and_exact():
    cfg = small_config()
    records, summary = run(cfg)
    assert [r.trial for r in records] == list(range(6))
    assert all(r.success for r in records)
    assert all(r.ledger["parity_query"] == 24 for r in records)
    assert summary["points"][0]["success_rate"] == 1.0
    assert summary["thresholds_met"]


def test_same_seed_same_bytes(tmp_path):
    cfg = small_config(trials=10)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(run(cfg)[0], str(a))
    emit(run(cfg)[0], str(b))
    assert a.read_bytes() == b.read_bytes()


def test_reversed_trial_order_matches_serial():
    cfg = small_config(trials=12)
    jobs = [(pi, ti) for pi in range(len(cfg.grid)) for ti in range(cfg.trials)]
    by_job = {job: harness._run_trial(cfg, *job) for job in reversed(jobs)}
    assert [by_job[job] for job in jobs] == run(cfg)[0]


def test_different_seed_differs():
    base = run(small_config())[0]
    moved = run(small_config(seed=100))[0]
    assert [r.seed for r in base] != [r.seed for r in moved]


def test_csv_shape_and_header(tmp_path):
    cfg = small_config(trials=1)
    records, _ = run(cfg)
    path = tmp_path / "one.csv"
    emit(records, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_COLUMNS)
    assert cells[1] == "12"          # n
    assert cells[6] == "24"          # parity queries
    assert cells[9] == "1"           # success
    assert cells[10] == "0.000"      # wall time zeroed by default


def test_json_round_trip():
    records, _ = run(small_config())
    again = records_from_json(records_to_json(records))
    assert again == records


def test_emit_many_rows(tmp_path):
    records = [
        TrialRecord(
            trial=i, seed=i, n=4, m=None, d=None, k=2,
            ledger={"or_query": i}, success=True, ms=0.0,
        )
        for i in range(10_000)
    ]
    path = tmp_path / "big.csv"
    emit(records, str(path))
    assert sum(1 for _ in open(path)) == 10_001


def test_emit_refuses_empty_without_flag(tmp_path):
    with pytest.raises(ValueError):
        emit([], str(tmp_path / "x.csv"))
    emit([], str(tmp_path / "x.csv"), allow_empty=True)
    assert (tmp_path / "x.csv").read_text().splitlines() == [",".join(CSV_COLUMNS)]


# grid-point keys the learners and families read as integers
INT_POINT_KEYS = ("n", "m", "d", "k", "r", "l", "m_hint", "design_d")

# fields of the right name but the wrong type, arity or range
MALFORMED = (
    {"slope_range": [0.5, 1.0, 2.0]},
    {"slope_range": [2.0, 0.5]},
    {"trials": "2"},
    {"trials": 2.5},
    {"seed": "x"},
    {"min_success": "high"},
    {"min_success": 1.5},
    {"c": 0},
    {"c": "1"},
    {"backend": "quantm_ideal"},
    *(
        {"grid": [{"n": 12, "m": 8} | {key: bad}]}
        for key in INT_POINT_KEYS
        for bad in ("3", True, 3.0)
    ),
)


def test_validation_rejects_bad_configs():
    with pytest.raises(ValueError):
        run(small_config(learner="nope"))
    with pytest.raises(ValueError):
        run(small_config(learner="or_star", family="clique"))
    with pytest.raises(ValueError):
        run(small_config(sweep="m_missing"))
    with pytest.raises(ValueError):
        run(small_config(metric="bogus_counter"))
    with pytest.raises(ValueError):
        run(small_config(grid=()))
    for bad in MALFORMED + ({"trials": True}, {"seed": -1}, {"slope_range": ("a", 1)}):
        with pytest.raises(ValueError):
            run(small_config(**bad))


def test_every_preset_validates():
    for path in sorted((Path(__file__).parents[1] / "scripts").glob("*.json")):
        config_from_json(path.read_text()).validate()


def test_config_json_round_trip():
    cfg = small_config(sweep="m", slope_range=(0.4, 0.65), metric="parity_query")
    assert config_from_json(cfg.to_json()) == cfg
    with pytest.raises(ValueError):
        config_from_json(json.dumps({"learner": "cgt", "mystery": 1}))


def test_star_sweep_counts_quantum_charges():
    cfg = ExperimentConfig(
        learner="or_star",
        family="star",
        grid=({"n": 40, "m": 4}, {"n": 40, "m": 16}),
        trials=15,
        seed=5,
        backend="quantum_ideal",
        sweep="m",
    )
    records, summary = run(cfg)
    assert summary["metric"] == "or_query+charged_quantum"
    assert all(r.success for r in records)
    small, big = (p["mean_metric"] for p in summary["points"])
    assert big > small
    assert summary["slope"] > 0


def test_group_testing_sweep_records_k():
    cfg = ExperimentConfig(
        learner="cgt",
        family="defect_set",
        grid=({"n": 64, "k": 4, "known_k": True},),
        trials=8,
        seed=3,
        backend="quantum_ideal",
    )
    records, summary = run(cfg)
    assert all(r.success and r.k == 4 for r in records)
    assert all(r.ledger["charged_quantum"] == 2 for r in records)
    assert all(r.ledger["or_query"] == 0 for r in records)


def test_junta_sweep_grows_with_arity():
    cfg = ExperimentConfig(
        learner="junta_symmetric",
        family="majority_junta",
        grid=({"n": 64, "k": 9}, {"n": 64, "k": 17}),
        trials=10,
        seed=11,
        sweep="k",
    )
    records, summary = run(cfg)
    assert all(r.success for r in records)
    assert summary["points"][1]["mean_metric"] > summary["points"][0]["mean_metric"]


def test_threshold_verdicts():
    _, summary = run(small_config(min_success=0.5))
    assert summary["thresholds_met"]
    cfg = ExperimentConfig(
        learner="bell_family",
        family="all_small_graphs",
        grid=({"n": 3, "r": 3, "k": 1},),
        trials=5,
        seed=0,
        min_success=0.9,
    )
    _, summary = run(cfg)
    # one sample can never split eight candidate graphs
    assert summary["points"][0]["success_rate"] == 0.0
    assert not summary["thresholds_met"]


# -- command line ----------------------------------------------------------------


def write_config(tmp_path, **overrides):
    cfg = small_config(**overrides)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    return path


def test_cli_run_writes_csv(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "records.csv"
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith(",".join(CSV_COLUMNS))
    summary = json.loads(capsys.readouterr().out)
    assert summary["total_trials"] == 6


def test_cli_overrides_and_json_format(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "records.json"
    code = cli.main(
        [
            "run", "--config", str(cfg_path), "--out", str(out),
            "--format", "json", "--trials", "3", "--seed", "17",
        ]
    )
    assert code == 0
    records = records_from_json(out.read_text())
    assert len(records) == 3
    direct, _ = run(small_config(trials=3, seed=17))
    assert records == direct
    capsys.readouterr()


def test_cli_exit_codes(tmp_path, capsys):
    missing = cli.main(["run", "--config", str(tmp_path / "absent.json")])
    assert missing == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{\"learner\": \"nope\"}")
    assert cli.main(["run", "--config", str(bad)]) == 2
    base = json.loads(small_config().to_json())
    for fields in MALFORMED:
        bad.write_text(json.dumps({**base, **fields}))
        assert cli.main(["run", "--config", str(bad)]) == 2, fields
        assert capsys.readouterr().err.startswith("gqlab: ")
    threshold_cfg = ExperimentConfig(
        learner="bell_family",
        family="all_small_graphs",
        grid=({"n": 3, "r": 3, "k": 1},),
        trials=4,
        seed=0,
        min_success=0.9,
    )
    path = tmp_path / "thresh.json"
    path.write_text(threshold_cfg.to_json())
    assert cli.main(["run", "--config", str(path)]) == 1
    capsys.readouterr()


def test_cli_usage_error_is_2(capsys):
    assert cli.main(["run"]) == 2
    assert cli.main([]) == 2
    capsys.readouterr()



# -- one pinned sweep per learner -------------------------------------------------

# learner -> (family, grid, slack, sha256 of the emitted CSV).  Points carry
# extra m/d/k keys so the digests pin which of them each learner echoes; the
# slack learners run at slack 0, where some trials raise and fall back to the
# point's own m/d/k.
GOLDEN = {
    "or_full": (
        "fixed_edge_count", [{"n": 10, "m": 4, "d": 2, "k": 3}], None,
        "58925d627208c03b11a0528b3b1a41a2a0327fdc83b8d459ca2c3ef0309581c7",
    ),
    "or_star": (
        "star", [{"n": 12, "m": 4, "d": 1, "k": 5}], None,
        "9f4c2ac5f3b87b6bfa8c7a5cc886f7e9cbc806b51e510ccaab4301832f246782",
    ),
    "or_clique": (
        "clique", [{"n": 12, "k": 4, "d": 2, "m": 1}], None,
        "7a6e968134e1c1effce1786dd1db9e5b66e2c9279a50de76071e7c983707c76d",
    ),
    "parity_arbitrary": (
        "fixed_edge_count", [{"n": 8, "m": 5, "d": 3, "k": 2}], None,
        "f19d9d6c92d812dc303221514f0b079209a78b4f4fd1400f105800b6369c1217",
    ),
    "parity_bounded_edges": (
        "fixed_edge_count", [{"n": 24, "m": 10, "d": 2, "k": 3}], 0,
        "9d85bd2aa46483717113e5ccfa172235197bae6fedc9115cf273524b06e67093",
    ),
    "graphstate_bounded_degree": (
        "bounded_degree", [{"n": 16, "d": 2, "m": 6, "k": 3}], 0,
        "975dac8b1f6fcd63bf142d13ce4191502e9f4bc59c5b90141b7d3f036135a380",
    ),
    "graphstate_star": (
        "star", [{"n": 10, "m": 3, "d": 1, "k": 2}], None,
        "bbdddb7ea1a55b23b9bbe2e16f894f159ab21e4fd33fd203e637fea3de9d84ef",
    ),
    "graphstate_clique": (
        "clique", [{"n": 10, "k": 4, "d": 2, "m": 1}], None,
        "fa18eb4698fc0ad90d85f90ab1ea9f481dd7a83ec530855d82e9bd17a6ea3775",
    ),
    "bell_family": (
        "all_small_graphs", [{"n": 5, "r": 3, "k": 2, "d": 1, "m": 2}, {"n": 4, "r": 3}],
        None,
        "1ca79258fdd81e5541e8b3d7a25bb9659d291d0fd1f9ff3a6bcf6b7cc47e86e8",
    ),
    "subgraph_known": (
        "matching_union", [{"n": 12, "d": 2, "k": 3, "m": 1}], 0,
        "29610f2fed8cc00511152482193b2230b70add931124f74459c23a6c946ed63b",
    ),
    "cgt": (
        "defect_set", [{"n": 32, "k": 3, "known_k": True, "m": 2, "d": 1}], None,
        "b8702d82bf7ed0617d5e98178a8a71dc14a4d7d371d3876858a007997aa088bf",
    ),
    "junta_symmetric": (
        "majority_junta", [{"n": 16, "k": 3, "m": 1, "d": 2}], None,
        "ac9fbce4fde461e8279913655ff390c9f0313977057817f7203430a6b25479e2",
    ),
}


def test_golden_covers_every_learner():
    assert set(GOLDEN) == set(harness.LEARNERS)


# graphstate_bounded_degree with d > n/4 reads the whole matrix
WIDE_DEGREE_POINT = {"n": 8, "d": 3, "m": 6}


@pytest.mark.parametrize("learner", sorted(
    name for name, row in harness.LEARNERS.items()
    if row.metric in ("graph_state_copy", "parity_query")
))
def test_trials_charge_only_their_query_model(learner):
    # graph-state learners spend copies and no classical query; parity
    # learners spend parity queries and no copy
    metric = harness.LEARNERS[learner].metric
    family, grid, slack, _ = GOLDEN[learner]
    if learner == "graphstate_bounded_degree":
        grid = grid + [WIDE_DEGREE_POINT]
    cfg = ExperimentConfig(
        learner=learner, family=family, grid=tuple(grid), trials=4, seed=7, slack=slack
    )
    records, summary = run(cfg)
    for r in records:
        assert r.ledger[metric] > 0
        if metric == "graph_state_copy":
            assert r.ledger["parity_query"] == r.ledger["or_query"] == 0
        else:
            assert r.ledger["graph_state_copy"] == 0
    assert all(p["mean_metric"] > 0 for p in summary["points"])


@pytest.mark.parametrize("learner", sorted(GOLDEN))
def test_learner_csv_is_pinned(learner, tmp_path):
    family, grid, slack, digest = GOLDEN[learner]
    cfg = ExperimentConfig(
        learner=learner, family=family, grid=tuple(grid), trials=6, seed=2024,
        slack=slack,
    )
    path = tmp_path / f"{learner}.csv"
    emit(run(cfg)[0], str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# The per-learner pins above stop at d = 2; these two presets, cut to 10 trials
# per point, decode rows up to d = 4 (preset -> sha256 of the emitted CSV).
PRESET_GOLDEN = {
    "sweep_bounded_degree_copies":
        "cafe8d20525301959a4496056e531c67699e459c409c08672c27f7e19ab4fe67",
    "sweep_bounded_edges_parity":
        "ae0b72519fcb41b251de9e2a0334ee86d2a4b547f7093939cf09d3433984dd37",
}


def _preset_digest(preset: str, tmp_path: Path) -> str:
    """sha256 of the preset's CSV with its trials cut to 10 per point."""
    text = (Path(__file__).parents[1] / "scripts" / f"{preset}.json").read_text()
    cfg = dataclasses.replace(config_from_json(text), trials=10)
    path = tmp_path / f"{preset}.csv"
    emit(run(cfg)[0], str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("preset", sorted(PRESET_GOLDEN))
def test_bounded_degree_preset_csv_is_pinned(preset, tmp_path):
    assert _preset_digest(preset, tmp_path) == PRESET_GOLDEN[preset]


# The OR-query presets cut to 10 trials per point: star learning, the
# two-clique adversary and quantum group testing (preset -> sha256 of the CSV).
OR_PRESET_GOLDEN = {
    "sweep_star_or":
        "6a2365d1e4d13d3c0db96341309f6032a84c367dc81b53fb4ef7560c0fab4f0b",
    "adversary_or":
        "cb0b48f691aaece4f0690735ede20c91d6ce475b955ffd4a63af0983b39a92bd",
    "cgt_quantum_doubling":
        "9d0d3deb3bf7e80923c96a45b903e3b8c5dddf5ded629ff9116fd2cc01a61d13",
}


@pytest.mark.parametrize("preset", sorted(OR_PRESET_GOLDEN))
def test_or_preset_csv_is_pinned(preset, tmp_path):
    assert _preset_digest(preset, tmp_path) == OR_PRESET_GOLDEN[preset]


# The remaining presets cut to 10 trials per point: parity-query blocks, Bell
# blocks against a finite family, and symmetric juntas (preset -> sha256).
GATE_PRESET_GOLDEN = {
    "gate_bounded_edges":
        "8f9401c9934dde4ed50e0987b89a295447ccca4dfc46172914fc74cc0677b7df",
    "gate_family_small_graphs":
        "24cd8c83b06a79ace8ac85243bbe6c578454474b01bf4a2d645e21a8af31494c",
    "sweep_junta_majority":
        "ac41bc7f00ed340650f08ad437a040142d5dc29d4d8b71aededea0590682b740",
}


@pytest.mark.parametrize("preset", sorted(GATE_PRESET_GOLDEN))
def test_gate_preset_csv_is_pinned(preset, tmp_path):
    assert _preset_digest(preset, tmp_path) == GATE_PRESET_GOLDEN[preset]


def test_every_preset_is_pinned():
    presets = {p.stem for p in (Path(__file__).parents[1] / "scripts").glob("*.json")}
    assert presets == set(PRESET_GOLDEN) | set(OR_PRESET_GOLDEN) | set(GATE_PRESET_GOLDEN)


# -- trials that raise or cheat ----------------------------------------------------


def test_trial_error_names_its_trial(tmp_path, capsys):
    cfg = ExperimentConfig(
        learner="or_full", family="matching", grid=({"n": 8},), trials=2, seed=5
    )
    seed = np.random.SeedSequence(5, spawn_key=(0, 0)).generate_state(1, np.uint64)[0]
    with pytest.raises(RuntimeError) as info:
        run(cfg)
    assert str(info.value).startswith(f"or_full point 0 trial 0 seed {seed}: ")
    assert "matching needs m" in str(info.value)
    assert isinstance(info.value.__cause__, ValueError)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "or_full point 0 trial 0" in capsys.readouterr().err


def test_reveal_in_a_trial_is_a_violation(monkeypatch):
    row = harness.LEARNERS["parity_arbitrary"]

    def cheat(h, hidden, point, cfg, side):
        return h.peek_graph()

    monkeypatch.setitem(
        harness.LEARNERS, "parity_arbitrary", dataclasses.replace(row, solve=cheat)
    )
    with pytest.raises(ViolationError, match="parity_arbitrary point 0 trial 0 seed"):
        run(small_config())
