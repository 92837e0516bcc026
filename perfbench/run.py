"""Run one workload of the gqlab benchmark, or all of them.

    python3 perfbench/run.py --workload parity_gate --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 55

A workload run drives the public sweep path (``gqlab.harness.run`` with its
default serial runner, then ``gqlab.harness.emit``) over the workload's
presets, repeating one pass while another fits in ``--seconds``.  It prints
readable lines and, last, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with nothing wrapped.
``--trace 1`` times untraced passes for half the time, then wraps the entry
points in ``workloads.span_targets`` for the other half and reports the
per-layer metrics.  ``--workload all`` runs every workload timed and then
traced, each in its own process, prints every metric, and checks that the
two runs emitted the same ledgers.

Output checks: no trial reads the hidden object (``reveal_used == 0``), no
exception escapes ``run`` or ``emit``, and every pass emits the same ledger
digest (the CSVs with the ``ms`` column blanked), which at ``--seed 0`` must
equal the one pinned in ``digests.json``.  ``failed`` counts the trials
whose checks failed; a learner's wrong answer is a result, reported as
``failed_trial_share``.

Exit status 0 when a result was printed, nonzero when the benchmark could
not run (for example without the gqlab source tree next to it).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer
from workloads import DEFAULT_SEED, ROOT, WORKLOADS

THIS = Path(__file__).resolve()
DIGESTS = THIS.with_name("digests.json")
OUT_DIR = ROOT / ".perfbench_out"

# set-up is timed in this many fresh processes; the median is reported
SETUP_PROBES = 5
# a timed run repeats passes until --seconds is over, but at least this often
MIN_TIMED_PASSES = 3

SELF_MS_SPANS = (
    "harness.trial",
    "parity_learners.learn_bounded_degree",
    "parity_learners.collect_samples",
    "parity_learners.learn_bounded_edges_parity",
    "parity_learners.learn_from_family",
    "or_learners.learn_graph_or",
    "or_learners.learn_star_or",
    "cgt.cgt_solve",
    "fourier.learn_symmetric_junta",
)
CALL_SPANS = (
    "oracles.bell_sample",
    "oracles.parity_vector_query",
    "oracles.or_query",
    "oracles.fourier_sample_or",
    "oracles.amplified_level_sample",
    "f2.random_vector",
    "cgt.cgt_solve",
)
US_PER_CALL_SPANS = (
    "oracles.bell_sample",
    "oracles.parity_vector_query",
    "oracles.or_query",
    "oracles.fourier_sample_or",
    "oracles.amplified_level_sample",
    "f2.random_vector",
    "graphs.generate",
    "graphs.enumerate_all_graphs",
)


def import_gqlab() -> None:
    """Put the checkout's ``src`` first on the path and import gqlab from it."""
    src = ROOT / "src"
    if not (src / "gqlab" / "__init__.py").is_file() or not (ROOT / "scripts").is_dir():
        raise SystemExit(f"perfbench: no gqlab source tree and presets under {ROOT}")
    sys.path.insert(0, str(src))
    import gqlab

    if Path(gqlab.__file__).resolve().parent != (src / "gqlab").resolve():
        raise SystemExit(f"perfbench: imported gqlab from {gqlab.__file__}, not {src}")


class Verdict:
    """Output checks over every pass of one run."""

    def __init__(self, workload: str, seed: int):
        self.reference = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        if seed == DEFAULT_SEED:
            pinned = json.loads(DIGESTS.read_text())
            self.reference = pinned.get(workload)
            if self.reference is None:
                self.problems.append(f"no pinned ledger digest for {workload}")

    def add(self, result: workloads.PassResult) -> None:
        self.attempted += result.trials
        if self.reference is None:
            self.reference = result.digest
        if result.digest != self.reference:
            self.failed += result.trials
            self.problems.append(f"ledger digest {result.digest} != {self.reference}")
        elif result.reveal_trials:
            self.failed += result.reveal_trials
            self.problems.append(f"{result.reveal_trials} trials used a reveal")

    def escaped(self, trials: int) -> None:
        self.attempted += trials
        self.failed += trials
        self.problems.append("an exception escaped run or emit")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def run_passes(presets, outdir, seconds, min_passes, verdict) -> list:
    """Repeat passes while one more of median length ends within ``seconds``.

    Stops at an escaped exception.  Not starting a pass that would overrun
    keeps a run's length, and so the benchmark's total time, near
    ``seconds``.
    """
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < min_passes or (
        time.perf_counter() + statistics.median(r.wall_s for r in results) <= deadline
    ):
        try:
            result = workloads.run_pass(presets, outdir)
        except Exception:
            traceback.print_exc()
            verdict.escaped(workloads.pass_trials(presets))
            break
        verdict.add(result)
        results.append(result)
    return results


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to ready-to-time, in fresh processes."""
    cmd = [sys.executable, str(THIS), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            code = proc.wait()
        if code != 0 or not ready:
            raise SystemExit(f"perfbench: set-up probe exited with {code}")
        times.append(elapsed)
    return times


def end_to_end(passes, cpu_s: float, setup: list[float]) -> dict:
    n = passes[0].trials
    tail_rank = n - 10  # 1-based rank with ten trials beyond it
    total = sum(p.trials for p in passes)
    of_passes = f"median of {len(passes)} passes of {n} trials"
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "trials_per_s": (
            statistics.median(p.trials / p.wall_s for p in passes), "trials/s", of_passes
        ),
        "trial_ms_p50": (
            statistics.median(
                statistics.median(statistics.median(ms) for ms in p.point_ms) for p in passes
            ),
            "ms",
            f"median over {len(passes[0].point_ms)} grid points of each point's median, {of_passes}",
        ),
        "trial_ms_tail": (
            statistics.median(sorted(p.trial_ms)[tail_rank - 1] for p in passes),
            "ms",
            f"p{100 * tail_rank / n:g} (rank {tail_rank} of {n}), {of_passes}",
        ),
        "cpu_ms_per_trial": (1000 * cpu_s / total, "ms", f"{total} trials"),
        "peak_rss_mb": (peak_kb / 1024, "MB", "max of process and children"),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} processes"),
    }


def per_layer(untraced, traced, stats) -> dict:
    from gqlab.oracles import QUERY_KINDS

    trials = sum(p.trials for p in traced)
    per_trial = f"per trial, {trials} trials"
    metrics = {}
    for span in SELF_MS_SPANS:
        metrics[f"{span}.self_ms"] = (1000 * stats[span].self_s / trials, "ms/trial", per_trial)
    for span in CALL_SPANS:
        metrics[f"{span}.calls"] = (stats[span].calls / trials, "calls/trial", per_trial)
    for span in US_PER_CALL_SPANS:
        s = stats[span]
        us = 1e6 * s.total_s / s.calls if s.calls else 0.0
        metrics[f"{span}.us_per_call"] = (us, "us", f"{s.calls} calls")
    for kind in QUERY_KINDS:
        count = sum(p.ledger_totals[kind] for p in traced)
        metrics[f"oracles.ledger.{kind}"] = (count / trials, "count/trial", per_trial)
    metrics["harness.emit.ms"] = (
        1000 * stats["harness.emit"].total_s / len(traced), "ms/pass", f"{len(traced)} passes"
    )
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced),
        "ratio",
        f"median pass wall, {len(traced)} traced / {len(untraced)} untraced",
    )
    metrics["failed_trial_share"] = (
        traced[0].unsuccessful / traced[0].trials, "ratio", f"of {traced[0].trials} trials"
    )
    return metrics


def print_result(metrics: dict, verdict: Verdict) -> None:
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<50} {value:>14.4f} {unit:<12} {note}")
    for problem in dict.fromkeys(verdict.problems):
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }))


def print_pass_facts(passes) -> None:
    if not passes:
        return
    first = passes[0]
    for name, met in first.thresholds:
        print(f"preset {name} thresholds_met {str(met).lower()}")
    print(f"failed_trial_share {first.unsuccessful / first.trials:.4f} "
          f"({first.unsuccessful} of {first.trials} trials unsuccessful)")
    print(f"ledger_sha256 {first.digest}")


def run_workload(args, outdir: Path) -> int:
    presets = workloads.load_presets(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, cfg in presets:
        print(f"preset {name} seed {cfg.seed} trials {cfg.trials} x {len(cfg.grid)} points")

    verdict = Verdict(args.workload, args.seed)
    if args.trace == 0:
        setup = measure_setup(args.workload, args.seed)
        workloads.warm_up(presets, outdir)
        before = [resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        passes = run_passes(presets, outdir, args.seconds, MIN_TIMED_PASSES, verdict)
        after = [resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        cpu_s = sum(a.ru_utime + a.ru_stime - b.ru_utime - b.ru_stime for a, b in zip(after, before))
        print_pass_facts(passes)
        metrics = end_to_end(passes, cpu_s, setup) if passes else {}
    else:
        workloads.warm_up(presets, outdir)
        untraced = run_passes(presets, outdir, args.seconds / 2, 1, verdict)
        tracer = Tracer()
        with tracer.installed(workloads.span_targets()):
            traced = run_passes(presets, outdir, args.seconds / 2, 1, verdict)
        print_pass_facts(traced)
        metrics = per_layer(untraced, traced, tracer.stats) if untraced and traced else {}
    print_result(metrics, verdict)
    return 0


def run_all(args) -> int:
    """Every workload, timed and traced, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        digests = []
        for trace in (0, 1):
            cmd = [sys.executable, str(THIS), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"perfbench: {workload} trace {trace} exited with {proc.returncode}")
            result = json.loads(lines[-1])
            digests += [line.split()[1] for line in lines if line.startswith("ledger_sha256 ")]
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                metrics[f"{workload}.{name}"] = metric
        if len(digests) != 2 or digests[0] != digests[1]:
            print(f"check failed: {workload} timed and traced ledger digests differ")
            correct = False
        print()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_gqlab()
    if args.workload == "all":
        return run_all(args)
    OUT_DIR.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        if args.setup_probe:
            workloads.warm_up(workloads.load_presets(args.workload, args.seed), outdir)
            print("ready", flush=True)
            return 0
        return run_workload(args, outdir)
    finally:
        shutil.rmtree(outdir)


if __name__ == "__main__":
    sys.exit(main())
