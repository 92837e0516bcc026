"""Every tiny instance through the OR-side, promise and group-testing learners.

Random sweeps reach a corner case late (a single-edge star once scored
0.495), so these tests run each learner on every member of its family at
n <= 5.  An answer is the hidden object or a GqlabError, and no learner
reveals the hidden object.  The parity-side learners get the same treatment
in ``test_parity_learners.py``.
"""

import itertools
from collections import Counter

import numpy as np

from gqlab import harness
from gqlab.errors import GqlabError
from gqlab.graphs import Graph, enumerate_all_graphs
from gqlab.harness import ExperimentConfig
from gqlab.or_learners import learn_clique_or, learn_graph_or, learn_star_or
from gqlab.oracles import GraphOracle, QueryLedger
from gqlab.parity_learners import learn_clique_graphstate, learn_star_graphstate

BACKENDS = ("classical_adaptive", "quantum_ideal", "quantum_time_efficient")


def _answer(learn, *args, **kwargs):
    """The learner's answer, or the name of the GqlabError it raised."""
    try:
        return learn(*args, **kwargs)
    except GqlabError as exc:
        return type(exc).__name__


def test_every_graph_on_five_vertices_through_learn_graph_or():
    # exact whatever its random choices, on every backend, told m or not
    for n in range(1, 6):
        for i, g in enumerate(enumerate_all_graphs(n)):
            for b, backend in enumerate(BACKENDS):
                for m_hint in (None, g.m):
                    ledger = QueryLedger()
                    h = GraphOracle(g, np.random.default_rng([n, i, b]), ledger=ledger)
                    assert learn_graph_or(h, m_hint=m_hint, backend=backend) == g
                    assert ledger.counts["reveal_used"] == 0


def _stars_and_cliques():
    """Every star and every clique on n <= 5 vertices, as (shape, graph)."""
    for n in range(2, 6):
        for g in enumerate_all_graphs(n):
            if g.is_star() is not None:
                yield "star", g
        for k in range(2, n + 1):
            for members in itertools.combinations(range(n), k):
                yield "clique", Graph.clique(n, members)


def test_every_star_and_clique_on_five_vertices_through_the_promise_learners():
    learners = {
        "star": [
            *((backend, lambda h, g, b=backend: learn_star_or(h, backend=b))
              for backend in BACKENDS),
            ("graph_state", lambda h, g: learn_star_graphstate(h)),
        ],
        "clique": [
            *((backend, lambda h, g, b=backend: learn_clique_or(h, len(g.non_isolated()), b))
              for backend in BACKENDS),
            ("graph_state", lambda h, g: learn_clique_graphstate(h)),
        ],
    }
    misses = Counter()
    runs = 0
    for i, (shape, g) in enumerate(_stars_and_cliques()):
        for seed in range(4):
            for name, learn in learners[shape]:
                ledger = QueryLedger()
                h = GraphOracle(g, np.random.default_rng([i, seed]), ledger=ledger)
                got = _answer(learn, h, g)
                assert ledger.counts["reveal_used"] == 0
                if got != g:
                    assert isinstance(got, str), (shape, name, g.edges, got)
                    misses[shape, name, got] += 1
                runs += 1
    assert runs == 4 * (4 * 94 + 4 * 42)
    assert misses == Counter()


class _Chosen:
    """A generator stand-in whose one draw picks the given items."""

    def __init__(self, items):
        self.items = items

    def choice(self, n, size, replace):
        assert size == len(self.items) and not replace
        return np.array(self.items, dtype=np.int64)


def test_every_defect_set_on_five_items_through_cgt():
    # each defect set is drawn by the family table's own row and solved by
    # the learner table's; the classical search is always right
    family, row = harness.FAMILIES["defect_set"], harness.LEARNERS["cgt"]
    misses = Counter()
    runs = 0
    for n in range(1, 6):
        for k in range(n + 1):
            for items in itertools.combinations(range(n), k):
                for known_k, backend in itertools.product((True, False), BACKENDS):
                    point = {"n": n, "k": k, "known_k": known_k}
                    cfg = ExperimentConfig(
                        learner="cgt", family="defect_set", grid=(point,), backend=backend
                    )
                    ledger = QueryLedger()
                    oracle, hidden, side = family.draw(point, _Chosen(items), ledger)
                    assert hidden == frozenset(items)
                    got = _answer(row.solve, oracle, hidden, point, cfg, side)
                    assert ledger.counts["reveal_used"] == 0
                    if got != hidden:
                        assert isinstance(got, str) and backend != "classical_adaptive"
                        misses[backend, known_k, got] += 1
                    runs += 1
    assert runs == 6 * (2 + 4 + 8 + 16 + 32)
    assert misses == Counter()
