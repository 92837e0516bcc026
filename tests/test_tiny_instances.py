"""Every tiny instance through the OR-side, promise, family, subgraph,
junta and group-testing learners.

Random sweeps reach a corner case late (a single-edge star once scored
0.495), so these tests run each learner on every member of its family at
n <= 5 (n = 6 for the majority juntas).  An answer is the hidden object or
a GqlabError, no learner reveals the hidden object, and the tally of other
answers is pinned.  The parity-side learners get the same treatment in
``test_parity_learners.py``.
"""

import itertools
import math
from collections import Counter

import numpy as np

from gqlab import f2, harness
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


class _Scripted:
    """A generator stand-in: the first draw of each scripted kind returns its
    value, and every other draw comes from ``rng``."""

    def __init__(self, rng, **draws):
        self._rng, self._draws = rng, draws

    def __getattr__(self, name):
        if name in self._draws:
            value = self._draws.pop(name)
            return lambda *args, **kwargs: value
        return getattr(self._rng, name)


def _solve(learner, point, instance, ledger, backend="classical_adaptive"):
    """The learner table's answer on one ``(oracle, hidden, side)`` instance;
    nothing may be revealed."""
    row = harness.LEARNERS[learner]
    cfg = ExperimentConfig(learner, row.families[0], (point,), backend=backend)
    oracle, hidden, side = instance
    got = _answer(row.solve, oracle, hidden, point, cfg, side)
    assert ledger.counts["reveal_used"] == 0
    return got


def test_every_defect_set_on_five_items_through_cgt():
    # each defect set is drawn by the family table's own row and solved by
    # the learner table's; the classical search is always right, and the
    # known-k quantum_ideal solve charges ceil(sqrt(k)) rounds and suppresses
    # its n single-item tests, with no other charge
    family = harness.FAMILIES["defect_set"]
    zeros = QueryLedger().counts
    misses = Counter()
    runs = 0
    for n in range(1, 6):
        for k in range(n + 1):
            for items in itertools.combinations(range(n), k):
                for known_k, backend in itertools.product((True, False), BACKENDS):
                    point = {"n": n, "k": k, "known_k": known_k}
                    ledger = QueryLedger()
                    draw = _Scripted(None, choice=np.array(items, dtype=np.int64))
                    instance = family.draw(point, draw, ledger)
                    assert instance[1] == f2.from_support(items, n)
                    got = _solve("cgt", point, instance, ledger, backend)
                    if known_k and backend == "quantum_ideal":
                        rounds = math.ceil(math.sqrt(k))
                        assert ledger.counts == {**zeros, "charged_quantum": rounds}
                        assert ledger.suppressed == {**zeros, "or_query": n}
                    if got != instance[1]:
                        assert isinstance(got, str) and backend != "classical_adaptive"
                        misses[backend, known_k, got] += 1
                    runs += 1
    assert runs == 6 * (2 + 4 + 8 + 16 + 32)
    assert misses == Counter()


def test_every_subgraph_of_every_degree_two_graph_on_five_vertices():
    # every graph of max degree <= 2 on n <= 5 is the known supergraph,
    # handed to the subgraph_known row as the family's side with d = 2
    misses = Counter()
    runs = 0
    for n in range(1, 6):
        for i, base in enumerate(enumerate_all_graphs(n)):
            if max(map(base.degree, range(n))) > 2:
                continue
            edges = sorted(base.edges)
            for j in range(1 << len(edges)):
                g = Graph(n, [e for b, e in enumerate(edges) if j >> b & 1])
                ledger = QueryLedger()
                h = GraphOracle(g, np.random.default_rng([n, i, j]), ledger=ledger)
                got = _solve("subgraph_known", {"n": n, "d": 2}, (h, g, base), ledger)
                if got != g:
                    assert isinstance(got, str), (base.edges, g.edges, got)
                    misses[got] += 1
                runs += 1
    assert runs == 3025
    assert misses == Counter()


def test_every_member_of_the_four_vertex_family_through_bell_family():
    # each member of all_small_graphs at r = 4 is drawn by the family row
    # with a scripted index, four seeds each
    point = {"n": 4, "r": 4}
    misses = Counter()
    for i, seed in itertools.product(range(64), range(4)):
        ledger = QueryLedger()
        draw = _Scripted(np.random.default_rng([i, seed]), integers=i)
        instance = harness.FAMILIES["all_small_graphs"].draw(point, draw, ledger)
        assert instance[1] == instance[2][i]
        got = _solve("bell_family", point, instance, ledger)
        if got != instance[1]:
            assert isinstance(got, str), (instance[1].edges, got)
            misses[got] += 1
    assert misses == Counter()


def test_every_majority_support_in_six_variables_through_junta_symmetric():
    # every support of k = 1, 3, 5 in n = 6, drawn by the majority_junta
    # row with a scripted choice, four seeds each; the learner never
    # overshoots, so a wrong answer could only be a strict subset
    misses = Counter()
    runs = 0
    for k in (1, 3, 5):
        point = {"n": 6, "k": k}
        for items, seed in itertools.product(itertools.combinations(range(6), k), range(4)):
            ledger = QueryLedger()
            rng = np.random.default_rng([k, *items, seed])
            draw = _Scripted(rng, choice=np.array(items, dtype=np.int64))
            instance = harness.FAMILIES["majority_junta"].draw(point, draw, ledger)
            assert instance[1] == frozenset(items)
            got = _solve("junta_symmetric", point, instance, ledger)
            if got != instance[1]:
                assert isinstance(got, str) or got < instance[1], (items, got)
                misses[k, got] += 1
            runs += 1
    assert runs == 4 * (6 + 20 + 6)
    assert misses == Counter()
