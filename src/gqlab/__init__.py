"""Query-complexity laboratory: hidden-graph and junta learners with audited oracles."""

from gqlab.cgt import BACKENDS, cgt_solve
from gqlab.errors import (
    AmbiguityError,
    GqlabError,
    RetryBudgetError,
    ScaleError,
    ViolationError,
)
from gqlab.f2 import matvec, rank, random_matrix, solve
from gqlab.fourier import (
    exact_half_coefficient_01,
    exact_half_level_weights,
    fourier_table,
    learn_symmetric_junta,
    maj_coefficient,
    maj_level_weights,
    maj_truth,
)
from gqlab.graphs import (
    Graph,
    adversary_instance,
    enumerate_all_graphs,
    generate,
)
from gqlab.harness import (
    CSV_COLUMNS,
    LEARNERS,
    ExperimentConfig,
    config_from_json,
    emit,
    run,
)
from gqlab.oracles import QUERY_KINDS, GraphOracle, JuntaOracle, QueryLedger
from gqlab.or_learners import (
    learn_bipartite_edges,
    learn_clique_or,
    learn_graph_or,
    learn_star_or,
)
from gqlab.parity_learners import (
    learn_arbitrary_parity,
    learn_bounded_degree,
    learn_bounded_edges_parity,
    learn_clique_graphstate,
    learn_from_family,
    learn_star_graphstate,
    learn_subgraph_of,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityError",
    "BACKENDS",
    "CSV_COLUMNS",
    "ExperimentConfig",
    "Graph",
    "GqlabError",
    "GraphOracle",
    "JuntaOracle",
    "LEARNERS",
    "QUERY_KINDS",
    "QueryLedger",
    "RetryBudgetError",
    "ScaleError",
    "ViolationError",
    "adversary_instance",
    "cgt_solve",
    "config_from_json",
    "emit",
    "enumerate_all_graphs",
    "exact_half_coefficient_01",
    "exact_half_level_weights",
    "fourier_table",
    "generate",
    "learn_arbitrary_parity",
    "learn_bipartite_edges",
    "learn_bounded_degree",
    "learn_bounded_edges_parity",
    "learn_clique_graphstate",
    "learn_clique_or",
    "learn_from_family",
    "learn_graph_or",
    "learn_star_graphstate",
    "learn_star_or",
    "learn_subgraph_of",
    "learn_symmetric_junta",
    "maj_coefficient",
    "maj_level_weights",
    "maj_truth",
    "matvec",
    "random_matrix",
    "rank",
    "run",
    "solve",
]
