"""Divide-and-conquer QAOA MaxCut solver with classical baselines."""

# numpy imports this lazily: load it now, not in the first solve
import numpy.random  # noqa: F401

from .baselines import greedy_local_search, random_search
from .errors import (
    ConnectivityExceededError,
    DcqaoaError,
    EdgeListParseError,
    GenerationError,
    GraphValidationError,
    SizeLimitError,
)
from .graphs import (
    Graph,
    SolutionMap,
    best_sampled_cut,
    brute_force_maxcut,
    chain_maxcut,
    expectation_value,
    load_graph,
    random_chain_graph,
    random_graph,
    save_graph,
)
from .partition import nlgp, nrl
from .qaoa import (
    AnsatzParams,
    optimize_params,
    qaoa_maxcut,
    sample_solution_map,
)
from .reconstruction import combine, kl_divergence, rerank_by_cut
from .solver import (
    DcConfig,
    PartitionNode,
    abridge,
    dc_qaoa,
    dc_qaoa_traced,
    rescale,
    tree_nrl,
    weight_map,
)

__all__ = [
    "AnsatzParams",
    "ConnectivityExceededError",
    "DcConfig",
    "DcqaoaError",
    "EdgeListParseError",
    "GenerationError",
    "Graph",
    "GraphValidationError",
    "PartitionNode",
    "SizeLimitError",
    "SolutionMap",
    "abridge",
    "best_sampled_cut",
    "brute_force_maxcut",
    "chain_maxcut",
    "combine",
    "dc_qaoa",
    "dc_qaoa_traced",
    "expectation_value",
    "greedy_local_search",
    "kl_divergence",
    "load_graph",
    "nlgp",
    "nrl",
    "optimize_params",
    "qaoa_maxcut",
    "random_chain_graph",
    "random_graph",
    "random_search",
    "rerank_by_cut",
    "rescale",
    "sample_solution_map",
    "save_graph",
    "tree_nrl",
    "weight_map",
]

__version__ = "0.1.0"
