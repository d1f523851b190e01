"""Run-report assembly and serialization for the benchmark front end."""

from __future__ import annotations

import json
from dataclasses import asdict

from .baselines import greedy_local_search
from .errors import SizeLimitError
from .graphs import Graph, SolutionMap, best_sampled_cut, chain_maxcut, expectation_value
from .seeds import derive_seed
from .solver import DcConfig, PartitionNode, tree_nrl

RUN_REPORT_SCHEMA = "dcqaoa.run_report.v2"
REFERENCE_RESTARTS = 20


def reference_optimum(
    g: Graph, candidate_cuts: list[int], seed: int
) -> tuple[int, str]:
    """Denominator for approximation ratios.

    The exact optimum, block by block (chain_maxcut), whenever g's blocks fit
    one brute-force budget; otherwise the best cut found by any method in
    play plus a long local search, flagged as a lower-bound-relative
    reference.
    """
    try:
        return chain_maxcut(g), "brute_force"
    except SizeLimitError:
        local = greedy_local_search(
            g, seed=derive_seed(seed, "reference"), restarts=REFERENCE_RESTARTS
        )
        return max([local.best_cut, *candidate_cuts]), "best_of_suite"


def approximation_ratio(cut: float, reference_cut: int) -> float:
    """Achieved cut over the reference optimum; 1.0 when the reference is 0
    (no edge to cut)."""
    return cut / reference_cut if reference_cut else 1.0


def build_run_report(
    g: Graph,
    cfg: DcConfig,
    solution: SolutionMap,
    tree: PartitionNode,
    runtime_seconds: float | None,
    graph_path: str | None = None,
    kl: float | None = None,
) -> dict:
    best_cut = best_sampled_cut(g, solution)
    max_cut, reference_kind = reference_optimum(g, [best_cut], cfg.seed)
    expectation = expectation_value(g, solution)
    report = {
        "schema": RUN_REPORT_SCHEMA,
        "config": asdict(cfg),
        "graph": {
            "hash": g.digest(),
            "nodes": g.n,
            "edges": g.m,
            "path": graph_path,
        },
        "reference": {"kind": reference_kind, "max_cut": max_cut},
        "metrics": {
            "expectation_value": expectation,
            "approximation_ratio_expectation": approximation_ratio(expectation, max_cut),
            "approximation_ratio_best_sampled": approximation_ratio(best_cut, max_cut),
            "best_sampled_cut": best_cut,
            "nrl": tree_nrl(g, tree),
            "kl_divergence": kl,
            "runtime_seconds": runtime_seconds,
        },
        "solution": solution.to_dict(),
        "partition_tree": tree.to_dict(),
    }
    return report


def dumps_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True) + "\n"
