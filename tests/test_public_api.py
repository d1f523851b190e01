import re
from pathlib import Path

import dcqaoa

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = {
    "AnsatzParams",
    "ConnectivityExceededError",
    "DcConfig",
    "DcqaoaError",
    "EdgeListParseError",
    "GenerationError",
    "Graph",
    "GraphValidationError",
    "PartitionNode",
    "ReconstructionError",
    "SizeLimitError",
    "SolutionMap",
    "abridge",
    "apply_mixer_layer",
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
}


def test_star_import_resolves_exactly_the_public_names():
    namespace = {}
    exec("from dcqaoa import *", namespace)
    assert set(dcqaoa.__all__) == PUBLIC_NAMES
    assert len(dcqaoa.__all__) == len(PUBLIC_NAMES) == 37
    assert PUBLIC_NAMES <= set(namespace)


def test_readme_library_snippet_runs(capsys):
    match = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert match, "README has no python block under '## Library'"
    exec(match.group(1), {})
    assert float(capsys.readouterr().out.strip()) > 0
