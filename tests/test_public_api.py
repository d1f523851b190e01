import re
from pathlib import Path

import dcqaoa
from dcqaoa import Graph, random_chain_graph, save_graph
from conftest import run_fresh

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
}


def test_star_import_resolves_exactly_the_public_names():
    namespace = {}
    exec("from dcqaoa import *", namespace)
    assert set(dcqaoa.__all__) == PUBLIC_NAMES
    assert len(dcqaoa.__all__) == len(PUBLIC_NAMES) == 35
    assert PUBLIC_NAMES <= set(namespace)


def test_readme_library_snippet_runs(capsys):
    match = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert match, "README has no python block under '## Library'"
    exec(match.group(1), {})
    assert float(capsys.readouterr().out.strip()) > 0


def test_package_import_loads_no_scipy():
    code = (
        "import sys, dcqaoa, dcqaoa.cli;"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert run_fresh(code) == "[]"


def test_solve_loads_no_module_without_scipy():
    # scipy is blocked, and numpy's lazily imported submodules load with the package
    code = """
import sys
sys.modules["scipy"] = None
import dcqaoa, dcqaoa.cli
from dcqaoa import DcConfig, Graph, dc_qaoa_traced
triangles = ((0, 1), (0, 2), (1, 2))
chain = Graph.from_edges([(2 * j + a, 2 * j + b) for j in range(8) for a, b in triangles])
loaded = set(sys.modules)
dc_qaoa_traced(chain, DcConfig(k=4, budget=10, restarts=1))
print(sorted(set(sys.modules) - loaded))
"""
    assert run_fresh(code) == "[]"


def test_commands_load_no_numpy_ma(tmp_path):
    # at t = 1 the chain's merges pair rows that disagree on the separator
    chain, toy, out = (str(tmp_path / name) for name in ("chain.edges", "toy.edges", "out"))
    save_graph(random_chain_graph(100, seed=1), chain)
    save_graph(Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]), toy)
    code = f"""
import sys
from dcqaoa.cli import main
fast = ["--budget", "10", "--restarts", "1", "--stable-output", "--out", {out!r}]
assert main(["solve", {chain!r}, "--t", "1", *fast]) == 0
assert main(["sweep", {toy!r}, "--axis", "s", "--values", "100,200", "--k", "4", *fast]) == 0
assert main(["compare", {toy!r}, {chain!r}, "--k", "4", *fast]) == 0
print("numpy.ma" in sys.modules)
"""
    assert run_fresh(code) == "False"
