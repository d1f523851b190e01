"""End-to-end acceptance suite.

One test per exit criterion. Each prints a live PASS/FAIL line (bypassing
pytest capture) before asserting, so a full run always shows the scorecard:

    pytest tests/test_acceptance.py -v
"""

import csv
import importlib.util
import itertools
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from dcqaoa import (
    ConnectivityExceededError,
    DcConfig,
    best_sampled_cut,
    brute_force_maxcut,
    chain_maxcut,
    combine,
    dc_qaoa,
    dc_qaoa_traced,
    expectation_value,
    kl_divergence,
    nlgp,
    optimize_params,
    qaoa_maxcut,
    random_chain_graph,
    random_graph,
    rerank_by_cut,
    tree_nrl,
)
from dcqaoa.cli import main
from dcqaoa.qaoa import AnsatzParams
from dcqaoa.graphs import components_excluding, save_graph
from dcqaoa.seeds import derive_seed
from conftest import (
    build_initial_state,
    check_separation_invariants,
    cut_value_table,
    final_state,
    full_evolve,
    k2,
    qaoa_expectation,
    toy_graph,
)

SCHEMES = ("min", "mul", "minXmul")

# Solver effort used by the toy-graph reconstruction study. The original is
# one seeded budget-60 run on the whole graph, so its quality varies by seed
# (expectation 3.09-3.73, i.e. 77-93% of MaxCut 4, on seeds 0-9); it is not
# pinned to any quality level. Subgraph runs use a lighter budget so their
# sampled distributions keep realistic non-optimal tails (a fully converged
# 3-qubit solve collapses onto the optimal strings and every scheme
# degenerates to the same distribution).
TOY_CHILD_EFFORT = {"budget": 20, "restarts": 1}
TOY_ORIGINAL_EFFORT = {"budget": 60, "restarts": 1}


def report(capsys, name, ok, detail=""):
    with capsys.disabled():
        print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def toy_scheme_study():
    g = toy_graph()
    g1, g2 = nlgp(g, 4).subgraphs
    evs = {s: [] for s in SCHEMES}
    kls = {s: [] for s in SCHEMES}
    started = time.perf_counter()
    for seed in range(10):
        m1 = qaoa_maxcut(g1, 3, shots=1000, seed=derive_seed(seed, "g1"), **TOY_CHILD_EFFORT)
        m2 = qaoa_maxcut(g2, 3, shots=1000, seed=derive_seed(seed, "g2"), **TOY_CHILD_EFFORT)
        m1 = rerank_by_cut(g1, m1)
        m2 = rerank_by_cut(g2, m2)
        original = qaoa_maxcut(
            g, 3, shots=1000, seed=derive_seed(seed, "orig"), **TOY_ORIGINAL_EFFORT
        )
        for scheme in SCHEMES:
            merged = combine(g1, g2, m1, m2, scheme)
            evs[scheme].append(expectation_value(g, merged))
            kls[scheme].append(kl_divergence(merged, original))
    elapsed = time.perf_counter() - started
    return evs, kls, elapsed


def test_criterion_1_toy_scheme_expectation_ordering(toy_scheme_study, capsys):
    evs, _, elapsed = toy_scheme_study
    med = {s: statistics.median(evs[s]) for s in SCHEMES}
    per_seed = sum(
        1
        for i in range(10)
        if evs["min"][i] < evs["mul"][i] <= evs["minXmul"][i]
    )
    ok = (
        med["min"] < med["mul"] <= med["minXmul"]
        and per_seed >= 8
        and med["minXmul"] >= 3.4
        and elapsed < 60.0
    )
    report(
        capsys,
        "1 toy-graph scheme EV ordering",
        ok,
        f"medians min/mul/minXmul = {med['min']:.3f}/{med['mul']:.3f}/{med['minXmul']:.3f}, "
        f"ordered in {per_seed}/10 seeds, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_toy_scheme_kl_ordering(toy_scheme_study, capsys):
    """The product policy is never the farthest of the three from the original.

    min flattens the merged distribution and minXmul sharpens it; mul sits
    between the two, so its KL divergence to the original tends to stay
    below the larger of theirs. Which of min and minXmul lands closest
    depends on the quality of the independently optimized original run, so
    no full three-way ordering is asserted.
    """
    _, kls, _ = toy_scheme_study
    med = {s: statistics.median(kls[s]) for s in SCHEMES}
    per_seed = sum(
        1
        for i in range(10)
        if kls["mul"][i] < max(kls["min"][i], kls["minXmul"][i])
    )
    median_between = med["mul"] < max(med["min"], med["minXmul"])
    ok = median_between and per_seed >= 7
    triples = " ".join(
        f"({kls['mul'][i]:.3f},{kls['minXmul'][i]:.3f},{kls['min'][i]:.3f})" for i in range(10)
    )
    report(
        capsys,
        "2 toy-graph scheme KL ordering",
        ok,
        f"medians mul/minXmul/min = {med['mul']:.3f}/{med['minXmul']:.3f}/{med['min']:.3f} "
        f"(mul below the larger={median_between}), mul below the larger in {per_seed}/10 "
        f"seeds (need 7); per-seed (mul,minXmul,min): {triples}",
    )
    assert ok


def _recursively_partitionable(g, k):
    if g.n <= k:
        return True
    try:
        split = nlgp(g, k)
    except ConnectivityExceededError:
        return False
    return all(_recursively_partitionable(sub, k) for sub in split.subgraphs)


def test_criterion_3_oracle_equivalence_small_graphs(capsys):
    started = time.perf_counter()
    sizes = itertools.cycle(range(6, 15))
    graphs = []
    attempt = 0
    while len(graphs) < 20:
        n = next(sizes)
        g = random_graph(n, min(0.5, 3.0 / n), seed=1000 + attempt)
        attempt += 1
        if _recursively_partitionable(g, 8):
            graphs.append(g)
    ratios = []
    for j, g in enumerate(graphs):
        cfg = DcConfig(
            k=8, s=5000, t=20, p=3, seed=derive_seed(42, "oracle", j), budget=60, restarts=2
        )
        solution = dc_qaoa(g, cfg)
        optimum, _ = brute_force_maxcut(g)
        ratios.append(best_sampled_cut(g, solution) / optimum)
    elapsed = time.perf_counter() - started
    perfect = sum(1 for r in ratios if r == 1.0)
    ok = min(ratios) >= 0.95 and perfect >= 16 and elapsed < 600.0
    report(
        capsys,
        "3 oracle equivalence on 20 small graphs",
        ok,
        f"min AR={min(ratios):.3f}, optimal on {perfect}/20, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_partition_soundness(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = splits = infeasible = 0
    minimality_checked = 0
    for _ in range(200):
        n = int(rng.integers(4, 31))
        p = float(rng.choice([2.5 / n, 3.5 / n, 0.3]))
        g = random_graph(n, min(0.6, p), seed=int(rng.integers(0, 10**9)))
        k = min(8, n - 1)
        checked += 1
        try:
            split = nlgp(g, k)
        except ConnectivityExceededError:
            infeasible += 1
            if n <= 12:
                for size in range(k):
                    for cand in itertools.combinations(g.nodes, size):
                        assert len(components_excluding(g, set(cand))) < 2
            continue
        splits += 1
        check_separation_invariants(g, split)
        assert nlgp(g, k).separator == split.separator
        if n <= 12:
            minimality_checked += 1
            for smaller in range(len(split.separator)):
                for cand in itertools.combinations(g.nodes, smaller):
                    assert len(components_excluding(g, set(cand))) < 2
    elapsed = time.perf_counter() - started
    ok = checked == 200 and splits > 100
    report(
        capsys,
        "4 partition soundness on 200 graphs",
        ok,
        f"{splits} splits verified, {infeasible} infeasible (checked exhaustively when small), "
        f"minimality proven on {minimality_checked}, {elapsed:.1f}s",
    )
    assert ok


def _spearman(xs, ys):
    if len(set(ys)) == 1:
        return 0.0
    return float(spearmanr(xs, ys).statistic)


def test_criterion_5_sensitivity_trends(capsys):
    g = random_chain_graph(40, seed=3)
    exact = chain_maxcut(g)

    k_values = [5, 6, 7, 8]
    nrl_means = []
    for k in k_values:
        values = []
        for rep in range(5):
            cfg = DcConfig(
                k=k, s=1000, t=20, p=3, seed=derive_seed(7, "k", k, rep), budget=60, restarts=2
            )
            _, tree = dc_qaoa_traced(g, cfg)
            values.append(tree_nrl(g, tree))
        nrl_means.append(sum(values) / len(values))
    rho_k = _spearman(k_values, nrl_means)

    s_values = [250, 500, 1000, 2000]
    ar_means = []
    for s in s_values:
        values = []
        for rep in range(5):
            cfg = DcConfig(
                k=8, s=s, t=20, p=3, seed=derive_seed(7, "s", s, rep), budget=60, restarts=2
            )
            solution = dc_qaoa(g, cfg)
            values.append(best_sampled_cut(g, solution) / exact)
        ar_means.append(sum(values) / len(values))
    rho_s = _spearman(s_values, ar_means)

    ok = rho_k < 0 and rho_s >= 0
    report(
        capsys,
        "5 sensitivity trends (NRL vs k, AR vs s)",
        ok,
        f"spearman(k, NRL)={rho_k:.2f} over means {[round(v, 3) for v in nrl_means]}; "
        f"spearman(s, AR)={rho_s:.2f} over means {[round(v, 4) for v in ar_means]}",
    )
    assert ok


def _perfbench_leafwide():
    """perfbench/leafwide.py, the leaf-wide workload's graph generator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "leafwide.py"
    spec = importlib.util.spec_from_file_location("leafwide", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_criterion_5_expectation_ar_against_s_below_saturation(capsys):
    # criterion 5's chain reaches AR 1.0 at every s; four dense 14-node
    # blocks, each one leaf at the qubit budget, keep the expectation AR
    # below 1, so a trend that is flat or falls with s fails here
    leafwide_graph = _perfbench_leafwide().leafwide_graph
    graphs = [(seed, leafwide_graph(seed, blocks=4)) for seed in range(1, 6)]
    exact = {seed: chain_maxcut(g) for seed, g in graphs}

    s_values = [250, 500, 1000, 2000]
    ar_means = []
    for s in s_values:
        values = []
        for seed, g in graphs:
            cfg = DcConfig(k=14, s=s, seed=seed, budget=60, restarts=2)
            values.append(expectation_value(g, dc_qaoa(g, cfg)) / exact[seed])
        ar_means.append(sum(values) / len(values))
    rho_s = _spearman(s_values, ar_means)

    ok = rho_s > 0
    report(
        capsys,
        "5 expectation AR vs s on leaf-wide graphs",
        ok,
        f"spearman(s, AR)={rho_s:.2f} over means {[round(v, 4) for v in ar_means]}",
    )
    assert ok


def test_criterion_6_baseline_gap_on_default_suite(capsys, tmp_path):
    out = tmp_path / "compare.csv"
    code = main(
        [
            "compare",
            "--suite",
            str(tmp_path / "suite"),
            "--seed",
            "0",
            "--budget",
            "60",
            "--restarts",
            "2",
            "--stable-output",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    rows = list(csv.DictReader(lines[1:]))
    summary = next(r for r in rows if r["graph"] == "__mean__")
    graph_rows = [r for r in rows if r["graph"] != "__mean__"]
    dc_mean = float(summary["dc_ar_best_sampled"])
    rs_mean = float(summary["rs_ar_best_sampled"])
    gap = dc_mean - rs_mean
    ok = (
        len(graph_rows) == 7
        and all(not r["error"] for r in graph_rows)
        and all(r["reference_kind"] in ("best_of_suite", "brute_force") for r in graph_rows)
        and gap >= 0.05
    )
    report(
        capsys,
        "6 classical baseline gap on 7-graph suite",
        ok,
        f"mean AR: dc={dc_mean:.4f} rs={rs_mean:.4f}, gap={gap * 100:.1f} points (need >= 5)",
    )
    assert ok


def test_criterion_7_scaling_shapes(capsys):
    # warm-up so one-time allocation costs stay out of the timings
    dc_qaoa(random_chain_graph(16, seed=0), DcConfig(k=8, s=200, seed=0, budget=10, restarts=1))

    dc_sizes = [16, 32, 48, 64]
    dc_times = []
    for n in dc_sizes:
        g = random_chain_graph(n, seed=derive_seed(1, "scale", n))
        cfg = DcConfig(k=8, s=1000, t=20, p=3, seed=derive_seed(1, "t", n), budget=60, restarts=2)
        t0 = time.perf_counter()
        dc_qaoa(g, cfg)
        dc_times.append(time.perf_counter() - t0)
    dc_slope = float(np.polyfit(np.log(dc_sizes), np.log(dc_times), 1)[0])

    qaoa_sizes = [8, 10, 12, 14]
    qaoa_times = []
    for n in qaoa_sizes:
        g = random_graph(n, 0.3, seed=derive_seed(1, "q", n))
        t0 = time.perf_counter()
        qaoa_maxcut(g, 3, shots=1000, seed=9, budget=150, restarts=3)
        qaoa_times.append(time.perf_counter() - t0)
    log2_slope = float(np.polyfit(qaoa_sizes, np.log2(qaoa_times), 1)[0])
    pair_ratio = 2.0 ** (2.0 * log2_slope)

    ok = dc_slope < 4.0 and pair_ratio >= 1.7
    report(
        capsys,
        "7 scaling shapes (polynomial DC, exponential direct)",
        ok,
        f"dc log-log slope={dc_slope:.2f} (need < 4) over {[round(t, 3) for t in dc_times]}s; "
        f"direct-sim ratio per 2 qubits={pair_ratio:.2f} (need >= 1.7) "
        f"over {[round(t, 3) for t in qaoa_times]}s",
    )
    assert ok


def test_criterion_8_simulator_correctness(capsys):
    rng = np.random.default_rng(77)
    worst_identity = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        g = random_graph(n, float(rng.uniform(0.2, 0.9)), seed=int(rng.integers(0, 10**9)))
        params = AnsatzParams(((0.0, 0.0),))
        worst_identity = max(worst_identity, abs(qaoa_expectation(g, params) - g.m / 2))

    worst_norm = 0.0
    worst_symmetry = 0.0
    for seed in (1, 2, 3):
        g = random_graph(7, 0.4, seed=seed)
        layers = tuple(
            (float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, math.pi)))
            for _ in range(8)
        )
        state = final_state(g, AnsatzParams(layers))
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(state)) - 1.0))
        # the simulator mirrors a half state, so the symmetry it rests on is
        # shown on the full-state oracle run from the full uniform state
        full = full_evolve(build_initial_state(g.n), cut_value_table(g), layers)
        probs = np.abs(full) ** 2
        worst_symmetry = max(worst_symmetry, float(np.max(np.abs(probs - probs[::-1]))))

    _, k2_value = optimize_params(k2(), p=1, seed=11)

    ok = (
        worst_identity <= 1e-12
        and worst_norm <= 1e-9
        and k2_value >= 0.99
        and worst_symmetry <= 1e-9
    )
    report(
        capsys,
        "8 simulator correctness",
        ok,
        f"|EV - m/2| <= {worst_identity:.1e}, norm drift <= {worst_norm:.1e}, "
        f"K2 optimum {k2_value:.4f}, complement asymmetry <= {worst_symmetry:.1e}",
    )
    assert ok


def test_criterion_9_byte_identical_determinism(capsys, tmp_path):
    toy = tmp_path / "toy.edges"
    save_graph(toy_graph(), toy)
    pair = tmp_path / "k2.edges"
    pair.write_text("0 1\n")
    fast = ["--budget", "40", "--restarts", "1", "--stable-output"]

    outputs = {}
    for run in ("a", "b"):
        gen = tmp_path / f"gen-{run}.edges"
        assert main(["gen", "--n", "12", "--edge-prob", "0.3", "--seed", "5", "--out", str(gen)]) == 0
        solve = tmp_path / f"solve-{run}.json"
        assert main(["solve", str(toy), "--k", "4", "--seed", "1", "--out", str(solve), *fast]) == 0
        sweep = tmp_path / f"sweep-{run}.csv"
        assert (
            main(
                ["sweep", str(toy), "--axis", "s", "--values", "100,200", "--repeats", "2",
                 "--k", "4", "--seed", "5", "--out", str(sweep), *fast]
            )
            == 0
        )
        compare = tmp_path / f"compare-{run}.csv"
        assert (
            main(["compare", str(toy), str(pair), "--k", "4", "--seed", "2",
                  "--out", str(compare), *fast])
            == 0
        )
        outputs[run] = tuple(p.read_bytes() for p in (gen, solve, sweep, compare))

    identical = outputs["a"] == outputs["b"]
    report(
        capsys,
        "9 byte-identical outputs across runs",
        identical,
        "gen/solve/sweep/compare all byte-identical" if identical else "outputs differ",
    )
    assert identical
