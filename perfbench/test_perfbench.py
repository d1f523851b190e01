"""Tests of the benchmark's own parts.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

from dcqaoa import brute_force_maxcut, chain_maxcut, nlgp, save_graph  # noqa: E402
from dcqaoa.graphs import _biconnected_blocks  # noqa: E402

import run  # noqa: E402
from leafwide import BLOCK_SIZE, BLOCKS, leafwide_graph  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_chain_maxcut_is_exact_on_small_leafwide_graphs(seed):
    g = leafwide_graph(seed, blocks=3, size=8)
    assert g.n == 22
    assert chain_maxcut(g) == brute_force_maxcut(g)[0]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_separator_search_splits_leafwide_graphs_only_at_block_joints(seed):
    g = leafwide_graph(seed)
    assert g.n == BLOCKS * (BLOCK_SIZE - 1) + 1
    blocks = sorted(tuple(sorted(nodes)) for nodes, _ in _biconnected_blocks(g))
    assert len(blocks) == BLOCKS
    joints = {v for v in g.nodes if sum(v in b for b in blocks) > 1}

    leaves = []
    todo = [g]
    while todo:
        sub = todo.pop()
        if sub.n <= BLOCK_SIZE:
            leaves.append(sub.nodes)
            continue
        split = nlgp(sub, BLOCK_SIZE)
        assert len(split.separator) == 1 and split.separator[0] in joints
        todo.extend(split.subgraphs)
    assert sorted(leaves) == blocks
    assert all(len(leaf) == BLOCK_SIZE for leaf in leaves)


def test_leafwide_graph_is_deterministic_per_seed():
    assert leafwide_graph(5) == leafwide_graph(5)
    assert leafwide_graph(5) != leafwide_graph(6)


def _small_compare_inputs(workdir):
    from dcqaoa import random_chain_graph

    graphs = [random_chain_graph(n, seed=n) for n in (20, 40)]
    names = []
    for g in graphs:
        name = f"g{g.n}.edges"
        save_graph(g, os.path.join(workdir, name))
        names.append(name)
    args = ["compare", *names, "--k", "6", "--p", "1", "--s", "200", "--t", "10",
            "--budget", "15", "--restarts", "1", "--seed", "3", "--stable-output",
            "--out", "output.csv"]
    return args, graphs


def test_computed_counts_repeat_exactly_across_traced_runs(tmp_path):
    workdir = str(tmp_path)
    args, graphs = _small_compare_inputs(workdir)
    optima = {g.digest(): chain_maxcut(g) for g in graphs}
    counts, hashes = [], []
    for tag in ("a", "b"):
        record, _, error = run.run_child("trace", args, workdir, tag)
        assert record is not None, error
        errors, _, output_hash = run.check_command(
            record, os.path.join(workdir, "output.csv"), graphs, optima, s=200)
        assert errors == []
        counts.append(run.computed_counts(record))
        hashes.append(output_hash)
        layers = run._layer_metrics_of(record)
        assert layers["trace.accounted_ratio"] == pytest.approx(1.0, abs=1e-6)
        assert 0 < layers["cli.pool.busy_ratio"] <= 1
    assert counts[0] == counts[1]
    assert hashes[0] == hashes[1]
    assert counts[0]["baselines.random_search.calls"] == 2
    assert counts[0]["qaoa.apply_mixer_layer.calls"] > 0
    assert counts[0]["reconstruction.combine.pair_candidates"] > 0


def test_correctness_gate_rejects_a_cut_above_the_optimum(tmp_path):
    workdir = str(tmp_path)
    args, graphs = _small_compare_inputs(workdir)
    record, _, error = run.run_child("plain", args, workdir, "plain")
    assert record is not None, error
    optima = {g.digest(): chain_maxcut(g) - 1 for g in graphs}
    errors, _, _ = run.check_command(
        record, os.path.join(workdir, "output.csv"), graphs, optima, s=200)
    assert any("exceeds the exact optimum" in e for e in errors)


def test_setup_probe_stops_at_the_first_solver_call(tmp_path):
    workdir = str(tmp_path)
    args, _ = _small_compare_inputs(workdir)
    record, spawned, error = run.run_child("setup", args, workdir, "setup")
    assert record is not None, error
    assert record["t_first_solve"] > spawned
    assert record["solves"] == []
    assert not os.path.exists(os.path.join(workdir, "output.csv"))


def test_benchmark_refuses_to_run_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    code = run.main(["--workload", "leaf-wide", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_tracer_self_time_excludes_nested_spans():
    import types

    from tracer import Tracer, self_times

    ns = types.SimpleNamespace()
    ns.inner = lambda: sum(range(20000))
    ns.outer = lambda: [ns.inner() for _ in range(3)]
    tracer = Tracer("t")
    tracer.span(ns, "inner", "inner")
    tracer.span(ns, "outer", "outer")
    ns.outer()
    tracer.uninstall()
    spans = tracer.spans()
    outer = next(s for s in spans if s["name"] == "outer")
    inner = [s for s in spans if s["name"] == "inner"]
    assert len(inner) == 3 and all(s["parent"] == outer["id"] for s in inner)
    total = self_times(spans)
    assert total["outer"][1] + total["inner"][1] == pytest.approx(outer["end"] - outer["start"])
    assert isinstance(ns.inner(), int)



def test_metric_tables_match_benchmark_json():
    import json

    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
