import csv
import json
import sys
import time

import pytest

from dcqaoa.cli import SUITE_SIZES, main
from dcqaoa.errors import DcqaoaError
from dcqaoa.graphs import load_graph, random_chain_graph, save_graph
from dcqaoa.seeds import derive_seed
from conftest import complete_graph, toy_graph


def write_toy(tmp_path):
    path = tmp_path / "toy.edges"
    save_graph(toy_graph(), path)
    return str(path)


FAST = ["--budget", "40", "--restarts", "1", "--stable-output"]


class TestGen:
    def test_writes_deterministic_file(self, tmp_path, capsys):
        out1 = tmp_path / "a.edges"
        out2 = tmp_path / "b.edges"
        assert main(["gen", "--n", "10", "--edge-prob", "0.3", "--seed", "1", "--out", str(out1)]) == 0
        assert main(["gen", "--n", "10", "--edge-prob", "0.3", "--seed", "1", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        stdout = capsys.readouterr().out
        assert "nodes=10" in stdout

    def test_single_node(self, tmp_path):
        out = tmp_path / "one.edges"
        assert main(["gen", "--n", "1", "--out", str(out)]) == 0
        assert load_graph(out).nodes == (0,)

    def test_chain_family(self, tmp_path):
        from dcqaoa import random_chain_graph

        out = tmp_path / "chain.edges"
        assert main(["gen", "--family", "chain", "--n", "24", "--seed", "3", "--out", str(out)]) == 0
        assert load_graph(out) == random_chain_graph(24, seed=3)

    def test_unwritable_path(self, tmp_path):
        assert main(["gen", "--n", "4", "--out", str(tmp_path / "nope" / "x.edges")]) == 1


class TestSolve:
    def test_toy_reaches_optimum_at_defaults(self, tmp_path, capsys):
        path = write_toy(tmp_path)
        assert main(["solve", path, "--k", "4", "--seed", "1", "--stable-output"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["reference"] == {"kind": "brute_force", "max_cut": 4}
        assert report["metrics"]["approximation_ratio_best_sampled"] == 1.0
        assert 0.0 <= report["metrics"]["approximation_ratio_expectation"] <= 1.0
        assert report["metrics"]["runtime_seconds"] is None
        assert report["graph"]["nodes"] == 5

    def test_large_k_single_leaf(self, tmp_path, capsys):
        path = write_toy(tmp_path)
        assert main(["solve", path, "--k", "8", "--seed", "1", *FAST]) == 0
        report = json.loads(capsys.readouterr().out)
        (root,) = report["partition_tree"]
        assert "children" not in root
        assert report["metrics"]["nrl"] == 1.0

    def test_k5_infeasible_exit_code(self, tmp_path, capsys):
        path = tmp_path / "k5.edges"
        save_graph(complete_graph(5), path)
        assert main(["solve", str(path), "--k", "4", *FAST]) == 2
        assert "k=4" in capsys.readouterr().err

    def test_chain_whose_top_maps_share_no_signature_solves(self, tmp_path, capsys):
        # at t = 1 some split's two children keep rows that disagree on the separator
        path = str(tmp_path / "chain.edges")
        assert main(["gen", "--family", "chain", "--n", "100", "--seed", "1", "--out", path]) == 0
        capsys.readouterr()
        assert main(["solve", path, "--t", "1", "--stable-output"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["reference"] == {"kind": "brute_force", "max_cut": 116}
        assert 0.0 < report["metrics"]["approximation_ratio_best_sampled"] <= 1.0

    def test_leaf_over_the_qubit_cap_names_the_simulator_cap(self, tmp_path, capsys):
        path = str(tmp_path / "er25.edges")
        assert main(["gen", "--n", "25", "--seed", "1", "--out", path]) == 0
        capsys.readouterr()
        assert main(["solve", path, "--k", "25", *FAST]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert "simulator cap of 20" in line

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 2 3\n")
        assert main(["solve", str(path), *FAST]) == 1

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.edges"), *FAST]) == 1

    def test_report_round_trips(self, tmp_path, capsys):
        path = write_toy(tmp_path)
        main(["solve", path, "--k", "4", "--seed", "3", *FAST])
        text = capsys.readouterr().out
        report = json.loads(text)
        assert json.loads(json.dumps(report)) == report

    def test_report_is_one_line(self, tmp_path, capsys):
        path = write_toy(tmp_path)
        assert main(["solve", path, "--k", "4", "--seed", "3", *FAST]) == 0
        text = capsys.readouterr().out
        line, end = text.split("\n")
        assert end == ""
        assert json.dumps(json.loads(line), sort_keys=True) == line

    def test_star_with_more_leaves_than_budget_solves(self, tmp_path, capsys):
        # the centre leaves nine components, grouped into halves of 4 and 5 leaves
        path = tmp_path / "star.edges"
        path.write_text("".join(f"0 {v}\n" for v in range(1, 10)))
        assert main(["solve", str(path), "--k", "8", "--seed", "1", *FAST]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["partition_tree"][0]["separator"] == [0]
        assert report["metrics"]["best_sampled_cut"] == 9

    def test_with_kl_reports_value(self, tmp_path, capsys):
        path = write_toy(tmp_path)
        assert main(["solve", path, "--k", "4", "--seed", "1", "--with-kl", *FAST]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["metrics"]["kl_divergence"] >= 0.0

    def test_partition_tree_deeper_than_recursion_limit_solves(self, tmp_path, capsys):
        # single-node separators peel one block per level, so the tree is
        # about n/2 levels deep: deeper than the recursion limit
        path = tmp_path / "chain2048.edges"
        save_graph(random_chain_graph(2048, seed=1), path)
        assert main(["solve", str(path), "--budget", "10", "--restarts", "1", "--stable-output"]) == 0
        tree = json.loads(capsys.readouterr().out)["partition_tree"]
        depth = [0] * len(tree)
        for i, entry in enumerate(tree):
            for child in entry.get("children", []):
                assert child > i
                depth[child] = depth[i] + 1
        assert max(depth) > sys.getrecursionlimit()

    def test_disconnected_input_with_isolated_nodes_solves(self, tmp_path, capsys):
        # a triangle, a 3-node path and two isolated-node lines
        path = tmp_path / "parts.edges"
        path.write_text("0 1\n1 2\n0 2\n10 11\n11 12\n20\n21\n")
        assert main(["solve", str(path), "--k", "3", "--seed", "1", *FAST]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["solution"]["nodes"] == [0, 1, 2, 10, 11, 12, 20, 21]
        assert report["reference"] == {"kind": "brute_force", "max_cut": 4}
        assert report["metrics"]["approximation_ratio_best_sampled"] == 1.0

    def test_edgeless_graph_solves(self, tmp_path, capsys):
        path = tmp_path / "edgeless.edges"
        path.write_text("".join(f"{v}\n" for v in range(300)))
        assert main(["solve", str(path), *FAST]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["solution"]["nodes"] == list(range(300))
        assert report["metrics"]["best_sampled_cut"] == 0
        # no edge to cut: every assignment is optimal
        assert report["reference"]["max_cut"] == 0
        assert report["metrics"]["approximation_ratio_best_sampled"] == 1.0
        assert report["metrics"]["approximation_ratio_expectation"] == 1.0

    def test_empty_graph_names_its_cause(self, tmp_path, capsys):
        path = tmp_path / "empty.edges"
        path.write_text("# no edges\n")
        assert main(["solve", str(path), *FAST]) == 1
        assert capsys.readouterr().err == "error: graph has no nodes\n"

    def test_largest_s_solves(self, tmp_path):
        # the most draws numpy's multinomial sampler takes; one more is a
        # row of test_bad_input_is_a_one_line_error
        path = write_toy(tmp_path)
        assert main(["solve", path, "--k", "4", "--s", str(2**63 - 1), *FAST]) == 0

    def test_out_file(self, tmp_path):
        path = write_toy(tmp_path)
        out = tmp_path / "report.json"
        assert main(["solve", path, "--k", "4", "--out", str(out), *FAST]) == 0
        assert json.loads(out.read_text())["schema"] == "dcqaoa.run_report.v2"


class TestSweep:
    def test_grid_and_determinism(self, tmp_path):
        path = write_toy(tmp_path)
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"

        def args(out):
            return ["sweep", path, "--axis", "s", "--values", "100,200",
                    "--repeats", "2", "--k", "4", "--seed", "5",
                    "--out", str(out), *FAST]

        assert main(args(out1)) == 0
        assert main(args(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "# schema=dcqaoa.sweep.v1"
        assert len(lines) == 2 + 4  # comment, header, 2 values x 2 repeats

    def test_failed_rows_are_tagged(self, tmp_path, capsys):
        path = tmp_path / "k5.edges"
        save_graph(complete_graph(5), path)
        assert main(["sweep", str(path), "--axis", "k", "--values", "4,5",
                     "--repeats", "1", "--seed", "2", *FAST]) == 0
        rows = capsys.readouterr().out.splitlines()
        k4_row = next(r for r in rows if r.startswith("k,4"))
        k5_row = next(r for r in rows if r.startswith("k,5"))
        assert "ConnectivityExceededError" in k4_row
        assert "ConnectivityExceededError" not in k5_row

    def test_s_above_the_sampler_limit_is_tagged(self, tmp_path, capsys):
        path = write_toy(tmp_path)
        assert main(["sweep", path, "--axis", "s", "--values", f"100,{2**63}", "--k", "4", *FAST]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert "ValueError" not in next(r for r in rows if r.startswith("s,100,"))
        assert "ValueError: s must be in" in next(r for r in rows if r.startswith(f"s,{2**63},"))

    def test_bad_values_rejected(self, tmp_path):
        path = write_toy(tmp_path)
        assert main(["sweep", path, "--axis", "s", "--values", ",", *FAST]) == 1


class TestCompare:
    def test_two_graphs_with_summary(self, tmp_path, capsys):
        toy = write_toy(tmp_path)
        k2path = tmp_path / "k2.edges"
        k2path.write_text("0 1\n")
        assert main(["compare", toy, str(k2path), "--k", "4", "--seed", "1", *FAST]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# schema=dcqaoa.compare.v1"
        summary = lines[-1]
        assert summary.startswith("__mean__")
        k2_row = next(l for l in lines if "k2.edges" in l)
        cells = dict(zip(lines[1].split(","), k2_row.split(",")))
        assert cells["dc_ar_best_sampled"] == "1.0"
        assert cells["rs_ar_best_sampled"] == "1.0"

    def test_empty_usage_error(self):
        assert main(["compare"]) == 1

    def test_suite_generation_deterministic(self, tmp_path, monkeypatch):
        suite = tmp_path / "suite"
        from dcqaoa.cli import _suite_paths

        paths1 = _suite_paths(str(suite), seed=0)
        contents = [open(p).read() for p in paths1]
        paths2 = _suite_paths(str(suite), seed=0)
        assert paths1 == paths2
        assert [open(p).read() for p in paths2] == contents
        assert len(paths1) == 7

    def test_suite_is_rewritten_for_each_seed(self, tmp_path):
        # at k = 2 no block of a chain splits, so every row fails fast; the
        # suite is written before any row runs
        suite = tmp_path / "suite"
        for seed in (0, 1):
            args = ["compare", "--suite", str(suite), "--k", "2", "--seed", str(seed)]
            assert main([*args, *FAST]) == 0
        suites = {
            seed: [random_chain_graph(n, seed=derive_seed(seed, "suite", n)) for n in SUITE_SIZES]
            for seed in (0, 1)
        }
        assert suites[0] != suites[1]
        written = [load_graph(suite / f"suite_n{n:02d}.edges") for n in SUITE_SIZES]
        assert written == suites[1]


def timed_rows(args, out):
    """Wall seconds of main(args) and the data rows of the CSV it writes."""
    started = time.perf_counter()
    assert main([*args, "--out", str(out)]) == 0
    wall = time.perf_counter() - started
    with open(out, encoding="utf-8") as fh:
        return wall, list(csv.DictReader(line for line in fh if not line.startswith("#")))


class TestRowsRunAlone:
    """Rows run one at a time, so the runtime columns sum to at most the wall time."""

    def test_compare(self, tmp_path):
        paths = []
        for n in (96, 128):
            path = tmp_path / f"chain{n}.edges"
            save_graph(random_chain_graph(n, seed=n), path)
            paths.append(str(path))
        wall, rows = timed_rows(
            ["compare", *paths, "--seed", "1", "--budget", "10", "--restarts", "1"],
            tmp_path / "compare.csv",
        )
        rows = [r for r in rows if r["graph"] != "__mean__"]
        assert len(rows) == 2 and not any(r["error"] for r in rows)
        assert wall >= sum(
            float(r["dc_runtime_seconds"]) + float(r["rs_runtime_seconds"]) for r in rows
        )

    def test_sweep(self, tmp_path):
        wall, rows = timed_rows(
            ["sweep", write_toy(tmp_path), "--axis", "s", "--values", "100,200",
             "--repeats", "2", "--k", "4", "--seed", "5", "--budget", "10", "--restarts", "1"],
            tmp_path / "sweep.csv",
        )
        assert len(rows) == 4 and not any(r["error"] for r in rows)
        assert wall >= sum(float(r["runtime_seconds"]) for r in rows)


def test_any_package_error_is_a_one_line_error(tmp_path, monkeypatch, capsys):
    def handler(args):
        raise DcqaoaError("unforeseen failure")

    monkeypatch.setattr("dcqaoa.cli._cmd_gen", handler)
    assert main(["gen", "--n", "4", "--out", str(tmp_path / "g.edges")]) == 1
    assert capsys.readouterr().err == "error: unforeseen failure\n"


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


TOY_EDGES = b"0 1\n0 2\n1 2\n2 3\n3 4\n"


@pytest.mark.parametrize(
    "command, content, flags",
    [
        ("solve", b"", []),
        ("solve", b"\xff\xfe 1\n", []),
        ("solve", b"0 0\n", []),
        ("solve", b"-1 2\n", []),
        ("solve", TOY_EDGES, ["--k", "1"]),
        ("solve", TOY_EDGES, ["--t", "0"]),
        ("solve", TOY_EDGES, ["--s", "0"]),
        ("solve", TOY_EDGES, ["--s", str(2**63)]),
        ("sweep", TOY_EDGES, ["--axis", "s", "--values", "x"]),
    ],
    ids=["empty", "undecodable", "self-loop", "negative", "k1", "t0", "s0", "s2^63", "values-x"],
)
def test_bad_input_is_a_one_line_error(tmp_path, capsys, command, content, flags):
    path = tmp_path / "g.edges"
    path.write_bytes(content)
    assert main([command, str(path), *flags, *FAST]) in (1, 2)
    assert len(capsys.readouterr().err.splitlines()) == 1
