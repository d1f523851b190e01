"""dcqaoa benchmark: the user-facing commands on named workloads.

    python3 perfbench/run.py --workload chain-deep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Each run

1. builds the workload's input graphs from ``--seed`` under
   ``.perfbench/work/`` and their exact optima with ``chain_maxcut``;
2. spawns set-up probes (``perfbench/harness.py setup``) that stop at the
   first solver call;
3. runs the workload's ``dcqaoa`` command from one or two clients, each
   command in a fresh interpreter, until the next one would overrun
   ``--seconds``;
4. checks every output (the correctness gate) and compares the output
   hashes with every other run of the same inputs and source tree;
5. writes a result file under ``.perfbench/results/`` and prints the
   metrics, the last line being one JSON object.

``--trace 0`` reports the end-to-end metrics from untraced commands.
``--trace 1`` alternates untraced and traced commands and reports the
per-layer metrics of the traced ones, plus the tracing overhead.
See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

from tracer import self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")
HARNESS = os.path.join(BENCH_DIR, "harness.py")

# Acceptance settings shared by every workload.
SHOTS = 1000
SETTINGS = ["--p", "3", "--s", str(SHOTS), "--t", "20", "--budget", "60", "--restarts", "2",
            "--scheme", "minXmul"]
THREAD_ENV = {
    "DCQAOA_THREADS": "2",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

CHAIN_DEEP_NODES = 768
SETUP_PROBES = 5
CLIENTS = 2
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ar_best_sampled": "ratio",
    "ar_expectation": "ratio",
}

PER_LAYER_UNITS = {
    "partition.nlgp.calls": "count",
    "partition.nlgp.self_s": "s",
    "partition.components_excluding.calls": "count",
    "partition.candidates_per_split": "count",
    "partition.split_balance": "ratio",
    "solver.tree_depth": "count",
    "solver.tree_nodes": "count",
    "solver.self_s": "s",
    "solver.abridge.self_s": "s",
    "solver.rescale.self_s": "s",
    "solver.weight_map.self_s": "s",
    "solver.support_before_abridge": "count",
    "qaoa.optimize_params.calls": "count",
    "qaoa.optimize_params.self_s": "s",
    "qaoa.evals_per_leaf": "count",
    "qaoa.sample_solution_map.calls": "count",
    "qaoa.sample_solution_map.self_s": "s",
    "qaoa.apply_mixer_layer.calls": "count",
    "qaoa.apply_mixer_layer.busy_s": "s",
    "qaoa.apply_cost_phases.busy_s": "s",
    "qaoa.amp_updates": "count",
    "qaoa.leaf_qubits_max": "count",
    "reconstruction.combine.calls": "count",
    "reconstruction.combine.self_s": "s",
    "reconstruction.combine.pair_candidates": "count",
    "reconstruction.combine.match_ratio": "ratio",
    "reconstruction.combine.bits_written": "count",
    "reconstruction.rerank_by_cut.calls": "count",
    "reconstruction.rerank_by_cut.self_s": "s",
    "reconstruction.rerank_by_cut.edge_checks": "count",
    "baselines.random_search.calls": "count",
    "baselines.random_search.self_s": "s",
    "baselines.random_search.rows": "count",
    "baselines.random_search.bytes": "bytes",
    "baselines.random_search.ar_best_sampled": "ratio",
    "baselines.greedy_local_search.calls": "count",
    "baselines.greedy_local_search.self_s": "s",
    "baselines.greedy_local_search.evaluations": "count",
    "reports.reference_optimum.self_s": "s",
    "reports.build_run_report.self_s": "s",
    "cli.pool.busy_ratio": "ratio",
    "graphs.load_graph.busy_s": "s",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_ratio": "ratio",
}

# Counts computed from call arguments and results; two traced runs of one
# input must agree on every one of them exactly.
COMPUTED_COUNTS = (
    "partition.nlgp.calls",
    "partition.components_excluding.calls",
    "partition.splits",
    "partition.split_balance_sum",
    "solver.tree_depth",
    "solver.tree_nodes",
    "solver.support_before_abridge",
    "qaoa.optimize_params.calls",
    "qaoa.evals",
    "qaoa.sample_solution_map.calls",
    "qaoa.apply_mixer_layer.calls",
    "qaoa.apply_cost_phases.calls",
    "qaoa.amp_updates",
    "qaoa.leaf_qubits_max",
    "reconstruction.combine.calls",
    "reconstruction.combine.pair_candidates",
    "reconstruction.combine.pairs_matched",
    "reconstruction.combine.bits_written",
    "reconstruction.rerank_by_cut.calls",
    "reconstruction.rerank_by_cut.edge_checks",
    "baselines.random_search.calls",
    "baselines.random_search.rows",
    "baselines.random_search.bytes",
    "baselines.greedy_local_search.calls",
    "baselines.greedy_local_search.evaluations",
)


@dataclass(frozen=True)
class Workload:
    """Inputs and command of one named workload.

    ``build(workdir, seed)`` writes the inputs and returns the command's
    arguments (without ``--out``) and the input graphs. ``output`` is the
    extension of the command's output file. ``clients`` commands run at
    once, each starting the next as soon as it finishes.
    """

    name: str
    build: Callable
    output: str
    clients: int


def _build_chain_deep(workdir, seed):
    from dcqaoa import random_chain_graph, save_graph

    g = random_chain_graph(CHAIN_DEEP_NODES, seed)
    save_graph(g, os.path.join(workdir, "graph.edges"))
    return ["solve", "graph.edges", "--k", "8", *SETTINGS, "--seed", str(seed)], [g]


def _build_leaf_wide(workdir, seed):
    from dcqaoa import save_graph
    from leafwide import leafwide_graph

    g = leafwide_graph(seed)
    save_graph(g, os.path.join(workdir, "graph.edges"))
    return ["solve", "graph.edges", "--k", "14", *SETTINGS, "--seed", str(seed)], [g]


def _build_compare_suite(workdir, seed):
    from dcqaoa import load_graph
    from dcqaoa.cli import _suite_paths

    paths = _suite_paths(os.path.join(workdir, "suite"), seed)
    args = ["compare", "--suite", "suite", "--k", "8", *SETTINGS, "--seed", str(seed)]
    return args, [load_graph(p) for p in paths]


# Why each workload exists is in BENCHMARK.json and README.md. Two clients
# keep both cores of the 2-core host busy with the benchmark's own commands,
# which steadies the timings; compare already runs a 2-thread pool.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain-deep", _build_chain_deep, output="json", clients=CLIENTS),
        Workload("leaf-wide", _build_leaf_wide, output="json", clients=CLIENTS),
        Workload("compare-suite", _build_compare_suite, output="csv", clients=1),
    )
}


# -- child processes -------------------------------------------------------


def _child_env():
    env = {**os.environ, **THREAD_ENV}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(mode, cli_args, workdir, tag):
    """Spawn the harness once; returns (record or None, spawn time, error text)."""
    record_path = os.path.join(workdir, f"{tag}.record.json")
    spans_path = os.path.join(workdir, f"{tag}.spans.jsonl")
    extra = [spans_path] if mode == "trace" else []
    argv = [sys.executable, HARNESS, mode, record_path, *extra, "--", *cli_args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=workdir, env=_child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, spawned, f"{mode} command timed out after {CHILD_TIMEOUT_S} s"
    except OSError as exc:
        return None, spawned, f"{mode} command could not start: {exc}"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, spawned, f"{mode} command exited {proc.returncode}: {tail[0][:300]}"
    try:
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError) as exc:
        return None, spawned, f"{mode} command left no record: {exc}"
    if mode == "trace":
        with open(spans_path, encoding="utf-8") as fh:
            record["spans"] = [json.loads(line) for line in fh]
    return record, spawned, ""


# -- correctness gate ------------------------------------------------------


def _sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_command(record, output, graphs, optima, s):
    """Correctness gate for one command. Returns (errors, quality, output hash)."""
    from dcqaoa import SolutionMap, best_sampled_cut, expectation_value

    errors = []
    by_digest = {g.digest(): g for g in graphs}
    best_cuts = {}
    best_ratios, exp_ratios = [], []
    for solve in record["solves"]:
        g = by_digest.get(solve["digest"])
        if g is None:
            errors.append(f"solver ran on an unknown graph {solve['digest'][:12]}")
            continue
        if tuple(solve["nodes"]) != g.nodes:
            errors.append(f"solution map of {g.n}-node graph is not keyed on its nodes")
            continue
        counts = solve["counts"]
        bad = [a for a in counts if len(a) != g.n or set(a) - {"0", "1"}]
        if bad or not counts:
            errors.append(f"{len(bad)} malformed assignments (or empty map) on {g.n} nodes")
            continue
        if any(not isinstance(c, int) or c < 1 for c in counts.values()):
            errors.append("non-positive or non-integer counts")
            continue
        if sum(counts.values()) > s:
            errors.append(f"counts sum to {sum(counts.values())} > s={s}")
        solution = SolutionMap(g.nodes, counts)
        opt = optima[solve["digest"]]
        best = best_cuts[solve["digest"]] = best_sampled_cut(g, solution)
        if best > opt:
            errors.append(f"best cut {best} exceeds the exact optimum {opt}")
        best_ratios.append(best / opt)
        exp_ratios.append(expectation_value(g, solution) / opt)
    if len(record["solves"]) != len(graphs) or set(best_cuts) != set(by_digest):
        errors.append(f"{len(record['solves'])} valid solver calls for {len(graphs)} input graphs")
    if any(r > 1 for r in best_ratios + exp_ratios):
        errors.append("approximation ratio above 1")

    quality = {
        "ar_best_sampled": statistics.fmean(best_ratios) if best_ratios else 0.0,
        "ar_expectation": statistics.fmean(exp_ratios) if exp_ratios else 0.0,
    }
    try:
        output_hash = _sha256_file(output)
    except OSError as exc:
        return errors + [f"no output file: {exc}"], quality, None
    if output.endswith(".csv"):
        row_errors, quality["rs_ar_best_sampled"] = _check_compare_rows(output, graphs, optima)
        errors += row_errors
    elif record["solves"]:
        errors += _check_report(output, record["solves"][0], best_cuts, optima)
    return errors, quality, output_hash


def _check_report(path, solve, best_cuts, optima):
    errors = []
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    metrics = report["metrics"]
    if metrics["runtime_seconds"] is not None:
        errors.append("--stable-output report carries a wall-clock field")
    if report["solution"] != {"nodes": solve["nodes"], "counts": solve["counts"]}:
        errors.append("report solution differs from the solver's map")
    if report["reference"]["max_cut"] > optima[solve["digest"]]:
        errors.append(f"report reference cut {report['reference']['max_cut']} exceeds the optimum")
    if metrics["best_sampled_cut"] != best_cuts.get(solve["digest"]):
        errors.append("report best_sampled_cut disagrees with the solver's map")
    return errors


def _check_compare_rows(path, graphs, optima):
    """Gate the compare CSV; returns (errors, random search's mean ratio)."""
    errors = []
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = [r for r in csv.DictReader(lines) if r["graph"] != "__mean__"]
    if len(rows) != len(graphs):
        errors.append(f"compare wrote {len(rows)} rows for {len(graphs)} graphs")
    rs_ratios = []
    for row, g in zip(rows, graphs):
        if row["error"]:
            errors.append(f"row {row['graph']}: {row['error']}")
            continue
        opt = optima[g.digest()]
        for column in ("dc_best_cut", "rs_best_cut", "ls_best_cut", "reference_cut"):
            if int(row[column]) > opt:
                errors.append(f"row {row['graph']}: {column} {row[column]} > optimum {opt}")
        rs_ratios.append(int(row["rs_best_cut"]) / opt)
    return errors, statistics.fmean(rs_ratios) if rs_ratios else 0.0


# -- determinism across runs -----------------------------------------------


def source_digest():
    """sha256 over every file of the package source, by relative path."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode())
            h.update(_sha256_file(path).encode())
    return h.hexdigest()


def check_known_hashes(key, hashes):
    """Compare with hashes earlier runs recorded for the same inputs and source."""
    path = os.path.join(STATE_DIR, "hashes.json")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    previous = known.get(key)
    if previous is not None:
        return [] if previous == hashes else [f"outputs differ from an earlier run: {previous} != {hashes}"]
    known[key] = hashes
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return []


# -- per-layer metrics -----------------------------------------------------


def layer_metrics(records, quality):
    """Per-layer metrics of traced commands: medians of times, exact counts."""
    per_record = [_layer_metrics_of(r) for r in records]
    out = {}
    for name in PER_LAYER_UNITS:
        values = [m[name] for m in per_record if name in m]
        out[name] = statistics.median(values) if values else 0.0
    out["baselines.random_search.ar_best_sampled"] = quality.get("rs_ar_best_sampled", 0.0)
    return out


def _layer_metrics_of(record):
    counts = dict(record["counts"])
    counts["solver.tree_depth"] = max(s["tree_depth"] for s in record["solves"])
    counts["solver.tree_nodes"] = sum(s["tree_nodes"] for s in record["solves"])
    spans = record["spans"]
    selfs = self_times(spans)
    for name, (calls, self_s) in selfs.items():
        counts[name + ".calls"] = calls
        counts[name + ".self_s"] = self_s
    counts["solver.self_s"] = counts.get("solver.dc_qaoa_traced.self_s", 0.0)

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    counts["partition.candidates_per_split"] = ratio("partition.components_excluding.calls", "partition.splits")
    counts["partition.split_balance"] = ratio("partition.split_balance_sum", "partition.splits")
    counts["qaoa.evals_per_leaf"] = ratio("qaoa.evals", "qaoa.optimize_params.calls")
    counts["reconstruction.combine.match_ratio"] = ratio(
        "reconstruction.combine.pairs_matched", "reconstruction.combine.pair_candidates")

    duration = {}
    for span in spans:
        duration[span["name"]] = duration.get(span["name"], 0.0) + span["end"] - span["start"]
    threads = counts.get("cli.pool.threads", 0)
    if duration.get("cli.pool") and threads:
        counts["cli.pool.busy_ratio"] = duration.get("cli.row", 0.0) / (duration["cli.pool"] * threads)
    solve_s = duration.get("solver.dc_qaoa_traced", 0.0)
    counts["trace.solve_s"] = solve_s
    counts["trace.accounted_ratio"] = (
        (_self_inside_solves(spans) + counts.get("qaoa.apply_mixer_layer.busy_s", 0.0)
         + counts.get("qaoa.apply_cost_phases.busy_s", 0.0)) / solve_s
        if solve_s else 0.0
    )
    return counts


def _self_inside_solves(spans):
    """Self time of every span that is, or nests in, a dc_qaoa_traced span.

    A parent opens before its children, so it has the smaller id.
    """
    inside = {}
    total = 0.0
    for span in sorted(spans, key=lambda sp: sp["id"]):
        inside[span["id"]] = (span["name"] == "solver.dc_qaoa_traced"
                              or inside.get(span["parent"], False))
        if inside[span["id"]]:
            total += span["self_s"]
    return total


def computed_counts(record):
    metrics = _layer_metrics_of(record)
    return {name: metrics.get(name, 0) for name in COMPUTED_COUNTS}


# -- environment record ----------------------------------------------------


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREAD_ENV,
        "git_commit": commit,
        "source_digest": source_digest(),
    }


# -- measuring -------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _run_commands(workload, cli_args, workdir, started, seconds, trace):
    """Run the workload's command from `workload.clients` threads until time is up.

    Each client starts another command unless the median command so far
    would end past `seconds`. The first commands always run: one per client,
    and in a traced run at least one untraced and one traced.
    Returns (index, mode, record, spawned, error) in launch order.
    """
    lock = threading.Lock()
    launched, done, durations = [], [], []
    first = max(workload.clients, 2 if trace else 1)

    def client():
        while True:
            with lock:
                index = len(launched)
                elapsed = time.monotonic() - started
                if index >= first and elapsed + _median(durations) > seconds:
                    return
                launched.append(index)
            mode = "trace" if trace and index % 2 == 1 else "plain"
            args = [*cli_args, "--stable-output", "--out", f"cmd{index}.{workload.output}"]
            t0 = time.monotonic()
            record, spawned, error = run_child(mode, args, workdir, f"cmd{index}")
            with lock:
                durations.append(time.monotonic() - t0)
                done.append((index, mode, record, spawned, error))

    threads = [threading.Thread(target=client) for _ in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(done, key=lambda d: d[0])


def measure(workload, seed, seconds, trace):
    started = time.monotonic()
    workdir = os.path.join(STATE_DIR, "work", f"{workload.name}-seed{seed}")
    os.makedirs(workdir, exist_ok=True)
    for name in os.listdir(workdir):
        if name.startswith(("cmd", "setup")):
            os.remove(os.path.join(workdir, name))
    cli_args, graphs = workload.build(workdir, seed)
    from dcqaoa import chain_maxcut

    optima = {g.digest(): chain_maxcut(g) for g in graphs}

    setup_samples = []
    for i in range(SETUP_PROBES):
        record, spawned, error = run_child("setup", cli_args, workdir, f"setup{i}")
        if record is None or record["t_first_solve"] is None:
            return _fail(workload, seed, [error or "set-up probe never reached the solver"])
        setup_samples.append(record["t_first_solve"] - spawned)

    errors = []
    failed = 0
    plain, traced, hashes, quality = [], [], set(), None
    commands = _run_commands(workload, cli_args, workdir, started, seconds, trace)
    for index, mode, record, spawned, error in commands:
        if record is None:
            failed += 1
            errors.append(error)
            continue
        output = os.path.join(workdir, f"cmd{index}.{workload.output}")
        cmd_errors, cmd_quality, output_hash = check_command(record, output, graphs, optima, SHOTS)
        solutions = hashlib.sha256(json.dumps(
            sorted((x["digest"], x["counts"]) for x in record["solves"]), sort_keys=True
        ).encode()).hexdigest()
        hashes.add((output_hash, solutions))
        if len(hashes) > 1:
            cmd_errors.append("output hash differs between commands of one run")
        if cmd_errors:
            failed += 1
            errors.extend(cmd_errors)
            continue
        quality = cmd_quality
        record["wall_s"] = record["t_main_end"] - spawned
        (traced if mode == "trace" else plain).append(record)
    attempted = len(commands)

    if not plain or (trace and not traced):
        return _fail(workload, seed, errors or ["no command passed the gate"], attempted, failed)

    output_hash, solutions_hash = next(iter(hashes))
    errors += check_known_hashes(
        f"{workload.name}|{seed}|{source_digest()}",
        {"output": output_hash, "solutions": solutions_hash})
    if errors and not failed:
        failed = 1

    e2e = {
        "setup_s": (_median(setup_samples), len(setup_samples)),
        "solve_s": (_median([sum(x["solve_s"] for x in r["solves"]) for r in plain]), len(plain)),
        "wall_s": (_median([r["wall_s"] for r in plain]), len(plain)),
        "peak_rss_mb": (_median([r["maxrss_kb"] / 1024 for r in plain]), len(plain)),
        "ar_best_sampled": (quality["ar_best_sampled"], len(plain)),
        "ar_expectation": (quality["ar_expectation"], len(plain)),
    }
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "clients": workload.clients,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "end_to_end": {k: {"median": v, "samples": n, "unit": END_TO_END_UNITS[k]}
                       for k, (v, n) in e2e.items()},
        "rs_ar_best_sampled": quality.get("rs_ar_best_sampled"),
        "output_hash": output_hash,
        "solutions_hash": solutions_hash,
        "environment": environment(),
    }
    if trace:
        layers = layer_metrics(traced, quality)
        layers["trace.overhead_s"] = layers["trace.solve_s"] - e2e["solve_s"][0]
        counts = [computed_counts(r) for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            errors.append("computed counts differ between traced commands")
            result["failed"] = max(1, failed)
        result["per_layer"] = {k: {"value": v, "unit": PER_LAYER_UNITS[k], "samples": len(traced)}
                               for k, v in layers.items()}
        result["computed_counts"] = counts[0]
    result["failed_ratio"] = result["failed"] / attempted
    _write_result(result, traced)
    return result


def _fail(workload, seed, errors, attempted=1, failed=1):
    return {"workload": workload.name, "seed": seed, "attempted": attempted,
            "failed": failed, "errors": errors}


def _write_result(result, traced):
    results = os.path.join(STATE_DIR, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = os.path.join(results, f"{result['workload']}-seed{result['seed']}-trace{result['trace']}-{stamp}")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if traced:
        with open(base + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for record in traced:
                for span in record["spans"]:
                    fh.write(json.dumps(span, sort_keys=True) + "\n")


def _print_result(result, trace):
    """Human-readable lines, then the JSON line; returns whether all passed."""
    for error in result["errors"]:
        print(f"gate: {error}")
    metrics = {}
    if "end_to_end" in result:
        print(f"workload={result['workload']} seed={result['seed']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_ratio={result['failed'] / result['attempted']:.4f}")
        for name, m in result["end_to_end"].items():
            print(f"  {name} = {m['median']:.6g} {m['unit']} (median of {m['samples']})")
        if result["rs_ar_best_sampled"] is not None:
            print(f"  rs_ar_best_sampled = {result['rs_ar_best_sampled']:.6g} ratio")
        print(f"  output sha256 = {result['output_hash']}")
        if trace:
            for name, m in result["per_layer"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']} (median of {m['samples']})")
            metrics = {k: {"value": m["value"], "unit": m["unit"]}
                       for k, m in result["per_layer"].items()}
        else:
            metrics = {k: {"value": m["median"], "unit": m["unit"]}
                       for k, m in result["end_to_end"].items()}
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dcqaoa", "__init__.py")):
        print(f"error: no dcqaoa package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before this process imports numpy
    sys.path[:0] = [SRC, BENCH_DIR]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        _print_result(measure(WORKLOADS[name], args.seed, args.seconds, args.trace), args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
