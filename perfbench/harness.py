"""Child process of the benchmark: runs the dcqaoa command line in-process.

    python3 perfbench/harness.py MODE RECORD [SPANS] -- <dcqaoa arguments>

MODE is one of

* ``setup``: stop the process at the first solver call, so the time from
  spawn to that call is the set-up time;
* ``plain``: time each ``dc_qaoa_traced`` call and nothing else (the
  end-to-end numbers come from this mode);
* ``trace``: also wrap every layer boundary (see ``install``) and write
  the spans as JSONL to SPANS.

RECORD receives one JSON object with monotonic timestamps, peak RSS, and
per-solve summaries the parent checks for correctness. The process exits
with the command's exit code.
``time.monotonic`` is the system-wide CLOCK_MONOTONIC on Linux, so the
parent can subtract its own spawn time from the child's timestamps.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time


def install(tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    import dcqaoa.cli as cli
    import dcqaoa.partition as partition
    import dcqaoa.qaoa as qaoa
    import dcqaoa.reports as reports
    import dcqaoa.solver as solver

    def on_nlgp(tr, frame, call, result):
        g1, g2 = result.subgraphs
        tr.count("partition.splits")
        tr.count("partition.split_balance_sum", min(g1.n, g2.n) / max(g1.n, g2.n))

    def on_optimize(tr, frame, call, result):
        tr.count("qaoa.evals", frame.kernel_calls["qaoa.apply_mixer_layer"] // call["p"])
        tr.maximum("qaoa.leaf_qubits_max", call["g"].n)

    def mixer_work(counts, state):
        counts["qaoa.amp_updates"] += (len(state).bit_length() - 1) * len(state)

    def cost_work(counts, state):
        counts["qaoa.amp_updates"] += len(state)

    def on_combine(tr, frame, call, result):
        tr.count("reconstruction.combine.pair_candidates",
                 len(call["m1"].counts) * len(call["m2"].counts))
        tr.count("reconstruction.combine.pairs_matched", len(result.counts))
        tr.count("reconstruction.combine.bits_written", len(result.counts) * len(result.nodes))

    def on_rerank(tr, frame, call, result):
        tr.count("reconstruction.rerank_by_cut.edge_checks", len(call["m"].counts) * call["g"].m)

    def on_abridge(tr, frame, call, result):
        tr.count("solver.support_before_abridge", len(call["m"].counts))

    def on_random_search(tr, frame, call, result):
        tr.count("baselines.random_search.rows", call["budget"])
        tr.count("baselines.random_search.bytes", call["budget"] * call["g"].n)

    def on_local_search(tr, frame, call, result):
        tr.count("baselines.greedy_local_search.evaluations", result.evaluations)

    tracer.kernel(cli, "load_graph", "graphs.load_graph")
    tracer.span(cli, "dc_qaoa_traced", "solver.dc_qaoa_traced")
    tracer.span(solver, "nlgp", "partition.nlgp", after=on_nlgp)
    tracer.counter(partition, "components_excluding", "partition.components_excluding.calls")
    tracer.span(qaoa, "optimize_params", "qaoa.optimize_params", after=on_optimize)
    tracer.span(qaoa, "sample_solution_map", "qaoa.sample_solution_map")
    tracer.kernel(qaoa, "apply_mixer_layer", "qaoa.apply_mixer_layer", work=mixer_work)
    tracer.kernel(qaoa, "apply_cost_phases", "qaoa.apply_cost_phases", work=cost_work)
    tracer.span(solver, "weight_map", "solver.weight_map")
    tracer.span(solver, "combine", "reconstruction.combine", after=on_combine)
    tracer.span(solver, "rerank_by_cut", "reconstruction.rerank_by_cut", after=on_rerank)
    tracer.span(solver, "abridge", "solver.abridge", after=on_abridge)
    tracer.span(solver, "rescale", "solver.rescale")
    tracer.span(cli, "random_search", "baselines.random_search", after=on_random_search)
    tracer.span(cli, "greedy_local_search", "baselines.greedy_local_search", after=on_local_search)
    tracer.span(cli, "build_run_report", "reports.build_run_report")
    tracer.span(reports, "reference_optimum", "reports.reference_optimum")
    _trace_pool(tracer, cli)


def _trace_pool(tracer, cli) -> None:
    """Span the command's worker pool and each row it runs."""
    base = cli.ThreadPoolExecutor

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.count("cli.pool.threads", self._max_workers)

        def __enter__(self):
            self._pool_frame = tracer.open("cli.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._pool_frame)

        def map(self, fn, *iterables, **kwargs):
            parent = tracer.current_span_id()

            def row(*args):
                tracer.adopt(parent)
                frame = tracer.open("cli.row")
                try:
                    return fn(*args)
                finally:
                    tracer.close(frame)

            return super().map(row, *iterables, **kwargs)

    tracer.patch(cli, "ThreadPoolExecutor", TracedPool)


def _tree_shape(tree) -> tuple[int, int]:
    depth, nodes = 0, 0
    todo = [(tree, 0)]
    while todo:
        node, level = todo.pop()
        nodes += 1
        depth = max(depth, level)
        todo.extend((child, level + 1) for child in node.children)
    return depth, nodes


def main() -> int:
    split = sys.argv.index("--")
    mode, record_path, *rest = sys.argv[1:split]
    argv = sys.argv[split + 1 :]
    if mode not in ("setup", "plain", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")

    import dcqaoa.cli as cli

    tracer = None
    if mode == "trace":
        from tracer import Tracer  # the script's directory leads sys.path

        tracer = Tracer(run_id=os.path.basename(record_path))
        install(tracer)

    record: dict = {"mode": mode, "t_first_solve": None, "solves": []}
    solves = []
    lock = threading.Lock()
    solve = cli.dc_qaoa_traced

    def timed_solve(g, cfg):
        start = time.monotonic()
        with lock:
            if record["t_first_solve"] is None:
                record["t_first_solve"] = start
                if mode == "setup":
                    _write(record_path, record)
                    os._exit(0)
        solution, tree = solve(g, cfg)
        end = time.monotonic()
        with lock:
            solves.append((g, solution, tree, end - start))
        return solution, tree

    cli.dc_qaoa_traced = timed_solve
    code = cli.main(argv)
    record["t_main_end"] = time.monotonic()
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for g, solution, tree, seconds in solves:
        depth, nodes = _tree_shape(tree)
        record["solves"].append(
            {
                "digest": g.digest(),
                "nodes": list(solution.nodes),
                "counts": solution.counts,
                "solve_s": seconds,
                "tree_depth": depth,
                "tree_nodes": nodes,
            }
        )
    if tracer is not None:
        tracer.uninstall()
        record["counts"] = tracer.counts()
        tracer.write_jsonl(rest[0])
    _write(record_path, record)
    return code


def _write(path: str, record: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
