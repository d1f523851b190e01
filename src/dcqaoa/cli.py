"""Benchmark command line: gen | solve | sweep | compare.

Exit codes: 0 success, 1 input/usage error, 2 solver infeasibility: no
separator of fewer than k nodes exists (connectivity at or above the qubit
budget). Sweep and compare run their rows one at a time, so each runtime
column times its method alone; every row derives its own seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace

from .baselines import greedy_local_search, random_search
from .errors import ConnectivityExceededError, DcqaoaError
from .graphs import (
    best_sampled_cut,
    expectation_value,
    load_graph,
    random_chain_graph,
    random_graph,
    save_graph,
)
from .qaoa import qaoa_maxcut
from .reconstruction import SCHEMES, kl_divergence
from .reports import approximation_ratio, build_run_report, dumps_report, reference_optimum
from .seeds import derive_seed
from .solver import DcConfig, dc_qaoa_traced, tree_nrl

SWEEP_SCHEMA = "dcqaoa.sweep.v1"
COMPARE_SCHEMA = "dcqaoa.compare.v1"
SUITE_SIZES = (64, 96, 128, 192, 256, 384, 512)
KL_REFERENCE_CAP = 14

SWEEP_COLUMNS = [
    "axis",
    "value",
    "repeat",
    "seed",
    "nrl",
    "expectation_value",
    "ar_expectation",
    "ar_best_sampled",
    "best_cut",
    "reference_cut",
    "reference_kind",
    "runtime_seconds",
    "error",
]

COMPARE_COLUMNS = [
    "graph",
    "nodes",
    "edges",
    "reference_cut",
    "reference_kind",
    "dc_best_cut",
    "dc_expectation_value",
    "dc_ar_expectation",
    "dc_ar_best_sampled",
    "dc_runtime_seconds",
    "rs_budget",
    "rs_best_cut",
    "rs_ar_best_sampled",
    "rs_runtime_seconds",
    "ls_best_cut",
    "error",
]


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this front end reserves 2 for
    solver infeasibility, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(sp: argparse.ArgumentParser) -> None:
    sp.set_defaults(**asdict(DcConfig()))
    sp.add_argument("--k", type=int, help="max qubit size per subproblem")
    sp.add_argument("--p", type=int, help="circuit depth")
    sp.add_argument("--t", type=int, help="retained top-t pairs per level")
    sp.add_argument("--s", type=int, help="samples / rescale target")
    sp.add_argument("--scheme", choices=sorted(SCHEMES), help="combination scheme")
    sp.add_argument("--seed", type=int, help="master random seed")
    sp.add_argument("--budget", type=int, help="optimizer evaluations per restart")
    sp.add_argument("--restarts", type=int, help="optimizer restarts")
    sp.add_argument(
        "--stable-output",
        action="store_true",
        help="omit wall-clock fields so repeated runs are byte-identical",
    )


def _config_from(args) -> DcConfig:
    """The DcConfig of the parsed flags; each config flag is named after its field."""
    return DcConfig(**{f.name: getattr(args, f.name) for f in fields(DcConfig)})


def build_parser() -> _Parser:
    parser = _Parser(prog="dcqaoa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a connected random graph file")
    gen.add_argument("--n", type=int, required=True, help="node count")
    gen.add_argument("--edge-prob", type=float, default=0.3, help="edge probability (er family)")
    gen.add_argument(
        "--family",
        choices=["er", "chain"],
        default="er",
        help="er: Erdős–Rényi (may exceed the separator search's reach); "
        "chain: block-chain graphs that decompose at every level",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="edge-list output path")
    gen.set_defaults(handler=_cmd_gen)

    solve = sub.add_parser("solve", help="solve one graph and print a JSON report")
    solve.add_argument("graph", help="edge-list file")
    _add_config_flags(solve)
    solve.add_argument("--out", default=None, help="write the report here instead of stdout")
    solve.add_argument(
        "--with-kl",
        action="store_true",
        help=f"also sample a direct full-graph distribution (n <= {KL_REFERENCE_CAP}) "
        "and report the KL divergence against it",
    )
    solve.set_defaults(handler=_cmd_solve)

    sweep = sub.add_parser("sweep", help="sensitivity sweep over one config axis")
    sweep.add_argument("graph", help="edge-list file")
    sweep.add_argument("--axis", choices=["k", "t", "s", "p"], required=True)
    sweep.add_argument(
        "--values", required=True, help="comma-separated axis values, e.g. 250,500,1000"
    )
    sweep.add_argument("--repeats", type=int, default=1)
    _add_config_flags(sweep)
    sweep.add_argument("--out", default=None, help="CSV output path (default stdout)")
    sweep.set_defaults(handler=_cmd_sweep)

    compare = sub.add_parser(
        "compare", help="DC-QAOA vs classical baselines on one or more graphs"
    )
    compare.add_argument("graphs", nargs="*", help="edge-list files")
    compare.add_argument(
        "--suite",
        default=None,
        metavar="DIR",
        help="write the default 7-graph suite for --seed into DIR (overwriting it) "
        "and include it",
    )
    _add_config_flags(compare)
    compare.add_argument("--out", default=None, help="CSV output path (default stdout)")
    compare.set_defaults(handler=_cmd_compare)

    return parser


def _cmd_gen(args) -> int:
    if args.family == "chain":
        g = random_chain_graph(args.n, args.seed)
    else:
        g = random_graph(args.n, args.edge_prob, args.seed)
    save_graph(g, args.out)
    print(f"nodes={g.n} edges={g.m} path={args.out}")
    return 0


def _cmd_solve(args) -> int:
    g = load_graph(args.graph)
    cfg = _config_from(args)
    started = time.perf_counter()
    solution, tree = dc_qaoa_traced(g, cfg)
    runtime = time.perf_counter() - started

    kl = None
    if args.with_kl:
        if g.n > KL_REFERENCE_CAP:
            print(
                f"warning: skipping KL reference; {g.n} nodes exceeds the "
                f"direct-simulation cap of {KL_REFERENCE_CAP}",
                file=sys.stderr,
            )
        else:
            reference = qaoa_maxcut(
                g,
                cfg.p,
                shots=cfg.s,
                seed=derive_seed(cfg.seed, "kl-reference"),
                budget=cfg.budget,
                restarts=cfg.restarts,
            )
            kl = kl_divergence(solution, reference)

    report = build_run_report(
        g,
        cfg,
        solution,
        tree,
        runtime_seconds=None if args.stable_output else runtime,
        graph_path=args.graph,
        kl=kl,
    )
    _emit(dumps_report(report), args.out)
    return 0


def _cmd_sweep(args) -> int:
    g = load_graph(args.graph)
    values = [int(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("--values must list at least one integer")
    if args.repeats < 1:
        raise ValueError("--repeats must be >= 1")
    base = _config_from(args)

    specs = [(value, rep) for value in values for rep in range(args.repeats)]

    def run_row(spec):
        value, rep = spec
        seed = derive_seed(args.seed, "sweep", args.axis, value, rep)
        row = {
            "axis": args.axis,
            "value": value,
            "repeat": rep,
            "seed": seed,
            "error": "",
        }
        try:
            cfg = replace(base, **{args.axis: value, "seed": seed})
            started = time.perf_counter()
            solution, tree = dc_qaoa_traced(g, cfg)
            elapsed = time.perf_counter() - started
            row.update(
                nrl=tree_nrl(g, tree),
                expectation_value=expectation_value(g, solution),
                best_cut=best_sampled_cut(g, solution),
                runtime_seconds=None if args.stable_output else elapsed,
            )
        except (DcqaoaError, ValueError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        return row

    rows = [run_row(spec) for spec in specs]

    reference_cut, reference_kind = reference_optimum(
        g, [r["best_cut"] for r in rows if not r["error"]], args.seed
    )
    for row in rows:
        if row["error"]:
            continue
        row["reference_cut"] = reference_cut
        row["reference_kind"] = reference_kind
        row["ar_expectation"] = approximation_ratio(row["expectation_value"], reference_cut)
        row["ar_best_sampled"] = approximation_ratio(row["best_cut"], reference_cut)

    _emit(_render_csv(SWEEP_SCHEMA, SWEEP_COLUMNS, rows), args.out)
    return 0


def _cmd_compare(args) -> int:
    paths = list(args.graphs)
    if args.suite:
        paths = _suite_paths(args.suite, args.seed) + paths
    if not paths:
        raise ValueError("compare needs at least one graph (or --suite DIR)")
    base = _config_from(args)

    def run_graph(spec):
        index, path = spec
        row = {"graph": path, "error": ""}
        try:
            g = load_graph(path)
            row["nodes"] = g.n
            row["edges"] = g.m
            cfg = replace(base, seed=derive_seed(args.seed, "compare", index))
            started = time.perf_counter()
            solution, tree = dc_qaoa_traced(g, cfg)
            dc_elapsed = time.perf_counter() - started
            dc_cut = best_sampled_cut(g, solution)
            rs_budget = cfg.s * tree.count()
            rs = random_search(g, rs_budget, seed=derive_seed(args.seed, "rs", index))
            ls = greedy_local_search(g, seed=derive_seed(args.seed, "ls", index))
            reference_cut, reference_kind = reference_optimum(
                g, [dc_cut, rs.best_cut, ls.best_cut], cfg.seed
            )
            dc_expectation = expectation_value(g, solution)
            row.update(
                reference_cut=reference_cut,
                reference_kind=reference_kind,
                dc_best_cut=dc_cut,
                dc_expectation_value=dc_expectation,
                dc_ar_expectation=approximation_ratio(dc_expectation, reference_cut),
                dc_ar_best_sampled=approximation_ratio(dc_cut, reference_cut),
                dc_runtime_seconds=None if args.stable_output else dc_elapsed,
                rs_budget=rs_budget,
                rs_best_cut=rs.best_cut,
                rs_ar_best_sampled=approximation_ratio(rs.best_cut, reference_cut),
                rs_runtime_seconds=None if args.stable_output else rs.elapsed,
                ls_best_cut=ls.best_cut,
            )
        except (DcqaoaError, ValueError, OSError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        return row

    # one worker runs rows in order; it stays because perfbench spans rows by patching it
    with ThreadPoolExecutor(max_workers=1) as pool:
        rows = list(pool.map(run_graph, enumerate(paths)))

    good = [r for r in rows if not r["error"]]
    if good:
        summary = {
            "graph": "__mean__",
            "dc_ar_best_sampled": sum(r["dc_ar_best_sampled"] for r in good) / len(good),
            "rs_ar_best_sampled": sum(r["rs_ar_best_sampled"] for r in good) / len(good),
            "dc_ar_expectation": sum(r["dc_ar_expectation"] for r in good) / len(good),
            "error": "",
        }
        rows.append(summary)

    _emit(_render_csv(COMPARE_SCHEMA, COMPARE_COLUMNS, rows), args.out)
    return 0


def _suite_paths(directory: str, seed: int) -> list[str]:
    """Default comparison suite: sparse block-chain graphs across sizes.

    Chains split at a single cut vertex at every level of the tree, so the
    separator search stays cheap and the reference optimum exact at every
    size; Erdős–Rényi samples of these sizes can need separators of k or
    more nodes, or take long to search when dense.
    """
    os.makedirs(directory, exist_ok=True)
    paths = []
    for n in SUITE_SIZES:
        path = os.path.join(directory, f"suite_n{n:02d}.edges")
        save_graph(random_chain_graph(n, seed=derive_seed(seed, "suite", n)), path)
        paths.append(path)
    return paths


def _render_csv(schema: str, columns: list[str], rows: list[dict]) -> str:
    buffer = io.StringIO()
    buffer.write(f"# schema={schema}\n")
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ConnectivityExceededError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (DcqaoaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
