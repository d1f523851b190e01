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

    def fill(spec, row):
        value, rep = spec
        seed = derive_seed(args.seed, "sweep", args.axis, value, rep)
        row.update(axis=args.axis, value=value, repeat=rep, seed=seed)
        cfg = replace(base, **{args.axis: value, "seed": seed})
        tree = _scored_solve(g, cfg, row, "", args.stable_output)
        row["nrl"] = tree_nrl(g, tree)

    specs = [(value, rep) for value in values for rep in range(args.repeats)]
    rows = _run_rows(fill, specs)
    reference = reference_optimum(g, [r["best_cut"] for r in rows if not r["error"]], args.seed)
    for row in rows:
        if not row["error"]:
            _score(row, "", reference)

    _emit(_render_csv(SWEEP_SCHEMA, SWEEP_COLUMNS, rows), args.out)
    return 0


def _cmd_compare(args) -> int:
    paths = list(args.graphs)
    if args.suite:
        paths = _suite_paths(args.suite, args.seed) + paths
    if not paths:
        raise ValueError("compare needs at least one graph (or --suite DIR)")
    base = _config_from(args)

    def fill(spec, row):
        index, path = spec
        row["graph"] = path
        g = load_graph(path)
        row.update(nodes=g.n, edges=g.m)
        cfg = replace(base, seed=derive_seed(args.seed, "compare", index))
        tree = _scored_solve(g, cfg, row, "dc_", args.stable_output)
        rs_budget = cfg.s * tree.count()
        rs = random_search(g, rs_budget, seed=derive_seed(args.seed, "rs", index))
        ls = greedy_local_search(g, seed=derive_seed(args.seed, "ls", index))
        reference = reference_optimum(g, [row["dc_best_cut"], rs.best_cut, ls.best_cut], cfg.seed)
        _score(row, "dc_", reference)
        row.update(
            rs_budget=rs_budget,
            rs_best_cut=rs.best_cut,
            rs_ar_best_sampled=approximation_ratio(rs.best_cut, reference[0]),
            rs_runtime_seconds=None if args.stable_output else rs.elapsed,
            ls_best_cut=ls.best_cut,
        )

    rows = _run_rows(fill, enumerate(paths))
    good = [r for r in rows if not r["error"]]
    if good:
        summary = {"graph": "__mean__", "error": ""}
        for column in ("dc_ar_best_sampled", "rs_ar_best_sampled", "dc_ar_expectation"):
            summary[column] = sum(r[column] for r in good) / len(good)
        rows.append(summary)

    _emit(_render_csv(COMPARE_SCHEMA, COMPARE_COLUMNS, rows), args.out)
    return 0


def _run_rows(fill, specs) -> list[dict]:
    """One row per spec, in order; fill(spec, row) writes the row's cells.

    A row whose fill raises a package, value or file error keeps the cells
    written before it and names the error. One worker runs the rows in
    order; it stays because perfbench spans rows by patching it.
    """

    def run(spec):
        row = {"error": ""}
        try:
            fill(spec, row)
        except (DcqaoaError, ValueError, OSError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        return row

    with ThreadPoolExecutor(max_workers=1) as pool:
        return list(pool.map(run, specs))


def _scored_solve(g, cfg: DcConfig, row: dict, prefix: str, stable: bool):
    """Solve g, write the solution's best cut, expectation value and solve
    time (None when `stable`) under the column prefix, and return the tree."""
    started = time.perf_counter()
    solution, tree = dc_qaoa_traced(g, cfg)
    elapsed = time.perf_counter() - started
    row[prefix + "best_cut"] = best_sampled_cut(g, solution)
    row[prefix + "expectation_value"] = expectation_value(g, solution)
    row[prefix + "runtime_seconds"] = None if stable else elapsed
    return tree


def _score(row: dict, prefix: str, reference: tuple[int, str]) -> None:
    """Write the reference optimum and the scored solve's two approximation ratios."""
    row["reference_cut"], row["reference_kind"] = reference
    for ratio, value in (("ar_expectation", "expectation_value"), ("ar_best_sampled", "best_cut")):
        row[prefix + ratio] = approximation_ratio(row[prefix + value], reference[0])


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
