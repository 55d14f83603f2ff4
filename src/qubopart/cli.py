"""Command line interface.

Subcommands: partition (k=2), kway, sparsify-pipeline, bench, evaluate,
convert.  Exit codes: 0 success, 2 for unreadable inputs or bad arguments,
3 when ``evaluate`` finds the stored partition unbalanced.  Every balance
window can be met, so the solving commands always end with a balanced
partition after repair.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from .anneal import AnnealConfig
from .bench import (GridConfig, emit, ingest_external, load_grid_config, run_grid)
from .bestknown import best_known, load_extra_registry
from .evaluate import approximation_ratio, partition_feasibility
from .graph import (GraphFormatError, cut_edges, load_graph_file, parse_partition,
                    write_metis, write_partition)
from .pipeline import build_model, partition
from .qubo import write_qubo_text
from .sparsify import run_sparsify_pipeline


def _penalty_arg(text: str):
    if text == "auto":
        return "auto"
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"penalty must be 'auto' or a number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"penalty must be finite, got {text!r}")
    return value


def _add_solver_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--epsilon", type=float, default=0.0, help="allowed imbalance, e.g. 0.03")
    sub.add_argument("--penalty", type=_penalty_arg, default="auto",
                     help="constraint weight: 'auto' (max degree + 1) or a number")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--replicas", type=int, default=8)
    sub.add_argument("--sweeps", type=int, default=4000)
    sub.add_argument("--time-limit", type=float, default=None, help="seconds per solve")
    sub.add_argument("--balanced-init", action=argparse.BooleanOptionalAction, default=True,
                     help="start replicas from balanced random partitions")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qubopart",
                                     description="Balanced graph partitioning via QUBO annealing")
    subs = parser.add_subparsers(dest="command", required=True)

    part = subs.add_parser("partition", help="bipartition a graph (k=2)")
    part.add_argument("--graph", required=True)
    _add_solver_flags(part)
    part.add_argument("--out", help="write the partition to this file")
    part.add_argument("--json", action="store_true", help="print a JSON result object")

    kway = subs.add_parser("kway", help="k-way partition via one-hot encoding")
    kway.add_argument("--graph", required=True)
    kway.add_argument("--k", type=int, required=True)
    _add_solver_flags(kway)
    kway.add_argument("--out", help="write the partition to this file")
    kway.add_argument("--json", action="store_true", help="print a JSON result object")

    pipe = subs.add_parser("sparsify-pipeline",
                           help="sparsify, partition the sparse graph, project back")
    pipe.add_argument("--graph", required=True)
    pipe.add_argument("--k", type=int, default=2)
    _add_solver_flags(pipe)
    pipe.add_argument("--keep-ratio", type=float, default=0.7)
    pipe.add_argument("--burn-probability", type=float, default=0.7)
    pipe.add_argument("--walks", type=int, default=10)
    pipe.add_argument("--repeats", type=int, default=10)
    pipe.add_argument("--out", help="write the best partition to this file")
    pipe.add_argument("--json", action="store_true")

    bench = subs.add_parser("bench", help="run a (graph x k x epsilon) grid")
    bench.add_argument("--config", help="YAML or JSON grid config")
    bench.add_argument("--graphs", nargs="+", help="graph files (overrides config)")
    bench.add_argument("--k", type=int, nargs="+", dest="ks")
    bench.add_argument("--epsilon", type=float, nargs="+", dest="epsilons")
    bench.add_argument("--sweeps", type=int)
    bench.add_argument("--replicas", type=int)
    bench.add_argument("--seed", type=int)
    bench.add_argument("--penalty", type=_penalty_arg)
    bench.add_argument("--time-limit", type=float, dest="time_limit")
    bench.add_argument("--solver-id", dest="solver_id")
    bench.add_argument("--workers", type=int, help="cells run in this many processes")
    bench.add_argument("--sparsify", action=argparse.BooleanOptionalAction, default=None,
                       help="route cells through the sparsify pipeline")
    bench.add_argument("--keep-ratio", type=float, dest="keep_ratio")
    bench.add_argument("--repeats", type=int, help="pipeline repeats per cell")
    bench.add_argument("--format", choices=["csv", "json", "markdown"], default="markdown")
    bench.add_argument("--external", help="CSV of third-party results to merge")
    bench.add_argument("--registry", help="extra best-known CSV")
    bench.add_argument("--out", help="output file (default stdout)")

    ev = subs.add_parser("evaluate", help="cut and feasibility of a stored partition")
    ev.add_argument("--graph", required=True)
    ev.add_argument("--partition", required=True)
    ev.add_argument("--epsilon", type=float, default=None,
                    help="override the epsilon recorded in the partition header")

    conv = subs.add_parser("convert", help="convert between graph and QUBO formats")
    conv.add_argument("input")
    conv.add_argument("output", help="output path, or - for stdout")
    conv.add_argument("--to", choices=["metis", "qubo"], required=True)
    conv.add_argument("--k", type=int, default=2)
    conv.add_argument("--epsilon", type=float, default=0.0)
    conv.add_argument("--penalty", type=_penalty_arg, default="auto")
    return parser


def _anneal_config(args) -> AnnealConfig:
    return AnnealConfig(sweeps=args.sweeps, replicas=args.replicas, seed=args.seed,
                        time_limit=args.time_limit, balanced_init=args.balanced_init)


def _solve_command(args, k: int) -> int:
    g = load_graph_file(args.graph)
    penalty = None if args.penalty == "auto" else args.penalty
    report = partition(g, k, args.epsilon, _anneal_config(args), penalty)
    ref = best_known(g.name, k, args.epsilon)
    ratio = approximation_ratio(report.cut, ref) if ref else None

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(write_partition(report.partition, g.name, args.epsilon))
    if args.json:
        print(json.dumps({
            "graph": g.name, "n": g.n, "m": g.m, "k": k, "epsilon": args.epsilon,
            "penalty": report.penalty, "cut_raw": report.cut_raw, "cut": report.cut,
            "decoded_feasible": report.decoded_feasible, "approximation_ratio": ratio,
            "energy": report.result.best_energy, "sweeps": report.result.sweeps_done,
            "wall_time": report.result.wall_time, "seed": report.result.seed,
        }))
    else:
        print(f"graph: {g.name} (n={g.n}, m={g.m})")
        print(f"k={k} epsilon={args.epsilon:g} penalty={report.penalty:g}")
        print(f"cut: {report.cut} (raw {report.cut_raw}, decoded "
              f"{'feasible' if report.decoded_feasible else 'repaired'})")
        if ratio is not None:
            print(f"approximation ratio: {ratio:.4f} (best known {ref})")
        print(f"energy: {report.result.best_energy:g}  sweeps: {report.result.sweeps_done}  "
              f"wall: {report.result.wall_time:.2f}s")
    return 0


def _pipeline_command(args) -> int:
    g = load_graph_file(args.graph)
    penalty = None if args.penalty == "auto" else args.penalty
    result = run_sparsify_pipeline(g, args.k, args.epsilon, _anneal_config(args),
                                   keep_ratio=args.keep_ratio,
                                   burn_probability=args.burn_probability,
                                   walks=args.walks, repeats=args.repeats,
                                   seed=args.seed, penalty=penalty)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(write_partition(result.best_partition, g.name, args.epsilon))
    if args.json:
        print(json.dumps({
            "graph": g.name, "k": args.k, "epsilon": args.epsilon,
            "projected_cuts": result.projected_cuts, "best_cut": result.best_cut,
            "best_repeat": result.best_repeat,
        }))
    else:
        print(f"graph: {g.name} (n={g.n}, m={g.m})")
        print(f"projected cuts per repeat: {result.projected_cuts}")
        print(f"best projected cut: {result.best_cut} (repeat {result.best_repeat})")
    return 0


def _bench_command(args) -> int:
    # each bench flag stores its value under the GridConfig field it sets
    overrides = {f.name: getattr(args, f.name, None) for f in fields(GridConfig)}
    if args.config:
        cfg = load_grid_config(args.config, overrides)
    else:
        cfg = GridConfig(**{k: v for k, v in overrides.items() if v is not None})
    if not cfg.graphs:
        raise ValueError("no graphs given: use --graphs or a config file")
    records = run_grid(cfg)
    external = ingest_external(args.external) if args.external else None
    extra = load_extra_registry(args.registry) if args.registry else None
    text = emit(records, args.format, external=external, extra_registry=extra)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _evaluate_command(args) -> int:
    g = load_graph_file(args.graph)
    with open(args.partition) as fh:
        partition, meta = parse_partition(fh.read())
    if partition.n != g.n:
        raise GraphFormatError(f"partition has {partition.n} labels, graph has {g.n}")
    epsilon = args.epsilon if args.epsilon is not None else float(meta.get("epsilon", 0.0))
    feas = partition_feasibility(partition, epsilon)
    cut = cut_edges(g, partition)
    ref = best_known(g.name, partition.k, epsilon)
    print(f"graph: {g.name} (n={g.n}, m={g.m})")
    print(f"k={partition.k} epsilon={epsilon:g}")
    print(f"cut: {cut}")
    print(f"part sizes: {feas.part_sizes}")
    print(f"balanced: {feas.balance_ok}")
    if ref:
        print(f"approximation ratio: {approximation_ratio(cut, ref):.4f} (best known {ref})")
    return 0 if feas.feasible else 3


def _convert_command(args) -> int:
    g = load_graph_file(args.input)
    if args.to == "metis":
        text = write_metis(g)
    else:
        penalty = None if args.penalty == "auto" else args.penalty
        text = write_qubo_text(build_model(g, args.k, args.epsilon, penalty))
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "partition":
            return _solve_command(args, 2)
        if args.command == "kway":
            return _solve_command(args, args.k)
        if args.command == "sparsify-pipeline":
            return _pipeline_command(args)
        if args.command == "bench":
            return _bench_command(args)
        if args.command == "evaluate":
            return _evaluate_command(args)
        if args.command == "convert":
            return _convert_command(args)
        parser.error(f"unknown command {args.command!r}")
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
