"""qubopart benchmark: one workload per invocation, metrics as JSON on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Inputs are generated from ``--seed`` (the same seed gives the same
graph and solver seeds).  With ``--trace 0`` the run partitions the workload's
graph repeatedly for ``--seconds`` seconds and reports the end-to-end metrics;
with ``--trace 1`` it runs each of a fixed number of partition seeds untraced
and then twice traced, and reports the per-layer metrics.  Every partition's output is
checked; any failed check makes the run exit with code 1.  Human-readable
lines come first, the JSON object last; a record with run metadata is written
under ``perfbench/out/``.  See ``perfbench/README.md`` for the workloads and
metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import graphs
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 9
CAL_REF_S = 0.035  # median calibrate() time on the 2-CPU machine the workloads were sized on


@dataclass(frozen=True)
class Workload:
    name: str
    make_graph: str  # "grid" or "planted"
    graph_args: tuple
    k: int
    epsilon: str
    sweeps: int
    replicas: int
    balanced_init: bool
    quality_seeds: int  # cut_ratio is the mean over this many leading partitions
    trace_partitions: int
    pipeline: dict | None = None  # run_sparsify_pipeline keyword arguments


# Each workload puts the bulk of its time in a different layer; see README.md.
WORKLOADS = {w.name: w for w in [
    Workload("bisect-grid", "grid", (12, 16), k=2, epsilon="0", sweeps=2000, replicas=2,
             balanced_init=True, quality_seeds=32, trace_partitions=4),
    Workload("kway-planted", "planted", (3000, 4, 8, 2), k=4, epsilon="0.03", sweeps=20,
             replicas=1, balanced_init=True, quality_seeds=2, trace_partitions=3),
    Workload("sparsify-planted", "planted", (1500, 2, 7, 2), k=2, epsilon="0", sweeps=100,
             replicas=1, balanced_init=True, quality_seeds=2, trace_partitions=3,
             pipeline={"keep_ratio": 0.7, "walks": 10, "repeats": 3}),
    Workload("repair-unbalanced", "planted", (4000, 4, 8, 2), k=4, epsilon="0.03", sweeps=50,
             replicas=1, balanced_init=False, quality_seeds=2, trace_partitions=3),
]}

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import qubopart as qp
g = qp.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
qp.solve(qp.build_bipartition_qubo(g), qp.AnnealConfig(sweeps=16, seed=0, balanced_init=True))
elapsed = time.perf_counter() - t0
if not qp.__file__.startswith(sys.argv[1]):
    sys.exit(f"qubopart imported from {qp.__file__}, not {sys.argv[1]}")
print(repr(elapsed))
"""


def derive_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def import_package():
    """Import qubopart from this checkout's src/; None if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import qubopart
    except ImportError as exc:
        print(f"perfbench: cannot import qubopart from {SRC}: {exc}", file=sys.stderr)
        return None
    if not Path(qubopart.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: qubopart resolved to {qubopart.__file__}, not under {SRC}",
              file=sys.stderr)
        return None
    return qubopart


def measure_setup() -> list[float]:
    """Import + warm-up solve time in fresh processes; the first fills caches."""
    times = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def make_graph(wl: Workload, seed: int):
    if wl.make_graph == "grid":
        return graphs.grid(*wl.graph_args)
    return graphs.planted(*wl.graph_args, seed=derive_seed(seed, wl.name, "graph"))


def partition(qp, wl: Workload, bg, solver_seed: int):
    """One full partition through the public API: the timed unit of work.

    Returns (parsed graph, labels, cut, model, solve result); the pipeline
    workload returns no model or result.
    """
    eps = float(wl.epsilon)
    cfg = qp.AnnealConfig(sweeps=wl.sweeps, replicas=wl.replicas, seed=solver_seed,
                          balanced_init=wl.balanced_init)
    g = qp.parse_metis(bg.text, name=bg.name)
    if wl.pipeline is not None:
        res = qp.run_sparsify_pipeline(g, wl.k, eps, cfg, seed=solver_seed, **wl.pipeline)
        return g, res.best_partition.labels, res.best_cut, None, None
    if wl.k == 2:
        model = qp.build_bipartition_qubo(g, eps)
    else:
        model = qp.build_kway_qubo(g, wl.k, eps)
    result = qp.solve(model, cfg)
    part, feas = qp.decode(model, result.best_bits)
    if not feas.feasible:
        part = qp.repair(g, part, wl.k, eps)
    return g, part.labels, qp.cut_edges(g, part), model, result


def calibrate() -> float:
    """Seconds taken by a fixed probe of interpreted and numpy work.

    The probe mirrors the program's three kinds of hot loop: per-element
    Python with ``math.exp`` (the python sweep engine), whole-array numpy
    gathers and ``bincount`` (build, compile, flip gains), and many small
    numpy calls (the repair loop, the forest-fire BFS).  Its time tracks how
    fast the machine runs at the moment, which on a shared host drifts by
    tens of percent within a minute.
    """
    t0 = time.perf_counter()
    rng = np.random.RandomState(0)
    x = rng.random_sample(40000)
    [i for i in range(len(x)) if x[i] < math.exp(-x[i])]
    idx = rng.randint(0, 5000, 50000)
    perm = rng.permutation(50000)
    w = rng.random_sample(50000)
    for _ in range(20):
        np.bincount(idx, weights=w[perm], minlength=5000)
    labels = rng.randint(0, 4, 4000)
    for _ in range(100):
        np.flatnonzero(np.isin(labels, (0, 1)))
        rng.geometric(0.3)
    return time.perf_counter() - t0


def run_one(qp, wl, bg, solver_seed, tracer=None, pid=0):
    """Time one partition and check its output; returns (wall, ratio, problems)."""
    gc.collect()
    if tracer is not None:
        tracer.begin_partition(pid)
    root = nullcontext() if tracer is None else tracer.span("partition", None)
    try:
        t0 = time.perf_counter()
        with root:
            out = partition(qp, wl, bg, solver_seed)
        wall = time.perf_counter() - t0
    except Exception:
        return None, None, [f"raised:\n{traceback.format_exc()}"]
    g, labels, cut, model, result = out
    problems = checks.check_parsed(bg, g) + checks.check_partition(bg, labels, wl.k,
                                                                   wl.epsilon, cut)
    if model is not None:
        problems += checks.check_energy(model, result)
    return wall, cut / bg.reference_cut, problems


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def metadata(qp, args, wl):
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "engine": "numba" if qp.anneal.HAVE_NUMBA else "python",
        "numpy": np.__version__, "python": platform.python_version(),
        "nproc": os.cpu_count(), "qubopart": qp.__version__,
        "config": {k: v for k, v in vars(wl).items() if k != "name"},
    }


def report_failures(label, problems):
    for p in problems:
        print(f"perfbench: {label}: {p}", file=sys.stderr)


def run_untraced(qp, wl, bg, args, record):
    setup = measure_setup()
    walls, ratios, probes, attempted, failed = [], [], [], 0, 0
    start = time.perf_counter()
    while attempted < wl.quality_seeds or time.perf_counter() - start < args.seconds:
        probes.append(calibrate())
        wall, ratio, problems = run_one(qp, wl, bg, derive_seed(args.seed, wl.name, attempted))
        attempted += 1
        if problems:
            failed += 1
            report_failures(f"partition {attempted - 1}", problems)
        walls.append(wall)
        ratios.append(ratio)
    probes.append(calibrate())
    timed = [(w, p, q) for w, p, q in zip(walls, probes, probes[1:]) if w is not None]
    walls_ref = [w * CAL_REF_S / ((p + q) / 2) for w, p, q in timed]
    # probes between fresh processes are erratic, so set-up time is rescaled
    # by the speed of the whole run rather than sample by sample
    speed = CAL_REF_S / statistics.median(probes)
    quality = [r for r in ratios[:wl.quality_seeds] if r is not None]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(walls_ref) if walls_ref else math.nan, "s"),
        "cut_ratio": (statistics.fmean(quality) if quality else math.nan, "ratio"),
        "setup_s": (statistics.median(setup) * speed, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw = [w for w, _, _ in timed]
    tail = tail_percentile(walls_ref)
    print(f"wall_s       {metrics['wall_s'][0]:.6f} s   median of {len(walls_ref)} partitions"
          + (f", p{tail[0]} {tail[1]:.6f} s" if tail else ", too few for a tail percentile")
          + f"; raw median {statistics.median(raw) if raw else math.nan:.6f} s")
    print(f"cut_ratio    {metrics['cut_ratio'][0]:.6f}     mean of {len(quality)} seeds, "
          f"min {min(quality, default=0):.4f} max {max(quality, default=0):.4f} "
          f"IQR {spread(quality):.4f} (cut / {bg.reference_cut}, {bg.reference_kind})")
    print(f"fail_rate    {failed / attempted:.6f}     {failed} of {attempted} partitions")
    print(f"setup_s      {metrics['setup_s'][0]:.6f} s   median of {len(setup)} fresh processes; "
          f"raw median {statistics.median(setup):.6f} s")
    print(f"peak_rss_mb  {rss_mb:.3f} MB")
    print(f"# machine speed {speed:.3f} x reference (median of {len(probes)} probes); "
          f"wall_s and setup_s are rescaled to the reference speed")
    record.update(walls_raw=raw, walls=walls_ref, probes=probes, speed=speed, wall_tail=tail,
                  ratios=ratios, setup=setup,
                  cut_ratio_spread={"min": min(quality, default=0),
                                    "max": max(quality, default=0), "iqr": spread(quality)})
    return metrics, attempted, failed


def run_traced(qp, wl, bg, args, record):
    seeds = [derive_seed(args.seed, wl.name, i) for i in range(wl.trace_partitions)]
    attempted = failed = 0
    walls = {"untraced": [], "A": [], "B": []}
    tracer = layers.Tracer()
    pass_of = {}
    # The first partition in a process runs slower, so a warm-up partition
    # comes first.  Each seed then runs untraced and in both traced passes
    # back to back, so machine-speed drift hits all three alike.
    plan = [("warm-up", seeds[0])] + [(label, seed) for seed in seeds
                                      for label in ("untraced", "A", "B")]
    for label, seed in plan:
        traced = label in ("A", "B")
        pid = len(pass_of)
        pass_of[pid] = label
        if traced:
            tracer.install()
        try:
            wall, _, problems = run_one(qp, wl, bg, seed, tracer if traced else None, pid)
        finally:
            tracer.uninstall()
        attempted += 1
        if problems:
            failed += 1
            report_failures(f"{label} partition", problems)
        if wall is not None and label in walls:
            walls[label].append(wall)
    pids = {label: [p for p, lab in pass_of.items() if lab == label] for label in ("A", "B")}
    counts = {label: layers.pass_counts(tracer, pids[label]) for label in ("A", "B")}
    for label in ("A", "B"):
        print(f"counts[{label}] " + json.dumps(counts[label], sort_keys=True))
    if counts["A"] != counts["B"]:
        failed += 1
        report_failures("traced passes", ["work counts differ between the two traced passes"])
    metrics = layers.layer_metrics(tracer, pids["A"] + pids["B"])
    metrics["trace.overhead_s"] = (statistics.median(walls["A"] + walls["B"])
                                   - statistics.median(walls["untraced"]), "s")
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:.6f} {unit}")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl", pass_of)
    record.update(walls=walls, counts=counts)
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    qp = import_package()
    if qp is None:
        return 2
    wl = WORKLOADS[args.workload]
    bg = make_graph(wl, args.seed)
    problems = graphs.self_check(bg, wl.k)
    record = metadata(qp, args, wl)
    print(f"# perfbench {wl.name} seed={args.seed} trace={args.trace} engine={record['engine']} "
          f"numpy={record['numpy']} python={record['python']} nproc={record['nproc']}")
    print(f"# graph {bg.name}: n={bg.n} m={len(bg.edges)} reference cut {bg.reference_cut} "
          f"({bg.reference_kind})")
    if problems:
        report_failures("input self-check", problems)
        return 1

    # warm-up in this process, so one-time lazy set-up is not charged to a partition
    small = qp.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    qp.solve(qp.build_bipartition_qubo(small), qp.AnnealConfig(sweeps=16, balanced_init=True))

    run = run_traced if args.trace else run_untraced
    metrics, attempted, failed = run(qp, wl, bg, args, record)
    record.update(attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
