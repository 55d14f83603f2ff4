"""Forest-fire edge scoring, graph sparsification, and projection back to the original.

Edges are scored by how often random fires traverse them: a fire starts at a
random unburned vertex, each burning vertex ignites a random number of its
unburned neighbors (geometric fan-out), and the fire restarts from a fresh
vertex until everything has burned.  Edges that carry many burns are kept;
the rest are dropped.  Partitioning the sparsified graph with
:func:`qubopart.pipeline.partition` and projecting the labels back gives a
cheap upper bound on the original graph's cut.

Each walk draws its randomness in bulk from ``RandomState(seed)``, in this
order: ``order = permutation(n)``; one fan-out per vertex,
``geometric(1 - burn_probability, size=n) - 1``; and one 32-bit key per arc,
which orders each vertex's neighbors by a stable sort.  A fire starts at the
next vertex of ``order`` that has not burned, and a burning vertex burns the
first fan-out of its still-unburned neighbors in key order.  This is the
process of the scalar-call loop (``randint`` over the unburned vertices,
``geometric`` and ``shuffle`` per burning vertex):

* the first unburned vertex of a uniform permutation is uniform over the
  unburned vertices, because every vertex before it has burned;
* a vertex burns once per walk, so it uses its fan-out and its neighbor
  order at most once;
* a uniform order of all of a vertex's neighbors, restricted to those still
  unburned, is a uniform order of those.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .anneal import AnnealConfig, _derive_seed
from .graph import Graph, Partition, cut_edges
# only partition and check_model_args are called here; perfbench/layers.py
# looks up the other names on this module when it traces a run, so they must
# stay importable from it
from .pipeline import (build_bipartition_qubo, build_kway_qubo, check_model_args,  # noqa: F401
                       decode, partition, repair, solve)
from .qubo import _checked_penalty


@dataclass(eq=False)
class EdgeScores:
    """Per-edge burn counts: ``scores[i]`` belongs to row i of ``graph.edge_array``."""

    scores: np.ndarray
    burn_probability: float
    walks: int
    seed: int


def _score_burns(g: Graph, sources: list[int], walks: int) -> np.ndarray:
    """Per-edge burn counts, aligned with ``g.edge_array``, from ``sources``:
    walk after walk, the vertex each vertex caught fire from, or -1."""
    src = np.array(sources, dtype=np.int64).reshape(walks, g.n)
    dst = np.broadcast_to(np.arange(g.n), src.shape)
    caught = src >= 0
    src, dst = src[caught], dst[caught]
    # the counts do not depend on the burn order, and searchsorted runs
    # several times faster over sorted keys
    keys = np.minimum(src, dst) * g.n + np.maximum(src, dst)
    keys.sort()
    ea = g.edge_array
    edge_ids = np.searchsorted(ea[:, 0] * g.n + ea[:, 1], keys)
    return np.bincount(edge_ids, minlength=g.m).astype(np.int64)


def forest_fire_scores(g: Graph, burn_probability: float = 0.7, walks: int = 10,
                       seed: int = 0) -> EdgeScores:
    """Score edges by repeated forest-fire burns.

    Each walk burns the whole graph: from a uniform random unburned start,
    a BFS-style fire spreads from each burning vertex to
    ``geometric(1 - burn_probability) - 1`` of its unburned neighbors
    (chosen uniformly without replacement), restarting from a fresh vertex
    whenever the frontier dies out.  Every traversed edge gains one point.
    Deterministic for a fixed seed: each walk draws its start order,
    fan-outs and neighbor orders in bulk, as the module docstring describes.
    """
    if not 0.0 <= burn_probability < 1.0:
        raise ValueError(f"burn probability must lie in [0, 1), got {burn_probability}")
    if walks < 1:
        raise ValueError(f"walk count must be positive, got {walks}")
    rs = np.random.RandomState(seed)
    n, ptr = g.n, g.indptr.tolist()
    arc_row = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr)) << 32
    sources: list[int] = []  # per walk and vertex: the vertex it caught fire from, or -1

    for _ in range(walks):
        order = rs.permutation(n).tolist()
        fan = (rs.geometric(1.0 - burn_probability, size=n) - 1).tolist()
        key = rs.randint(0, 2**32, size=len(g.indices), dtype=np.int64)
        # stable, so equal keys keep arc order on every sort dispatch path; the
        # view makes Python ints only of the arcs the fire reads
        nbrs = memoryview(g.indices[np.argsort(arc_row | key, kind="stable")])
        burned = bytearray(n)
        source = [-1] * n
        for start in order:
            if burned[start]:
                continue
            burned[start] = 1
            fire = [start]  # the fire's vertices in burn order, read in place as the BFS queue
            for v in fire:
                fan_out = fan[v]
                if fan_out <= 0:  # -1 only where geometric read a double of exactly 0.0
                    continue
                for u in nbrs[ptr[v]:ptr[v + 1]]:
                    if not burned[u]:
                        burned[u] = 1
                        source[u] = v
                        fire.append(u)
                        fan_out -= 1
                        if not fan_out:
                            break
        sources += source

    return EdgeScores(scores=_score_burns(g, sources, walks),
                      burn_probability=burn_probability, walks=walks, seed=seed)


def _check_keep_ratio(keep_ratio: float) -> None:
    if not 0.0 <= keep_ratio <= 1.0:
        raise ValueError(f"keep ratio must lie in [0, 1], got {keep_ratio}")


def sparsify(g: Graph, scores: EdgeScores, keep_ratio: float) -> Graph:
    """Keep the round(keep_ratio * m) highest-scoring edges (ties to even).

    Score ties resolve toward lexicographically smaller edges, so the result
    is deterministic.  The vertex set is unchanged.
    """
    _check_keep_ratio(keep_ratio)
    if scores.scores.shape != (g.m,):
        raise ValueError("scores are not aligned with the graph's edges")
    m, keep = g.m, round(keep_ratio * g.m)
    # the unique keys (top - score) * m + edge sort by falling score, ties by
    # edge, as a stable argsort of -score orders the edges; _from_pairs sorts
    # the kept edges itself
    keys = (scores.scores.max(initial=0) - scores.scores) * m + np.arange(m)
    kept = g.edge_array[np.sort(keys)[:keep] % m]
    return Graph._from_pairs(g.n, kept[:, 0], kept[:, 1], name=g.name)


def project_partition(original: Graph, p: Partition) -> int:
    """Cut of a partition found on a sparsified graph, evaluated on the original;
    :func:`cut_edges` rejects a partition of the wrong length."""
    return cut_edges(original, p)


@dataclass
class PipelineResult:
    best_cut: int
    best_partition: Partition
    best_repeat: int
    projected_cuts: list[int]
    penalty: float  # of the best repeat's model


def run_sparsify_pipeline(g: Graph, k: int, epsilon: float = 0.0,
                          anneal_cfg: AnnealConfig | None = None,
                          keep_ratio: float = 0.7, burn_probability: float = 0.7,
                          walks: int = 10, repeats: int = 10, seed: int = 0,
                          penalty: float | None = None) -> PipelineResult:
    """Sparsify, partition the sparse graph, project back; best of ``repeats``.

    Each repeat burns with a fresh derived seed, partitions the sparsified
    instance (repairing against it, where the solution lives), and evaluates
    the labels on the original graph.  A bad ``keep_ratio``, k, epsilon or
    given penalty raises before the first fire.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    _check_keep_ratio(keep_ratio)
    check_model_args(g.n, k, epsilon)
    if penalty is not None:
        _checked_penalty(g, penalty)
    anneal_cfg = anneal_cfg or AnnealConfig()
    reports, projected = [], []
    for rep in range(repeats):
        scores = forest_fire_scores(g, burn_probability, walks,
                                    seed=_derive_seed(seed, rep, "fire"))
        sparse = sparsify(g, scores, keep_ratio)
        cfg = replace(anneal_cfg, seed=_derive_seed(seed, rep, "solve"))
        report = partition(sparse, k, epsilon, cfg, penalty)
        reports.append(report)
        projected.append(project_partition(g, report.partition))
    best = projected.index(min(projected))
    return PipelineResult(best_cut=projected[best], best_partition=reports[best].partition,
                          best_repeat=best, projected_cuts=projected,
                          penalty=reports[best].penalty)
