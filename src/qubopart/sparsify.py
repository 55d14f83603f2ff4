"""Forest-fire edge scoring, graph sparsification, and projection back to the original.

Edges are scored by how often random fires traverse them: a fire starts at a
random unburned vertex, each burning vertex ignites a random number of its
unburned neighbors (geometric fan-out), and the fire restarts from a fresh
vertex until everything has burned.  Edges that carry many burns are kept;
the rest are dropped.  Partitioning the sparsified graph with
:func:`qubopart.pipeline.partition` and projecting the labels back gives a
cheap upper bound on the original graph's cut.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .anneal import AnnealConfig, _derive_seed
from .evaluate import InfeasiblePartitionError
from .graph import Graph, Partition, cut_edges
# only partition is called here; perfbench/layers.py looks up the other names on
# this module when it traces a run, so they must stay importable from it
from .pipeline import (build_bipartition_qubo, build_kway_qubo, decode,  # noqa: F401
                       partition, repair, solve)


@dataclass(eq=False)
class EdgeScores:
    """Per-edge burn counts, aligned with ``graph.edges`` order."""

    scores: np.ndarray
    burn_probability: float
    walks: int
    seed: int


def forest_fire_scores(g: Graph, burn_probability: float = 0.7, walks: int = 10,
                       seed: int = 0) -> EdgeScores:
    """Score edges by repeated forest-fire burns.

    Each walk burns the whole graph: from a uniform random unburned start,
    a BFS-style fire spreads from each burning vertex to
    ``geometric(1 - burn_probability) - 1`` of its unburned neighbors
    (chosen uniformly without replacement), restarting from a fresh vertex
    whenever the frontier dies out.  Every traversed edge gains one point.
    Deterministic for a fixed seed.
    """
    if not 0.0 <= burn_probability < 1.0:
        raise ValueError(f"burn probability must lie in [0, 1), got {burn_probability}")
    if walks < 1:
        raise ValueError(f"walk count must be positive, got {walks}")
    rng = np.random.RandomState(seed)
    scores = np.zeros(g.m, dtype=np.int64)
    edge_index = {e: i for i, e in enumerate(g.edges)}
    adjacency = g.adjacency

    for _ in range(walks):
        burned = np.zeros(g.n, dtype=bool)
        remaining = g.n
        while remaining:
            unburned = np.flatnonzero(~burned)
            start = int(unburned[rng.randint(len(unburned))])
            burned[start] = True
            remaining -= 1
            frontier = deque([start])
            while frontier:
                v = frontier.popleft()
                targets = [u for u in adjacency[v] if not burned[u]]
                if not targets:
                    continue
                fan_out = int(rng.geometric(1.0 - burn_probability)) - 1
                fan_out = min(fan_out, len(targets))
                if fan_out == 0:
                    continue
                picked = rng.choice(len(targets), size=fan_out, replace=False)
                for t in picked:
                    u = targets[int(t)]
                    burned[u] = True
                    remaining -= 1
                    edge = (v, u) if v < u else (u, v)
                    scores[edge_index[edge]] += 1
                    frontier.append(u)
    return EdgeScores(scores=scores, burn_probability=burn_probability,
                      walks=walks, seed=seed)


def sparsify(g: Graph, scores: EdgeScores, keep_ratio: float) -> Graph:
    """Keep the round(keep_ratio * m) highest-scoring edges (ties to even).

    Score ties resolve toward lexicographically smaller edges, so the result
    is deterministic.  The vertex set is unchanged.
    """
    if not 0.0 <= keep_ratio <= 1.0:
        raise ValueError(f"keep ratio must lie in [0, 1], got {keep_ratio}")
    if scores.scores.shape != (g.m,):
        raise ValueError("scores are not aligned with the graph's edges")
    keep = round(keep_ratio * g.m)
    order = np.argsort(-scores.scores, kind="stable")
    kept = sorted(g.edges[i] for i in order[:keep])
    return Graph(n=g.n, edges=tuple(kept), name=g.name)


def project_partition(original: Graph, p: Partition) -> int:
    """Cut of a partition found on a sparsified graph, evaluated on the original."""
    if p.n != original.n:
        raise ValueError(f"partition has {p.n} labels, graph has {original.n} vertices")
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
    the labels on the original graph.  Unsatisfiable bounds raise.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    anneal_cfg = anneal_cfg or AnnealConfig()
    reports, projected = [], []
    for rep in range(repeats):
        scores = forest_fire_scores(g, burn_probability, walks,
                                    seed=_derive_seed(seed, rep, "fire"))
        sparse = sparsify(g, scores, keep_ratio)
        cfg = replace(anneal_cfg, seed=_derive_seed(seed, rep, "solve"))
        report = partition(sparse, k, epsilon, cfg, penalty)
        if report.partition is None:
            raise InfeasiblePartitionError(report.error)
        reports.append(report)
        projected.append(project_partition(g, report.partition))
    best = projected.index(min(projected))
    return PipelineResult(best_cut=projected[best], best_partition=reports[best].partition,
                          best_repeat=best, projected_cuts=projected,
                          penalty=reports[best].penalty)
