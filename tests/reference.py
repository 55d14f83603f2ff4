"""Reference implementations the tests compare the package against.

* Expanded-form semantics of the solver's single-flip primitives.  These
  operate on the fully expanded quadratic form of a model
  (``QuboModel.quadratic_terms``) rather than on the factored form the
  solver runs on, so the tests can check the solver's flip gains,
  incremental updates and sweep rule against an independent derivation.
* A line-by-line adjacency-list parser, the oracle for the vectorised
  :func:`qubopart.graph.parse_metis`.
* The O(n)-per-move balance repair loop, the oracle for the heap-driven
  :func:`qubopart.evaluate.repair`.
* A deque forest fire over the same bulk draws, the oracle for
  :func:`qubopart.sparsify.forest_fire_scores`, and the legacy fire drawing
  through ``RandomState``'s scalar calls, the textbook process both must
  match in distribution.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qubopart.graph import Graph, GraphFormatError, Partition, balance_bounds
from qubopart.qubo import QuboModel
from qubopart.sparsify import EdgeScores


@dataclass(eq=False)
class ExpandedNeighbors:
    """Symmetric CSR over the expanded quadratic terms of a model."""

    nv: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def expanded_neighbors(model: QuboModel, max_terms: int | None = None) -> ExpandedNeighbors:
    kwargs = {} if max_terms is None else {"max_terms": max_terms}
    qi, qj, qc = model.quadratic_terms(**kwargs)
    nv = model.num_vars
    rows = np.concatenate([qi, qj])
    cols = np.concatenate([qj, qi])
    data = np.concatenate([qc, qc])
    order = np.lexsort((cols, rows))
    rows, cols, data = rows[order], cols[order], data[order]
    indptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nv), out=indptr[1:])
    return ExpandedNeighbors(nv=nv, indptr=indptr, indices=cols, data=data)


def local_fields(model: QuboModel, bits: Sequence[int] | np.ndarray,
                 nbrs: ExpandedNeighbors | None = None) -> np.ndarray:
    """local_field[j] = linear_j + sum_l quad_jl * a_l over the expanded model."""
    a = np.asarray(bits, dtype=np.float64)
    if nbrs is None:
        nbrs = expanded_neighbors(model)
    contrib = nbrs.data * a[nbrs.indices]
    return model.linear + np.bincount(
        np.repeat(np.arange(nbrs.nv), np.diff(nbrs.indptr)), weights=contrib, minlength=nbrs.nv)


def delta_energy(model: QuboModel, bits: np.ndarray, i: int,
                 local_field: np.ndarray) -> float:
    """Energy change of flipping bit i, O(1) given the local fields."""
    return (1.0 - 2.0 * bits[i]) * local_field[i]


def apply_flip(nbrs: ExpandedNeighbors, bits: np.ndarray, i: int,
               local_field: np.ndarray) -> None:
    """Flip bit i in place and update local fields along its quadratic row."""
    dlt = 1.0 - 2.0 * bits[i]
    bits[i] = 1 - bits[i]
    row = slice(nbrs.indptr[i], nbrs.indptr[i + 1])
    local_field[nbrs.indices[row]] += nbrs.data[row] * dlt


def sweep(nbrs: ExpandedNeighbors, bits: np.ndarray, local_field: np.ndarray,
          temperature: float, rng: np.random.RandomState, offset: float,
          offset_increment: float) -> tuple[int, float]:
    """One reference sweep: test every variable, flip one accepting variable.

    Variable i accepts when its gain minus the escape offset is non-positive
    or passes a Metropolis draw at the given temperature.  If any variable
    accepts, one acceptor is flipped uniformly at random (bits and
    local_field update in place) and the offset resets; otherwise the offset
    grows by ``offset_increment``.  Returns (flipped index or -1, new offset).
    """
    nv = nbrs.nv
    us = rng.random_sample(nv)
    deltas = (1.0 - 2.0 * bits) * local_field
    eff = deltas - offset
    t = max(temperature, 1e-300)
    # Python floats: -eff / t overflows to -inf, and math.exp(-inf) is 0.0
    acceptors = [i for i, (e, u) in enumerate(zip(eff.tolist(), us.tolist()))
                 if e <= 0.0 or u < math.exp(-e / t)]
    if not acceptors:
        return -1, offset + offset_increment
    pick = acceptors[int(rng.random_sample() * len(acceptors))]
    apply_flip(nbrs, bits, pick, local_field)
    return pick, 0.0


def parse_metis(text: str, name: str = "") -> Graph:
    """Line-by-line adjacency-list parser: one ``int()`` per token, a set of arcs.

    Same contract as :func:`qubopart.graph.parse_metis`: the same graphs,
    the same errors with the same messages, the same weights warning.
    """
    # lines break at \n, \r\n and \r only; a final break ends the last line
    lines = re.split(r"\r\n|\r|\n", text)
    if not lines[-1]:
        lines.pop()
    # '%' lines are comments; a blank line is an isolated vertex's row
    lines = [ln for ln in lines if not ln.lstrip().startswith("%")]
    while lines and not lines[0].split():
        lines.pop(0)
    if not lines:
        raise GraphFormatError("empty graph file")

    header = lines[0].split()
    if len(header) < 2 or len(header) > 4:
        raise GraphFormatError(f"header must be 'n m [fmt [ncon]]', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header field in {lines[0]!r}") from exc
    fmt = header[2] if len(header) >= 3 else "0"
    if not fmt.isdigit():
        raise GraphFormatError(f"format code must be numeric, got {fmt!r}")
    fmt3 = fmt.zfill(3)
    if len(fmt3) != 3 or any(c not in "01" for c in fmt3):
        raise GraphFormatError(f"unsupported format code {fmt!r}")
    has_vsize, has_vweight, has_eweight = (c == "1" for c in fmt3)
    ncon = int(header[3]) if len(header) == 4 else (1 if has_vweight else 0)
    if n < 0 or m < 0:
        raise GraphFormatError(f"negative size in header {lines[0]!r}")

    vertex_lines = lines[1:]
    while len(vertex_lines) > n and not vertex_lines[-1].split():
        vertex_lines.pop()
    if len(vertex_lines) < n:
        raise GraphFormatError(f"expected {n} vertex lines, found {len(vertex_lines)}")
    if len(vertex_lines) > n:
        raise GraphFormatError(f"expected {n} vertex lines, found {len(vertex_lines)}")

    skip = (1 if has_vsize else 0) + (ncon if has_vweight else 0)
    directed: set[tuple[int, int]] = set()
    for i, line in enumerate(vertex_lines):
        # tokens are runs of ASCII decimal digits between spaces and tabs
        if line.strip("0123456789 \t"):
            raise GraphFormatError(f"non-integer token on vertex line {i + 1}")
        tokens = [int(t) for t in line.split()]
        rest = tokens[skip:]
        if has_eweight:
            if len(rest) % 2:
                raise GraphFormatError(f"vertex {i + 1}: odd token count with edge weights")
            rest = rest[0::2]
        for nbr in rest:
            if not 1 <= nbr <= n:
                raise GraphFormatError(f"vertex {i + 1} lists neighbor {nbr} outside 1..{n}")
            if nbr == i + 1:
                raise GraphFormatError(f"self-loop at vertex {i + 1}")
            directed.add((i, nbr - 1))

    if has_vsize or has_vweight or has_eweight:
        warnings.warn("weighted graph file: all weights discarded", stacklevel=2)

    for u, v in directed:
        if (v, u) not in directed:
            raise GraphFormatError(f"asymmetric adjacency: vertex {u + 1} lists {v + 1} "
                                   f"but {v + 1} does not list {u + 1}")
    undirected = {(u, v) for u, v in directed if u < v}
    if len(undirected) != m:
        raise GraphFormatError(f"header declares {m} edges, adjacency lists {len(undirected)}")
    return Graph.from_edges(n, sorted(undirected), name=name)


def repair(g: Graph, p: Partition, k: int | None = None,
           epsilon: float = 0.0, moves: list | None = None) -> Partition:
    """Balance repair that rescans every vertex on each move.

    Same contract as :func:`qubopart.evaluate.repair` for labels in
    ``range(k)``: the same moves in the same order, the same errors.
    ``moves``, when given, receives one ``(phase, sources)`` pair per move:
    ``phase`` is ``"upper"`` while some part is above ``upper`` and
    ``"lower"`` after, ``sources`` the parts the moved vertex could come from.
    """
    k = p.k if k is None else k
    if p.n != g.n:
        raise ValueError(f"partition has {p.n} labels, graph has {g.n} vertices")
    lower, upper = balance_bounds(g.n, k, epsilon)

    labels = np.asarray(p.labels, dtype=np.int64).copy()
    sizes = np.bincount(labels, minlength=k)
    # neighbor label counts, kept current so each candidate move costs O(1)
    part_count = np.zeros((g.n, k), dtype=np.int64)
    ea = g.edge_array
    if len(ea):
        np.add.at(part_count, (ea[:, 0], labels[ea[:, 1]]), 1)
        np.add.at(part_count, (ea[:, 1], labels[ea[:, 0]]), 1)

    indptr, indices = g.indptr, g.indices
    enforce_lower = k > 2
    for _ in range(4 * g.n + 8):
        over = np.flatnonzero(sizes > upper)
        under = np.flatnonzero(sizes < lower) if enforce_lower else np.empty(0, dtype=int)
        if not len(over) and not len(under):
            break
        dest = int(np.argmin(sizes))
        sources = over if len(over) else np.flatnonzero(sizes > lower)
        candidates = np.flatnonzero(np.isin(labels, sources))
        deltas = part_count[candidates, labels[candidates]] - part_count[candidates, dest]
        v = int(candidates[np.lexsort((candidates, deltas))[0]])
        src = int(labels[v])
        if moves is not None:
            moves.append(("upper" if len(over) else "lower", tuple(sources.tolist())))
        labels[v] = dest
        sizes[src] -= 1
        sizes[dest] += 1
        nbrs = indices[indptr[v]:indptr[v + 1]]
        part_count[nbrs, src] -= 1
        part_count[nbrs, dest] += 1
    else:
        raise RuntimeError("balance repair failed to converge")
    return Partition.from_labels(labels.tolist(), k)


def forest_fire_scores(g: Graph, burn_probability: float = 0.7, walks: int = 10,
                       seed: int = 0) -> EdgeScores:
    """Deque forest fire over the bulk draws of :func:`qubopart.sparsify.forest_fire_scores`.

    Same contract and the same draws per walk: ``permutation(n)``, one
    ``geometric - 1`` fan-out per vertex and one 32-bit key per arc.  Each
    vertex's neighbors are sorted by (key, arc position), restarts scan the
    permutation linearly, and the burns are tallied in a dict by edge.
    """
    if not 0.0 <= burn_probability < 1.0:
        raise ValueError(f"burn probability must lie in [0, 1), got {burn_probability}")
    if walks < 1:
        raise ValueError(f"walk count must be positive, got {walks}")
    rng = np.random.RandomState(seed)
    ptr, ind = g.indptr.tolist(), g.indices.tolist()
    tally: dict[tuple[int, int], int] = {}

    for _ in range(walks):
        order = rng.permutation(g.n).tolist()
        fan = [int(x) - 1 for x in rng.geometric(1.0 - burn_probability, size=g.n)]
        key = rng.randint(0, 2**32, size=len(ind), dtype=np.int64).tolist()
        burned = [False] * g.n
        next_start = 0
        while True:
            while next_start < g.n and burned[order[next_start]]:
                next_start += 1
            if next_start == g.n:
                break
            start = order[next_start]
            burned[start] = True
            frontier = deque([start])
            while frontier:
                v = frontier.popleft()
                arcs = sorted(range(ptr[v], ptr[v + 1]), key=lambda a: (key[a], a))
                targets = [ind[a] for a in arcs if not burned[ind[a]]]
                for u in targets[:max(fan[v], 0)]:
                    burned[u] = True
                    frontier.append(u)
                    edge = (min(u, v), max(u, v))
                    tally[edge] = tally.get(edge, 0) + 1
    scores = np.array([tally.get(e, 0) for e in map(tuple, g.edge_array.tolist())],
                      dtype=np.int64)
    return EdgeScores(scores=scores, burn_probability=burn_probability,
                      walks=walks, seed=seed)


def legacy_forest_fire_scores(g: Graph, burn_probability: float = 0.7, walks: int = 10,
                              seed: int = 0) -> EdgeScores:
    """Forest fire drawing with ``rng.randint``, ``rng.geometric`` and ``rng.shuffle``.

    The textbook process, one scalar call per draw: a restart picks a
    uniform unburned vertex, each burning vertex with unburned neighbors
    draws its fan-out and shuffles them.  Its draws differ from those of
    :func:`qubopart.sparsify.forest_fire_scores`, so the two agree in
    distribution only.
    """
    if not 0.0 <= burn_probability < 1.0:
        raise ValueError(f"burn probability must lie in [0, 1), got {burn_probability}")
    if walks < 1:
        raise ValueError(f"walk count must be positive, got {walks}")
    rng = np.random.RandomState(seed)
    neighbors = [g.indices[a:b].tolist() for a, b in zip(g.indptr[:-1], g.indptr[1:])]
    scores = np.zeros(g.m, dtype=np.int64)
    edge_id = {tuple(e): i for i, e in enumerate(g.edge_array.tolist())}

    for _ in range(walks):
        burned = np.zeros(g.n, dtype=bool)
        while not burned.all():
            unburned = np.flatnonzero(~burned)
            start = int(unburned[rng.randint(len(unburned))])
            burned[start] = True
            frontier = deque([start])
            while frontier:
                v = frontier.popleft()
                targets = [u for u in neighbors[v] if not burned[u]]
                if not targets:
                    continue
                fan_out = min(int(rng.geometric(1.0 - burn_probability)) - 1, len(targets))
                # geometric returns 0 for a double of exactly 0.0, which burns nothing
                if fan_out <= 0:
                    continue
                # rng.choice(len(targets), fan_out, replace=False) makes the same swaps
                rng.shuffle(targets)
                for u in targets[:fan_out]:
                    burned[u] = True
                    frontier.append(u)
                    scores[edge_id[(min(u, v), max(u, v))]] += 1
    return EdgeScores(scores=scores, burn_probability=burn_probability,
                      walks=walks, seed=seed)
