"""Decoding solver assignments into partitions, feasibility, greedy repair."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, Partition, balance_bounds
from .qubo import QuboModel


class InfeasiblePartitionError(RuntimeError):
    """Raised when no partition can satisfy the requested balance bounds."""


@dataclass(frozen=True)
class Feasibility:
    one_hot_ok: bool
    balance_ok: bool
    part_sizes: tuple[int, ...]

    @property
    def feasible(self) -> bool:
        return self.one_hot_ok and self.balance_ok


def partition_feasibility(p: Partition, epsilon: float = 0.0) -> Feasibility:
    """Balance check for an existing partition (one-hot holds by construction).

    A partition is balanced when every part is at most the upper bound; for
    k > 2 the lower bound is enforced as well.  For k == 2 orientation does
    not matter: either side may be the larger one.
    """
    lower, upper = balance_bounds(p.n, p.k, epsilon)
    sizes = p.part_sizes()
    balance = all(s <= upper for s in sizes)
    if p.k > 2:
        balance = balance and all(s >= lower for s in sizes)
    return Feasibility(one_hot_ok=True, balance_ok=balance, part_sizes=tuple(sizes))


def decode(model: QuboModel, bits: np.ndarray) -> tuple[Partition, Feasibility]:
    """Read a partition out of a solved assignment via ``model.indicators``.

    Slack bits are ignored.  With one indicator per vertex (``c == 1``) the
    bit is the label.  For one-hot encodings a vertex with no set indicator
    gets part 0 and one with several gets the lowest set part; either
    situation clears ``one_hot_ok``.
    """
    if model.indicators is None or model.k is None:
        raise ValueError("model carries no indicator layout to decode")
    bits = np.asarray(bits)
    if bits.shape != (model.num_vars,):
        raise ValueError(f"assignment length {bits.shape} does not match model")
    is_set = bits[model.indicators] != 0
    if is_set.shape[1] == 1:
        labels, one_hot_ok = is_set[:, 0], True
    else:
        labels = is_set.argmax(axis=1)  # lowest set part, 0 when none is set
        one_hot_ok = bool((is_set.sum(axis=1) == 1).all())

    partition = Partition.from_labels(labels.tolist(), model.k)
    balance = partition_feasibility(partition, model.epsilon or 0.0)
    return partition, Feasibility(one_hot_ok=one_hot_ok, balance_ok=balance.balance_ok,
                                  part_sizes=balance.part_sizes)


def repair(g: Graph, p: Partition, k: int | None = None,
           epsilon: float = 0.0) -> Partition:
    """Greedily move vertices until the balance bounds hold.

    While any part exceeds the upper bound (or, for k > 2, falls below the
    lower bound), the vertex whose move costs the least cut increase is moved
    into the most underfull part.  Cost of moving v from its part to part d is
    (neighbors of v in its part) - (neighbors of v in d); ties break toward
    the lowest vertex id, destination ties toward the lowest part id.

    Raises :class:`InfeasiblePartitionError` when the bounds are
    unsatisfiable (k * upper < n, or for k > 2, k * lower > n).
    """
    k = p.k if k is None else k
    if p.n != g.n:
        raise ValueError(f"partition has {p.n} labels, graph has {g.n} vertices")
    lower, upper = balance_bounds(g.n, k, epsilon)
    if k * upper < g.n:
        raise InfeasiblePartitionError(
            f"{k} parts of at most {upper} cannot hold {g.n} vertices")
    if k > 2 and k * lower > g.n:
        raise InfeasiblePartitionError(
            f"{k} parts of at least {lower} need more than {g.n} vertices")

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
        if len(over):
            movable = np.isin(labels, over)
        else:
            spare = np.flatnonzero(sizes > lower)
            movable = np.isin(labels, spare)
        candidates = np.flatnonzero(movable)
        deltas = part_count[candidates, labels[candidates]] - part_count[candidates, dest]
        v = int(candidates[np.lexsort((candidates, deltas))[0]])
        src = int(labels[v])
        labels[v] = dest
        sizes[src] -= 1
        sizes[dest] += 1
        nbrs = indices[indptr[v]:indptr[v + 1]]
        part_count[nbrs, src] -= 1
        part_count[nbrs, dest] += 1
    else:
        raise RuntimeError("balance repair failed to converge")
    return Partition.from_labels(labels.tolist(), k)


def approximation_ratio(cut: int, best_known: int) -> float:
    """cut / best_known; requires a positive reference value."""
    if best_known < 1:
        raise ValueError(f"best known cut must be at least 1, got {best_known}")
    if cut < 0:
        raise ValueError(f"cut must be non-negative, got {cut}")
    return cut / best_known
