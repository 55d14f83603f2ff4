"""Decoding solver assignments into partitions, feasibility, greedy repair."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

import numpy as np

from .graph import Graph, Partition, balance_bounds
from .qubo import QuboModel


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

    A partition is balanced when every part lies in :func:`balance_bounds`'
    [lower, upper].
    """
    lower, upper = balance_bounds(p.n, p.k, epsilon)
    sizes = p.part_sizes()
    return Feasibility(one_hot_ok=True, balance_ok=all(lower <= s <= upper for s in sizes),
                       part_sizes=tuple(sizes))


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

    partition = Partition.from_labels(labels, model.k)
    return partition, replace(partition_feasibility(partition, model.epsilon or 0.0),
                              one_hot_ok=one_hot_ok)


def repair(g: Graph, p: Partition, k: int | None = None,
           epsilon: float = 0.0) -> Partition:
    """Greedily move vertices one at a time until the balance bounds hold.

    Each move takes a vertex from a source part to the destination part:

    * Sources: every part above ``upper``.  When no part is above ``upper``
      but some part is below ``lower``, every part above ``lower``.
      When neither holds the bounds are met and repair stops.
    * Destination: the smallest part, ties toward the lowest part id.
    * Vertex: among the vertices of the source parts, the one with the least
      cost ``part_count[v, labels[v]] - part_count[v, dest]`` (neighbors of v
      in its own part minus neighbors of v in the destination, the rise in
      the cut), ties toward the lowest vertex id.

    Each (source, destination) pair of parts keeps a lazy min-heap of
    ``(cost + maxdeg) * n + v`` keys, built from the current labels the first
    time the pair is needed, so a move costs O(deg * k * log n): a move pushes
    fresh keys for the moved vertex's neighbors only, and a heap top whose
    part or cost is out of date is popped when it is read.  A neighbor in a
    part that has never been a source has no heap to push to, and the list
    of sources is rebuilt only after a move that can change it.

    Raises ``ValueError`` when a label lies outside ``range(k)``.  Every
    window :func:`balance_bounds` gives can be met, so repair always ends
    with the bounds met.
    """
    k = p.k if k is None else k
    if p.n != g.n:
        raise ValueError(f"partition has {p.n} labels, graph has {g.n} vertices")
    labels = np.asarray(p.labels, dtype=np.int64)
    outside = np.flatnonzero((labels < 0) | (labels >= k))
    if len(outside):
        v = int(outside[0])
        raise ValueError(f"label {labels[v]} at vertex {v} outside range({k})")
    lower, upper = balance_bounds(g.n, k, epsilon)

    sizes = np.bincount(labels, minlength=k).tolist()

    def source_parts() -> list[int]:
        over = [j for j in range(k) if sizes[j] > upper]
        if over or min(sizes) >= lower:
            return over
        return [j for j in range(k) if sizes[j] > lower]

    sources = source_parts()
    if not sources:
        return Partition.from_labels(p.labels, k)

    n = g.n
    indptr, indices = g.indptr, g.indices
    degree = np.diff(indptr)
    maxdeg = int(degree.max(initial=0))
    # part_count[v * k + j]: neighbors of v in part j, so the cost of moving
    # v to d is part_count[v * k + labels[v]] - part_count[v * k + d]
    rows = np.repeat(np.arange(n), degree)
    part_count = np.bincount(rows * k + labels[indices], minlength=n * k).tolist()
    # per-move work is a handful of scalars: Python lists beat numpy indexing,
    # and a memoryview slice of the neighbor ids iterates to Python ints
    labels, indptr = labels.tolist(), indptr.tolist()
    nbr_ids = memoryview(indices)
    # heaps[s] stays None until s is a source, heaps[s][d] until d is the
    # destination with s a source.  A part that has been a source is never
    # the destination: a source stays at or above upper while some part is
    # above upper, and at or above lower after, and the destination is
    # below that.  So heaps[dest] and heaps[s][src] stay None, and neither
    # the moved vertex nor a third part's cost toward src needs a push.
    heaps: list[list[list[int] | None] | None] = [None] * k
    heappush, heappop = heapq.heappush, heapq.heappop

    for _ in range(4 * n + 8):
        if not sources:
            break
        dest = sizes.index(min(sizes))
        best = -1
        for s in sources:
            row = heaps[s]
            if row is None:
                row = heaps[s] = [None] * k
            heap = row[dest]
            if heap is None:
                own, count = part_count[s::k], part_count[dest::k]
                heap = row[dest] = [(own[u] - count[u] + maxdeg) * n + u
                                    for u, label in enumerate(labels) if label == s]
                heap.sort()  # a sorted list is a heap
            while True:  # drop tops whose vertex left s or whose cost changed
                key = heap[0]
                v = key % n
                vk = v * k
                if labels[v] == s and part_count[vk + s] - part_count[vk + dest] == key // n - maxdeg:
                    break
                heappop(heap)
            if best < 0 or key < best:
                best = key
        v = best % n
        src = labels[v]
        labels[v] = dest
        sizes[src] -= 1
        sizes[dest] += 1
        # the sources change only when src falls to upper or lower, leaving
        # the parts above that bound, or dest rises to lower, when every part
        # may hold lower; dest never rises above upper, and once it passes
        # lower every part holds lower for good, so no lower phase follows
        if sizes[src] == upper or sizes[src] == lower or sizes[dest] == lower:
            sources = source_parts()
        # a neighbor's counts change only through v, so pushing its keys
        # right after its own update pushes what a separate pass would
        for u in nbr_ids[indptr[v]:indptr[v + 1]]:
            uk = u * k
            part_count[uk + src] -= 1
            part_count[uk + dest] += 1
            u_label = labels[u]
            row = heaps[u_label]
            if row is None:  # u's part has never been a source
                continue
            base = (part_count[uk + u_label] + maxdeg) * n + u
            if u_label == src:  # u lost a neighbor in its own part: every cost fell
                for d, heap in enumerate(row):
                    if heap is not None:
                        heappush(heap, base - part_count[uk + d] * n)
            else:  # a third part's vertex: its cost toward dest fell
                heap = row[dest]
                if heap is not None:
                    heappush(heap, base - part_count[uk + dest] * n)
    else:
        raise RuntimeError("balance repair failed to converge")
    return Partition(tuple(labels), k)  # every label is in range(k) already


def approximation_ratio(cut: int, best_known: int) -> float:
    """cut / best_known; requires a positive reference value."""
    if best_known < 1:
        raise ValueError(f"best known cut must be at least 1, got {best_known}")
    if cut < 0:
        raise ValueError(f"cut must be non-negative, got {cut}")
    return cut / best_known
