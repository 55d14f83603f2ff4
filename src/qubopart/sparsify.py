"""Forest-fire edge scoring, graph sparsification, and projection back to the original.

Edges are scored by how often random fires traverse them: a fire starts at a
random unburned vertex, each burning vertex ignites a random number of its
unburned neighbors (geometric fan-out), and the fire restarts from a fresh
vertex until everything has burned.  Edges that carry many burns are kept;
the rest are dropped.  Partitioning the sparsified graph with
:func:`qubopart.pipeline.partition` and projecting the labels back gives a
cheap upper bound on the original graph's cut.

The fire draws from the MT19937 stream of ``RandomState(seed)`` exactly as
the legacy scalar calls ``randint``, ``geometric`` and ``shuffle`` would, but
decodes the raw words itself, which costs a fraction of a numpy call per
draw.  ``rs.randint(0, 2**32, size=B, dtype=np.uint32)`` hands out the
generator's next B output words unchanged; they are fetched
``FIRE_WORD_BLOCK`` at a time, and a refill keeps the unread tail.  No draw
checks for the end of the block: a double that runs out refills and decodes
again, and a shuffle that runs out is redone from its first word after the
refill, which is exact because no burn mark changes during a shuffle.  The
BFS reads its queue, the fire's list of burned vertices, in place.  From the
words w0, w1, ... in order:

* a double takes two words, ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``;
* ``geometric(p)`` takes one double u: ``ceil(log1p(-u) / log(1 - p))`` for
  p below 1/3, else the least x with ``p + p*q + ... + p*q**(x-1) >= u``,
  summed in that order;
* an integer in [0, hi] is the first word whose low ``hi.bit_length()`` bits,
  read as a number, are at most hi; hi == 0 reads no word.  Restart picks and
  the Fisher-Yates swaps of the shuffle (for i = len - 1 down to 1) draw so.

numpy's compatibility policy freezes the legacy stream, so the scores equal
those of the scalar calls bit for bit, with one deliberate difference: a
double of exactly 0.0 (odds 2**-53 per draw) makes the inversion's fan-out
-1, which burns nothing here, where the scalar-call loop once sliced
``targets[:-1]`` and miscounted the unburned vertices.
``tests/reference.py`` keeps that loop, with the same clamp, as the oracle.
"""

from __future__ import annotations

import math
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


FIRE_WORD_BLOCK = 512  # raw MT19937 words fetched per refill; larger blocks raised peak RSS
_GEOMETRIC_SEARCH_MIN_P = 0.333333333333333333333333  # legacy geometric searches from here up
_SUPER_BITS = 10  # restart counts: per 1024-vertex superblock, over 64-vertex bit masks
# a rebuild of the restart counts costs about 8 us + 1 ns a vertex, a per-vertex
# update 0.2-0.3 us a burn (numpy 2.4, x86-64): fires of more than 64 + n/256
# vertices rebuild
_REBUILD_MIN_BURNS = 64


def _more_words(rs: np.random.RandomState, words: list[int], pos: int) -> list[int]:
    """The unread words ``words[pos:]``, then ``FIRE_WORD_BLOCK`` fresh raw words of ``rs``."""
    return words[pos:] + rs.randint(0, 2**32, size=FIRE_WORD_BLOCK, dtype=np.uint32).tolist()


def _unburned_counts(burned: bytearray) -> tuple[list[int], list[int]]:
    """The restart counts, rebuilt from the burn marks in O(n).

    Per 64-vertex block a mask with bit i set when vertex 64 * block + i is
    unburned, and per superblock of ``2**_SUPER_BITS`` vertices the number
    of unburned ones.
    """
    n = len(burned)
    free = np.zeros(-(-n // (1 << _SUPER_BITS)) << _SUPER_BITS, dtype=np.uint8)
    free[:n] = np.frombuffer(burned, dtype=np.uint8) ^ 1
    bits = np.packbits(free, bitorder="little").view("<u8")[:-(-n // 64)]
    return bits.tolist(), free.reshape(-1, 1 << _SUPER_BITS).sum(axis=1).tolist()


def _nth_unburned(free_bits: list[int], super_free: list[int], r: int) -> int:
    """The r-th unburned vertex in vertex order: find its superblock, block, then bit."""
    s = 0
    while r >= super_free[s]:
        r -= super_free[s]
        s += 1
    b = s << (_SUPER_BITS - 6)
    while True:
        bits = free_bits[b]
        c = bits.bit_count()
        if r < c:
            break
        r -= c
        b += 1
    for _ in range(r):
        bits &= bits - 1  # clear the lowest set bit
    return (b << 6) + (bits & -bits).bit_length() - 1


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
    Deterministic for a fixed seed: the draws are those of the legacy
    ``RandomState(seed)`` scalar calls, decoded from raw words as the module
    docstring describes.
    """
    if not 0.0 <= burn_probability < 1.0:
        raise ValueError(f"burn probability must lie in [0, 1), got {burn_probability}")
    if walks < 1:
        raise ValueError(f"walk count must be positive, got {walks}")
    rs = np.random.RandomState(seed)
    words: list[int] = []  # raw words of rs; words[pos] is the next one to decode
    pos = 0
    p = 1.0 - burn_probability
    q = 1.0 - p
    inversion = p < _GEOMETRIC_SEARCH_MIN_P
    log_q = math.log(q) if inversion else 0.0
    ceil, log1p = math.ceil, math.log1p
    ptr, ind = g.indptr.tolist(), g.indices.tolist()
    neighbors = [ind[a:b] for a, b in zip(ptr, ptr[1:])]
    # bit masks of the shuffle's swap draws, masks[i] for an index in [0, i]
    masks = [(1 << i.bit_length()) - 1 for i in range(max(map(len, neighbors), default=0))]
    sources: list[int] = []  # per walk and vertex: the vertex it caught fire from, or -1

    for _ in range(walks):
        burned = bytearray(g.n)
        source = [-1] * g.n
        free_bits, super_free = _unburned_counts(burned)
        remaining = g.n
        while remaining:
            # restart from the r-th unburned vertex, r = randint(remaining)
            hi, r = remaining - 1, 0
            if hi:
                mask = (1 << hi.bit_length()) - 1
                while True:
                    try:
                        r = words[pos] & mask
                    except IndexError:
                        words, pos = _more_words(rs, words, pos), 0
                        continue
                    pos += 1
                    if r <= hi:
                        break
            v = _nth_unburned(free_bits, super_free, r)
            burned[v] = 1
            remaining -= 1
            fire = [v]  # the fire's vertices in burn order, read in place as the BFS queue
            for v in fire:
                nbrs = neighbors[v]
                for u in nbrs:  # a vertex draws only with an unburned neighbor
                    if not burned[u]:
                        break
                else:
                    continue
                # fan-out geometric(p) - 1, from one double; a refill keeps a one-word tail
                try:
                    w0, w1 = words[pos], words[pos + 1]
                except IndexError:
                    words, pos = _more_words(rs, words, pos), 0
                    w0, w1 = words[0], words[1]
                pos += 2
                x = ((w0 >> 5) * 67108864.0 + (w1 >> 6)) / 9007199254740992.0
                if inversion:
                    fan_out = ceil(log1p(-x) / log_q) - 1
                else:
                    fan_out, prod, total = 0, p, p
                    while x > total:
                        prod *= q
                        total += prod
                        fan_out += 1
                if fan_out <= 0:  # the inversion gives -1 for x == 0.0
                    continue
                # shuffle all the targets as rng.shuffle does, Fisher-Yates from
                # the back swapping i with randint(i + 1), and burn the head.  A
                # shuffle that runs out of words is redone from its first word
                # after a refill; no burn mark changes meanwhile
                while True:
                    targets = [u for u in nbrs if not burned[u]]
                    start = pos
                    try:
                        for i in range(len(targets) - 1, 0, -1):
                            mask = masks[i]
                            while (j := words[pos] & mask) > i:
                                pos += 1
                            pos += 1
                            targets[i], targets[j] = targets[j], targets[i]
                        break
                    except IndexError:
                        words, pos = _more_words(rs, words, start), 0
                del targets[fan_out:]
                for u in targets:
                    burned[u] = 1
                    source[u] = v
                remaining -= len(targets)
                fire.extend(targets)
            if not remaining:
                break
            # take the fire's burns off the restart counts: one by one, or by
            # a rebuild once that is cheaper, so a burn costs O(1) either way
            if len(fire) > _REBUILD_MIN_BURNS + (g.n >> 8):
                free_bits, super_free = _unburned_counts(burned)
            else:
                for u in fire:
                    free_bits[u >> 6] ^= 1 << (u & 63)
                    super_free[u >> _SUPER_BITS] -= 1
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
