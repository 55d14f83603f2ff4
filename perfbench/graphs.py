"""Seeded synthetic graphs with a known reference cut, written as METIS text.

Inputs are produced here, not by ``qubopart.write_metis``, so that the
package's parser is measured as program work on text it did not write.
Every generator returns a :class:`BenchGraph` holding the text, the edge list
the text encodes, and a reference labelling whose cut is counted by an edge
loop.  Randomness comes from :class:`random.Random`, so the same seed gives
the same graph on any numpy version.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class BenchGraph:
    name: str
    n: int
    edges: tuple[tuple[int, int], ...]  # sorted, u < v
    text: str
    reference_labels: tuple[int, ...]
    reference_cut: int  # closed form from the generator's parameters
    reference_kind: str
    cut_floor: int = 0  # proven minimum cut of any feasible partition


def count_cut(edges, labels) -> int:
    """Cut of a labelling by direct edge enumeration."""
    return sum(1 for u, v in edges if labels[u] != labels[v])


def metis_text(n: int, edges) -> str:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v + 1)
        nbrs[v].append(u + 1)
    lines = [f"{n} {len(edges)}"]
    lines += [" ".join(map(str, sorted(row))) for row in nbrs]
    return "\n".join(lines) + "\n"


def grid(a: int, b: int) -> BenchGraph:
    """P_a x P_b grid; with a <= b and b even its bisection width is a.

    The reference is the strip labelling (columns j < b/2 in part 0), which
    is balanced and cuts exactly one edge per row.
    """
    if not (2 <= a <= b and b % 2 == 0):
        raise ValueError(f"need 2 <= a <= b with b even, got {a}x{b}")
    edges = []
    for i in range(a):
        for j in range(b):
            v = i * b + j
            if j + 1 < b:
                edges.append((v, v + 1))
            if i + 1 < a:
                edges.append((v, v + b))
    edges.sort()
    labels = tuple(0 if v % b < b // 2 else 1 for v in range(a * b))
    return BenchGraph(name=f"grid{a}x{b}", n=a * b, edges=tuple(edges),
                      text=metis_text(a * b, edges), reference_labels=labels,
                      reference_cut=a, reference_kind="closed-form bisection width",
                      cut_floor=a)


def planted(n: int, k: int, deg_in: int, deg_out: int, seed: int) -> BenchGraph:
    """Planted k-block graph: n*deg_in/2 edges inside blocks, n*deg_out/2 across.

    Blocks hold n/k vertices each, assigned through a seeded shuffle so that
    vertex ids carry no block structure.  Edge endpoints are drawn uniformly
    (inside one block, or from two different blocks); duplicates are redrawn.
    The reference is the planted labelling.
    """
    if n % k or (n * deg_in) % 2 or (n * deg_out) % 2:
        raise ValueError(f"n={n} must split into {k} blocks and give whole edge counts")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    size = n // k
    blocks = [order[b * size:(b + 1) * size] for b in range(k)]
    labels = [0] * n
    for b, members in enumerate(blocks):
        for v in members:
            labels[v] = b
    edges: set[tuple[int, int]] = set()

    def draw(count: int, inside: bool) -> None:
        target = len(edges) + count
        while len(edges) < target:
            if inside:
                members = blocks[rng.randrange(k)]
                u, v = rng.choice(members), rng.choice(members)
            else:
                bu, bv = rng.sample(range(k), 2)
                u, v = rng.choice(blocks[bu]), rng.choice(blocks[bv])
            if u != v:
                edges.add((u, v) if u < v else (v, u))

    draw(n * deg_in // 2, inside=True)
    draw(n * deg_out // 2, inside=False)
    edge_list = sorted(edges)
    return BenchGraph(name=f"planted{n}k{k}", n=n, edges=tuple(edge_list),
                      text=metis_text(n, edge_list), reference_labels=tuple(labels),
                      reference_cut=n * deg_out // 2, reference_kind="planted labelling")


def self_check(bg: BenchGraph, k: int) -> list[str]:
    """Problems with a generated graph's reference labelling (empty if none).

    The reference must be perfectly balanced over k parts, and its edge-loop
    cut must equal the generator's closed form: a for the strip labelling of
    a P_a x P_b grid, the number of edges drawn across blocks for a planted
    graph.
    """
    problems = []
    sizes = [0] * k
    for lab in bg.reference_labels:
        sizes[lab] += 1
    if len(set(sizes)) != 1 or sum(sizes) != bg.n:
        problems.append(f"{bg.name}: reference part sizes {sizes} are not balanced")
    recount = count_cut(bg.edges, bg.reference_labels)
    if recount != bg.reference_cut or recount < 1:
        problems.append(f"{bg.name}: reference labelling cuts {recount}, "
                        f"expected {bg.reference_cut}")
    return problems
