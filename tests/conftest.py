"""Shared corpus generators and independent oracles for the test suite.

Oracles here deliberately avoid the package's own arithmetic paths:
cuts come from direct edge enumeration over all assignments, energies from
a dense-matrix evaluation, optima from exhaustive search.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from qubopart.graph import Graph, balance_bounds


def gnp_graph(n: int, p: float, rng: np.random.RandomState, name: str = "") -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random_sample() < p]
    return Graph.from_edges(n, edges, name=name or f"gnp{n}")


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid graph, vertex r*cols + c at row r, column c."""
    right = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    down = [(v, v + cols) for v in range(rows * cols - cols)]
    return Graph.from_edges(rows * cols, sorted(right + down))


def planted_graph(n: int, k: int, deg_in: int, deg_out: int,
                  rng: np.random.RandomState) -> Graph:
    """k shuffled blocks with n*deg_in/2 edges inside blocks and n*deg_out/2 across."""
    blocks = rng.permutation(n).reshape(k, n // k)
    edges: set[tuple[int, int]] = set()
    for count, inside in ((n * deg_in // 2, True), (n * deg_out // 2, False)):
        target = len(edges) + count
        while len(edges) < target:
            bu = int(rng.randint(k))
            bv = bu if inside else (bu + 1 + int(rng.randint(k - 1))) % k
            u, v = int(rng.choice(blocks[bu])), int(rng.choice(blocks[bv]))
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges), name=f"planted{n}k{k}")


def small_corpus(seed: int = 2024, count: int = 60, n_max: int = 14) -> list[Graph]:
    """Seeded mix of random densities plus a few structured graphs."""
    rng = np.random.RandomState(seed)
    graphs = []
    for i in range(count - 8):
        n = int(rng.randint(4, n_max + 1))
        p = float(rng.choice([0.15, 0.3, 0.5, 0.8]))
        graphs.append(gnp_graph(n, p, rng, name=f"rand{i}"))
    for n in (6, 9, 12):
        graphs.append(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], name=f"path{n}"))
        graphs.append(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)], name=f"cycle{n}"))
    graphs.append(Graph.from_edges(8, [(0, i) for i in range(1, 8)], name="star8"))
    graphs.append(Graph.from_edges(10, [], name="edgeless10"))
    return graphs


def all_bit_rows(width: int) -> np.ndarray:
    """All 2^width assignments as a (2^width, width) 0/1 matrix."""
    idx = np.arange(1 << width, dtype=np.int64)
    return ((idx[:, None] >> np.arange(width)) & 1).astype(np.int8)


def cuts_of_labelings(g: Graph, labels_matrix: np.ndarray) -> np.ndarray:
    """Cut of every row of a (rows, n) label matrix, by direct edge enumeration."""
    if g.m == 0:
        return np.zeros(len(labels_matrix), dtype=np.int64)
    ea = g.edge_array
    return (labels_matrix[:, ea[:, 0]] != labels_matrix[:, ea[:, 1]]).sum(axis=1)


def bipartition_optimum(g: Graph, epsilon: float = 0.0) -> int:
    """Exhaustive optimal cut over all balanced bipartitions."""
    _, upper = balance_bounds(g.n, 2, epsilon)
    rows = all_bit_rows(g.n)
    ones = rows.sum(axis=1)
    feasible = (ones <= upper) & (g.n - ones <= upper)
    assert feasible.any(), "no feasible bipartition in enumeration"
    return int(cuts_of_labelings(g, rows[feasible]).min())


def kway_optimum(g: Graph, k: int, epsilon: float = 0.0) -> int:
    """Exhaustive optimal cut over all feasible k-way labelings."""
    lower, upper = balance_bounds(g.n, k, epsilon)
    idx = np.arange(k ** g.n, dtype=np.int64)
    labels = np.empty((len(idx), g.n), dtype=np.int8)
    rem = idx.copy()
    for pos in range(g.n):
        labels[:, pos] = rem % k
        rem //= k
    sizes = np.stack([(labels == j).sum(axis=1) for j in range(k)], axis=1)
    feasible = (sizes <= upper).all(axis=1)
    if k > 2:
        feasible &= (sizes >= lower).all(axis=1)
    assert feasible.any(), "no feasible k-way labeling in enumeration"
    return int(cuts_of_labelings(g, labels[feasible]).min())


def dense_energy(model, bits) -> float:
    """Energy via a dense matrix, independent of the package evaluation path."""
    a = np.asarray(bits, dtype=np.float64)
    q = np.zeros((model.num_vars, model.num_vars))
    qi, qj, qc = model.quadratic_terms()
    q[qi, qj] = qc
    return float(model.constant + model.linear @ a + a @ q @ a)


def greedy_slack_bits(value: int, weights: list[int]) -> list[int]:
    """Bits for the capped binary weights summing to value (largest first)."""
    bits = [0] * len(weights)
    remaining = value
    for pos, w in sorted(enumerate(weights), key=lambda t: -t[1]):
        if w <= remaining:
            bits[pos] = 1
            remaining -= w
    assert remaining == 0, f"cannot represent {value} with {weights}"
    return bits


def fill_chain_slack(model, bits: np.ndarray) -> None:
    """Set slack bits so every penalty chain has zero residual.

    A chain's slack bits are its variables past the indicator block, weighted
    by the chain's coefficients.
    """
    for ch in model.chains:
        slack = ch.var_idx >= model.indicators.size
        if not slack.any():
            continue
        fixed = float(ch.coeffs[~slack] @ bits[ch.var_idx[~slack]])
        need = int(round(ch.rhs - fixed))
        bits[ch.var_idx[slack]] = greedy_slack_bits(need, [int(w) for w in ch.coeffs[slack]])


def feasible_sizes(n: int, k: int, lower: int, upper: int,
                   rng: np.random.RandomState) -> list[int]:
    """Random part sizes within [lower, upper] summing to n."""
    sizes = []
    remaining = n
    for j in range(k):
        left = k - j - 1
        lo = max(lower, remaining - left * upper)
        hi = min(upper, remaining - left * lower)
        assert lo <= hi, "bounds unsatisfiable"
        size = int(rng.randint(lo, hi + 1))
        sizes.append(size)
        remaining -= size
    assert remaining == 0
    return sizes


@pytest.fixture(scope="session", autouse=True)
def warm_solver():
    """Compile the annealing kernel once so timed tests measure the algorithm."""
    from qubopart.anneal import AnnealConfig, solve
    from qubopart.qubo import build_bipartition_qubo

    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    solve(build_bipartition_qubo(g), AnnealConfig(sweeps=4, replicas=1, seed=0))
