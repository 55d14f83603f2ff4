"""QUBO models for balanced k-way graph partitioning.

A model is ``constant + sum_i linear_i a_i + sum_{i<j} quad_ij a_i a_j`` over
binary variables ``a``.  Partitioning models are assembled from two kinds of
pieces:

* objective terms that count cut edges (via the Laplacian quadratic form,
  which on 0/1 indicators reduces to per-edge terms), and
* squared penalty chains ``P * (sum_t c_t a_t - rhs)^2`` enforcing one-hot
  and balance constraints, with capped binary slack variables turning
  inequalities into equalities.

Chains are kept in factored form, all of them in one flat :class:`ChainSet`
weighted by the model's single ``penalty``; the expanded pairwise
coefficients are available on demand and are exact (integers stay integers
for integer P).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .graph import Graph, balance_bounds

# Expanding a penalty chain over v variables materializes v*(v-1)/2 pairs, so
# dense-chain models grow quadratically.  Refuse beyond this many pairs.
MAX_EXPANSION_TERMS = 20_000_000


class Chain(NamedTuple):
    """One chain of a :class:`ChainSet`: ``(coeffs . a[var_idx] - rhs)^2``."""

    var_idx: np.ndarray
    coeffs: np.ndarray
    rhs: float


@dataclass(eq=False)
class ChainSet:
    """Squared penalty chains ``(coeffs . a[var_idx] - rhs)^2``, stored flat.

    Chain g owns the entries ``indptr[g]:indptr[g+1]`` of ``var_idx`` and
    ``coeffs`` and the right-hand side ``rhs[g]``.  Inside a chain
    ``var_idx`` is strictly increasing, so pair expansion emits
    upper-triangular terms directly; different chains may share variables.
    The chains carry no weight of their own: the model's ``penalty`` scales
    them all.
    """

    indptr: np.ndarray
    var_idx: np.ndarray
    coeffs: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.var_idx = np.asarray(self.var_idx, dtype=np.int64)
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        if self.var_idx.ndim != 1 or self.var_idx.shape != self.coeffs.shape:
            raise ValueError("chain index and coefficient arrays differ in length")
        if self.rhs.ndim != 1 or self.indptr.shape != (len(self.rhs) + 1,) \
                or self.indptr[0] != 0 or self.indptr[-1] != len(self.var_idx) \
                or (np.diff(self.indptr) < 0).any():
            raise ValueError("chain offsets must rise from 0 to the array length, "
                             "one more than there are chains")
        increasing = self.var_idx[1:] > self.var_idx[:-1]
        starts = self.indptr[1:-1]
        increasing[starts[(starts > 0) & (starts < len(self.var_idx))] - 1] = True
        if not increasing.all():
            raise ValueError("chain variable indices must be strictly increasing")

    @classmethod
    def empty(cls) -> ChainSet:
        return cls(np.zeros(1), np.empty(0), np.empty(0), np.empty(0))

    @classmethod
    def from_blocks(cls, *blocks: tuple[np.ndarray, np.ndarray, float]) -> ChainSet:
        """Chains from blocks ``(var_idx, coeffs, rhs)`` of equal-length chains.

        ``var_idx`` and ``coeffs`` are ``(chains, length)`` arrays, one chain
        per row, and ``rhs`` is shared by the block's chains.
        """
        lengths = np.concatenate([np.full(len(v), v.shape[1]) for v, _, _ in blocks])
        return cls(np.concatenate(([0], np.cumsum(lengths))),
                   np.concatenate([v.ravel() for v, _, _ in blocks]),
                   np.concatenate([c.ravel() for _, c, _ in blocks]),
                   np.concatenate([np.full(len(v), float(r)) for v, _, r in blocks]))

    def __len__(self) -> int:
        return len(self.rhs)

    def __getitem__(self, g: int) -> Chain:
        g = range(len(self))[g]
        span = slice(self.indptr[g], self.indptr[g + 1])
        return Chain(self.var_idx[span], self.coeffs[span], float(self.rhs[g]))

    @cached_property
    def chain_id(self) -> np.ndarray:
        """Chain index of every entry of the flat arrays."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def sums(self, bits: np.ndarray) -> np.ndarray:
        """``coeffs . bits[var_idx]`` of every chain, as float64."""
        # over zero chains bincount returns an empty int64 array
        return np.bincount(self.chain_id, weights=self.coeffs * bits[self.var_idx],
                           minlength=len(self)).astype(np.float64, copy=False)


def _running_sum(start: float, terms: np.ndarray) -> float:
    """``start + terms[0] + terms[1] + ...``, added left to right one at a time
    (not pairwise), so chain terms always sum to the same float."""
    return float(np.cumsum(np.concatenate(([start], terms)))[-1])


@dataclass(eq=False)
class QuboModel:
    """Binary quadratic model: objective terms plus penalty chains.

    ``base_*`` fields hold the raw objective; :attr:`linear`,
    :attr:`constant` and :meth:`quadratic_terms` fold the chains in, each
    weighted by ``penalty``, so the model is
    ``objective + penalty * sum_g (coeffs_g . a[var_idx_g] - rhs_g)^2``.

    ``indicators`` is the variable layout, an ``(n, c)`` int64 array of
    variable indices: ``c == 1`` for the bipartition model, whose bit is the
    vertex's label, and ``c == k`` for the one-hot model, where
    ``indicators[v, j]`` is the bit for "v in part j".  Every other variable
    is a slack bit at an index ``>= indicators.size``, in the tail of its
    balance chain, weighted by that chain's ``coeffs``.  It is None for models
    read from generic QUBO text, which cannot be decoded back into partitions.

    The objective fields (``num_vars``, ``base_linear`` and the
    ``base_quad_*`` triples) must not be mutated after construction:
    :attr:`objective_csr` is built from them once and cached.
    """

    num_vars: int
    base_linear: np.ndarray
    base_quad_i: np.ndarray
    base_quad_j: np.ndarray
    base_quad_c: np.ndarray
    base_constant: float = 0.0
    chains: ChainSet = field(default_factory=ChainSet.empty)
    indicators: np.ndarray | None = None
    penalty: float = 0.0
    k: int | None = None
    epsilon: float | None = None
    n: int | None = None

    def __post_init__(self):
        self.base_linear = np.asarray(self.base_linear, dtype=np.float64)
        self.base_quad_i = np.asarray(self.base_quad_i, dtype=np.int64)
        self.base_quad_j = np.asarray(self.base_quad_j, dtype=np.int64)
        self.base_quad_c = np.asarray(self.base_quad_c, dtype=np.float64)
        if self.base_linear.shape != (self.num_vars,):
            raise ValueError("linear coefficient array length mismatch")
        if not (len(self.base_quad_i) == len(self.base_quad_j) == len(self.base_quad_c)):
            raise ValueError("quadratic term arrays differ in length")
        if len(self.base_quad_i) and not np.all(self.base_quad_i < self.base_quad_j):
            raise ValueError("quadratic terms must be strictly upper-triangular")

    @cached_property
    def objective_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Symmetric CSR ``(indptr, rows, cols, data)`` of the objective's pair terms.

        Each triple ``(i, j, c)``, repeats summed, is stored as ``(i, j)``
        and ``(j, i)``, in (row, col) order; ``rows`` names every entry's
        row.  The arrays are read-only.  Derived here with two sorts; the
        partition builders fill it from the graph's CSR instead.
        """
        nv = self.num_vars
        qi, qj, qc = _coalesce(nv, self.base_quad_i, self.base_quad_j, self.base_quad_c)
        rows = np.concatenate([qi, qj])
        cols = np.concatenate([qj, qi])
        data = np.concatenate([qc, qc])
        order = np.argsort(rows * nv + cols, kind="stable")  # (row, col) pairs are unique
        indptr = np.zeros(nv + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nv), out=indptr[1:])
        return _read_only(indptr, rows[order], cols[order], data[order])

    @property
    def linear(self) -> np.ndarray:
        """Per-variable linear coefficients with all chains folded in."""
        lin = self.base_linear.copy()
        ch = self.chains
        # (sum c a - r)^2 contributes c_t * (c_t - 2r) per variable
        np.add.at(lin, ch.var_idx,
                  self.penalty * ch.coeffs * (ch.coeffs - 2.0 * ch.rhs[ch.chain_id]))
        return lin

    @property
    def constant(self) -> float:
        return self.base_constant + _running_sum(0.0, self.penalty * self.chains.rhs ** 2)

    def expansion_size(self) -> int:
        """Number of raw pair terms the full expansion would materialize."""
        v = np.diff(self.chains.indptr)
        return len(self.base_quad_c) + int((v * (v - 1) // 2).sum())

    def quadratic_terms(self, max_terms: int = MAX_EXPANSION_TERMS
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expanded upper-triangular quadratic terms, coalesced and sorted.

        Returns (i, j, coeff) arrays with i < j, each pair at most once,
        exact zeros dropped.  Raises for models whose expansion would exceed
        ``max_terms`` pairs.
        """
        size = self.expansion_size()
        if size > max_terms:
            raise ValueError(f"expansion has {size} pair terms, above the {max_terms} cap")
        qi = [self.base_quad_i]
        qj = [self.base_quad_j]
        qc = [self.base_quad_c]
        for ch in self.chains:
            v = len(ch.var_idx)
            if v < 2:
                continue
            ti, tj = np.triu_indices(v, k=1)
            qi.append(ch.var_idx[ti])
            qj.append(ch.var_idx[tj])
            qc.append(2.0 * self.penalty * ch.coeffs[ti] * ch.coeffs[tj])
        i, j, c = _coalesce(self.num_vars, np.concatenate(qi), np.concatenate(qj),
                            np.concatenate(qc))
        keep = c != 0.0
        return i[keep], j[keep], c[keep]

    def quadratic_dict(self) -> dict[tuple[int, int], float]:
        qi, qj, qc = self.quadratic_terms()
        return {(int(a), int(b)): float(v) for a, b, v in zip(qi, qj, qc)}

    def num_terms(self) -> int:
        """Nonzero coefficient count in the expanded form (linear + quadratic)."""
        qi, _, _ = self.quadratic_terms()
        return int(np.count_nonzero(self.linear)) + len(qi)

    def energy(self, bits: np.ndarray) -> float:
        return energy(self, bits)


def _coalesce(nv: int, qi: np.ndarray, qj: np.ndarray, qc: np.ndarray):
    """Sum the coefficients of repeated (i, j) pairs; pairs come out sorted."""
    if not len(qi):
        return qi, qj, qc
    keys = qi * np.int64(nv) + qj
    order = np.argsort(keys, kind="stable")
    keys, qi, qj, qc = keys[order], qi[order], qj[order], qc[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
    return qi[starts], qj[starts], np.add.reduceat(qc, starts)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def energy(model: QuboModel, bits: Sequence[int] | np.ndarray) -> float:
    """Exact model energy of a 0/1 assignment (chains evaluated in factored form)."""
    a = np.asarray(bits, dtype=np.float64)
    if a.shape != (model.num_vars,):
        raise ValueError(f"assignment length {a.shape} does not match {model.num_vars} variables")
    if np.any((a != 0.0) & (a != 1.0)):
        raise ValueError("assignment must be 0/1 valued")
    e = model.base_constant + float(model.base_linear @ a)
    if len(model.base_quad_c):
        e += float(model.base_quad_c @ (a[model.base_quad_i] * a[model.base_quad_j]))
    residuals = model.chains.sums(a) - model.chains.rhs
    return _running_sum(e, model.penalty * residuals ** 2)


def default_penalty(g: Graph) -> float:
    """Penalty weight that makes every constraint violation unprofitable.

    Moving one vertex across the cut changes the objective by at most its
    degree, so max degree + 1 strictly dominates any gain from a unit of
    constraint violation.  Edgeless graphs get 1.
    """
    return float(g.max_degree + 1)


def encode_slack_weights(span: int) -> list[int]:
    """Capped binary weights whose subset sums cover exactly 0..span.

    Uses b = ceil(log2(span+1)) weights: powers of two 1, 2, ..., 2^(b-2)
    and a final cap of span - (2^(b-1) - 1).  Empty for span 0.
    """
    if span < 0:
        raise ValueError(f"slack span must be non-negative, got {span}")
    if span == 0:
        return []
    b = math.ceil(math.log2(span + 1))
    weights = [1 << i for i in range(b - 1)]
    weights.append(span - ((1 << (b - 1)) - 1))
    return weights


def _chain_bounds(n: int, k: int, epsilon: float) -> tuple[int, int]:
    """Size range [lo, hi] that one balance chain enforces on its part.

    The bipartition chain counts part 1 only, so part 0's upper bound
    becomes part 1's lower bound n - upper; at epsilon == 0 both ends are
    ceil(n/2).
    """
    lower, upper = balance_bounds(n, k, epsilon)
    if k == 2:
        lower = max(lower, n - upper)
    return lower, upper


def model_num_vars(n: int, k: int, epsilon: float = 0.0) -> int:
    """Variable count of the model the builders return, without building it."""
    lo, hi = _chain_bounds(n, k, epsilon)
    slack = len(encode_slack_weights(hi - lo))
    return n + slack if k == 2 else k * (n + slack)


def _balance_chains(part_vars: np.ndarray, lo: int, hi: int,
                    first_slack: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Chains ``sum(part_vars[j]) + slack_j = hi``, one per row of ``part_vars``.

    Each chain's slack spans exactly hi - lo with positive coefficients, so
    the chain bounds its part size from both sides.  The slack bits follow
    the indicators in each chain and are numbered from ``first_slack``, row
    by row; equal bounds give equality chains with no slack.  Returns a
    :meth:`ChainSet.from_blocks` block.
    """
    weights = np.asarray(encode_slack_weights(hi - lo), dtype=np.float64)
    rows, n = part_vars.shape
    width = len(weights)
    slack = first_slack + np.arange(rows * width, dtype=np.int64).reshape(rows, width)
    coeffs = np.concatenate([np.ones((rows, n)), np.broadcast_to(weights, slack.shape)], axis=1)
    return np.concatenate([part_vars, slack], axis=1), coeffs, float(hi)


def _partition_model(g: Graph, indicators: np.ndarray, chains: ChainSet, nv: int,
                     penalty: float, k: int, epsilon: float) -> QuboModel:
    """Cut objective over the layout ``indicators[v, j] == v*parts + j``, plus ``chains``.

    Each edge {u,v} in part j contributes w*(a_u + a_v - 2 a_u a_v) with
    w = 1 for a bipartition indicator and w = 1/2 per part for one-hot k-way
    (summing the per-part forms double counts each cut edge).

    The model's :attr:`QuboModel.objective_csr` is filled from the graph's
    CSR, whose rows list each vertex's neighbours sorted, so it needs no
    sort: row ``v*parts + j`` holds ``u*parts + j`` for each neighbour u of
    v, and the slack rows are empty.
    """
    n, parts = indicators.shape
    weight = 1.0 if parts == 1 else 0.5
    coeff = -2.0 * weight
    deg = g.degrees
    lin = np.zeros(nv)
    lin[:indicators.size] = np.repeat(weight * deg, parts)
    ea = g.edge_array
    offsets = np.arange(parts, dtype=np.int64)
    # u < v guarantees qi < qj within a part block
    qi = (ea[:, 0, None] * parts + offsets).ravel()
    qj = (ea[:, 1, None] * parts + offsets).ravel()

    g_indptr, g_indices = g.indptr, g.indices
    arcs = len(g_indices)
    starts = (parts * g_indptr[:-1, None] + deg[:, None] * offsets).ravel()
    indptr = np.concatenate([starts, np.full(nv + 1 - starts.size, parts * arcs, dtype=np.int64)])
    if parts == 1:
        cols = g_indices
    else:
        # arc a = (v, u) lands in row v*parts + j at a + (parts-1)*indptr[v] + j*deg[v]
        cols = np.empty(parts * arcs, dtype=np.int64)
        pos = np.arange(arcs) + np.repeat((parts - 1) * g_indptr[:-1], deg)
        step = np.repeat(deg, deg)
        col = g_indices * parts
        for _ in range(parts):
            cols[pos] = col
            pos += step
            col += 1
    rows = np.repeat(np.arange(nv), np.diff(indptr))

    # one constant fills both coefficient arrays, so read-only broadcasts of it
    # stand in for them without memory per term; neither is ever written
    model = QuboModel(num_vars=nv, base_linear=lin, base_quad_i=qi, base_quad_j=qj,
                      base_quad_c=np.broadcast_to(coeff, len(qi)), chains=chains,
                      indicators=indicators, penalty=penalty, k=k, epsilon=float(epsilon), n=n)
    vars(model)["objective_csr"] = _read_only(indptr, rows, cols,  # fills the cached_property
                                              np.broadcast_to(coeff, len(cols)))
    return model


def build_bipartition_qubo(g: Graph, epsilon: float = 0.0,
                           penalty: float | None = None) -> QuboModel:
    """QUBO for balanced bipartitioning; variable i indicates vertex i in part 1.

    One balance chain bounds the part-1 size to [max(0, n - upper), upper]
    with upper from :func:`balance_bounds`, so both parts hold at most upper
    vertices; epsilon == 0 pins it to ceil(n/2) with no slack.
    ``penalty=None`` selects :func:`default_penalty`.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    p = default_penalty(g) if penalty is None else float(penalty)
    if p <= 0:
        raise ValueError(f"penalty must be positive, got {p}")
    lo, hi = _chain_bounds(g.n, 2, epsilon)
    indicators = np.arange(g.n, dtype=np.int64)[:, None]
    chains = ChainSet.from_blocks(_balance_chains(indicators.T, lo, hi, g.n))
    nv = len(chains.var_idx)  # every indicator, then the slack
    return _partition_model(g, indicators, chains, nv, p, 2, epsilon)


def build_kway_qubo(g: Graph, k: int, epsilon: float = 0.0,
                    penalty: float | None = None) -> QuboModel:
    """One-hot k-way partitioning QUBO over n*k indicators plus slack bits.

    Variable i*k+j indicates vertex i in part j.  Penalty chains enforce
    one indicator per vertex, and one balance chain per part bounds its size
    to :func:`balance_bounds`' [lower, upper].
    """
    if k < 2 or k > g.n:
        raise ValueError(f"k must lie in 2..n={g.n}, got {k}")
    p = default_penalty(g) if penalty is None else float(penalty)
    if p <= 0:
        raise ValueError(f"penalty must be positive, got {p}")
    lo, hi = _chain_bounds(g.n, k, epsilon)
    indicators = np.arange(g.n * k, dtype=np.int64).reshape(g.n, k)
    one_hot = (indicators, np.ones(indicators.shape), 1.0)  # one chain per vertex
    balance = _balance_chains(indicators.T, lo, hi, indicators.size)
    chains = ChainSet.from_blocks(one_hot, balance)
    nv = balance[0].size  # the balance chains hold every indicator and slack bit once
    return _partition_model(g, indicators, chains, nv, p, k, epsilon)


def _fmt(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 2 ** 53:
        return str(int(value))
    return repr(value)


def write_qubo_text(model: QuboModel, max_terms: int = MAX_EXPANSION_TERMS) -> str:
    """Serialize the expanded model.

    Line layout: a ``c offset`` comment, a ``p qubo <num_vars> <num_terms>``
    header, then one ``i j coeff`` term per line with 1-indexed i <= j
    (i == j marks a linear term).  Integer coefficients are written without a
    decimal point and round-trip exactly.
    """
    lin = model.linear
    qi, qj, qc = model.quadratic_terms(max_terms=max_terms)
    lin_idx = np.flatnonzero(lin)
    lines = [f"c offset {_fmt(model.constant)}",
             f"p qubo {model.num_vars} {len(lin_idx) + len(qi)}"]
    for i in lin_idx:
        lines.append(f"{i + 1} {i + 1} {_fmt(lin[i])}")
    for a, b, v in zip(qi, qj, qc):
        lines.append(f"{a + 1} {b + 1} {_fmt(v)}")
    return "\n".join(lines) + "\n"


def parse_qubo_text(text: str) -> QuboModel:
    """Parse QUBO text written by :func:`write_qubo_text`.

    The result has no indicator layout or partition metadata, so it can be
    solved but not decoded into a partition.
    """
    constant = 0.0
    header: tuple[int, int] | None = None
    terms: list[tuple[int, int, float]] = []
    for ln in text.splitlines():
        tokens = ln.split()
        if not tokens:
            continue
        if tokens[0] == "c":
            if len(tokens) == 3 and tokens[1] == "offset":
                constant = float(tokens[2])
            continue
        if tokens[0] == "p":
            if header is not None:
                raise ValueError("duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "qubo":
                raise ValueError(f"malformed problem line {ln!r}")
            header = (int(tokens[2]), int(tokens[3]))
            continue
        if header is None:
            raise ValueError("term line before problem line")
        if len(tokens) != 3:
            raise ValueError(f"malformed term line {ln!r}")
        i, j, v = int(tokens[0]), int(tokens[1]), float(tokens[2])
        if not (1 <= i <= j <= header[0]):
            raise ValueError(f"term indices ({i}, {j}) invalid for {header[0]} variables")
        terms.append((i - 1, j - 1, v))
    if header is None:
        raise ValueError("missing problem line")
    nv, declared = header
    if len(terms) != declared:
        raise ValueError(f"declared {declared} terms, found {len(terms)}")

    lin = np.zeros(nv, dtype=np.float64)
    quad: dict[tuple[int, int], float] = {}
    for i, j, v in terms:
        if i == j:
            lin[i] += v
        else:
            quad[(i, j)] = quad.get((i, j), 0.0) + v
    keys = sorted(quad)
    qi = np.asarray([a for a, _ in keys], dtype=np.int64)
    qj = np.asarray([b for _, b in keys], dtype=np.int64)
    qc = np.asarray([quad[key] for key in keys], dtype=np.float64)
    return QuboModel(num_vars=nv, base_linear=lin, base_quad_i=qi, base_quad_j=qj,
                     base_quad_c=qc, base_constant=constant)
