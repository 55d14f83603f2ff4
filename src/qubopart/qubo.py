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
from typing import NamedTuple, Sequence

import numpy as np

from .graph import (Graph, _holds_other_break, _read_only, _split_lines, balance_bounds,
                    _cached_property)

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

    @_cached_property
    def chain_id(self) -> np.ndarray:
        """Chain index of every entry of the flat arrays."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def sums(self, bits: np.ndarray) -> np.ndarray:
        """``coeffs . bits[var_idx]`` of every chain, as float64."""
        # over zero chains bincount returns an empty int64 array
        return np.bincount(self.chain_id, weights=self.coeffs * bits[self.var_idx],
                           minlength=len(self)).astype(np.float64, copy=False)


class _SymmetricCSR(tuple):
    """An objective CSR ``(indptr, cols, data)`` that its builder made
    symmetric, which :class:`QuboModel` then does not check again.  As a
    field value it passes unchanged through :func:`dataclasses.replace`."""

    __slots__ = ()


def _is_symmetric(indptr: np.ndarray, cols: np.ndarray, data: np.ndarray) -> bool:
    """Whether the CSR has no diagonal entry and its ``(row, col, value)``
    entries equal their mirrors ``(col, row, value)``, as multisets; a NaN
    value mirrors a NaN.  A diagonal entry is its own mirror, but the
    solver's flip gains leave it out."""
    n = np.int64(len(indptr) - 1)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    if np.any(rows == cols):
        return False
    keys, mirrors = rows * n + cols, cols * n + rows
    at, mirrored = np.lexsort((data, keys)), np.lexsort((data, mirrors))
    return bool(np.array_equal(keys[at], mirrors[mirrored])
                and np.array_equal(data[at], data[mirrored], equal_nan=True))


def _running_sum(start: float, terms: np.ndarray) -> float:
    """``start + terms[0] + terms[1] + ...``, added left to right one at a time
    (not pairwise), so chain terms always sum to the same float."""
    return float(np.cumsum(np.concatenate(([start], terms)))[-1])


@dataclass(eq=False)
class QuboModel:
    """Binary quadratic model: objective terms plus penalty chains.

    ``base_*`` fields and :attr:`objective_csr` hold the raw objective;
    :attr:`linear`, :attr:`constant` and :meth:`quadratic_terms` fold the
    chains in, each weighted by ``penalty``, so the model is
    ``objective + penalty * sum_g (coeffs_g . a[var_idx_g] - rhs_g)^2``.

    ``objective_csr`` is the only stored form of the objective's pair terms:
    the read-only symmetric CSR ``(indptr, cols, data)``, holding each pair
    ``(i, j, c)`` as ``(i, j)`` and ``(j, i)`` in (row, col) order.  The
    partition builders fill it from the graph's CSR; :meth:`from_triples`
    builds it from pair triples.  Both are symmetric by construction; a CSR
    built by hand is checked, because :func:`energy` and the solver's start
    state read each pair from either end; it may hold no diagonal entry,
    since the flip gains leave out a pair's effect on its own bit.

    ``indicators`` is the variable layout, an ``(n, c)`` int64 array of
    variable indices: ``c == 1`` for the bipartition model, whose bit is the
    vertex's label, and ``c == k`` for the one-hot model, where
    ``indicators[v, j]`` is the bit for "v in part j".  Every other variable
    is a slack bit at an index ``>= indicators.size``, in the tail of its
    balance chain, weighted by that chain's ``coeffs``.  It is None for models
    read from generic QUBO text, which cannot be decoded back into partitions.
    """

    num_vars: int
    base_linear: np.ndarray
    objective_csr: tuple[np.ndarray, np.ndarray, np.ndarray]
    base_constant: float = 0.0
    chains: ChainSet = field(default_factory=ChainSet.empty)
    indicators: np.ndarray | None = None
    penalty: float = 0.0
    k: int | None = None
    epsilon: float | None = None

    def __post_init__(self):
        self.base_linear = np.asarray(self.base_linear, dtype=np.float64)
        if self.base_linear.shape != (self.num_vars,):
            raise ValueError("linear coefficient array length mismatch")
        indptr, cols, data = self.objective_csr
        if len(indptr) != self.num_vars + 1 or len(cols) != len(data) \
                or indptr[-1] != len(cols):
            raise ValueError("objective CSR arrays do not fit the variable count")
        if len(cols) and (cols.min() < 0 or cols.max() >= self.num_vars):
            raise ValueError(f"objective CSR columns must lie in [0, {self.num_vars})")
        marked = isinstance(self.objective_csr, _SymmetricCSR)
        if not (marked or _is_symmetric(indptr, cols, data)):
            raise ValueError("objective CSR must be symmetric with an empty diagonal: every "
                             "(row, col, value) entry needs a (col, row, value) entry and "
                             "row != col")
        # a NaN or infinite penalty makes every energy NaN, and the sweeps'
        # chain gains rely on penalty >= 0
        if not (0.0 <= self.penalty < math.inf):
            raise ValueError(f"penalty must be finite and non-negative, got {self.penalty}")

    @classmethod
    def from_triples(cls, num_vars: int, base_linear, qi, qj, qc, **rest) -> QuboModel:
        """Model whose objective pair terms are the triples ``(qi, qj, qc)``.

        Every pair needs ``0 <= qi < qj < num_vars``; the coefficients of
        repeated pairs are summed in the order given.  ``rest`` holds the
        other fields.
        """
        qi = np.asarray(qi, dtype=np.int64)
        qj = np.asarray(qj, dtype=np.int64)
        qc = np.asarray(qc, dtype=np.float64)
        if not (qi.ndim == 1 and qi.shape == qj.shape == qc.shape):
            raise ValueError("quadratic term arrays differ in length")
        if len(qi) and not np.all(qi < qj):
            raise ValueError("quadratic terms must be strictly upper-triangular")
        if len(qi) and (qi.min() < 0 or qj.max() >= num_vars):
            raise ValueError(f"quadratic term indices must lie in [0, {num_vars})")
        qi, qj, qc = _coalesce(num_vars, qi, qj, qc)
        rows = np.concatenate([qi, qj])
        cols = np.concatenate([qj, qi])
        data = np.concatenate([qc, qc])
        order = np.argsort(rows * num_vars + cols, kind="stable")  # (row, col) pairs are unique
        indptr = np.zeros(num_vars + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=num_vars), out=indptr[1:])
        csr = _SymmetricCSR(_read_only(indptr, cols[order], data[order]))
        return cls(num_vars, base_linear, csr, **rest)

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
        return len(self.objective_csr[1]) // 2 + int((v * (v - 1) // 2).sum())

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
        indptr, cols, data = self.objective_csr
        rows = np.repeat(np.arange(self.num_vars), np.diff(indptr))
        upper = rows < cols  # the pairs once each, already sorted
        qi = [rows[upper]]
        qj = [cols[upper]]
        qc = [data[upper]]
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


def _coalesce(nv: int, qi: np.ndarray, qj: np.ndarray, qc: np.ndarray):
    """Sum the coefficients of repeated (i, j) pairs; pairs come out sorted."""
    if not len(qi):
        return qi, qj, qc
    keys = qi * np.int64(nv) + qj
    order = np.argsort(keys, kind="stable")
    keys, qi, qj, qc = keys[order], qi[order], qj[order], qc[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
    return qi[starts], qj[starts], np.add.reduceat(qc, starts)


def energy(model: QuboModel, bits: Sequence[int] | np.ndarray) -> float:
    """Exact model energy of a 0/1 assignment (chains evaluated in factored form)."""
    a = np.asarray(bits, dtype=np.float64)
    if a.shape != (model.num_vars,):
        raise ValueError(f"assignment length {a.shape} does not match {model.num_vars} variables")
    if np.any((a != 0.0) & (a != 1.0)):
        raise ValueError("assignment must be 0/1 valued")
    indptr, cols, data = model.objective_csr
    on = a != 0
    both = np.repeat(on, np.diff(indptr))
    both &= on[cols]
    return _energy_of(model, on, data[both], model.chains.sums(a))


def _energy_of(model: QuboModel, on: np.ndarray, pairs: np.ndarray, sums: np.ndarray) -> float:
    """Energy of the assignment whose set bits ``on`` selects, as a mask or
    as ascending indices, from ``pairs``, the objective CSR values whose row
    and column bits are both set in CSR order, and the chain sums ``sums``.

    Every term is summed without BLAS, whose dot threads above 10000
    elements and so rounds differently with the thread count.
    """
    e = _running_sum(model.base_constant, model.base_linear[on])
    # each stored pair counts twice, once from each end
    e += 0.5 * float(pairs.sum())
    return _running_sum(e, model.penalty * (sums - model.chains.rhs) ** 2)


def default_penalty(g: Graph) -> float:
    """Penalty weight that makes every constraint violation unprofitable.

    Moving one vertex across the cut changes the objective by at most its
    degree, so max degree + 1 strictly dominates any gain from a unit of
    constraint violation.  Edgeless graphs get 1.
    """
    return float(g.max_degree + 1)


def _checked_penalty(g: Graph, penalty: float | None) -> float:
    """``penalty``, or :func:`default_penalty` when it is None; a NaN penalty
    would make every energy NaN, so it must be finite and positive."""
    p = default_penalty(g) if penalty is None else float(penalty)
    if not (0 < p < math.inf):
        raise ValueError(f"penalty must be finite and positive, got {p}")
    return p


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


def _chain_bounds(n: int, k: int, epsilon: float, one_hot: bool) -> tuple[int, int]:
    """Size range [lo, hi] that one balance chain enforces on its part.

    First checks n and k: the one-hot model needs ``2 <= k <= n``, the
    bipartition model a vertex.  The one-hot chains
    take :func:`balance_bounds`' window as it is.  The bipartition chain
    counts part 1 only, and at epsilon == 0 it pins part 1 to ceil(n/2),
    which needs no slack.
    """
    if one_hot and not 2 <= k <= n:
        raise ValueError(f"k must lie in 2..n={n}, got {k}")
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    lower, upper = balance_bounds(n, k, epsilon)
    if not one_hot and epsilon == 0:
        lower = upper
    return lower, upper


def model_num_vars(n: int, k: int, epsilon: float = 0.0) -> int:
    """Variable count of the model the builders return, without building it."""
    lo, hi = _chain_bounds(n, k, epsilon, one_hot=k != 2)
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
    parts = indicators.shape[1]
    weight = 1.0 if parts == 1 else 0.5
    coeff = -2.0 * weight
    deg = g.degrees
    lin = np.zeros(nv)
    lin[:indicators.size] = np.repeat(weight * deg, parts)
    offsets = np.arange(parts, dtype=np.int64)
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

    # one constant fills the coefficients, so a read-only broadcast of it
    # stands in for them without memory per term; it is never written
    csr = _SymmetricCSR(_read_only(indptr, cols, np.broadcast_to(coeff, len(cols))))
    return QuboModel(num_vars=nv, base_linear=lin, objective_csr=csr, chains=chains,
                     indicators=indicators, penalty=penalty, k=k, epsilon=float(epsilon))


def build_bipartition_qubo(g: Graph, epsilon: float = 0.0,
                           penalty: float | None = None) -> QuboModel:
    """QUBO for balanced bipartitioning; variable i indicates vertex i in part 1.

    One balance chain bounds the part-1 size to :func:`balance_bounds`'
    [lower, upper], where lower = max(0, n - upper), so both parts hold at
    most upper vertices; epsilon == 0 pins it to ceil(n/2) with no slack.
    ``penalty=None`` selects :func:`default_penalty`.
    """
    lo, hi = _chain_bounds(g.n, 2, epsilon, one_hot=False)
    p = _checked_penalty(g, penalty)
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
    lo, hi = _chain_bounds(g.n, k, epsilon, one_hot=True)
    p = _checked_penalty(g, penalty)
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
    for ln in _split_lines(text):
        tokens = ln.split()
        if not tokens:
            continue
        if _holds_other_break(ln):
            raise ValueError(f"line break other than \\n, \\r\\n or \\r in line {ln!r}")
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

    qi, qj, qc = np.array(terms, dtype=np.float64).reshape(-1, 3).T  # indices are exact
    qi, qj = qi.astype(np.int64), qj.astype(np.int64)
    diag = qi == qj
    lin = np.zeros(nv, dtype=np.float64)
    np.add.at(lin, qi[diag], qc[diag])  # repeats add up in file order
    pair = ~diag
    return QuboModel.from_triples(nv, lin, qi[pair], qj[pair], qc[pair], base_constant=constant)
