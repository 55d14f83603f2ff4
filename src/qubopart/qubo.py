"""QUBO models for balanced k-way graph partitioning.

A model is ``constant + sum_i linear_i a_i + sum_{i<j} quad_ij a_i a_j`` over
binary variables ``a``.  Partitioning models are assembled from two kinds of
pieces:

* objective terms that count cut edges (via the Laplacian quadratic form,
  which on 0/1 indicators reduces to per-edge terms), and
* squared penalty chains ``P * (sum_t c_t a_t - rhs)^2`` enforcing one-hot
  and balance constraints, with capped binary slack variables turning
  inequalities into equalities.

Chains are kept in factored form; the expanded pairwise coefficients are
available on demand and are exact (integers stay integers for integer P).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graph import Graph, balance_bounds

# Expanding a penalty chain over v variables materializes v*(v-1)/2 pairs, so
# dense-chain models grow quadratically.  Refuse beyond this many pairs.
MAX_EXPANSION_TERMS = 20_000_000

INDICATOR = "indicator"
SLACK = "slack"


@dataclass(frozen=True)
class VarRole:
    """What a model variable means: a vertex-part indicator or a slack bit."""

    kind: str
    vertex: int = -1
    part: int = -1
    weight: int = 0  # slack only: its coefficient in the part's balance chain


@dataclass(eq=False)
class PenaltyChain:
    """Factored squared penalty ``penalty * (coeffs . a[var_idx] - rhs)^2``.

    ``var_idx`` must be strictly increasing so pair expansion emits
    upper-triangular terms directly.
    """

    var_idx: np.ndarray
    coeffs: np.ndarray
    rhs: float
    penalty: float

    def __post_init__(self):
        self.var_idx = np.asarray(self.var_idx, dtype=np.int64)
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.var_idx.shape != self.coeffs.shape:
            raise ValueError("chain index and coefficient arrays differ in length")
        if len(self.var_idx) > 1 and not np.all(np.diff(self.var_idx) > 0):
            raise ValueError("chain variable indices must be strictly increasing")

    def residual(self, bits: np.ndarray) -> float:
        return float(self.coeffs @ bits[self.var_idx] - self.rhs)


@dataclass(eq=False)
class QuboModel:
    """Binary quadratic model: objective terms plus penalty chains.

    ``base_*`` fields hold the raw objective; :attr:`linear`,
    :attr:`constant` and :meth:`quadratic_terms` fold the chains in.
    ``var_map`` records each variable's role (None for models read from
    generic QUBO text, which cannot be decoded back into partitions).
    """

    num_vars: int
    base_linear: np.ndarray
    base_quad_i: np.ndarray
    base_quad_j: np.ndarray
    base_quad_c: np.ndarray
    base_constant: float = 0.0
    chains: list[PenaltyChain] = field(default_factory=list)
    var_map: tuple[VarRole, ...] | None = None
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

    @property
    def linear(self) -> np.ndarray:
        """Per-variable linear coefficients with all chains folded in."""
        lin = self.base_linear.copy()
        for ch in self.chains:
            # (sum c a - r)^2 contributes c_t * (c_t - 2r) per variable
            np.add.at(lin, ch.var_idx, ch.penalty * ch.coeffs * (ch.coeffs - 2.0 * ch.rhs))
        return lin

    @property
    def constant(self) -> float:
        return self.base_constant + sum(ch.penalty * ch.rhs ** 2 for ch in self.chains)

    def expansion_size(self) -> int:
        """Number of raw pair terms the full expansion would materialize."""
        total = len(self.base_quad_c)
        for ch in self.chains:
            v = len(ch.var_idx)
            total += v * (v - 1) // 2
        return total

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
            qc.append(2.0 * ch.penalty * ch.coeffs[ti] * ch.coeffs[tj])
        i = np.concatenate(qi)
        j = np.concatenate(qj)
        c = np.concatenate(qc)
        if not len(i):
            return i, j, c
        keys = i * np.int64(self.num_vars) + j
        order = np.argsort(keys, kind="stable")
        keys, i, j, c = keys[order], i[order], j[order], c[order]
        boundaries = np.flatnonzero(np.diff(keys)) + 1
        starts = np.concatenate(([0], boundaries))
        coeff = np.add.reduceat(c, starts)
        i, j = i[starts], j[starts]
        keep = coeff != 0.0
        return i[keep], j[keep], coeff[keep]

    def quadratic_dict(self) -> dict[tuple[int, int], float]:
        qi, qj, qc = self.quadratic_terms()
        return {(int(a), int(b)): float(v) for a, b, v in zip(qi, qj, qc)}

    def num_terms(self) -> int:
        """Nonzero coefficient count in the expanded form (linear + quadratic)."""
        qi, _, _ = self.quadratic_terms()
        return int(np.count_nonzero(self.linear)) + len(qi)

    def energy(self, bits: np.ndarray) -> float:
        return energy(self, bits)


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
    for ch in model.chains:
        e += ch.penalty * ch.residual(a) ** 2
    return e


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


def _cut_objective_arrays(g: Graph, parts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Laplacian quadratic form terms per part block, for indicator layout i*parts+j.

    Each edge {u,v} in part j contributes w*(a_u + a_v - 2 a_u a_v) with
    w = 1 for a bipartition indicator and w = 1/2 per part for one-hot k-way
    (summing the per-part forms double counts each cut edge).
    """
    nv = g.n * parts
    weight = 1.0 if parts == 1 else 0.5
    lin = np.zeros(nv, dtype=np.float64)
    if g.m == 0:
        empty = np.empty(0, dtype=np.int64)
        return lin, empty, empty, np.empty(0, dtype=np.float64)
    ea = g.edge_array
    offsets = np.arange(parts, dtype=np.int64)
    ui = (ea[:, 0, None] * parts + offsets).ravel()
    vi = (ea[:, 1, None] * parts + offsets).ravel()
    np.add.at(lin, ui, weight)
    np.add.at(lin, vi, weight)
    qc = np.full(len(ui), -2.0 * weight, dtype=np.float64)
    # u < v guarantees ui < vi within a part block
    return lin, ui, vi, qc


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


def _balance_chain(part_vars: np.ndarray, part: int, lo: int, hi: int, first_slack: int,
                   penalty: float) -> tuple[PenaltyChain, list[VarRole]]:
    """Chain ``sum(part_vars) + slack = hi`` whose slack spans exactly hi - lo.

    Every slack coefficient is positive and the slack sums to at most
    hi - lo, so this one chain bounds the part size from both sides.  The
    slack bits are numbered from ``first_slack`` and follow the indicators in
    the chain; equal bounds give an equality chain with no slack.
    """
    weights = encode_slack_weights(hi - lo)
    slack_vars = first_slack + np.arange(len(weights), dtype=np.int64)
    chain = PenaltyChain(np.concatenate([part_vars, slack_vars]),
                         np.concatenate([np.ones(len(part_vars)), np.asarray(weights, float)]),
                         float(hi), penalty)
    return chain, [VarRole(SLACK, part=part, weight=w) for w in weights]


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
    lin, qi, qj, qc = _cut_objective_arrays(g, 1)

    roles = [VarRole(INDICATOR, vertex=i, part=1) for i in range(g.n)]
    chain, slack_roles = _balance_chain(np.arange(g.n, dtype=np.int64), 1, lo, hi, g.n, p)
    roles += slack_roles
    nv = len(roles)
    lin = np.concatenate([lin, np.zeros(nv - g.n)])
    return QuboModel(num_vars=nv, base_linear=lin, base_quad_i=qi, base_quad_j=qj,
                     base_quad_c=qc, chains=[chain], var_map=tuple(roles),
                     penalty=p, k=2, epsilon=float(epsilon), n=g.n)


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
    lin, qi, qj, qc = _cut_objective_arrays(g, k)

    roles = [VarRole(INDICATOR, vertex=i, part=j) for i in range(g.n) for j in range(k)]
    chains = []
    for i in range(g.n):
        idx = i * k + np.arange(k, dtype=np.int64)
        chains.append(PenaltyChain(idx, np.ones(k), 1.0, p))
    for j in range(k):
        part_vars = np.arange(j, g.n * k, k, dtype=np.int64)
        chain, slack_roles = _balance_chain(part_vars, j, lo, hi, len(roles), p)
        chains.append(chain)
        roles += slack_roles

    nv = len(roles)
    lin = np.concatenate([lin, np.zeros(nv - g.n * k)])
    return QuboModel(num_vars=nv, base_linear=lin, base_quad_i=qi, base_quad_j=qj,
                     base_quad_c=qc, chains=chains, var_map=tuple(roles),
                     penalty=p, k=k, epsilon=float(epsilon), n=g.n)


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

    The result has no variable roles or partition metadata, so it can be
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
