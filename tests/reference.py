"""Expanded-form reference semantics of the solver's single-flip primitives.

These operate on the fully expanded quadratic form of a model
(``QuboModel.quadratic_terms``) rather than on the factored form the solver
runs on, so the tests can check the solver's flip gains, incremental updates
and sweep rule against an independent derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qubopart.qubo import QuboModel


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
    acceptors = [i for i in range(nv)
                 if eff[i] <= 0.0 or us[i] < math.exp(-min(eff[i], 700.0 * t) / t)]
    if not acceptors:
        return -1, offset + offset_increment
    pick = acceptors[int(rng.random_sample() * len(acceptors))]
    apply_flip(nbrs, bits, pick, local_field)
    return pick, 0.0
