"""Simulated annealing for QUBO models, digital-annealer style.

Each sweep evaluates the flip gain of every variable against a Metropolis
test at the current temperature, then flips exactly one accepting variable
chosen uniformly at random.  Sweeps with no acceptor grow an escape offset
that is subtracted from all gains until something accepts; any accepted flip
resets it.  Temperatures follow a geometric (default) or linear schedule.

Flip gains are computed from cached local fields: the objective part is
maintained over the sparse cut terms, the penalty part is reconstructed in
O(1) per variable from running chain sums.  This keeps sweeps linear in the
number of variables even though the squared penalties couple all pairs.

The sweeps run on numpy and consume each replica's MT19937 stream with a
fixed draw discipline: one uniform per variable per sweep, plus one to pick
among acceptors.  The uniforms are drawn from the stream in blocks, which hand
them out in the same order as scalar draws would; each block also carries a
band around the log of every draw.  The Metropolis test then compares
``-eff / t`` with the bands for all variables at once, and the scalar
``math.exp`` rule decides the rare draws that fall inside their band, so the
acceptor sets equal that scalar rule's exactly.  Between flips the engine
keeps the sign vector ``1 - 2 * bits`` and the signed chain memberships,
which a flip negates, and rebuilds the flip gains only after a flip: a sweep
with no acceptor changes no state they depend on.
Replica r of a solve seeds its stream from SHA-256 of (seed, r), making
replicas independent and the whole solve deterministic.  Every replica owns
its ``RandomState``, so solves share no state.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .qubo import QuboModel, energy

BATCH_SWEEPS = 1024  # most sweeps per batch
# fewest uniforms a replica draws at once: 32 KiB, because larger blocks
# raise peak memory and make the sweeps no faster
UNIFORM_BLOCK = 4096

# Half-width of a draw's log-domain band, relative to |log u| + 1: 64 times
# the error of a 1-ulp np.log plus a 1-ulp math.exp (2**-52 in the log
# domain).  tests/test_anneal.py checks np.log against math.log on the
# platform it runs on.
_BAND = 2.0 ** -46
_TINY = np.finfo(np.float64).tiny  # smallest normal double

# read only by perfbench/run.py:metadata, which records the engine that ran
HAVE_NUMBA = False


@dataclass
class AnnealConfig:
    """Solver parameters.

    ``temp_initial=None`` picks each replica's starting temperature as the
    maximum absolute flip gain of its initial state.  ``offset_increment``
    defaults to a tenth of the final temperature.  ``balanced_init`` starts
    replicas from a random balanced partition instead of uniform random bits
    (partition models only): part 1 of the bipartition model gets ceil(n/2)
    vertices, and the one-hot model's part sizes differ by at most one.
    """

    sweeps: int = 2000
    replicas: int = 1
    seed: int = 0
    temp_initial: float | None = None
    temp_final: float = 0.1
    schedule: str = "geometric"
    offset_increment: float | None = None
    time_limit: float | None = None
    balanced_init: bool = False
    trace_every: int = 0

    def __post_init__(self):
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be at least 1, got {self.sweeps}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be at least 1, got {self.replicas}")
        if self.temp_final <= 0:
            raise ValueError(f"final temperature must be positive, got {self.temp_final}")
        if self.temp_initial is not None and self.temp_initial <= 0:
            raise ValueError("initial temperature must be positive when given")
        if self.schedule not in ("geometric", "linear"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time limit must be positive when given")
        if self.trace_every < 0:
            raise ValueError(f"trace_every must be non-negative, got {self.trace_every}")


@dataclass
class SolveResult:
    best_bits: np.ndarray
    best_energy: float
    sweeps_done: int
    wall_time: float
    seed: int
    replica_id: int = 0
    flips: int = 0
    energy_trace: np.ndarray | None = None

    def to_json(self) -> str:
        return json.dumps({
            "bits": "".join(str(int(b)) for b in self.best_bits),
            "energy": self.best_energy,
            "sweeps": self.sweeps_done,
            "wall_time": self.wall_time,
            "seed": self.seed,
        })


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(eq=False)
class CompiledModel:
    """Flat arrays the sweeps run on: the model's read-only
    :attr:`~qubopart.qubo.QuboModel.objective_csr`, the symmetric CSR of its
    objective terms, plus per-variable chain membership lists, the model's
    ``ChainSet`` entries sorted by variable, with their penalty-weighted
    coefficients.
    """

    nv: int
    base_lin: np.ndarray
    csr_indptr: np.ndarray
    csr_rows: np.ndarray
    csr_cols: np.ndarray
    csr_data: np.ndarray
    rhs: np.ndarray
    mem_indptr: np.ndarray
    mem_var: np.ndarray
    mem_chain: np.ndarray
    mem_coeff: np.ndarray
    mem_lin: np.ndarray  # 2 * penalty * c per membership
    mem_const: np.ndarray  # penalty * c * c per membership

    def base_local_fields(self, bits: np.ndarray) -> np.ndarray:
        contrib = self.csr_data * bits[self.csr_cols]
        return self.base_lin + np.bincount(self.csr_rows, weights=contrib, minlength=self.nv)

    def all_deltas(self, bits: np.ndarray, base_lf: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Flip gain of every variable at the current state."""
        dlt = 1.0 - 2.0 * bits
        if len(self.mem_var):
            # the operations of _python_sweeps' gain rebuild in its order, so
            # t0 and the golden digests that pin it do not change
            contrib = self.mem_lin * dlt[self.mem_var] * (s - self.rhs)[self.mem_chain] \
                + self.mem_const
            chain_part = np.bincount(self.mem_var, weights=contrib, minlength=self.nv)
        else:
            chain_part = np.zeros(self.nv)
        return dlt * base_lf + chain_part


def compile_model(model: QuboModel) -> CompiledModel:
    """The model's arrays for the sweeps.

    The objective CSR is read from ``model.objective_csr``: the partition
    builders fill it from the graph's CSR, and other models derive it there
    once, by sorting.  Only the chain memberships are ordered here.
    """
    nv = model.num_vars
    indptr, rows, cols, data = model.objective_csr

    chains, p = model.chains, model.penalty
    morder = np.lexsort((chains.chain_id, chains.var_idx))
    mv, mg, mc = chains.var_idx[morder], chains.chain_id[morder], chains.coeffs[morder]
    mem_indptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(np.bincount(mv, minlength=nv), out=mem_indptr[1:])

    return CompiledModel(nv=nv, base_lin=model.base_linear.astype(np.float64),
                         csr_indptr=indptr, csr_rows=rows, csr_cols=cols,
                         csr_data=data, rhs=chains.rhs,
                         mem_indptr=mem_indptr, mem_var=mv, mem_chain=mg, mem_coeff=mc,
                         mem_lin=2.0 * p * mc, mem_const=p * mc * mc)


# ---------------------------------------------------------------------------
# Factored sweeps: log-domain Metropolis bands over block-drawn uniforms.


def _log_bands(us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bands ``(lo, hi)`` around ``log(us)`` for the log-domain Metropolis test.

    ``lo, hi = log(u) -/+ (|log u| + 1) * 2**-46``, computed as
    ``log(u) * (1 +/- 2**-46) -/+ 2**-46`` because ``log(u) <= 0``.  A draw
    below the smallest normal double, which from the MT19937 stream can only
    be 0.0, gets ``(-inf, inf)``: its threshold may be subnormal and so
    inexact, and the scalar rule decides it every time.
    """
    tiny = us.min(initial=1.0) < _TINY
    lg = np.log(np.where(us < _TINY, 1.0, us) if tiny else us)
    lo = np.multiply(lg, 1.0 + _BAND)
    lo -= _BAND
    hi = np.multiply(lg, 1.0 - _BAND, out=lg)
    hi += _BAND
    if tiny:
        lo[us < _TINY] = -np.inf
        hi[us < _TINY] = np.inf
    return lo, hi


class _BlockUniforms:
    """A replica's MT19937 uniforms, drawn from its ``RandomState`` in blocks,
    each draw with its log-domain band from :func:`_log_bands`.

    ``bands(n)`` and ``random_sample()`` hand out the same doubles in the same
    order as scalar ``rs.random_sample()`` calls would, because
    ``rs.random_sample(m)`` reads the stream exactly like m scalar calls.
    The buffer holds ``max(nv + 1, UNIFORM_BLOCK)`` draws, one sweep's at
    least; a refill keeps the unread tail, appends fresh draws and computes
    their bands once.  The views returned by ``bands(n)`` stay valid.
    """

    def __init__(self, rs: np.random.RandomState, nv: int):
        self._rs = rs
        self._size = max(nv + 1, UNIFORM_BLOCK)
        self._us = self._lo = self._hi = np.empty(0)
        self._pos = 0

    def _refill(self, need: int) -> None:
        pos = self._pos
        fresh = self._rs.random_sample(max(self._size, need) - (len(self._us) - pos))
        lo, hi = _log_bands(fresh)
        self._us = np.concatenate((self._us[pos:], fresh))
        self._lo = np.concatenate((self._lo[pos:], lo))
        self._hi = np.concatenate((self._hi[pos:], hi))
        self._pos = 0

    def random_sample(self):
        """The next draw."""
        if self._pos == len(self._us):
            self._refill(1)
        pos = self._pos
        self._pos = pos + 1
        return self._us[pos]

    def bands(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next ``n`` draws and their bands, as views ``(us, lo, hi)``."""
        if self._pos + n > len(self._us):
            self._refill(n)
        pos = self._pos
        end = self._pos = pos + n
        return self._us[pos:end], self._lo[pos:end], self._hi[pos:end]


def _acceptors(deltas: np.ndarray, offset: float, t: float, us: np.ndarray,
               lo: np.ndarray, hi: np.ndarray, y: np.ndarray, sure: np.ndarray,
               maybe: np.ndarray) -> np.ndarray:
    """Indices i passing the scalar Metropolis rule
    ``eff <= 0 or us[i] < math.exp(-eff / t)`` with ``eff = deltas[i] - offset``.

    The test runs in the log domain on ``y = eff / -t``: ``y > hi[i]`` passes
    the scalar rule for sure, ``y < lo[i]`` fails it for sure (see
    :func:`_log_bands`), and the scalar rule itself decides the draws in
    between.  ``y``, ``sure`` and ``maybe`` are scratch arrays of
    ``len(deltas)``.
    """
    if offset == 0.0:  # x - 0.0 == x bit for bit
        np.divide(deltas, -t, out=y)  # x / -t == -x / t exactly
    else:
        np.divide(np.subtract(deltas, offset, out=y), -t, out=y)
    np.greater_equal(y, lo, out=maybe)
    maybes = maybe.nonzero()[0]
    if len(maybes) == 0:
        return maybes
    np.greater(y, hi, out=sure)
    accepted = sure.nonzero()[0]
    if len(accepted) == len(maybes):
        return accepted
    for i in maybes.tolist():
        if not sure[i]:
            eff = deltas[i] - offset
            sure[i] = eff <= 0.0 or us[i] < math.exp(-eff / t)
    return sure.nonzero()[0]


def _python_sweeps(cm: CompiledModel, bits, base_lf, s, temps, offset, offset_inc,
                   cur_energy, best_energy, best_bits, draws, trace, trace_every,
                   sweeps_before):
    """Run ``len(temps)`` sweeps in place.

    ``draws`` is the replica's :class:`_BlockUniforms`.  Between flips the
    sweep keeps the sign vector ``dl = 1 - 2 * bits`` and the signed
    memberships ``mem_lin * dl[mem_var]``; a flip negates variable i's
    entries of both, which is exact.  The flip gains
    ``dl * base_lf + sum(2*penalty*c*dl*(s - rhs) + penalty*c*c)`` are rebuilt
    from them with a fixed sequence of operations, which the golden digests
    pin.  They are a pure function of ``(bits, base_lf, s)``, so a sweep with
    no acceptor leaves them valid for the next one.
    """
    nv = cm.nv
    bands, pick = draws.bands, draws.random_sample
    # a memoryview indexes to Python ints, which slice faster than numpy
    # scalars, and unlike tolist() costs nothing per variable
    csr_ptr, mem_ptr = memoryview(cm.csr_indptr), memoryview(cm.mem_indptr)
    csr_cols, csr_data = cm.csr_cols, cm.csr_data
    mem_var, mem_chain, mem_coeff = cm.mem_var, cm.mem_chain, cm.mem_coeff
    rhs, mem_const = cm.rhs, cm.mem_const
    dl = 1.0 - 2.0 * bits
    mld = cm.mem_lin * dl[mem_var]
    sr, chain_gain = np.empty(len(s)), np.empty(len(mem_var))
    deltas, y = np.empty(nv), np.empty(nv)
    sure, maybe = np.empty(nv, dtype=bool), np.empty(nv, dtype=bool)
    stale = True
    flips = 0
    for sw, t in enumerate(temps.tolist()):
        if t < 1e-300:
            t = 1e-300
        us, lo, hi = bands(nv)
        if stale:
            # the operations and their order are what the golden digests pin
            np.subtract(s, rhs, out=sr)
            np.multiply(mld, sr[mem_chain], out=chain_gain)
            np.add(chain_gain, mem_const, out=chain_gain)
            np.multiply(dl, base_lf, out=deltas)
            np.add(deltas, np.bincount(mem_var, chain_gain, nv), out=deltas)
            stale = False
        acceptors = _acceptors(deltas, offset, t, us, lo, hi, y, sure, maybe)
        if len(acceptors):
            i = int(acceptors[int(pick() * len(acceptors))])
            cur_energy = cur_energy + deltas[i]
            row = slice(csr_ptr[i], csr_ptr[i + 1])
            mrow = slice(mem_ptr[i], mem_ptr[i + 1])
            # x - d == x + d * -1.0 exactly: this is base_lf += data * dlt
            if bits[i]:
                base_lf[csr_cols[row]] -= csr_data[row]
                s[mem_chain[mrow]] -= mem_coeff[mrow]
                bits[i] = 0
            else:
                base_lf[csr_cols[row]] += csr_data[row]
                s[mem_chain[mrow]] += mem_coeff[mrow]
                bits[i] = 1
            dl[i] = -dl[i]
            seg = mld[mrow]
            np.negative(seg, out=seg)
            stale = True
            offset = 0.0
            flips += 1
            if cur_energy < best_energy:
                best_energy = cur_energy
                best_bits[:] = bits
        else:
            offset = offset + offset_inc
        if trace_every > 0 and (sweeps_before + sw + 1) % trace_every == 0:
            trace[(sweeps_before + sw + 1) // trace_every - 1] = best_energy
    return offset, cur_energy, best_energy, flips


def _greedy_fill(need: np.ndarray, chain: np.ndarray, var_idx: np.ndarray,
                 weights: np.ndarray, bits: np.ndarray) -> None:
    """Set slack bits ``var_idx`` of ``chain`` to sum close to ``need[chain]``.

    Each chain takes its bits greedily, largest weight first (ties in entry
    order); one pass per rank decides that rank's bit in every chain.
    """
    order = np.lexsort((-weights, chain))
    chain, var_idx, weights = chain[order], var_idx[order], weights[order]
    rank = np.arange(len(chain)) - np.searchsorted(chain, chain)
    remaining = need.copy()
    for r in range(int(rank.max(initial=-1)) + 1):
        at = np.flatnonzero(rank == r)
        take = at[weights[at] <= remaining[chain[at]]]
        bits[var_idx[take]] = 1
        remaining[chain[take]] -= weights[take]


def _balanced_initial_bits(model: QuboModel, rs: np.random.RandomState) -> np.ndarray:
    ind = model.indicators
    if ind is None or model.k is None:
        raise ValueError("balanced initialization requires a model with an indicator layout")
    bits = np.zeros(model.num_vars, dtype=np.int8)
    n, k = len(ind), model.k
    perm = rs.permutation(n)
    if ind.shape[1] == 1:  # bipartition layout: part 1 gets ceil(n/2)
        bits[ind[perm[:-(-n // 2)], 0]] = 1
    else:  # position pos goes to part pos*k//n, so part sizes differ by at most one
        bits[ind[perm, np.arange(n) * k // n]] = 1
    # a balance chain ends in its slack bits, still 0 here, so the slack
    # must make up rhs minus the part size
    ch = model.chains
    slack = ch.var_idx >= ind.size
    _greedy_fill(ch.rhs - ch.sums(bits), ch.chain_id[slack], ch.var_idx[slack],
                 ch.coeffs[slack], bits)
    return bits


def _temperature_schedule(cfg: AnnealConfig, t0: float) -> np.ndarray:
    tf = min(cfg.temp_final, t0)
    steps = np.arange(cfg.sweeps, dtype=np.float64) / cfg.sweeps
    if cfg.schedule == "geometric":
        return t0 * (tf / t0) ** steps
    return t0 + (tf - t0) * steps


def _batch_size(time_left: float, sweep_s: float) -> int:
    """Sweeps for the next batch under a time limit.

    The batch fills half the time left at the measured rate, so the limit
    holds even when the machine slows down mid-batch and the final batch is
    a single sweep; one sweep while no rate has been measured.
    """
    if sweep_s <= 0.0:
        return 1
    return int(min(BATCH_SWEEPS, max(1.0, 0.5 * time_left / sweep_s)))


def solve(model: QuboModel, cfg: AnnealConfig | None = None) -> SolveResult:
    """Anneal the model, best assignment over all replicas.

    Deterministic for a fixed config whenever the time limit does not bind.
    Under a time limit the sweeps run in batches sized from the measured time
    per sweep, so at any model size a solve ends about one sweep after the
    limit, or after its compile and replica set-up if those alone exceed it.
    The reported energy is recomputed from the final bits, so it matches
    :func:`qubopart.qubo.energy` exactly.
    """
    cfg = cfg or AnnealConfig()
    start = time.perf_counter()
    if model.num_vars == 0:
        return SolveResult(best_bits=np.zeros(0, dtype=np.int8), best_energy=model.constant,
                           sweeps_done=0, wall_time=0.0, seed=cfg.seed)

    cm = compile_model(model)
    nv = cm.nv
    best_bits = None
    best_energy = math.inf
    best_replica = 0
    best_flips = 0
    best_sweeps = 0
    best_trace: np.ndarray | None = None
    deadline = None if cfg.time_limit is None else start + cfg.time_limit
    sweep_s = 0.0  # measured seconds per sweep of the latest batch

    for replica in range(cfg.replicas):
        init_rs = np.random.RandomState(_derive_seed(cfg.seed, replica, "init"))
        if cfg.balanced_init:
            bits = _balanced_initial_bits(model, init_rs)
        else:
            bits = (init_rs.random_sample(nv) < 0.5).astype(np.int8)
        base_lf = cm.base_local_fields(bits)
        s = model.chains.sums(bits)
        cur_energy = energy(model, bits)

        if cfg.temp_initial is not None:
            t0 = cfg.temp_initial
        else:
            t0 = float(np.max(np.abs(cm.all_deltas(bits, base_lf, s)))) if nv else 1.0
            if t0 <= 0.0:
                t0 = 1.0
        temps = _temperature_schedule(cfg, t0)
        offset_inc = cfg.offset_increment if cfg.offset_increment is not None \
            else cfg.temp_final / 10.0

        sweep_seed = _derive_seed(cfg.seed, replica, "sweeps")
        draws = _BlockUniforms(np.random.RandomState(sweep_seed), nv)
        rep_best_bits = bits.copy()
        rep_best_energy = cur_energy
        offset = 0.0
        flips = 0
        done = 0
        trace = np.zeros(cfg.sweeps // cfg.trace_every if cfg.trace_every else 0)
        timed_out = False

        while done < cfg.sweeps and not timed_out:
            called = time.perf_counter()
            size = BATCH_SWEEPS if deadline is None else _batch_size(deadline - called, sweep_s)
            batch = temps[done:done + size]
            offset, cur_energy, rep_best_energy, f = _python_sweeps(
                cm, bits, base_lf, s, batch, offset, offset_inc, cur_energy,
                rep_best_energy, rep_best_bits, draws, trace, cfg.trace_every, done)
            now = time.perf_counter()
            sweep_s = (now - called) / len(batch)
            flips += f
            done += len(batch)
            timed_out = deadline is not None and now > deadline

        if rep_best_energy < best_energy:
            best_energy = rep_best_energy
            best_bits = rep_best_bits
            best_replica = replica
            best_flips = flips
            best_sweeps = done
            if cfg.trace_every:
                best_trace = trace[:done // cfg.trace_every]
        if timed_out:
            break

    assert best_bits is not None
    exact = energy(model, best_bits)
    return SolveResult(best_bits=best_bits, best_energy=exact, sweeps_done=best_sweeps,
                       wall_time=time.perf_counter() - start, seed=cfg.seed,
                       replica_id=best_replica, flips=best_flips, energy_trace=best_trace)
