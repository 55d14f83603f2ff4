"""Simulated annealing for QUBO models, digital-annealer style.

Each sweep evaluates the flip gain of every variable against a Metropolis
test at the current temperature, then flips exactly one accepting variable
chosen uniformly at random.  Sweeps with no acceptor grow an escape offset
that is subtracted from all gains until something accepts; any accepted flip
resets it.  Temperatures fall geometrically from t0 to the final temperature.

Flip gains are computed from cached local fields: the objective part is
maintained over the sparse cut terms, the penalty part is reconstructed in
O(1) per variable from running chain sums.  This keeps sweeps linear in the
number of variables even though the squared penalties couple all pairs.
Each replica is one :class:`_Replica`, which the sweeps update in place.  It
builds its start state (local fields, chain sums and energy) in one pass
over the objective rows and chain memberships of its set bits, as a flip
updates them from its own row: a balanced one-hot start sets n of n*k
indicators, so the pass reads about 1/k of the objective.  It equals the
all-rows sums and :func:`~qubopart.qubo.energy` bit for bit.  It derives
its gain terms and binds its gain rebuild once, and holds the escape
offset and the best state seen.

The sweeps are a driver and a trial.  The driver, :func:`_python_sweeps`,
runs the temperatures, the escape offset, the current and best energies,
the trace and the deadline.  The trial, :func:`_da_trial`, is the digital
annealer's rule: a Metropolis test of every variable at once, one uniform
pick among the acceptors, and the flip.  It runs on numpy arrays and Python
scalars, tells the driver per sweep only the energy change of its flip or
that nothing accepted, and consumes the replica's MT19937 stream with a
fixed draw discipline: one uniform per variable per sweep, plus one to pick
among acceptors.  The uniforms are drawn from the stream in blocks, which
the trial reads in the same order as scalar draws would; each block also
carries a band around the log of every draw, computed once per refill over
the unread draws it keeps and the fresh ones together.  The Metropolis test
then compares ``-eff / t`` with the bands for all variables at once, and the
scalar ``math.exp`` rule decides the rare draws that fall inside their band,
so the acceptor sets equal that scalar rule's exactly.

The chain memberships are stored as jagged diagonals: layer q holds the
q-th membership of every variable that has one, in variable order, so the
chain gains of all variables sum with one whole-array add per layer; a
replica's start gains are summed so.  After a flip there are two paths,
chosen once per model by :func:`compile_model`.  On a model whose sums are
exact (:func:`_exact_sums`: every partition model the builders make at an
integer or half-integer penalty), the flip updates only the gains it
changes, its own, its objective row's and its chains' members'; an exact
sum is the same in any order, so they equal a rebuild bit for bit, and the
energy the driver tracks by adding flip gains equals
:func:`~qubopart.qubo.energy`.  On any other model the trial rebuilds all
the gains at the next trial after a flip.  Either way a sweep with no
acceptor changes no state the gains depend on, and the next sweep can then
be ruled idle without its array test when the least gain cannot reach any
of its draws' bands.
Between flips the replica keeps ``dl = 1 - 2 * bits``, ``dl * base_lf``, the
chain residuals ``s - rhs`` and the signed memberships; a flip updates its own
entries of these, adds its sign times its objective row to the local fields
and times its chain coefficients to the chain sums, one update for either
direction, as Python scalars through memoryviews: the same double
operations numpy would do without numpy's cost per call.  Objective rows
longer than ``_SCALAR_ROW_MAX`` take numpy updates instead, and so do the
exact gain updates of longer chains: a slice for a run of consecutive
variables, index arrays for any other chain.
Replica r of a solve seeds its init and sweep streams from SHA-256 of
(seed, r, "init") and (seed, r, "sweeps"), making replicas independent and
the whole solve deterministic.  Each worker of a solve constructs one
``RandomState`` and reseeds it with ``rs.seed`` for each stream in turn: the
legacy seeding that ``RandomState(x)`` runs after seeding itself from OS
entropy, which costs far more.  Solves share no state.

A solve splits its replicas across one process per usable CPU, at most one
per replica, through :func:`_fork_map`: the calling process and children
made with ``os.fork``, which inherit the compiled model and send back only
their best replica.  The sparsify pipeline splits its repeats and the bench
grid its cells through the same map, and each repeat's or cell's solve
forks onto the CPUs its worker's share leaves it, so nested maps fill the
CPUs and no more.  The sweeps are Python loops that hold the interpreter
lock, so threads would run them one at a time.  Which replica runs where
changes no draw, so the result does not depend on the number of workers.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import os
import pickle
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import BinaryIO, NoReturn, TypeVar

import numpy as np

from .qubo import QuboModel, _energy_of, energy

BATCH_SWEEPS = 1024  # temperatures computed at once
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


def _check_integer(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an int or numpy
    integer; a float would otherwise reach a ``range`` as a bare TypeError."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass
class AnnealConfig:
    """Solver parameters.

    Temperatures fall geometrically from the starting temperature to
    ``temp_final`` over ``sweeps`` sweeps (:func:`_temperatures`).
    ``temp_initial=None`` picks each replica's starting temperature as the
    maximum absolute flip gain of its initial state.  The escape offset grows
    by a tenth of ``temp_final`` per sweep without an acceptor.
    ``balanced_init`` starts replicas from a random balanced partition
    instead of uniform random bits (partition models only): part 1 of the
    bipartition model gets ceil(n/2) vertices, and the one-hot model's part
    sizes differ by at most one.
    """

    sweeps: int = 2000
    replicas: int = 1
    seed: int = 0
    temp_initial: float | None = None
    temp_final: float = 0.1
    time_limit: float | None = None
    balanced_init: bool = False
    trace_every: int = 0

    def __post_init__(self):
        for name in ("sweeps", "replicas", "trace_every"):
            _check_integer(name, getattr(self, name))
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be at least 1, got {self.sweeps}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be at least 1, got {self.replicas}")
        # a chained "0 < x < inf" is false for NaN as well
        if not (0 < self.temp_final < math.inf):
            raise ValueError(f"final temperature must be finite and positive, "
                             f"got {self.temp_final}")
        if self.temp_initial is not None and not (0 < self.temp_initial < math.inf):
            raise ValueError(f"initial temperature must be finite and positive when given, "
                             f"got {self.temp_initial}")
        if self.time_limit is not None and not (0 < self.time_limit < math.inf):
            raise ValueError(f"time limit must be finite and positive when given, "
                             f"got {self.time_limit}")
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


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(eq=False)
class CompiledModel:
    """Flat arrays the sweeps run on: the model's read-only
    :attr:`~qubopart.qubo.QuboModel.objective_csr`, the symmetric CSR of its
    objective terms, plus the chain memberships laid out as jagged diagonals.

    Layer q of the memberships holds the q-th membership, in chain-id order,
    of every variable that has one, at the slots ``mem_off[q]:mem_off[q + 1]``
    in variable order.  Layer 0 spans all variables, slot ``i`` for variable
    ``i``; a variable without memberships has a pad slot there: chain 0,
    coefficient 0.0, so its chain gain is ``+0.0``.  Layer q >= 1 holds only
    the variables ``mem_at[q - 1]`` with more than q memberships, a slice
    when they are consecutive, an index array otherwise, so there are at most
    ``nv`` slots more than memberships however the counts are spread.
    Variable i's slots are ``mem_slot[mem_indptr[i]:mem_indptr[i + 1]]``,
    layer by layer.  ``mem_var`` is the model's ``chains.var_idx``, one entry
    per membership, and ``chain_slot`` the slot of each, so chain g's members
    are ``mem_var[a:b]`` at the slots ``chain_slot[a:b]``, with
    ``a, b = chain_ptr[g], chain_ptr[g + 1]``.  ``chain_run[g]`` says its
    members are the consecutive variables ``mem_var[a]`` on, each at its
    layer-0 slot, which is the variable itself.

    ``exact`` says every sum the sweeps and :func:`~qubopart.qubo.energy`
    form over the model is exact, see :func:`_exact_sums`.
    """

    nv: int
    base_lin: np.ndarray
    csr_indptr: np.ndarray
    csr_cols: np.ndarray
    csr_data: np.ndarray
    rhs: np.ndarray
    mem_var: np.ndarray
    mem_indptr: np.ndarray
    mem_slot: np.ndarray
    mem_off: tuple[int, ...]  # layer q holds the slots mem_off[q]:mem_off[q + 1]
    mem_at: tuple[slice | np.ndarray, ...]  # the variables of layers 1, 2, ...
    mem_chain: np.ndarray
    mem_coeff: np.ndarray
    mem_lin: np.ndarray  # 2 * penalty * c per slot
    mem_const: np.ndarray  # penalty * c * c per slot
    chain_ptr: np.ndarray
    chain_slot: np.ndarray
    chain_run: np.ndarray
    exact: bool


def _exact_sums(model: QuboModel, layers: int) -> bool:
    """Whether every sum the sweeps and :func:`~qubopart.qubo.energy` form
    over ``model``, whose variables have at most ``layers`` chain
    memberships each, is exact, in whatever order it is added.

    The sums are exact when every value of the model (``base_linear``, the
    objective CSR, the chain coefficients, ``rhs``, ``penalty`` and
    ``base_constant``) is a multiple of ``2**-m`` and ``4 * bound < 2**(52 -
    3m)``: each term is then a multiple of ``2**-(3m + 1)`` (a chain gain
    multiplies three values) and every partial sum is below ``2 * bound``,
    so it has at most 53 significant bits.  ``bound`` adds the largest
    possible objective and chain energies and a bound on a variable's chain
    gains; energies, gains, their terms and the sweeps' partial sums all lie
    within twice it.  ``m`` is the largest the bound allows, which tests
    every value at once, and a model needing ``m < 0`` is not exact.  A
    broadcast CSR value is tested once.

    A ``base_constant`` of ``-0.0`` fails too: it is the only start from
    which an energy could sum to ``-0.0``, which the sweeps' own sums,
    started at a ``+0.0`` gain, never reach.
    """
    data = model.objective_csr[2]
    ch, p, bc = model.chains, model.penalty, float(model.base_constant)
    if bc == 0.0 and math.copysign(1.0, bc) < 0.0:
        return False
    values = data[:1] if data.strides == (0,) else data  # one value, broadcast
    data_abs = float(np.abs(values).sum()) * (len(data) if values is not data else 1)
    coeff_abs = np.abs(ch.coeffs)
    chain_abs = np.abs(ch.rhs)
    filled = ch.indptr[1:] > ch.indptr[:-1]  # reduceat would read an empty chain's next entry
    if filled.any():
        chain_abs[filled] += np.add.reduceat(coeff_abs, ch.indptr[:-1][filled])
    cmax, chain_max = float(coeff_abs.max(initial=0.0)), float(chain_abs.max(initial=0.0))
    bound = (abs(bc) + float(np.abs(model.base_linear).sum()) + data_abs
             + p * (float((chain_abs * chain_abs).sum()) + 2.0 * cmax
                    + 3.0 * layers * cmax * chain_max))
    if not 4.0 * bound < 2.0 ** 52:  # also false for NaN
        return False
    scale = 2.0 ** ((52 - math.frexp(4.0 * bound)[1]) // 3)

    def whole(x) -> bool:
        y = np.multiply(x, scale)
        return bool(np.array_equal(y, np.floor(y)))

    return all(whole(x) for x in (p, bc, ch.rhs, values, ch.coeffs, model.base_linear))


def compile_model(model: QuboModel) -> CompiledModel:
    """The model's arrays for the sweeps.

    The objective CSR is read from ``model.objective_csr``, which every model
    stores: the partition builders fill it from the graph's CSR and
    :meth:`~qubopart.qubo.QuboModel.from_triples` sorts triples into it.
    Only the chain memberships are laid out here, and whether the model's
    sums are exact is decided here, once.
    """
    nv = model.num_vars
    indptr, cols, data = model.objective_csr

    chains, p = model.chains, model.penalty
    var = chains.var_idx
    morder = np.lexsort((chains.chain_id, var))
    mv = var[morder]
    mem_indptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(np.bincount(mv, minlength=nv), out=mem_indptr[1:])
    rank = np.arange(len(mv)) - mem_indptr[mv]  # layer of each membership
    sizes = np.bincount(rank)[1:].tolist()  # memberships of layers 1, 2, ...
    off = tuple(itertools.accumulate([nv] + sizes, initial=0)) if len(mv) else (0,)
    exact = _exact_sums(model, len(off) - 1)
    # layer 0 is indexed by variable; the later layers hold just their
    # memberships, in (layer, variable) order; deep lists them in chain order
    deep = morder[np.lexsort((mv, rank))[rank.size - sum(sizes):]]
    chain_slot = var.copy()
    chain_slot[deep] = np.arange(nv, nv + len(deep))
    at = []
    for a, b in zip(off[1:], off[2:]):
        v = var[deep[a - nv:b - nv]]
        at.append(slice(int(v[0]), int(v[-1]) + 1) if v[-1] - v[0] == b - a - 1 else v)
    mg = np.zeros(off[-1], dtype=np.int64)
    mg[chain_slot] = chains.chain_id
    mc = np.zeros(off[-1])
    mc[chain_slot] = chains.coeffs

    # a chain is a run when its last member is its first plus its length
    # less one and none of its members lies past layer 0; the flips never
    # ask about an empty chain
    ptr = chains.indptr
    run = np.zeros(len(chains), dtype=bool)
    if len(var):
        first, last = var[np.minimum(ptr[:-1], len(var) - 1)], var[np.maximum(ptr[1:] - 1, 0)]
        run = last - first == np.diff(ptr) - 1
        run[chains.chain_id[deep]] = False
    return CompiledModel(nv=nv, base_lin=model.base_linear, csr_indptr=indptr,
                         csr_cols=cols, csr_data=data, rhs=chains.rhs, mem_var=var,
                         mem_indptr=mem_indptr, mem_slot=chain_slot[morder], mem_off=off,
                         mem_at=tuple(at), mem_chain=mg, mem_coeff=mc, mem_lin=2.0 * p * mc,
                         mem_const=p * mc * mc, chain_ptr=ptr, chain_slot=chain_slot,
                         chain_run=run, exact=exact)


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of the entries of CSR rows ``rows``, row after row."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    firsts = np.cumsum(lengths) - lengths  # where each row's entries begin in the result
    return np.repeat(starts - firsts, lengths) + np.arange(lengths.sum())


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

    The sweeps read the draws ``us`` and their bands ``lo``, ``hi`` from
    position ``pos`` on, store the position they reached back in ``pos``, and
    call :meth:`refill` at the start of a sweep when fewer than ``nv + 1``
    are left, one sweep's draws and the acceptor pick's.  They read the same
    doubles in the same order as scalar ``rs.random_sample()`` calls would,
    because ``rs.random_sample(m)`` reads the stream exactly like m scalar
    calls.  The buffer holds ``max(nv + 1, UNIFORM_BLOCK)`` draws, so a
    refill leaves one sweep's and a pick's at least.  A refill joins the
    unread draws to the fresh ones with one concatenation and bands the
    whole block with one :func:`_log_bands` call: a band depends on its draw
    alone, so the kept draws get the bands they had.
    """

    def __init__(self, rs: np.random.RandomState, nv: int):
        self._rs = rs
        self._size = max(nv + 1, UNIFORM_BLOCK)
        self.us = self.lo = self.hi = np.empty(0)
        self.pos = 0

    def refill(self, pos: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Keep the draws from ``pos`` on, append fresh ones to fill the
        buffer, band them all, and restart at position 0.
        Returns the new ``(us, lo, hi)``."""
        us = self._rs.random_sample(self._size - (len(self.us) - pos))
        if pos < len(self.us):  # keep the unread draws
            us = np.concatenate((self.us[pos:], us))
        self.us = us
        self.lo, self.hi = _log_bands(us)
        self.pos = 0
        return self.us, self.lo, self.hi


def _gain_rebuild(cm: CompiledModel, dlf: np.ndarray, mld: np.ndarray, sr: np.ndarray):
    """A no-argument function that writes the flip gain of every variable,
    ``dl * base_lf + sum(2*penalty*c*dl*(s - rhs) + penalty*c*c)`` over its
    memberships, into one array of its own and returns it, from the terms
    of a :class:`_Replica` as they are when it runs.

    The arrays, the layer-0 view and each later layer's variables and
    slots are bound here once, so a call pays only for its numpy
    operations.  A variable's chain gains are summed layer by layer, its
    first membership's first, which equals summing them from ``+0.0`` one
    membership at a time: no chain gain is ``-0.0`` (``penalty >= 0``), and
    a pad slot adds ``+0.0``.  The operations and their order are what the
    golden digests pin, through t0 and every sweep.
    """
    add, out = np.add, np.empty(cm.nv)
    off = cm.mem_off
    if len(off) == 1:  # no chains: the chain gains sum to +0.0
        return lambda: add(dlf, 0.0, out=out)
    multiply, mem_chain, mem_const = np.multiply, cm.mem_chain, cm.mem_const
    chain_gain = np.empty(len(mld))
    total = chain_gain[:cm.nv]  # layer 0, which spans every variable
    layers = [(at, chain_gain[a:b]) for at, a, b in zip(cm.mem_at, off[1:], off[2:])]

    def rebuild() -> np.ndarray:
        multiply(mld, sr[mem_chain], out=chain_gain)
        add(chain_gain, mem_const, out=chain_gain)
        for at, layer in layers:
            total[at] += layer  # the variables of a layer are distinct
        return add(dlf, total, out=out)

    return rebuild


class _Replica:
    """One replica's state, which the driver and the trial of
    :func:`_python_sweeps` update in place.

    ``bits`` is the replica's own array.  Its local fields ``base_lf``,
    chain sums ``s`` and ``energy`` come from the objective rows and chain
    memberships of its set bits only.  The CSR is symmetric, so the set
    rows, taken in ascending order, add to local field i the same terms in
    the same order as row i's set columns would; the terms left out are the
    ``±0.0`` that a clear bit contributes, and adding one never changes a
    sum that started at ``+0.0``.  The chain sums get each set bit's
    coefficients in ascending variable order, as
    :meth:`~qubopart.qubo.ChainSet.sums` adds them, and the energy sums the
    same pair terms as :func:`~qubopart.qubo.energy`, so all three equal the
    all-rows values bit for bit.

    The flip gains are made of ``dl = 1 - 2 * bits``, ``dlf = dl * base_lf``,
    the signed memberships ``mld = mem_lin * dl[variable]`` of every slot
    and the chain residuals ``sr = s - rhs``.  One :func:`_gain_rebuild` is
    bound to them as ``rebuild`` and run once for the start ``gains``.
    The trial flips ``bits`` and updates the gain terms.  On an exact model
    (``cm.exact``) it updates ``gains`` in place too, and they never lag;
    on any other it sets ``stale`` while the gains lag a flip, and runs
    ``rebuild`` before the next trial.  The driver keeps the escape offset
    ``offset``, the current ``energy``, and ``best_bits`` and
    ``best_energy``, the lowest state seen.
    """

    def __init__(self, model: QuboModel, cm: CompiledModel, bits: np.ndarray):
        on = np.flatnonzero(bits)
        at = _row_entries(cm.csr_indptr, on)
        cols, data = cm.csr_cols[at], cm.csr_data[at]
        self.base_lf = cm.base_lin + np.bincount(cols, weights=data, minlength=cm.nv)
        # the set bits' membership slots, variable after variable, layer by layer
        mem = cm.mem_slot[_row_entries(cm.mem_indptr, on)]
        # over no memberships bincount returns int64
        s = np.bincount(cm.mem_chain[mem], weights=cm.mem_coeff[mem],
                        minlength=len(cm.rhs)).astype(np.float64, copy=False)
        self.cm, self.bits, self.s = cm, bits, s
        self.energy = self.best_energy = _energy_of(model, on, data[bits[cols] != 0], s)
        self.best_bits = bits.copy()
        del at, cols, data, mem  # half the objective on a random start: freed for the gain terms
        self.dl = dl = 1.0 - 2.0 * bits
        self.dlf = dl * self.base_lf
        slot_dl = [dl[layer] for layer in cm.mem_at]
        self.mld = cm.mem_lin * (np.concatenate([dl, *slot_dl]) if len(cm.mem_off) > 1 else dl[:0])
        self.sr = s - cm.rhs
        self.rebuild = _gain_rebuild(cm, self.dlf, self.mld, self.sr)
        self.gains = self.rebuild()
        self.offset, self.stale = 0.0, False


# A flip updates objective rows of up to this many entries one scalar at a
# time, longer ones with numpy fancy-index updates: the scalar loop costs
# about 0.3-0.4 us + 0.12-0.15 us an entry, the fancy-index update 1.0-2.0 us
# whatever its length, so they cross at 6-10 entries (numpy 2.4, x86-64)
_SCALAR_ROW_MAX = 8

# The idle-sweep bound takes the floors of at most this many coming sweeps at
# once: a flip voids them, and on a small model a buffer holds a thousand
# sweeps' draws, so taking them all after every idle sweep that follows a
# flip costs more than the sweeps they skip
_FLOOR_SWEEPS = 32


def _sweep_floors(lo: np.ndarray, pos: int, nv: int, count: int) -> list[float]:
    """The least ``lo`` of each of ``count`` sweeps whose draws start at ``pos``."""
    return lo[pos:pos + count * nv].reshape(count, nv).min(axis=1).tolist()


def _python_sweeps(rep: _Replica, temps, offset_inc, draws, trace, trace_every, deadline=None):
    """Run one sweep of the replica ``rep`` per temperature of the iterable
    ``temps``, in place, stopping early after the first sweep that ends past
    ``deadline``, a :func:`time.perf_counter` reading, if one is given.

    This is the driver.  Each sweep is one trial of the :func:`_da_trial`
    it binds to ``rep`` and ``draws``, the replica's :class:`_BlockUniforms`,
    for the whole call.  The driver sends the trial each temperature with
    the escape offset, which grows by ``offset_inc`` after a trial without
    an acceptor and returns to 0.0 after a flip.  It adds each flip's gain
    to the current energy, copies the bits to ``best_bits`` when that energy
    is strictly the lowest yet, and appends the best energy to the list
    ``trace`` after every ``trace_every``-th sweep of this call.  The offset
    and the current and best energies are read from the replica on entry
    and written back on exit, as the trial does with its own state, so a
    replica swept over several calls ends as one swept in one call.
    Returns the number of sweeps run and of flips made.
    """
    trial = _da_trial(rep, draws)
    send = trial.send
    send(None)  # binds the trial's locals
    bits, best_bits = rep.bits, rep.best_bits
    offset, cur_energy, best_energy = rep.offset, rep.energy, rep.best_energy
    perf_counter = time.perf_counter
    flips = sw = 0
    for sw, t in enumerate(temps, 1):
        gain = send((t, offset))
        if gain is None:
            offset = offset + offset_inc
        else:
            cur_energy = cur_energy + gain
            offset = 0.0
            flips += 1
            if cur_energy < best_energy:
                best_energy = cur_energy
                best_bits[:] = bits
        if trace_every and sw % trace_every == 0:
            trace.append(best_energy)
        if deadline is not None and perf_counter() > deadline:
            break
    trial.close()
    rep.offset, rep.energy, rep.best_energy = offset, cur_energy, best_energy
    return sw, flips


def _da_trial(rep: _Replica, draws: _BlockUniforms):
    """The digital annealer's trial on the replica ``rep``, as a generator:
    sent ``(t, offset)``, it runs one trial at temperature ``t`` with escape
    offset ``offset`` and yields the energy change of the flip it made, or
    ``None`` when no variable accepted.  Closing it writes back the replica's
    stale flag and the position reached in ``draws``.  A generator keeps the
    bound arrays and the trial's own state in fast locals from one trial to
    the next, where a closure would reach them through cells.

    A trial reads its ``nv`` draws and their bands straight from the draw
    buffer and tests every variable in the log domain:
    ``y = (gain - offset) / -t`` above the draw's band accepts, below it
    fails, and the scalar rule ``eff <= 0 or u < math.exp(-eff / t)``
    decides the draws inside it, so the acceptors are exactly that rule's.
    One acceptor, picked by one more draw, flips.
    On a model whose sums are exact, the flip updates the gains it changes
    in place: the flipped variable's gain ``g`` becomes ``0.0 - g`` (``-g``
    would make ``+0.0`` into ``-0.0``, which no rebuild gives), each entry
    of its objective row moves by its change in ``dl * base_lf``, and each
    member of each of its chains by its ``mld`` times the chain sum's step.
    Chains of up to ``_SCALAR_ROW_MAX`` members update one scalar at a
    time, runs of consecutive variables at their layer-0 slots through
    slices taken at their first update, and other chains through the
    compiled model's index arrays.  On any other model the gains are
    rebuilt at the next trial after a flip, by the replica's bound
    ``rebuild``, which reads the terms the flips update in place.  The gains
    are a pure function of ``(bits, base_lf, s)``, so a trial with no
    acceptor leaves them valid for the next one.  Then no ``y`` can exceed
    ``(least gain - offset) / -t``, because rounding is monotone, and a trial
    whose draws all have ``lo`` above that bound accepts nothing untested.
    Once a trial had no acceptor, :func:`_sweep_floors` takes the
    least ``lo`` of each coming trial whose draws are in the buffer, up to
    ``_FLOOR_SWEEPS`` of them, and takes them again when they run out; a
    flip, which changes the gains and reads one more draw, voids them and
    the least gain.

    A flip updates the entries of the replica's gain terms that it changes
    with the same double operations a rebuild would do, so they stay those
    a rebuild reads.
    A flip's own updates run on Python scalars, see the module docstring.
    The replica's arrays and the numpy functions of the band test are bound
    to the generator's locals once, so a trial or a flip pays for its numpy
    operations and not for looking them up.
    """
    cm = rep.cm
    nv = cm.nv
    # a memoryview indexes to Python ints and floats, which cost less than
    # numpy scalars, and unlike tolist() costs nothing per variable
    csr_ptr = memoryview(cm.csr_indptr)
    csr_cols, csr_data = cm.csr_cols, cm.csr_data
    cols_v, data_v = memoryview(csr_cols), memoryview(csr_data)
    mem_ptr, slot_v = memoryview(cm.mem_indptr), memoryview(cm.mem_slot)
    chain_v, coeff_v, rhs_v = memoryview(cm.mem_chain), memoryview(cm.mem_coeff), memoryview(cm.rhs)
    exact, mem_var, chain_slot = cm.exact, cm.mem_var, cm.chain_slot
    cptr_v, run_v = memoryview(cm.chain_ptr), memoryview(cm.chain_run)
    cvar_v, cslot_v = memoryview(mem_var), memoryview(chain_slot)
    row_max, floor_max = _SCALAR_ROW_MAX, _FLOOR_SWEEPS
    bits, base_lf, s, stale = rep.bits, rep.base_lf, rep.s, rep.stale
    dl, dlf, mld, sr, gains, rebuild = rep.dl, rep.dlf, rep.mld, rep.sr, rep.gains, rep.rebuild
    # bound per generator, not at import, so that a patched numpy function is seen
    divide, subtract, greater_equal, greater = np.divide, np.subtract, np.greater_equal, np.greater
    add, count_nonzero = np.add, np.count_nonzero
    y = np.empty(nv)
    sure, maybe = np.empty(nv, dtype=bool), np.empty(nv, dtype=bool)
    bits_v, lf_v, s_v, sr_v = memoryview(bits), memoryview(base_lf), memoryview(s), memoryview(sr)
    dl_v, dlf_v, mld_v = memoryview(dl), memoryview(dlf), memoryview(mld)
    gains_v = memoryview(gains)
    us, lo, hi, pos = draws.us, draws.lo, draws.hi, draws.pos
    us_v, end = memoryview(us), len(us)
    run_views = {}  # a run chain's slices of gains and mld, taken at its first update
    least = None  # the least gain, once a trial without acceptors needs it
    floors, w = [], 0  # least lo of the coming trials' draws; the next trial's is floors[w]
    gain = None
    try:
        while True:
            t, offset = yield gain
            # floors taken before a refill stay valid: they are values of the same draws
            if pos + nv >= end:  # fewer left than the trial's draws and the pick's
                us, lo, hi = draws.refill(pos)
                pos, end, us_v = 0, len(us), memoryview(us)
            if stale:
                rebuild()
                stale = skip = False
            else:
                if least is not None and w >= len(floors):  # the floors ran out
                    floors, w = _sweep_floors(lo, pos, nv, min((end - pos) // nv, floor_max)), 0
                skip = w < len(floors) and (least - offset) / -t < floors[w]
            nxt = pos + nv
            acceptors = ()
            if not skip:
                if offset == 0.0:  # x - 0.0 == x bit for bit
                    divide(gains, -t, out=y)  # x / -t == -x / t exactly
                else:
                    divide(subtract(gains, offset, out=y), -t, out=y)
                greater_equal(y, lo[pos:nxt], out=maybe)
                acceptors = maybe.nonzero()[0]
                if len(acceptors):
                    greater(y, hi[pos:nxt], out=sure)
                    # hi >= lo, so sure is a subset of maybe
                    if count_nonzero(sure) != len(acceptors):
                        for i in acceptors.tolist():
                            if not sure[i]:
                                eff = gains_v[i] - offset
                                sure[i] = eff <= 0.0 or us_v[pos + i] < math.exp(-eff / t)
                        acceptors = sure.nonzero()[0]
            pos = nxt
            if not len(acceptors):
                gain = None
                w += 1
                if least is None:
                    least = float(gains.min())
                continue
            i = acceptors.item(int(us_v[pos] * len(acceptors)))
            pos += 1
            gain = gains_v[i]
            # d is +1.0 when bit i rises, -1.0 when it falls, and x + y * d
            # is x + y or x - y bit for bit
            d = dl_v[i]
            a, b = csr_ptr[i], csr_ptr[i + 1]
            if b - a > row_max:
                row = csr_cols[a:b]
                base_lf[row] += csr_data[a:b] * d
                lf = dl[row] * base_lf[row]
                if exact:
                    gains[row] += lf - dlf[row]
                dlf[row] = lf
            else:
                for j in range(a, b):
                    c = cols_v[j]
                    lf = lf_v[c] + data_v[j] * d
                    lf_v[c] = lf
                    lf = dl_v[c] * lf
                    if exact:
                        gains_v[c] += lf - dlf_v[c]
                    dlf_v[c] = lf
            for q in range(mem_ptr[i], mem_ptr[i + 1]):
                j = slot_v[q]
                g = chain_v[j]
                step = coeff_v[j] * d
                sg = s_v[g] + step
                s_v[g] = sg
                sr_v[g] = sg - rhs_v[g]
                mld_v[j] = -mld_v[j]
                if exact:  # each member's chain gain moves by its mld times the step
                    a, b = cptr_v[g], cptr_v[g + 1]
                    if b - a <= row_max:
                        for e in range(a, b):
                            gains_v[cvar_v[e]] += mld_v[cslot_v[e]] * step
                    elif run_v[g]:
                        views = run_views.get(g)
                        if views is None:
                            a, b = cvar_v[a], cvar_v[a] + b - a
                            views = run_views[g] = gains[a:b], mld[a:b]
                        add(views[0], views[1] * step, out=views[0])
                    else:
                        gains[mem_var[a:b]] += mld[chain_slot[a:b]] * step
            bits_v[i] = 1 - bits_v[i]
            dl_v[i] = -d
            dlf_v[i] = -dlf_v[i]  # the objective CSR has no diagonal
            if exact:
                gains_v[i] = 0.0 - gain  # 0.0 - x, unlike -x, is +0.0 for x = +0.0
            else:
                stale = True
            least, floors, w = None, [], 0
    finally:
        draws.pos, rep.stale = pos, stale


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


def _temperatures(cfg: AnnealConfig, t0: float) -> Iterator[float]:
    """The temperatures of the ``sweeps`` sweeps, lazily, as Python floats:
    sweep i runs at ``t0 * (tf / t0) ** (i / sweeps)`` with
    ``tf = min(temp_final, t0)``, floored at 1e-300 so that ``-eff / t``
    never divides by an underflowed zero.

    They are computed ``BATCH_SWEEPS`` at a time as the sweeps reach them,
    so a large ``sweeps`` costs nothing before the first sweep.  Each value
    is computed on its own, so any chunk size gives the same temperatures
    bit for bit.
    """
    tf, step = min(cfg.temp_final, t0), BATCH_SWEEPS

    def chunk(done: int) -> list[float]:
        i = np.arange(done, min(done + step, cfg.sweeps), dtype=np.float64)
        temps = t0 * (tf / t0) ** (i / cfg.sweeps)
        return np.maximum(temps, 1e-300, out=temps).tolist()

    return itertools.chain.from_iterable(map(chunk, range(0, cfg.sweeps, step)))


T = TypeVar("T")

# ``_budget.cpus``, where set, is how many CPUs a thread's fork maps may
# fill: a fork map gives its calling thread and its children the CPUs it
# leaves each worker.  So processes already side by side fork only onto
# CPUs nobody else uses.
# Per thread, so that solves in two threads of one process do not change
# each other's count.
_budget = threading.local()


def _usable_cpus() -> int:
    """CPUs this thread's fork maps may fill: its budget where one is set,
    otherwise every CPU this process may run on, and 1 where that set of
    CPUs cannot be read."""
    cpus = getattr(_budget, "cpus", None)
    if cpus is not None:
        return cpus
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _worker_count(items: int, cpus_each: int = 1) -> int:
    """Processes a fork map splits ``items`` across, when each item may itself
    fork onto ``cpus_each`` CPUs: as many as the usable CPUs hold at
    ``min(cpus_each, cpus)`` apiece, at least 1 and at most one per item."""
    cpus = _usable_cpus()
    return min(items, max(1, cpus // min(cpus_each, cpus)))


def _fork_map(share: Callable[[int], T], workers: int, items: int, noun: str) -> list[T]:
    """``[share(0), ..., share(workers - 1)]``, side by side.

    Share w covers items ``w, w + workers, ...`` of ``items``, which errors
    name as ``noun``.  Share 0 runs in the calling process, the others in
    children made with ``os.fork``, which inherit everything the share reads
    and write back only its pickled result on a pipe; with one worker
    nothing forks.  While the map runs, the calling thread and the children
    may fill ``cpus // workers`` of its usable CPUs each (at least 1; see
    :func:`_usable_cpus`), so a share forks workers of its own only onto
    CPUs the map leaves free.

    An exception in a child's share is raised again here, with the child's
    traceback text as its cause, or as a ``RuntimeError`` of its text when
    it does not survive pickling; a child that sends no result raises
    ``RuntimeError``.  An exception in the calling process's share kills the
    children.  Every child is reaped before the map returns or raises.  A
    child leaves through ``os._exit`` on every path, with exit code 0 only
    once it wrote its result, so it never returns into the caller, runs none
    of its ``finally`` blocks or exit handlers and flushes none of its
    buffers.
    """
    if workers == 1:
        return [share(0)]
    outer = getattr(_budget, "cpus", None)
    _budget.cpus = max(1, _usable_cpus() // workers)
    children: list[tuple[int, BinaryIO]] = []  # (pid, pipe) of workers 1, 2, ...
    payloads: list[bytes] = []  # what each child wrote, read to its end
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if not pid:
                _share_in_child(share, w, read_end, write_end)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        results = [share(0)]
        payloads = [pipe.read() for _, pipe in children]
    finally:
        _budget.cpus = outer
        for pid, pipe in children:
            pipe.close()
            if len(payloads) < len(children):  # the shares are no longer wanted
                import signal

                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]

    for w, payload, status in zip(range(1, workers), payloads, statuses):
        name = f"{noun} " + ", ".join(map(str, range(w, items, workers)))
        if status or not payload:
            raise RuntimeError(f"the worker process for {name} sent no result "
                               f"(exit code {os.waitstatus_to_exitcode(status)})")
        ok, *out = pickle.loads(payload)  # bytes only our own child wrote
        if not ok:
            exc, text = out
            raise exc from RuntimeError(f"in the worker process for {name}:\n{text}")
        results.append(out[0])
    return results


def _share_in_child(share: Callable[[int], object], w: int, read_end: int,
                    write_end: int) -> NoReturn:
    """The body of a fork map's child: run share w, write it back, exit."""
    status = 1
    try:
        os.close(read_end)
        try:
            out = (True, share(w))
        except BaseException as exc:
            import traceback

            text = traceback.format_exc()
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            out = (False, exc, text)
        with open(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(out))
        status = 0
    finally:
        os._exit(status)


def _run_share(model: QuboModel, cm: CompiledModel, cfg: AnnealConfig, first: int, step: int,
               deadline: float | None) -> tuple[SolveResult, bool]:
    """Run replicas ``first, first + step, ...`` of the solve, in order, and
    return the best of them with whether its best state is its start state.

    The best moves only to a strictly lower energy, so ties go to the lowest
    replica id.  The share stops after the first replica that ends past the
    deadline.
    """
    nv = cm.nv
    best: SolveResult | None = None
    rs = np.random.RandomState()  # reseeded per stream, see the module docstring
    for replica in range(first, cfg.replicas, step):
        rs.seed(_derive_seed(cfg.seed, replica, "init"))
        if cfg.balanced_init:
            bits = _balanced_initial_bits(model, rs)
        else:
            bits = (rs.random_sample(nv) < 0.5).astype(np.int8)
        rep = _Replica(model, cm, bits)
        start_energy = rep.energy

        if cfg.temp_initial is not None:
            t0 = cfg.temp_initial
        else:
            t0 = float(np.max(np.abs(rep.gains)))
            if t0 <= 0.0:
                t0 = 1.0

        rs.seed(_derive_seed(cfg.seed, replica, "sweeps"))
        trace: list[float] = []  # the best energy at every traced sweep
        done, flips = _python_sweeps(rep, _temperatures(cfg, t0), cfg.temp_final / 10.0,
                                     _BlockUniforms(rs, nv), trace, cfg.trace_every, deadline)

        if best is None or rep.best_energy < best.best_energy:
            best = SolveResult(
                best_bits=rep.best_bits, best_energy=rep.best_energy, sweeps_done=done,
                wall_time=0.0, seed=cfg.seed, replica_id=replica, flips=flips,
                energy_trace=np.array(trace, dtype=np.float64) if cfg.trace_every else None)
            # the best only moves to a strictly lower energy, so an unmoved
            # best holds the start bits, whose energy _Replica computed as
            # energy() does
            best_is_start = not rep.best_energy < start_energy
        if deadline is not None and time.perf_counter() > deadline:
            break
    assert best is not None
    return best, best_is_start


def solve(model: QuboModel, cfg: AnnealConfig | None = None) -> SolveResult:
    """Anneal the model, best assignment over all replicas.

    Deterministic for a fixed config whenever the time limit does not bind.
    The replicas are split across ``W = _worker_count(replicas)`` processes:
    worker w runs replicas ``w, w + W, ...`` in order, worker 0 in the
    calling process and the others in children forked from it (see
    :func:`_fork_map`); with ``W = 1`` nothing forks.  Every replica's
    streams derive from the seed and its id alone, so the replicas and the
    returned one do not depend on W: it is the one of strictly lowest
    energy, ties going to the lowest id.  An exception in a child's share is
    raised again here, and no child outlives the call.

    Each replica's sweeps run in one call of the sweep driver,
    :func:`_python_sweeps`, which reads the clock after every trial of its
    :func:`_da_trial`, so at any model size a worker stops
    right after the first sweep that ends past the limit and runs no further
    replica; it runs one sweep even when compiling the model and setting up a
    replica alone overran the limit.
    The reported energy equals :func:`qubopart.qubo.energy` of the returned
    bits exactly.  On a model whose sums are exact it is the best energy the
    sweep driver tracked, the start energy plus flip gains, all exact.  On
    any other model, when the returned replica's best never dropped below
    its start state, it is the start energy, which :class:`_Replica`
    computes with ``energy``'s arithmetic; otherwise ``energy`` recomputes
    it, the solve's one call of ``energy``.
    """
    cfg = cfg or AnnealConfig()
    start = time.perf_counter()
    if model.num_vars == 0:
        return SolveResult(best_bits=np.zeros(0, dtype=np.int8), best_energy=model.constant,
                           sweeps_done=0, wall_time=time.perf_counter() - start, seed=cfg.seed,
                           energy_trace=np.zeros(0) if cfg.trace_every else None)

    cm = compile_model(model)
    deadline = None if cfg.time_limit is None else start + cfg.time_limit
    workers = _worker_count(cfg.replicas)
    shares = _fork_map(lambda w: _run_share(model, cm, cfg, w, workers, deadline),
                       workers, cfg.replicas, "replicas")
    best, best_is_start = min(shares, key=lambda s: (s[0].best_energy, s[0].replica_id))
    if not (cm.exact or best_is_start):
        best.best_energy = energy(model, best.best_bits)
    best.wall_time = time.perf_counter() - start
    return best
