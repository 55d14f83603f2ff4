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

Two engines produce bit-identical results: a compiled kernel (numba, an
optional dependency) and a numpy engine that runs when numba is absent.  Both
consume the same MT19937 stream with the same draw discipline (one uniform
per variable per sweep, plus one to pick among acceptors), so results are
reproducible across engines and platforms.  The numpy engine makes the
Metropolis test for all variables at once with ``np.exp`` and re-decides the
rare draws within a few ulps of their threshold with the scalar
``math.exp`` rule, so its acceptor sets equal the kernel's exactly.
Replica r of a solve seeds its stream from SHA-256 of (seed, r), making
replicas independent and the whole solve deterministic.  Solves are not
reentrant: run them one at a time per process.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # numba is an optional extra; the numpy engine runs without it
    numba = None
    HAVE_NUMBA = False

from .qubo import INDICATOR, SLACK, QuboModel, energy

BATCH_SWEEPS = 1024  # most sweeps per engine call

# np.exp (AVX-512 build, numpy 2.4) and math.exp (glibc) differed by at most
# 1 ulp over 1.2e7 arguments in [-745, 0], the range of -eff/t.  A draw
# closer to its threshold than this window, 4 ulps relative plus a floor that
# covers subnormal thresholds, is re-decided with math.exp.
# tests/test_anneal.py checks the bound on the platform it runs on.
_EXP_REL_WINDOW = 2.0 ** -50
_EXP_ABS_WINDOW = 2.0 ** -1072


@dataclass
class AnnealConfig:
    """Solver parameters.

    ``temp_initial=None`` picks each replica's starting temperature as the
    maximum absolute flip gain of its initial state.  ``offset_increment``
    defaults to a tenth of the final temperature.  ``balanced_init`` starts
    replicas from a random partition with ceil(n/k) vertices per part instead
    of uniform random bits (partition models only).
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
    engine: str = "auto"  # "auto" | "numba" | "python"
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
        if self.engine not in ("auto", "numba", "python"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time limit must be positive when given")


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


def _coalesce(nv: int, qi: np.ndarray, qj: np.ndarray, qc: np.ndarray):
    if not len(qi):
        return qi, qj, qc
    keys = qi * np.int64(nv) + qj
    order = np.argsort(keys, kind="stable")
    keys, qi, qj, qc = keys[order], qi[order], qj[order], qc[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
    return qi[starts], qj[starts], np.add.reduceat(qc, starts)


@dataclass(eq=False)
class CompiledModel:
    """Flat arrays the sweep engines run on: symmetric CSR of the objective
    terms plus per-variable chain membership lists."""

    model: QuboModel
    nv: int
    base_lin: np.ndarray
    csr_indptr: np.ndarray
    csr_rows: np.ndarray
    csr_cols: np.ndarray
    csr_data: np.ndarray
    pen: np.ndarray
    rhs: np.ndarray
    mem_indptr: np.ndarray
    mem_var: np.ndarray
    mem_chain: np.ndarray
    mem_coeff: np.ndarray
    mem_lin: np.ndarray  # 2 * pen[g] * c per membership
    mem_const: np.ndarray  # pen[g] * c * c per membership

    def base_local_fields(self, bits: np.ndarray) -> np.ndarray:
        contrib = self.csr_data * bits[self.csr_cols]
        return self.base_lin + np.bincount(self.csr_rows, weights=contrib, minlength=self.nv)

    def chain_sums(self, bits: np.ndarray) -> np.ndarray:
        return np.asarray([float(ch.coeffs @ bits[ch.var_idx]) for ch in self.model.chains])

    def all_deltas(self, bits: np.ndarray, base_lf: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Flip gain of every variable at the current state."""
        dlt = 1.0 - 2.0 * bits
        if len(self.mem_var):
            # same operations in the same order as the kernel's
            # 2*pen*c*dlt*(s - rhs) + pen*c*c, so the gains are bit-identical
            contrib = self.mem_lin * dlt[self.mem_var] * (s - self.rhs)[self.mem_chain] \
                + self.mem_const
            chain_part = np.bincount(self.mem_var, weights=contrib, minlength=self.nv)
        else:
            chain_part = np.zeros(self.nv)
        return dlt * base_lf + chain_part


def compile_model(model: QuboModel) -> CompiledModel:
    nv = model.num_vars
    qi, qj, qc = _coalesce(nv, model.base_quad_i, model.base_quad_j, model.base_quad_c)
    rows = np.concatenate([qi, qj]).astype(np.int64)
    cols = np.concatenate([qj, qi]).astype(np.int64)
    data = np.concatenate([qc, qc])
    order = np.lexsort((cols, rows))
    rows, cols, data = rows[order], cols[order], data[order]
    indptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nv), out=indptr[1:])

    ng = len(model.chains)
    pen = np.asarray([ch.penalty for ch in model.chains], dtype=np.float64)
    rhs = np.asarray([ch.rhs for ch in model.chains], dtype=np.float64)
    if ng:
        mv = np.concatenate([ch.var_idx for ch in model.chains])
        mg = np.concatenate([np.full(len(ch.var_idx), g, dtype=np.int64)
                             for g, ch in enumerate(model.chains)])
        mc = np.concatenate([ch.coeffs for ch in model.chains])
        morder = np.lexsort((mg, mv))
        mv, mg, mc = mv[morder], mg[morder], mc[morder]
    else:
        mv = np.empty(0, dtype=np.int64)
        mg = np.empty(0, dtype=np.int64)
        mc = np.empty(0, dtype=np.float64)
    mem_indptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(np.bincount(mv, minlength=nv), out=mem_indptr[1:])

    return CompiledModel(model=model, nv=nv, base_lin=model.base_linear.astype(np.float64),
                         csr_indptr=indptr, csr_rows=rows, csr_cols=cols.astype(np.int64),
                         csr_data=data, pen=pen, rhs=rhs, mem_indptr=mem_indptr,
                         mem_var=mv, mem_chain=mg, mem_coeff=mc,
                         mem_lin=2.0 * pen[mg] * mc, mem_const=pen[mg] * mc * mc)


# ---------------------------------------------------------------------------
# Factored sweep engines (python and numba), sharing one draw discipline.


def _metropolis_accept(eff: np.ndarray, us: np.ndarray, t: float) -> np.ndarray:
    """Mask of variables passing ``eff[i] <= 0 or us[i] < math.exp(-eff[i] / t)``.

    One vector test decides almost every variable: with ``eff <= 0`` the
    threshold is exactly 1.0, which every draw in [0, 1) passes.  Draws
    within the ``np.exp``/``math.exp`` disagreement window of their
    threshold are re-decided with the scalar rule itself.
    """
    thr = np.exp(np.maximum(eff, 0.0) / -t)  # x / -t == -x / t exactly
    accept = us < thr
    for i in np.flatnonzero(np.abs(us - thr) <= thr * _EXP_REL_WINDOW + _EXP_ABS_WINDOW):
        accept[i] = eff[i] <= 0.0 or us[i] < math.exp(-eff[i] / t)
    return accept


def _python_sweeps(cm: CompiledModel, bits, base_lf, s, temps, offset, offset_inc,
                   cur_energy, best_energy, best_bits, rng, trace, trace_every,
                   sweeps_before):
    flips = 0
    for sw in range(len(temps)):
        t = temps[sw]
        if t < 1e-300:
            t = 1e-300
        us = rng.random_sample(cm.nv)
        deltas = cm.all_deltas(bits, base_lf, s)
        acceptors = np.flatnonzero(_metropolis_accept(deltas - offset, us, t))
        if len(acceptors):
            r = rng.random_sample()
            i = int(acceptors[int(r * len(acceptors))])
            d = deltas[i]
            dlt = 1.0 - 2.0 * bits[i]
            cur_energy = cur_energy + d
            bits[i] = 1 - bits[i]
            row = slice(cm.csr_indptr[i], cm.csr_indptr[i + 1])
            base_lf[cm.csr_cols[row]] += cm.csr_data[row] * dlt
            mrow = slice(cm.mem_indptr[i], cm.mem_indptr[i + 1])
            s[cm.mem_chain[mrow]] += cm.mem_coeff[mrow] * dlt
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


if HAVE_NUMBA:

    @numba.njit(cache=True)
    def _numba_sweeps(bits, base_lf, s, pen, rhs, mem_indptr, mem_chain, mem_coeff,
                      csr_indptr, csr_cols, csr_data, temps, offset, offset_inc,
                      cur_energy, best_energy, best_bits, delta_buf, accept_buf,
                      seed, do_seed, trace, trace_every, sweeps_before):
        if do_seed:
            np.random.seed(seed)
        nv = bits.shape[0]
        flips = 0
        ti = 0
        if trace_every > 0:
            ti = sweeps_before // trace_every
        for sw in range(temps.shape[0]):
            t = temps[sw]
            if t < 1e-300:
                t = 1e-300
            us = np.random.random(nv)
            cnt = 0
            for i in range(nv):
                dlt = 1.0 - 2.0 * bits[i]
                acc = 0.0
                for p in range(mem_indptr[i], mem_indptr[i + 1]):
                    g = mem_chain[p]
                    c = mem_coeff[p]
                    acc += 2.0 * pen[g] * c * dlt * (s[g] - rhs[g]) + pen[g] * c * c
                d = dlt * base_lf[i] + acc
                delta_buf[i] = d
                eff = d - offset
                if eff <= 0.0:
                    accept_buf[cnt] = i
                    cnt += 1
                elif us[i] < math.exp(-eff / t):
                    accept_buf[cnt] = i
                    cnt += 1
            if cnt > 0:
                r = np.random.random()
                i = accept_buf[int(r * cnt)]
                d = delta_buf[i]
                dlt = 1.0 - 2.0 * bits[i]
                cur_energy = cur_energy + d
                bits[i] = 1 - bits[i]
                for p in range(csr_indptr[i], csr_indptr[i + 1]):
                    base_lf[csr_cols[p]] += csr_data[p] * dlt
                for p in range(mem_indptr[i], mem_indptr[i + 1]):
                    s[mem_chain[p]] += mem_coeff[p] * dlt
                offset = 0.0
                flips += 1
                if cur_energy < best_energy:
                    best_energy = cur_energy
                    for q in range(nv):
                        best_bits[q] = bits[q]
            else:
                offset = offset + offset_inc
            if trace_every > 0 and (sweeps_before + sw + 1) % trace_every == 0:
                trace[ti] = best_energy
                ti += 1
        return offset, cur_energy, best_energy, flips


def _greedy_fill(value: float, weights: list[tuple[int, float]], bits: np.ndarray) -> None:
    """Set slack bits (greedy, largest weight first) to sum close to value."""
    remaining = value
    for idx, w in sorted(weights, key=lambda t: -t[1]):
        if w <= remaining:
            bits[idx] = 1
            remaining -= w


def _balanced_initial_bits(model: QuboModel, rs: np.random.RandomState) -> np.ndarray:
    if model.var_map is None or model.k is None or model.n is None:
        raise ValueError("balanced initialization requires a model with variable roles")
    bits = np.zeros(model.num_vars, dtype=np.int8)
    n, k = model.n, model.k
    per_part = -(-n // k)
    perm = rs.permutation(n)
    indicators: list[tuple[int, int, int]] = []
    slacks: dict[int, list[tuple[int, float]]] = {}  # part -> (variable, weight)
    for idx, r in enumerate(model.var_map):
        if r.kind == INDICATOR:
            indicators.append((idx, r.vertex, r.part))
        else:
            slacks.setdefault(r.part, []).append((idx, r.weight))
    if len(indicators) == n:  # one indicator per vertex: bipartition layout
        var_of = {v: idx for idx, v, _ in indicators}
        for v in perm[:per_part]:
            bits[var_of[int(v)]] = 1
    else:
        var_of = {(v, p): idx for idx, v, p in indicators}
        for pos, v in enumerate(perm):
            bits[var_of[(int(v), min(pos // per_part, k - 1))]] = 1
    for ch in model.chains:
        # a balance chain ends in its part's slack bits, still 0 here, so its
        # residual is the part size minus rhs
        last = model.var_map[ch.var_idx[-1]]
        if last.kind == SLACK:
            _greedy_fill(-ch.residual(bits), slacks[last.part], bits)
    return bits


def _temperature_schedule(cfg: AnnealConfig, t0: float) -> np.ndarray:
    tf = min(cfg.temp_final, t0)
    steps = np.arange(cfg.sweeps, dtype=np.float64) / cfg.sweeps
    if cfg.schedule == "geometric":
        return t0 * (tf / t0) ** steps
    return t0 + (tf - t0) * steps


def _batch_size(time_left: float, sweep_s: float) -> int:
    """Sweeps for the next engine call under a time limit.

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

    use_numba = cfg.engine == "numba" or (cfg.engine == "auto" and HAVE_NUMBA)
    if cfg.engine == "numba" and not HAVE_NUMBA:
        raise RuntimeError("numba engine requested but numba is not importable")

    cm = compile_model(model)
    nv = cm.nv
    best_bits = None
    best_energy = math.inf
    best_replica = 0
    best_flips = 0
    best_sweeps = 0
    best_trace: np.ndarray | None = None
    deadline = None if cfg.time_limit is None else start + cfg.time_limit
    sweep_s = 0.0  # measured seconds per sweep of the latest engine call

    for replica in range(cfg.replicas):
        init_rs = np.random.RandomState(_derive_seed(cfg.seed, replica, "init"))
        if cfg.balanced_init:
            bits = _balanced_initial_bits(model, init_rs)
        else:
            bits = (init_rs.random_sample(nv) < 0.5).astype(np.int8)
        base_lf = cm.base_local_fields(bits)
        s = cm.chain_sums(bits)
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
        rng = np.random.RandomState(sweep_seed)
        rep_best_bits = bits.copy()
        rep_best_energy = cur_energy
        offset = 0.0
        flips = 0
        done = 0
        trace = np.zeros(cfg.sweeps // cfg.trace_every if cfg.trace_every else 0)
        delta_buf = np.zeros(nv, dtype=np.float64)
        accept_buf = np.zeros(nv, dtype=np.int64)
        timed_out = False

        while done < cfg.sweeps and not timed_out:
            called = time.perf_counter()
            size = BATCH_SWEEPS if deadline is None else _batch_size(deadline - called, sweep_s)
            batch = temps[done:done + size]
            if use_numba:
                offset, cur_energy, rep_best_energy, f = _numba_sweeps(
                    bits, base_lf, s, cm.pen, cm.rhs, cm.mem_indptr, cm.mem_chain,
                    cm.mem_coeff, cm.csr_indptr, cm.csr_cols, cm.csr_data, batch,
                    offset, offset_inc, cur_energy, rep_best_energy, rep_best_bits,
                    delta_buf, accept_buf, sweep_seed, done == 0, trace,
                    cfg.trace_every, done)
            else:
                offset, cur_energy, rep_best_energy, f = _python_sweeps(
                    cm, bits, base_lf, s, batch, offset, offset_inc, cur_energy,
                    rep_best_energy, rep_best_bits, rng, trace, cfg.trace_every, done)
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
