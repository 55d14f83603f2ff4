import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import qubopart.anneal as anneal
import qubopart.qubo as qubo
from qubopart.anneal import AnnealConfig, compile_model, solve
from qubopart.evaluate import decode
from qubopart.graph import Graph, cut_edges
from qubopart.qubo import (QuboModel, _coalesce, build_bipartition_qubo, build_kway_qubo, energy,
                           parse_qubo_text, write_qubo_text)

from conftest import (bipartition_optimum, gnp_graph, grid_graph, kway_optimum, planted_graph,
                      small_corpus)
from reference import apply_flip, delta_energy, expanded_neighbors, local_fields, sweep

def _one_worker(monkeypatch):
    """Run every solve's replicas in this process, where the spies count."""
    monkeypatch.setattr(anneal, "_worker_count", lambda replicas: 1)


def _random_models(seed=5):
    rng = np.random.RandomState(seed)
    g = gnp_graph(10, 0.4, rng)
    return [build_bipartition_qubo(g, 0.2), build_kway_qubo(g, 3, 0.25)], rng


def test_config_validation():
    nan, inf = math.nan, math.inf
    for kwargs in ({"sweeps": 0}, {"replicas": 0}, {"temp_final": 0.0},
                   {"temp_initial": -1.0},
                   {"trace_every": -1}, {"time_limit": 0.0},
                   {"temp_final": nan}, {"temp_final": inf},
                   {"temp_initial": nan}, {"temp_initial": inf},
                   {"time_limit": nan}, {"time_limit": inf}):
        with pytest.raises(ValueError):
            AnnealConfig(**kwargs)


def test_delta_energy_matches_recomputation():
    models, rng = _random_models()
    for model in models:
        for _ in range(5):
            bits = rng.randint(0, 2, size=model.num_vars).astype(np.int8)
            lf = local_fields(model, bits)
            e0 = energy(model, bits)
            for i in range(model.num_vars):
                flipped = bits.copy()
                flipped[i] = 1 - flipped[i]
                assert delta_energy(model, bits, i, lf) == pytest.approx(
                    energy(model, flipped) - e0, abs=1e-9)


def test_apply_flip_keeps_local_fields_current():
    models, rng = _random_models(6)
    for model in models:
        nbrs = expanded_neighbors(model)
        bits = rng.randint(0, 2, size=model.num_vars).astype(np.int8)
        lf = local_fields(model, bits, nbrs)
        for i in rng.randint(0, model.num_vars, size=40):
            apply_flip(nbrs, bits, int(i), lf)
        assert np.allclose(lf, local_fields(model, bits, nbrs), atol=1e-9)


def test_compiled_deltas_match_reference():
    models, rng = _random_models(7)
    for model in models:
        cm = compile_model(model)
        bits = rng.randint(0, 2, size=model.num_vars).astype(np.int8)
        lf = local_fields(model, bits)
        ref = np.array([delta_energy(model, bits, i, lf) for i in range(model.num_vars)])
        got = anneal._Replica(model, cm, bits).gains
        assert np.allclose(got, ref, atol=1e-9)


def _all_rows_fields(cm, bits):
    """Local fields summed over every objective row, a clear bit's entries
    adding ``±0.0``: the oracle of the set-row pass in ``_Replica``."""
    rows = np.repeat(np.arange(cm.nv), np.diff(cm.csr_indptr))
    contrib = cm.csr_data * bits[cm.csr_cols]
    return cm.base_lin + np.bincount(rows, weights=contrib, minlength=cm.nv)


def _start_state_models():
    """(name, model, has a balanced start) for the bit-for-bit start-state check."""
    rng = np.random.RandomState(23)
    g = gnp_graph(14, 0.35, rng)
    models = [(f"k2-eps{eps}", build_bipartition_qubo(g, eps), True) for eps in (0.0, 0.2)]
    models += [(f"k3-eps{eps}", build_kway_qubo(g, 3, eps), True) for eps in (0.0, 0.25)]
    models.append(("k3-penalty2.7", build_kway_qubo(g, 3, 0.25, penalty=2.7), True))
    nv = 30
    i = rng.randint(0, nv - 1, size=80)
    j = i + 1 + rng.randint(0, nv - 1 - i)
    c = rng.standard_normal(80) / 3.0
    c[:4] = [0.0, -0.0, 0.25, -0.25]
    i[:4], j[:4] = [3, 5, 7, 7], [4, 6, 8, 8]  # an exact zero, a signed zero, a pair summing to 0
    lin = rng.standard_normal(nv) / 7.0
    models.append(("chainless", QuboModel.from_triples(nv, lin, i, j, c, base_constant=0.3), False))
    rows = np.sort(np.array([rng.choice(nv, 6, replace=False) for _ in range(4)]), axis=1)
    chains = qubo.ChainSet.from_blocks((rows, rng.uniform(0.2, 2.3, rows.shape), 1.7))
    models.append(("noninteger", QuboModel.from_triples(nv, lin, i, j, c, base_constant=0.3,
                                                         chains=chains, penalty=1.9), False))
    models.append(("rising", _rising_count_model(nv, lin, i, j, c), False))
    models.append(("deep-tail", _deep_tail_model(nv, lin, i, j, c), False))
    return models


def _chained(nv, lin, i, j, c, rows, seed):
    """A model on the pair terms ``(i, j, c)`` with one chain over each of ``rows``."""
    rng = np.random.RandomState(seed)
    chains = qubo.ChainSet.from_blocks(*[(r[None, :], rng.uniform(0.2, 2.3, (1, len(r))), 1.7)
                                         for r in rows])
    return QuboModel.from_triples(nv, lin, i, j, c, chains=chains, penalty=0.45)


def _rising_count_model(nv, lin, i, j, c):
    """A model whose variables' membership counts rise, with gaps, over the
    variables, so every membership layer after the first holds scattered
    variables and the last one ends before the last variable."""
    rows = [np.arange(nv), np.arange(5, nv, 2), np.arange(11, nv - 3, 3), np.array([2, 20])]
    model = _chained(nv, lin, i, j, c, rows, 29)
    cm = compile_model(model)
    assert len(cm.mem_off) == 4 and cm.mem_off[-1] == len(model.chains.var_idx)  # no pads
    assert all(isinstance(at, np.ndarray) for at in cm.mem_at) and cm.mem_at[-1][-1] < nv - 1
    return model


def _deep_tail_model(nv, lin, i, j, c):
    """A model whose last variables are in many chains and two variables in
    none: its layers after the second hold two variables each, and it has
    only two slots more than memberships, the pads of the chainless two."""
    rows = [np.arange(nv - 8), np.arange(nv - 6, nv), np.arange(nv - 6, nv)]
    rows += [np.array([nv - 3, nv - 1])] * 12
    model = _chained(nv, lin, i, j, c, rows, 31)
    cm = compile_model(model)
    assert len(cm.mem_off) == 15 and cm.mem_off[-1] == len(model.chains.var_idx) + 2
    assert cm.mem_at[0] == slice(nv - 6, nv)
    assert all(at.tolist() == [nv - 3, nv - 1] for at in cm.mem_at[1:])
    return model


_START_MODELS = _start_state_models()


@pytest.mark.parametrize("model, balanced", [m[1:] for m in _START_MODELS],
                         ids=[m[0] for m in _START_MODELS])
def test_start_state_matches_all_rows_bit_for_bit(model, balanced):
    cm = compile_model(model)
    rng = np.random.RandomState(31)
    nv = model.num_vars
    states = [np.zeros(nv, dtype=np.int8), np.ones(nv, dtype=np.int8)]
    states += [(rng.random_sample(nv) < p).astype(np.int8) for p in (0.2, 0.5, 0.8)]
    if balanced:
        states += [anneal._balanced_initial_bits(model, rng) for _ in range(3)]
    for bits in states:
        rep = anneal._Replica(model, cm, bits)
        base_lf, s = rep.base_lf, rep.s
        assert base_lf.dtype == s.dtype == np.float64
        assert base_lf.tobytes() == _all_rows_fields(cm, bits).tobytes()
        assert s.tobytes() == model.chains.sums(bits).tobytes()
        assert rep.energy.hex() == rep.best_energy.hex() == energy(model, bits).hex()
        assert rep.best_bits.tobytes() == bits.tobytes() and rep.best_bits is not bits
        assert s.flags.writeable and base_lf.flags.writeable  # the sweeps update both


def test_solve_calls_energy_once(monkeypatch):
    # a best that moved is recounted once, on the returned bits; a best that
    # never left its start state reports the start energy with no call
    calls = []

    def counted(model, bits):
        calls.append(bits.copy())
        return energy(model, bits)

    monkeypatch.setattr(anneal, "energy", counted)
    moved = build_kway_qubo(gnp_graph(12, 0.4, np.random.RandomState(2)), 3, 0.2)
    # a short balanced solve of a planted 4-way model, as kway-planted runs:
    # every flip from the balanced start raises the energy
    unmoved = build_kway_qubo(planted_graph(200, 4, 8, 2, np.random.RandomState(3)), 4, 0.03)
    for model, cfg, want_calls in (
            (moved, AnnealConfig(sweeps=50, replicas=3, seed=4), 1),
            (unmoved, AnnealConfig(sweeps=20, replicas=2, seed=1, balanced_init=True), 0)):
        calls.clear()
        res = solve(model, cfg)
        rs = np.random.RandomState(anneal._derive_seed(cfg.seed, res.replica_id, "init"))
        start = (anneal._balanced_initial_bits(model, rs) if cfg.balanced_init
                 else (rs.random_sample(model.num_vars) < 0.5).astype(np.int8))
        assert len(calls) == want_calls
        if want_calls:
            assert np.array_equal(calls[0], res.best_bits)
            assert not np.array_equal(res.best_bits, start)
        else:
            assert res.flips > 0 and np.array_equal(res.best_bits, start)
        assert res.best_energy.hex() == energy(model, res.best_bits).hex()


def test_solve_constructs_one_random_state(monkeypatch):
    _one_worker(monkeypatch)
    # each replica reseeds the solve's one RandomState for its init and sweep
    # streams, which draw as RandomState(seed) would
    model = build_kway_qubo(gnp_graph(14, 0.4, np.random.RandomState(6)), 3, 0.2)
    cfgs = [AnnealConfig(sweeps=40, replicas=r, seed=9, balanced_init=b)
            for r in (1, 4) for b in (False, True)]
    want = [solve(model, cfg) for cfg in cfgs]
    made = []

    class Counted(np.random.RandomState):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(np.random, "RandomState", Counted)
    for cfg, exp in zip(cfgs, want):
        made.clear()
        res = solve(model, cfg)
        assert len(made) == 1
        assert np.array_equal(res.best_bits, exp.best_bits) and res.flips == exp.flips
        assert res.best_energy.hex() == exp.best_energy.hex()
        assert res.replica_id == exp.replica_id


_ENERGY_HEXES = """
import numpy as np
from qubopart.qubo import QuboModel, energy
rng = np.random.RandomState(0)
nv = 12024  # above the 10000 elements at which OpenBLAS threads a dot
i = np.arange(0, nv - 1, 2)
model = QuboModel.from_triples(nv, rng.standard_normal(nv) / 3.0, i, i + 1,
                               rng.standard_normal(len(i)) / 7.0, base_constant=0.1)
for p in (0.1, 0.5, 0.5, 0.9):
    print(energy(model, (rng.random_sample(nv) < p).astype(np.int8)).hex())
"""


def test_energy_does_not_depend_on_blas_threads():
    src = str(pathlib.Path(qubo.__file__).parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _ENERGY_HEXES], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        outs.append(run.stdout.split())
    assert len(outs[0]) == 4 and outs[0] == outs[1]


def test_compile_model_csr_in_lexsort_order():
    rng = np.random.RandomState(17)
    for nv in (1, 2, 9, 40):
        count = rng.randint(0, 3 * nv)
        i = rng.randint(0, nv, size=count)
        j = rng.randint(0, nv, size=count)
        keep = i < j  # repeats are kept: from_triples coalesces them
        c = rng.standard_normal(int(keep.sum()))
        model = QuboModel.from_triples(nv, rng.standard_normal(nv), i[keep], j[keep], c)
        cm = compile_model(model)
        qi, qj, qc = _coalesce(nv, i[keep], j[keep], c)
        rows, cols = np.concatenate([qi, qj]), np.concatenate([qj, qi])
        order = np.lexsort((cols, rows))
        assert np.array_equal(np.repeat(np.arange(nv), np.diff(cm.csr_indptr)), rows[order])
        assert np.array_equal(cm.csr_cols, cols[order])
        assert np.array_equal(cm.csr_data, np.concatenate([qc, qc])[order])
        assert np.array_equal(cm.csr_indptr, np.searchsorted(rows[order], np.arange(nv + 1)))


def test_compile_model_reads_the_builders_csr(monkeypatch):
    g = gnp_graph(12, 0.4, np.random.RandomState(3))
    models = [build_bipartition_qubo(g, 0.1), build_kway_qubo(g, 3, 0.1)]

    def refuse(*args, **kwargs):
        raise AssertionError("compile_model sorted the objective")

    for name in ("argsort", "sort"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(qubo, "_coalesce", refuse)
    for model in models:
        cm = compile_model(model)
        for got, want in zip((cm.csr_indptr, cm.csr_cols, cm.csr_data), model.objective_csr):
            assert got is want


def test_reference_sweep_flip_discipline():
    g = Graph.from_edges(2, [])
    model = build_bipartition_qubo(g, penalty=3.0)  # bounds (1, 1)
    nbrs = expanded_neighbors(model)
    bits = np.array([1, 0], dtype=np.int8)  # zero residual, strict local minimum
    lf = local_fields(model, bits, nbrs)
    rng = np.random.RandomState(0)

    # cold sweep at a strict local minimum: nothing accepts, offset grows
    flipped, offset = sweep(nbrs, bits, lf, 1e-9, rng, 0.0, 0.5)
    assert flipped == -1 and offset == 0.5
    assert list(bits) == [1, 0]

    # once the offset covers the uphill gain one variable flips and it resets
    for _ in range(20):
        flipped, offset = sweep(nbrs, bits, lf, 1e-9, rng, offset, 0.5)
        if flipped >= 0:
            break
    assert flipped >= 0 and offset == 0.0
    assert np.allclose(lf, local_fields(model, bits, nbrs))


def test_reference_sweep_matches_python_engine():
    """The sweeps follow the expanded-form reference rule sweep by sweep, on a
    cooling schedule that passes through flipping and escape sweeps.  The
    random models' objective rows take the scalar flip update, the dense
    ones' rows are longer than ``_SCALAR_ROW_MAX`` and take the numpy one."""
    models, _ = _random_models(8)
    dense = gnp_graph(24, 0.9, np.random.RandomState(8))
    models += [build_bipartition_qubo(dense, 0.2), build_kway_qubo(dense, 3, 0.25)]
    flips = set()  # (row longer than _SCALAR_ROW_MAX, new bit) of every flip
    for m, model in enumerate(models):
        cm = compile_model(model)
        long_row = np.diff(cm.csr_indptr) > anneal._SCALAR_ROW_MAX
        assert long_row.any() == (m >= 2)
        nbrs = expanded_neighbors(model)
        init = np.random.RandomState(3)
        bits_a = (init.random_sample(model.num_vars) < 0.5).astype(np.int8)
        rep = anneal._Replica(model, cm, bits_a.copy())
        lf = local_fields(model, bits_a, nbrs)
        cfg = AnnealConfig(sweeps=400, temp_final=0.05)
        temps = list(anneal._temperatures(cfg, 4.0))
        rng_a = np.random.RandomState(99)
        rng_b = anneal._BlockUniforms(np.random.RandomState(99), cm.nv)
        offset_a = 0.0
        escapes = 0
        for sw in range(cfg.sweeps):  # one sweep per engine call
            flipped, offset_a = sweep(nbrs, bits_a, lf, temps[sw], rng_a, offset_a, 0.01)
            before = rep.bits.copy()
            ran, f = anneal._python_sweeps(rep, temps[sw:sw + 1], 0.01, rng_b, None, 0)
            assert (ran, f) == (1, int(flipped >= 0)), sw
            flips.update((bool(long_row[i]), int(rep.bits[i]))
                         for i in np.flatnonzero(before != rep.bits))
            assert np.array_equal(bits_a, rep.bits), sw
            assert offset_a == rep.offset, sw
            # a flip's updates keep the local fields, chain sums and energy current
            assert np.allclose(rep.base_lf, _all_rows_fields(cm, rep.bits), rtol=0, atol=1e-9), sw
            assert np.allclose(rep.s, model.chains.sums(rep.bits), rtol=0, atol=1e-9), sw
            assert rep.energy == pytest.approx(energy(model, rep.bits), abs=1e-9), sw
            escapes += flipped < 0
        assert 0 < escapes < cfg.sweeps
    # bits rise and fall through both the scalar and the numpy row update
    assert flips == {(False, 0), (False, 1), (True, 0), (True, 1)}


def _run_batches(model, sweeps, sizes, draws):
    """Run ``sweeps`` sweeps of one replica in engine calls of ``sizes``
    (cycled), from one draw source.  Returns the replica, its flip count and
    its best energy after every sweep."""
    cm = compile_model(model)
    rep = anneal._Replica(model, cm, anneal._balanced_initial_bits(model, np.random.RandomState(4)))
    t0 = float(np.max(np.abs(rep.gains)))
    temps = list(anneal._temperatures(AnnealConfig(sweeps=sweeps, temp_final=0.05), t0))
    trace, flips, done, call = [], 0, 0, 0
    while done < sweeps:
        size = min(sizes[call % len(sizes)], sweeps - done)
        ran, f = anneal._python_sweeps(rep, temps[done:done + size], 0.005, draws, trace, 1)
        assert ran == size
        flips += f
        done += size
        call += 1
    return rep, flips, trace


def _replica_state(rep):
    """Everything a replica carries from one engine call to the next, as bytes."""
    arrays = (rep.bits, rep.base_lf, rep.s, rep.dl, rep.dlf, rep.mld, rep.sr, rep.gains,
              rep.best_bits)
    return [a.tobytes() for a in arrays] + [rep.offset.hex(), rep.energy.hex(),
                                            rep.best_energy.hex(), rep.stale]


def _same_runs(a, b):
    """Two :func:`_run_batches` results are equal bit for bit."""
    (rep_a, flips_a, trace_a), (rep_b, flips_b, trace_b) = a, b
    return (_replica_state(rep_a) == _replica_state(rep_b) and flips_a == flips_b
            and np.array(trace_a).tobytes() == np.array(trace_b).tobytes())


@pytest.mark.parametrize("form", ["bipartition", "kway3"])
def test_flip_update_path_changes_nothing(monkeypatch, form):
    # objective rows of 3 to 16 entries, on both sides of the crossover
    g = gnp_graph(30, 0.3, np.random.RandomState(31))
    model = build_bipartition_qubo(g, 0.1) if form == "bipartition" else build_kway_qubo(g, 3, 0.1)
    lengths = np.diff(compile_model(model).csr_indptr)
    assert lengths.min() <= anneal._SCALAR_ROW_MAX < lengths.max()
    runs = []
    for row_max in (0, anneal._SCALAR_ROW_MAX, 10 ** 9):  # all numpy, mixed, all scalar
        monkeypatch.setattr(anneal, "_SCALAR_ROW_MAX", row_max)
        draws = anneal._BlockUniforms(np.random.RandomState(37), model.num_vars)
        runs.append(_run_batches(model, 400, [400], draws))
    for run in runs[1:]:
        assert _same_runs(runs[0], run)
    assert 0 < runs[0][1] < 400  # both flipping and escape sweeps occurred


class _RecordingDraws(anneal._BlockUniforms):
    """A draw source that records every draw it takes from its stream, in
    order, at the refill the sweeps call, and checks each draw's band."""

    def __init__(self, rs, nv):
        super().__init__(rs, nv)
        self.drawn = []
        self.kept = []  # the unread draws each refill kept

    def refill(self, pos):
        unread = len(self.us) - pos
        self.kept.append(unread)
        us, lo, hi = super().refill(pos)
        assert len(us) == len(lo) == len(hi) == self._size
        fresh = us[unread:].tolist()
        self.drawn.extend(fresh)
        for u, a, b in zip(fresh, lo[unread:].tolist(), hi[unread:].tolist()):
            if u > 0.0:
                assert a < math.log(u) < b
            else:
                assert (a, b) == (-math.inf, math.inf)
        return us, lo, hi

    @property
    def handed(self):
        """The draws the sweeps read: all drawn but the buffer's unread tail."""
        return self.drawn[:len(self.drawn) - (len(self.us) - self.pos)]


@pytest.mark.parametrize("block", ["nv-below-block", "nv-above-block", "two-sweeps"])
def test_batch_split_changes_nothing(monkeypatch, block):
    sweeps = 600
    g = gnp_graph(30, 0.2, np.random.RandomState(21))
    if block == "nv-below-block":  # refills keep the unread tail of a block
        model = build_kway_qubo(g, 3, 0.1)
        assert model.num_vars + 1 < anneal.UNIFORM_BLOCK < sweeps * model.num_vars
    elif block == "nv-above-block":  # the buffer holds one sweep's draws plus one
        model = build_bipartition_qubo(g, 0.1)
        monkeypatch.setattr(anneal, "UNIFORM_BLOCK", 8)
        assert model.num_vars + 1 > anneal.UNIFORM_BLOCK
    else:  # an idle sweep leaves exactly one sweep's draws, and no pick's
        model = build_bipartition_qubo(g, 0.1)
        monkeypatch.setattr(anneal, "UNIFORM_BLOCK", 2 * model.num_vars)
    nv = model.num_vars

    def source():
        return _RecordingDraws(np.random.RandomState(23), nv)

    whole_draws, split_draws = source(), source()
    whole = _run_batches(model, sweeps, [sweeps], whole_draws)
    split = _run_batches(model, sweeps, [1, 7, 64], split_draws)
    assert _same_runs(whole, split)
    flips = whole[1]
    assert 0 < flips < sweeps  # both flipping and escape sweeps occurred
    # the engine read one draw per variable per sweep plus one per flip, and
    # the block source handed them out as scalar random_sample() calls would
    assert len(split_draws.handed) == sweeps * nv + flips
    scalar = np.random.RandomState(23)
    assert split_draws.handed == [scalar.random_sample() for _ in split_draws.handed]
    assert whole_draws.handed == split_draws.handed
    if block == "two-sweeps":  # a refill kept one sweep's draws, and no pick's
        assert nv in whole_draws.kept


@pytest.mark.parametrize("form", ["bipartition", "kway3"])
def test_engine_calls_carry_the_replica_state(form):
    # one replica swept in one engine call, in one call per sweep and in
    # calls of 1, 7, 64 and the rest ends bit for bit in the same state: each
    # call carries the offset, the stale gains and the energies on to the next
    sweeps = 500
    g = gnp_graph(30, 0.2, np.random.RandomState(71))
    model = build_bipartition_qubo(g, 0.1) if form == "bipartition" else build_kway_qubo(g, 3, 0.1)

    def run(sizes):
        return _run_batches(model, sweeps, sizes,
                            anneal._BlockUniforms(np.random.RandomState(73), model.num_vars))

    whole = run([sweeps])
    for sizes in ([1], [1, 7, 64, sweeps]):
        assert _same_runs(whole, run(sizes)), sizes
    _, flips, trace = whole
    assert len(trace) == sweeps
    # some calls of one sweep begin after a flip, with stale gains, and some
    # after an idle sweep, with a grown offset
    assert 0 < flips < sweeps


def test_solve_deterministic():
    g = gnp_graph(15, 0.3, np.random.RandomState(2))
    model = build_bipartition_qubo(g)
    cfg = AnnealConfig(sweeps=300, replicas=3, seed=7)
    a, b = solve(model, cfg), solve(model, cfg)
    assert np.array_equal(a.best_bits, b.best_bits)
    assert (a.best_energy, a.flips, a.replica_id) == (b.best_energy, b.flips, b.replica_id)


def test_concurrent_solves_match_sequential():
    # every replica owns its RandomState, so solves in two threads share no state
    g = gnp_graph(30, 0.2, np.random.RandomState(21))
    jobs = [(build_bipartition_qubo(g, 0.1), AnnealConfig(sweeps=400, replicas=2, seed=11,
                                                          trace_every=50)),
            (build_kway_qubo(g, 3), AnnealConfig(sweeps=400, replicas=2, seed=12,
                                                 balanced_init=True, trace_every=50))]
    sequential = [solve(model, cfg) for model, cfg in jobs]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
    try:
        for _ in range(3):
            start = threading.Barrier(len(jobs), timeout=30)
            results = [None] * len(jobs)

            def run(j):
                start.wait()
                results[j] = solve(*jobs[j])

            threads = [threading.Thread(target=run, args=(j,)) for j in range(len(jobs))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
                assert not th.is_alive()
            for a, b in zip(sequential, results):
                assert np.array_equal(a.best_bits, b.best_bits)
                assert (a.best_energy, a.flips, a.replica_id) == \
                    (b.best_energy, b.flips, b.replica_id)
                assert np.array_equal(a.energy_trace, b.energy_trace)
    finally:
        sys.setswitchinterval(switch)


def test_solve_reaches_bipartition_optimum():
    cfg = AnnealConfig(sweeps=1000, replicas=4, seed=3, balanced_init=True)
    for g in small_corpus(seed=31, count=8, n_max=10):
        model = build_bipartition_qubo(g)
        res = solve(model, cfg)
        assert res.best_energy == float(bipartition_optimum(g, 0.0))


def test_solve_reaches_kway_optimum():
    # at n = 7 three parts of ceil(7/3) = 3 do not fit, so parts hold 1 to 3
    for n in (9, 7):
        g = gnp_graph(n, 0.5, np.random.RandomState(40))
        model = build_kway_qubo(g, 3)
        res = solve(model, AnnealConfig(sweeps=2000, replicas=4, seed=5, balanced_init=True))
        assert res.best_energy == float(kway_optimum(g, 3, 0.0)), n


def test_solve_chainless_models():
    # models read from QUBO text, or built by hand, carry no penalty chains
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    parsed = parse_qubo_text(write_qubo_text(build_bipartition_qubo(path4)))
    by_hand = QuboModel.from_triples(3, [1.0, -2.0, 0.5], [0, 1], [1, 2], [-3.0, 2.0],
                                     base_constant=0.25)
    cases = ((parsed, float(bipartition_optimum(path4, 0.0))),
             (by_hand, -3.75),  # at bits (1, 1, 0)
             (parse_qubo_text("p qubo 0 0\n"), 0.0))  # no variables: no sweeps to run
    for model, optimum in cases:
        assert len(model.chains) == 0
        assert model.chains.sums(np.zeros(model.num_vars)).dtype == np.float64
        res = solve(model, AnnealConfig(sweeps=200, replicas=2, seed=4, trace_every=1))
        assert res.best_energy == energy(model, res.best_bits)
        assert res.best_energy == optimum
        # one traced energy per sweep run, an empty float64 trace for none
        assert res.energy_trace.dtype == np.float64
        assert len(res.energy_trace) == res.sweeps_done == (200 if model.num_vars else 0)
        assert res.wall_time > 0.0


def test_zero_start_gains_start_at_temperature_one(monkeypatch):
    _one_worker(monkeypatch)
    # no linear terms and no pair terms: every start gain is zero, so t0 falls back to 1
    model = QuboModel.from_triples(5, np.zeros(5), [], [], [])
    assert len(model.chains) == 0 and len(model.objective_csr[1]) == 0
    seen = []
    real = anneal._temperatures
    monkeypatch.setattr(anneal, "_temperatures",
                        lambda cfg, t0: seen.append(t0) or real(cfg, t0))
    res = solve(model, AnnealConfig(sweeps=20, replicas=2, seed=3))
    assert seen == [1.0, 1.0] and all(type(t0) is float for t0 in seen)
    assert res.best_energy == 0.0 and res.sweeps_done == 20


def test_balanced_initial_bits_zero_residual():
    rng = np.random.RandomState(9)
    g = gnp_graph(11, 0.3, rng)
    g12 = gnp_graph(12, 0.3, rng)  # exact k-way balance needs k | n
    for g_case, model in ((g, build_bipartition_qubo(g, 0.2)),
                          (g, build_kway_qubo(g, 2, 0.2)),  # one-hot layout at k=2
                          (g12, build_kway_qubo(g12, 2)),
                          (g, build_kway_qubo(g, 3, 0.34)),
                          (g12, build_kway_qubo(g12, 4))):
        for trial in range(5):
            rs = np.random.RandomState(trial)
            bits = anneal._balanced_initial_bits(model, rs)
            for ch in model.chains:
                assert ch.coeffs @ bits[ch.var_idx] == ch.rhs
            labels = _decode_labels(model, bits)
            assert energy(model, bits) == float(cut_edges(g_case, labels))


def test_balanced_initial_bits_spread_remainder():
    # n=10, k=4: sizes (3, 3, 2, 2) in some order, all within [2, 4]; filling
    # blocks of ceil(n/k) would leave the last part with 1 vertex
    cycle = Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)])
    model = build_kway_qubo(cycle, 4, 0.5)
    for trial in range(5):
        bits = anneal._balanced_initial_bits(model, np.random.RandomState(trial))
        partition, feas = decode(model, bits)
        assert feas.feasible and sorted(partition.part_sizes()) == [2, 2, 3, 3]
        for ch in model.chains:
            assert ch.coeffs @ bits[ch.var_idx] == ch.rhs


def _decode_labels(model, bits):
    is_set = bits[model.indicators]
    if is_set.shape[1] == 1:
        return is_set[:, 0].tolist()
    labels = np.zeros(len(is_set), dtype=np.int64)
    vertices, parts = np.nonzero(is_set)
    labels[vertices] = parts
    return labels.tolist()


def _assert_time_limit_holds(model, limit, sweeps=500_000, replicas=1):
    start = time.perf_counter()
    solve(model, AnnealConfig(sweeps=20, seed=0))
    sweep_s = (time.perf_counter() - start) / 20  # set-up included: an upper bound
    start = time.perf_counter()
    res = solve(model, AnnealConfig(sweeps=sweeps, replicas=replicas, seed=0, time_limit=limit))
    overshoot = time.perf_counter() - start - limit
    assert 0 < res.sweeps_done < sweeps
    assert overshoot < 0.05 + sweep_s, (overshoot, sweep_s, res.sweeps_done)
    return res


def test_time_limit_stops_early():
    g = gnp_graph(300, 0.05, np.random.RandomState(1))
    _assert_time_limit_holds(build_bipartition_qubo(g), 0.15)


def test_time_limit_holds_on_large_model():
    # 8000 variables: 1024 sweeps take far longer than the limit, so reading
    # the clock only between fixed-size batches of sweeps would overshoot
    rng = np.random.RandomState(3)
    n = 2000
    edges = {tuple(sorted(e)) for e in rng.randint(0, n, size=(3 * n, 2)) if e[0] != e[1]}
    model = build_kway_qubo(Graph.from_edges(n, sorted(edges)), 4)
    _assert_time_limit_holds(model, 0.2)


def test_time_limit_holds_at_a_large_sweep_cap():
    # the temperatures are computed as the sweeps reach them, so a sweep
    # count far beyond the limit costs nothing before the first sweep
    res = _assert_time_limit_holds(build_bipartition_qubo(grid_graph(12, 16)), 0.1,
                                   sweeps=10 ** 7)
    assert res.sweeps_done >= 100


def test_time_limit_holds_across_workers():
    # each worker stops after its first replica, which ends past the limit,
    # and the solve waits for them all
    res = _assert_time_limit_holds(build_bipartition_qubo(grid_graph(12, 16)), 0.2,
                                   sweeps=10 ** 7, replicas=4)
    assert res.replica_id < anneal._worker_count(4)


def test_energy_trace_grows_with_the_sweeps_run():
    # the trace holds the sweeps actually run, not a buffer sized by the cap:
    # one of 10**7 doubles would take 80 MB
    model = build_bipartition_qubo(grid_graph(12, 16))
    cfg = AnnealConfig(sweeps=10 ** 7, seed=0, time_limit=0.1, trace_every=1)
    tracemalloc.start()
    try:
        res = solve(model, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak
    assert 0 < res.sweeps_done < cfg.sweeps
    assert len(res.energy_trace) == res.sweeps_done


class _FakeClock:
    """A ``perf_counter`` that advances one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_deadline_stops_after_the_sweep_that_crosses_it(monkeypatch):
    _one_worker(monkeypatch)
    # the solve reads the clock once at its start, the engine once after
    # every sweep, the solve once after each replica and once for wall_time
    model = build_bipartition_qubo(grid_graph(4, 5))
    cfg = AnnealConfig(sweeps=1000, seed=1, trace_every=1)
    untimed = solve(model, cfg)
    clock, runs = _FakeClock(), []  # sweeps run by each engine call
    python_sweeps, replica = anneal._python_sweeps, anneal._Replica

    def counted(*args):
        out = python_sweeps(*args)
        runs.append(out[0])
        return out

    monkeypatch.setattr(anneal.time, "perf_counter", clock)
    monkeypatch.setattr(anneal, "_python_sweeps", counted)

    # start at 1, deadline 6: the sweeps end at 2, 3, ..., 7, and 7 > 6
    res = solve(model, replace(cfg, time_limit=5.0))
    assert runs == [6] and res.sweeps_done == 6 and len(res.energy_trace) == 6
    assert res.wall_time == 8.0  # the reading after the replica, then wall_time's
    # the limit cuts the untimed trajectory short and changes nothing else
    assert res.energy_trace.tobytes() == untimed.energy_trace[:6].tobytes()

    # a replica whose last sweep ends past the deadline ends the solve
    runs.clear()
    res = solve(model, replace(cfg, sweeps=4, replicas=3, time_limit=3.5))
    assert runs == [4] and res.sweeps_done == 4

    # deadline 7: replica 0 sweeps until 5, replica 1 stops after ending at 8
    runs.clear()
    res = solve(model, replace(cfg, sweeps=4, replicas=3, time_limit=6.0))
    assert runs == [4, 2] and res.sweeps_done in (4, 2) and res.replica_id in (0, 1)

    # a set-up that overran the limit still runs one sweep, and only one replica
    def slow_replica(*args):
        clock.now += 100.0
        return replica(*args)

    monkeypatch.setattr(anneal, "_Replica", slow_replica)
    runs.clear()
    res = solve(model, replace(cfg, replicas=3, time_limit=5.0))
    assert runs == [1] and res.sweeps_done == 1 and len(res.energy_trace) == 1


def test_log_agrees_within_band():
    """np.log and math.log agree to a sixteenth of the band of _log_bands, over
    draws in [2**-53, 1), so the band covers np.log's error, math.exp's
    (1 ulp, 2**-52 in the log domain) and the rounding of its own ends."""
    rng = np.random.RandomState(4)
    x = np.concatenate([rng.randint(1, 2 ** 53, size=200_000) * 2.0 ** -53,
                        1.0 - np.arange(1, 2001) * 2.0 ** -53,  # next to 1.0
                        2.0 ** -53 * np.arange(1, 2001)])
    exact = np.array([math.log(v) for v in x.tolist()])
    width = (np.abs(exact) + 1.0) * anneal._BAND
    whole = np.log(x)  # the vector loop; the 3-element calls run the tail loop
    short = np.concatenate([np.log(x[i:i + 3]) for i in range(0, len(x), 3)])
    for got in (whole, short):
        assert (np.abs(got - exact) <= width / 16).all()
    lo, hi = anneal._log_bands(x)
    assert (lo < exact).all() and (exact < hi).all()


class _ScriptedRandom:
    """A stand-in ``RandomState`` whose ``random_sample(m)`` hands out the
    next m of the given draws."""

    def __init__(self, draws):
        self.draws, self.taken = draws, 0

    def random_sample(self, m):
        out = self.draws[self.taken:self.taken + m]
        assert len(out) == m
        self.taken += m
        return out.copy()


@pytest.mark.parametrize("block", [8, None], ids=["block-below-nv", "default-block"])
def test_refill_bands_cover_the_kept_tail(monkeypatch, block):
    # a refill joins the unread tail to the fresh draws and bands them all at
    # once; the tail's bands must be those _log_bands gives its draws, a zero
    # draw's infinite band included
    nv = 20
    if block is not None:
        monkeypatch.setattr(anneal, "UNIFORM_BLOCK", block)
    size = max(nv + 1, anneal.UNIFORM_BLOCK)
    assert (size == nv + 1) == (block is not None)
    draws = np.random.RandomState(67).random_sample(8 * size)
    draws[size - 3] = 0.0  # inside the first kept tail
    source = anneal._BlockUniforms(_ScriptedRandom(draws), nv)
    us, lo, hi = source.refill(0)
    read = 0  # draws handed out before the buffer's first
    zero_kept = False
    for keep in (5, 1, nv - 1, 0, 3, nv - 1):
        read += len(us) - keep
        zero_kept |= bool((us[len(us) - keep:] == 0.0).any())
        us, lo, hi = source.refill(len(us) - keep)
        assert source.pos == 0 and len(us) == len(lo) == len(hi) == size
        assert us.tobytes() == draws[read:read + len(us)].tobytes()
        want_lo, want_hi = anneal._log_bands(draws[read:read + len(us)])
        assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()
    assert zero_kept


class _GivenDraws(anneal._BlockUniforms):
    """A draw source holding exactly the given draws, with their bands."""

    def __init__(self, us):
        super().__init__(None, 0)
        self.us = us
        self.lo, self.hi = anneal._log_bands(us)

    def refill(self, pos):
        raise AssertionError("the sweep read more draws than it was given")


class _ListRandom:
    """The reference sweep's random source, handing out the given draws in order."""

    def __init__(self, us):
        self._us = np.asarray(us)

    def random_sample(self, size=None):
        if size is None:
            u, self._us = float(self._us[0]), self._us[1:]
            return u
        out, self._us = self._us[:size], self._us[size:]
        return out


@pytest.mark.parametrize("t, offset", [(0.73, 0.0), (0.73, 0.37), (1e-300, 0.0)])
def test_band_acceptors_match_scalar_rule(t, offset):
    """The sweeps accept exactly the variables that the scalar rule of
    ``tests/reference.py:sweep`` accepts, on draws at the thresholds
    ``exp(-eff / t)``, at their neighbouring doubles and at the extremes, with
    thresholds that are ordinary, subnormal or zero.

    A sweep shows only the acceptor its pick draw selects,
    ``acceptors[int(pick * len(acceptors))]``.  So every state is swept from
    a copy once per wanted acceptor k with the pick just above ``k / L`` and
    once with it just below ``(k + 1) / L``, ``L = len(want)``: both sweeps
    must flip ``want[k]``.  Two picks that far apart select the same index
    only if the sweep's list holds at most L acceptors, and L distinct flips
    need at least L, so the list is ``want`` itself.  The variables of this
    model do not interact, so these sweeps run on blocks of 64 of them, each
    block with its own ``want``; that keeps their cost linear in the model.
    Then one sweep of the whole model, with a random pick, moves the state
    on, against the reference sweep.
    """
    rng = np.random.RandomState(12)
    eff = np.concatenate([
        rng.uniform(-5.0, 0.0, 50), [0.0, -0.0],
        rng.exponential(3.0, 4000),             # ordinary thresholds
        rng.exponential(3.0 * t, 1000),         # ordinary thresholds at any t
        rng.uniform(708.0 * t, 746.0 * t, 50),  # subnormal and underflowing thresholds
    ])
    nv = len(eff)
    # a chainless model without pair terms: flipping a clear bit i gains eff[i] + offset
    model = QuboModel.from_triples(nv, eff + offset, [], [], [])
    cm = compile_model(model)
    nbrs = expanded_neighbors(model)
    bits_a = np.zeros(nv, dtype=np.int8)
    lf = local_fields(model, bits_a, nbrs)
    rep = anneal._Replica(model, cm, np.zeros(nv, dtype=np.int8))
    # the variables do not interact, so each block of 64 sweeps as a model of its own
    blocks = [QuboModel.from_triples(len(part), part, [], [], [])
              for part in np.split(model.base_linear, range(64, nv, 64))]
    blocks = [(a, block, compile_model(block)) for a, block in zip(range(0, nv, 64), blocks)]
    edge = 2.0 ** -20
    undecided = checked = 0
    for kind in range(6):
        # the rule's own eff, rounded as the sweeps round it
        eff = anneal._Replica(model, cm, rep.bits).gains - offset
        exact = np.array([math.exp(-e / t) if e > 0.0 else 1.0 for e in eff.tolist()])
        us = (exact, np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf),
              np.exp(-np.maximum(eff, 0.0) / t), np.zeros(nv), rng.random_sample(nv))[kind]
        us = np.minimum(us, np.nextafter(1.0, 0.0))  # draws lie in [0, 1)
        want = [i for i, (e, u) in enumerate(zip(eff.tolist(), us.tolist()))
                if e <= 0.0 or u < math.exp(-e / t)]
        lo, hi = anneal._log_bands(us)
        y = eff / -t
        undecided += np.count_nonzero((y >= lo) & ~(y > hi))
        for a, block, block_cm in blocks:
            b = a + block_cm.nv
            wanted = [i - a for i in want if a <= i < b]
            n = len(wanted)
            picks = [((k + edge) / n, k) for k in range(n)] + [((k + 1 - edge) / n, k) for k in range(n)]
            for pick, k in picks or [(0.5, None)]:
                part = anneal._Replica(block, block_cm, rep.bits[a:b].copy())
                part.offset = offset
                given = _GivenDraws(np.append(us[a:b], pick))
                anneal._python_sweeps(part, [t], 0.01, given, None, 0)
                moved = np.flatnonzero(part.bits != rep.bits[a:b]).tolist()
                assert moved == ([] if k is None else [wanted[k]])
                assert given.pos == block_cm.nv + (k is not None)
            checked += n

        pick = rng.random_sample()
        draws = np.append(us, pick)
        flipped, offset_a = sweep(nbrs, bits_a, lf, t, _ListRandom(draws), offset, 0.01)
        given = _GivenDraws(draws)
        before = rep.bits.copy()
        rep.offset = offset
        anneal._python_sweeps(rep, [t], 0.01, given, None, 0)
        assert flipped == (want[int(pick * len(want))] if want else -1)
        assert np.flatnonzero(before != rep.bits).tolist() == ([flipped] if want else [])
        assert np.array_equal(bits_a, rep.bits) and offset_a == rep.offset
        assert given.pos == nv + bool(want)  # the pick is drawn only when something accepts
    assert undecided > 0  # the scalar rule decided some draws inside their bands
    assert checked > 0  # acceptors whose sweeps were compared


def _bincount_gains(model, bits, base_lf, s):
    """Flip gains with each variable's chain gains summed by ``np.bincount``
    from ``+0.0``, memberships in (variable, chain) order: the oracle of the
    layered sums of ``_gain_rebuild``."""
    ch, p = model.chains, model.penalty
    order = np.lexsort((ch.chain_id, ch.var_idx))
    var, chain, c = ch.var_idx[order], ch.chain_id[order], ch.coeffs[order]
    dl = 1.0 - 2.0 * bits
    chain_gain = 2.0 * p * c * dl[var] * (s - ch.rhs)[chain] + p * c * c
    return dl * base_lf + np.bincount(var, chain_gain, model.num_vars)


@pytest.mark.parametrize("model", [m[1] for m in _START_MODELS], ids=[m[0] for m in _START_MODELS])
def test_flip_gains_match_bincount_bit_for_bit(model):
    cm = compile_model(model)
    rng = np.random.RandomState(41)
    nv = model.num_vars
    temps = list(anneal._temperatures(AnnealConfig(sweeps=60, temp_final=0.05), 2.0))
    for p in (0.0, 0.3, 0.7, 1.0):
        rep = anneal._Replica(model, cm, (rng.random_sample(nv) < p).astype(np.int8))
        assert rep.gains.tobytes() == _bincount_gains(model, rep.bits, rep.base_lf, rep.s).tobytes()
        # the terms a flip updates in place stay those a rebuild would make
        draws = anneal._BlockUniforms(np.random.RandomState(43), nv)
        flips = 0
        for done in range(0, len(temps), 6):
            flips += anneal._python_sweeps(rep, temps[done:done + 6], 0.01, draws, None, 0)[1]
            if rep.stale:  # the last sweep flipped
                rep.rebuild()
            want = _bincount_gains(model, rep.bits, rep.base_lf, rep.s)
            assert rep.gains.tobytes() == want.tobytes()
        assert flips > 0


def test_idle_sweep_bound_changes_nothing(monkeypatch):
    _one_worker(monkeypatch)
    model = build_bipartition_qubo(grid_graph(12, 16))  # the bisect-grid benchmark's model
    cfg = AnnealConfig(sweeps=2000, replicas=2, seed=3, balanced_init=True, trace_every=1)
    tested = []  # sweeps that ran the array test, per solve
    greater_equal = np.greater_equal

    def counted(*args, **kwargs):
        tested[-1] += 1
        return greater_equal(*args, **kwargs)

    monkeypatch.setattr(np, "greater_equal", counted)
    runs = []
    for bound in (True, False):
        if not bound:
            monkeypatch.setattr(anneal, "_sweep_floors", lambda lo, pos, nv, count: [])
        tested.append(0)
        runs.append(solve(model, cfg))
    on, off = runs
    assert on.best_bits.tobytes() == off.best_bits.tobytes()
    assert on.best_energy.hex() == off.best_energy.hex()
    assert (on.flips, on.replica_id) == (off.flips, off.replica_id)
    assert on.energy_trace.tobytes() == off.energy_trace.tobytes()
    assert tested[1] == cfg.replicas * cfg.sweeps  # without the bound every sweep is tested
    assert tested[0] < tested[1]  # the bound skipped idle sweeps


def test_idle_sweep_floors_come_in_chunks(monkeypatch):
    # a small model's draw buffer holds hundreds of sweeps; the floors are
    # taken at most _FLOOR_SWEEPS at a time and change no result
    model = build_bipartition_qubo(grid_graph(4, 5))
    assert anneal.UNIFORM_BLOCK // model.num_vars > anneal._FLOOR_SWEEPS
    cfg = AnnealConfig(sweeps=2000, seed=3, balanced_init=True, trace_every=1)
    counts, sweep_floors = [], anneal._sweep_floors

    def counted(lo, pos, nv, count):
        counts.append(count)
        return sweep_floors(lo, pos, nv, count)

    monkeypatch.setattr(anneal, "_sweep_floors", counted)
    chunked = solve(model, cfg)
    monkeypatch.setattr(anneal, "_sweep_floors", lambda lo, pos, nv, count: [])
    unbound = solve(model, cfg)
    assert max(counts) == anneal._FLOOR_SWEEPS
    assert chunked.best_bits.tobytes() == unbound.best_bits.tobytes()
    assert chunked.energy_trace.tobytes() == unbound.energy_trace.tobytes()
    assert chunked.flips == unbound.flips


def test_first_sweep_reuses_the_start_gains(monkeypatch):
    _one_worker(monkeypatch)
    # a replica binds one gain rebuild and runs it once, for t0 and the first
    # sweep; every rebuild after a flip runs the same binding
    model = build_kway_qubo(gnp_graph(20, 0.3, np.random.RandomState(44)), 3, 0.2)
    cfg = AnnealConfig(sweeps=600, replicas=3, seed=5, balanced_init=True, trace_every=10)
    want = solve(model, cfg)
    runs, at_entry = [], []  # runs of each binding; (runs, stale) as each engine call begins
    gain_rebuild, python_sweeps = anneal._gain_rebuild, anneal._python_sweeps

    def counted(*args):
        rebuild, k = gain_rebuild(*args), len(runs)
        runs.append(0)

        def run():
            runs[k] += 1
            return rebuild()

        return run

    def entered(rep, *args):
        at_entry.append((list(runs), rep.stale))
        return python_sweeps(rep, *args)

    monkeypatch.setattr(anneal, "_gain_rebuild", counted)
    monkeypatch.setattr(anneal, "_python_sweeps", entered)
    got = solve(model, cfg)
    assert got.best_bits.tobytes() == want.best_bits.tobytes()
    assert got.best_energy.hex() == want.best_energy.hex()
    assert (got.flips, got.replica_id) == (want.flips, want.replica_id)
    assert got.energy_trace.tobytes() == want.energy_trace.tobytes()
    assert len(runs) == cfg.replicas  # one binding per replica per solve
    assert at_entry == [([*runs[:r], 1], False) for r in range(cfg.replicas)]
    assert all(1 < n <= 1 + cfg.sweeps for n in runs)  # the flips' rebuilds ran the binding


@pytest.mark.parametrize("model", [m[1] for m in _START_MODELS], ids=[m[0] for m in _START_MODELS])
def test_bound_rebuild_reads_the_terms_as_they_are(model):
    # a replica binds one rebuild and the sweeps change the terms it reads in
    # place between runs; each run must equal a fresh replica's start gains
    # bit for bit
    cm = compile_model(model)
    rng = np.random.RandomState(47)
    nv = model.num_vars

    def replica(p):
        return anneal._Replica(model, cm, (rng.random_sample(nv) < p).astype(np.int8))

    rep = replica(0.5)
    rebuild = anneal._gain_rebuild(cm, rep.dlf, rep.mld, rep.sr)
    out = rebuild()
    for p in (0.5, 0.0, 0.3, 1.0, 0.8):
        fresh = replica(p)
        for bound, new in zip((rep.dlf, rep.mld, rep.sr), (fresh.dlf, fresh.mld, fresh.sr)):
            bound[:] = new
        assert rebuild() is out
        assert out.tobytes() == fresh.gains.tobytes()


def _one_chain_models():
    """(name, model) pairs with exactly one chain: bipartitions without and
    with slack bits, and a chain over some variables only, so the others
    have pad slots; plus a k-way control with many chains."""
    g = gnp_graph(24, 0.3, np.random.RandomState(53))
    rng = np.random.RandomState(59)
    nv = 20
    i = rng.randint(0, nv - 1, size=40)
    j = i + 1 + rng.randint(0, nv - 1 - i)
    chain = np.array([[1, 4, 6, 9, 13, 17]])  # the other variables get pad slots
    chains = qubo.ChainSet.from_blocks((chain, rng.uniform(0.2, 2.3, chain.shape), 1.7))
    partial = QuboModel.from_triples(nv, rng.standard_normal(nv) / 7.0, i, j,
                                     rng.standard_normal(40) / 3.0, chains=chains, penalty=0.45)
    no_slack, slack = build_bipartition_qubo(g, 0.0), build_bipartition_qubo(g, 0.1)
    assert no_slack.num_vars == g.n < slack.num_vars
    assert compile_model(partial).mem_off == (0, nv) and len(chains.var_idx) < nv
    return [("k2-eps0", no_slack), ("k2-eps0.1", slack), ("partial-chain", partial),
            ("k3-control", build_kway_qubo(g, 3, 0.1))]


_ONE_CHAIN_MODELS = _one_chain_models()


@pytest.mark.parametrize("model", [m[1] for m in _ONE_CHAIN_MODELS],
                         ids=[m[0] for m in _ONE_CHAIN_MODELS])
def test_gain_rebuild_equals_the_residual_gather(model):
    # the bound rebuild reads the residuals as they are at each run and
    # equals the gather sr[mem_chain] summed by layer, pad slots included
    cm = compile_model(model)
    nv = model.num_vars
    rng = np.random.RandomState(61)

    def terms(p):
        rep = anneal._Replica(model, cm, (rng.random_sample(nv) < p).astype(np.int8))
        return rep.dlf, rep.mld, rep.sr

    dlf, mld, sr = terms(0.5)
    rebuild = anneal._gain_rebuild(cm, dlf, mld, sr)
    signs = set()
    for p in (0.5, 0.0, 0.3, 1.0, 0.8, 0.6):
        for bound, new in zip((dlf, mld, sr), terms(p)):
            bound[:] = new
        signs.add(bool(sr[0] < 0))
        chain_gain = mld * sr[cm.mem_chain] + cm.mem_const
        total = chain_gain[:nv].copy()
        for at, a, b in zip(cm.mem_at, cm.mem_off[1:], cm.mem_off[2:]):
            total[at] += chain_gain[a:b]
        assert rebuild().tobytes() == (dlf + total).tobytes(), p
    assert signs == {False, True}


def test_energy_trace_monotone():
    g = gnp_graph(20, 0.3, np.random.RandomState(5))
    model = build_bipartition_qubo(g)
    res = solve(model, AnnealConfig(sweeps=1000, replicas=1, seed=2, trace_every=100))
    assert res.energy_trace is not None and len(res.energy_trace) == 10
    assert all(b <= a + 1e-9 for a, b in zip(res.energy_trace, res.energy_trace[1:]))
    assert res.energy_trace[-1] == pytest.approx(res.best_energy, abs=1e-6)


def test_temperature_schedule_endpoints(monkeypatch):
    cfg = AnnealConfig(sweeps=100, temp_final=0.1)
    temps = list(anneal._temperatures(cfg, 50.0))
    assert temps[0] == 50.0 and len(temps) == 100
    assert all(type(t) is float for t in temps)
    assert temps[-1] == pytest.approx(50.0 * (0.1 / 50.0) ** (99 / 100))
    # any chunk size gives the whole-run law bit for bit, including a final
    # temperature above t0, which holds t0 throughout
    for sweeps, t0, temp_final in [(2000, 37.5, 0.1), (1000, 4.0, 0.05), (333, 0.5, 0.7)]:
        cfg = AnnealConfig(sweeps=sweeps, temp_final=temp_final)
        tf = min(temp_final, t0)
        whole = t0 * (tf / t0) ** (np.arange(sweeps, dtype=np.float64) / sweeps)
        for step in (1, 7, 299, 1024):
            monkeypatch.setattr(anneal, "BATCH_SWEEPS", step)
            assert np.array(list(anneal._temperatures(cfg, t0))).tobytes() == whole.tobytes()


def test_seed_derivation_is_stable():
    assert anneal._derive_seed(0, 0, "init") == anneal._derive_seed(0, 0, "init")
    assert anneal._derive_seed(0, 0, "init") != anneal._derive_seed(0, 1, "init")
    assert anneal._derive_seed(0, 0, "init") != anneal._derive_seed(0, 0, "sweeps")
