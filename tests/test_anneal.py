import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc

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


def _gains(cm, bits, base_lf, s):
    """The flip gains of a state, as a solve builds them for the first sweep."""
    return anneal._flip_gains(cm, *anneal._gain_terms(cm, 1.0 - 2.0 * bits, base_lf, s))


def test_compiled_deltas_match_reference():
    models, rng = _random_models(7)
    for model in models:
        cm = compile_model(model)
        bits = rng.randint(0, 2, size=model.num_vars).astype(np.int8)
        lf = local_fields(model, bits)
        ref = np.array([delta_energy(model, bits, i, lf) for i in range(model.num_vars)])
        base_lf, s, _ = anneal._start_state(model, cm, bits)
        got = _gains(cm, bits, base_lf, s)
        assert np.allclose(got, ref, atol=1e-9)


def _all_rows_fields(cm, bits):
    """Local fields summed over every objective row, a clear bit's entries
    adding ``±0.0``: the oracle of the set-row pass in ``_start_state``."""
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
        base_lf, s, e = anneal._start_state(model, cm, bits)
        assert base_lf.dtype == s.dtype == np.float64
        assert base_lf.tobytes() == _all_rows_fields(cm, bits).tobytes()
        assert s.tobytes() == model.chains.sums(bits).tobytes()
        assert e.hex() == energy(model, bits).hex()
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
        bits_b = bits_a.copy()
        lf = local_fields(model, bits_a, nbrs)
        base_lf, s, _ = anneal._start_state(model, cm, bits_b)
        cfg = AnnealConfig(sweeps=400, temp_final=0.05)
        rng_a = np.random.RandomState(99)
        rng_b = anneal._BlockUniforms(np.random.RandomState(99), cm.nv)
        offset_a = offset_b = 0.0
        cur, best, best_bits = energy(model, bits_b), math.inf, bits_b.copy()
        gains = None
        escapes = 0
        for sw in range(cfg.sweeps):
            temps = anneal._temperatures(cfg, 4.0, sw, 1)
            flipped, offset_a = sweep(nbrs, bits_a, lf, temps[0], rng_a, offset_a, 0.01)
            before = bits_b.copy()
            offset_b, cur, best, _, gains = anneal._python_sweeps(
                cm, bits_b, base_lf, s, temps, offset_b, 0.01, cur, best,
                best_bits, rng_b, None, 0, sw, gains)
            flips.update((bool(long_row[i]), int(bits_b[i]))
                         for i in np.flatnonzero(before != bits_b))
            assert np.array_equal(bits_a, bits_b), sw
            assert offset_a == offset_b, sw
            # a flip's updates keep the local fields, chain sums and energy current
            assert np.allclose(base_lf, _all_rows_fields(cm, bits_b), rtol=0, atol=1e-9), sw
            assert np.allclose(s, model.chains.sums(bits_b), rtol=0, atol=1e-9), sw
            assert cur == pytest.approx(energy(model, bits_b), abs=1e-9), sw
            escapes += flipped < 0
        assert 0 < escapes < cfg.sweeps
    # bits rise and fall through both the scalar and the numpy row update
    assert flips == {(False, 0), (False, 1), (True, 0), (True, 1)}


def _run_batches(model, sweeps, sizes, rng):
    """Run ``sweeps`` sweeps in engine calls of ``sizes`` (cycled), one draw source."""
    cm = compile_model(model)
    bits = anneal._balanced_initial_bits(model, np.random.RandomState(4))
    base_lf, s, _ = anneal._start_state(model, cm, bits)
    gains = _gains(cm, bits, base_lf, s)
    t0 = float(np.max(np.abs(gains)))
    cfg = AnnealConfig(sweeps=sweeps, temp_final=0.05)
    cur = best = energy(model, bits)
    best_bits, trace = bits.copy(), []
    offset, flips, done, call = 0.0, 0, 0, 0
    while done < sweeps:
        size = min(sizes[call % len(sizes)], sweeps - done)
        offset, cur, best, f, gains = anneal._python_sweeps(
            cm, bits, base_lf, s, anneal._temperatures(cfg, t0, done, size), offset, 0.005,
            cur, best, best_bits, rng, trace, 10, done, gains)
        flips += f
        done += size
        call += 1
    return bits, base_lf, s, offset, cur, best, best_bits, flips, trace


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
        for a, b in zip(runs[0], run):
            assert np.array_equal(a, b)
    assert 0 < runs[0][7] < 400  # both flipping and escape sweeps occurred


class _RecordingDraws(anneal._BlockUniforms):
    """A draw source that records every draw it takes from its stream, in
    order, at the refill the sweeps call, and checks each draw's band."""

    def __init__(self, rs, nv):
        super().__init__(rs, nv)
        self.drawn = []

    def refill(self, pos, need):
        unread = len(self.us) - pos
        us, lo, hi = super().refill(pos, need)
        assert len(us) >= need and len(us) == len(lo) == len(hi)
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


@pytest.mark.parametrize("block", ["nv-below-block", "nv-above-block"])
def test_batch_split_changes_nothing(monkeypatch, block):
    sweeps = 600
    g = gnp_graph(30, 0.2, np.random.RandomState(21))
    if block == "nv-below-block":  # refills keep the unread tail of a block
        model = build_kway_qubo(g, 3, 0.1)
        assert model.num_vars + 1 < anneal.UNIFORM_BLOCK < sweeps * model.num_vars
    else:  # the buffer holds one sweep's draws plus one
        model = build_bipartition_qubo(g, 0.1)
        monkeypatch.setattr(anneal, "UNIFORM_BLOCK", 8)
        assert model.num_vars + 1 > anneal.UNIFORM_BLOCK
    nv = model.num_vars

    def source():
        return _RecordingDraws(np.random.RandomState(23), nv)

    whole_draws, split_draws = source(), source()
    whole = _run_batches(model, sweeps, [sweeps], whole_draws)
    split = _run_batches(model, sweeps, [1, 7, 64], split_draws)
    for a, b in zip(whole, split):
        assert np.array_equal(a, b)
    flips = whole[7]
    assert 0 < flips < sweeps  # both flipping and escape sweeps occurred
    # the engine read one draw per variable per sweep plus one per flip, and
    # the block source handed them out as scalar random_sample() calls would
    assert len(split_draws.handed) == sweeps * nv + flips
    scalar = np.random.RandomState(23)
    assert split_draws.handed == [scalar.random_sample() for _ in split_draws.handed]
    assert whole_draws.handed == split_draws.handed


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
    g = gnp_graph(9, 0.5, np.random.RandomState(40))
    model = build_kway_qubo(g, 3)
    res = solve(model, AnnealConfig(sweeps=2000, replicas=4, seed=5, balanced_init=True))
    assert res.best_energy == float(kway_optimum(g, 3, 0.0))


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


def _assert_time_limit_holds(model, limit, sweeps=500_000):
    start = time.perf_counter()
    solve(model, AnnealConfig(sweeps=20, seed=0))
    sweep_s = (time.perf_counter() - start) / 20  # set-up included: an upper bound
    start = time.perf_counter()
    res = solve(model, AnnealConfig(sweeps=sweeps, replicas=1, seed=0, time_limit=limit))
    overshoot = time.perf_counter() - start - limit
    assert 0 < res.sweeps_done < sweeps
    assert overshoot < 0.05 + sweep_s, (overshoot, sweep_s, res.sweeps_done)
    return res


def test_time_limit_stops_early():
    g = gnp_graph(300, 0.05, np.random.RandomState(1))
    _assert_time_limit_holds(build_bipartition_qubo(g), 0.15)


def test_time_limit_holds_on_large_model():
    # 8000 variables: one batch of BATCH_SWEEPS sweeps takes far longer than
    # the limit, so polling only between fixed-size batches would overshoot
    rng = np.random.RandomState(3)
    n = 2000
    edges = {tuple(sorted(e)) for e in rng.randint(0, n, size=(3 * n, 2)) if e[0] != e[1]}
    model = build_kway_qubo(Graph.from_edges(n, sorted(edges)), 4)
    _assert_time_limit_holds(model, 0.2)


def test_time_limit_holds_at_a_large_sweep_cap():
    # a solve computes each batch's temperatures when it runs the batch, so a
    # sweep count far beyond the limit costs nothing before the first sweep
    res = _assert_time_limit_holds(build_bipartition_qubo(grid_graph(12, 16)), 0.1,
                                   sweeps=10 ** 7)
    assert res.sweeps_done >= 100


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


def test_batch_size_fits_time_left():
    assert anneal._batch_size(10.0, 0.0) == 1  # no rate measured yet
    assert anneal._batch_size(1.0, 0.01) == 50
    assert anneal._batch_size(1e6, 1e-6) == anneal.BATCH_SWEEPS
    assert anneal._batch_size(-0.5, 0.01) == 1
    assert anneal._batch_size(0.001, 0.01) == 1


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


class _GivenDraws(anneal._BlockUniforms):
    """A draw source holding exactly the given draws, with their bands."""

    def __init__(self, us):
        super().__init__(None, 0)
        self.us = us
        self.lo, self.hi = anneal._log_bands(us)

    def refill(self, pos, need):
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
    bits_a, bits_b = np.zeros(nv, dtype=np.int8), np.zeros(nv, dtype=np.int8)
    lf = local_fields(model, bits_a, nbrs)
    base_lf, s, cur = anneal._start_state(model, cm, bits_b)
    best, best_bits = cur, bits_b.copy()
    # the variables do not interact, so each block of 64 sweeps as a model of its own
    blocks = [(a, compile_model(QuboModel.from_triples(len(part), part, [], [], [])))
              for a, part in zip(range(0, nv, 64), np.split(model.base_linear, range(64, nv, 64)))]
    edge = 2.0 ** -20
    undecided = checked = 0
    for kind in range(6):
        eff = _gains(cm, bits_b, base_lf, s) - offset  # the rule's own eff, rounded as the sweeps round it
        exact = np.array([math.exp(-e / t) if e > 0.0 else 1.0 for e in eff.tolist()])
        us = (exact, np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf),
              np.exp(-np.maximum(eff, 0.0) / t), np.zeros(nv), rng.random_sample(nv))[kind]
        us = np.minimum(us, np.nextafter(1.0, 0.0))  # draws lie in [0, 1)
        want = [i for i, (e, u) in enumerate(zip(eff.tolist(), us.tolist()))
                if e <= 0.0 or u < math.exp(-e / t)]
        lo, hi = anneal._log_bands(us)
        y = eff / -t
        undecided += np.count_nonzero((y >= lo) & ~(y > hi))
        for a, block in blocks:
            b = a + block.nv
            wanted = [i - a for i in want if a <= i < b]
            n = len(wanted)
            picks = [((k + edge) / n, k) for k in range(n)] + [((k + 1 - edge) / n, k) for k in range(n)]
            for pick, k in picks or [(0.5, None)]:
                bits = bits_b[a:b].copy()
                given = _GivenDraws(np.append(us[a:b], pick))
                anneal._python_sweeps(block, bits, base_lf[a:b].copy(), s.copy(), np.array([t]),
                                      offset, 0.01, 0.0, 0.0, bits.copy(), given, None, 0, 0)
                assert np.flatnonzero(bits != bits_b[a:b]).tolist() == ([] if k is None else [wanted[k]])
                assert given.pos == block.nv + (k is not None)
            checked += n

        pick = rng.random_sample()
        draws = np.append(us, pick)
        flipped, offset_a = sweep(nbrs, bits_a, lf, t, _ListRandom(draws), offset, 0.01)
        given = _GivenDraws(draws)
        before = bits_b.copy()
        offset_b, cur, best, _, _ = anneal._python_sweeps(
            cm, bits_b, base_lf, s, np.array([t]), offset, 0.01, cur, best, best_bits,
            given, None, 0, 0)
        assert flipped == (want[int(pick * len(want))] if want else -1)
        assert np.flatnonzero(before != bits_b).tolist() == ([flipped] if want else [])
        assert np.array_equal(bits_a, bits_b) and offset_a == offset_b
        assert given.pos == nv + bool(want)  # the pick is drawn only when something accepts
    assert undecided > 0  # the scalar rule decided some draws inside their bands
    assert checked > 0  # acceptors whose sweeps were compared


def _bincount_gains(model, bits, base_lf, s):
    """Flip gains with each variable's chain gains summed by ``np.bincount``
    from ``+0.0``, memberships in (variable, chain) order: the oracle of the
    layered sums of ``_flip_gains``."""
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
    cfg = AnnealConfig(sweeps=60, temp_final=0.05)
    for p in (0.0, 0.3, 0.7, 1.0):
        bits = (rng.random_sample(nv) < p).astype(np.int8)
        base_lf, s, cur = anneal._start_state(model, cm, bits)
        gains = _gains(cm, bits, base_lf, s)
        assert gains.tobytes() == _bincount_gains(model, bits, base_lf, s).tobytes()
        # the terms a flip updates in place stay those a rebuild would make
        draws = anneal._BlockUniforms(np.random.RandomState(43), nv)
        flips = 0
        for done in range(0, cfg.sweeps, 6):
            _, cur, _, f, gains = anneal._python_sweeps(
                cm, bits, base_lf, s, anneal._temperatures(cfg, 2.0, done, 6), 0.0, 0.01,
                cur, -math.inf, bits.copy(), draws, None, 0, done, gains)
            flips += f
            gains = _gains(cm, bits, base_lf, s) if gains is None else gains
            assert gains.tobytes() == _bincount_gains(model, bits, base_lf, s).tobytes()
        assert flips > 0


def test_idle_sweep_bound_changes_nothing(monkeypatch):
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


def test_first_sweep_reuses_the_start_gains(monkeypatch):
    model = build_kway_qubo(gnp_graph(20, 0.3, np.random.RandomState(44)), 3, 0.2)
    cfg = AnnealConfig(sweeps=600, replicas=3, seed=5, balanced_init=True, trace_every=10)
    assert cfg.sweeps <= anneal.BATCH_SWEEPS  # one engine call per replica
    builds = []
    flip_gains, python_sweeps = anneal._flip_gains, anneal._python_sweeps

    def counted(*args, **kwargs):
        builds[-1] += 1
        return flip_gains(*args, **kwargs)

    monkeypatch.setattr(anneal, "_flip_gains", counted)
    builds.append(0)
    handed = solve(model, cfg)
    # as the sweeps ran before: every engine call builds its gains on entry
    monkeypatch.setattr(anneal, "_python_sweeps", lambda *args: python_sweeps(*args[:-1], None))
    builds.append(0)
    rebuilt = solve(model, cfg)
    assert handed.best_bits.tobytes() == rebuilt.best_bits.tobytes()
    assert handed.best_energy.hex() == rebuilt.best_energy.hex()
    assert (handed.flips, handed.replica_id) == (rebuilt.flips, rebuilt.replica_id)
    assert handed.energy_trace.tobytes() == rebuilt.energy_trace.tobytes()
    # handed its start gains, a solve builds them once per replica, for t0:
    # every rebuild after a flip runs the engine call's bound rebuild
    assert builds[0] == cfg.replicas
    assert builds[1] - builds[0] == cfg.replicas


@pytest.mark.parametrize("model", [m[1] for m in _START_MODELS], ids=[m[0] for m in _START_MODELS])
def test_bound_rebuild_reads_the_terms_as_they_are(model):
    # the engine binds one rebuild per call and changes the terms it reads in
    # place between runs; each run must equal a fresh _flip_gains bit for bit
    cm = compile_model(model)
    rng = np.random.RandomState(47)
    nv = model.num_vars

    def terms(p):
        bits = (rng.random_sample(nv) < p).astype(np.int8)
        base_lf, s, _ = anneal._start_state(model, cm, bits)
        return anneal._gain_terms(cm, 1.0 - 2.0 * bits, base_lf, s)

    dlf, mld, sr = terms(0.5)
    out, chain_gain = np.empty(nv), np.empty(len(mld))
    rebuild = anneal._gain_rebuild(cm, dlf, mld, sr, out, chain_gain)
    for p in (0.5, 0.0, 0.3, 1.0, 0.8):
        fresh = terms(p)
        for bound, new in zip((dlf, mld, sr), fresh):
            bound[:] = new
        assert rebuild() is out
        assert out.tobytes() == anneal._flip_gains(cm, *fresh).tobytes()


def test_energy_trace_monotone():
    g = gnp_graph(20, 0.3, np.random.RandomState(5))
    model = build_bipartition_qubo(g)
    res = solve(model, AnnealConfig(sweeps=1000, replicas=1, seed=2, trace_every=100))
    assert res.energy_trace is not None and len(res.energy_trace) == 10
    assert all(b <= a + 1e-9 for a, b in zip(res.energy_trace, res.energy_trace[1:]))
    assert res.energy_trace[-1] == pytest.approx(res.best_energy, abs=1e-6)


def test_temperature_schedule_endpoints():
    cfg = AnnealConfig(sweeps=100, temp_final=0.1)
    temps = anneal._temperatures(cfg, 50.0, 0, 100)
    assert temps[0] == 50.0 and len(temps) == 100
    assert temps[-1] == pytest.approx(50.0 * (0.1 / 50.0) ** (99 / 100))
    # any split into batches gives the whole-run law bit for bit, including
    # a final temperature above t0, which holds t0 throughout
    rng = np.random.RandomState(6)
    for sweeps, t0, temp_final in [(2000, 37.5, 0.1), (1000, 4.0, 0.05), (333, 0.5, 0.7)]:
        cfg = AnnealConfig(sweeps=sweeps, temp_final=temp_final)
        tf = min(temp_final, t0)
        whole = t0 * (tf / t0) ** (np.arange(sweeps, dtype=np.float64) / sweeps)
        for sizes in ([1], [7], rng.randint(1, 300, size=20).tolist()):
            batches, done = [], 0
            while done < sweeps:
                size = min(sizes[len(batches) % len(sizes)], sweeps - done)
                batches.append(anneal._temperatures(cfg, t0, done, size))
                done += size
            assert np.array_equal(np.concatenate(batches), whole)


def test_seed_derivation_is_stable():
    assert anneal._derive_seed(0, 0, "init") == anneal._derive_seed(0, 0, "init")
    assert anneal._derive_seed(0, 0, "init") != anneal._derive_seed(0, 1, "init")
    assert anneal._derive_seed(0, 0, "init") != anneal._derive_seed(0, 0, "sweeps")
