import json
import math
import sys
import threading
import time

import numpy as np
import pytest

import qubopart.anneal as anneal
import qubopart.qubo as qubo
from qubopart.anneal import AnnealConfig, compile_model, solve
from qubopart.evaluate import decode
from qubopart.graph import Graph, cut_edges
from qubopart.qubo import (QuboModel, _coalesce, build_bipartition_qubo, build_kway_qubo, energy,
                           parse_qubo_text, write_qubo_text)

from conftest import bipartition_optimum, gnp_graph, kway_optimum, small_corpus
from reference import apply_flip, delta_energy, expanded_neighbors, local_fields, sweep

def _random_models(seed=5):
    rng = np.random.RandomState(seed)
    g = gnp_graph(10, 0.4, rng)
    return [build_bipartition_qubo(g, 0.2), build_kway_qubo(g, 3, 0.25)], rng


def test_config_validation():
    for kwargs in ({"sweeps": 0}, {"replicas": 0}, {"temp_final": 0.0},
                   {"temp_initial": -1.0}, {"schedule": "cosine"},
                   {"trace_every": -1}, {"time_limit": 0.0}):
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
        got = cm.all_deltas(bits, cm.base_local_fields(bits), model.chains.sums(bits))
        assert np.allclose(got, ref, atol=1e-9)


def test_compile_model_csr_in_lexsort_order():
    rng = np.random.RandomState(17)
    for nv in (1, 2, 9, 40):
        count = rng.randint(0, 3 * nv)
        i = rng.randint(0, nv, size=count)
        j = rng.randint(0, nv, size=count)
        keep = i < j  # repeats are kept: compile_model coalesces them
        model = QuboModel(num_vars=nv, base_linear=rng.standard_normal(nv),
                          base_quad_i=i[keep], base_quad_j=j[keep],
                          base_quad_c=rng.standard_normal(int(keep.sum())))
        cm = compile_model(model)
        qi, qj, qc = _coalesce(nv, model.base_quad_i, model.base_quad_j, model.base_quad_c)
        rows, cols = np.concatenate([qi, qj]), np.concatenate([qj, qi])
        order = np.lexsort((cols, rows))
        assert np.array_equal(cm.csr_rows, rows[order])
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
        for got, want in zip((cm.csr_indptr, cm.csr_rows, cm.csr_cols, cm.csr_data),
                             model.objective_csr):
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
    cooling schedule that passes through flipping and escape sweeps."""
    models, _ = _random_models(8)
    for model in models:
        cm = compile_model(model)
        nbrs = expanded_neighbors(model)
        init = np.random.RandomState(3)
        bits_a = (init.random_sample(model.num_vars) < 0.5).astype(np.int8)
        bits_b = bits_a.copy()
        lf = local_fields(model, bits_a, nbrs)
        base_lf = cm.base_local_fields(bits_b)
        s = model.chains.sums(bits_b)
        temps = anneal._temperature_schedule(AnnealConfig(sweeps=400, temp_final=0.05), 4.0)
        rng_a = np.random.RandomState(99)
        rng_b = anneal._BlockUniforms(np.random.RandomState(99), cm.nv)
        offset_a = offset_b = 0.0
        cur, best, best_bits = energy(model, bits_b), math.inf, bits_b.copy()
        escapes = 0
        for sw, t in enumerate(temps):
            flipped, offset_a = sweep(nbrs, bits_a, lf, t, rng_a, offset_a, 0.01)
            offset_b, cur, best, _ = anneal._python_sweeps(
                cm, bits_b, base_lf, s, temps[sw:sw + 1], offset_b, 0.01, cur, best,
                best_bits, rng_b, None, 0, sw)
            assert np.array_equal(bits_a, bits_b), sw
            assert offset_a == offset_b, sw
            escapes += flipped < 0
        assert 0 < escapes < len(temps)


def _run_batches(model, sweeps, sizes, rng):
    """Run ``sweeps`` sweeps in engine calls of ``sizes`` (cycled), one draw source."""
    cm = compile_model(model)
    bits = anneal._balanced_initial_bits(model, np.random.RandomState(4))
    base_lf, s = cm.base_local_fields(bits), model.chains.sums(bits)
    t0 = float(np.max(np.abs(cm.all_deltas(bits, base_lf, s))))
    temps = anneal._temperature_schedule(AnnealConfig(sweeps=sweeps, temp_final=0.05), t0)
    cur = best = energy(model, bits)
    best_bits, trace = bits.copy(), np.zeros(sweeps // 10)
    offset, flips, done, call = 0.0, 0, 0, 0
    while done < sweeps:
        batch = temps[done:done + sizes[call % len(sizes)]]
        offset, cur, best, f = anneal._python_sweeps(
            cm, bits, base_lf, s, batch, offset, 0.005, cur, best, best_bits, rng, trace,
            10, done)
        flips += f
        done += len(batch)
        call += 1
    return bits, base_lf, s, offset, cur, best, best_bits, flips, trace


class _RecordingDraws(anneal._BlockUniforms):
    """A draw source that records every draw it hands out, in order."""

    def __init__(self, rs, nv):
        super().__init__(rs, nv)
        self.handed = []

    def random_sample(self):
        u = super().random_sample()
        self.handed.append(float(u))
        return u

    def bands(self, n):
        us, lo, hi = super().bands(n)
        assert len(us) == len(lo) == len(hi) == n
        self.handed.extend(us.tolist())
        for u, a, b in zip(us.tolist(), lo.tolist(), hi.tolist()):
            if u > 0.0:
                assert a < math.log(u) < b
            else:
                assert (a, b) == (-math.inf, math.inf)
        return us, lo, hi


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
    by_hand = QuboModel(num_vars=3, base_linear=[1.0, -2.0, 0.5], base_quad_i=[0, 1],
                        base_quad_j=[1, 2], base_quad_c=[-3.0, 2.0], base_constant=0.25)
    cases = ((parsed, float(bipartition_optimum(path4, 0.0))),
             (by_hand, -3.75))  # at bits (1, 1, 0)
    for model, optimum in cases:
        assert len(model.chains) == 0
        assert model.chains.sums(np.zeros(model.num_vars)).dtype == np.float64
        res = solve(model, AnnealConfig(sweeps=200, replicas=2, seed=4))
        assert res.best_energy == energy(model, res.best_bits)
        assert res.best_energy == optimum


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


def _assert_time_limit_holds(model, limit):
    start = time.perf_counter()
    solve(model, AnnealConfig(sweeps=20, seed=0))
    sweep_s = (time.perf_counter() - start) / 20  # set-up included: an upper bound
    start = time.perf_counter()
    res = solve(model, AnnealConfig(sweeps=500_000, replicas=1, seed=0, time_limit=limit))
    overshoot = time.perf_counter() - start - limit
    assert 0 < res.sweeps_done < 500_000
    assert overshoot < 0.05 + sweep_s, (overshoot, sweep_s, res.sweeps_done)


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


@pytest.mark.parametrize("t, offset", [(0.73, 0.0), (0.73, 0.37), (1e-300, 0.0)])
def test_band_acceptors_match_scalar_rule(t, offset):
    rng = np.random.RandomState(12)
    eff = np.concatenate([
        rng.uniform(-5.0, 0.0, 50), [0.0, -0.0],
        rng.exponential(3.0, 4000),             # ordinary thresholds
        rng.exponential(3.0 * t, 1000),         # ordinary thresholds at any t
        rng.uniform(708.0 * t, 746.0 * t, 50),  # subnormal and underflowing thresholds
    ])
    deltas = eff + offset
    eff = deltas - offset  # the rule's own eff, rounded as the engine rounds it
    exact = np.array([math.exp(-e / t) if e > 0.0 else 1.0 for e in eff])
    nv = len(eff)
    y, sure, maybe = np.empty(nv), np.empty(nv, dtype=bool), np.empty(nv, dtype=bool)
    undecided = 0
    for us in (exact, np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf),
               np.exp(-np.maximum(eff, 0.0) / t), np.zeros(nv), rng.random_sample(nv)):
        us = np.minimum(us, np.nextafter(1.0, 0.0))  # draws lie in [0, 1)
        lo, hi = anneal._log_bands(us)
        got = anneal._acceptors(deltas, offset, t, us, lo, hi, y, sure, maybe)
        want = np.flatnonzero([e <= 0.0 or u < math.exp(-e / t) for e, u in zip(eff, us)])
        assert np.array_equal(got, want)
        undecided += np.count_nonzero(maybe & ~(y > hi))
    assert undecided > 0  # the scalar rule decided some draws


def test_energy_trace_monotone():
    g = gnp_graph(20, 0.3, np.random.RandomState(5))
    model = build_bipartition_qubo(g)
    res = solve(model, AnnealConfig(sweeps=1000, replicas=1, seed=2, trace_every=100))
    assert res.energy_trace is not None and len(res.energy_trace) == 10
    assert all(b <= a + 1e-9 for a, b in zip(res.energy_trace, res.energy_trace[1:]))
    assert res.energy_trace[-1] == pytest.approx(res.best_energy, abs=1e-6)


def test_temperature_schedule_endpoints():
    cfg = AnnealConfig(sweeps=100, temp_final=0.1)
    temps = anneal._temperature_schedule(cfg, 50.0)
    assert temps[0] == 50.0 and len(temps) == 100
    assert temps[-1] == pytest.approx(50.0 * (0.1 / 50.0) ** (99 / 100))
    lin = anneal._temperature_schedule(
        AnnealConfig(sweeps=4, temp_final=1.0, schedule="linear"), 4.0)
    assert np.allclose(lin, [4.0, 3.25, 2.5, 1.75])


def test_result_to_json():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    res = solve(build_bipartition_qubo(g), AnnealConfig(sweeps=50, seed=1))
    payload = json.loads(res.to_json())
    assert set(payload) == {"bits", "energy", "sweeps", "wall_time", "seed"}
    assert payload["bits"] == "".join(str(int(b)) for b in res.best_bits)
    assert payload["energy"] == res.best_energy


def test_seed_derivation_is_stable():
    assert anneal._derive_seed(0, 0, "init") == anneal._derive_seed(0, 0, "init")
    assert anneal._derive_seed(0, 0, "init") != anneal._derive_seed(0, 1, "init")
    assert anneal._derive_seed(0, 0, "init") != anneal._derive_seed(0, 0, "sweeps")
