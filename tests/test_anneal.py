import json
import math
import time

import numpy as np
import pytest

import qubopart.anneal as anneal
from qubopart.anneal import AnnealConfig, compile_model, solve
from qubopart.graph import Graph, cut_edges
from qubopart.qubo import INDICATOR, build_bipartition_qubo, build_kway_qubo, energy

from conftest import bipartition_optimum, gnp_graph, kway_optimum, small_corpus
from reference import apply_flip, delta_energy, expanded_neighbors, local_fields, sweep

needs_numba = pytest.mark.skipif(not anneal.HAVE_NUMBA, reason="numba unavailable")


def _random_models(seed=5):
    rng = np.random.RandomState(seed)
    g = gnp_graph(10, 0.4, rng)
    return [build_bipartition_qubo(g, 0.2), build_kway_qubo(g, 3, 0.25)], rng


def test_config_validation():
    for kwargs in ({"sweeps": 0}, {"replicas": 0}, {"temp_final": 0.0},
                   {"temp_initial": -1.0}, {"schedule": "cosine"},
                   {"engine": "gpu"}, {"time_limit": 0.0}):
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
        got = cm.all_deltas(bits, cm.base_local_fields(bits), cm.chain_sums(bits))
        assert np.allclose(got, ref, atol=1e-9)


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
    models, _ = _random_models(8)
    for model in models:
        cm = compile_model(model)
        nbrs = expanded_neighbors(model)
        init = np.random.RandomState(3)
        bits_a = (init.random_sample(model.num_vars) < 0.5).astype(np.int8)
        bits_b = bits_a.copy()
        lf = local_fields(model, bits_a, nbrs)
        base_lf = cm.base_local_fields(bits_b)
        s = cm.chain_sums(bits_b)
        temps = np.full(30, 2.0)
        rng_a = np.random.RandomState(99)
        rng_b = np.random.RandomState(99)
        offset_a = 0.0
        for t in temps:
            _, offset_a = sweep(nbrs, bits_a, lf, t, rng_a, offset_a, 0.01)
        anneal._python_sweeps(cm, bits_b, base_lf, s, temps, 0.0, 0.01,
                              energy(model, bits_b), math.inf, bits_b.copy(),
                              rng_b, None, 0, 0)
        assert np.array_equal(bits_a, bits_b)


@needs_numba
def test_engines_bit_identical():
    rng = np.random.RandomState(21)
    g = gnp_graph(24, 0.25, rng)
    for model in (build_bipartition_qubo(g, 0.1), build_kway_qubo(g, 3)):
        results = {}
        for engine in ("python", "numba"):
            cfg = AnnealConfig(sweeps=400, replicas=2, seed=11, engine=engine,
                               balanced_init=True, trace_every=50)
            results[engine] = solve(model, cfg)
        a, b = results["python"], results["numba"]
        assert np.array_equal(a.best_bits, b.best_bits)
        assert a.best_energy == b.best_energy
        assert a.flips == b.flips
        assert a.replica_id == b.replica_id
        assert np.allclose(a.energy_trace, b.energy_trace, atol=1e-9)


def test_solve_deterministic():
    g = gnp_graph(15, 0.3, np.random.RandomState(2))
    model = build_bipartition_qubo(g)
    cfg = AnnealConfig(sweeps=300, replicas=3, seed=7)
    a, b = solve(model, cfg), solve(model, cfg)
    assert np.array_equal(a.best_bits, b.best_bits)
    assert (a.best_energy, a.flips, a.replica_id) == (b.best_energy, b.flips, b.replica_id)


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


def test_balanced_initial_bits_zero_residual():
    rng = np.random.RandomState(9)
    g = gnp_graph(11, 0.3, rng)
    g12 = gnp_graph(12, 0.3, rng)  # exact k-way balance needs k | n
    for g_case, model in ((g, build_bipartition_qubo(g, 0.2)),
                          (g, build_kway_qubo(g, 3, 0.34)),
                          (g12, build_kway_qubo(g12, 4))):
        for trial in range(5):
            rs = np.random.RandomState(trial)
            bits = anneal._balanced_initial_bits(model, rs)
            for chain in model.chains:
                assert chain.residual(bits) == 0.0
            labels = _decode_labels(model, bits)
            assert energy(model, bits) == float(cut_edges(g_case, labels))


def _decode_labels(model, bits):
    if model.k == 2 and sum(r.kind == INDICATOR for r in model.var_map) == model.n:
        return [int(bits[i]) for i, r in enumerate(model.var_map) if r.kind == INDICATOR]
    labels = [0] * model.n
    for i, role in enumerate(model.var_map):
        if role.kind == INDICATOR and bits[i]:
            labels[role.vertex] = role.part
    return labels


def _assert_time_limit_holds(model, limit):
    start = time.perf_counter()
    solve(model, AnnealConfig(sweeps=20, seed=0, engine="python"))
    sweep_s = (time.perf_counter() - start) / 20  # set-up included: an upper bound
    start = time.perf_counter()
    res = solve(model, AnnealConfig(sweeps=500_000, replicas=1, seed=0, engine="python",
                                    time_limit=limit))
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


def test_exp_disagreement_within_window():
    """np.exp and math.exp must differ by less than the re-check window."""
    rng = np.random.RandomState(4)
    x = np.concatenate([-rng.random_sample(100_000) * 745.2,
                        -np.exp(rng.uniform(math.log(1e-300), math.log(40.0), 100_000))])
    a = np.exp(x)
    b = np.array([math.exp(v) for v in x.tolist()])
    assert (np.abs(a - b) < a * anneal._EXP_REL_WINDOW + anneal._EXP_ABS_WINDOW).all()


def test_metropolis_accept_matches_scalar_rule():
    rng = np.random.RandomState(12)
    t = 0.73
    eff = np.concatenate([
        rng.uniform(-5.0, 0.0, 50), [0.0, -0.0],
        rng.exponential(3.0, 4000),             # ordinary thresholds
        rng.uniform(708.0 * t, 746.0 * t, 50),  # subnormal and underflowing thresholds
    ])
    exact = np.array([math.exp(-e / t) for e in eff])
    draws = [exact, np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf),
             np.exp(-eff / t), np.zeros_like(eff), rng.random_sample(len(eff))]
    for us in draws:
        us = np.minimum(us, np.nextafter(1.0, 0.0))  # draws lie in [0, 1)
        want = np.array([e <= 0.0 or u < math.exp(-e / t) for e, u in zip(eff, us)])
        assert np.array_equal(anneal._metropolis_accept(eff, us, t), want)


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
