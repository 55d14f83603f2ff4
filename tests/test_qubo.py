import dataclasses
import math

import numpy as np
import pytest

import qubopart.qubo as qubo
from qubopart.graph import Graph, balance_bounds, cut_edges
from qubopart.qubo import (ChainSet, QuboModel, build_bipartition_qubo,
                           build_kway_qubo, default_penalty, encode_slack_weights,
                           energy, model_num_vars, parse_qubo_text, write_qubo_text)
from qubopart.sparsify import forest_fire_scores, sparsify

from conftest import dense_energy, feasible_sizes, fill_chain_slack, gnp_graph, small_corpus


def _chains(*segments):
    """ChainSet of one all-ones chain with rhs 1 per index list."""
    idx = [i for seg in segments for i in seg]
    indptr = np.cumsum([0] + [len(seg) for seg in segments])
    return ChainSet(indptr, idx, np.ones(len(idx)), np.ones(len(segments)))


def test_penalty_chain_validation():
    for idx in ([], [3], [0, 2, 5]):
        _chains(idx)
    for idx in ([0, 2, 2], [3, 1], [0, 4, 1]):
        with pytest.raises(ValueError, match="strictly increasing"):
            _chains(idx)
    with pytest.raises(ValueError, match="differ in length"):
        ChainSet([0, 2], [0, 1], [1.0], [1.0])
    # only the inside of a chain must increase; a chain may start anywhere
    chains = _chains([0, 5], [1, 2])
    assert len(chains) == 2 and chains[1].var_idx.tolist() == [1, 2]
    with pytest.raises(ValueError, match="strictly increasing"):
        _chains([0, 5], [2, 1])
    with pytest.raises(ValueError, match="offsets"):
        ChainSet([0, 3], [0, 1], [1.0, 1.0], [1.0])


def test_single_edge_frozen_energies():
    g = Graph.from_edges(2, [(0, 1)])
    m = build_bipartition_qubo(g, penalty=2.0)
    assert energy(m, [1, 0]) == 1.0
    assert energy(m, [0, 1]) == 1.0
    assert energy(m, [1, 1]) == 2.0
    assert energy(m, [0, 0]) == 2.0


def test_bipartition_brute_force_p4():
    # path 0-1-2-3: balanced optimum cuts the middle edge
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    m = build_bipartition_qubo(g)
    best = min(energy(m, [(i >> b) & 1 for b in range(4)]) for i in range(16))
    assert best == 1.0


def test_default_penalty():
    assert default_penalty(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])) == 4.0
    assert default_penalty(Graph.from_edges(5, [])) == 1.0


def test_encode_slack_weights_frozen():
    assert encode_slack_weights(0) == []
    assert encode_slack_weights(1) == [1]
    assert encode_slack_weights(5) == [1, 2, 2]
    assert encode_slack_weights(11) == [1, 2, 4, 4]
    with pytest.raises(ValueError):
        encode_slack_weights(-1)


def test_slack_subset_sums_cover_range():
    for span in range(0, 65):
        weights = encode_slack_weights(span)
        sums = {0}
        for w in weights:
            sums |= {s + w for s in sums}
        assert sums == set(range(span + 1)), span


def test_bipartition_energy_equals_cut_for_zero_residual():
    rng = np.random.RandomState(77)
    for g in small_corpus(seed=4, count=20, n_max=12):
        for epsilon in (0.0, 0.1):
            m = build_bipartition_qubo(g, epsilon)
            _, upper = balance_bounds(g.n, 2, epsilon)
            for _ in range(10):
                ones = upper if epsilon == 0.0 else \
                    int(rng.randint(max(0, g.n - upper), upper + 1))
                chosen = rng.choice(g.n, size=min(ones, g.n), replace=False)
                bits = np.zeros(m.num_vars, dtype=np.int8)
                bits[chosen] = 1
                fill_chain_slack(m, bits)
                labels = bits[m.indicators[:, 0]].tolist()
                assert energy(m, bits) == float(cut_edges(g, labels))


def test_kway_energy_equals_cut_for_one_hot_balanced():
    rng = np.random.RandomState(78)
    # (10, 3, 0.0) and (10, 4, 0.03) have lower bound n - (k-1) * upper
    for n, k, epsilon in [(6, 3, 0.0), (9, 3, 0.0), (12, 4, 0.0), (12, 3, 0.34), (10, 5, 0.5),
                          (10, 3, 0.0), (10, 4, 0.03), (9, 2, 0.0)]:
        g = gnp_graph(n, 0.5, rng)
        m = build_kway_qubo(g, k, epsilon)
        lower, upper = balance_bounds(n, k, epsilon)
        for _ in range(10):
            sizes = feasible_sizes(n, k, lower, upper, rng)
            perm = rng.permutation(n)
            labels = np.zeros(n, dtype=int)
            pos = 0
            for j, size in enumerate(sizes):
                labels[perm[pos:pos + size]] = j
                pos += size
            bits = np.zeros(m.num_vars, dtype=np.int8)
            bits[m.indicators[np.arange(n), labels]] = 1
            fill_chain_slack(m, bits)
            assert energy(m, bits) == float(cut_edges(g, labels))


def test_infeasible_assignments_cost_more_small_exhaustive():
    # one unit of imbalance must never pay for itself at the default penalty
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    m = build_bipartition_qubo(g)
    feasible, infeasible = [], []
    for i in range(16):
        bits = [(i >> b) & 1 for b in range(4)]
        (feasible if sum(bits) == 2 else infeasible).append(energy(m, bits))
    assert min(infeasible) > min(feasible)


def test_expansion_matches_dense_evaluation():
    rng = np.random.RandomState(12)
    g = gnp_graph(12, 0.4, rng)
    # random non-integer pair coefficients, repeats included, off the exact-integer path
    i, j = rng.randint(0, 9, size=(2, 30))
    keep = i < j
    by_hand = QuboModel.from_triples(9, rng.standard_normal(9), i[keep], j[keep],
                                     rng.standard_normal(int(keep.sum())), base_constant=0.3,
                                     chains=_chains([0, 3, 5], [1, 2, 7]), penalty=0.7)
    for model in (build_bipartition_qubo(g, 0.25), build_kway_qubo(g, 3, 0.34), by_hand):
        for _ in range(25):
            bits = rng.randint(0, 2, size=model.num_vars)
            assert energy(model, bits) == pytest.approx(dense_energy(model, bits), abs=1e-9)


def test_bipartition_coefficients_are_integers():
    g = gnp_graph(9, 0.5, np.random.RandomState(3))
    m = build_bipartition_qubo(g, 0.15)
    assert float(m.constant).is_integer()
    assert all(float(v).is_integer() for v in m.linear)
    assert all(float(v).is_integer() for v in m.quadratic_terms()[2])


def test_kway_coefficients_are_half_integers():
    g = gnp_graph(8, 0.5, np.random.RandomState(4))
    m = build_kway_qubo(g, 4, 0.3)
    assert all(float(2 * v).is_integer() for v in m.linear)
    assert all(float(2 * v).is_integer() for v in m.quadratic_terms()[2])


def test_kway_structure():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    m = build_kway_qubo(g, 3, 0.0)
    assert m.num_vars == 18  # exact bounds need no slack
    assert len(m.chains) == 6 + 3  # one-hot per vertex, one balance chain per part
    m2 = build_kway_qubo(g, 3, 0.5)  # bounds (1, 3), slack span 2
    per_part = len(encode_slack_weights(2))
    assert m2.num_vars == 18 + 3 * per_part  # one two-sided balance chain per part
    assert len(m2.chains) == 6 + 3
    assert all(np.all(ch.coeffs > 0) for ch in m2.chains)
    with pytest.raises(ValueError, match="k must lie"):
        build_kway_qubo(g, 7)
    with pytest.raises(ValueError, match="k must lie"):
        build_kway_qubo(g, 1)
    with pytest.raises(ValueError, match="penalty"):
        build_kway_qubo(g, 3, penalty=0.0)


@pytest.mark.parametrize("penalty", [0.0, -1.0, math.nan, math.inf])
def test_builders_reject_non_positive_or_non_finite_penalty(penalty):
    # a NaN penalty makes every energy NaN, and NaN never compares below inf
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="penalty must be finite and positive"):
        build_bipartition_qubo(g, penalty=penalty)
    with pytest.raises(ValueError, match="penalty must be finite and positive"):
        build_kway_qubo(g, 2, penalty=penalty)


@pytest.mark.parametrize("n, k, epsilon", [
    (9, 2, 0.0), (10, 2, 0.0),    # k=2 pinned to ceil(n/2), odd and even n
    (10, 2, 0.1),                 # upper 5: part-1 range [5, 5], 2*upper - n == 0
    (11, 2, 0.25), (7, 2, 1.0),   # two-sided range; upper > n
    (9, 3, 0.0),                  # k>2 equality chains
    (6, 3, 1.0),                  # k>2 with lower == 0
    (12, 4, 0.34), (10, 3, 0.5),  # k>2 with 0 < lower < upper
    (10, 3, 0.0), (5, 4, 0.2),    # k>2 with lower n - (k-1)*upper: 2, and 0
])
def test_model_num_vars_matches_builders(n, k, epsilon):
    g = gnp_graph(n, 0.4, np.random.RandomState(n))
    model = build_bipartition_qubo(g, epsilon) if k == 2 else build_kway_qubo(g, k, epsilon)
    assert model_num_vars(n, k, epsilon) == model.num_vars


@pytest.mark.parametrize("epsilon", [0.0, 0.03, 0.1])
def test_builders_objective_csr_equals_from_triples(epsilon):
    planted = gnp_graph(40, 0.2, np.random.RandomState(4))
    graphs = small_corpus() + [
        Graph.from_edges(9, [(1, 4), (4, 7), (2, 7)], name="isolated"),
        sparsify(planted, forest_fire_scores(planted, seed=3), 0.6),
    ]
    for g in graphs:
        models = [build_bipartition_qubo(g, epsilon)]
        models += [build_kway_qubo(g, k, epsilon) for k in (2, 3, 4)]
        for model in models:
            # edge {u, v} couples u*parts + j and v*parts + j in every part j
            parts = model.indicators.shape[1]
            qi = (g.edge_array[:, :1] * parts + np.arange(parts)).ravel()
            qj = (g.edge_array[:, 1:] * parts + np.arange(parts)).ravel()
            coeff = -2.0 if parts == 1 else -1.0
            want = QuboModel.from_triples(model.num_vars, model.base_linear, qi, qj,
                                          np.full(len(qi), coeff)).objective_csr
            assert len(model.objective_csr) == 3
            for got, w in zip(model.objective_csr, want):
                assert got.dtype == w.dtype, (g.name, model.k)
                assert np.array_equal(got, w), (g.name, model.k)


@pytest.mark.parametrize("qi, qj, qc, match", [
    ([0, 1], [1], [5.0], "differ in length"),
    ([0], [1], [5.0, 1.0], "differ in length"),
    ([1], [1], [5.0], "upper-triangular"),
    ([0, 2], [1, 1], [5.0, 1.0], "upper-triangular"),
    ([-1], [1], [5.0], r"lie in \[0, 3\)"),
    ([1], [7], [5.0], r"lie in \[0, 3\)"),
    ([0], [3], [5.0], r"lie in \[0, 3\)"),
])
def test_from_triples_rejects_bad_pairs(qi, qj, qc, match):
    with pytest.raises(ValueError, match=match):
        QuboModel.from_triples(3, np.zeros(3), qi, qj, qc)


@pytest.mark.parametrize("penalty", [-1.0, math.nan, math.inf])
def test_from_triples_rejects_negative_or_non_finite_penalty(penalty):
    # a NaN or infinite penalty made energy() NaN; the sweeps need penalty >= 0
    chains = _chains([0, 1, 2])
    with pytest.raises(ValueError, match="penalty must be finite and non-negative"):
        QuboModel.from_triples(3, np.zeros(3), [0], [1], [1.0], chains=chains, penalty=penalty)
    ok = QuboModel.from_triples(3, np.zeros(3), [0], [1], [1.0], chains=chains, penalty=0.0)
    assert energy(ok, [1, 1, 0]) == 1.0


def test_objective_csr_shape_checks():
    ok = QuboModel.from_triples(3, np.zeros(3), [0, 1], [1, 2], [1.0, 2.0])
    indptr, cols, data = ok.objective_csr
    for csr in ((indptr[:-1], cols, data), (indptr, cols, data[:-1]),
                (indptr, cols[:-1], data[:-1])):
        with pytest.raises(ValueError, match="objective CSR"):
            QuboModel(3, np.zeros(3), csr)
    # a column outside [0, num_vars) would read a wrong or missing bit
    for col in (-1, 3):
        with pytest.raises(ValueError, match="objective CSR columns"):
            QuboModel(3, np.zeros(3), (np.array([0, 1, 1, 1]), np.array([col]), np.array([5.0])))


def test_objective_csr_must_be_symmetric(monkeypatch):
    # energy() and the solver's start state read each pair from either end,
    # so an entry without its mirror was counted once: energy 1.0 here
    for csr in ((np.array([0, 1, 1]), np.array([1]), np.array([2.0])),
                (np.array([0, 1, 2]), np.array([1, 0]), np.array([2.0, 3.0]))):  # values differ
        with pytest.raises(ValueError, match="objective CSR must be symmetric"):
            QuboModel(2, np.zeros(2), csr)
    # mirrors in any order, repeated entries included, are accepted
    csr = (np.array([0, 2, 5, 6]), np.array([1, 1, 2, 0, 0, 1]),
           np.array([1.0, 2.0, 0.5, 2.0, 1.0, 0.5]))
    assert energy(QuboModel(3, np.zeros(3), csr), [1, 1, 1]) == 3.5
    # a NaN mirrors a NaN; integer coefficients are compared as they are
    QuboModel(2, np.zeros(2), (np.array([0, 1, 2]), np.array([1, 0]), np.array([np.nan, np.nan])))
    QuboModel(2, np.zeros(2), (np.array([0, 1, 2]), np.array([1, 0]), np.array([3, 3])))
    with pytest.raises(ValueError, match="objective CSR must be symmetric"):
        QuboModel(2, np.zeros(2), (np.array([0, 1, 2]), np.array([1, 0]), np.array([np.nan, 1.0])))
    # the builders' CSRs are symmetric by construction: they are marked, not
    # checked, and the mark survives dataclasses.replace
    checked = []
    monkeypatch.setattr(qubo, "_is_symmetric", lambda *csr: checked.append(csr) or True)
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4), (0, 4)])
    models = [build_bipartition_qubo(g, 0.2), build_kway_qubo(g, 3, 0.25),
              QuboModel.from_triples(3, np.zeros(3), [0, 0], [1, 2], [1.0, -1.0])]
    models += [parse_qubo_text(write_qubo_text(models[0]))]
    models += [dataclasses.replace(m, penalty=3.0) for m in models]
    assert checked == []
    assert all(type(m.objective_csr) is qubo._SymmetricCSR for m in models)
    nv = models[0].num_vars
    QuboModel(nv, np.zeros(nv), tuple(models[0].objective_csr))
    assert len(checked) == 1


def test_objective_csr_must_have_an_empty_diagonal(monkeypatch):
    # a diagonal entry is its own mirror, but the flip gains leave out its
    # effect on the flipped bit: energy read 0.0 at [0, 0] and 1.0 at [1, 0]
    # where the gains of bit 0 were 0.0 and -2.0
    diagonal = [(np.array([0, 1, 1]), np.array([0]), np.array([2.0])),
                (np.array([0, 2, 3]), np.array([0, 1, 0]), np.array([1.0, 2.0, 2.0])),
                (np.array([0, 0, 1, 1]), np.array([1]), np.array([0.0]))]  # a zero on the diagonal
    for csr in diagonal:
        nv = len(csr[0]) - 1
        with pytest.raises(ValueError, match="symmetric with an empty diagonal"):
            QuboModel(nv, np.array([0.0, 0.5, 0.0][:nv]), csr)
    # the same check rejects a missing mirror, and passes a symmetric CSR
    with pytest.raises(ValueError, match="row != col"):
        QuboModel(2, np.zeros(2), (np.array([0, 1, 1]), np.array([1]), np.array([2.0])))
    QuboModel(2, np.zeros(2), (np.array([0, 1, 2]), np.array([1, 0]), np.array([2.0, 2.0])))
    # the builders' marked CSR stays unchecked
    checked = []
    monkeypatch.setattr(qubo, "_is_symmetric", lambda *csr: checked.append(csr) or False)
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    build_bipartition_qubo(g, 0.5)
    build_kway_qubo(g, 3, 0.25)
    QuboModel.from_triples(3, np.zeros(3), [0], [2], [1.5])
    assert checked == []


def test_parse_qubo_text_sums_repeated_terms():
    model = parse_qubo_text("p qubo 3 5\n1 2 0.5\n2 2 1\n1 2 0.25\n2 2 -3\n2 3 1.5\n")
    assert model.linear.tolist() == [0.0, -2.0, 0.0]
    qi, qj, qc = model.quadratic_terms()
    assert (qi.tolist(), qj.tolist(), qc.tolist()) == ([0, 1], [1, 2], [0.75, 1.5])
    assert energy(model, [1, 1, 1]) == -2.0 + 0.75 + 1.5


def test_objective_csr_is_read_only():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4), (0, 4)])
    built = [build_bipartition_qubo(g, 0.2), build_kway_qubo(g, 3, 0.25)]
    by_hand = QuboModel.from_triples(3, np.zeros(3), [0, 0], [1, 2], [1.0, -1.0])
    for model in built + [parse_qubo_text(write_qubo_text(m)) for m in built] + [by_hand]:
        for arr in model.objective_csr:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


def test_qubo_text_round_trip_exact():
    rng = np.random.RandomState(9)
    g = gnp_graph(10, 0.4, rng)
    for model in (build_bipartition_qubo(g, 0.2), build_kway_qubo(g, 3, 0.25)):
        parsed = parse_qubo_text(write_qubo_text(model))
        assert parsed.num_vars == model.num_vars
        for _ in range(20):
            bits = rng.randint(0, 2, size=model.num_vars)
            assert energy(parsed, bits) == energy(model, bits)


def test_qubo_text_parse_errors():
    with pytest.raises(ValueError, match="problem line"):
        parse_qubo_text("1 1 2\n")
    with pytest.raises(ValueError, match="declared"):
        parse_qubo_text("p qubo 2 2\n1 1 1\n")
    with pytest.raises(ValueError, match="invalid"):
        parse_qubo_text("p qubo 2 1\n2 1 1\n")


def test_energy_validation():
    g = Graph.from_edges(3, [(0, 1)])
    m = build_bipartition_qubo(g)
    with pytest.raises(ValueError, match="length"):
        energy(m, [0, 1])
    with pytest.raises(ValueError, match="0/1"):
        energy(m, [0, 1, 2])


def test_expansion_cap():
    g = gnp_graph(40, 0.2, np.random.RandomState(2))
    m = build_bipartition_qubo(g)
    with pytest.raises(ValueError, match="cap"):
        m.quadratic_terms(max_terms=10)


def test_model_num_terms_matches_header():
    g = gnp_graph(7, 0.6, np.random.RandomState(8))
    m = build_bipartition_qubo(g)
    lines = write_qubo_text(m).splitlines()
    header = next(ln for ln in lines if ln.startswith("p "))
    terms = [ln for ln in lines if ln and ln[0].isdigit()]
    assert int(header.split()[3]) == len(terms) > 0


def test_energy_complement_symmetry_even_n():
    # flipping every bit mirrors the bipartition, so the energy is unchanged
    rng = np.random.RandomState(62)
    g = gnp_graph(10, 0.4, rng)
    m = build_bipartition_qubo(g)
    for _ in range(20):
        bits = rng.randint(0, 2, size=m.num_vars)
        assert energy(m, bits) == energy(m, 1 - bits)
