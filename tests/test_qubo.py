import math

import numpy as np
import pytest

from qubopart.graph import Graph, balance_bounds, cut_edges
from qubopart.qubo import (INDICATOR, SLACK, QuboModel, build_bipartition_qubo,
                           build_kway_qubo, default_penalty, encode_slack_weights,
                           energy, model_num_vars, parse_qubo_text, write_qubo_text)

from conftest import (dense_energy, feasible_sizes, gnp_graph, greedy_slack_bits,
                      small_corpus)


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
                slack_roles = [(i, r.weight) for i, r in enumerate(m.var_map)
                               if r.kind == SLACK]
                if slack_roles:
                    fill = greedy_slack_bits(upper - len(chosen),
                                             [w for _, w in slack_roles])
                    for (i, _), b in zip(slack_roles, fill):
                        bits[i] = b
                labels = [int(bits[i]) for i, r in enumerate(m.var_map)
                          if r.kind == INDICATOR]
                assert energy(m, bits) == float(cut_edges(g, labels))


def test_kway_energy_equals_cut_for_one_hot_balanced():
    rng = np.random.RandomState(78)
    for n, k, epsilon in [(6, 3, 0.0), (9, 3, 0.0), (12, 4, 0.0), (12, 3, 0.34), (10, 5, 0.5)]:
        g = gnp_graph(n, 0.5, rng)
        m = build_kway_qubo(g, k, epsilon)
        lower, upper = balance_bounds(n, k, epsilon)
        lo = lower if k > 2 else 0
        for _ in range(10):
            sizes = feasible_sizes(n, k, lo, upper, rng)
            perm = rng.permutation(n)
            labels = np.zeros(n, dtype=int)
            pos = 0
            for j, size in enumerate(sizes):
                labels[perm[pos:pos + size]] = j
                pos += size
            bits = np.zeros(m.num_vars, dtype=np.int8)
            for v in range(n):
                bits[v * k + labels[v]] = 1
            for ch in m.chains:
                roles = [m.var_map[i] for i in ch.var_idx]
                slack = [(int(i), abs(int(r.weight))) for i, r in zip(ch.var_idx, roles)
                         if r.kind == SLACK]
                if not slack:
                    continue
                fixed = sum(float(c) * bits[i] for i, c in zip(ch.var_idx, ch.coeffs)
                            if m.var_map[i].kind == INDICATOR)
                need = int(round(ch.rhs - fixed))
                for (i, _), b in zip(slack, greedy_slack_bits(need, [w for _, w in slack])):
                    bits[i] = b
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
    for model in (build_bipartition_qubo(g, 0.25), build_kway_qubo(g, 3, 0.34)):
        for _ in range(25):
            bits = rng.randint(0, 2, size=model.num_vars)
            assert energy(model, bits) == pytest.approx(dense_energy(model, bits), abs=1e-9)


def test_bipartition_coefficients_are_integers():
    g = gnp_graph(9, 0.5, np.random.RandomState(3))
    m = build_bipartition_qubo(g, 0.15)
    assert float(m.constant).is_integer()
    assert all(float(v).is_integer() for v in m.linear)
    assert all(float(v).is_integer() for v in m.quadratic_dict().values())


def test_kway_coefficients_are_half_integers():
    g = gnp_graph(8, 0.5, np.random.RandomState(4))
    m = build_kway_qubo(g, 4, 0.3)
    assert all(float(2 * v).is_integer() for v in m.linear)
    assert all(float(2 * v).is_integer() for v in m.quadratic_dict().values())


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


@pytest.mark.parametrize("n, k, epsilon", [
    (9, 2, 0.0), (10, 2, 0.0),    # k=2 pinned to ceil(n/2), odd and even n
    (10, 2, 0.1),                 # upper 5: part-1 range [5, 5], 2*upper - n == 0
    (11, 2, 0.25), (7, 2, 1.0),   # two-sided range; upper > n
    (9, 3, 0.0),                  # k>2 equality chains
    (6, 3, 1.0),                  # k>2 with lower == 0
    (12, 4, 0.34), (10, 3, 0.5),  # k>2 with 0 < lower < upper
])
def test_model_num_vars_matches_builders(n, k, epsilon):
    g = gnp_graph(n, 0.4, np.random.RandomState(n))
    model = build_bipartition_qubo(g, epsilon) if k == 2 else build_kway_qubo(g, k, epsilon)
    assert model_num_vars(n, k, epsilon) == model.num_vars


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
    text = write_qubo_text(m)
    header = next(ln for ln in text.splitlines() if ln.startswith("p "))
    declared = int(header.split()[3])
    assert declared == m.num_terms()


def test_energy_complement_symmetry_even_n():
    # flipping every bit mirrors the bipartition, so the energy is unchanged
    rng = np.random.RandomState(62)
    g = gnp_graph(10, 0.4, rng)
    m = build_bipartition_qubo(g)
    for _ in range(20):
        bits = rng.randint(0, 2, size=m.num_vars)
        assert energy(m, bits) == energy(m, 1 - bits)
