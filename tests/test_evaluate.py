import math
from fractions import Fraction

import numpy as np
import pytest

from qubopart.evaluate import (Feasibility, approximation_ratio, decode,
                               partition_feasibility, repair)
from qubopart.graph import Graph, Partition, balance_bounds, cut_edges
from qubopart.anneal import AnnealConfig, _balanced_initial_bits, solve
from qubopart.qubo import (build_bipartition_qubo, build_kway_qubo, parse_qubo_text,
                           write_qubo_text)

import reference
from conftest import gnp_graph, planted_graph, small_corpus


def test_partition_feasibility_bipartition():
    ok = partition_feasibility(Partition.from_labels([0, 0, 0, 1, 1], 2))
    assert ok.feasible and ok.part_sizes == (3, 2)
    # orientation free: the mirror image is just as balanced
    assert partition_feasibility(Partition.from_labels([1, 1, 1, 0, 0], 2)).feasible
    bad = partition_feasibility(Partition.from_labels([0, 0, 0, 0, 1], 2))
    assert not bad.feasible and bad.one_hot_ok


def test_partition_feasibility_kway_lower_bound():
    p = Partition.from_labels([0, 0, 0, 1, 1, 1, 2, 2, 2], 3)
    assert partition_feasibility(p).feasible
    q = Partition.from_labels([0, 0, 0, 0, 1, 1, 1, 1, 2], 3)
    r = partition_feasibility(q)
    assert not r.feasible and r.part_sizes == (4, 4, 1)


def test_decode_bipartition_layout():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    m = build_bipartition_qubo(g, 0.5)  # upper 4, slack present
    bits = np.zeros(m.num_vars, dtype=np.int8)
    bits[0] = bits[2] = 1
    p, feas = decode(m, bits)
    assert list(p.labels) == [1, 0, 1, 0, 0]
    assert feas.feasible and feas.one_hot_ok


def test_decode_one_hot_flags():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    m = build_kway_qubo(g, 3)
    bits = np.zeros(m.num_vars, dtype=np.int8)
    bits[0 * 3 + 2] = 1          # vertex 0 in part 2
    bits[1 * 3 + 0] = bits[1 * 3 + 1] = 1  # vertex 1 doubly assigned
    p, feas = decode(m, bits)    # vertex 2 unassigned
    assert list(p.labels) == [2, 0, 0]
    assert not feas.one_hot_ok

    good = np.zeros(m.num_vars, dtype=np.int8)
    for v, part in enumerate((0, 1, 2)):
        good[v * 3 + part] = 1
    _, feas2 = decode(m, good)
    assert feas2.one_hot_ok and feas2.feasible


def test_decode_one_hot_at_k2():
    # the one-hot model at k=2 has two indicators per vertex, unlike the
    # bipartition model, and decodes through the one-hot rule
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    m = build_kway_qubo(g, 2, 0.5)
    bits = np.zeros(m.num_vars, dtype=np.int8)
    bits[0 * 2 + 0] = bits[0 * 2 + 1] = 1  # vertex 0 in both parts
    bits[1 * 2 + 1] = bits[2 * 2 + 0] = 1
    p, feas = decode(m, bits)
    assert list(p.labels) == [0, 1, 0]
    assert not feas.one_hot_ok
    bits[0 * 2 + 0] = 0
    p, feas = decode(m, bits)
    assert list(p.labels) == [1, 1, 0] and feas.one_hot_ok


def test_text_model_cannot_be_decoded():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    for m in (build_bipartition_qubo(g, 0.5), build_kway_qubo(g, 2)):
        parsed = parse_qubo_text(write_qubo_text(m))
        with pytest.raises(ValueError):
            decode(parsed, np.zeros(parsed.num_vars, dtype=np.int8))
        with pytest.raises(ValueError):
            _balanced_initial_bits(parsed, np.random.RandomState(0))


def test_decode_validation():
    g = Graph.from_edges(3, [(0, 1)])
    m = build_bipartition_qubo(g)
    with pytest.raises(ValueError, match="length"):
        decode(m, np.zeros(m.num_vars + 1, dtype=np.int8))


def test_repair_documented_example():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    fixed = repair(g, Partition.from_labels([0] * 5, 2))
    assert partition_feasibility(fixed).feasible
    assert sorted(fixed.part_sizes()) == [2, 3]


def test_repair_noop_when_feasible():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    p = Partition.from_labels([0, 0, 1, 1], 2)
    assert list(repair(g, p).labels) == [0, 0, 1, 1]


def test_repair_prefers_cheapest_move():
    # vertex 4 has no neighbors in the overfull part so it moves first; the
    # second move breaks the clique tie toward vertex 0
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3)])
    p = Partition.from_labels([0, 0, 0, 0, 0, 1], 2)
    fixed = repair(g, p)
    assert list(fixed.labels) == [1, 0, 0, 0, 1, 1]


def test_repair_tie_breaks_to_lowest_vertex():
    g = Graph.from_edges(4, [])
    fixed = repair(g, Partition.from_labels([0, 0, 0, 1], 2))
    assert list(fixed.labels) == [1, 0, 0, 1]


def test_repair_random_corpus_properties():
    rng = np.random.RandomState(55)
    for g in small_corpus(seed=17, count=12, n_max=12):
        for k, epsilon in ((2, 0.0), (2, 0.25), (3, 0.34)):
            if k == 3 and g.n < 3:
                continue
            labels = rng.randint(0, k, size=g.n)
            p = Partition.from_labels(labels.tolist(), k)
            lower, upper = balance_bounds(g.n, k, epsilon)
            assert k * upper >= g.n and k * lower <= g.n
            fixed = repair(g, p, epsilon=epsilon)
            assert partition_feasibility(fixed, epsilon).feasible
            if partition_feasibility(p, epsilon).feasible:
                assert cut_edges(g, fixed.labels) == cut_edges(g, p.labels)


def test_repair_fills_kway_lower_bound():
    g = gnp_graph(9, 0.4, np.random.RandomState(3))
    p = Partition.from_labels([0] * 9, 3)
    fixed = repair(g, p)
    assert fixed.part_sizes() == [3, 3, 3]


def test_repair_meets_the_fallback_lower_bound():
    # 4 parts of ceil(5/4) = 2 do not fit in 5 vertices, so the lower bound
    # is max(0, 5 - 3 * 2) = 0 and sizes (2, 1, 1, 1) already meet it; from
    # (3, 1, 1, 0) the overfull part 0 gives one vertex to the empty part 3
    g = Graph.from_edges(5, [(0, 1)])
    assert balance_bounds(g.n, 4, 0.0) == (0, 2)
    for labels, sizes in (([0, 1, 2, 3, 0], [2, 1, 1, 1]), ([0, 0, 0, 1, 2], [2, 1, 1, 1])):
        p = Partition.from_labels(labels, 4)
        fixed = repair(g, p, epsilon=0.0)
        assert fixed == reference.repair(g, p, epsilon=0.0)
        assert fixed.part_sizes() == sizes
        assert partition_feasibility(fixed, 0.0).feasible


def test_repair_label_length_mismatch():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError, match="labels"):
        repair(g, Partition.from_labels([0, 1], 2))


def test_repair_rejects_label_outside_k():
    path = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    with pytest.raises(ValueError, match=r"label 2 at vertex 2 outside range\(2\)"):
        repair(path, Partition.from_labels([0, 1, 2, 3, 3, 3], 4), k=2)


def _repair_outcome(fn, g, p, k, epsilon):
    """Repaired labels, or the type and message of the exception raised."""
    try:
        return fn(g, p, k, epsilon).labels
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _repair_labels(rng: np.random.RandomState, style: str, n: int, k: int) -> np.ndarray:
    labels = rng.randint(0, k, size=n)
    if style == "skewed":
        labels[rng.random_sample(n) < 0.5] = int(rng.randint(k))
    elif style == "one-part":
        labels[:] = int(rng.randint(k))
    elif style == "lower-only" and n >= k:
        # part 0 emptied into the others: at a wide epsilon only its lower bound breaks
        labels = np.arange(n) % k
        labels[labels == 0] = 1 + rng.randint(0, k - 1, size=int((labels == 0).sum()))
        rng.shuffle(labels)
    elif style == "several-over":
        # every vertex in half the parts (two at least), which mostly start above upper
        parts = rng.choice(k, size=max(2, k // 2), replace=False)
        labels = parts[rng.randint(0, len(parts), size=n)]
    elif style == "emptied" and k > 2:
        # some parts emptied into one other: its excess may not refill them,
        # so the lower-bound phase follows the upper one
        order = rng.permutation(k)
        gone, into = order[:rng.randint(1, k - 1)], order[-1]
        labels[np.isin(labels, gone)] = into
    return labels


def test_repair_matches_reference():
    """The heap-driven repair makes the reference loop's moves, in its order.

    k in 2..8, n up to 300, epsilon in {0, 0.03, 0.2, 0.5}: random labels,
    labels skewed into one part, all in one part, half the parts above
    ``upper`` at once, emptied parts, inputs that only break a k > 2 lower
    bound, windows whose lower bound is ``n - (k-1) * upper``, edgeless
    graphs and isolated vertices.  The reference's own
    record of its moves shows that runs occur where several parts are
    sources at once, where a part leaves the source list while others stay,
    and where the k > 2 lower-bound phase follows the upper one.
    """
    rng = np.random.RandomState(7)
    styles = ("uniform", "skewed", "one-part", "lower-only", "several-over", "emptied")
    seen = dict.fromkeys(styles + ("edgeless", "isolated", "fallback", "k>5", "n>100",
                                   "several-sources", "source-left", "lower-first",
                                   "upper-then-lower"), 0)
    for case in range(960):
        n = int(rng.randint(61, 301)) if rng.random_sample() < 0.25 else int(rng.randint(1, 61))
        k = int(rng.randint(2, 9))
        epsilon = (0.0, 0.03, 0.2, 0.5)[case % 4]
        style = styles[case // 4 % len(styles)]
        density = float(rng.choice([0.0, 0.03, 0.1, 0.3, 0.7]))
        g = gnp_graph(n, min(density, 12.0 / n), rng)  # mean degree at most 12
        labels = _repair_labels(rng, style, n, k)
        p = Partition.from_labels(labels.tolist(), k)
        moves: list = []
        want = _repair_outcome(lambda *a: reference.repair(*a, moves=moves), g, p, k, epsilon)
        got = _repair_outcome(repair, g, p, k, epsilon)
        assert got == want, (case, n, k, epsilon, style)
        assert not isinstance(got[0], type), (case, got)  # every window can be met

        phases = [phase for phase, _ in moves]
        seen[style] += 1
        seen["edgeless"] += g.m == 0
        seen["isolated"] += bool(g.m) and bool((np.diff(g.indptr) == 0).any())
        # k parts of ceil((1-eps) * ceil(n/k)) do not fit, so the window's
        # lower bound is the one left when every other part is full
        ceil_nk = -(-n // k)
        seen["fallback"] += (k > 2 and len(moves) > 0
                             and k * math.ceil((1 - Fraction(str(epsilon))) * ceil_nk) > n)
        seen["k>5"] += k > 5 and len(moves) > 0
        seen["n>100"] += n > 100 and len(moves) > 0
        seen["several-sources"] += any(len(sources) > 1 for _, sources in moves)
        seen["source-left"] += any(set(a[1]) - set(b[1]) for a, b in zip(moves, moves[1:]))
        seen["lower-first"] += phases[:1] == ["lower"]
        seen["upper-then-lower"] += "upper" in phases and phases[-1] == "lower"
    assert min(seen.values()) >= 20, seen


def test_repair_matches_reference_on_planted_graph():
    rng = np.random.RandomState(11)
    g = planted_graph(4000, 4, 8, 2, rng)
    labels = rng.randint(0, 4, size=g.n)
    labels[rng.random_sample(g.n) < 0.3] = 0
    p = Partition.from_labels(labels.tolist(), 4)
    fixed = repair(g, p, 4, 0.03)
    assert fixed == reference.repair(g, p, 4, 0.03)
    assert sum(a != b for a, b in zip(fixed.labels, p.labels)) > 500


def test_repair_matches_reference_on_decoded_solve():
    """Labels as the benchmark's repair workload sees them: a short solve of
    the one-hot model from a random start, decoded with one-hot violations."""
    g = planted_graph(4000, 4, 8, 2, np.random.RandomState(12))
    model = build_kway_qubo(g, 4, 0.03)
    result = solve(model, AnnealConfig(sweeps=50, seed=3))
    p, feas = decode(model, result.best_bits)
    assert not feas.one_hot_ok and not feas.balance_ok
    moves: list = []
    fixed = repair(g, p, 4, 0.03)
    assert fixed == reference.repair(g, p, 4, 0.03, moves=moves)
    assert len(moves) > 1000


def test_approximation_ratio():
    assert approximation_ratio(613, 596) == pytest.approx(1.0285, abs=1e-4)
    assert approximation_ratio(10, 10) == 1.0
    with pytest.raises(ValueError):
        approximation_ratio(5, 0)
    with pytest.raises(ValueError):
        approximation_ratio(-1, 5)


def test_feasibility_dataclass():
    f = Feasibility(one_hot_ok=True, balance_ok=False, part_sizes=(4, 1))
    assert not f.feasible
    assert Feasibility(True, True, (2, 3)).feasible
