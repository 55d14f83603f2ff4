import hashlib
import math
import sys
from collections import Counter

import numpy as np
import pytest

from qubopart.anneal import AnnealConfig
from qubopart.evaluate import partition_feasibility
from qubopart.graph import Graph, Partition, cut_edges
from qubopart.sparsify import (forest_fire_scores, project_partition,
                               run_sparsify_pipeline, sparsify)

import reference
from conftest import bipartition_optimum, gnp_graph, grid_graph, planted_graph

# the package attribute qubopart.sparsify is the function, not the module
sparsify_module = sys.modules["qubopart.sparsify"]


def test_scores_deterministic_and_bounded():
    g = gnp_graph(20, 0.3, np.random.RandomState(1))
    a = forest_fire_scores(g, seed=4)
    b = forest_fire_scores(g, seed=4)
    assert np.array_equal(a.scores, b.scores)
    assert a.scores.shape == (g.m,)
    # each walk burns every vertex at most once, so an edge scores <= walks
    assert a.scores.min() >= 0 and a.scores.max() <= a.walks


def test_scores_validation():
    g = gnp_graph(6, 0.5, np.random.RandomState(0))
    with pytest.raises(ValueError, match="burn"):
        forest_fire_scores(g, burn_probability=1.0)
    with pytest.raises(ValueError, match="walk"):
        forest_fire_scores(g, walks=0)
    with pytest.raises(ValueError, match=r"walks must be an integer, got 2\.5"):
        forest_fire_scores(g, walks=2.5)
    assert np.array_equal(forest_fire_scores(g, walks=np.int64(2)).scores,
                          forest_fire_scores(g, walks=2).scores)


def test_zero_burn_probability_scores_nothing():
    g = gnp_graph(10, 0.5, np.random.RandomState(2))
    scores = forest_fire_scores(g, burn_probability=0.0, walks=3, seed=1)
    # geometric(1.0) is always 1, so the fan-out is zero and no edge burns
    assert scores.scores.sum() == 0


def test_sparsify_keeps_rounded_fraction():
    g = gnp_graph(12, 0.5, np.random.RandomState(3))
    scores = forest_fire_scores(g, seed=0)
    for ratio in (0.0, 0.3, 0.7, 1.0):
        sparse = sparsify(g, scores, ratio)
        assert sparse.m == round(ratio * g.m)
        assert sparse.n == g.n
        assert set(sparse.edges) <= set(g.edges)
    full = sparsify(g, scores, 1.0)
    assert full.edges == g.edges


@pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0])
def test_sparsify_csr_equals_from_edges(ratio):
    # the sparsified graph must be the graph from_edges builds from the kept
    # edges, isolated vertices included
    rng = np.random.RandomState(8)
    g = Graph.from_edges(30, [(u + 3, v + 3) for u, v in gnp_graph(24, 0.3, rng).edges])
    assert (g.degrees[:3] == 0).all() and g.m > 0
    graphs = [g, Graph.from_edges(5, []), Graph.from_edges(0, [])]
    for graph in graphs:
        scores = forest_fire_scores(graph, seed=4)
        sparse = sparsify(graph, scores, ratio)
        order = np.argsort(-scores.scores, kind="stable")[:round(ratio * graph.m)]
        want = Graph.from_edges(graph.n, graph.edge_array[np.sort(order)])
        assert sparse.n == want.n and sparse.name == graph.name
        for got, exp in ((sparse.indptr, want.indptr), (sparse.indices, want.indices)):
            assert got.dtype == exp.dtype == np.int64 and np.array_equal(got, exp)
            assert not got.flags.writeable
        assert sparse.edges == want.edges


def test_sparsify_prefers_higher_scores():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    scores = forest_fire_scores(g, seed=5)
    object.__setattr__(scores, "scores", np.array([5, 1, 3]))
    sparse = sparsify(g, scores, 0.67)  # keeps round(2.01) = 2 edges
    assert sparse.edges == ((0, 1), (2, 3))


def test_sparsify_keeps_the_stable_argsort_order_under_ties():
    # few distinct scores, so nearly every cut-off falls inside a tie; the
    # kept set must be the head of the stable argsort of -score
    rng = np.random.RandomState(21)
    g = planted_graph(300, 2, 6, 2, rng)
    scores = forest_fire_scores(g, seed=3)
    for values in (rng.randint(0, 3, size=g.m), np.zeros(g.m, dtype=np.int64),
                   rng.randint(0, 2, size=g.m) * 10**12, scores.scores):
        object.__setattr__(scores, "scores", values.astype(np.int64))
        for ratio in (0.0, 0.25, 0.5, 0.61, 0.9, 1.0):
            order = np.argsort(-scores.scores, kind="stable")[:round(ratio * g.m)]
            want = Graph.from_edges(g.n, g.edge_array[order])
            sparse = sparsify(g, scores, ratio)
            assert np.array_equal(sparse.indptr, want.indptr)
            assert np.array_equal(sparse.indices, want.indices)


def test_sparsify_validation():
    g = gnp_graph(5, 0.5, np.random.RandomState(1))
    scores = forest_fire_scores(g, seed=0)
    with pytest.raises(ValueError, match="keep ratio"):
        sparsify(g, scores, 1.5)
    other = forest_fire_scores(gnp_graph(9, 0.5, np.random.RandomState(2)), seed=0)
    with pytest.raises(ValueError, match="aligned"):
        sparsify(g, other, 0.5)
    counts = scores.scores
    object.__setattr__(scores, "scores", counts + 0.5)
    with pytest.raises(ValueError, match="integer counts, got dtype float64"):
        sparsify(g, scores, 0.5)
    # narrow and unsigned counts keep the int64 counts' edges
    object.__setattr__(scores, "scores", counts.astype(np.uint8))
    want = sparsify(g, forest_fire_scores(g, seed=0), 0.5)
    assert sparsify(g, scores, 0.5).edges == want.edges


def test_project_partition_counts_original_cut():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    p = Partition.from_labels([0, 0, 1, 1], 2)
    assert project_partition(g, p) == 2
    assert project_partition(g, p) == cut_edges(g, p.labels)


def test_project_partition_rejects_wrong_length():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(ValueError, match="4 vertices"):
        project_partition(g, Partition.from_labels([0, 0, 1], 2))


def test_pipeline_deterministic_and_feasible():
    g = gnp_graph(14, 0.4, np.random.RandomState(7))
    cfg = AnnealConfig(sweeps=300, replicas=2, balanced_init=True)
    a = run_sparsify_pipeline(g, 2, anneal_cfg=cfg, repeats=3, seed=9)
    b = run_sparsify_pipeline(g, 2, anneal_cfg=cfg, repeats=3, seed=9)
    assert a.projected_cuts == b.projected_cuts
    assert a.best_cut == min(a.projected_cuts)
    assert a.projected_cuts[a.best_repeat] == a.best_cut
    assert len(a.projected_cuts) == 3
    assert partition_feasibility(a.best_partition).feasible
    assert a.best_cut >= bipartition_optimum(g, 0.0)


def test_pipeline_full_keep_ratio_matches_direct_solve():
    g = gnp_graph(10, 0.4, np.random.RandomState(11))
    cfg = AnnealConfig(sweeps=500, replicas=3, balanced_init=True)
    res = run_sparsify_pipeline(g, 2, anneal_cfg=cfg, keep_ratio=1.0, repeats=2, seed=1)
    assert res.best_cut == bipartition_optimum(g, 0.0)


def test_pipeline_validation():
    g = gnp_graph(6, 0.5, np.random.RandomState(1))
    with pytest.raises(ValueError, match="repeats"):
        run_sparsify_pipeline(g, 2, repeats=0)


# SHA-256 of forest_fire_scores(...).scores.tobytes().  They pin the bulk
# draws, the burn order and the score layout bit for bit.
FIRE_GOLDEN = {
    "planted":
        "1241ed64dce28d94b80fb92514b6486eaff67594b4230e710c66178ba5497258",
    "disconnected-isolated":
        "9bd07291a6a0ba789d8a8c26f68a6dc04bb1acb1661f1e7b666ce0d804b7cbd5",
    "burn-zero":
        "d2710a3a6574fc3d509a62191d8933226f0046f7ffcd83fd8de6866684c5f73e",
    "sparsify-planted-seed0":
        "e86e699d706061d84fd072f3bcf1a0ef483fcd364159be071f73e2fadf7b4810",
    "sparsify-planted-seed1":
        "c726836abeae9b229dcdf9dcad1becb1254c28560726b9c30e94940c600b23c4",
    "sparsify-planted-seed2":
        "ad4182f5b7f040df84617b8de75a4ce698d6c10b0fdf3ca16bc4a926ab744215",
}
# SHA-256 of sparsify(g, scores, 0.7).edge_array.tobytes() for "planted"
SPARSIFY_GOLDEN = "38d65d31faa945e470a000b49840f78dd796ba6e17b0cc7647f0cb2ce903afc6"


def _fire_case(name):
    if name == "planted":
        return planted_graph(200, 4, 6, 2, np.random.RandomState(3)), {"seed": 5}
    if name == "disconnected-isolated":
        # two components and vertex 20 with no edges
        a = gnp_graph(12, 0.4, np.random.RandomState(8))
        b = gnp_graph(8, 0.5, np.random.RandomState(9))
        edges = list(map(tuple, a.edge_array.tolist()))
        edges += [(u + 12, v + 12) for u, v in b.edge_array.tolist()]
        return Graph.from_edges(21, edges), {"walks": 4, "seed": 2}
    if name == "burn-zero":
        return gnp_graph(30, 0.3, np.random.RandomState(4)), {"burn_probability": 0.0,
                                                               "walks": 3, "seed": 7}
    seed = int(name.rsplit("seed", 1)[1])
    # the size of the sparsify-planted benchmark workload
    return planted_graph(1500, 2, 7, 2, np.random.RandomState(10)), {"seed": seed}


@pytest.mark.parametrize("name", sorted(FIRE_GOLDEN))
def test_forest_fire_golden(name):
    g, kwargs = _fire_case(name)
    scores = forest_fire_scores(g, **kwargs)
    assert hashlib.sha256(scores.scores.tobytes()).hexdigest() == FIRE_GOLDEN[name]


def test_sparsify_golden():
    g, kwargs = _fire_case("planted")
    sparse = sparsify(g, forest_fire_scores(g, **kwargs), 0.7)
    assert hashlib.sha256(sparse.edge_array.tobytes()).hexdigest() == SPARSIFY_GOLDEN


# p = 1 - burn probability: 0.6666 and 0.6667 sit on either side of numpy's
# switch from the inversion (p < 1/3) to the sequential-search geometric,
# in the bulk fan-outs and in the legacy loop's scalar ones
PARITY_BURNS = (0.0, 0.2, 0.5, 0.6666, 0.6667, 0.7, 0.95)
PARITY_GRAPHS = {
    "single-vertex": lambda: Graph.from_edges(1, []),
    "edgeless": lambda: Graph.from_edges(7, []),
    "isolated": lambda: _fire_case("disconnected-isolated")[0],
    "star": lambda: Graph.from_edges(301, [(0, v) for v in range(1, 301)]),
    "planted": lambda: planted_graph(120, 3, 6, 2, np.random.RandomState(1)),
    "grid": lambda: grid_graph(30, 50),  # 1500 vertices: restarts reach deep into `order`
}


@pytest.mark.parametrize("burn", PARITY_BURNS)
@pytest.mark.parametrize("name", sorted(PARITY_GRAPHS))
def test_forest_fire_matches_scalar_draws(name, burn):
    g = PARITY_GRAPHS[name]()
    for seed in (0, 11):
        got = forest_fire_scores(g, burn, walks=3, seed=seed)
        want = reference.forest_fire_scores(g, burn, walks=3, seed=seed)
        assert np.array_equal(got.scores, want.scores), (name, burn, seed)


@pytest.mark.parametrize("burn", [0.2, 0.7])
@pytest.mark.parametrize("name", ["planted", "star"])
def test_forest_fire_matches_the_legacy_process_in_distribution(name, burn):
    # the bulk draws and the scalar-call loop draw differently but run the
    # same process: over one-walk calls, every edge's mean score and the mean
    # restart count (n minus the walk's burned edges) agree within 5 standard
    # errors
    g = PARITY_GRAPHS[name]()
    seeds = range(500)
    new = np.array([forest_fire_scores(g, burn, walks=1, seed=s).scores for s in seeds])
    old = np.array([reference.legacy_forest_fire_scores(g, burn, walks=1, seed=s).scores
                    for s in seeds])
    for a, b in ((new, old), (g.n - new.sum(axis=1, keepdims=True),
                              g.n - old.sum(axis=1, keepdims=True))):
        gap = np.abs(a.mean(axis=0) - b.mean(axis=0))
        se = np.sqrt((a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)) / len(seeds))
        assert (gap <= 5 * se).all(), (name, burn, (gap / se).max())


class TieKeys(np.random.RandomState):
    """RandomState whose randint draws are reduced mod 4, so that most of a
    vertex's arcs share their key with another arc of its row.  Patched in
    after the test graph is drawn: the graph generators would loop on it."""

    def randint(self, *args, **kwargs):
        return super().randint(*args, **kwargs) % 4


def _count_argsorts(monkeypatch):
    calls = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        calls.append(kwargs.get("kind"))
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    return calls


# vertex ids past 2**15 leave too few of an int64's 63 bits for the key
PAST_PACKING = 2**15 + 1


def _past_packing_graph():
    # the planted graph sits on the highest vertex ids, where a word that
    # packed the row above bit 47 would overflow into the sign bit; a star
    # on vertex 0 reaches across the id range
    small = planted_graph(120, 3, 6, 2, np.random.RandomState(1))
    top = PAST_PACKING - small.n
    edges = [(u + top, v + top) for u, v in small.edge_array.tolist()]
    edges += [(0, v) for v in range(1, PAST_PACKING, 997)]
    return Graph.from_edges(PAST_PACKING, edges)


@pytest.mark.parametrize("name", ["isolated", "star", "planted", "grid"])
def test_forest_fire_ties_keep_arc_order(name, monkeypatch):
    # with keys in 0..3 the packed sort must order tied arcs by arc position,
    # as the reference's sort by (key, arc) does, and the stable argsort
    # must not run at all
    g = PARITY_GRAPHS[name]()
    monkeypatch.setattr(np.random, "RandomState", TieKeys)
    argsorts = _count_argsorts(monkeypatch)
    for burn in (0.5, 0.95):
        for seed in (0, 11):
            got = forest_fire_scores(g, burn, walks=3, seed=seed)
            want = reference.forest_fire_scores(g, burn, walks=3, seed=seed)
            assert np.array_equal(got.scores, want.scores), (name, burn, seed)
    assert argsorts == []


@pytest.mark.parametrize("keys", ["unique", "ties"])
def test_forest_fire_past_the_packing_limit_runs_the_stable_argsort(keys, monkeypatch):
    g = _past_packing_graph()
    if keys == "ties":
        monkeypatch.setattr(np.random, "RandomState", TieKeys)
    argsorts = _count_argsorts(monkeypatch)
    for seed in (0, 11):
        got = forest_fire_scores(g, 0.95, walks=2, seed=seed)
        want = reference.forest_fire_scores(g, 0.95, walks=2, seed=seed)
        assert got.scores.sum() > 0 and np.array_equal(got.scores, want.scores), seed
    assert argsorts == ["stable"] * 4


@pytest.mark.parametrize("n", [0, 1, 7, PAST_PACKING])
def test_forest_fire_scores_edgeless_graphs(n):
    g = Graph.from_edges(n, [])
    got = forest_fire_scores(g, 0.7, walks=2, seed=3)
    assert got.scores.dtype == np.int64 and got.scores.shape == (0,)
    assert np.array_equal(got.scores, reference.forest_fire_scores(g, 0.7, walks=2, seed=3).scores)


def test_forest_fire_reads_each_burn_mark_once_per_restart_scan_and_arc(monkeypatch):
    # restarts continue the walk's scan of `order` where the last one stopped,
    # and a burning vertex reads each of its arcs at most once, so a walk
    # reads at most n + 2m burn marks
    reads = []

    class CountedMarks(bytearray):
        def __getitem__(self, i):
            reads.append(i)
            return super().__getitem__(i)

    monkeypatch.setattr(sparsify_module, "bytearray", CountedMarks, raising=False)
    for name in ("edgeless", "isolated", "star", "planted"):
        g = PARITY_GRAPHS[name]()
        for burn in (0.0, 0.7):
            reads.clear()
            forest_fire_scores(g, burn, walks=2, seed=1)
            assert g.n <= len(reads) <= 2 * (g.n + len(g.indices)), (name, burn)


def test_score_tally_counts_every_burn(monkeypatch):
    # the sorted tally must count each edge's burns as a per-burn count does,
    # whatever the order of the burns
    tallies = []
    score_burns = sparsify_module._score_burns

    def recorded(g, sources, walks):
        scores = score_burns(g, sources, walks)
        tallies.append((g, list(sources), walks, scores))
        return scores

    monkeypatch.setattr(sparsify_module, "_score_burns", recorded)
    for name in ("isolated", "star", "planted", "grid"):
        forest_fire_scores(PARITY_GRAPHS[name](), 0.7, walks=3, seed=2)
    for g, sources, walks, scores in tallies:
        burns = Counter((min(s, v % g.n), max(s, v % g.n))
                        for v, s in enumerate(sources) if s >= 0)
        assert sum(burns.values()) > 0
        want = [burns[e] for e in map(tuple, g.edge_array.tolist())]
        assert scores.dtype == np.int64 and scores.tolist() == want
        walks_reversed = sum((sources[w * g.n:(w + 1) * g.n] for w in reversed(range(walks))), [])
        assert np.array_equal(score_burns(g, walks_reversed, walks), scores)


@pytest.mark.parametrize("bad, match", [({"keep_ratio": 1.5}, "keep ratio"),
                                        ({"k": 1}, "k must lie in"),
                                        ({"k": 7}, "k must lie in"),
                                        ({"epsilon": -1}, "epsilon must be non-negative"),
                                        ({"penalty": -1.0}, "penalty must be finite and positive"),
                                        ({"penalty": 0.0}, "penalty must be finite and positive"),
                                        ({"penalty": math.nan}, "penalty must be finite and positive"),
                                        ({"penalty": math.inf}, "penalty must be finite and positive"),
                                        ({"walks": 0}, "walk count"),
                                        ({"burn_probability": 1.0}, "burn probability"),
                                        ({"walks": 2.5}, r"walks must be an integer, got 2\.5"),
                                        ({"repeats": 2.0}, r"repeats must be an integer, got 2\.0")])
def test_pipeline_checks_its_arguments_before_the_first_fire(bad, match, monkeypatch):
    def no_fire(*args, **kwargs):
        raise AssertionError("forest_fire_scores called")

    def no_fork(*args):
        raise AssertionError("_fork_map called")

    monkeypatch.setattr(sparsify_module, "forest_fire_scores", no_fire)
    monkeypatch.setattr(sparsify_module.anneal, "_fork_map", no_fork)
    g = gnp_graph(6, 0.5, np.random.RandomState(1))
    args = {"k": 2, "epsilon": 0.0, "keep_ratio": 0.7, "repeats": 2} | bad
    with pytest.raises(ValueError, match=match):
        run_sparsify_pipeline(g, args.pop("k"), **args)
