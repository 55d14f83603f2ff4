import numpy as np

import qubopart.pipeline as pipeline
from qubopart.anneal import AnnealConfig
from qubopart.evaluate import decode, partition_feasibility
from qubopart.graph import Graph, cut_edges
from qubopart.pipeline import partition
from qubopart.qubo import build_kway_qubo, default_penalty

from conftest import gnp_graph


def test_feasible_decode_is_not_repaired():
    g = gnp_graph(12, 0.35, np.random.RandomState(42))
    report = partition(g, 2, 0.0, AnnealConfig(sweeps=200, replicas=2, seed=0))
    assert report.decoded_feasible and report.error == ""
    assert report.cut_raw == report.cut == cut_edges(g, report.partition)
    assert report.penalty == default_penalty(g)
    assert report.result.sweeps_done == 200


def test_infeasible_decode_is_repaired():
    # a few sweeps from a random start leave one-hot and balance broken
    g = gnp_graph(20, 0.3, np.random.RandomState(3))
    report = partition(g, 4, 0.0, AnnealConfig(sweeps=5, replicas=1, seed=0,
                                               balanced_init=False))
    assert not report.decoded_feasible and report.error == ""
    assert partition_feasibility(report.partition, 0.0).feasible
    assert report.cut == cut_edges(g, report.partition)
    decoded, _ = decode(build_kway_qubo(g, 4), report.result.best_bits)
    assert report.cut_raw == cut_edges(g, decoded)


def test_unsatisfiable_bounds_reported_after_one_solve(monkeypatch):
    solves = []
    real_solve = pipeline.solve
    monkeypatch.setattr(pipeline, "solve",
                        lambda model, cfg: solves.append(model) or real_solve(model, cfg))
    cycle = Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)])
    report = partition(cycle, 4, 0.03, AnnealConfig(sweeps=50, replicas=1))
    assert len(solves) == 1
    assert report.partition is None and report.cut is None
    assert isinstance(report.cut_raw, int) and not report.decoded_feasible
    assert "4 parts of at least 3 need more than 10 vertices" in report.error
