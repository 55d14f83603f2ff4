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
    assert report.decoded_feasible
    assert report.cut_raw == report.cut == cut_edges(g, report.partition)
    assert report.penalty == default_penalty(g)
    assert report.result.sweeps_done == 200
    assert report.repair_moves == 0


def test_infeasible_decode_is_repaired():
    # a few sweeps from a random start leave one-hot and balance broken
    g = gnp_graph(20, 0.3, np.random.RandomState(3))
    report = partition(g, 4, 0.0, AnnealConfig(sweeps=5, replicas=1, seed=0,
                                               balanced_init=False))
    assert not report.decoded_feasible
    assert partition_feasibility(report.partition, 0.0).feasible
    assert report.cut == cut_edges(g, report.partition)
    decoded, _ = decode(build_kway_qubo(g, 4), report.result.best_bits)
    assert report.cut_raw == cut_edges(g, decoded)
    moved = sum(a != b for a, b in zip(decoded.labels, report.partition.labels))
    assert report.repair_moves == moved > 0


def test_unsatisfiable_bounds_reported_after_one_solve(monkeypatch):
    solves = []
    real_solve = pipeline.solve
    monkeypatch.setattr(pipeline, "solve",
                        lambda model, cfg: solves.append(model) or real_solve(model, cfg))
    # four parts of ceil(0.97 * 3) = 3 do not fit in 10 vertices, so each
    # part holds between 10 - 3 * 3 = 1 and 3
    cycle = Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)])
    report = partition(cycle, 4, 0.03, AnnealConfig(sweeps=50, replicas=1))
    assert len(solves) == 1
    assert all(1 <= size <= 3 for size in report.partition.part_sizes())
    assert partition_feasibility(report.partition, 0.03).feasible
    assert report.cut == cut_edges(cycle, report.partition)
    assert isinstance(report.cut_raw, int)
