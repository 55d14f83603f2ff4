"""The traced benchmark wraps package functions by name; those names must resolve,
and a traced partition must count the model it built."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import qubopart as qp

from conftest import planted_graph

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

# 10-cycle in METIS text: vertex i is adjacent to i-1 and i+1 (1-indexed)
CYCLE10 = "10 10\n" + "".join(f"{(i - 1) % 10 + 1} {(i + 1) % 10 + 1}\n" for i in range(10))


def _load_layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _wrapped_functions(layers):
    return [getattr(importlib.import_module(modname), attr)
            for modname, attr, *_ in layers.WRAPPED]


def test_traced_names_resolve_to_callables(monkeypatch):
    layers = _load_layers(monkeypatch)
    assert layers.WRAPPED
    for modname, attr, *_ in layers.WRAPPED:
        assert callable(getattr(importlib.import_module(modname), attr, None)), \
            f"{modname}.{attr}"


def test_traced_partition_counts_model(monkeypatch):
    layers = _load_layers(monkeypatch)
    originals = _wrapped_functions(layers)
    tracer = layers.Tracer()
    tracer.begin_partition(0)
    tracer.install()
    try:
        # the public names and call sequence of perfbench/run.py:partition
        g = qp.parse_metis(CYCLE10)
        model = qp.build_kway_qubo(g, 3, 0.5)
        result = qp.solve(model, qp.AnnealConfig(sweeps=50, seed=0, balanced_init=True))
        part, feas = qp.decode(model, result.best_bits)
        if not feas.feasible:
            part = qp.repair(g, part, 3, 0.5)
        qp.cut_edges(g, part)
    finally:
        tracer.uninstall()
    assert all(now is was for now, was in zip(_wrapped_functions(layers), originals))

    counts = tracer.counts[0]
    n_ind = model.indicators.size  # 10 vertices x 3 parts
    assert n_ind == 30
    # one one-hot chain per vertex and one balance chain per part; each
    # indicator sits in two chains, each slack bit in one
    assert counts["qubo.num_chains"] == len(model.chains) == 10 + 3
    assert counts["qubo.chain_terms"] == 2 * n_ind + (model.num_vars - n_ind)
    assert counts["anneal.memberships"] == counts["qubo.chain_terms"]
    assert counts["qubo.models"] == counts["anneal.compiles"] == counts["evaluate.decodes"] == 1
    assert counts["anneal.sweeps"] == 50


def test_traced_pipeline_counts_are_ints_and_repeat(monkeypatch):
    # the traced run writes each pass's counts with json.dumps and fails when
    # its two passes count differently: a pipeline of 3 repeats, run twice
    # as perfbench/run.py:partition runs it, must count in Python ints, the
    # same both times; so must a solve's counts
    layers = _load_layers(monkeypatch)
    tracer = layers.Tracer()
    g = qp.parse_metis(qp.write_metis(planted_graph(120, 2, 7, 2, np.random.RandomState(5))))
    cfg = qp.AnnealConfig(sweeps=100, seed=3, balanced_init=True)
    for pid in (0, 1, 2):
        tracer.begin_partition(pid)
        tracer.install()
        try:
            if pid < 2:
                qp.run_sparsify_pipeline(g, 2, 0.0, cfg, seed=3, keep_ratio=0.7, walks=10,
                                         repeats=3)
            else:
                qp.solve(qp.build_bipartition_qubo(g), cfg)
        finally:
            tracer.uninstall()
    counts = [layers.pass_counts(tracer, [pid]) for pid in (0, 1, 2)]
    assert counts[0] == counts[1]
    for key in ("anneal.compiles", "anneal.csr_nnz", "anneal.memberships",
                "sparsify.burned_edges", "sparsify.kept_edges"):
        assert counts[0][key] > 0, key
    for key in ("anneal.compiles", "anneal.csr_nnz", "anneal.memberships", "anneal.sweeps",
                "anneal.flips", "qubo.models"):
        assert counts[2][key] > 0, key
    assert all(type(value) is int for c in counts for value in c.values()), counts
    json.dumps(counts)
