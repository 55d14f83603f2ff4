"""A solve's replicas split across forked worker processes.

The results are compared with the same solve pinned to one worker, which
runs every replica in this process and forks nothing.  Each test ends with
no child process of this one left.
"""

import os
import time

import numpy as np
import pytest

import qubopart.anneal as anneal
from qubopart.anneal import AnnealConfig, solve
from qubopart.qubo import QuboModel, build_bipartition_qubo, build_kway_qubo

from conftest import gnp_graph, grid_graph


def _chainless_model():
    rng = np.random.RandomState(8)
    nv = 24
    i, j = np.triu_indices(nv, 1)
    keep = rng.random_sample(len(i)) < 0.2
    return QuboModel.from_triples(nv, rng.standard_normal(nv), i[keep], j[keep],
                                  rng.standard_normal(int(keep.sum())), base_constant=0.5)


_G = gnp_graph(14, 0.35, np.random.RandomState(21))
MODELS = {
    "k2": build_bipartition_qubo(_G, 0.2),
    "k3": build_kway_qubo(_G, 3, 0.25),
    "k4": build_kway_qubo(_G, 4, 0.3),
    "zero-gain": QuboModel.from_triples(5, np.zeros(5), [], [], []),
    "chainless": _chainless_model(),
}


def _fields(res):
    trace = None if res.energy_trace is None else res.energy_trace.tobytes()
    return (res.best_bits.tobytes(), res.best_bits.dtype, res.best_energy.hex(), res.flips,
            res.replica_id, res.sweeps_done, trace)


def _workers(monkeypatch, count):
    """Run every solve on at most ``count`` workers, whatever the CPUs."""
    monkeypatch.setattr(anneal, "_worker_count", lambda replicas: min(replicas, count))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("replicas", [2, 3, 5, 8])
@pytest.mark.parametrize("name", MODELS)
def test_parallel_equals_serial(monkeypatch, name, replicas):
    model = MODELS[name]
    cfg = AnnealConfig(sweeps=150, replicas=replicas, seed=replicas, trace_every=3,
                       balanced_init=name.startswith("k"))
    got = {None: _fields(solve(model, cfg))}  # as many workers as the CPUs allow
    for count in (1, 2, 3, replicas):  # 1 forks nothing; 2 and 3 give uneven shares
        _workers(monkeypatch, count)
        got[count] = _fields(solve(model, cfg))
    assert all(fields == got[1] for fields in got.values())
    _assert_no_child_left()


def test_one_fork_per_worker_past_the_first(monkeypatch):
    model = MODELS["k3"]
    cfg = AnnealConfig(sweeps=100, replicas=5, seed=2)
    forked, fork = [], os.fork
    fork_map, run_share = anneal._fork_map, anneal._run_share
    shares = []

    def counted():
        pid = fork()
        forked.append(pid)  # in the child, to its own copy of the list
        return pid

    def share_named(model, cm, cfg, first, step, deadline):
        return (first, step), run_share(model, cm, cfg, first, step, deadline)

    def shares_named(share, workers, items, noun):
        # each worker's share says which replicas it ran, from its own process
        out = fork_map(share, workers, items, noun)
        shares.append([name for name, _ in out])
        return [result for _, result in out]

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(anneal, "_run_share", share_named)
    monkeypatch.setattr(anneal, "_fork_map", shares_named)
    for count in (1, 2, 3):
        _workers(monkeypatch, count)
        forked.clear()
        shares.clear()
        solve(model, cfg)
        assert len(forked) == count - 1 and all(forked)
        assert shares == [[(w, count) for w in range(count)]]
    _assert_no_child_left()


def _failing_share(monkeypatch, failing_first, fail):
    run_share = anneal._run_share

    def share(model, cm, cfg, first, step, deadline):
        if first == failing_first:
            fail()
        return run_share(model, cm, cfg, first, step, deadline)

    monkeypatch.setattr(anneal, "_run_share", share)


def test_child_exception_is_raised_again(monkeypatch):
    _workers(monkeypatch, 3)

    def fail():
        raise KeyError("share 2")

    _failing_share(monkeypatch, 2, fail)
    with pytest.raises(KeyError, match="share 2") as info:
        solve(MODELS["k2"], AnnealConfig(sweeps=50, replicas=5, seed=1))
    # the child's traceback comes with it, naming the replicas of its share
    assert "replicas 2" in str(info.value.__cause__)
    assert "KeyError" in str(info.value.__cause__)
    _assert_no_child_left()


def test_child_exception_that_does_not_pickle_comes_back_as_its_text(monkeypatch):
    class LocalError(Exception):  # a local class does not pickle
        pass

    def fail():
        raise LocalError("not picklable")

    _workers(monkeypatch, 2)
    _failing_share(monkeypatch, 1, fail)
    with pytest.raises(RuntimeError, match="LocalError: not picklable"):
        solve(MODELS["k2"], AnnealConfig(sweeps=50, replicas=2, seed=1))
    _assert_no_child_left()


def test_child_that_dies_without_a_result(monkeypatch):
    _workers(monkeypatch, 2)
    _failing_share(monkeypatch, 1, lambda: os._exit(7))
    with pytest.raises(RuntimeError, match=r"replicas 1, 3 sent no result \(exit code 7\)"):
        solve(MODELS["k2"], AnnealConfig(sweeps=50, replicas=4, seed=1))
    _assert_no_child_left()


def test_error_in_the_calling_process_share_ends_the_children(monkeypatch):
    # the children's shares would run for a minute: they are killed, not waited for
    _workers(monkeypatch, 3)

    def fail():
        raise ValueError("own share")

    _failing_share(monkeypatch, 0, fail)
    cfg = AnnealConfig(sweeps=10 ** 7, replicas=3, seed=1, time_limit=60.0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="own share"):
        solve(build_bipartition_qubo(grid_graph(12, 16)), cfg)
    assert time.perf_counter() - start < 10.0
    _assert_no_child_left()


def test_worker_count_follows_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert [anneal._worker_count(r) for r in (1, 2, 3, 8)] == [1, 2, 3, 3]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert anneal._worker_count(8) == 1
    # with the CPUs unreadable nothing forks, and the result is the same
    model, cfg = MODELS["k4"], AnnealConfig(sweeps=80, replicas=3, seed=4, trace_every=1)
    serial = _fields(solve(model, cfg))
    monkeypatch.undo()
    assert _fields(solve(model, cfg)) == serial
