"""The sparsify pipeline's repeats split across forked worker processes.

The worker count is forced through the set of usable CPUs, which leaves
:func:`qubopart.anneal._worker_count`'s own rule for nested maps in place:
a pipeline of W workers forks each repeat's replicas onto ``cpus // W``.
The results are compared with the pipeline on one worker, which runs every
repeat in this process and forks nothing.  Each test ends with no child
process of this one left.
"""

import os
import signal
import sys
import threading

import numpy as np
import pytest

import qubopart.anneal as anneal
from qubopart.anneal import AnnealConfig, _derive_seed
from qubopart.qubo import ChainSet
from qubopart.sparsify import run_sparsify_pipeline

from conftest import planted_graph

# the package attribute qubopart.sparsify is the function, not the module
sparsify_module = sys.modules["qubopart.sparsify"]

REPEATS = 4
_FORK_MAP = anneal._fork_map
_G = planted_graph(60, 3, 6, 2, np.random.RandomState(5))


def _cpus(monkeypatch, count):
    """Let this process run on ``count`` CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _solve_fields(res):
    trace = None if res.energy_trace is None else res.energy_trace.tobytes()
    return (res.best_bits.tobytes(), res.best_energy.hex(), res.flips, res.replica_id,
            res.sweeps_done, trace)


def _run(monkeypatch, k, replicas):
    """The pipeline's result fields, and every repeat's report in repeat order."""
    shares = []

    def recorded(share, workers, items, noun):
        out = _FORK_MAP(share, workers, items, noun)
        if noun == "repeats":
            shares.append(out)
        return out

    monkeypatch.setattr(anneal, "_fork_map", recorded)
    cfg = AnnealConfig(sweeps=120, replicas=replicas, balanced_init=True, trace_every=7)
    res = run_sparsify_pipeline(_G, k, 0.1, cfg, keep_ratio=0.6, walks=3,
                                repeats=REPEATS, seed=17)
    (out,) = shares
    workers = len(out)
    reports = [out[rep % workers][rep // workers] for rep in range(REPEATS)]
    assert [cut for _, cut in reports] == res.projected_cuts
    fields = (res.best_cut, res.best_partition.labels, res.best_repeat, res.projected_cuts,
              res.penalty.hex())
    per_repeat = [(_solve_fields(report.result), report.partition.labels, report.cut_raw,
                   report.cut, report.repair_moves, report.penalty.hex())
                  for report, _ in reports]
    return workers, fields, per_repeat


@pytest.mark.parametrize("replicas", [1, 3])
@pytest.mark.parametrize("k", [2, 3])
def test_parallel_equals_serial(monkeypatch, k, replicas):
    got = {None: _run(monkeypatch, k, replicas)}  # as many workers as the CPUs allow
    for count in (1, 2, 3, REPEATS):  # 2 and 3 give uneven shares
        _cpus(monkeypatch, count * replicas)  # room for count repeats' replicas
        got[count] = _run(monkeypatch, k, replicas)
        assert got[count][0] == count
    serial = got[1][1:]
    assert all(out[1:] == serial for out in got.values())
    _assert_no_child_left()


def test_fork_map_shares_its_cpus_between_its_workers(monkeypatch):
    _cpus(monkeypatch, 8)
    for workers, each in ((2, 4), (3, 2), (9, 1)):
        got = anneal._fork_map(lambda w: (w, anneal._worker_count(8)), workers, workers, "items")
        assert got == [(w, each) for w in range(workers)]
        assert anneal._worker_count(8) == 8  # the map is over
    _assert_no_child_left()


def test_fork_maps_in_two_threads_leave_each_other_alone(monkeypatch):
    # thread a's map starts first and ends first, while thread b's runs: a
    # CPU count shared by the threads would be halved twice, and left halved
    # by b, which found it so
    _cpus(monkeypatch, 4)
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def run(name, enter, wait_for, leave):
        def share(w):
            if w == 0:
                enter.set()
                assert wait_for.wait(30)
                seen[name] = anneal._worker_count(8)
            return w

        seen[name + " map"] = anneal._fork_map(share, 2, 2, "items")
        seen[name + " after"] = anneal._worker_count(8)
        if leave is not None:
            leave.set()

    a = threading.Thread(target=run, args=("a", a_in, b_in, a_out))
    b = threading.Thread(target=run, args=("b", b_in, a_out, None))
    a.start()
    assert a_in.wait(30)
    b.start()
    for th in (a, b):
        th.join(30)
        assert not th.is_alive()
    assert seen == {"a": 2, "b": 2, "a map": [0, 1], "b map": [0, 1],
                    "a after": 4, "b after": 4}
    assert anneal._worker_count(8) == 4
    _assert_no_child_left()


def test_pipelines_in_threads_match_one_worker(monkeypatch):
    # more threads than CPUs, each forking its repeats and their replicas,
    # with the interpreter lock handed over often: every result is the
    # one-worker result, and no thread leaves its CPU count to the others
    _cpus(monkeypatch, 4)
    cfg = AnnealConfig(sweeps=60, replicas=2, balanced_init=True)
    jobs = [(k, seed) for k in (2, 3) for seed in (1, 2)]

    def pipeline(k, seed):
        res = run_sparsify_pipeline(_G, k, 0.1, cfg, walks=2, repeats=3, seed=seed)
        return res.projected_cuts, res.best_partition.labels, res.penalty.hex()

    with monkeypatch.context() as one_cpu:
        _cpus(one_cpu, 1)
        serial = [pipeline(*job) for job in jobs]
    results = [None] * len(jobs)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=lambda j=j: results.__setitem__(j, pipeline(*jobs[j])))
                   for j in range(len(jobs))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert results == serial
    assert anneal._worker_count(8) == 4
    _assert_no_child_left()


def test_child_forked_while_a_thread_computes_a_cached_property(monkeypatch):
    # a thread stalls inside ChainSet.chain_id while the fork map forks; the
    # child must read chain_id of its own chain set without waiting for that
    # thread, which does not exist in the child (functools.cached_property
    # before Python 3.12 holds a lock there, and the child waited forever).
    # A hung child is ended by its alarm, which fails the map instead of
    # hanging the test.
    inside, release = threading.Event(), threading.Event()
    repeat = np.repeat

    def stalled(*args, **kwargs):
        if threading.current_thread() is reader:
            inside.set()
            release.wait(30)
        return repeat(*args, **kwargs)

    def chains():
        return ChainSet.from_blocks((np.arange(6).reshape(2, 3), np.ones((2, 3)), 1.0))

    def share(w):
        if not w:
            return None
        signal.alarm(10)
        return chains().chain_id.tolist()

    monkeypatch.setattr(np, "repeat", stalled)
    reader = threading.Thread(target=lambda: chains().chain_id)
    reader.start()
    try:
        assert inside.wait(30)
        assert anneal._fork_map(share, 2, 2, "items") == [None, [0, 0, 0, 1, 1, 1]]
    finally:
        release.set()
        reader.join(30)
    assert not reader.is_alive()
    _assert_no_child_left()


@pytest.mark.parametrize("cpus, replicas, workers, each", [
    (2, 1, 2, 1),  # one CPU per repeat
    (2, 3, 1, 2),  # the replicas alone fill the CPUs: the repeats run in turn
    (4, 2, 2, 2),  # two repeats side by side, two replicas each
    (8, 2, 3, 2),  # one worker per repeat, two CPUs left idle
])
def test_repeat_solves_fork_onto_the_cpus_left_free(monkeypatch, cpus, replicas, workers, each):
    # every repeat's solve, in this process or a child, may fork onto its
    # worker's share of the CPUs
    _cpus(monkeypatch, cpus)
    assert anneal._worker_count(3, replicas) == workers
    partition = sparsify_module.partition

    def checked(*args):
        assert anneal._usable_cpus() == each, "a repeat's solve may fork onto taken CPUs"
        return partition(*args)

    monkeypatch.setattr(sparsify_module, "partition", checked)
    cfg = AnnealConfig(sweeps=50, replicas=replicas)
    res = run_sparsify_pipeline(_G, 2, anneal_cfg=cfg, walks=2, repeats=3, seed=1)
    assert len(res.projected_cuts) == 3
    _assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_binding_time_limit_runs_one_replica_per_solve_worker(monkeypatch, tmp_path, cpus):
    # each solve worker stops after its first replica when the limit binds,
    # so how many replicas run shows how many workers each repeat's solve
    # had: as many as one solve alone would get, min(replicas, cpus)
    _cpus(monkeypatch, cpus)
    log = os.open(tmp_path / "replicas", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    sweeps = anneal._python_sweeps

    def logged(*args):
        os.write(log, b"r")  # from this process or a child
        return sweeps(*args)

    monkeypatch.setattr(anneal, "_python_sweeps", logged)
    cfg = AnnealConfig(sweeps=10 ** 6, replicas=4, time_limit=1e-9)
    try:
        run_sparsify_pipeline(_G, 2, anneal_cfg=cfg, walks=2, repeats=2, seed=1)
    finally:
        os.close(log)
    assert (tmp_path / "replicas").read_bytes() == b"r" * (2 * min(4, cpus))
    _assert_no_child_left()


def _failing_repeat(monkeypatch, failing, fail, seed):
    """Call ``fail`` in place of repeat ``failing``'s fire, for pipeline ``seed``."""
    fire, failing_seed = sparsify_module.forest_fire_scores, _derive_seed(seed, failing, "fire")

    def scores(g, burn_probability, walks, seed):
        if seed == failing_seed:
            fail()
        return fire(g, burn_probability, walks, seed=seed)

    monkeypatch.setattr(sparsify_module, "forest_fire_scores", scores)


def test_child_exception_is_raised_again_with_its_traceback(monkeypatch):
    _cpus(monkeypatch, 2)

    def fail():
        raise KeyError("repeat 1")

    _failing_repeat(monkeypatch, 1, fail, seed=3)
    with pytest.raises(KeyError, match="repeat 1") as info:
        run_sparsify_pipeline(_G, 2, anneal_cfg=AnnealConfig(sweeps=30), walks=2,
                              repeats=4, seed=3)
    cause = str(info.value.__cause__)
    assert "in the worker process for repeats 1, 3" in cause
    assert "Traceback" in cause and "in scores" in cause and "KeyError" in cause
    _assert_no_child_left()


def test_child_that_dies_without_a_result(monkeypatch):
    _cpus(monkeypatch, 2)
    # on one worker, repeat 1 would end this process
    assert anneal._worker_count(3) == 2
    _failing_repeat(monkeypatch, 1, lambda: os._exit(7), seed=3)
    with pytest.raises(RuntimeError, match=r"repeats 1 sent no result \(exit code 7\)"):
        run_sparsify_pipeline(_G, 2, anneal_cfg=AnnealConfig(sweeps=30), walks=2,
                              repeats=3, seed=3)
    _assert_no_child_left()


def test_error_in_the_calling_process_share_reaps_the_children(monkeypatch):
    _cpus(monkeypatch, 3)

    def fail():
        raise ValueError("own share")

    _failing_repeat(monkeypatch, 0, fail, seed=3)
    with pytest.raises(ValueError, match="own share"):
        run_sparsify_pipeline(_G, 2, anneal_cfg=AnnealConfig(sweeps=30), walks=2,
                              repeats=3, seed=3)
    assert anneal._worker_count(8) == 3  # the map is over
    _assert_no_child_left()
