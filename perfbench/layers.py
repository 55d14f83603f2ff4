"""Per-layer timing for the traced run, from outside the package.

A :class:`Tracer` replaces functions on the names the package and the
benchmark look up at call time with wrappers that record a span (name, layer,
start, end, parent span, partition) and the work counts of the call.  Spans
stay in memory until the run writes them out.  Nothing in the package is
edited; :meth:`Tracer.uninstall` puts the original functions back.

Layers are the package modules ``graph``, ``qubo``, ``anneal``, ``evaluate``
and ``sparsify``.  The benchmark's own root span per partition has no layer;
its self time is the benchmark's own glue between calls.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("graph", "qubo", "anneal", "evaluate", "sparsify")


def _count_build(c, args, kwargs, model):
    c["qubo.models"] += 1
    c["qubo.num_vars"] += model.num_vars
    c["qubo.num_chains"] += len(model.chains)
    c["qubo.chain_terms"] += sum(len(ch.var_idx) for ch in model.chains)


def _count_compile(c, args, kwargs, cm):
    c["anneal.compiles"] += 1
    c["anneal.csr_nnz"] += len(cm.csr_data)
    c["anneal.memberships"] += len(cm.mem_var)


def _count_solve(c, args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    # without a time limit every replica runs as many sweeps as the returned one
    c["anneal.sweeps"] += cfg.replicas * result.sweeps_done
    c["anneal.best_replica_sweeps"] += result.sweeps_done
    c["anneal.flips"] += result.flips


def _count_energy(c, args, kwargs, value):
    c["qubo.energy_calls"] += 1


def _count_decode(c, args, kwargs, value):
    c["evaluate.decodes"] += 1


def _count_repair(c, args, kwargs, repaired):
    before = args[1].labels
    c["evaluate.repairs"] += 1
    c["evaluate.repair_moves"] += sum(a != b for a, b in zip(before, repaired.labels))


def _count_fire(c, args, kwargs, scores):
    c["sparsify.burned_edges"] += int(scores.scores.sum())


def _count_sparsify(c, args, kwargs, sparse):
    c["sparsify.sparsifies"] += 1
    c["sparsify.kept_edges"] += sparse.m


# (module, attribute, span name, layer, counter).  The top-level names are the
# ones the benchmark calls; the submodule names are the ones the package's own
# functions look up when solve and run_sparsify_pipeline run.
WRAPPED = [
    ("qubopart", "parse_metis", "parse", "graph", None),
    ("qubopart", "cut_edges", "cut", "graph", None),
    ("qubopart", "build_bipartition_qubo", "build", "qubo", _count_build),
    ("qubopart", "build_kway_qubo", "build", "qubo", _count_build),
    ("qubopart", "solve", "solve", "anneal", _count_solve),
    ("qubopart", "decode", "decode", "evaluate", _count_decode),
    ("qubopart", "repair", "repair", "evaluate", _count_repair),
    ("qubopart", "run_sparsify_pipeline", "pipeline", "sparsify", None),
    ("qubopart.anneal", "compile_model", "compile", "anneal", _count_compile),
    ("qubopart.anneal", "energy", "energy", "qubo", _count_energy),
    ("qubopart.sparsify", "forest_fire_scores", "fire", "sparsify", _count_fire),
    ("qubopart.sparsify", "sparsify", "sparsify", "sparsify", _count_sparsify),
    ("qubopart.sparsify", "project_partition", "project", "sparsify", None),
    ("qubopart.sparsify", "build_bipartition_qubo", "build", "qubo", _count_build),
    ("qubopart.sparsify", "build_kway_qubo", "build", "qubo", _count_build),
    ("qubopart.sparsify", "solve", "solve", "anneal", _count_solve),
    ("qubopart.sparsify", "decode", "decode", "evaluate", _count_decode),
    ("qubopart.sparsify", "repair", "repair", "evaluate", _count_repair),
]


class Tracer:
    """Span recorder with per-partition work counts."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, layer, start, end, parent, partition)
        self.counts: dict[int, defaultdict] = {}
        self.partition = -1
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    @contextmanager
    def span(self, name: str, layer: str | None):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, layer, start, end, parent, self.partition))

    def begin_partition(self, pid: int) -> None:
        self.partition = pid
        self.counts[pid] = defaultdict(int)

    def install(self) -> None:
        for modname, attr, name, layer, counter in WRAPPED:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            setattr(module, attr, self._wrapper(original, name, layer, counter))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _wrapper(self, fn, name, layer, counter):
        def traced(*args, **kwargs):
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts[self.partition], args, kwargs, result)
            return result
        return traced

    def write(self, path, pass_of: dict[int, str]) -> None:
        keys = ("id", "name", "layer", "start", "end", "parent", "partition")
        with open(path, "w") as fh:
            for sp in self.spans:
                rec = dict(zip(keys, sp))
                rec["pass"] = pass_of[sp[6]]
                fh.write(json.dumps(rec) + "\n")


def pass_counts(tracer: Tracer, pids) -> dict[str, int]:
    """Work counts summed over the given partitions."""
    total: dict[str, int] = defaultdict(int)
    for pid in pids:
        for key, value in tracer.counts[pid].items():
            total[key] += value
    return dict(sorted(total.items()))


def layer_metrics(tracer: Tracer, pids) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per partition, for the given partitions.

    Times are inclusive span durations per partition, except ``<layer>.self_s``
    (span time not covered by child spans) and ``<layer>.share`` (self time
    over the partitions' root span time).  Model and graph sizes are per call
    (per model built, per model compiled, per sparsified graph); work counts
    are per partition.
    """
    pids = set(pids)
    spans = [sp for sp in tracer.spans if sp[6] in pids]
    nparts = len(pids)
    child_time: dict[int, float] = defaultdict(float)
    for sid, _, _, start, end, parent, _ in spans:
        child_time[parent] += end - start
    incl: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    root_time = 0.0
    for sid, name, layer, start, end, parent, _ in spans:
        dur = end - start
        if layer is None:
            root_time += dur
            continue
        incl[f"{layer}.{name}"] += dur
        self_time[layer] += dur - child_time[sid]

    def per_part(x):
        return x / nparts

    def ratio(num, den):
        return num / den if den else 0.0

    c = defaultdict(int, pass_counts(tracer, pids))
    solve_s = incl["anneal.solve"]
    sweeping_s = solve_s - incl["anneal.compile"] - incl["qubo.energy"]
    out = {
        "graph.parse_s": (per_part(incl["graph.parse"]), "s"),
        "graph.cut_s": (per_part(incl["graph.cut"]), "s"),
        "qubo.build_s": (per_part(incl["qubo.build"]), "s"),
        "qubo.num_vars": (ratio(c["qubo.num_vars"], c["qubo.models"]), "count"),
        "qubo.num_chains": (ratio(c["qubo.num_chains"], c["qubo.models"]), "count"),
        "qubo.chain_terms": (ratio(c["qubo.chain_terms"], c["qubo.models"]), "count"),
        "qubo.energy_s": (per_part(incl["qubo.energy"]), "s"),
        "anneal.compile_s": (per_part(incl["anneal.compile"]), "s"),
        "anneal.csr_nnz": (ratio(c["anneal.csr_nnz"], c["anneal.compiles"]), "count"),
        "anneal.memberships": (ratio(c["anneal.memberships"], c["anneal.compiles"]), "count"),
        "anneal.solve_s": (per_part(solve_s), "s"),
        "anneal.sweep_us": (1e6 * ratio(sweeping_s, c["anneal.sweeps"]), "us"),
        "anneal.sweeps": (per_part(c["anneal.sweeps"]), "count"),
        "anneal.flips": (per_part(c["anneal.flips"]), "count"),
        "anneal.accept_ratio": (ratio(c["anneal.flips"], c["anneal.best_replica_sweeps"]),
                                "ratio"),
        "evaluate.decode_s": (per_part(incl["evaluate.decode"]), "s"),
        "evaluate.repair_s": (per_part(incl["evaluate.repair"]), "s"),
        "evaluate.repair_moves": (per_part(c["evaluate.repair_moves"]), "count"),
        "evaluate.repair_rate": (ratio(c["evaluate.repairs"], c["evaluate.decodes"]), "ratio"),
        "sparsify.fire_s": (per_part(incl["sparsify.fire"]), "s"),
        "sparsify.burned_edges": (per_part(c["sparsify.burned_edges"]), "count"),
        "sparsify.sparsify_s": (per_part(incl["sparsify.sparsify"]), "s"),
        "sparsify.kept_edges": (ratio(c["sparsify.kept_edges"], c["sparsify.sparsifies"]),
                                "count"),
        "sparsify.project_s": (per_part(incl["sparsify.project"]), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per_part(self_time[layer]), "s")
        out[f"{layer}.share"] = (100.0 * ratio(self_time[layer], root_time), "%")
    out["trace.spans"] = (per_part(len(spans)), "count")
    return out
