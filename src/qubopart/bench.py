"""Benchmark grid runner, external-result ingestion, and table emission.

A grid run partitions every graph at every (k, epsilon) cell with derived
per-cell seeds through :func:`qubopart.pipeline.partition`, records raw and
repaired cuts plus approximation ratios against the reference registry, and
emits CSV, JSON, or a markdown comparison table.  External solver results
(graph_id, solver_id, k, epsilon, cut CSV) merge into the comparison so
different solvers can be lined up per row, with the row minimum bolded.

Re-running the same config reproduces the same records byte for byte apart
from wall times.  :func:`run_grid` lists one cell per (graph, k, epsilon) in
grid order and :func:`_run_cell` makes each cell's record; cells that are
not solved (unreadable file, k outside 2..n, oversized model) get an error
note instead of numbers.  The cells run on ``workers`` processes forked
through :func:`qubopart.anneal._fork_map`, each taking the next cell when it
is free, and come back in grid order; each cell's solve or pipeline forks
onto at most its worker's share of the CPUs.  ``sparsify: true`` routes
every cell through :func:`qubopart.sparsify.run_sparsify_pipeline`, where
the time limit applies to each repeat's solve.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
import warnings
from dataclasses import asdict, dataclass, field, fields

from . import bestknown
from .anneal import AnnealConfig, _check_integer, _derive_seed, _fork_map
from .evaluate import approximation_ratio
from .graph import Graph, GraphFormatError, file_stem, load_graph_file
from .pipeline import partition
from .qubo import model_num_vars
from .sparsify import run_sparsify_pipeline


@dataclass
class RunRecord:
    graph_id: str
    n: int | None
    d_avg: float | None
    solver_id: str
    k: int
    epsilon: float
    penalty: float | None
    seed: int
    cut_raw: int | None
    cut_repaired: int | None
    approximation_ratio: float | None
    wall_time: float | None
    config_digest: str
    error: str = ""


@dataclass
class GridConfig:
    graphs: list[str] = field(default_factory=list)
    ks: list[int] = field(default_factory=lambda: [2])
    epsilons: list[float] = field(default_factory=lambda: [0.0])
    sweeps: int = 4000
    replicas: int = 8
    seed: int = 0
    penalty: float | str = "auto"
    time_limit: float | None = 60.0
    max_vars: int = 200_000
    solver_id: str = "anneal"
    balanced_init: bool = True
    workers: int = 1
    sparsify: bool = False  # route cells through the sparsify pipeline
    keep_ratio: float = 0.7
    burn_probability: float = 0.7
    walks: int = 10
    repeats: int = 10

    def digest(self) -> str:
        canon = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# what each config key must hold, as (test, description); YAML reads 1e3 as a string
_VALUE_TYPES = {
    **dict.fromkeys(("sweeps", "replicas", "seed", "max_vars", "workers", "walks", "repeats"),
                    (_is_int, "an integer")),
    **dict.fromkeys(("keep_ratio", "burn_probability"), (_is_number, "a number")),
    "time_limit": (lambda v: v is None or _is_number(v), "a number or null"),
    **dict.fromkeys(("balanced_init", "sparsify"), (lambda v: isinstance(v, bool), "true or false")),
    "solver_id": (lambda v: isinstance(v, str), "a string"),
    "penalty": (lambda v: v == "auto" or _is_number(v), "'auto' or a number"),
}
_ITEM_TYPES = {"graphs": (lambda v: isinstance(v, str), "strings"),
               "ks": (_is_int, "integers"), "epsilons": (_is_number, "numbers")}


def load_grid_config(path: str, overrides: dict | None = None) -> GridConfig:
    """Read a YAML (or JSON) config file, check each value's type, then apply
    CLI overrides."""
    import yaml

    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            raise ValueError(f"config file {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a mapping")
    known = {f.name for f in fields(GridConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, val in raw.items():
        if key in _ITEM_TYPES:
            ok, what = _ITEM_TYPES[key]
            if not isinstance(val, list):
                raise ValueError(f"config key {key!r} must be a list, got {val!r}")
            bad = [v for v in val if not ok(v)]
            if bad:
                raise ValueError(f"config key {key!r} must list {what}, got {bad[0]!r}")
        else:
            ok, what = _VALUE_TYPES[key]
            if not ok(val):
                raise ValueError(f"config key {key!r} must be {what}, got {val!r}")
    merged = dict(raw)
    for key, val in (overrides or {}).items():
        if val is not None:
            merged[key] = val
    return GridConfig(**merged)


def _run_cell(g: Graph | str, graph_id: str, k: int, epsilon: float,
              cfg: GridConfig, digest: str) -> RunRecord:
    """The record of one grid cell; ``g`` is the loaded graph or its load error."""
    rec = RunRecord(graph_id=graph_id, n=None, d_avg=None,
                    solver_id=cfg.solver_id, k=k, epsilon=epsilon, penalty=None,
                    seed=_derive_seed(cfg.seed, graph_id, k, f"{epsilon:g}"),
                    cut_raw=None, cut_repaired=None, approximation_ratio=None,
                    wall_time=None, config_digest=digest)
    if isinstance(g, str):
        rec.error = g
        return rec
    rec.n, rec.d_avg = g.n, round(g.d_avg, 4)
    if k < 2 or k > g.n:
        rec.error = f"skipped: k={k} outside 2..{g.n}"
        return rec
    size = model_num_vars(g.n, k, epsilon)
    if size > cfg.max_vars:
        rec.error = f"skipped: model needs {size} variables, cap is {cfg.max_vars}"
        return rec

    penalty = None if cfg.penalty == "auto" else float(cfg.penalty)
    anneal_cfg = AnnealConfig(sweeps=cfg.sweeps, replicas=cfg.replicas, seed=rec.seed,
                              time_limit=cfg.time_limit, balanced_init=cfg.balanced_init)
    start = time.perf_counter()
    if cfg.sparsify:
        result = run_sparsify_pipeline(g, k, epsilon, anneal_cfg,
                                       keep_ratio=cfg.keep_ratio,
                                       burn_probability=cfg.burn_probability,
                                       walks=cfg.walks, repeats=cfg.repeats,
                                       seed=rec.seed, penalty=penalty)
        # the pipeline repairs before it projects, so the projected cut is the final one
        rec.penalty = result.penalty
        rec.cut_raw = rec.cut_repaired = result.best_cut
    else:
        report = partition(g, k, epsilon, anneal_cfg, penalty)
        rec.penalty = report.penalty
        rec.cut_raw, rec.cut_repaired = report.cut_raw, report.cut
    rec.wall_time = round(time.perf_counter() - start, 6)
    ref = bestknown.best_known(graph_id, k, epsilon)
    if ref:
        rec.approximation_ratio = approximation_ratio(rec.cut_repaired, ref)
    return rec


def run_grid(cfg: GridConfig) -> list[RunRecord]:
    """Solve every graph at every (k, epsilon) cell; failures become error records.

    Each graph file is loaded once, and an unreadable one gives an error
    record per cell.  Cells run on ``workers`` forked processes, each taking
    the next cell when free; records come back in grid order as on one worker.
    """
    _check_integer("workers", cfg.workers)
    if cfg.workers < 1:
        raise ValueError(f"workers must be at least 1, got {cfg.workers}")
    digest = cfg.digest()
    cells: list[tuple] = []
    for path in cfg.graphs:
        gid = file_stem(path)  # the name load_graph_file gives the graph
        try:
            g: Graph | str = load_graph_file(path)
        except (OSError, GraphFormatError) as exc:
            g = f"unreadable graph: {exc}"
        cells += [(g, gid, k, eps, cfg, digest) for k in cfg.ks for eps in cfg.epsilons]

    # processes, not threads: the sweeps are Python loops that hold the GIL
    workers = max(1, min(cfg.workers, len(cells)))
    # the pipe holds the next cell's index; while one worker reads it, others wait
    take, put = (open(fd, mode, buffering=0) for fd, mode in zip(os.pipe(), ("rb", "wb")))

    def share(w: int) -> list[tuple[int, RunRecord]]:
        done = []
        while (i := int.from_bytes(take.read(8), "little")) < len(cells):
            put.write((i + 1).to_bytes(8, "little"))
            done.append((i, _run_cell(*cells[i])))
        put.write(i.to_bytes(8, "little"))  # for the other workers
        return done

    with take, put:
        put.write(bytes(8))  # cell 0 first
        shares = _fork_map(share, workers, workers, "cell worker")
    records = dict(pair for done in shares for pair in done)
    return [records[i] for i in range(len(cells))]


@dataclass(frozen=True)
class ExternalRow:
    graph_id: str
    solver_id: str
    k: int
    epsilon: float
    cut: int


def ingest_external(path: str) -> list[ExternalRow]:
    """Read third-party results: CSV with graph_id, solver_id, k, epsilon, cut."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"graph_id", "solver_id", "k", "epsilon", "cut"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            missing = sorted(required - set(reader.fieldnames or []))
            raise ValueError(f"external CSV {path} lacks columns {missing}")
        rows = []
        for num, row in enumerate(reader, start=2):
            try:
                rows.append(ExternalRow(graph_id=row["graph_id"].strip(),
                                        solver_id=row["solver_id"].strip(),
                                        k=int(row["k"]), epsilon=float(row["epsilon"]),
                                        cut=int(row["cut"])))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{num}: bad external row: {exc}") from exc
    return rows


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def records_to_csv(records: list[RunRecord]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    names = [f.name for f in fields(RunRecord)]
    writer.writerow(names)
    for rec in records:
        writer.writerow([_csv_cell(getattr(rec, name)) for name in names])
    return out.getvalue()


def records_to_json(records: list[RunRecord]) -> str:
    return json.dumps([asdict(r) for r in records], indent=2)


def _comparison_cells(records: list[RunRecord], external: list[ExternalRow]):
    cells: dict[tuple[int, float], dict[str, dict[str, int]]] = {}
    meta: dict[str, int | None] = {}

    def put(k, eps, gid, solver, cut):
        block = cells.setdefault((k, eps), {})
        row = block.setdefault(gid, {})
        if solver in row and row[solver] != cut:
            warnings.warn(f"duplicate result for {gid} k={k} eps={eps:g} {solver}; "
                          "keeping the later one", stacklevel=3)
        row[solver] = cut

    for rec in records:
        cut = rec.cut_repaired if rec.cut_repaired is not None else rec.cut_raw
        if cut is None:
            continue
        put(rec.k, rec.epsilon, rec.graph_id, rec.solver_id, cut)
        if rec.n is not None:
            meta[rec.graph_id] = rec.n
    for row in external:
        put(row.k, row.epsilon, row.graph_id, row.solver_id, row.cut)
        if row.graph_id not in meta:
            info = bestknown.graph_meta(row.graph_id)
            meta[row.graph_id] = info[0] if info else None
    return cells, meta


def emit(records: list[RunRecord], fmt: str = "markdown",
         external: list[ExternalRow] | None = None,
         extra_registry: dict | None = None) -> str:
    """Render records as 'csv' (flat), 'json' (round-trippable), or 'markdown'.

    The markdown form groups rows into one table per (k, epsilon) block,
    merges external solver columns, bolds each row's minimum cut, and adds a
    per-solver approximation-ratio column.  Ratios use the reference
    registry; rows absent from it fall back to the best cut observed in the
    row, and cuts beating the registry are flagged as new best results.
    """
    if fmt == "csv":
        return records_to_csv(records)
    if fmt == "json":
        return records_to_json(records)
    if fmt != "markdown":
        raise ValueError(f"unknown output format {fmt!r}")

    cells, meta = _comparison_cells(records, external or [])
    lines: list[str] = []
    for (k, eps) in sorted(cells):
        block = cells[(k, eps)]
        solvers = sorted({s for row in block.values() for s in row})
        lines.append(f"### k={k}, imbalance {eps * 100:g}%")
        lines.append("")
        header = ["graph", "n", "best known"]
        for s in solvers:
            header += [s, f"{s} ratio"]
        header.append("notes")
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        ordered = sorted(block, key=lambda gid: (meta.get(gid) is None,
                                                 meta.get(gid) or 0, gid))
        for gid in ordered:
            row = block[gid]
            ref = bestknown.best_known(gid, k, eps, extra=extra_registry)
            row_min = min(row.values())
            denom = ref if ref else row_min
            notes = []
            out = [gid, str(meta.get(gid) or "?"), str(ref) if ref else "-"]
            for s in solvers:
                if s not in row:
                    out += ["-", "-"]
                    continue
                cut = row[s]
                cell = f"**{cut}**" if cut == row_min else str(cut)
                ratio = f"{cut / denom:.4f}" if denom else "-"
                out += [cell, ratio]
                if ref and cut < ref:
                    notes.append(f"new best: {s}")
            out.append("; ".join(notes))
            lines.append("| " + " | ".join(out) + " |")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
