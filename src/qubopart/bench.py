"""Benchmark grid runner, external-result ingestion, and table emission.

A grid run partitions every graph at every (k, epsilon) cell with derived
per-cell seeds through :func:`qubopart.pipeline.partition`, records raw and
repaired cuts plus approximation ratios against the reference registry, and
emits CSV, JSON, or a markdown comparison table.  External solver results
(graph_id, solver_id, k, epsilon, cut CSV) merge into the comparison so
different solvers can be lined up per row, with the row minimum bolded.

Re-running the same config reproduces the same records byte for byte apart
from wall times; cells that fail (unreadable file, oversized model,
unsatisfiable bounds) are recorded with an error note instead of numbers.
Cells run in separate worker processes when ``workers > 1`` (results are
assembled in grid order either way), and ``sparsify: true`` routes every
cell through :func:`qubopart.sparsify.run_sparsify_pipeline`, where the time
limit applies to each repeat's solve.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, field, fields

from . import bestknown
from .anneal import AnnealConfig, _derive_seed
from .evaluate import InfeasiblePartitionError
from .graph import Graph, GraphFormatError, load_graph_file
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
    feasible: bool | None
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


def load_grid_config(path: str, overrides: dict | None = None) -> GridConfig:
    """Read a YAML (or JSON) config file, then apply CLI overrides."""
    import yaml

    with open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a mapping")
    known = {f.name for f in fields(GridConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(raw)
    for key, val in (overrides or {}).items():
        if val is not None:
            merged[key] = val
    return GridConfig(**merged)


def _run_cell(g: Graph, graph_id: str, k: int, epsilon: float,
              cfg: GridConfig, digest: str) -> RunRecord:
    rec = RunRecord(graph_id=graph_id, n=g.n, d_avg=round(g.d_avg, 4),
                    solver_id=cfg.solver_id, k=k, epsilon=epsilon, penalty=None,
                    seed=_derive_seed(cfg.seed, graph_id, k, f"{epsilon:g}"),
                    cut_raw=None, cut_repaired=None, feasible=None,
                    approximation_ratio=None, wall_time=None, config_digest=digest)
    if k < 2 or k > g.n:
        rec.error = f"skipped: k={k} outside 2..{g.n}"
        return rec
    size = model_num_vars(g.n, k, epsilon)
    if size > cfg.max_vars:
        rec.error = f"skipped: model needs {size} variables, cap is {cfg.max_vars}"
        return rec

    if isinstance(cfg.penalty, str) and cfg.penalty != "auto":
        raise ValueError(f"penalty must be 'auto' or a number, got {cfg.penalty!r}")
    penalty = None if cfg.penalty == "auto" else float(cfg.penalty)
    anneal_cfg = AnnealConfig(sweeps=cfg.sweeps, replicas=cfg.replicas, seed=rec.seed,
                              time_limit=cfg.time_limit, balanced_init=cfg.balanced_init)
    start = time.perf_counter()
    if cfg.sparsify:
        try:
            result = run_sparsify_pipeline(g, k, epsilon, anneal_cfg,
                                           keep_ratio=cfg.keep_ratio,
                                           burn_probability=cfg.burn_probability,
                                           walks=cfg.walks, repeats=cfg.repeats,
                                           seed=rec.seed, penalty=penalty)
        except InfeasiblePartitionError as exc:
            rec.error = str(exc)
        else:
            # the pipeline repairs before it projects, so the projected cut is the final one
            rec.penalty = result.penalty
            rec.cut_raw = rec.cut_repaired = result.best_cut
    else:
        report = partition(g, k, epsilon, anneal_cfg, penalty)
        rec.penalty, rec.error = report.penalty, report.error
        rec.cut_raw, rec.cut_repaired = report.cut_raw, report.cut
    rec.feasible = rec.cut_repaired is not None
    rec.wall_time = round(time.perf_counter() - start, 6)
    if rec.feasible:
        ref = bestknown.best_known(graph_id, k, epsilon)
        if ref:
            rec.approximation_ratio = rec.cut_repaired / ref
    return rec


def run_grid(cfg: GridConfig) -> list[RunRecord]:
    """Solve every graph at every (k, epsilon) cell; failures become error records.

    Cells run in worker processes when ``workers > 1``; records come back in
    grid order regardless, so the output is identical to a serial run.
    """
    if cfg.workers < 1:
        raise ValueError(f"workers must be at least 1, got {cfg.workers}")
    digest = cfg.digest()
    records: list[RunRecord | None] = []
    tasks: list[tuple[int, tuple]] = []
    for path in cfg.graphs:
        try:
            g = load_graph_file(path)
        except (OSError, GraphFormatError) as exc:
            g, err = None, f"unreadable graph: {exc}"
        gid = g.name if g is not None else _graph_id(path)
        for k in cfg.ks:
            for eps in cfg.epsilons:
                if g is None:
                    records.append(RunRecord(
                        graph_id=gid, n=None, d_avg=None, solver_id=cfg.solver_id,
                        k=k, epsilon=eps, penalty=None,
                        seed=_derive_seed(cfg.seed, gid, k, f"{eps:g}"),
                        cut_raw=None, cut_repaired=None, feasible=None,
                        approximation_ratio=None, wall_time=None,
                        config_digest=digest, error=err))
                else:
                    tasks.append((len(records), (g, gid, k, eps, cfg, digest)))
                    records.append(None)

    cell_args = [args for _, args in tasks]
    if cfg.workers == 1 or len(tasks) <= 1:
        results = [_run_cell(*args) for args in cell_args]
    else:
        # processes, not threads: the sweeps are Python loops that hold the GIL
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(tasks))) as pool:
            results = list(pool.map(_run_cell, *zip(*cell_args)))
    for (idx, _), rec in zip(tasks, results):
        records[idx] = rec
    return records


def _graph_id(path: str) -> str:
    import os

    base = os.path.basename(path)
    return base.rsplit(".", 1)[0] if "." in base else base


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
    if isinstance(value, bool):
        return "true" if value else "false"
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


def records_from_json(text: str) -> list[RunRecord]:
    return [RunRecord(**row) for row in json.loads(text)]


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
