import dataclasses
import json
import os

import numpy as np
import pytest

import qubopart.anneal as anneal
import qubopart.bench as bench
import qubopart.pipeline as pipeline
from qubopart.bench import (GridConfig, RunRecord, emit, ingest_external,
                            load_grid_config, records_to_csv, records_to_json, run_grid)
from qubopart.bestknown import best_known
from qubopart.graph import load_graph_file, write_metis
from qubopart.qubo import default_penalty

from conftest import gnp_graph


def _write_graphs(tmp_path, count=2, n=12):
    paths = []
    rng = np.random.RandomState(100)
    for i in range(count):
        g = gnp_graph(n, 0.3, rng)
        p = tmp_path / f"g{i}.graph"
        p.write_text(write_metis(g))
        paths.append(str(p))
    return paths


def _record(**kwargs):
    base = dict(graph_id="g", n=10, d_avg=2.0, solver_id="anneal", k=2,
                epsilon=0.0, penalty=4.0, seed=1, cut_raw=5, cut_repaired=5,
                approximation_ratio=None, wall_time=0.1, config_digest="abc")
    base.update(kwargs)
    return RunRecord(**base)


def test_grid_config_digest():
    a, b = GridConfig(graphs=["x"]), GridConfig(graphs=["x"])
    assert a.digest() == b.digest() and len(a.digest()) == 12
    assert a.digest() != GridConfig(graphs=["x"], sweeps=5000).digest()


def test_load_grid_config(tmp_path):
    cfg_file = tmp_path / "grid.yaml"
    cfg_file.write_text("graphs: [a.graph, b.graph]\nks: [2, 4]\nsweeps: 123\n")
    cfg = load_grid_config(str(cfg_file))
    assert cfg.graphs == ["a.graph", "b.graph"] and cfg.ks == [2, 4]
    assert cfg.sweeps == 123 and cfg.replicas == 8

    # explicit overrides win; None overrides are ignored
    cfg2 = load_grid_config(str(cfg_file), {"sweeps": 7, "seed": None})
    assert cfg2.sweeps == 7 and cfg2.seed == 0

    bad = tmp_path / "bad.yaml"
    bad.write_text("sweeps: 10\nturbo: yes\n")
    with pytest.raises(ValueError, match="unknown config keys"):
        load_grid_config(str(bad))
    nonmap = tmp_path / "list.yaml"
    nonmap.write_text("- 1\n- 2\n")
    with pytest.raises(ValueError, match="mapping"):
        load_grid_config(str(nonmap))
    # every config key has its type check
    assert {*bench._VALUE_TYPES, *bench._ITEM_TYPES} == {f.name for f in dataclasses.fields(GridConfig)}


def test_run_grid_records(tmp_path):
    paths = _write_graphs(tmp_path)
    cfg = GridConfig(graphs=paths, ks=[2], epsilons=[0.0], sweeps=200,
                     replicas=2, time_limit=None)
    records = run_grid(cfg)
    assert len(records) == 2
    for rec in records:
        assert rec.error == ""
        assert rec.cut_repaired is not None and rec.cut_repaired >= 0
        assert rec.cut_raw == rec.cut_repaired  # decode was already balanced
        assert rec.config_digest == cfg.digest()
        assert rec.penalty is not None and rec.wall_time > 0
        assert rec.approximation_ratio is None  # synthetic graphs are unregistered


def test_run_grid_deterministic_cuts(tmp_path):
    paths = _write_graphs(tmp_path, count=1)
    cfg = GridConfig(graphs=paths, ks=[2, 3], epsilons=[0.0, 0.1], sweeps=200,
                     replicas=2, time_limit=None)
    strip = lambda recs: [dataclasses.replace(r, wall_time=0.0) for r in recs]
    a, b = strip(run_grid(cfg)), strip(run_grid(cfg))
    assert records_to_csv(a) == records_to_csv(b)
    assert len(a) == 4


def test_run_grid_unreadable_and_out_of_range(tmp_path):
    paths = _write_graphs(tmp_path, count=1, n=4)
    cfg = GridConfig(graphs=[str(tmp_path / "missing.graph")] + paths,
                     ks=[2, 9], epsilons=[0.0], sweeps=50, replicas=1,
                     time_limit=None)
    records = run_grid(cfg)
    assert len(records) == 4
    missing = [r for r in records if r.graph_id == "missing"]
    assert len(missing) == 2 and all("unreadable" in r.error for r in missing)
    # error records keep their grid position
    assert [r.graph_id for r in records[:2]] == ["missing", "missing"]
    skipped = [r for r in records if r.k == 9 and r.graph_id != "missing"]
    assert len(skipped) == 1 and "outside" in skipped[0].error


def test_run_grid_unsatisfiable_bounds_solve_once(tmp_path, monkeypatch):
    # no 4 parts of 3 vertices fit in 10, so each part holds 1 to 3
    paths = _write_graphs(tmp_path, count=1, n=10)
    solves = []
    real_solve = pipeline.solve
    monkeypatch.setattr(pipeline, "solve",
                        lambda model, cfg: solves.append(model) or real_solve(model, cfg))
    cfg = GridConfig(graphs=paths, ks=[4], epsilons=[0.03], sweeps=50, replicas=1,
                     time_limit=None)
    (rec,) = run_grid(cfg)
    assert len(solves) == 1
    assert rec.error == ""
    assert rec.cut_repaired is not None and rec.cut_raw is not None
    assert rec.penalty == default_penalty(load_graph_file(paths[0]))


@pytest.mark.parametrize("cpus, workers, each", [(8, 2, 4), (8, 3, 2), (3, 2, 1), (2, 4, 1)])
def test_pool_workers_fork_onto_their_share_of_the_cpus(monkeypatch, cpus, workers, each):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    with bench._cell_pool(workers) as pool:
        assert list(pool.map(anneal._worker_count, [8] * 6)) == [each] * 6
    assert anneal._worker_count(8) == min(8, cpus)  # the calling process is untouched


def test_run_grid_size_cap(tmp_path):
    paths = _write_graphs(tmp_path, count=1)
    cfg = GridConfig(graphs=paths, sweeps=50, replicas=1, max_vars=3,
                     time_limit=None)
    (rec,) = run_grid(cfg)
    assert "cap" in rec.error and rec.cut_repaired is None


def test_run_grid_sparsify_mode(tmp_path):
    paths = _write_graphs(tmp_path, count=1)
    cfg = GridConfig(graphs=paths, ks=[2], epsilons=[0.0], sweeps=200,
                     replicas=2, time_limit=None, sparsify=True, repeats=3,
                     keep_ratio=0.6)
    (rec,) = run_grid(cfg)
    assert not rec.error
    # the pipeline projects and repairs internally, so both cuts coincide
    assert rec.cut_raw == rec.cut_repaired and rec.cut_raw >= 0
    # auto mode: the best repeat's model penalty, derived from its sparsified graph
    assert isinstance(rec.penalty, float) and rec.penalty > 0

    strip = lambda recs: [dataclasses.replace(r, wall_time=0.0) for r in recs]
    assert strip(run_grid(cfg)) == strip([rec])
    (fixed,) = run_grid(dataclasses.replace(cfg, penalty=7))
    assert fixed.penalty == 7.0


def test_run_grid_sparsify_unsatisfiable_cell(tmp_path):
    # no 4 parts of 3 vertices fit in 10, so each part holds 1 to 3
    paths = _write_graphs(tmp_path, count=1, n=10)
    cfg = GridConfig(graphs=paths, ks=[4], epsilons=[0.03], sweeps=50, replicas=1,
                     time_limit=None, sparsify=True, repeats=2)
    (rec,) = run_grid(cfg)
    assert rec.error == ""
    assert rec.cut_repaired == rec.cut_raw and rec.cut_raw >= 0
    assert rec.approximation_ratio is None and rec.wall_time >= 0


def test_run_grid_registry_graph_gets_ratio(tmp_path):
    g = load_graph_file(_write_graphs(tmp_path, count=1, n=8)[0])
    path = tmp_path / "uk.graph"  # same name as a registry instance
    path.write_text(write_metis(g))
    cfg = GridConfig(graphs=[str(path)], sweeps=100, replicas=1, time_limit=None)
    (rec,) = run_grid(cfg)
    assert rec.graph_id == "uk" and rec.error == "" and rec.cut_repaired >= 0
    assert rec.approximation_ratio == rec.cut_repaired / best_known("uk", 2, 0.0)


def test_run_grid_workers_match_serial(tmp_path):
    paths = _write_graphs(tmp_path, count=2, n=10)
    missing = str(tmp_path / "missing.graph")
    serial = GridConfig(graphs=[paths[0], missing, paths[1]], ks=[2, 3],
                        epsilons=[0.0, 0.1], sweeps=200, replicas=2, time_limit=None)
    pooled = dataclasses.replace(serial, workers=2)
    # records line up cell for cell apart from wall times and the digest,
    # which covers the workers field itself
    strip = lambda recs: [dataclasses.replace(r, wall_time=0.0, config_digest="")
                          for r in recs]
    serial_recs, pooled_recs = run_grid(serial), run_grid(pooled)
    assert strip(serial_recs) == strip(pooled_recs)
    # the unreadable graph's error records keep their grid position in both
    for recs in (serial_recs, pooled_recs):
        assert [r.graph_id for r in recs] == ["g0"] * 4 + ["missing"] * 4 + ["g1"] * 4
        assert [(r.k, r.epsilon) for r in recs[4:8]] == [(2, 0.0), (2, 0.1), (3, 0.0), (3, 0.1)]
        assert all(r.error.startswith("unreadable graph") and r.n is None
                   and r.d_avg is None and r.cut_repaired is None for r in recs[4:8])
        assert all(r.n == 10 and r.error == "" and r.cut_repaired is not None
                   for r in recs[:4] + recs[8:])
    with pytest.raises(ValueError, match="workers"):
        run_grid(dataclasses.replace(serial, workers=0))


def test_records_json_round_trip():
    records = [_record(), _record(graph_id="h", error="x", cut_repaired=None,
                                  approximation_ratio=1.5)]
    assert [RunRecord(**row) for row in json.loads(records_to_json(records))] == records


def test_records_csv_shape():
    text = records_to_csv([_record(approximation_ratio=1.25)])
    lines = text.splitlines()
    assert lines[0].startswith("graph_id,")
    assert "1.25" in lines[1] and len(lines) == 2
    assert "\r" not in text
    assert lines[1].endswith(",abc,")  # an empty error is an empty cell


def test_ingest_external(tmp_path):
    path = tmp_path / "ext.csv"
    path.write_text("graph_id,solver_id,k,epsilon,cut\nuk,other,2,0.0,19\n")
    rows = ingest_external(str(path))
    assert len(rows) == 1 and rows[0].cut == 19 and rows[0].solver_id == "other"

    bad_cols = tmp_path / "cols.csv"
    bad_cols.write_text("graph_id,k\nuk,2\n")
    with pytest.raises(ValueError, match="lacks columns"):
        ingest_external(str(bad_cols))

    bad_row = tmp_path / "row.csv"
    bad_row.write_text("graph_id,solver_id,k,epsilon,cut\nuk,other,2,0.0,19\n"
                       "uk,other,2,0.0,many\n")
    with pytest.raises(ValueError, match="row.csv:3"):
        ingest_external(str(bad_row))


def test_emit_markdown_blocks_and_bolding(tmp_path):
    records = [_record(graph_id="uk", n=4824, k=2, epsilon=0.0, cut_repaired=21,
                       cut_raw=21)]
    ext = tmp_path / "ext.csv"
    ext.write_text("graph_id,solver_id,k,epsilon,cut\n"
                   "uk,other,2,0.0,19\n"
                   "mystery,other,2,0.0,7\n"
                   "uk,other,3,0.0,30\n")
    text = emit(records, "markdown", external=ingest_external(str(ext)))
    assert "### k=2, imbalance 0%" in text and "### k=3, imbalance 0%" in text
    uk_row = next(ln for ln in text.splitlines() if ln.startswith("| uk |") and "21" in ln)
    # registry best for uk at k=2 is 19: the external solver ties it and is bolded
    assert "| 19 |" in uk_row and "**19**" in uk_row
    assert f"| {21 / 19:.4f} |" in uk_row and "| 1.0000 |" in uk_row
    assert "new best" not in uk_row
    mystery_row = next(ln for ln in text.splitlines() if ln.startswith("| mystery |"))
    # unregistered graph: no reference, the row minimum anchors the ratio
    assert "| - |" in mystery_row and "**7**" in mystery_row and "1.0000" in mystery_row


def test_emit_markdown_new_best_note():
    records = [_record(graph_id="uk", n=4824, cut_repaired=17, cut_raw=17)]
    text = emit(records)
    row = next(ln for ln in text.splitlines() if ln.startswith("| uk |"))
    assert "new best: anneal" in row and "**17**" in row


def test_emit_duplicate_warning():
    records = [_record(cut_repaired=5), _record(cut_repaired=4, cut_raw=4)]
    with pytest.warns(UserWarning, match="duplicate result"):
        text = emit(records)
    assert "**4**" in text and "| 5 |" not in text


def test_emit_other_formats():
    records = [_record()]
    assert emit(records, "csv") == records_to_csv(records)
    assert json.loads(emit(records, "json"))[0]["graph_id"] == "g"
    with pytest.raises(ValueError, match="format"):
        emit(records, "xml")


def test_emit_graph_ordering_by_size():
    records = [_record(graph_id="big", n=500, cut_repaired=9, cut_raw=9),
               _record(graph_id="small", n=5, cut_repaired=1, cut_raw=1)]
    text = emit(records)
    assert text.index("| small |") < text.index("| big |")
