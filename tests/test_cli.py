import json

import numpy as np
import pytest

from qubopart.cli import main
from qubopart.graph import Graph, parse_partition, write_metis

from conftest import gnp_graph


@pytest.fixture
def graph_file(tmp_path):
    g = gnp_graph(12, 0.35, np.random.RandomState(42))
    path = tmp_path / "toy.graph"
    path.write_text(write_metis(g))
    return str(path)


FAST = ["--sweeps", "200", "--replicas", "2"]


def test_partition_json(graph_file, capsys):
    rc = main(["partition", "--graph", graph_file, "--json", *FAST])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 2 and payload["graph"] == "toy"
    assert payload["cut"] >= 0 and payload["decoded_feasible"] is True
    assert payload["cut"] == payload["cut_raw"]
    assert payload["approximation_ratio"] is None


def test_partition_with_imbalance_decodes_feasible(tmp_path, capsys):
    # both parts are bounded, so the model optimum is a valid split, not all-in-one
    path = tmp_path / "cycle10.graph"
    path.write_text(write_metis(Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)])))
    rc = main(["partition", "--graph", str(path), "--epsilon", "0.2", "--json", *FAST])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["decoded_feasible"] is True
    assert payload["cut_raw"] == payload["cut"] == 2


def test_partition_text_and_out_file(graph_file, tmp_path, capsys):
    out = tmp_path / "toy.part"
    rc = main(["partition", "--graph", graph_file, "--out", str(out), *FAST])
    assert rc == 0
    text = capsys.readouterr().out
    assert "cut:" in text and "graph: toy" in text
    partition, meta = parse_partition(out.read_text())
    assert partition.n == 12 and partition.k == 2
    assert meta["graph"] == "toy"


def test_partition_reports_ratio_for_registry_names(tmp_path, capsys):
    g = gnp_graph(8, 0.4, np.random.RandomState(1))
    path = tmp_path / "uk.graph"  # same name as a registry instance
    path.write_text(write_metis(g))
    rc = main(["partition", "--graph", str(path), "--json", *FAST])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["approximation_ratio"] == pytest.approx(payload["cut"] / 19)


def test_kway_json(graph_file, capsys):
    rc = main(["kway", "--graph", graph_file, "--k", "3", "--json", *FAST])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 3 and payload["cut"] >= 0


def test_sparsify_pipeline(graph_file, capsys):
    rc = main(["sparsify-pipeline", "--graph", graph_file, "--repeats", "2",
               "--json", *FAST])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["best_cut"] == min(payload["projected_cuts"])
    assert len(payload["projected_cuts"]) == 2


def test_bench_csv_file_and_markdown_stdout(graph_file, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc = main(["bench", "--graphs", graph_file, "--sweeps", "100",
               "--replicas", "1", "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("graph_id,") and len(lines) == 2

    rc = main(["bench", "--graphs", graph_file, "--sweeps", "100",
               "--replicas", "1"])
    assert rc == 0
    assert "### k=2, imbalance 0%" in capsys.readouterr().out


def test_bench_config_with_override(graph_file, tmp_path, capsys):
    cfg = tmp_path / "grid.yaml"
    cfg.write_text(f"graphs: ['{graph_file}']\nsweeps: 50\nreplicas: 1\n"
                   "epsilons: [0.0, 0.1]\n")
    out = tmp_path / "grid.json"
    rc = main(["bench", "--config", str(cfg), "--sweeps", "120",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    records = json.loads(out.read_text())
    assert len(records) == 2 and all(r["feasible"] for r in records)

    rc = main(["bench", "--format", "csv"])  # no graphs anywhere
    assert rc == 2
    assert "no graphs" in capsys.readouterr().err


def test_bench_sparsify_and_workers(graph_file, tmp_path):
    out = tmp_path / "grid.json"
    rc = main(["bench", "--graphs", graph_file, "--sweeps", "100",
               "--replicas", "1", "--sparsify", "--repeats", "2",
               "--keep-ratio", "0.6", "--workers", "2",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    (rec,) = json.loads(out.read_text())
    assert rec["feasible"] and rec["cut_raw"] == rec["cut_repaired"]


def test_evaluate_round_trip(graph_file, tmp_path, capsys):
    out = tmp_path / "toy.part"
    main(["partition", "--graph", graph_file, "--out", str(out), *FAST])
    capsys.readouterr()
    rc = main(["evaluate", "--graph", graph_file, "--partition", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "cut:" in text and "balanced: True" in text


def test_evaluate_imbalanced_exit_code(graph_file, tmp_path, capsys):
    part = tmp_path / "bad.part"
    part.write_text("% graph=toy k=2 epsilon=0\n" + "0\n" * 12)
    rc = main(["evaluate", "--graph", graph_file, "--partition", str(part)])
    assert rc == 3
    assert "balanced: False" in capsys.readouterr().out


def test_evaluate_length_mismatch(graph_file, tmp_path, capsys):
    part = tmp_path / "short.part"
    part.write_text("% graph=toy k=2 epsilon=0\n0\n1\n")
    rc = main(["evaluate", "--graph", graph_file, "--partition", str(part)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_convert_qubo_stdout(graph_file, capsys):
    rc = main(["convert", graph_file, "-", "--to", "qubo"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("c offset ") and "\np qubo " in out


def test_convert_metis_round_trip(tmp_path, capsys):
    g = gnp_graph(7, 0.5, np.random.RandomState(5))
    src = tmp_path / "g.graph"
    src.write_text(write_metis(g))
    dst = tmp_path / "copy.graph"
    rc = main(["convert", str(src), str(dst), "--to", "metis"])
    assert rc == 0
    assert dst.read_text() == src.read_text()


def test_missing_graph_exit_code(tmp_path, capsys):
    rc = main(["partition", "--graph", str(tmp_path / "nope.graph")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_graph_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("3 1 0\n2 3\n1\n1\n")
    rc = main(["partition", "--graph", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
