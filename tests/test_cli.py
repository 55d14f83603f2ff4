import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from qubopart.bench import GridConfig
from qubopart.cli import main
from qubopart.graph import Graph, load_graph_file, parse_partition, write_metis

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
    assert len(records) == 2
    assert all(r["error"] == "" and r["cut_repaired"] >= 0 for r in records)

    rc = main(["bench", "--format", "csv"])  # no graphs anywhere
    assert rc == 2
    assert "no graphs" in capsys.readouterr().err

    cfg.write_text(f"graphs: ['{graph_file}']\nengine: python\n")  # no such key
    rc = main(["bench", "--config", str(cfg)])
    assert rc == 2
    assert "unknown config keys: ['engine']" in capsys.readouterr().err


def test_bench_sparsify_and_workers(graph_file, tmp_path):
    out = tmp_path / "grid.json"
    rc = main(["bench", "--graphs", graph_file, "--sweeps", "100",
               "--replicas", "1", "--sparsify", "--repeats", "2",
               "--keep-ratio", "0.6", "--workers", "2",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    (rec,) = json.loads(out.read_text())
    assert rec["error"] == "" and rec["cut_raw"] == rec["cut_repaired"] >= 0


def test_bench_flags_reach_grid_config(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr("qubopart.cli.run_grid", lambda cfg: seen.append(cfg) or [])
    rc = main(["bench", "--graphs", "a.graph", "b.graph", "--k", "2", "3",
               "--epsilon", "0.1", "--sweeps", "7", "--replicas", "3", "--seed", "5",
               "--penalty", "6", "--time-limit", "1.5", "--solver-id", "mine",
               "--workers", "2", "--sparsify", "--keep-ratio", "0.5", "--repeats", "4",
               "--format", "csv"])
    assert rc == 0
    assert seen == [GridConfig(graphs=["a.graph", "b.graph"], ks=[2, 3], epsilons=[0.1],
                               sweeps=7, replicas=3, seed=5, penalty=6.0, time_limit=1.5,
                               solver_id="mine", workers=2, sparsify=True, keep_ratio=0.5,
                               repeats=4)]


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


# a vertex line holds ASCII decimal digits, spaces and tabs only
@pytest.mark.parametrize("body, line", [("2\n1 +2\n", 2), ("\u0663\n1\n", 1), ("2\v1\n1\n", 1)],
                         ids=["plus-sign", "arabic-indic-digit", "vertical-tab"])
def test_malformed_graph_exit_code_non_integer_token(tmp_path, body, line, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("2 1\n" + body, encoding="utf-8")
    rc = main(["partition", "--graph", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2 and "Traceback" not in err
    assert f"error: non-integer token on vertex line {line}\n" in err


def test_matrix_market_line_break_exit_code(tmp_path, capsys):
    # one entry line holding a file separator, which str.splitlines breaks at
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\x1c2 3\n")
    rc = main(["partition", "--graph", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2 and "Traceback" not in err
    assert "error: line break other than" in err


@pytest.mark.parametrize("flag, value", [("--penalty", "nan"), ("--penalty", "inf"),
                                         ("--time-limit", "nan")])
def test_non_finite_solver_flag_exit_code(graph_file, flag, value, capsys):
    try:
        rc = main(["partition", "--graph", graph_file, flag, value, *FAST])
    except SystemExit as exc:  # argparse rejected the value
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("command, value, shown", [("partition", "nan", "nan"),
                                                   ("kway", "1e400", "inf"),
                                                   ("bench", "inf", "inf"),
                                                   ("partition", "-inf", "-inf")])
def test_non_finite_epsilon_exit_code(graph_file, command, value, shown, capsys):
    graph_flag = "--graphs" if command == "bench" else "--graph"
    k_flag = ["--k", "2"] if command == "kway" else []
    rc = main([command, graph_flag, graph_file, *k_flag, f"--epsilon={value}", *FAST])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"epsilon must be finite and non-negative, got {shown}" in err
    assert "Traceback" not in err


def test_partition_numeric_penalty(graph_file, capsys):
    rc = main(["partition", "--graph", graph_file, "--penalty", "5", "--json", *FAST])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["penalty"] == 5.0


@pytest.mark.parametrize("command", ["partition", "bench"])
@pytest.mark.parametrize("value, expected", [("high", "'auto' or a number"),
                                             ("inf", "finite")])
def test_bad_penalty_flag_exit_code(graph_file, command, value, expected, capsys):
    graph_flag = "--graph" if command == "partition" else "--graphs"
    with pytest.raises(SystemExit) as exc:  # argparse rejects the value
        main([command, graph_flag, graph_file, "--penalty", value, *FAST])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert expected in err and "Traceback" not in err


def test_partition_matrix_market_file(graph_file, tmp_path, capsys):
    # the same graph as a MatrixMarket file, recognised by its banner
    g = load_graph_file(graph_file)
    mtx = tmp_path / "toy.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                   f"{g.n} {g.n} {g.m}\n"
                   + "".join(f"{v + 1} {u + 1}\n" for u, v in g.edge_array))
    cuts = []
    for path in (graph_file, str(mtx)):
        rc = main(["partition", "--graph", path, "--json", *FAST])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["graph"], payload["n"], payload["m"]) == ("toy", g.n, g.m)
        cuts.append(payload["cut"])
    assert cuts[0] == cuts[1]


def _run_in(directory, argv, capsys, monkeypatch):
    monkeypatch.chdir(directory)
    rc = main(argv)
    return rc, capsys.readouterr().out


# Outputs on the graph_file fixture, fixed so that refactoring the solve loop
# keeps the same cuts, energies, seeds and record fields; wall times are dropped.
PINNED_JSON = [
    (["partition", "--json", *FAST],
     {"graph": "toy", "n": 12, "m": 28, "k": 2, "epsilon": 0.0, "penalty": 9.0,
      "cut_raw": 11, "cut": 11, "decoded_feasible": True, "approximation_ratio": None,
      "energy": 11.0, "sweeps": 200, "seed": 0}),
    (["kway", "--k", "3", "--json", *FAST],
     {"graph": "toy", "n": 12, "m": 28, "k": 3, "epsilon": 0.0, "penalty": 9.0,
      "cut_raw": 17, "cut": 17, "decoded_feasible": True, "approximation_ratio": None,
      "energy": 17.0, "sweeps": 200, "seed": 0}),
    (["kway", "--k", "4", "--json", "--no-balanced-init", "--sweeps", "10",
      "--replicas", "1"],
     {"graph": "toy", "n": 12, "m": 28, "k": 4, "epsilon": 0.0, "penalty": 9.0,
      "cut_raw": 14, "cut": 19, "decoded_feasible": False, "approximation_ratio": None,
      "energy": 329.0, "sweeps": 10, "seed": 0}),
    (["sparsify-pipeline", "--repeats", "2", "--json", *FAST],
     {"graph": "toy", "k": 2, "epsilon": 0.0, "projected_cuts": [11, 10], "best_cut": 10,
      "best_repeat": 1}),
]


@pytest.mark.parametrize("argv,expected", PINNED_JSON,
                         ids=["partition", "kway3", "kway4-repaired", "sparsify-pipeline"])
def test_pinned_json_outputs(graph_file, argv, expected, capsys, monkeypatch):
    command, *rest = argv
    rc, out = _run_in(Path(graph_file).parent, [command, "--graph", "toy.graph", *rest],
                      capsys, monkeypatch)
    assert rc == 0
    payload = json.loads(out)
    payload.pop("wall_time", None)
    assert payload == expected


def test_pinned_bench_csv(graph_file, capsys, monkeypatch):
    # a relative graph path keeps the config digest independent of the temp dir;
    # the digest hashes every GridConfig field, so it changes with the fields
    rc, out = _run_in(Path(graph_file).parent,
                      ["bench", "--graphs", "toy.graph", "--sweeps", "100",
                       "--replicas", "1", "--format", "csv"], capsys, monkeypatch)
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    col = rows[0].index("wall_time")
    assert [r[:col] + r[col + 1:] for r in rows] == [
        ["graph_id", "n", "d_avg", "solver_id", "k", "epsilon", "penalty", "seed",
         "cut_raw", "cut_repaired", "approximation_ratio",
         "config_digest", "error"],
        ["toy", "12", "4.6667", "anneal", "2", "0.0", "9.0", "3290067018",
         "13", "13", "", "6c91b718b2aa", ""],
    ]


@pytest.mark.parametrize("command", ["kway", "sparsify-pipeline"])
def test_tight_window_is_met_exit_0(tmp_path, command, capsys):
    # four parts of ceil(0.97 * 3) = 3 vertices do not fit in 10, so each
    # part holds between 10 - 3 * 3 = 1 and 3
    path = tmp_path / "cycle10.graph"
    path.write_text(write_metis(Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)])))
    out = tmp_path / "cycle10.part"
    rc = main([command, "--graph", str(path), "--k", "4", "--epsilon", "0.03", *FAST,
               "--out", str(out)])
    assert rc == 0 and capsys.readouterr().err == ""
    part, _ = parse_partition(out.read_text())
    assert part.n == 10 and all(1 <= size <= 3 for size in part.part_sizes())


@pytest.mark.parametrize("bad, expected", [
    ("registry", "lacks columns ['cut']"),
    ("unclosed-bracket", "is not valid YAML"),
    ("scalar-ks", "'ks' must be a list"),
    # the other cases are one config line; the file is checked before the
    # command-line overrides apply
    ("sweeps: 1e3", "'sweeps' must be an integer"),  # YAML reads 1e3 as a string
    ("replicas: true", "'replicas' must be an integer"),
    ("seed: 1.5", "'seed' must be an integer"),
    ("max_vars: many", "'max_vars' must be an integer"),
    ("workers: two", "'workers' must be an integer"),
    ("walks: 2.0", "'walks' must be an integer"),
    ("repeats: [3]", "'repeats' must be an integer"),
    ("time_limit: soon", "'time_limit' must be a number or null"),
    ("keep_ratio: true", "'keep_ratio' must be a number"),
    ("burn_probability: half", "'burn_probability' must be a number"),
    ("balanced_init: 1", "'balanced_init' must be true or false"),
    ("sparsify: 'true'", "'sparsify' must be true or false"),
    ("solver_id: 7", "'solver_id' must be a string"),
    ("penalty: high", "'penalty' must be 'auto' or a number"),
    ("graphs: [0]", "'graphs' must list strings"),
    ('ks: [2, "3"]', "'ks' must list integers"),
    ("epsilons: [0.0, tiny]", "'epsilons' must list numbers"),
])
def test_bad_bench_inputs_exit_code(graph_file, tmp_path, bad, expected, capsys):
    argv = ["bench", "--graphs", graph_file, "--sweeps", "50", "--replicas", "1"]
    if bad == "registry":
        registry = tmp_path / "extra.csv"
        registry.write_text("graph,n,k,eps_pct\ntoy,12,2,0\n")
        argv += ["--registry", str(registry)]
    else:
        cfg = tmp_path / "grid.yaml"
        cfg.write_text({"unclosed-bracket": "graphs: [toy.graph",
                        "scalar-ks": "ks: 2"}.get(bad, bad) + "\n")
        argv += ["--config", str(cfg)]
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err and "Traceback" not in err
