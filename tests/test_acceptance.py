"""Acceptance gate: one verdict line per criterion (run with -s to see them).

Each test prints a single PASS/FAIL line with its measured runtime and then
asserts, so the printed record survives either way.  Budgets are wall-clock
on a warm solver (the session fixture compiles the kernel up front).
"""

import csv
import io
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qubopart.anneal import AnnealConfig
from qubopart.bench import emit, ingest_external
from qubopart.cli import main as cli_main
from qubopart.evaluate import approximation_ratio, decode
from qubopart.graph import (Graph, balance_bounds, cut_edges, load_graph_file,
                            write_metis)
from qubopart.pipeline import partition
from qubopart.qubo import (INDICATOR, SLACK, build_bipartition_qubo,
                           build_kway_qubo, encode_slack_weights, energy)
from qubopart.sparsify import (forest_fire_scores, project_partition,
                               run_sparsify_pipeline, sparsify)

from conftest import (all_bit_rows, bipartition_optimum, cuts_of_labelings,
                      gnp_graph, greedy_slack_bits, kway_optimum, small_corpus,
                      feasible_sizes)
from reference import apply_flip, delta_energy, expanded_neighbors, local_fields

DATA_DIR = Path(__file__).parent / "data"


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    assert ok, f"criterion {num}, {name}: {detail}"


def _fill_chain_slack(model, bits) -> None:
    """Set slack bits so every penalty chain has zero residual."""
    for ch in model.chains:
        roles = [model.var_map[i] for i in ch.var_idx]
        slack = [(int(i), abs(int(r.weight))) for i, r in zip(ch.var_idx, roles)
                 if r.kind == SLACK]
        if not slack:
            continue
        fixed = sum(float(c) * bits[i] for i, c in zip(ch.var_idx, ch.coeffs)
                    if model.var_map[i].kind == INDICATOR)
        need = int(round(ch.rhs - fixed))
        for (i, _), b in zip(slack, greedy_slack_bits(need, [w for _, w in slack])):
            bits[i] = b


def test_criterion_01_energy_equals_cut():
    """200 random graphs (n <= 32), 50 feasible assignments each, exact identity."""
    start = time.perf_counter()
    rng = np.random.RandomState(20260816)
    checked = 0
    for i in range(200):
        n = int(rng.randint(4, 33))
        g = gnp_graph(n, float(rng.choice([0.08, 0.15, 0.3, 0.5])), rng)
        case = i % 4
        if case == 3:
            model = build_kway_qubo(g, 3, 0.5)
            k = 3
        else:
            model = build_bipartition_qubo(g, 0.1 if case == 2 else 0.0)
            k = 2
        lower, upper = balance_bounds(n, k, model.epsilon)
        for _ in range(50):
            bits = np.zeros(model.num_vars, dtype=np.int8)
            if k == 2:
                ones = upper if model.epsilon == 0.0 else \
                    int(rng.randint(max(0, n - upper), upper + 1))
                bits[rng.choice(n, size=ones, replace=False)] = 1
                labels = bits[:n]
            else:
                sizes = feasible_sizes(n, k, lower, upper, rng)
                perm = rng.permutation(n)
                labels = np.zeros(n, dtype=np.int8)
                pos = 0
                for j, size in enumerate(sizes):
                    labels[perm[pos:pos + size]] = j
                    pos += size
                for v in range(n):
                    bits[v * k + labels[v]] = 1
            _fill_chain_slack(model, bits)
            e = energy(model, bits)
            cut = int(cut_edges(g, labels))
            assert e == float(cut), (g.name, model.epsilon, e, cut)
            checked += 1
    elapsed = time.perf_counter() - start
    _verdict(1, "energy equals cut on feasible assignments",
             checked == 10_000 and elapsed < 10.0,
             f"{checked} assignments exact, {elapsed:.1f}s of 10s")


def test_criterion_02_bipartition_optimality():
    """50 graphs n <= 14: >= 95% hit the exhaustive optimum, 100% never beat it."""
    start = time.perf_counter()
    rng = np.random.RandomState(2202)
    hits = sound = 0
    for i in range(50):
        n = int(rng.randint(4, 15))
        g = gnp_graph(n, float(rng.choice([0.2, 0.3, 0.5, 0.7])), rng)
        cut = partition(g, 2, 0.0, AnnealConfig(sweeps=2000, replicas=8, seed=i,
                                                balanced_init=True)).cut
        opt = bipartition_optimum(g, 0.0)
        hits += cut == opt
        sound += cut >= opt
    elapsed = time.perf_counter() - start
    _verdict(2, "bipartition annealing vs exhaustive oracle",
             hits >= 48 and sound == 50 and elapsed < 60.0,
             f"{hits}/50 optimal (need 48), {sound}/50 sound, {elapsed:.1f}s of 60s")


def test_criterion_03_kway_optimality():
    """50 graphs n <= 9, k=3: >= 90% hit the exhaustive one-hot optimum."""
    start = time.perf_counter()
    rng = np.random.RandomState(3303)
    hits = sound = 0
    for i in range(50):
        n = int(rng.choice([6, 9]))  # exact three-way balance needs 3 | n
        g = gnp_graph(n, float(rng.choice([0.3, 0.5, 0.7])), rng)
        cut = partition(g, 3, 0.0, AnnealConfig(sweeps=2000, replicas=8, seed=i,
                                                balanced_init=True)).cut
        opt = kway_optimum(g, 3, 0.0)
        hits += cut == opt
        sound += cut >= opt
    elapsed = time.perf_counter() - start
    _verdict(3, "three-way annealing vs exhaustive oracle",
             hits >= 45 and sound == 50 and elapsed < 60.0,
             f"{hits}/50 optimal (need 45), {sound}/50 sound, {elapsed:.1f}s of 60s")


def test_criterion_04_benchmark_spot_checks():
    """uk within 2x of 19 and 3elt within 1.5x of 90 under a desk budget."""
    targets = [("uk.graph", 19, 2.0), ("3elt.graph", 90, 1.5)]
    missing = [name for name, _, _ in targets
               if not (DATA_DIR / "walshaw" / name).exists()]
    if missing:
        reason = (f"benchmark files {missing} not present under tests/data/walshaw; "
                  "the archive is not fetchable from this build environment, add "
                  "the files there to run this check")
        print(f"\n[acceptance 04] benchmark instance spot checks: SKIP ({reason})",
              flush=True)
        pytest.skip(reason)
    details = []
    ok = True
    for name, best, factor in targets:
        g = load_graph_file(str(DATA_DIR / "walshaw" / name))
        report = partition(g, 2, 0.0, AnnealConfig(sweeps=100_000, replicas=16, seed=0,
                                                   balanced_init=True, time_limit=290.0))
        ratio = approximation_ratio(report.cut, best)
        details.append(f"{g.name} ratio {ratio:.4f} (allowed {factor})")
        ok = ok and ratio <= factor
    _verdict(4, "benchmark instance spot checks", ok, "; ".join(details))


def test_criterion_05_penalty_dominance():
    """Exhaustive: every infeasible assignment costs more than the feasible optimum."""
    start = time.perf_counter()
    graphs = [g for g in small_corpus() if g.n <= 10]
    assert len(graphs) >= 20
    for g in graphs:
        model = build_bipartition_qubo(g)  # default penalty
        rows = all_bit_rows(g.n).astype(np.float64)
        qi, qj, qc = model.quadratic_terms()
        energies = model.constant + rows @ model.linear \
            + (rows[:, qi] * rows[:, qj]) @ qc
        feasible = rows.sum(axis=1) == balance_bounds(g.n, 2, 0.0)[1]
        assert feasible.any()
        best_feasible = energies[feasible].min()
        assert energies[~feasible].min() > best_feasible, g.name
        assert best_feasible == float(bipartition_optimum(g, 0.0)), g.name
    elapsed = time.perf_counter() - start
    _verdict(5, "default penalty dominates every infeasible assignment",
             elapsed < 30.0,
             f"{len(graphs)} graphs exhaustively checked, {elapsed:.1f}s of 30s")


def _exhaustive_optimum_check(model, indicators_feasible, optimum: int) -> None:
    """Every assignment, slack bits included, in chunks of rows.

    Infeasible indicators must cost more than the best feasible assignment,
    the best feasible energy must be the oracle optimum, and every global
    argmin must decode to a feasible partition.
    """
    nv = model.num_vars
    q = np.zeros((nv, nv))
    qi, qj, qc = model.quadratic_terms()
    q[qi, qj] = qc
    lin = model.linear
    best_feasible = best_infeasible = math.inf
    argmin_energy, argmin_rows = math.inf, []
    chunk = 1 << 15
    for start in range(0, 1 << nv, chunk):
        idx = np.arange(start, min(start + chunk, 1 << nv), dtype=np.int64)
        rows = ((idx[:, None] >> np.arange(nv)) & 1).astype(np.float64)
        energies = model.constant + rows @ lin + ((rows @ q) * rows).sum(axis=1)
        ok = indicators_feasible(rows)
        if ok.any():
            best_feasible = min(best_feasible, energies[ok].min())
        if not ok.all():
            best_infeasible = min(best_infeasible, energies[~ok].min())
        low = energies.min()
        if low < argmin_energy:
            argmin_energy, argmin_rows = low, []
        if low == argmin_energy:
            argmin_rows.extend(rows[energies == low])
    assert best_infeasible > best_feasible, (best_infeasible, best_feasible)
    assert best_feasible == float(optimum), (best_feasible, optimum)
    for row in argmin_rows:
        assert decode(model, row.astype(np.int8))[1].feasible


def test_criterion_05_optimum_feasible_with_imbalance():
    """Exhaustive at epsilon > 0: the model optimum is a valid partition."""
    start = time.perf_counter()
    cases = 0
    for g in (g for g in small_corpus() if g.n <= 10):
        for epsilon in (0.1, 0.25):
            _, upper = balance_bounds(g.n, 2, epsilon)

            def two_way(rows, n=g.n, upper=upper):
                ones = rows[:, :n].sum(axis=1)
                return (ones <= upper) & (n - ones <= upper)

            _exhaustive_optimum_check(build_bipartition_qubo(g, epsilon), two_way,
                                      bipartition_optimum(g, epsilon))
            cases += 1
    rng = np.random.RandomState(505)
    three_way_graphs = [gnp_graph(4, 0.5, rng), gnp_graph(4, 0.8, rng),
                        gnp_graph(5, 0.5, rng),
                        Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])]
    for g in three_way_graphs:
        lower, upper = balance_bounds(g.n, 3, 0.5)

        def three_way(rows, n=g.n, lower=lower, upper=upper):
            ind = rows[:, :3 * n].reshape(len(rows), n, 3)  # variable 3v+j: v in part j
            sizes = ind.sum(axis=1)
            return ((ind.sum(axis=2) == 1).all(axis=1)
                    & (sizes >= lower).all(axis=1) & (sizes <= upper).all(axis=1))

        _exhaustive_optimum_check(build_kway_qubo(g, 3, 0.5), three_way,
                                  kway_optimum(g, 3, 0.5))
        cases += 1
    elapsed = time.perf_counter() - start
    _verdict(5, "model optimum is a valid partition at epsilon > 0",
             elapsed < 60.0,
             f"{cases} models exhaustively checked, slack included, {elapsed:.1f}s of 60s")


def test_criterion_06_slack_coverage():
    start = time.perf_counter()
    for span in range(65):
        weights = encode_slack_weights(span)
        sums = {0}
        for w in weights:
            sums |= {s + w for s in sums}
        assert sums == set(range(span + 1)), span
    elapsed = time.perf_counter() - start
    _verdict(6, "slack weights cover every range 0..64", elapsed < 1.0,
             f"all spans exact, {elapsed:.2f}s of 1s")


def test_criterion_07_incremental_delta_exactness():
    """1e5 random flips on a 500-variable model, incremental == from-scratch."""
    start = time.perf_counter()
    rng = np.random.RandomState(7707)
    g = gnp_graph(500, 0.01, rng)
    model = build_bipartition_qubo(g)  # integer coefficients at the default penalty
    nbrs = expanded_neighbors(model)
    bits = rng.randint(0, 2, size=model.num_vars).astype(np.int8)
    lf = local_fields(model, bits, nbrs)
    running = energy(model, bits)
    flips = rng.randint(0, model.num_vars, size=100_000)
    for i in flips:
        running += delta_energy(model, bits, int(i), lf)
        apply_flip(nbrs, bits, int(i), lf)
        assert running == energy(model, bits)
    elapsed = time.perf_counter() - start
    _verdict(7, "incremental deltas exact over 100000 flips", elapsed < 10.0,
             f"{len(flips)} flips exact on {model.num_vars} variables, "
             f"{elapsed:.1f}s of 10s")


def test_criterion_08_sparsification_pipeline():
    """keep_ratio 0.7 keeps round(0.7 m) edges; projection never undercounts."""
    start = time.perf_counter()
    rng = np.random.RandomState(8808)
    cfg = AnnealConfig(sweeps=200, replicas=1, balanced_init=True)
    for i in range(100):
        n = int(rng.randint(8, 21))
        g = gnp_graph(n, float(rng.choice([0.25, 0.4, 0.6])), rng)
        scores = forest_fire_scores(g, seed=i)
        sparse = sparsify(g, scores, 0.7)
        assert sparse.m == round(0.7 * g.m), g.name
        report = partition(sparse, 2, 0.0, cfg)
        assert project_partition(g, report.partition) >= report.cut

    g0 = gnp_graph(16, 0.4, np.random.RandomState(1))
    a = run_sparsify_pipeline(g0, 2, anneal_cfg=cfg, repeats=10, seed=123)
    b = run_sparsify_pipeline(g0, 2, anneal_cfg=cfg, repeats=10, seed=123)
    deterministic = a.projected_cuts == b.projected_cuts and a.best_cut == b.best_cut
    elapsed = time.perf_counter() - start
    _verdict(8, "sparsify, solve, project pipeline",
             deterministic and elapsed < 60.0,
             f"100 instances kept round(0.7 m) edges with projected >= sparsified, "
             f"repeats=10 deterministic, {elapsed:.1f}s")


def test_criterion_09_comparison_arithmetic_and_bolding():
    ratio = approximation_ratio(613, 596)
    ratio_ok = abs(ratio - 1.0285) <= 1e-4

    external = ingest_external(str(DATA_DIR / "external_cuts.csv"))
    text = emit([], "markdown", external=external)
    row = next(ln for ln in text.splitlines() if ln.startswith("| add20 |"))
    cells = [c.strip() for c in row.split("|")[1:-1]]
    # columns: graph, n, best known, DA, DA ratio, Gurobi, Gurobi ratio,
    # KaHIP, KaHIP ratio, notes
    bold_ok = (cells[2] == "596" and cells[3] == "**596**" and cells[5] == "**596**"
               and cells[7] == "613" and cells[8] == "1.0285" and cells[9] == ""
               and cells[1] == "2395")
    _verdict(9, "comparison table ratio arithmetic and minimum bolding",
             ratio_ok and bold_ok,
             f"613/596 = {ratio:.5f}, add20 row cells {cells[3]}/{cells[5]}/{cells[7]}")


def test_criterion_10_bench_determinism(tmp_path):
    rng = np.random.RandomState(10)
    paths = []
    for i in range(2):
        g = gnp_graph(12, 0.35, rng, name=f"det{i}")
        p = tmp_path / f"det{i}.graph"
        p.write_text(write_metis(g))
        paths.append(str(p))
    cfg = tmp_path / "grid.yaml"
    cfg.write_text("ks: [2, 3]\nepsilons: [0.0, 0.03]\nsweeps: 150\nreplicas: 2\n"
                   + "graphs: [" + ", ".join(paths) + "]\n")

    outs = []
    for run in range(2):
        out = tmp_path / f"run{run}.csv"
        rc = cli_main(["bench", "--config", str(cfg), "--format", "csv",
                       "--out", str(out)])
        assert rc == 0
        outs.append(out.read_text())

    def strip_wall_time(text):
        rows = list(csv.reader(io.StringIO(text)))
        col = rows[0].index("wall_time")
        for r in rows[1:]:
            r[col] = ""
        return rows

    same = strip_wall_time(outs[0]) == strip_wall_time(outs[1])
    _verdict(10, "bench CSV byte-identical modulo wall_time", same,
             f"two runs, {len(outs[0].splitlines()) - 1} records each")
