import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import qubopart.graph as graph_module
from qubopart.graph import (Graph, GraphFormatError, Partition, balance_bounds, cut_edges,
                            parse_matrix_market, parse_metis, parse_partition, write_metis,
                            write_partition)
from qubopart.sparsify import forest_fire_scores, sparsify

import reference
from conftest import all_bit_rows, gnp_graph, planted_graph, small_corpus


PATH3 = "3 2\n2\n1 3\n2\n"


def test_parse_metis_path():
    g = parse_metis(PATH3)
    assert (g.n, g.m) == (3, 2)
    assert g.edges == ((0, 1), (1, 2))
    assert g.indptr.tolist() == [0, 1, 3, 4]
    assert g.indices.tolist() == [1, 0, 2, 1]


def test_parse_metis_comments_and_blank_vertex_lines():
    text = "% a comment\n5 2 0\n2\n1\n\n% another\n5\n4\n"
    # vertex 3's line is blank: an isolated vertex, not a skipped row
    g = parse_metis(text)
    assert g.n == 5
    assert g.edges == ((0, 1), (3, 4))
    assert g.degrees.tolist() == [1, 1, 0, 1, 1]


def test_parse_metis_weights_discarded_with_warning():
    text = "3 2 11\n7 2 5\n3 1 5 3 4\n9 2 4\n"
    with pytest.warns(UserWarning, match="weights discarded"):
        g = parse_metis(text)
    assert g.edges == ((0, 1), (1, 2))


def test_parse_metis_errors():
    with pytest.raises(GraphFormatError, match="asymmetric"):
        parse_metis("3 2\n2 3\n1\n\n")
    with pytest.raises(GraphFormatError, match="self-loop"):
        parse_metis("2 1\n1 2\n1\n")
    with pytest.raises(GraphFormatError, match="declares"):
        parse_metis("3 5\n2\n1 3\n2\n")
    with pytest.raises(GraphFormatError, match="neighbor 9"):
        parse_metis("3 2\n9\n1 3\n2\n")
    with pytest.raises(GraphFormatError, match="vertex lines"):
        parse_metis("4 2\n2\n1\n")
    with pytest.raises(GraphFormatError, match="empty"):
        parse_metis("% nothing\n")


def _random_metis_text(rng: np.random.RandomState) -> str:
    """A random graph in a random METIS format, with zero to two random defects.

    Defects that make the file invalid are chosen so that at most one arc
    lacks its reverse, which keeps the expected error message unique.
    """
    n = int(rng.randint(0, 12))
    g = gnp_graph(n, float(rng.choice([0.2, 0.5])), rng)
    fmt = str(rng.choice(["", "0", "1", "10", "11", "100", "111", "011"]))
    has_vsize, has_vweight, has_eweight = (c == "1" for c in fmt.zfill(3))
    ncon = int(rng.randint(1, 4)) if rng.random_sample() < 0.5 else None
    header = [str(n), str(g.m)] + ([fmt or "0"] if fmt or ncon else []) + (
        [str(ncon)] if ncon else [])
    skip = int(has_vsize) + (ncon or 1) * has_vweight
    rows = []
    for v in range(n):
        row = [str(rng.randint(1, 9)) for _ in range(skip)]
        for u in g.indices[g.indptr[v]:g.indptr[v + 1]]:
            row += [str(u + 1)] + ([str(rng.randint(1, 9))] if has_eweight else [])
        rows.append(row)
    step = 2 if has_eweight else 1
    defects = list(rng.choice(["none", "repeat", "plus", "underscore", "float",
                               "out-of-range", "self-loop", "asymmetric", "drop-token",
                               "wrong-m"], size=2, replace=False))
    if {"asymmetric", "drop-token"} <= set(defects):
        defects.pop()
    for defect in defects:
        full = [r for r in rows if len(r) >= skip + step]
        if defect == "repeat" and full:
            row = full[rng.randint(len(full))]
            at = skip + step * int(rng.randint((len(row) - skip) // step))
            row[at:at] = row[at:at + step]
        elif defect in ("plus", "underscore", "float") and full:
            row = full[rng.randint(len(full))]
            at = int(rng.randint(len(row)))
            row[at] = {"plus": "+{}", "underscore": "0_{}", "float": "{}.0"}[defect].format(
                row[at])
        elif defect == "out-of-range" and rows:
            rows[rng.randint(n)].append(str(rng.choice([0, -2, n + 1, 10 ** 30])))
        elif defect == "self-loop" and rows:
            v = int(rng.randint(n))
            rows[v].append(str(v + 1))
        elif defect in ("asymmetric", "drop-token") and full:
            row = full[rng.randint(len(full))]
            at = skip + step * int(rng.randint((len(row) - skip) // step))
            del row[at:at + (step if defect == "asymmetric" else 1)]
        elif defect == "wrong-m":
            header[1] = str(g.m + 1)
    seps = [str(rng.choice([" ", "\t", "  ", " \t "])) for _ in range(n)]
    lines = [" ".join(header)] + [sep.join(row) for sep, row in zip(seps, rows)]
    if rng.random_sample() < 0.3:
        lines.insert(int(rng.randint(len(lines) + 1)), "% a comment")
    return "\n".join(lines) + ("\n\n \n" if rng.random_sample() < 0.3 else "\n")


def _parse_outcome(parse, text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = parse(text)
        except GraphFormatError as exc:
            return "error", str(exc)
    return "ok", g.n, g.edge_array.tolist(), [str(w.message) for w in caught]


def test_parse_metis_matches_line_by_line_reference():
    rng = np.random.RandomState(2025)
    kinds = set()
    for _ in range(600):
        text = _random_metis_text(rng)
        outcome = _parse_outcome(parse_metis, text)
        assert outcome == _parse_outcome(reference.parse_metis, text), text
        kinds.add(outcome[1].split(" ")[0] if outcome[0] == "error" else "ok")
    assert len(kinds) >= 5, kinds  # the defects reach several error branches
    # a non-integer token names its 1-based vertex line, even after earlier
    # lines; an earlier line's error comes first
    with pytest.raises(GraphFormatError, match="non-integer token on vertex line 2$"):
        parse_metis("3 2\n2\n1 3.0\n2\n")
    with pytest.raises(GraphFormatError, match="neighbor 7"):
        parse_metis("3 2\n7\n1 x\n2\n")
    with pytest.raises(GraphFormatError, match="non-integer token on vertex line 1$"):
        parse_metis("3 2\n+2\n1 0_3\n2\n")


def _weighted_path3(fmt: str) -> str:
    """The path 1-2-3 in weighted format ``fmt``, every weight present."""
    has_vsize, has_vweight, has_eweight = (c == "1" for c in fmt.zfill(3))
    rows = []
    for v, nbrs in ((1, [2]), (2, [1, 3]), (3, [2])):
        row = [str(v + 4)] * has_vsize + [str(v)] * has_vweight
        for u in nbrs:
            row += [str(u)] + [str(u + v)] * has_eweight
        rows.append(" ".join(row))
    return "\n".join([f"3 2 {fmt}", *rows]) + "\n"


PARSE_EDGE_TEXTS = {
    "all-blank": "3 0\n\n\n\n",
    "all-blank-spaces-tabs": "3 0\n \n\t\n\n",
    "leading-zeros": "8 1\n\n\n\n\n\n\n008\n0007\n",
    "19-digit-in-range": f"2 1\n{'2'.zfill(19)}\n1\n",
    "19-digit": f"2 1\n{'1' * 19}\n1\n",
    "30-digit": f"2 1\n2 {'9' * 30}\n1\n",
    "18-digit": f"2 1\n{'9' * 18}\n1\n",
    "mixed-blanks": "3 2\n \t 2\t\t\n1 \t  3   \n\t2\n",
    "crlf": "3 2\r\n2\r\n1 3\r\n2\r\n",
    "cr": "3 2\r2\r1 3\r2\r",
    "form-feed": "3 2\n2\n1\f3\n2\n",
    "vertical-tab": "3 2\n2\n1\v3\n2\n",
    "unit-separator": "3 2\n2\n1\x1f3\n2\n",
    # str.splitlines would break these lines in two and read a 2-vertex graph
    "vertical-tab-break": "2 1\n2\v1\n",
    "file-separator-break": "2 1\n2\x1c1\n",
    "arabic-indic-digit": "3 2\n2\n1 \u0663\n2\n",
    "plus-underscore": "3 2\n+2\n1 0_3\n2\n",
    "plus-then-bad": "3 2\n+2\n1 3\n7\n",
    "sign-inside-token": "3 2\n2\n1 2+3\n2\n",
    **{f"fmt-{fmt}": _weighted_path3(fmt)
       for fmt in ("1", "10", "11", "100", "101", "110", "111", "001", "010", "011")},
}


@pytest.mark.parametrize("name", PARSE_EDGE_TEXTS)
def test_parse_metis_edge_texts_match_reference(name):
    text = PARSE_EDGE_TEXTS[name]
    assert _parse_outcome(parse_metis, text) == _parse_outcome(reference.parse_metis, text)


def test_benchmark_shaped_texts_skip_the_int_fallback():
    # the benchmark's graph texts round-trip exactly through the byte scan
    rows, cols = 12, 16  # the bisect-grid and kway-planted graphs
    grid = Graph.from_edges(rows * cols,
                            [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
                            + [(v, v + cols) for v in range(rows * cols - cols)])
    planted = planted_graph(3000, 4, 8, 2, np.random.RandomState(5))
    for g in (grid, planted):
        assert parse_metis(write_metis(g)).edge_array.tolist() == g.edge_array.tolist()
    assert (grid.m, planted.m) == (rows * (cols - 1) + (rows - 1) * cols, 15000)


def test_metis_round_trip():
    rng = np.random.RandomState(11)
    for _ in range(20):
        g = gnp_graph(int(rng.randint(2, 20)), 0.4, rng)
        h = parse_metis(write_metis(g))
        assert (h.n, h.edges) == (g.n, g.edges)


def test_parse_matrix_market_symmetric():
    text = ("%%MatrixMarket matrix coordinate pattern symmetric\n"
            "% comment\n"
            "4 4 4\n2 1\n3 2\n4 3\n4 1\n")
    g = parse_matrix_market(text)
    assert g.n == 4
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_parse_matrix_market_general_merges_and_drops_diagonal():
    text = ("%%MatrixMarket matrix coordinate real general\n"
            "3 3 5\n1 2 1.5\n2 1 2.5\n1 1 9.0\n2 3 1.0\n3 3 4.0\n")
    with pytest.warns(UserWarning):
        g = parse_matrix_market(text)
    assert g.edges == ((0, 1), (1, 2))


def test_parse_matrix_market_errors():
    with pytest.raises(GraphFormatError, match="banner"):
        parse_matrix_market("3 3 1\n1 2\n")
    with pytest.raises(GraphFormatError, match="square"):
        parse_matrix_market("%%MatrixMarket matrix coordinate pattern general\n3 4 1\n1 2\n")
    with pytest.raises(GraphFormatError, match="declared"):
        parse_matrix_market("%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n")
    with pytest.raises(GraphFormatError, match="outside"):
        parse_matrix_market("%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 7\n")
    with pytest.raises(GraphFormatError, match="coordinate"):
        parse_matrix_market("%%MatrixMarket matrix array real general\n3 3\n1.0\n")


_MM_PATTERN = "%%MatrixMarket matrix coordinate pattern general\n"


@pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_parse_matrix_market_breaks_lines_at_newlines_only(brk):
    # str.splitlines would read each of these as two lines: for the first,
    # two entries (1, 2) and (2, 3) from one entry line
    for text in (f"{_MM_PATTERN}3 3 2\n1 2{brk}2 3\n", f"{_MM_PATTERN}3 3 1\n1 2{brk}\n",
                 f"{_MM_PATTERN}3 3{brk}1\n1 2\n", _MM_PATTERN.replace(" pattern", brk + "pattern")
                 + "3 3 1\n1 2\n"):
        with pytest.raises(GraphFormatError, match="line break other than"):
            parse_matrix_market(text)
    for newline in ("\r\n", "\r"):
        text = f"{_MM_PATTERN}% c{brk}\n3 3 2\n1 2\n2 3\n".replace("\n", newline)
        assert parse_matrix_market(text).edges == ((0, 1), (1, 2))


def test_graph_from_edges_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(3, [(0, 3)])
    g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 2)])  # dedup + normalize
    assert g.edges == ((0, 2), (1, 2))


def _sparsified_planted():
    g = planted_graph(40, 2, 5, 2, np.random.RandomState(6))
    scores = forest_fire_scores(g, seed=3)
    keep = round(0.6 * g.m)
    # highest scores first, ties to the lower edge row
    top = sorted(range(g.m), key=lambda e: (-int(scores.scores[e]), e))[:keep]
    return sparsify(g, scores, 0.6), g.n, [g.edges[e] for e in top]


def _parsed_matrix_market():
    text = ("%%MatrixMarket matrix coordinate pattern general\n"
            "5 5 6\n2 1\n1 2\n3 3\n5 3\n3 5\n1 4\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the dropped diagonal entry
        return parse_matrix_market(text), 5, [(0, 1), (2, 4), (0, 3)]


_REPEATS = [(3, 1), (1, 3), (0, 5), (5, 0), (0, 5), (2, 4)]
# each builds (graph, n, the edges it should hold in any order and orientation)
STORED_GRAPH_CASES = {
    "from_edges-repeats-reversed": lambda: (Graph.from_edges(6, _REPEATS), 6, _REPEATS),
    "from_edges-ndarray": lambda: (Graph.from_edges(6, np.array(_REPEATS)), 6, _REPEATS),
    "from_edges-generator": lambda: (Graph.from_edges(4, ((i, i + 1) for i in range(3))), 4,
                                     [(0, 1), (1, 2), (2, 3)]),
    "from_edges-empty": lambda: (Graph.from_edges(3, []), 3, []),
    "from_edges-no-vertices": lambda: (Graph.from_edges(0, []), 0, []),
    # vertex 1 lists 2 twice, vertex 4 is isolated
    "parse_metis": lambda: (parse_metis("5 4\n2 2 3\n1 3\n1 2 5\n\n3\n"), 5,
                            [(0, 1), (0, 2), (1, 2), (2, 4)]),
    "parse_matrix_market": _parsed_matrix_market,
    "sparsify": _sparsified_planted,
}


@pytest.mark.parametrize("case", list(STORED_GRAPH_CASES))
def test_every_constructor_stores_sorted_unique_symmetric_csr(case):
    g, n, pairs = STORED_GRAPH_CASES[case]()
    want = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    assert (g.n, g.m) == (n, len(want))
    for arr in (g.indptr, g.indices, g.edge_array, g.degrees):
        assert arr.dtype == np.int64 and not arr.flags.writeable
    assert g.indptr.shape == (n + 1,) and g.indptr[0] == 0 and g.indptr[-1] == 2 * len(want)
    rows = [g.indices[a:b].tolist() for a, b in zip(g.indptr, g.indptr[1:])]
    for v, row in enumerate(rows):
        assert row == sorted(set(row)) and v not in row, (v, row)
        assert all(v in rows[u] for u in row), (v, row)
    assert g.edge_array.shape == (len(want), 2) and g.edge_array.flags.c_contiguous
    assert g.edge_array.tolist() == [list(e) for e in want]
    assert g.edges == tuple(want)
    assert np.array_equal(g.degrees, np.diff(g.indptr))


def test_cut_edges_matches_direct_enumeration():
    rng = np.random.RandomState(5)
    for _ in range(30):
        g = gnp_graph(int(rng.randint(2, 12)), 0.5, rng)
        labels = rng.randint(0, 3, size=g.n)
        direct = sum(1 for u, v in g.edges if labels[u] != labels[v])
        assert cut_edges(g, labels) == direct
    # edgeless graphs, isolated vertices and every label container
    isolated = Graph.from_edges(26, [(u + 4, v + 4) for u, v in gnp_graph(20, 0.2, rng).edges])
    assert (isolated.degrees == 0).sum() > 4
    for g in (Graph.from_edges(0, []), Graph.from_edges(5, []), isolated):
        labels = rng.randint(0, 4, size=g.n)
        direct = sum(1 for u, v in g.edges if labels[u] != labels[v])
        for given in (labels, tuple(labels.tolist()), labels.tolist(),
                      Partition.from_labels(labels, 4)):
            assert cut_edges(g, given) == direct


def test_unique_keys_skips_the_sort_of_sorted_keys():
    sorted_keys = np.array([0, 3, 4, 9, 2**40], dtype=np.int64)
    for keys in (sorted_keys, sorted_keys[:1], sorted_keys[:0]):
        got = graph_module._unique_keys(keys)
        assert got is keys  # returned unchanged, no copy
    for keys, want in (([4, 3, 9, 0], [0, 3, 4, 9]), ([0, 3, 3, 4], [0, 3, 4]),
                       ([7, 7], [7]), ([5, 1, 5, 1, 0], [0, 1, 5])):
        got = graph_module._unique_keys(np.array(keys, dtype=np.int64))
        assert got.dtype == np.int64 and got.tolist() == want


def test_parse_metis_unsorted_rows_and_repeated_neighbors():
    # rows out of order and a repeated neighbor take the sorting path and
    # give the graph of the edge set
    text = "5 4\n3 2\n1 3 3\n2 1 4\n3\n\n"
    g = parse_metis(text)
    want = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 3)])
    assert g.m == want.m == 4
    assert g.indptr.tolist() == want.indptr.tolist()
    assert g.indices.tolist() == want.indices.tolist()
    assert g.edge_array.tolist() == [[0, 1], [0, 2], [1, 2], [2, 3]]
    assert not g.indices.flags.writeable
    assert parse_metis(write_metis(g)).indices.tolist() == g.indices.tolist()


def laplacian(g: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian (degree matrix minus adjacency), int64."""
    lap = np.zeros((g.n, g.n), dtype=np.int64)
    ea = g.edge_array
    np.add.at(lap, (ea.ravel(), ea[:, ::-1].ravel()), -1)
    lap[np.diag_indices(g.n)] = g.degrees
    return lap


def test_cut_equals_laplacian_quadratic_form():
    # x^T L x counts cut edges for a 0/1 indicator
    rng = np.random.RandomState(6)
    for _ in range(20):
        g = gnp_graph(int(rng.randint(2, 10)), 0.5, rng)
        lap = laplacian(g)
        for row in all_bit_rows(g.n)[:: max(1, 2 ** g.n // 16)]:
            x = row.astype(np.int64)
            assert x @ lap @ x == cut_edges(g, x)


def test_balance_bounds_frozen_cases():
    assert balance_bounds(10, 2, 0.0) == (5, 5)
    assert balance_bounds(5, 2, 0.0) == (2, 3)
    assert balance_bounds(2395, 2, 0.01) == (1186, 1209)
    assert balance_bounds(9, 3, 0.0) == (3, 3)
    assert balance_bounds(12, 3, 0.5) == (2, 6)
    # decimal interpretation: floor(1.03 * 100) must be 103, not 102
    assert balance_bounds(200, 2, 0.03) == (97, 103)
    assert balance_bounds(300, 3, 0.7)[1] == 170
    # add20 at k=3, 0%: three parts of 799 do not fit in 2395 vertices, so
    # the lower bound is what a part holds when the other two are full
    assert balance_bounds(2395, 3, 0.0) == (797, 799)


def _unfitted_balance_bounds(n, k, epsilon):
    """balance_bounds without the fallback lower bound: ceil((1-eps) * ceil(n/k))
    even where k such parts do not fit in n vertices."""
    eps = Fraction(str(epsilon))
    ceil_nk = -(-n // k)
    return max(0, math.ceil((1 - eps) * ceil_nk)), math.floor((1 + eps) * ceil_nk)


def test_balance_bounds_every_window_can_be_met():
    changed = 0
    for n in range(1, 81):
        for k in range(2, n + 1):
            for epsilon in (0.0, 0.01, 0.03, 0.05, 0.1, 0.25, 0.34, 0.5, 1.5):
                lower, upper = balance_bounds(n, k, epsilon)
                assert 0 <= lower <= upper, (n, k, epsilon)
                assert k * lower <= n <= k * upper, (n, k, epsilon)
                old_lower, old_upper = _unfitted_balance_bounds(n, k, epsilon)
                if k == 2:  # the least a part holds when the other one is full
                    assert (lower, upper) == (max(0, n - old_upper), old_upper), (n, epsilon)
                elif k * old_upper >= n and k * old_lower <= n:
                    assert (lower, upper) == (old_lower, old_upper), (n, k, epsilon)
                else:
                    changed += 1
    assert changed > 0


def test_balance_bounds_validation():
    with pytest.raises(ValueError):
        balance_bounds(10, 1, 0.0)
    with pytest.raises(ValueError):
        balance_bounds(0, 2, 0.0)
    with pytest.raises(ValueError):
        balance_bounds(10, 2, -0.1)


def test_partition_basics():
    p = Partition.from_labels([0, 1, 2, 1], 3)
    assert p.part_sizes() == [1, 2, 1]
    with pytest.raises(ValueError, match="outside"):
        Partition.from_labels([0, 3], 3)
    # a label beyond int64 is out of range, not an overflow
    with pytest.raises(ValueError, match=rf"label {2**70} at vertex 1 outside range\(3\)"):
        Partition.from_labels([0, 2**70, 5], 3)
    # a label that is not an integer is rejected, not truncated
    with pytest.raises(ValueError, match=r"label 1.5 at vertex 1 is not an integer"):
        Partition.from_labels([0, 1.5, 1], 2)
    with pytest.raises(ValueError, match=r"label 0.9 at vertex 0 is not an integer"):
        Partition.from_labels(np.array([0.9, 1.0]), 2)
    with pytest.raises(ValueError, match=r"label 1/2 at vertex 2 is not an integer"):
        Partition.from_labels([0, 1, Fraction(1, 2)], 2)
    # whole floats and bools are labels
    assert Partition.from_labels([0.0, 1.0, 1], 2).labels == (0, 1, 1)
    assert Partition.from_labels(np.array([True, False]), 2).labels == (1, 0)
    with pytest.raises(ValueError):
        cut_edges(Graph.from_edges(3, [(0, 1)]), [0, 1])


def test_partition_from_labels_large_array():
    labels = np.random.RandomState(5).randint(0, 7, size=40000)
    p = Partition.from_labels(labels, 7)
    assert p.labels == tuple(labels.tolist())
    assert all(type(lab) is int for lab in p.labels)
    assert p.part_sizes() == np.bincount(labels, minlength=7).tolist()
    labels[[123, 3000]] = [7, -1]
    with pytest.raises(ValueError, match=r"label 7 at vertex 123 outside range\(7\)"):
        Partition.from_labels(labels, 7)


def test_partition_file_round_trip():
    p = Partition.from_labels([0, 2, 1, 1, 0], 3)
    text = write_partition(p, graph_name="toy", epsilon=0.03)
    q, meta = parse_partition(text)
    assert q == p
    assert meta["graph"] == "toy"
    assert meta["epsilon"] == 0.03
    for newline in ("\r\n", "\r"):
        assert parse_partition(text.replace("\n", newline)) == (q, meta)
    with pytest.raises(GraphFormatError):
        parse_partition("% k=2\n0\nx\n")
    # lines break at \n, \r\n and \r only, so \x1c is inside the label's line
    with pytest.raises(GraphFormatError, match="bad partition line"):
        parse_partition("% k=2\n0\x1c1\n")


def test_cut_complement_symmetry():
    rng = np.random.RandomState(61)
    for g in small_corpus(seed=13, count=10, n_max=12):
        labels = rng.randint(0, 2, size=g.n)
        assert cut_edges(g, labels) == cut_edges(g, 1 - labels)
