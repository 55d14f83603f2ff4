"""Graph and partition containers plus the text formats used by the toolkit.

Graphs are simple undirected graphs (no self-loops, no parallel edges,
no weights), stored as arrays: the sorted ``(m, 2)`` edge list, and the
compressed sparse row (CSR) adjacency derived from it, the layout METIS
itself uses.  Supported on-disk formats:

* adjacency-list graph files ("n m" header, one 1-indexed neighbor line
  per vertex, '%' comment lines) for both reading and writing,
* MatrixMarket coordinate files (read only, pattern extracted).

Vertices are 0-indexed in memory; files stay 1-indexed on disk.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class GraphFormatError(ValueError):
    """Raised when a graph or partition file violates its format."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph stored as arrays.

    ``edge_array`` is a read-only ``(m, 2)`` int64 array of ``(u, v)`` rows
    with ``u < v``, sorted and without repeats; it is the only stored edge
    data.  Derived from it, each once and on first use:

    * ``indptr``/``indices``: the CSR adjacency, both directions, with each
      vertex's neighbors sorted; vertex v's neighbors are
      ``indices[indptr[v]:indptr[v + 1]]``;
    * ``edges``: the same edge list as a sorted tuple of ``(u, v)`` tuples;
    * ``degrees``.

    Construct through :meth:`from_edges`, which normalizes and validates, or
    through the parsers.
    """

    n: int
    edge_array: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        ea = np.asarray(self.edge_array, dtype=np.int64).reshape(-1, 2)
        ea.flags.writeable = False  # the derived views would go stale
        object.__setattr__(self, "edge_array", ea)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], name: str = "") -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        ea = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        u, v = ea[:, 0], ea[:, 1]
        out_of_range = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        bad = out_of_range | (u == v)
        if bad.any():
            first = int(bad.argmax())
            if out_of_range[first]:
                raise ValueError(f"edge ({u[first]}, {v[first]}) out of range for n={n}")
            raise ValueError(f"self-loop at vertex {u[first]}")
        keys = _unique_keys(np.minimum(u, v) * n + np.maximum(u, v))
        return cls(n=n, edge_array=np.stack(np.divmod(keys, n), axis=1), name=name)

    @classmethod
    def _from_sorted_arcs(cls, n: int, src: np.ndarray, dst: np.ndarray,
                          name: str = "") -> "Graph":
        """Graph from the arcs ``src -> dst`` of a symmetric adjacency, sorted and unique.

        Those arcs are already the CSR order, so the adjacency is stored as
        well rather than derived again.
        """
        g = cls(n=n, edge_array=np.stack([src, dst], axis=1)[src < dst], name=name)
        vars(g)["_csr"] = _csr_from_arcs(n, src, dst)  # fills the cached_property
        return g

    @property
    def m(self) -> int:
        return len(self.edge_array)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted ``(u, v)`` tuples with ``u < v``: a view of ``edge_array``."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        ea = self.edge_array
        keys = np.sort(np.concatenate([ea[:, 0] * self.n + ea[:, 1],
                                       ea[:, 1] * self.n + ea[:, 0]]))
        return _csr_from_arcs(self.n, *np.divmod(keys, self.n))

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointers, length n + 1."""
        return self._csr[0]

    @property
    def indices(self) -> np.ndarray:
        """CSR neighbor ids, length 2m, sorted within each vertex's row."""
        return self._csr[1]

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array.ravel(), minlength=self.n).astype(np.int64)

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    @property
    def d_avg(self) -> float:
        return 2.0 * self.m / self.n if self.n else 0.0


def _unique_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of non-negative int64 keys.

    ``np.unique`` gives the same, but on numpy 2.4 its hash table takes
    about 15x as long as this sort for the tens of thousands of keys of
    a graph.
    """
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def _csr_from_arcs(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of directed arcs already sorted by (src, dst)."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    for arr in (indptr, dst):
        arr.flags.writeable = False
    return indptr, dst


def laplacian(g: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian (degree matrix minus adjacency), int64."""
    lap = np.zeros((g.n, g.n), dtype=np.int64)
    ea = g.edge_array
    np.add.at(lap, (ea.ravel(), ea[:, ::-1].ravel()), -1)
    lap[np.diag_indices(g.n)] = g.degrees
    return lap


@dataclass(frozen=True)
class Partition:
    """Assignment of each vertex to one of k parts, labels in range(k)."""

    labels: tuple[int, ...]
    k: int

    @classmethod
    def from_labels(cls, labels: Sequence[int], k: int) -> "Partition":
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        # labels beyond int64 make an object array, which compares exactly
        values = np.asarray(labels)
        bad = np.flatnonzero(~((values >= 0) & (values < k)).astype(bool))
        if len(bad):
            i = int(bad[0])
            raise ValueError(f"label {values[i]} at vertex {i} outside range({k})")
        return cls(labels=tuple(values.astype(np.int64).tolist()), k=k)

    @property
    def n(self) -> int:
        return len(self.labels)

    def part_sizes(self) -> list[int]:
        return np.bincount(self.labels, minlength=self.k).tolist() if self.labels else [0] * self.k


def cut_edges(g: Graph, partition: Partition | Sequence[int] | np.ndarray) -> int:
    """Number of edges whose endpoints carry different labels."""
    labels = np.asarray(partition.labels if isinstance(partition, Partition) else partition)
    if labels.shape != (g.n,):
        raise ValueError(f"labels have length {labels.shape}, graph has {g.n} vertices")
    if g.m == 0:
        return 0
    ea = g.edge_array
    return int(np.count_nonzero(labels[ea[:, 0]] != labels[ea[:, 1]]))


def balance_bounds(n: int, k: int, epsilon: float | Fraction = 0.0) -> tuple[int, int]:
    """Per-part size bounds (lower, upper) for an epsilon-imbalanced k-way partition.

    With epsilon == 0 every part must hold exactly ceil(n/k) vertices at most,
    and the bounds collapse to (ceil(n/k), ceil(n/k)).  With epsilon > 0 the
    upper bound is floor((1+eps) * ceil(n/k)); for k == 2 only the upper bound
    is enforced (lower = 0), for k > 2 the lower bound is
    ceil((1-eps) * ceil(n/k)).  The k == 2 lower = 0 leaves the other part's
    bound to the caller: the bipartition QUBO builder turns part 0's upper
    bound into part 1's lower bound n - upper.

    ``epsilon`` given as a float is interpreted through its shortest decimal
    representation so that e.g. 0.03 means exactly 3/100; this keeps the
    floor/ceil arithmetic free of binary rounding artifacts.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    eps = epsilon if isinstance(epsilon, Fraction) else Fraction(str(epsilon))
    if eps < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    ceil_nk = -(-n // k)
    if eps == 0:
        return ceil_nk, ceil_nk
    upper = math.floor((1 + eps) * ceil_nk)
    if k == 2:
        return 0, upper
    lower = max(0, math.ceil((1 - eps) * ceil_nk))
    return lower, upper


def _strip_comment_lines(text: str) -> list[str]:
    # '%' lines are comments; blank lines are kept because a line with no
    # tokens is a legal vertex row (isolated vertex).
    if "%" not in text:
        return text.splitlines()
    return [ln for ln in text.splitlines() if not ln.lstrip().startswith("%")]


def parse_metis(text: str, name: str = "") -> Graph:
    """Parse an adjacency-list graph file.

    Header: ``n m [fmt [ncon]]``.  fmt 0 (or absent) means unweighted; the
    weight variants (1, 10, 11, and the 3-digit forms) are accepted but all
    weights are discarded with a warning.  Neighbor ids are 1-indexed.

    When the vertex lines hold only ASCII digits, spaces and tabs, and no
    token is longer than 18 digits, one byte scan over the whole body finds
    the tokens and numpy reads them in one call.  Any other body, such as
    one with ``+3``, ``1_0``, ``3.0``, non-ASCII digits or other Unicode
    blanks, is read with Python's ``int()`` per token, which accepts what
    ``int()`` accepts and names the line of the first token it rejects.
    Both paths give the same graphs, errors and warnings.
    """
    lines = _strip_comment_lines(text)
    while lines and not lines[0].split():
        lines.pop(0)
    if not lines:
        raise GraphFormatError("empty graph file")

    header = lines[0].split()
    if len(header) < 2 or len(header) > 4:
        raise GraphFormatError(f"header must be 'n m [fmt [ncon]]', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
        ncon = int(header[3]) if len(header) == 4 else None
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header field in {lines[0]!r}") from exc
    fmt = header[2] if len(header) >= 3 else "0"
    if not fmt.isdigit():
        raise GraphFormatError(f"format code must be numeric, got {fmt!r}")
    fmt3 = fmt.zfill(3)
    if len(fmt3) != 3 or any(c not in "01" for c in fmt3):
        raise GraphFormatError(f"unsupported format code {fmt!r}")
    has_vsize, has_vweight, has_eweight = (c == "1" for c in fmt3)
    if ncon is None:
        ncon = 1 if has_vweight else 0
    if n < 0 or m < 0 or ncon < 0:
        raise GraphFormatError(f"negative size in header {lines[0]!r}")

    vertex_lines = lines[1:]
    while len(vertex_lines) > n and not vertex_lines[-1].split():
        vertex_lines.pop()
    if len(vertex_lines) < n:
        raise GraphFormatError(f"expected {n} vertex lines, found {len(vertex_lines)}")
    if len(vertex_lines) > n:
        raise GraphFormatError(f"expected {n} vertex lines, found {len(vertex_lines)}")

    skip = (1 if has_vsize else 0) + (ncon if has_vweight else 0)
    scanned = _scan_digit_rows(vertex_lines)
    if scanned is not None:
        values, counts = scanned
        ids, bad_line, bad_exc = values, None, None
    else:
        values, ids, counts, bad_line, bad_exc = _split_int_rows(vertex_lines, n)
    row_id = np.repeat(np.arange(len(counts), dtype=np.int64), counts)

    # a line's tokens: vertex size, ncon weights, then neighbors (each
    # followed by an edge weight with has_eweight)
    rest = np.arange(len(ids)) - np.repeat(np.cumsum(counts) - counts, counts) - skip
    is_nbr = rest >= 0
    odd = np.empty(0, dtype=np.int64)
    if has_eweight:
        is_nbr &= rest % 2 == 0
        odd = np.flatnonzero(np.maximum(counts - skip, 0) % 2 == 1)
    nbr_at = np.flatnonzero(is_nbr)
    row, nbr = row_id[nbr_at], ids[nbr_at]
    wrong = np.flatnonzero((nbr < 1) | (nbr > n) | (nbr == row + 1))
    # report what a line-by-line reader meets first: the lowest line, and in
    # it the odd count before any neighbor
    if len(odd) and (not len(wrong) or odd[0] <= row[wrong[0]]):
        raise GraphFormatError(f"vertex {odd[0] + 1}: odd token count with edge weights")
    if len(wrong):
        i, value = row[wrong[0]] + 1, int(values[nbr_at[wrong[0]]])
        if not 1 <= value <= n:
            raise GraphFormatError(f"vertex {i} lists neighbor {value} outside 1..{n}")
        raise GraphFormatError(f"self-loop at vertex {i}")
    if bad_exc is not None:
        raise GraphFormatError(f"non-integer token on vertex line {bad_line + 1}") from bad_exc

    if has_vsize or has_vweight or has_eweight:
        warnings.warn("weighted graph file: all weights discarded", stacklevel=2)

    # a neighbor repeated within one line merges silently
    keys = _unique_keys(row * n + nbr - 1)
    src, dst = np.divmod(keys, n)
    if not np.array_equal(np.sort(dst * n + src), keys):
        first = np.flatnonzero(~np.isin(dst * n + src, keys))[0]
        u, v = src[first] + 1, dst[first] + 1
        raise GraphFormatError(f"asymmetric adjacency: vertex {u} lists {v} "
                               f"but {v} does not list {u}")
    if len(keys) // 2 != m:
        raise GraphFormatError(f"header declares {m} edges, adjacency lists {len(keys) // 2}")
    return Graph._from_sorted_arcs(n, src, dst, name=name)


_MAX_SCAN_DIGITS = 18  # every 18-digit token fits in int64


def _scan_digit_rows(lines: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """All tokens of ``lines`` as int64, and each line's token count.

    One byte scan finds the tokens and ``np.fromstring`` reads them, when
    the lines hold only ASCII digits, spaces and tabs and no token is
    longer than 18 digits.  ``None`` otherwise, or when the scan and the
    read disagree on the number of tokens: such lines are left to
    ``int()``, which reports the bad token.
    """
    if not lines:  # the joined body could not tell them from one blank line
        return None
    body = "\n".join(lines)
    if not body.isascii():
        return None
    raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    digit = (raw >= ord("0")) & (raw <= ord("9"))
    if not (digit | (raw == ord(" ")) | (raw == ord("\t")) | (raw == ord("\n"))).all():
        return None
    # digit runs start and end where the padded mask changes, alternately
    edges = np.flatnonzero(np.diff(np.concatenate(([False], digit, [False]))))
    starts, ends = edges[0::2], edges[1::2]
    if len(starts) and (ends - starts).max() > _MAX_SCAN_DIGITS:
        return None
    values = np.fromstring(body, dtype=np.int64, sep=" ")
    if len(values) != len(starts):  # a blank-only body reads as [0]
        return None
    cuts = np.searchsorted(starts, np.flatnonzero(raw == ord("\n")))
    return values, np.diff(cuts, prepend=0, append=len(starts))


def _split_int_rows(lines: list[str], n: int) -> tuple[
        list[int], np.ndarray, np.ndarray, int | None, ValueError | None]:
    """Tokens of ``lines`` read by ``int()``: ``(values, ids, counts, bad_line, bad_exc)``.

    ``values`` are the Python ints and ``ids`` the same clipped to int64;
    ``counts`` holds each line's token count.  When a token is not an
    integer, only the lines before its line ``bad_line`` are read, and
    ``bad_exc`` is the error ``int()`` raised.
    """
    rows = [ln.split() for ln in lines]
    bad_line = bad_exc = None
    try:
        values = list(map(int, itertools.chain.from_iterable(rows)))
    except ValueError:
        # the rows before the first bad one are checked first, as a
        # line-by-line reader would
        bad_line, bad_exc = _first_non_integer_row(rows)
        rows = rows[:bad_line]
        values = list(map(int, itertools.chain.from_iterable(rows)))
    counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    try:
        ids = np.array(values, dtype=np.int64)
    except OverflowError:
        # clipping to [0, n + 1] keeps every in-range and out-of-range verdict
        ids = np.array(values, dtype=object).clip(0, n + 1).astype(np.int64)
    return values, ids, counts, bad_line, bad_exc


def _first_non_integer_row(rows: list[list[str]]) -> tuple[int, ValueError | None]:
    """Index of the first row holding a token ``int()`` rejects, and its error.

    ``(len(rows), None)`` when every token converts.
    """
    for i, row in enumerate(rows):
        try:
            list(map(int, row))
        except ValueError as exc:
            return i, exc
    return len(rows), None


def write_metis(g: Graph) -> str:
    """Serialize a graph to the adjacency-list format (1-indexed, sorted rows)."""
    ptr, nbrs = g.indptr.tolist(), (g.indices + 1).tolist()
    rows = (" ".join(map(str, nbrs[a:b])) for a, b in zip(ptr, ptr[1:]))
    return "\n".join([f"{g.n} {g.m}", *rows]) + "\n"


def parse_matrix_market(text: str, name: str = "") -> Graph:
    """Parse a MatrixMarket coordinate file into its undirected pattern graph.

    The matrix must be square.  Entries are symmetrized, diagonal entries are
    dropped with a warning, duplicates merge silently, and any numeric values
    are discarded (with a warning for non-pattern fields).
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise GraphFormatError("missing %%MatrixMarket banner")
    banner = lines[0].split()
    if len(banner) != 5:
        raise GraphFormatError(f"malformed banner {lines[0]!r}")
    _, obj, fmt, field, symmetry = (t.lower() for t in banner)
    if obj != "matrix" or fmt != "coordinate":
        raise GraphFormatError(f"only coordinate matrices are supported, got {obj} {fmt}")
    if field not in ("pattern", "real", "integer", "complex"):
        raise GraphFormatError(f"unsupported field {field!r}")
    if symmetry not in ("general", "symmetric", "skew-symmetric", "hermitian"):
        raise GraphFormatError(f"unsupported symmetry {symmetry!r}")

    body = [ln for ln in lines[1:] if ln.split() and not ln.lstrip().startswith("%")]
    if not body:
        raise GraphFormatError("missing dimensions line")
    dims = body[0].split()
    if len(dims) != 3:
        raise GraphFormatError(f"dimensions line must be 'rows cols nnz', got {body[0]!r}")
    try:
        rows, cols, nnz = (int(t) for t in dims)
    except ValueError as exc:
        raise GraphFormatError(f"non-integer dimensions in {body[0]!r}") from exc
    if rows != cols:
        raise GraphFormatError(f"matrix is {rows}x{cols}, adjacency requires square")
    entries = body[1:]
    if len(entries) != nnz:
        raise GraphFormatError(f"declared {nnz} entries, found {len(entries)}")

    edges: list[tuple[int, int]] = []
    diagonal = 0
    for ln in entries:
        tokens = ln.split()
        if len(tokens) < 2:
            raise GraphFormatError(f"malformed entry line {ln!r}")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise GraphFormatError(f"non-integer indices in entry {ln!r}") from exc
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise GraphFormatError(f"entry ({i}, {j}) outside {rows}x{cols}")
        if i == j:
            diagonal += 1
            continue
        edges.append((i - 1, j - 1))
    if diagonal:
        warnings.warn(f"dropped {diagonal} diagonal entries", stacklevel=2)
    if field != "pattern":
        warnings.warn("numeric matrix values discarded, pattern kept", stacklevel=2)
    return Graph.from_edges(rows, edges, name=name)


def load_graph_file(path: str, name: str | None = None) -> Graph:
    """Load a graph file, sniffing MatrixMarket by its banner, else adjacency list.

    The graph is named after the file stem unless ``name`` overrides it.
    """
    import os

    with open(path) as fh:
        text = fh.read()
    if name is None:
        base = os.path.basename(path)
        name = base.rsplit(".", 1)[0] if "." in base else base
    if text.startswith("%%MatrixMarket"):
        return parse_matrix_market(text, name=name)
    return parse_metis(text, name=name)


def write_partition(p: Partition, graph_name: str = "", epsilon: float = 0.0) -> str:
    """Serialize a partition: header comment, then one 0-indexed label per line."""
    header = f"% graph={graph_name or '-'} k={p.k} epsilon={epsilon:g}"
    return "\n".join([header] + [str(lab) for lab in p.labels]) + "\n"


def parse_partition(text: str) -> tuple[Partition, dict]:
    """Parse a partition file; returns the partition and its header metadata."""
    meta: dict = {}
    labels: list[int] = []
    for ln in text.splitlines():
        stripped = ln.strip()
        if not stripped:
            continue
        if stripped.startswith("%"):
            for token in stripped.lstrip("% ").split():
                if "=" in token:
                    key, val = token.split("=", 1)
                    meta[key] = val
            continue
        try:
            labels.append(int(stripped))
        except ValueError as exc:
            raise GraphFormatError(f"bad partition line {ln!r}") from exc
    if not labels:
        raise GraphFormatError("partition file has no labels")
    k = int(meta["k"]) if "k" in meta else max(labels) + 1
    if "epsilon" in meta:
        meta["epsilon"] = float(meta["epsilon"])
    return Partition.from_labels(labels, k), meta
