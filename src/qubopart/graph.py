"""Graph and partition containers plus the text formats used by the toolkit.

Graphs are simple undirected graphs (no self-loops, no parallel edges,
no weights).  Supported on-disk formats:

* adjacency-list graph files ("n m" header, one 1-indexed neighbor line
  per vertex, '%' comment lines) for both reading and writing,
* MatrixMarket coordinate files (read only, pattern extracted).

Vertices are 0-indexed in memory; files stay 1-indexed on disk.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class GraphFormatError(ValueError):
    """Raised when a graph or partition file violates its format."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    ``edges`` is a sorted tuple of ``(u, v)`` pairs with ``u < v``.
    Construct through :meth:`from_edges`, which normalizes and validates.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    name: str = ""

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], name: str = "") -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        normalized = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            normalized.add((u, v) if u < v else (v, u))
        return cls(n=n, edges=tuple(sorted(normalized)), name=name)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Edges as an (m, 2) int64 array (empty graphs give shape (0, 2))."""
        if not self.edges:
            return np.empty((0, 2), dtype=np.int64)
        return np.asarray(self.edges, dtype=np.int64)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array.ravel(), minlength=self.n).astype(np.int64)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex sorted neighbor tuples."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    @property
    def d_avg(self) -> float:
        return 2.0 * self.m / self.n if self.n else 0.0


def laplacian(g: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian (degree matrix minus adjacency), int64."""
    lap = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        lap[u, v] -= 1
        lap[v, u] -= 1
        lap[u, u] += 1
        lap[v, v] += 1
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
        labels = tuple(int(x) for x in labels)
        for i, lab in enumerate(labels):
            if not 0 <= lab < k:
                raise ValueError(f"label {lab} at vertex {i} outside range({k})")
        return cls(labels=labels, k=k)

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
    return [ln for ln in text.splitlines() if not ln.lstrip().startswith("%")]


def parse_metis(text: str, name: str = "") -> Graph:
    """Parse an adjacency-list graph file.

    Header: ``n m [fmt [ncon]]``.  fmt 0 (or absent) means unweighted; the
    weight variants (1, 10, 11, and the 3-digit forms) are accepted but all
    weights are discarded with a warning.  Neighbor ids are 1-indexed.
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
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header field in {lines[0]!r}") from exc
    fmt = header[2] if len(header) >= 3 else "0"
    if not fmt.isdigit():
        raise GraphFormatError(f"format code must be numeric, got {fmt!r}")
    fmt3 = fmt.zfill(3)
    if len(fmt3) != 3 or any(c not in "01" for c in fmt3):
        raise GraphFormatError(f"unsupported format code {fmt!r}")
    has_vsize, has_vweight, has_eweight = (c == "1" for c in fmt3)
    ncon = int(header[3]) if len(header) == 4 else (1 if has_vweight else 0)
    if n < 0 or m < 0:
        raise GraphFormatError(f"negative size in header {lines[0]!r}")

    vertex_lines = lines[1:]
    while len(vertex_lines) > n and not vertex_lines[-1].split():
        vertex_lines.pop()
    if len(vertex_lines) < n:
        raise GraphFormatError(f"expected {n} vertex lines, found {len(vertex_lines)}")
    if len(vertex_lines) > n:
        raise GraphFormatError(f"expected {n} vertex lines, found {len(vertex_lines)}")

    skip = (1 if has_vsize else 0) + (ncon if has_vweight else 0)
    directed: set[tuple[int, int]] = set()
    for i, line in enumerate(vertex_lines):
        try:
            tokens = [int(t) for t in line.split()]
        except ValueError as exc:
            raise GraphFormatError(f"non-integer token on vertex line {i + 1}") from exc
        rest = tokens[skip:]
        if has_eweight:
            if len(rest) % 2:
                raise GraphFormatError(f"vertex {i + 1}: odd token count with edge weights")
            rest = rest[0::2]
        for nbr in rest:
            if not 1 <= nbr <= n:
                raise GraphFormatError(f"vertex {i + 1} lists neighbor {nbr} outside 1..{n}")
            if nbr == i + 1:
                raise GraphFormatError(f"self-loop at vertex {i + 1}")
            directed.add((i, nbr - 1))

    if has_vsize or has_vweight or has_eweight:
        warnings.warn("weighted graph file: all weights discarded", stacklevel=2)

    for u, v in directed:
        if (v, u) not in directed:
            raise GraphFormatError(f"asymmetric adjacency: vertex {u + 1} lists {v + 1} "
                                   f"but {v + 1} does not list {u + 1}")
    undirected = {(u, v) for u, v in directed if u < v}
    if len(undirected) != m:
        raise GraphFormatError(f"header declares {m} edges, adjacency lists {len(undirected)}")
    return Graph(n=n, edges=tuple(sorted(undirected)), name=name)


def write_metis(g: Graph) -> str:
    """Serialize a graph to the adjacency-list format (1-indexed, sorted rows)."""
    out = [f"{g.n} {g.m}"]
    for nbrs in g.adjacency:
        out.append(" ".join(str(v + 1) for v in nbrs))
    return "\n".join(out) + "\n"


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

    edges: set[tuple[int, int]] = set()
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
        edges.add((i - 1, j - 1) if i < j else (j - 1, i - 1))
    if diagonal:
        warnings.warn(f"dropped {diagonal} diagonal entries", stacklevel=2)
    if field != "pattern":
        warnings.warn("numeric matrix values discarded, pattern kept", stacklevel=2)
    return Graph(n=rows, edges=tuple(sorted(edges)), name=name)


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
