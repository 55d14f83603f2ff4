"""Graph and partition containers plus the text formats used by the toolkit.

Graphs are simple undirected graphs (no self-loops, no parallel edges,
no weights), stored as their compressed sparse row (CSR) adjacency, the
layout METIS itself uses; the sorted ``(m, 2)`` edge list is derived from
it.  Supported on-disk formats:

* adjacency-list graph files ("n m" header, one 1-indexed neighbor line
  per vertex whose tokens are runs of ASCII decimal digits separated by
  spaces and tabs, '%' comment lines) for both reading and writing,
* MatrixMarket coordinate files (read only, pattern extracted).

Vertices are 0-indexed in memory; files stay 1-indexed on disk.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np


class GraphFormatError(ValueError):
    """Raised when a graph or partition file violates its format."""


class _cached_property:
    """``functools.cached_property`` without its lock: the first read computes
    the value and stores it in the instance's ``__dict__``, which later reads
    find first.

    Before Python 3.12 the functools one holds a lock per property, shared
    by every instance, while it computes.  A fork map that forks while
    another thread holds that lock leaves a child that waits for it
    forever, since the thread that holds it does not exist in the child.
    Two threads that both compute a value store equal values, so no lock
    is needed.
    """

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph stored as its CSR adjacency.

    ``indptr`` (length n + 1) and ``indices`` (length 2m) are read-only int64
    arrays holding both directions of every edge: vertex v's neighbors are
    ``indices[indptr[v]:indptr[v + 1]]``, sorted and without repeats.  They
    are the only stored edge data.  Derived from them, each once and on
    first use:

    * ``edge_array``: the read-only ``(m, 2)`` int64 array of the arcs with
      ``u < v``, which the CSR order leaves sorted;
    * ``edges``: the same edge list as a sorted tuple of ``(u, v)`` tuples;
    * ``degrees``.

    Construct through :meth:`from_edges`, which normalizes and validates, or
    through the parsers.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    name: str = ""

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] | np.ndarray,
                   name: str = "") -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        ea = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                        dtype=np.int64).reshape(-1, 2)
        u, v = ea[:, 0], ea[:, 1]
        out_of_range = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        bad = out_of_range | (u == v)
        if bad.any():
            first = int(bad.argmax())
            if out_of_range[first]:
                raise ValueError(f"edge ({u[first]}, {v[first]}) out of range for n={n}")
            raise ValueError(f"self-loop at vertex {u[first]}")
        return cls._from_pairs(n, u, v, name=name)

    @classmethod
    def _from_pairs(cls, n: int, u: np.ndarray, v: np.ndarray, name: str = "") -> "Graph":
        """Graph of the edges ``{u[i], v[i]}``, in range and without self-loops.

        One sort of the keys of both directions gives the CSR order; repeats
        merge.
        """
        keys = _unique_keys(np.concatenate([u * n + v, v * n + u]))
        return cls._from_sorted_arcs(n, *np.divmod(keys, n), name=name)

    @classmethod
    def _from_sorted_arcs(cls, n: int, src: np.ndarray, dst: np.ndarray,
                          name: str = "") -> "Graph":
        """Graph from the arcs ``src -> dst`` of a symmetric adjacency, sorted and unique."""
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(n, *_read_only(indptr, dst), name=name)

    @property
    def m(self) -> int:
        return len(self.indices) // 2

    @_cached_property
    def edge_array(self) -> np.ndarray:
        """Read-only ``(m, 2)`` int64 rows ``(u, v)`` with ``u < v``, sorted."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        upper = src < self.indices
        return _read_only(np.stack([src[upper], self.indices[upper]], axis=1))[0]

    @_cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted ``(u, v)`` tuples with ``u < v``: a view of ``edge_array``."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @_cached_property
    def degrees(self) -> np.ndarray:
        return _read_only(np.diff(self.indptr))[0]

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    @property
    def d_avg(self) -> float:
        return 2.0 * self.m / self.n if self.n else 0.0


def _unique_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of non-negative int64 keys.

    Keys that are already strictly increasing, as a file with sorted rows
    gives, are returned as they are, without a sort.  ``np.unique`` gives
    the same, but on numpy 2.4 its hash table takes about 15x as long as
    this sort for the tens of thousands of keys of a graph.
    """
    if (keys[1:] > keys[:-1]).all():
        return keys
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


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
        if values.dtype.kind not in "biu":  # a float or object label must be whole
            bad = np.flatnonzero((values % 1 != 0).astype(bool))
            if len(bad):
                i = int(bad[0])
                raise ValueError(f"label {values[i]} at vertex {i} is not an integer")
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
    # each cut edge differs in both of its arcs
    return int(np.count_nonzero(np.repeat(labels, g.degrees) != labels[g.indices])) // 2


def balance_bounds(n: int, k: int, epsilon: float | Fraction = 0.0) -> tuple[int, int]:
    """Per-part size bounds (lower, upper) for an epsilon-imbalanced k-way partition.

    Every part of a balanced partition holds between lower and upper
    vertices.  The upper bound is floor((1+eps) * ceil(n/k)), so at
    epsilon == 0 no part holds more than ceil(n/k) vertices.  For k > 2 the
    lower bound is ceil((1-eps) * ceil(n/k)) when k parts of that size fit
    in n vertices.  Otherwise, and always for k == 2, it is
    max(0, n - (k-1) * upper), the least a part holds when every other part
    is full; at epsilon == 0 that leaves "no part above ceil(n/k)" as the
    only rule.  Either way k * lower <= n <= k * upper, so every window can
    be met.

    ``epsilon`` given as a float is interpreted through its shortest decimal
    representation so that e.g. 0.03 means exactly 3/100; this keeps the
    floor/ceil arithmetic free of binary rounding artifacts.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not isinstance(epsilon, Fraction) and not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon}")
    eps = epsilon if isinstance(epsilon, Fraction) else Fraction(str(epsilon))
    if eps < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    ceil_nk = -(-n // k)
    upper = math.floor((1 + eps) * ceil_nk)
    lower = max(0, math.ceil((1 - eps) * ceil_nk))
    if k == 2 or k * lower > n:
        lower = max(0, n - (k - 1) * upper)
    return lower, upper


def _split_lines(text: str) -> list[str]:
    """Lines of ``text``, broken at ``\\n``, ``\\r\\n`` and ``\\r`` only.

    ``str.splitlines`` also breaks at ``\\v``, ``\\f``, ``\\x1c``-``\\x1e``,
    ``\\x85``, ``\\u2028`` and ``\\u2029``, which would turn one malformed line
    into two.  A final line break ends the last line, as there.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


# the characters other than \n and \r at which str.splitlines breaks a line
_OTHER_BREAKS = frozenset("\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _holds_other_break(line: str) -> bool:
    """Whether ``line`` holds a character that ``str.splitlines`` would break
    it at, which ``str.split`` would then read as a blank."""
    return not _OTHER_BREAKS.isdisjoint(line)


def _strip_comment_lines(text: str) -> list[str]:
    # '%' lines are comments; blank lines are kept because a line with no
    # tokens is a legal vertex row (isolated vertex).
    lines = _split_lines(text)
    if "%" not in text:
        return lines
    return [ln for ln in lines if not ln.lstrip().startswith("%")]


def parse_metis(text: str, name: str = "") -> Graph:
    """Parse an adjacency-list graph file.

    Header: ``n m [fmt [ncon]]``.  fmt 0 (or absent) means unweighted; the
    weight variants (1, 10, 11, and the 3-digit forms) are accepted but all
    weights are discarded with a warning.  Neighbor ids are 1-indexed.

    A vertex line holds runs of ASCII decimal digits separated by spaces
    and tabs, and nothing else: ``+3``, ``1_0``, ``3.0``, ``-2``, a
    non-ASCII digit or any other blank is a non-integer token, reported for
    its line after the checks of the lines before it.  One byte scan over
    the whole body finds the tokens and numpy reads them in one call.
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
    if len(vertex_lines) != n:
        raise GraphFormatError(f"expected {n} vertex lines, found {len(vertex_lines)}")

    skip = (1 if has_vsize else 0) + (ncon if has_vweight else 0)
    ids, counts, bad_line, long_values = _scan_digit_rows(vertex_lines, n)
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
        i, at = row[wrong[0]] + 1, nbr_at[wrong[0]]
        if not 1 <= ids[at] <= n:
            value = long_values.get(at, ids[at])
            raise GraphFormatError(f"vertex {i} lists neighbor {value} outside 1..{n}")
        raise GraphFormatError(f"self-loop at vertex {i}")
    if bad_line < len(vertex_lines):
        raise GraphFormatError(f"non-integer token on vertex line {bad_line + 1}")

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


def _scan_digit_rows(lines: list[str], n: int) -> tuple[
        np.ndarray, np.ndarray, int, dict[int, int]]:
    """Tokens of ``lines``: ``(ids, counts, bad_line, long_values)``.

    A token is a run of ASCII decimal digits; spaces and tabs separate
    them.  One byte scan over the joined lines finds the tokens and
    ``np.fromstring`` reads them into the int64 ``ids``; ``counts`` holds
    each line's token count.  ``bad_line`` is the index of the first line
    holding any other character, ``len(lines)`` when there is none; only the
    lines before it are read.  A token longer than 18 digits is read from
    its own text into ``long_values``, keyed by its index in ``ids``, and
    clipped to ``[0, n + 1]`` in ``ids``, which keeps every range verdict.
    """
    body = "\n".join(lines)
    # one byte per character: a non-ASCII one becomes '?', which no rule allows
    raw = np.frombuffer(body.encode("ascii", "replace"), dtype=np.uint8)
    digit = (raw >= ord("0")) & (raw <= ord("9"))
    allowed = digit | (raw == ord(" ")) | (raw == ord("\t")) | (raw == ord("\n"))
    bad_line = len(lines)
    if not allowed.all():
        first = int(allowed.argmin())
        bad_line = body.count("\n", 0, first)
        end = max(body.rfind("\n", 0, first), 0)
        body, raw, digit = body[:end], raw[:end], digit[:end]
    # digit runs start and end where the padded mask changes, alternately
    edges = np.flatnonzero(np.diff(np.concatenate(([False], digit, [False]))))
    starts, ends = edges[0::2], edges[1::2]
    # numpy reads a blank-only body as [0]
    ids = np.fromstring(body, dtype=np.int64, sep=" ") if len(starts) else np.empty(0, np.int64)
    long_values = {}
    for at in np.flatnonzero(ends - starts > _MAX_SCAN_DIGITS).tolist():
        long_values[at] = int(body[starts[at]:ends[at]])
        ids[at] = min(long_values[at], n + 1)
    cuts = np.searchsorted(starts, np.flatnonzero(raw == ord("\n")))
    # [:bad_line]: an empty body holds no line, not one blank line
    return ids, np.diff(cuts, prepend=0, append=len(starts))[:bad_line], bad_line, long_values


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
    lines = _split_lines(text)
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
    bad = next((ln for ln in [lines[0], *body] if _holds_other_break(ln)), None)
    if bad is not None:
        raise GraphFormatError(f"line break other than \\n, \\r\\n or \\r in line {bad!r}")
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


def file_stem(path: str) -> str:
    """The file name of ``path`` without its last suffix: the name a loaded
    graph gets by default."""
    base = os.path.basename(path)
    return base.rsplit(".", 1)[0] if "." in base else base


def load_graph_file(path: str, name: str | None = None) -> Graph:
    """Load a graph file, sniffing MatrixMarket by its banner, else adjacency list.

    The graph is named by :func:`file_stem` unless ``name`` overrides it.
    """
    with open(path) as fh:
        text = fh.read()
    if name is None:
        name = file_stem(path)
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
    for ln in _split_lines(text):
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
