"""Registry of reference cuts for benchmark graphs.

Ships a versioned table of the strongest published cuts for the classic
partitioning testbed instances at k = 2 (archive-certified) and k = 3
(best results observed across solvers).  Lookups key on
(graph name, k, imbalance percent); callers may layer extra entries on top,
and a missing entry simply yields None so benchmarks can fall back to the
best cut observed in the current comparison.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable


@dataclass(frozen=True)
class BestKnownEntry:
    graph: str
    n: int
    d_avg: float
    k: int
    eps_pct: float
    cut: int
    source: str  # "archive" (certified) or "observed"


def _eps_key(epsilon: float) -> float:
    return round(float(epsilon) * 100.0, 4)


def _read_registry(lines: Iterable[str], where: str
                   ) -> dict[tuple[str, int, float], BestKnownEntry]:
    """Registry CSV rows keyed on (graph, k, eps_pct); ``d_avg`` and
    ``source`` may be missing or blank (0 and "user")."""
    reader = csv.DictReader(lines)
    missing = sorted({"graph", "n", "k", "eps_pct", "cut"} - set(reader.fieldnames or []))
    if missing:
        raise ValueError(f"registry CSV {where} lacks columns {missing}")
    registry: dict[tuple[str, int, float], BestKnownEntry] = {}
    for num, row in enumerate(reader, start=2):
        try:
            entry = BestKnownEntry(graph=row["graph"], n=int(row["n"]),
                                   d_avg=float(row.get("d_avg") or 0), k=int(row["k"]),
                                   eps_pct=float(row["eps_pct"]), cut=int(row["cut"]),
                                   source=row.get("source") or "user")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}:{num}: bad registry row: {exc}") from exc
        registry[(entry.graph, entry.k, entry.eps_pct)] = entry
    return registry


@lru_cache(maxsize=1)
def load_registry() -> dict[tuple[str, int, float], BestKnownEntry]:
    text = resources.files("qubopart.data").joinpath("best_known.csv").read_text()
    return _read_registry(text.splitlines(), "best_known.csv")


def load_extra_registry(path: str) -> dict[tuple[str, int, float], BestKnownEntry]:
    """Read a user-provided registry CSV with the same columns as the built-in one."""
    with open(path, newline="") as fh:
        return _read_registry(fh, path)


def best_known(graph: str, k: int, epsilon: float,
               extra: dict[tuple[str, int, float], BestKnownEntry] | None = None
               ) -> int | None:
    """Reference cut for (graph, k, epsilon), or None if not on record."""
    key = (graph, k, _eps_key(epsilon))
    if extra and key in extra:
        return extra[key].cut
    entry = load_registry().get(key)
    return entry.cut if entry else None


def graph_meta(graph: str) -> tuple[int, float] | None:
    """(n, average degree) for a registry graph, if known."""
    for entry in load_registry().values():
        if entry.graph == graph:
            return entry.n, entry.d_avg
    return None
