"""One balanced k-way partition: build the QUBO, solve, decode, repair, count cuts."""

from __future__ import annotations

from dataclasses import dataclass

from .anneal import AnnealConfig, SolveResult, solve
from .evaluate import InfeasiblePartitionError, decode, repair
from .graph import Graph, Partition, cut_edges
from .qubo import QuboModel, _checked_bounds, build_bipartition_qubo, build_kway_qubo


@dataclass
class PartitionReport:
    partition: Partition | None  # None when the balance bounds are unsatisfiable
    cut_raw: int  # cut of the decoded labels, before any repair
    cut: int | None
    decoded_feasible: bool
    penalty: float
    result: SolveResult
    error: str = ""  # why there is no partition
    repair_moves: int = 0  # vertices whose label repair changed; 0 without repair


def build_model(g: Graph, k: int, epsilon: float = 0.0,
                penalty: float | None = None) -> QuboModel:
    """The single-indicator model for k == 2, the one-hot model otherwise."""
    if k == 2:
        return build_bipartition_qubo(g, epsilon, penalty)
    return build_kway_qubo(g, k, epsilon, penalty)


def check_model_args(n: int, k: int, epsilon: float) -> None:
    """Raise the ValueError :func:`build_model` raises for k or epsilon on an
    n-vertex graph, without building the model."""
    _checked_bounds(n, k, epsilon, one_hot=k != 2)


def partition(g: Graph, k: int, epsilon: float = 0.0, cfg: AnnealConfig | None = None,
              penalty: float | None = None) -> PartitionReport:
    """Build, solve and decode; repair only labels that break one-hot or balance.

    Unsatisfiable bounds are reported in ``error``, not raised, after the one solve.
    """
    model = build_model(g, k, epsilon, penalty)
    result = solve(model, cfg or AnnealConfig())
    decoded, feas = decode(model, result.best_bits)
    cut_raw = cut_edges(g, decoded)
    report = PartitionReport(partition=decoded, cut_raw=cut_raw, cut=cut_raw,
                             decoded_feasible=feas.feasible, penalty=model.penalty,
                             result=result)
    if not feas.feasible:
        try:
            report.partition = repair(g, decoded, k, epsilon)
        except InfeasiblePartitionError as exc:
            report.partition, report.cut, report.error = None, None, str(exc)
        else:
            report.cut = cut_edges(g, report.partition)
            report.repair_moves = sum(
                a != b for a, b in zip(decoded.labels, report.partition.labels))
    return report
