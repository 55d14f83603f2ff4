"""Balanced graph partitioning via QUBO models and simulated annealing."""

from .anneal import AnnealConfig, SolveResult, solve
from .bestknown import best_known
from .evaluate import Feasibility, InfeasiblePartitionError, approximation_ratio, decode, repair
from .graph import (Graph, GraphFormatError, Partition, balance_bounds, cut_edges,
                    load_graph_file, parse_matrix_market, parse_metis, write_metis)
from .pipeline import PartitionReport, partition
from .qubo import (QuboModel, build_bipartition_qubo, build_kway_qubo, default_penalty,
                   encode_slack_weights, energy)
from .sparsify import EdgeScores, forest_fire_scores, project_partition, run_sparsify_pipeline, sparsify

__version__ = "0.1.0"

__all__ = [
    "AnnealConfig", "SolveResult", "solve",
    "best_known",
    "Feasibility", "InfeasiblePartitionError", "approximation_ratio", "decode", "repair",
    "Graph", "GraphFormatError", "Partition", "balance_bounds", "cut_edges",
    "load_graph_file", "parse_matrix_market", "parse_metis", "write_metis",
    "PartitionReport", "partition",
    "QuboModel", "build_bipartition_qubo", "build_kway_qubo", "default_penalty",
    "encode_slack_weights", "energy",
    "EdgeScores", "forest_fire_scores", "project_partition",
    "run_sparsify_pipeline", "sparsify",
    "__version__",
]
