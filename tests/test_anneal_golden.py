"""Golden trajectories of the solver.

Each case pins one SHA-256 digest over the returned replica's best bits,
best energy, flip count, replica id and energy trace.  The digests were
computed with the per-element scalar Metropolis loop (``math.exp`` on one
variable at a time) at commit ca84b31, before the acceptance test was
vectorised, so any change to the trajectory of the numpy engine shows here
even where the numba engine, the other reference, is not installed.

``k2-eps0.1-random-init`` was recomputed the same way when the epsilon > 0
bipartition model gained its lower bound on the part-1 size: the scalar loop
of ca84b31 solving the new model gives the digest below, and so does the
numpy engine.  The other three models have epsilon == 0 and did not change.

The module uses only the public API so that it can run against older
versions of the package unchanged.
"""

import hashlib

import numpy as np
import pytest

from qubopart.anneal import AnnealConfig, solve
from qubopart.qubo import build_bipartition_qubo, build_kway_qubo

from conftest import gnp_graph

GOLDEN = {
    "k2-eps0": "ea61ab9b5abf930e9fcc39224435a736802898f6ea13642f801d390c1065931b",
    "k2-eps0.1-random-init": "21415fcd0cf1e566d47cef3a0cd3e015f1be04a6f4297402813dc7661e00ea3c",
    "k3-balanced": "5dd86d6f449458de3d7ab26d0f77816ca38a3a894b83af03d0a9ba6bcc59b82f",
    "k2-linear-t0": "01b9d0c2c3df3afc7518fecd09336a94b7c0d44f99367d903a8236a6a3268787",
}


def _case(name):
    g = gnp_graph(30, 0.2, np.random.RandomState(21))
    common = {"sweeps": 600, "replicas": 2, "trace_every": 50, "engine": "python"}
    if name == "k2-eps0":
        return build_bipartition_qubo(g), AnnealConfig(seed=11, balanced_init=True, **common)
    if name == "k2-eps0.1-random-init":
        return build_bipartition_qubo(g, 0.1), AnnealConfig(seed=12, **common)
    if name == "k3-balanced":
        return build_kway_qubo(g, 3), AnnealConfig(seed=13, balanced_init=True, **common)
    assert name == "k2-linear-t0"
    return build_bipartition_qubo(g), AnnealConfig(
        seed=14, schedule="linear", temp_initial=6.0, temp_final=0.05,
        balanced_init=True, **common)


def _digest(res) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(res.best_bits, dtype=np.int8).tobytes())
    h.update(np.float64(res.best_energy).tobytes())
    h.update(np.int64(res.flips).tobytes())
    h.update(np.int64(res.replica_id).tobytes())
    h.update(np.asarray(res.energy_trace, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trajectory(name):
    model, cfg = _case(name)
    assert _digest(solve(model, cfg)) == GOLDEN[name]
