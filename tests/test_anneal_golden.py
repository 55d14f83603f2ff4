"""Golden trajectories of the solver.

Each case pins one SHA-256 digest over the returned replica's best bits,
best energy, flip count, replica id and energy trace.  The digests are the
solver's determinism contract: the draw order, the acceptance rule, and the
flip-gain arithmetic with its order of operations all show in them.  They
were computed with the per-element scalar Metropolis loop (``math.exp`` on
one variable at a time) at commit ca84b31, before the acceptance test was
vectorised, so any change to the trajectory of the sweeps shows here.

``k2-eps0.1-random-init`` was recomputed the same way when the epsilon > 0
bipartition model gained its lower bound on the part-1 size: the scalar loop
of ca84b31 solving the new model gives the digest below, and so do the
vectorised sweeps.  The other models of that commit have epsilon == 0 and
did not change.

``grid12x16-eps0`` (the ``bisect-grid`` benchmark's model, schedule and
sweep count) and ``k4-above-block`` (4180 variables, more than one draw
block, so every sweep refills it) were computed at commit d8709f9, whose
sweeps rebuilt the flip gains after every flip and made the Metropolis
test with ``np.exp`` plus a scalar ``math.exp`` re-check.

``test_golden_noninteger_penalty`` pins a model at penalty 0.3, whose
chain terms are inexact in binary floating point, so a change in the order
in which the expansion, the energy or the solver sums them shows there.
Its digests were computed at commit e795d03, before the chains were stored
flat.  The solver rebuilds that model's flip gains after every flip and
recounts the energy of a best that moved.

The integer-penalty models above sum exactly in any order, so the solver
takes its exact path on them: a flip updates only the gains it changes and
the solve reports the energy its sweeps tracked.  Their digests, computed
when every flip rebuilt the gains and every moved best was recounted, pin
that the exact path gives the same trajectories bit for bit.

The module uses only the public API so that it can run against older
versions of the package unchanged.
"""

import hashlib

import numpy as np
import pytest

from qubopart.anneal import AnnealConfig, solve
from qubopart.graph import Graph
from qubopart.qubo import build_bipartition_qubo, build_kway_qubo, energy, write_qubo_text

from conftest import gnp_graph, grid_graph

GOLDEN = {
    "k2-eps0": "ea61ab9b5abf930e9fcc39224435a736802898f6ea13642f801d390c1065931b",
    "k2-eps0.1-random-init": "21415fcd0cf1e566d47cef3a0cd3e015f1be04a6f4297402813dc7661e00ea3c",
    "k3-balanced": "5dd86d6f449458de3d7ab26d0f77816ca38a3a894b83af03d0a9ba6bcc59b82f",
    "grid12x16-eps0": "55725e559c359fb16944e3658992282659ff6114b9fedb0dbb2d5ed2855d7e37",
    "k4-above-block": "78f8842ce83bdc60f24bfff688984618639b400085749b1e5ba8ce537d314af3",
}


def _sparse_random_graph(n, m, rng):
    pairs = np.sort(rng.randint(0, n, size=(m, 2)), axis=1)
    return Graph.from_edges(n, sorted({(int(u), int(v)) for u, v in pairs if u != v}))


def _case(name):
    if name == "grid12x16-eps0":  # the bisect-grid benchmark's model and schedule
        return build_bipartition_qubo(grid_graph(12, 16)), AnnealConfig(
            seed=16, sweeps=2000, replicas=2, trace_every=100, balanced_init=True)
    if name == "k4-above-block":  # every sweep refills the draw block
        g = _sparse_random_graph(1040, 3000, np.random.RandomState(22))
        return build_kway_qubo(g, 4, 0.05), AnnealConfig(
            seed=17, sweeps=600, replicas=2, trace_every=50, balanced_init=True,
            temp_initial=1.0, temp_final=0.5)
    g = gnp_graph(30, 0.2, np.random.RandomState(21))
    common = {"sweeps": 600, "replicas": 2, "trace_every": 50}
    if name == "k2-eps0":
        return build_bipartition_qubo(g), AnnealConfig(seed=11, balanced_init=True, **common)
    if name == "k2-eps0.1-random-init":
        return build_bipartition_qubo(g, 0.1), AnnealConfig(seed=12, **common)
    assert name == "k3-balanced"
    return build_kway_qubo(g, 3), AnnealConfig(seed=13, balanced_init=True, **common)


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


GOLDEN_NONINTEGER = {
    "qubo-text": "cbef018134c47a1bd1a0692cb5feadddddf20de569e93399ee90aeef29eb30a2",
    "energies": "24df40f5cd7097fef9d562586a6d8fb89dce9ed6a8f333995322bb4b8e77dcd4",
    "solve": "8f727f8dbcebe1e0e97e9ea1427782a46f6fdedeba0159042d54bb85dacb2a97",
}


def test_golden_noninteger_penalty():
    g = gnp_graph(24, 0.3, np.random.RandomState(31))
    model = build_kway_qubo(g, 3, 0.2, penalty=0.3)
    rng = np.random.RandomState(32)
    energies = [energy(model, rng.randint(0, 2, size=model.num_vars)) for _ in range(20)]
    res = solve(model, AnnealConfig(seed=15, sweeps=600, replicas=2, trace_every=50,
                                    balanced_init=True))
    got = {
        "qubo-text": hashlib.sha256(write_qubo_text(model).encode()).hexdigest(),
        "energies": hashlib.sha256(np.asarray(energies, dtype=np.float64).tobytes()).hexdigest(),
        "solve": _digest(res),
    }
    assert got == GOLDEN_NONINTEGER


@pytest.mark.parametrize("name", ["k2-eps0", "k3-balanced", "grid12x16-eps0",
                                  "k4-above-block"])
def test_golden_under_nonbinding_time_limit(name):
    """A time limit that does not bind makes the sweep driver,
    ``_python_sweeps``, read the clock after every trial in each replica's
    single call; the trajectory must not change."""
    model, cfg = _case(name)
    cfg.time_limit = 3600.0
    assert _digest(solve(model, cfg)) == GOLDEN[name]
