"""Output checks that do not rely on the package's own arithmetic.

Cuts are recounted with an edge loop over the generator's edge list, and
balance bounds are recomputed with :class:`fractions.Fraction`.  Model
energies are recomputed through ``qubopart.qubo.energy``, a name the traced
run never wraps, so these calls stay out of the layer timings.
"""

from __future__ import annotations

from fractions import Fraction

from graphs import BenchGraph, count_cut


def size_bounds(n: int, k: int, epsilon: str) -> tuple[int, int]:
    """(lower, upper) part-size bounds of an epsilon-imbalanced k-way partition.

    Every part holds at most floor((1+eps) * ceil(n/k)) vertices; for k > 2
    it also holds at least ceil((1-eps) * ceil(n/k)).  With eps = 0 both
    bounds are ceil(n/k) (k = 2 keeps only the upper one).
    """
    eps = Fraction(epsilon)
    base = -(-n // k)
    upper = (1 + eps) * base
    lower = (1 - eps) * base
    upper_int = upper.numerator // upper.denominator
    lower_int = -(-lower.numerator // lower.denominator)
    return (lower_int if k > 2 else 0), upper_int


def check_parsed(bg: BenchGraph, g) -> list[str]:
    if g.n != bg.n or g.edges != bg.edges:
        return [f"parsed graph differs from generated {bg.name}: n={g.n} m={g.m}"]
    return []


def check_partition(bg: BenchGraph, labels, k: int, epsilon: str, cut: int) -> list[str]:
    """Problems with a final partition and its reported cut (empty if none)."""
    problems = []
    labels = list(labels)
    if len(labels) != bg.n or any(not 0 <= lab < k for lab in labels):
        return [f"labels are not a {k}-way labelling of {bg.n} vertices"]
    recount = count_cut(bg.edges, labels)
    if recount != cut:
        problems.append(f"reported cut {cut} != edge-loop recount {recount}")
    sizes = [0] * k
    for lab in labels:
        sizes[lab] += 1
    lower, upper = size_bounds(bg.n, k, epsilon)
    if any(s > upper or s < lower for s in sizes):
        problems.append(f"part sizes {sizes} outside [{lower}, {upper}]")
    if recount < bg.cut_floor:
        problems.append(f"cut {recount} below the proven minimum {bg.cut_floor}")
    return problems


def check_energy(model, result) -> list[str]:
    from qubopart.qubo import energy

    recomputed = energy(model, result.best_bits)
    if recomputed != result.best_energy:
        return [f"energy(best_bits) = {recomputed!r} != reported {result.best_energy!r}"]
    return []
