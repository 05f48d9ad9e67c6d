"""Local-search tour improvement (2-opt and Or-opt).

The paper's heuristics stop at the convex-hull insertion circuit; these
improvement passes are provided for the EXT-A2 ablation (how much does a
better Hamiltonian circuit shrink the visiting interval?) and as optional
post-processing for users of the library.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.geometry.point import distance_matrix
from repro.graphs.tour import Tour

__all__ = ["two_opt", "or_opt", "improve_tour"]

NodeId = Hashable


def _tour_matrix(tour: Tour) -> tuple[list[NodeId], np.ndarray]:
    nodes = list(tour.order)
    dmat = distance_matrix([tour.point(n) for n in nodes])
    return nodes, dmat


def _vector_kernels():
    """The vectorized planning kernels, or None when the switch is off.

    Imported lazily so module load order stays acyclic (see
    :func:`repro.graphs.hamiltonian._vector_kernels`).
    """
    from repro.obs import registry as _obs
    from repro.planning import kernels

    vector = kernels.vector_enabled()
    _obs.inc("planning_kernel_dispatch", path="vector" if vector else "scalar")
    return kernels if vector else None


def two_opt(tour: Tour, *, max_rounds: int = 50, tol: float = 1e-9) -> Tour:
    """Classic 2-opt: reverse tour segments while any reversal shortens the tour.

    Runs improvement rounds until no improving move exists or ``max_rounds``
    is reached; each round applies the first improving reversal of a
    row-major (i, j) scan.  By default the round is evaluated as one
    broadcast O(n^2) delta matrix (:func:`repro.planning.kernels.two_opt_order`,
    byte-identical move selection); with the vector switch off the original
    scalar scan runs, costing O(n^2) Python-level iterations per round.
    """
    n = len(tour)
    if n < 4:
        return tour
    nodes, dmat = _tour_matrix(tour)
    kernels = _vector_kernels()
    if kernels is not None:
        order = kernels.two_opt_order(
            list(range(n)), dmat, max_rounds=max_rounds, tol=tol
        )
        return Tour([nodes[i] for i in order], tour.coordinates).counterclockwise()
    order = list(range(n))

    improved = True
    rounds = 0
    while improved and rounds < max_rounds:
        improved = False
        rounds += 1
        for i in range(n - 1):
            a, b = order[i], order[i + 1]
            for j in range(i + 2, n):
                c = order[j]
                d = order[(j + 1) % n]
                if d == a:
                    continue
                delta = (dmat[a, c] + dmat[b, d]) - (dmat[a, b] + dmat[c, d])
                if delta < -tol:
                    order[i + 1 : j + 1] = reversed(order[i + 1 : j + 1])
                    improved = True
                    break
            if improved:
                break
    new_order = [nodes[i] for i in order]
    return Tour(new_order, tour.coordinates).counterclockwise()


def or_opt(tour: Tour, *, segment_lengths: tuple[int, ...] = (1, 2, 3), max_rounds: int = 30,
           tol: float = 1e-9) -> Tour:
    """Or-opt: relocate short chains of 1-3 consecutive nodes to a better position.

    Each round applies the first improving relocation of the (segment length,
    rotation start, insertion edge) scan.  By default the candidate rows of a
    round are evaluated as broadcast removal-gain/insertion-cost matrices
    (:func:`repro.planning.kernels.or_opt_order`, byte-identical move
    selection); with the vector switch off the original scalar scan runs.
    """
    n = len(tour)
    if n < 5:
        return tour
    nodes, dmat = _tour_matrix(tour)
    kernels = _vector_kernels()
    if kernels is not None:
        order = kernels.or_opt_order(
            list(range(n)), dmat,
            segment_lengths=tuple(segment_lengths), max_rounds=max_rounds, tol=tol,
        )
        return Tour([nodes[i] for i in order], tour.coordinates).counterclockwise()
    order = list(range(n))

    def try_round() -> bool:
        nonlocal order
        for seg_len in segment_lengths:
            for i in range(n):
                seg = [order[(i + k) % n] for k in range(seg_len)]
                prev_node = order[(i - 1) % n]
                next_node = order[(i + seg_len) % n]
                if prev_node in seg or next_node in seg:
                    continue
                removal_gain = (
                    dmat[prev_node, seg[0]] + dmat[seg[-1], next_node] - dmat[prev_node, next_node]
                )
                rest = [x for x in order if x not in seg]
                m = len(rest)
                for j in range(m):
                    a = rest[j]
                    b = rest[(j + 1) % m]
                    insertion_cost = dmat[a, seg[0]] + dmat[seg[-1], b] - dmat[a, b]
                    if insertion_cost < removal_gain - tol:
                        order = rest[: j + 1] + seg + rest[j + 1 :]
                        return True
        return False

    rounds = 0
    while rounds < max_rounds and try_round():
        rounds += 1
    new_order = [nodes[i] for i in order]
    return Tour(new_order, tour.coordinates).counterclockwise()


def improve_tour(tour: Tour, *, use_or_opt: bool = True) -> Tour:
    """2-opt followed (optionally) by Or-opt; never lengthens the tour."""
    before = tour.length()
    improved = two_opt(tour)
    if use_or_opt:
        improved = or_opt(improved)
    return improved if improved.length() <= before + 1e-9 else tour
