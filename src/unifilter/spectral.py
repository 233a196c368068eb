"""Spectral diagnostics for graph signals.

Signal frequency and Dirichlet energy are the two production metrics.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, PropagationOperator, propagation_operator

FREQUENCY_TOL = 1e-12


def signal_frequency(g: Graph, x: np.ndarray) -> float:
    """Frequency of signal x: quadratic form of the normalized Laplacian, halved.

    x is unit-normalized internally. 0 means perfectly smooth, 1 maximally
    oscillating. Raises on the zero vector.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != g.n:
        raise ValueError(f"signal has {x.shape[0]} entries, graph has {g.n} nodes")
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        raise ValueError("zero signal")
    xn = x / nrm
    return _clamp_unit(0.5 * (1.0 - float(xn @ propagation_operator(g).apply(xn))))


def matrix_frequencies(op: PropagationOperator, M: np.ndarray) -> np.ndarray:
    """Per-column signal frequency of an n x d matrix; NaN for zero columns.

    A column's bits do not depend on the columns beside it or on M's memory
    order. Norms and Rayleigh quotients are column dots taken by einsum on a
    row-major array, which sums each column row by row at any width of two or
    more: a lone column is reduced as one of two copies of itself. A
    row-major M is read in place; besides its result, one call allocates two
    n x d arrays, the normalized M and its propagation.
    """
    M = np.asarray(M, dtype=np.float64)
    lone = M.ndim == 2 and M.shape[1] == 1
    M = np.ascontiguousarray(M[:, [0, 0]] if lone else M)
    norms = np.sqrt(np.einsum("ij,ij->j", M, M))
    safe = np.where(norms == 0.0, 1.0, norms)
    Mn = M / safe
    vals = 0.5 * (1.0 - np.einsum("ij,ij->j", Mn, op.apply(Mn)))
    out = np.array([_clamp_unit(v) for v in vals], dtype=np.float64)
    out[norms == 0.0] = np.nan
    return out[:1] if lone else out


def _clamp_unit(val: float) -> float:
    # Only floating noise may leave [0, 1]; anything larger is a bug.
    if val < 0.0:
        if val < -FREQUENCY_TOL:
            raise ValueError(f"frequency {val} below 0 beyond tolerance")
        return 0.0
    if val > 1.0:
        if val > 1.0 + FREQUENCY_TOL:
            raise ValueError(f"frequency {val} above 1 beyond tolerance")
        return 1.0
    return float(val)


def dirichlet_energy(g: Graph, X: np.ndarray) -> float:
    """Mean squared neighbor difference of node representations.

    Iterates each undirected edge once and doubles (the sum over ordered
    neighbor pairs counts every edge twice), so results are bit-comparable
    across implementations.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] != g.n:
        raise ValueError(f"matrix has {X.shape[0]} rows, graph has {g.n} nodes")
    e = g.edge_array()
    if e.shape[0] == 0:
        return 0.0
    diff = X[e[:, 0]] - X[e[:, 1]]
    return float(2.0 * np.sum(diff * diff) / g.n)
