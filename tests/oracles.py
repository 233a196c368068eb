"""Closed-form instruments the tests check the package against.

The dense eigendecomposition of the normalized Laplacian is the reference
for the sparse frequency; the node cap guards against accidental O(n^3)
use. The regular-graph expectation n(1 - a^2) / (2(n - 1)) and its
Monte-Carlo mean check the paper's frequency theory. None of these runs in
the package itself.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from unifilter.graph import Graph, PropagationOperator, propagation_operator
from unifilter.rng import stream

DEFAULT_EIGEN_CAP = 500
REGULAR_MAX_RESTARTS = 500


def dense_operator(op: PropagationOperator) -> np.ndarray:
    """The operator as a dense n x n array; O(n^2) memory."""
    n = op.graph.n
    return sp.csr_matrix((op.data, op.indices, op.indptr), shape=(n, n)).toarray()


def dense_eigen_oracle(g: Graph, max_nodes: int = DEFAULT_EIGEN_CAP) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the normalized Laplacian.

    Dense symmetric solve; refuses graphs above `max_nodes`.
    """
    if g.n > max_nodes:
        raise ValueError(f"graph has {g.n} nodes, above the dense solver cap {max_nodes}")
    op = propagation_operator(g)
    lap = np.eye(g.n) - dense_operator(op)
    evals, evecs = np.linalg.eigh(lap)
    return evals, evecs


def expected_frequency_regular(n: int, alignment: float) -> float:
    """Closed-form expected frequency on random regular graphs.

    `alignment` is the inner product of the unit signal with the normalized
    all-ones vector. The expectation is exact over any vertex-exchangeable
    ensemble of simple d-regular graphs on n nodes, such as the one
    `sample_regular_graph` draws from: each node pair is an edge with
    probability d/(n-1), so E[f(x)] = n(1 - a^2) / (2(n - 1)) for every
    degree d. It is 0 at |alignment| = 1 (the all-ones direction lies in
    the kernel of the Laplacian), n/(2(n-1)) at alignment 0, and
    monotonically decreasing in |alignment|.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    a = float(alignment)
    if abs(a) > 1.0 + 1e-12:
        raise ValueError("alignment must lie in [-1, 1]")
    return n * max(0.0, 1.0 - a * a) / (2.0 * (n - 1))


def sample_regular_graph(n: int, degree: int, rng: np.random.Generator) -> Graph:
    """Sample a simple `degree`-regular graph by random stub pairing.

    Pairs stubs uniformly at random, rejecting self-loops and multi-edges;
    restarts from scratch when the remaining stubs admit no valid pair.
    The resulting ensemble is vertex-exchangeable, so each node pair is an
    edge with probability degree/(n-1).
    """
    if degree < 1 or degree >= n:
        raise ValueError("degree must satisfy 1 <= degree < n")
    if (n * degree) % 2:
        raise ValueError("n * degree must be even")
    for _ in range(REGULAR_MAX_RESTARTS):
        edges = _pair_stubs(n, degree, rng)
        if edges is not None:
            return Graph.from_edges(edges, n)
    raise RuntimeError(f"no simple {degree}-regular graph after {REGULAR_MAX_RESTARTS} restarts")


def _pair_stubs(n: int, degree: int, rng: np.random.Generator) -> np.ndarray | None:
    stubs = np.repeat(np.arange(n), degree)
    seen: set[tuple[int, int]] = set()
    while stubs.size:
        stubs = rng.permutation(stubs)
        leftover: list[int] = []
        progress = False
        for a, b in zip(stubs[0::2].tolist(), stubs[1::2].tolist()):
            key = (a, b) if a < b else (b, a)
            if a == b or key in seen:
                leftover.append(a)
                leftover.append(b)
                continue
            seen.add(key)
            progress = True
        if leftover and not progress:
            return None
        stubs = np.asarray(leftover, dtype=np.int64)
    return np.array(sorted(seen), dtype=np.int64)


def aligned_unit_signal(n: int, alignment: float, rng: np.random.Generator) -> np.ndarray:
    """Random unit signal with a prescribed inner product against all-ones."""
    a = float(alignment)
    if abs(a) > 1.0:
        raise ValueError("alignment must lie in [-1, 1]")
    phi = np.full(n, 1.0 / np.sqrt(n))
    z = rng.standard_normal(n)
    z -= (z @ phi) * phi
    nz = np.linalg.norm(z)
    if nz == 0.0:
        raise ValueError("degenerate orthogonal draw")
    psi = z / nz
    return a * phi + np.sqrt(max(0.0, 1.0 - a * a)) * psi


def mc_expected_frequency(
    n: int,
    degree: int,
    alignments: np.ndarray,
    num_graphs: int = 2000,
    seed: int = 0,
) -> np.ndarray:
    """Monte-Carlo mean frequency per alignment over random regular graphs.

    A single orthogonal complement direction is drawn per seed and shared
    across alignments, and every alignment sees the same graph sequence,
    so the returned means are directly comparable across the grid.
    """
    alignments = np.asarray(alignments, dtype=np.float64)
    rng = stream(seed, "regular-graph-mc")
    signals = [aligned_unit_signal(n, a, stream(seed, "mc-signal")) for a in alignments]
    sums = np.zeros(alignments.shape[0])
    for _ in range(num_graphs):
        g = sample_regular_graph(n, degree, rng)
        e = g.edge_array()
        for i, x in enumerate(signals):
            d = x[e[:, 0]] - x[e[:, 1]]
            sums[i] += np.sum(d * d) / (2.0 * degree)
    return sums / num_graphs
