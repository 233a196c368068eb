"""Operator symmetry and frequency bounds, over random graphs and signals.

Both propagation operators are D^-1/2 A D^-1/2 of a symmetric A (with
self-loops, of A + I), so the dense form equals its transpose and `apply`
is a product with it. P's spectrum lies in [-1, 1], so the frequency
(1 - x'Px) / 2 of a unit signal x lies in [0, 1]; `matrix_frequencies`
gives NaN for a zero column.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import dense_operator  # noqa: E402
from unifilter.graph import NO_SELF_LOOPS, SELF_LOOPS, Graph, propagation_operator  # noqa: E402
from unifilter.rng import stream  # noqa: E402
from unifilter.spectral import matrix_frequencies, signal_frequency  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graphs(draw):
    """A graph on 2..16 nodes without an isolated node: each node is joined to
    one drawn node, then a few more drawn pairs are added."""
    n = draw(st.integers(2, 16))
    pairs = [(u, v + (v >= u)) for u in range(n) for v in [draw(st.integers(0, n - 2))]]
    node = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(node, node), max_size=3 * n))
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    return Graph.from_edges(np.array(sorted(edges)), n)


@SETTINGS
@given(graphs(), st.sampled_from([NO_SELF_LOOPS, SELF_LOOPS]), st.integers(0, 2**16))
def test_operators_are_symmetric_and_apply_is_the_dense_product(g, kind, seed):
    op = propagation_operator(g, kind)
    dense = dense_operator(op)
    assert np.array_equal(dense, dense.T)
    A = np.zeros((g.n, g.n))
    e = g.edge_array()
    A[e[:, 0], e[:, 1]] = A[e[:, 1], e[:, 0]] = 1.0
    A += np.eye(g.n) * (kind == SELF_LOOPS)
    dinv = 1.0 / np.sqrt(A.sum(axis=1))
    np.testing.assert_allclose(dense, dinv[:, None] * A * dinv[None, :], rtol=1e-14, atol=0)
    X = stream(seed, "apply-sig").standard_normal((g.n, 3))
    np.testing.assert_allclose(op.apply(X), dense @ X, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(op.apply(X[:, 0]), dense @ X[:, 0], rtol=1e-12, atol=1e-14)


@SETTINGS
@given(graphs(), st.sampled_from([NO_SELF_LOOPS, SELF_LOOPS]), st.integers(0, 2**16),
       st.sampled_from([1e-100, 1.0, 1e100]))
def test_frequencies_lie_in_the_unit_interval(g, kind, seed, scale):
    op = propagation_operator(g, kind)
    # Random columns, a zero column, and the eigenvectors at both ends of P's
    # spectrum, whose frequencies sit on the interval's ends up to rounding.
    evecs = np.linalg.eigh(dense_operator(op))[1]
    M = np.column_stack([stream(seed, "freq-sig").standard_normal((g.n, 3)),
                         np.zeros(g.n), evecs[:, 0], evecs[:, -1]]) * scale
    freqs = matrix_frequencies(op, M)
    assert np.isnan(freqs[3])
    used = np.delete(freqs, 3)
    assert np.all((used >= 0.0) & (used <= 1.0)), used
    for j in (0, 1, 2, 4, 5):
        assert 0.0 <= signal_frequency(g, M[:, j]) <= 1.0
