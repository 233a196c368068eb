import numpy as np
import pytest

from conftest import random_connected_graph, triangle, two_node_edge
from oracles import (
    aligned_unit_signal,
    dense_eigen_oracle,
    expected_frequency_regular,
    mc_expected_frequency,
    sample_regular_graph,
)
from unifilter.graph import propagation_operator
from unifilter.rng import stream
from unifilter.spectral import dirichlet_energy, signal_frequency


def test_frequency_constant_signal_zero():
    assert signal_frequency(two_node_edge(), np.array([1.0, 1.0]) / np.sqrt(2)) <= 1e-15


def test_frequency_alternating_signal_one():
    f = signal_frequency(two_node_edge(), np.array([1.0, -1.0]) / np.sqrt(2))
    assert f == pytest.approx(1.0, abs=1e-12)


def test_frequency_rejects_zero_signal():
    with pytest.raises(ValueError, match="zero signal"):
        signal_frequency(two_node_edge(), np.zeros(2))


def test_frequency_matches_spectral_form():
    # quadratic form equals sum of eigenvalue-weighted squared coefficients
    for seed in range(50):
        rng = stream(seed, "freq-oracle")
        n = int(rng.integers(5, 31))
        g = random_connected_graph(n, 0.3, seed=seed, bipartite_ok=True)
        evals, evecs = dense_eigen_oracle(g)
        x = rng.standard_normal(g.n)
        x /= np.linalg.norm(x)
        coeffs = evecs.T @ x
        spectral = float(np.sum(evals * coeffs**2) / 2.0)
        assert abs(signal_frequency(g, x) - spectral) < 1e-10


def test_frequency_bounds_hold_everywhere():
    # 10^4 random unit signals across random connected graphs
    total = 0
    for seed in range(50):
        g = random_connected_graph(int(stream(seed, "n").integers(8, 40)), 0.25,
                                   seed=100 + seed, bipartite_ok=True)
        op = propagation_operator(g)
        X = stream(seed, "sig").standard_normal((g.n, 200))
        Xn = X / np.linalg.norm(X, axis=0)
        vals = 0.5 * (1.0 - np.sum(Xn * op.apply(Xn), axis=0))
        assert vals.min() > -1e-12 and vals.max() < 1 + 1e-12
        total += X.shape[1]
    assert total >= 10_000


def test_frequency_of_sqrt_degree_direction_is_zero():
    for seed in range(10):
        g = random_connected_graph(25, 0.25, seed=seed, bipartite_ok=True)
        x = np.sqrt(g.degrees.astype(float))
        assert signal_frequency(g, x / np.linalg.norm(x)) <= 1e-12


def test_eigen_oracle_two_node():
    evals, _ = dense_eigen_oracle(two_node_edge())
    np.testing.assert_allclose(evals, [0.0, 2.0], atol=1e-12)


def test_eigen_oracle_triangle():
    evals, _ = dense_eigen_oracle(triangle())
    np.testing.assert_allclose(evals, [0.0, 1.5, 1.5], atol=1e-12)


def test_eigen_oracle_properties():
    g = random_connected_graph(30, 0.2, seed=2)
    evals, evecs = dense_eigen_oracle(g)
    assert evals[0] == pytest.approx(0.0, abs=1e-9)
    assert evals[-1] <= 2.0 + 1e-9
    np.testing.assert_allclose(evecs.T @ evecs, np.eye(g.n), atol=1e-9)
    # null eigenvector is proportional to the sqrt-degree vector
    d = np.sqrt(g.degrees.astype(float))
    d /= np.linalg.norm(d)
    v0 = evecs[:, 0]
    assert min(np.abs(v0 - d).max(), np.abs(v0 + d).max()) < 1e-9


def test_eigen_oracle_cap():
    g = random_connected_graph(25, 0.3, seed=1)
    with pytest.raises(ValueError, match="cap"):
        dense_eigen_oracle(g, max_nodes=10)


def test_dirichlet_two_node():
    assert dirichlet_energy(two_node_edge(), np.array([[0.0], [1.0]])) == 1.0


def test_dirichlet_constant_rows():
    g = random_connected_graph(20, 0.3, seed=4)
    X = np.ones((20, 3)) * 2.5
    assert dirichlet_energy(g, X) == 0.0


def test_dirichlet_triangle_hand_sum():
    assert dirichlet_energy(triangle(), np.array([[1.0], [0.0], [0.0]])) == pytest.approx(4 / 3)


def test_expected_frequency_plug_ins():
    # E[f] = n(1-a^2)/(2(n-1)): 0 for the all-ones direction, 101/200 at a=0.
    assert expected_frequency_regular(101, 1.0) == pytest.approx(0.0)
    assert expected_frequency_regular(101, 0.0) == pytest.approx(101 / 200)
    # At |a| = 1 the plug-in is the frequency of all-ones on any regular draw.
    g = sample_regular_graph(30, 4, stream(0, "plug-in"))
    assert expected_frequency_regular(30, 1.0) == 0.0
    assert signal_frequency(g, np.ones(30)) == pytest.approx(expected_frequency_regular(30, 1.0), abs=1e-12)


def test_expected_frequency_in_unit_interval_up_to_validation_edge():
    for n in (2, 3, 60, 101):
        for a in (-1.0 - 1e-12, -1.0, -0.5, 0.0, 0.5, 1.0, 1.0 + 1e-12):
            assert 0.0 <= expected_frequency_regular(n, a) <= 1.0
        assert expected_frequency_regular(n, 1.0 + 1e-12) == 0.0
        assert expected_frequency_regular(n, -1.0 - 1e-12) == 0.0


def test_expected_frequency_monotone_in_angle():
    # increasing angle = decreasing |alignment| must increase the value
    thetas = np.linspace(0.0, np.pi / 2 - 1e-6, 50)
    vals = [expected_frequency_regular(60, np.cos(t)) for t in thetas]
    assert np.all(np.diff(vals) > 0)


def test_expected_frequency_rejects_small_n():
    with pytest.raises(ValueError):
        expected_frequency_regular(1, 0.5)


def test_regular_graph_sampler_properties():
    rng = stream(0, "sampler")
    for _ in range(5):
        g = sample_regular_graph(30, 4, rng)
        assert np.all(g.degrees == 4)
        assert g.m == 60
    # determinism under a fixed stream
    g1 = sample_regular_graph(30, 4, stream(7, "s"))
    g2 = sample_regular_graph(30, 4, stream(7, "s"))
    assert np.array_equal(g1.indices, g2.indices)


def test_regular_graph_sampler_validates():
    rng = stream(0, "sampler")
    with pytest.raises(ValueError, match="even"):
        sample_regular_graph(5, 3, rng)
    with pytest.raises(ValueError):
        sample_regular_graph(4, 4, rng)


def test_aligned_signal_has_prescribed_alignment():
    rng = stream(3, "align")
    phi = np.full(50, 1 / np.sqrt(50))
    for a in (1.0, 0.6, 0.0, -0.4):
        x = aligned_unit_signal(50, a, rng)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert float(x @ phi) == pytest.approx(a, abs=1e-12)


def test_mc_frequency_matches_exchangeable_expectation():
    # Independent check of the sampler + frequency pipeline: for a fixed
    # unit signal x on a vertex-exchangeable degree-t ensemble,
    # E[f(x)] = n * (1 - (phi.x)^2) / (2(n-1)) exactly, since every node pair
    # is an edge with probability t/(n-1).
    n, t = 60, 6
    alignments = np.array([1.0, 0.6, 0.0])
    means = mc_expected_frequency(n, t, alignments, num_graphs=800, seed=1)
    expected = n * (1.0 - alignments**2) / (2.0 * (n - 1))
    np.testing.assert_allclose(means, expected, atol=0.01)


def _frozen_matrix_frequencies(op, M):
    # Verbatim copy of the earlier `matrix_frequencies`; `_clamp_unit` is unchanged.
    from unifilter.spectral import _clamp_unit

    M = np.asarray(M, dtype=np.float64)
    norms = np.linalg.norm(M, axis=0)
    safe = np.where(norms == 0.0, 1.0, norms)
    Mn = M / safe
    vals = 0.5 * (1.0 - np.sum(Mn * op.apply(Mn), axis=0))
    out = np.array([_clamp_unit(v) for v in vals], dtype=np.float64)
    out[norms == 0.0] = np.nan
    return out


def _frozen_row_major_frequencies(op, M):
    # Verbatim copy of the row-major `matrix_frequencies` that replaced it.
    from unifilter.spectral import _clamp_unit

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


def test_matrix_frequencies_of_a_column_do_not_depend_on_its_neighbours():
    from unifilter.spectral import matrix_frequencies

    g = random_connected_graph(40, 0.15, seed=31)
    op = propagation_operator(g)
    M = stream(5, "sig").standard_normal((40, 8))
    M[:, 3] = 0.0
    for _ in range(4):
        wide = matrix_frequencies(op, M)
        # The row-major form's bits are kept.
        assert np.array_equal(wide, _frozen_row_major_frequencies(op, M), equal_nan=True)
        # The earlier column-major form on a block of two or more columns, which
        # is how every spectrum called it, sums in another order: a few float64
        # eps apart, never more.
        np.testing.assert_allclose(wide, _frozen_matrix_frequencies(op, M[:, np.arange(8)]),
                                   rtol=0, atol=1e-15, equal_nan=True)
        assert np.array_equal(matrix_frequencies(op, np.asfortranarray(M)), wide,
                              equal_nan=True)
        assert np.array_equal(matrix_frequencies(op, M[:, [6, 1, 4]]), wide[[6, 1, 4]])
        for j in range(8):
            for one in (M[:, [j]], M[:, j:j + 1], M[:, j].reshape(-1, 1).copy()):
                assert np.array_equal(matrix_frequencies(op, one), wide[j:j + 1],
                                      equal_nan=True), j
        M = op.apply(M)
