import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import path_graph, random_connected_graph, two_node_edge
from oracles import sample_regular_graph
from unifilter import basis as basis_module
from unifilter.basis import (
    angle_law_deviation,
    basis_spectrum,
    export_basis,
    make_basis,
    orthonormality_deviation,
    update_factor,
    walk_spectrum,
)
from unifilter.graph import propagation_operator
from unifilter.rng import stream
from unifilter.spectral import signal_frequency


def test_homophily_basis_zero_hops_is_normalized_input(rng):
    g = random_connected_graph(20, 0.3, seed=0)
    op = propagation_operator(g)
    X = rng.standard_normal((20, 3))
    b = make_basis(op, X, 0, "homophily")
    np.testing.assert_allclose(b.matrices[:, 0], X / np.linalg.norm(X, axis=0), atol=1e-15)


def test_homophily_basis_two_node_hops():
    op = propagation_operator(two_node_edge())
    b = make_basis(op, np.array([1.0, 0.0]), 2, "homophily")
    np.testing.assert_allclose(b.matrices[:, :, 0].T, [[1, 0], [0, 1], [1, 0]], atol=1e-15)


def test_homophily_basis_raw_keeps_scale():
    op = propagation_operator(two_node_edge(), "self-loops")
    b = make_basis(op, np.array([2.0, 0.0]), 1, "homophily", normalize=False)
    np.testing.assert_allclose(b.matrices[:, 0][:, 0], [2.0, 0.0])
    np.testing.assert_allclose(b.matrices[:, 1][:, 0], [1.0, 1.0])


def test_homophily_hop_cosines_climb_toward_one():
    g = random_connected_graph(100, 0.08, seed=12)
    op = propagation_operator(g)
    x = stream(12, "sig").standard_normal(100)
    b = make_basis(op, x, 101, "homophily")
    M = b.matrices[:, :, 0].T
    cos = np.einsum("kn,kn->k", M[:-1], M[1:])
    # hops 50..100: cosine non-decreasing (floating slack) and angle near 0
    seg = cos[50:101]
    assert np.all(np.diff(seg) >= -1e-12)
    assert seg[-1] > 1 - 1e-6


def test_update_factor_first_step_closed_form():
    # at k=1 the running sum is a single unit vector, so the factor is tan(theta)
    for h in (0.2, 0.5, 0.8):
        theta = 0.5 * np.pi * (1 - h)
        t, clipped = update_factor(np.array([1.0]), 1, np.cos(theta))
        assert not clipped.any()
        assert t[0] == pytest.approx(np.tan(theta), rel=1e-12)
    t, _ = update_factor(np.array([1.0]), 1, np.cos(np.pi / 4))
    assert t[0] == pytest.approx(1.0, rel=1e-12)


def test_update_factor_clamps_negative_radicand():
    t, clipped = update_factor(np.array([0.0]), 2, 0.9)
    assert clipped.tolist() == [True]
    assert t[0] == 0.0


def test_heterophily_pairwise_angles_match_target():
    g = random_connected_graph(50, 0.15, seed=3)
    op = propagation_operator(g)
    x = stream(3, "sig").standard_normal((50, 2))
    b = make_basis(op, x, 10, "heterophily", h_hat=0.3)
    off, diag = angle_law_deviation(b)
    gram = np.einsum("nkd,njd->kjd", b.matrices, b.matrices)
    assert np.allclose(gram[~np.eye(11, dtype=bool)], np.cos(0.35 * np.pi), atol=1e-6)
    assert off < 1e-6
    assert diag < 1e-12


def test_heterophily_h_one_collapses_to_one_direction():
    g = random_connected_graph(30, 0.2, seed=5)
    op = propagation_operator(g)
    x = stream(5, "sig").standard_normal(30)
    b = make_basis(op, x, 8, "heterophily", h_hat=1.0)
    off, _ = angle_law_deviation(b)
    assert off < 1e-6  # all pairwise dots equal cos(0) = 1


def test_heterophily_h_zero_yields_orthogonal_vectors():
    g = random_connected_graph(30, 0.2, seed=6)
    op = propagation_operator(g)
    x = stream(6, "sig").standard_normal(30)
    b = make_basis(op, x, 8, "heterophily", h_hat=0.0)
    off, diag = angle_law_deviation(b)
    assert off < 1e-6 and diag < 1e-12
    np.testing.assert_allclose(b.matrices[:, 0][:, 0], x / np.linalg.norm(x), atol=1e-15)


def test_new_direction_is_orthogonal_to_previous_outputs():
    g = random_connected_graph(40, 0.2, seed=8)
    op = propagation_operator(g)
    x = stream(8, "sig").standard_normal((40, 2))
    u = make_basis(op, x, 10, "heterophily", h_hat=0.4)
    v = make_basis(op, x, 10, "orthonormal")
    worst = 0.0
    for k in range(10):
        for j in range(k + 1):
            dots = np.einsum("nd,nd->d", v.matrices[:, k + 1], u.matrices[:, j])
            worst = max(worst, float(np.abs(dots).max()))
    assert worst < 1e-6


def test_orthonormal_basis_gram_identity():
    g = random_connected_graph(60, 0.12, seed=9)
    op = propagation_operator(g)
    x = stream(9, "sig").standard_normal((60, 3))
    plain = make_basis(op, x, 16, "orthonormal")
    assert orthonormality_deviation(plain) < 1e-6
    tight = make_basis(op, x, 16, "orthonormal", reortho=True)
    assert orthonormality_deviation(tight) < 1e-10


def test_krylov_exhaustion_freezes_column():
    # the sqrt-degree direction is a fixed point of P, so its Krylov space
    # has dimension 1 and the recurrence dies at the first hop
    g = sample_regular_graph(20, 4, stream(0, "reg"))
    op = propagation_operator(g)
    x = np.ones((20, 1))
    with pytest.warns(UserWarning, match="exhaust"):
        b = make_basis(op, x, 4, "heterophily", h_hat=0.3)
    assert b.degenerate_columns == frozenset({0})
    for k in range(1, 5):
        np.testing.assert_allclose(b.matrices[:, k], b.matrices[:, 0])


def test_zero_column_flagged_and_emitted_as_zeros():
    g = random_connected_graph(15, 0.3, seed=10)
    op = propagation_operator(g)
    X = stream(10, "sig").standard_normal((15, 3))
    X[:, 1] = 0.0
    b = make_basis(op, X, 5, "heterophily", h_hat=0.4)
    assert 1 in b.degenerate_columns
    assert np.all(b.matrices[:, :, 1] == 0.0)
    off, diag = angle_law_deviation(b)  # ignores the degenerate column
    assert off < 1e-6 and diag < 1e-12


def test_unibasis_endpoint_identities():
    g = random_connected_graph(25, 0.2, seed=11)
    op = propagation_operator(g)
    X = stream(11, "sig").standard_normal((25, 2))
    hom = make_basis(op, X, 6, "homophily")
    het = make_basis(op, X, 6, "heterophily", h_hat=0.3)
    assert np.array_equal(make_basis(op, X, 6, "uni", h_hat=0.3, tau=1.0).matrices, hom.matrices)
    assert np.array_equal(make_basis(op, X, 6, "uni", h_hat=0.3, tau=0.0).matrices, het.matrices)
    blend = make_basis(op, X, 6, "uni", h_hat=0.3, tau=0.4)
    np.testing.assert_allclose(
        blend.matrices, 0.4 * hom.matrices + 0.6 * het.matrices, atol=1e-15)


def test_unibasis_hop_zero_is_normalized_signal_for_any_tau():
    g = random_connected_graph(25, 0.2, seed=13)
    op = propagation_operator(g)
    x = stream(13, "sig").standard_normal((25, 1))
    b = make_basis(op, x, 0, "uni", h_hat=0.7, tau=0.5)
    np.testing.assert_allclose(b.matrices[:, 0], x / np.linalg.norm(x), atol=1e-14)


def test_unibasis_rejects_bad_tau():
    g = random_connected_graph(10, 0.4, seed=14)
    op = propagation_operator(g)
    with pytest.raises(ValueError, match="tau"):
        make_basis(op, np.ones((10, 1)), 2, "uni", h_hat=0.5, tau=1.5)


@pytest.mark.parametrize("kind, recipe, theta, tau, degenerate", [
    ("homophily", {}, None, None, {1}),
    ("homophily", dict(normalize=False), None, None, set()),
    ("orthonormal", {}, None, None, {0, 1, 2, 3}),
    ("heterophily", dict(h_hat=0.3, reortho=True), 0.35 * np.pi, None, {0, 1, 2, 3}),
    ("uni", dict(h_hat=0.3, tau=0.0), 0.35 * np.pi, 0.0, {0, 1, 2, 3}),
    ("uni", dict(h_hat=0.3, tau=0.5), 0.35 * np.pi, 0.5, {0, 1, 2, 3}),
    ("uni", dict(h_hat=0.3, tau=1.0), 0.35 * np.pi, 1.0, {1}),
])
def test_make_basis_is_every_named_constructor(kind, recipe, theta, tau, degenerate):
    g, X, hops = _exhausting_signal()
    op = propagation_operator(g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        b = make_basis(op, X, hops, kind, **recipe)
    assert (b.kind, b.hops, b.tau) == (kind, hops, tau)
    assert b.theta == (theta if theta is None else pytest.approx(theta))
    assert b.degenerate_columns == frozenset(degenerate)
    assert b.clamp_events == 0


def test_make_basis_rejects_an_unknown_kind():
    g = random_connected_graph(10, 0.4, seed=14)
    op = propagation_operator(g)
    for build in (make_basis, walk_spectrum):
        with pytest.raises(ValueError, match="unknown basis kind 'bogus'"):
            build(op, np.ones((10, 1)), 2, "bogus")


@pytest.mark.parametrize("kind, recipe, missing", [
    ("heterophily", {}, "h_hat"),
    ("uni", dict(tau=0.5), "h_hat"),
    ("uni", dict(tau=1.0), "h_hat"),
    ("uni", dict(h_hat=0.3), "tau"),
])
def test_builders_name_a_missing_recipe_argument(kind, recipe, missing):
    g = random_connected_graph(10, 0.4, seed=14)
    op = propagation_operator(g)
    for build in (make_basis, walk_spectrum):
        with pytest.raises(ValueError) as exc:
            build(op, np.ones((10, 1)), 2, kind, **recipe)
        assert str(exc.value) == f"kind {kind!r} needs {missing}", build.__name__


@pytest.mark.parametrize("tau", [1.0, 0.5])
@pytest.mark.parametrize("h_hat", [5.0, -0.1])
def test_builders_reject_h_hat_outside_the_unit_interval(h_hat, tau):
    # At tau=1 no heterophily recurrence runs, so the walk never reads h_hat.
    op = propagation_operator(path_graph(4))
    for build in (make_basis, walk_spectrum):
        with pytest.raises(ValueError, match=r"^h_hat must lie in \[0, 1\]$"):
            build(op, np.eye(4)[:, :2], 2, "uni", h_hat=h_hat, tau=tau)


def test_basis_spectrum_long_run_homophily_frequency_vanishes():
    g = random_connected_graph(60, 0.15, seed=15)
    op = propagation_operator(g)
    x = stream(15, "sig").standard_normal((60, 1))
    b = make_basis(op, x, 100, "homophily")
    spectrum = basis_spectrum(g, b)
    assert spectrum[100] < 0.01


def test_basis_spectrum_single_column_equals_signal_frequency():
    g = random_connected_graph(30, 0.2, seed=16)
    op = propagation_operator(g)
    x = stream(16, "sig").standard_normal((30, 1))
    b = make_basis(op, x, 5, "heterophily", h_hat=0.4)
    spectrum = basis_spectrum(g, b)
    for k in range(6):
        assert spectrum[k] == pytest.approx(
            signal_frequency(g, b.matrices[:, k][:, 0]), abs=1e-12)


def test_basis_spectrum_heterophily_h_zero_in_bounds():
    g = random_connected_graph(30, 0.2, seed=17)
    op = propagation_operator(g)
    x = stream(17, "sig").standard_normal((30, 1))
    b = make_basis(op, x, 8, "heterophily", h_hat=0.0)
    spectrum = basis_spectrum(g, b)
    assert all(0.0 <= s <= 1.0 for s in spectrum)
    assert spectrum[0] == pytest.approx(signal_frequency(g, x), abs=1e-12)


def test_basis_spectrum_rejects_all_degenerate():
    g = random_connected_graph(12, 0.3, seed=18)
    op = propagation_operator(g)
    b = make_basis(op, np.zeros((12, 1)), 3, "heterophily", h_hat=0.5)
    with pytest.raises(ValueError, match="degenerate"):
        basis_spectrum(g, b)


def test_angle_law_over_parameter_grid():
    # broad grid: sizes, hop counts, homophily levels, several seeds
    for n in (20, 50, 200):
        for hops in (4, 10, 16):
            for h in (0.1, 0.5, 0.9):
                seed = n + hops + int(10 * h)
                g = random_connected_graph(n, min(0.3, 8.0 / n + 0.05), seed=seed)
                op = propagation_operator(g)
                x = stream(seed, "grid-sig").standard_normal((n, 1))
                b = make_basis(op, x, hops, "heterophily", h_hat=h)
                off, diag = angle_law_deviation(b)
                assert off < 1e-6, (n, hops, h)
                assert diag < 1e-12, (n, hops, h)
                v = make_basis(op, x, hops, "orthonormal")
                assert orthonormality_deviation(v) < 1e-6, (n, hops, h)


def test_export_basis_writes_matrices_and_meta(tmp_path):
    g = random_connected_graph(10, 0.4, seed=19)
    op = propagation_operator(g)
    x = stream(19, "sig").standard_normal((10, 2))
    b = make_basis(op, x, 3, "heterophily", h_hat=0.25)
    export_basis(b, tmp_path)
    import json

    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["kind"] == "heterophily"
    assert meta["K"] == 3
    assert meta["theta"] == pytest.approx(0.375 * np.pi)
    hop0 = np.loadtxt(tmp_path / "hop_0.csv", delimiter=",")
    np.testing.assert_allclose(hop0, b.matrices[:, 0], atol=1e-15)


def _recorded(fn, *args, **kwargs):
    """Call a constructor; return the basis and the warning texts it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        b = fn(*args, **kwargs)
    return b, [str(w.message) for w in caught]


def _exhausting_signal():
    # On a regular graph the all-ones column is a fixed point of P and dies
    # at hop 1; with K >= n every column runs out of Krylov directions.
    g = sample_regular_graph(12, 4, stream(21, "reg"))
    X = stream(21, "sig").standard_normal((12, 4))
    X[:, 1] = 0.0
    X[:, 2] = 1.0
    return g, X, 14


@pytest.mark.parametrize("kind", ["no-self-loops", "self-loops"])
@pytest.mark.parametrize("reortho", [False, True])
@pytest.mark.parametrize("h_hat", [0.0, 0.3, 1.0])
def test_unibasis_is_the_exact_blend_of_its_parts(kind, reortho, h_hat):
    g, X, hops = _exhausting_signal()
    op = propagation_operator(g, kind)
    tau = 0.4
    hom, hom_warn = _recorded(make_basis, op, X, hops, "homophily")
    het, het_warn = _recorded(make_basis, op, X, hops, "heterophily", h_hat=h_hat,
                              reortho=reortho)
    uni, uni_warn = _recorded(make_basis, op, X, hops, "uni", h_hat=h_hat, tau=tau,
                              reortho=reortho)
    assert np.array_equal(uni.matrices, tau * hom.matrices + (1.0 - tau) * het.matrices)
    assert uni.degenerate_columns == hom.degenerate_columns | het.degenerate_columns
    assert {1, 2} <= uni.degenerate_columns
    assert uni.clamp_events == het.clamp_events
    assert hom_warn == [] and uni_warn == het_warn
    assert len(het_warn) == 1 and "froze after Krylov exhaustion" in het_warn[0]


def _all_constructors(op, X, hops):
    yield make_basis(op, X, hops, "homophily")
    yield make_basis(op, X, hops, "homophily", normalize=False)
    for reortho in (False, True):
        yield make_basis(op, X, hops, "orthonormal", reortho=reortho)
        yield make_basis(op, X, hops, "heterophily", h_hat=0.3, reortho=reortho)
        for tau in (0.0, 0.6, 1.0):
            yield make_basis(op, X, hops, "uni", h_hat=0.3, tau=tau, reortho=reortho)


def test_hop_prefix_property():
    g = random_connected_graph(40, 0.15, seed=22)
    op = propagation_operator(g)
    X = stream(22, "sig").standard_normal((40, 3))
    X[:, 1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for short, long in zip(_all_constructors(op, X, 4), _all_constructors(op, X, 9)):
            assert np.array_equal(short.matrices, long.matrices[:, :5]), short.kind


def test_column_blocks_do_not_change_results(monkeypatch):
    g = random_connected_graph(30, 0.2, seed=23)
    op = propagation_operator(g, "self-loops")
    X = stream(23, "sig").standard_normal((30, 7))
    X[:, 4] = 0.0
    blocks = [(s.start, s.stop) for s in basis_module._blocks(30, 7)]
    assert blocks == [(0, 7)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        whole = list(_all_constructors(op, X, 8))
        # Two columns' worth of bytes: blocks of 2, the lone last column joined.
        monkeypatch.setattr(basis_module, "_BLOCK_BYTES", 2 * 8 * 30)
        assert [(s.start, s.stop) for s in basis_module._blocks(30, 7)] == [(0, 2), (2, 4), (4, 7)]
        split = list(_all_constructors(op, X, 8))
    for a, b in zip(whole, split):
        assert np.array_equal(a.matrices, b.matrices), a.kind
        assert a.degenerate_columns == b.degenerate_columns
        assert a.clamp_events == b.clamp_events


def test_unibasis_peak_memory_stays_near_its_result(monkeypatch):
    # Streaming bound: the result plus a few block-sized arrays, never a
    # second copy of the (n, K+1, d) tensor. A deterministic count.
    g = random_connected_graph(2000, 0.004, seed=24)
    op = propagation_operator(g)
    X = stream(24, "sig").standard_normal((2000, 600))
    monkeypatch.setattr(basis_module, "_BLOCK_BYTES", 100 * 8 * 2000)
    assert len(basis_module._blocks(2000, 600)) == 6
    tracemalloc.start()
    try:
        b = make_basis(op, X, 10, "uni", h_hat=0.3, tau=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * b.matrices.nbytes, peak / b.matrices.nbytes


def test_unibasis_walk_holds_few_block_arrays(monkeypatch):
    # Above the result, the uni walk holds its state (h, v, the Krylov vector
    # two hops back, u and the running sum s), the next hop's arrays while
    # they are made, and one temporary for the blend written into the
    # result. No block array outlives its last read, and nothing of a block
    # is alive when the next one starts. Counted in block arrays (2000 x 100).
    g = random_connected_graph(2000, 0.004, seed=24)
    op = propagation_operator(g)
    X = stream(24, "sig").standard_normal((2000, 600))
    block = 100 * 8 * 2000
    monkeypatch.setattr(basis_module, "_BLOCK_BYTES", block)
    assert len(basis_module._blocks(2000, 600)) == 6
    tracemalloc.start()
    try:
        b = make_basis(op, X, 10, "uni", h_hat=0.3, tau=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - b.matrices.nbytes) / block <= 8.5, (peak - b.matrices.nbytes) / block


def test_exhaustion_warning_names_the_callers_file():
    # Whatever entry point builds the basis, the warning points at the first
    # frame outside the package: this file, on the line of the call.
    from unifilter import model
    from unifilter.basis import make_basis, walk_spectrum
    from unifilter.datasets import make_splits
    from unifilter.graph import LabeledDataset

    g = sample_regular_graph(12, 4, stream(21, "reg"))
    op = propagation_operator(g)
    X = stream(21, "sig").standard_normal((12, 2))
    X[:, 1] = 1.0  # a fixed point of P: exhausts at hop 1
    cfg = model.TrainConfig(hops=4, basis="heterophily", h_hat=0.3, max_epochs=2)
    ds = LabeledDataset(graph=g, features=X, labels=np.arange(12) % 2,
                        split=make_splits(12, "60/20/20", 1, 21)[0], num_classes=2)
    calls = {
        "orthonormal": lambda: make_basis(op, X, 4, "orthonormal"),
        "uni": lambda: make_basis(op, X, 4, "uni", h_hat=0.3, tau=0.5),
        "make_basis": lambda: make_basis(op, X, 4, "heterophily", h_hat=0.3),
        "walk_spectrum": lambda: walk_spectrum(op, X, 4, "heterophily", h_hat=0.3),
        "build_basis": lambda: model.build_basis(g, X, cfg),
        "spectrum": lambda: model.spectrum(g, X, cfg),
        "train": lambda: model.train(ds, cfg),
        "train_runs": lambda: model.train_runs(ds, [cfg]),
    }
    for name, call in calls.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [(w.filename, "exhaust" in str(w.message)) for w in caught] == \
            [(__file__, True)], name


def _layouts(rng, n, width):
    """Two (n, width) blocks in each memory layout the walk's column dots
    meet: C-ordered, column slices of a wider C array, and hops of a
    node-major (n, K+1, d) array."""
    yield "c-ordered", rng.standard_normal((n, width)), rng.standard_normal((n, width))
    wide = rng.standard_normal((n, width + 7))
    yield "column-slice", wide[:, 3:3 + width], wide[:, 7:7 + width]
    hops = rng.standard_normal((n, 4, width + 5))
    yield "hop-view", hops[:, 1, 2:2 + width], hops[:, 3, :width]


@pytest.mark.parametrize("width", [1, 2, 9, 169])
def test_column_dots_and_norms_are_the_np_sum_forms_bit_for_bit(width):
    # The walk takes every column dot and norm with `_column_dots`; its bits
    # are those of the np.sum form it replaced, in every layout. Width 1 is
    # np.sum's pairwise sum, kept as such.
    rng = stream(31, f"dots-{width}")
    for n in (3, 257, 2708):
        for layout, a, b in _layouts(rng, n, width):
            assert np.array_equal(basis_module._column_dots(a, b), np.sum(a * b, axis=0)), layout
            assert np.array_equal(basis_module._column_norms(a),
                                  np.sqrt(np.sum(a * a, axis=0))), layout
            assert np.array_equal(basis_module._column_norms(a), np.linalg.norm(a, axis=0))
            # In place, with the bits of dividing into a fresh array.
            a = a.copy()
            a[:, -1] = 0.0
            want = a / np.where(np.arange(width) == width - 1, 1.0, np.linalg.norm(a, axis=0))
            want[:, -1] = 0.0
            got, dead = basis_module._normalize_columns(a)
            assert got is a and np.array_equal(got, want), layout
            assert dead.tolist() == [False] * (width - 1) + [True]


@pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 1.0])
def test_blend_of_an_index_array_is_the_gathered_blend(tau):
    rng = stream(32, f"blend-{tau}")
    n, width = 300, 9
    h, u = rng.standard_normal((n, width)), rng.standard_normal((n, width))
    rows = rng.permutation(n)[:250]
    want = (tau * h + (1.0 - tau) * u)[rows]
    h0, u0 = h.copy(), u.copy()
    assert np.array_equal(basis_module._blend(h, u, tau, rows), want)
    # Into a hop of a node-major buffer, as `_node_major_basis` writes it.
    out = np.full((rows.size, 3, width + 4), np.nan)
    got = basis_module._blend(h, u, tau, rows, out[:, 1, 2:2 + width])
    assert np.array_equal(got, want) and np.array_equal(out[:, 1, 2:2 + width], want)
    assert np.isnan(out[:, [0, 2]]).all() and np.isnan(out[:, 1, [0, 1, -2, -1]]).all()
    assert np.array_equal(h, h0) and np.array_equal(u, u0)
    # A slice gives the same rows as the index array of that slice.
    assert np.array_equal(basis_module._blend(h, u, tau, slice(20, 90)),
                          basis_module._blend(h, u, tau, np.arange(20, 90)))


def test_the_walk_never_writes_its_input():
    g = random_connected_graph(40, 0.15, seed=33)
    op = propagation_operator(g)
    X = stream(33, "sig").standard_normal((40, 5))
    X[:, 2] = 0.0
    before = X.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for b in _all_constructors(op, X, 6):
            assert np.array_equal(X, before), b.kind
