"""`walk_spectrum` reduces each hop block to frequencies as the walk yields
it; it must give `basis_spectrum` of the built basis bit for bit, and its
memory must not grow with the hop count."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_connected_graph
from oracles import sample_regular_graph
from unifilter import basis as basis_module
from unifilter.basis import (
    HETEROPHILY,
    HOMOPHILY,
    ORTHONORMAL,
    UNI,
    basis_spectrum,
    make_basis,
    walk_spectrum,
)
from unifilter.datasets import energy_trajectory
from unifilter.graph import LabeledDataset, propagation_operator
from unifilter.model import TrainConfig, build_basis, spectrum
from unifilter.rng import stream
from unifilter.spectral import matrix_frequencies

RECIPES = [(HOMOPHILY, {}), (HOMOPHILY, {"normalize": False}),
           (ORTHONORMAL, {}), (ORTHONORMAL, {"reortho": True}),
           (HETEROPHILY, {"h_hat": 0.3}), (HETEROPHILY, {"h_hat": 0.0, "reortho": True})]
RECIPES += [(UNI, {"h_hat": 0.7, "tau": tau, "reortho": reortho, "normalize": normalize})
            for tau in (0.0, 0.5, 1.0) for reortho in (False, True) for normalize in (True, False)]


def _one_matrix_spectrum(g, b):
    """`basis_spectrum` as it was before it shared the block helper: all usable
    columns of a hop reduced as one matrix."""
    if b.n != g.n:
        raise ValueError("basis was not constructed on this graph")
    keep = np.ones(b.columns, dtype=bool)
    keep[list(b.degenerate_columns)] = False
    if not keep.any():
        raise ValueError("all basis columns are degenerate")
    op = propagation_operator(g)
    out: list[float] = []
    for k in range(b.hops + 1):
        freqs = matrix_frequencies(op, b.matrices[:, k][:, keep])
        valid = ~np.isnan(freqs)
        if not valid.any():
            raise ValueError(f"no usable column at hop {k}")
        out.append(float(freqs[valid].mean()))
    return out


def _signal(g, d, seed):
    """Random columns, one zero column, and one sqrt-degree column: P fixes that
    direction, so its Krylov recurrence exhausts at hop 1 and the column
    degenerates after its hop-0 frequency was computed."""
    X = stream(seed, "sig").standard_normal((g.n, d))
    X[:, 2] = 0.0
    X[:, 5] = np.sqrt(g.degrees)
    return X


def _both(op, g, X, hops, kind, recipe):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return (walk_spectrum(op, X, hops, kind, **recipe),
                basis_spectrum(g, make_basis(op, X, hops, kind, **recipe)))


@pytest.mark.parametrize("kind, recipe", RECIPES, ids=lambda r: str(r))
@pytest.mark.parametrize("loops", ["no-self-loops", "self-loops"])
def test_walk_spectrum_equals_the_built_basis_spectrum(monkeypatch, kind, recipe, loops):
    g = random_connected_graph(40, 0.15, seed=31)
    op = propagation_operator(g, loops)
    X = _signal(g, 9, 31)
    whole = _both(op, g, X, 7, kind, recipe)
    assert whole[0] == whole[1]
    # Blocks of two columns (the lone last one joined): several blocks per hop.
    monkeypatch.setattr(basis_module, "_BLOCK_BYTES", 2 * 8 * 40)
    assert len(basis_module._blocks(40, 9)) == 4
    split = _both(op, g, X, 7, kind, recipe)
    assert split[0] == split[1] == whole[0]


@pytest.mark.parametrize("kind, recipe", RECIPES, ids=lambda r: str(r))
@pytest.mark.parametrize("loops", ["no-self-loops", "self-loops"])
def test_zero_columns_change_no_spectrum(monkeypatch, kind, recipe, loops):
    # Degenerate columns are left out once, from the means: zero columns put
    # anywhere in X, beside others in a block or filling one, move no bit.
    g = random_connected_graph(40, 0.15, seed=41)
    op = propagation_operator(g, loops)
    X = _signal(g, 9, 41)
    padded = np.insert(X, [0, 3, 3, 7, 9], 0.0, axis=1)
    want = _both(op, g, X, 6, kind, recipe)
    assert want[0] == want[1]
    assert _both(op, g, padded, 6, kind, recipe) == want
    monkeypatch.setattr(basis_module, "_BLOCK_BYTES", 2 * 8 * 40)
    assert len(basis_module._blocks(40, 14)) == 7
    assert _both(op, g, padded, 6, kind, recipe) == want


@pytest.mark.parametrize("loops, builds", [("no-self-loops", 0), ("self-loops", 1)])
def test_walk_spectrum_reuses_a_frequency_operator(monkeypatch, loops, builds):
    # Frequencies are read through the operator without self-loops; a walk
    # over that operator already holds it, and only a walk over the other
    # kind builds one.
    g = random_connected_graph(40, 0.15, seed=37)
    op = propagation_operator(g, loops)
    X = _signal(g, 9, 37)
    want = _both(op, g, X, 5, UNI, {"h_hat": 0.7, "tau": 0.5})[1]
    calls = []
    monkeypatch.setattr(basis_module, "propagation_operator",
                        lambda *a: calls.append(a) or propagation_operator(*a))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert walk_spectrum(op, X, 5, UNI, h_hat=0.7, tau=0.5) == want
    assert len(calls) == builds


@pytest.mark.parametrize("kind, recipe", RECIPES, ids=lambda r: str(r))
def test_basis_spectrum_keeps_its_bits_with_two_or_more_usable_columns(kind, recipe):
    g = random_connected_graph(60, 0.1, seed=36)
    op = propagation_operator(g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        b = make_basis(op, _signal(g, 9, 36), 6, kind, **recipe)
    assert basis_spectrum(g, b) == _one_matrix_spectrum(g, b)


def test_single_usable_column():
    g = random_connected_graph(30, 0.2, seed=32)
    op = propagation_operator(g)
    X = np.zeros((30, 3))
    X[:, 1] = stream(32, "sig").standard_normal(30)
    for kind, recipe in RECIPES:
        got, want = _both(op, g, X, 5, kind, recipe)
        assert got == want, (kind, recipe)
        # A lone column is now reduced like a column of a wide block: only the
        # last bits may move against the one-matrix reduction.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            old = _one_matrix_spectrum(g, make_basis(op, X, 5, kind, **recipe))
        np.testing.assert_allclose(got, old, rtol=1e-13, atol=0)


def test_config_spectrum_equals_the_built_basis_spectrum():
    g = random_connected_graph(50, 0.12, seed=33)
    X = _signal(g, 8, 33)
    base = TrainConfig(hops=6, h_hat=0.4)
    for cfg in (base, replace(base, self_loops=True), replace(base, raw_homophily=True, tau=0.2),
                replace(base, basis=ORTHONORMAL, reortho=True), replace(base, basis=HETEROPHILY),
                replace(base, basis=HOMOPHILY, tau=1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert spectrum(g, X, cfg) == basis_spectrum(g, build_basis(g, X, cfg)), cfg


@pytest.mark.parametrize("normalize, message", [
    (True, "all basis columns are degenerate"),
    # Raw powers do not flag a zero input: its columns stay usable but have no frequency.
    (False, "no usable column at hop 0"),
])
def test_messages_are_unchanged(normalize, message):
    g = random_connected_graph(20, 0.25, seed=34)
    op = propagation_operator(g)
    X = np.zeros((20, 3))
    for run in (lambda: walk_spectrum(op, X, 3, HOMOPHILY, normalize=normalize),
                lambda: basis_spectrum(g, make_basis(op, X, 3, HOMOPHILY, normalize=normalize)),
                lambda: _one_matrix_spectrum(g, make_basis(op, X, 3, HOMOPHILY,
                                                           normalize=normalize))):
        with pytest.raises(ValueError) as exc:
            run()
        assert str(exc.value) == message


def test_walk_spectrum_memory_does_not_grow_with_hops(monkeypatch):
    g = random_connected_graph(1500, 0.004, seed=35)
    op = propagation_operator(g)
    X = stream(35, "sig").standard_normal((1500, 120))
    monkeypatch.setattr(basis_module, "_BLOCK_BYTES", 40 * 8 * 1500)
    assert len(basis_module._blocks(1500, 120)) == 3
    peaks = {}
    for hops in (5, 40):
        tracemalloc.start()
        try:
            walk_spectrum(op, X, hops, UNI, h_hat=0.3, tau=0.5)
            peaks[hops] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[40] <= 1.1 * peaks[5], peaks
    # The K=40 basis it stands for would hold 41 arrays of X's size.
    assert peaks[40] < 41 * X.nbytes / 4, peaks


@pytest.mark.parametrize("kind, recipe, bound", [
    (UNI, {"h_hat": 0.3, "tau": 0.5}, 8.5), (HETEROPHILY, {"h_hat": 0.3}, 7.5),
    (HOMOPHILY, {}, 4.5), (ORTHONORMAL, {}, 5.5)])
def test_walk_spectrum_holds_few_live_blocks(kind, recipe, bound):
    # The peak above the inputs, in n x width block arrays: the walk's own
    # arrays, one reused mix buffer, and the two arrays of one frequency call.
    # A fresh mix per hop, or column-major copies in the frequencies, would
    # add one or two blocks.
    g = random_connected_graph(2000, 0.005, seed=38)
    op = propagation_operator(g)
    X = stream(38, "sig").standard_normal((2000, 1200))
    blocks = basis_module._blocks(2000, 1200)
    assert len(blocks) == 6
    tracemalloc.start()
    try:
        walk_spectrum(op, X, 6, kind, **recipe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (2000 * (blocks[0].stop - blocks[0].start) * 8) <= bound, peak


def test_energy_trajectory_holds_few_live_blocks():
    # The peak above the inputs, in n x width block arrays: the walk's own
    # arrays, one blend and the edge gathers of one block's energy. Walking
    # all columns as one block would hold several full-width arrays instead.
    g = sample_regular_graph(2000, 6, stream(39, "graph"))
    X = stream(39, "sig").standard_normal((2000, 1200))
    ds = LabeledDataset(graph=g, features=X, labels=np.zeros(2000, dtype=np.int64), split=None,
                        num_classes=1)
    blocks = basis_module._blocks(2000, 1200)
    assert len(blocks) == 6
    tracemalloc.start()
    try:
        energy_trajectory(ds, (0.2, 0.8, 1.0), 4, h_hat=0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (2000 * (blocks[0].stop - blocks[0].start) * 8) <= 13, peak
