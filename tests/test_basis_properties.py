"""Column independence, the hop-prefix property, independence of X's memory
order and the training layout, over random hop counts.

Column j of a basis depends on column j of the input alone, so a basis of
some input columns is those columns of the full basis. It is equal to
rounding, not bit for bit: numpy's column reductions depend on the width of
the array. A basis built at K holds the one built at k <= K as its hops
0..k, bit for bit, for every kind. The experiment harnesses rely on it:
`model.train_runs` builds the training basis once at K, node-major with the
rows in split order, and trains a run at k on its view `[:, :k+1]`. So what
they hand to `train` must hold the build's values at the split's rows, bit
for bit, and the loss and gradient over those rows must be the all-rows
computation's up to rounding. A basis, its spectrum and a column's frequency
have the same bits whether X is row-major, column-major or strided.
"""

import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import random_connected_graph  # noqa: E402
from test_fused_training import _hop_major  # noqa: E402
from test_fused_training import _loss_and_grads as all_rows_loss_and_grads  # noqa: E402
from unifilter import basis as basis_module  # noqa: E402
from unifilter import model as model_module  # noqa: E402
from unifilter.basis import make_basis, walk_spectrum  # noqa: E402
from unifilter.graph import LabeledDataset, Split, propagation_operator  # noqa: E402
from unifilter.model import TrainConfig, _loss_and_grads, init_filter_model, train_runs  # noqa: E402
from unifilter.rng import stream  # noqa: E402
from unifilter.spectral import matrix_frequencies  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

RECIPES = [("homophily", dict(normalize=normalize)) for normalize in (True, False)]
for reortho in (False, True):
    RECIPES += [("orthonormal", dict(reortho=reortho)),
                ("heterophily", dict(h_hat=0.3, reortho=reortho))]
    RECIPES += [("uni", dict(h_hat=0.3, tau=tau, reortho=reortho)) for tau in (0.0, 0.6, 1.0)]


def _config(kind: str, recipe: dict, hops: int) -> TrainConfig:
    """The training config whose basis is `make_basis(..., hops, kind, **recipe)`."""
    return TrainConfig(hops=hops, basis=kind, h_hat=0.3, tau=recipe.get("tau", 0.5),
                       reortho=recipe.get("reortho", False),
                       raw_homophily=not recipe.get("normalize", True))


@st.composite
def cases(draw):
    K = draw(st.integers(0, 12))
    return (draw(st.sampled_from(RECIPES)), draw(st.integers(0, K)), K,
            draw(st.integers(0, 2**16)))


def _signal(seed: int):
    """A 24-node graph and four columns: random, zero, and one that exhausts at hop 1."""
    g = random_connected_graph(24, 0.2, seed=seed % 64)
    X = stream(seed, "prefix-sig").standard_normal((24, 4))
    X[:, 1] = 0.0
    X[:, 2] = np.sqrt(g.degrees)  # a fixed direction of P: exhausts at hop 1
    return g, X


def _wide_signal(seed: int):
    """`_signal`'s graph and four columns, then eight random columns."""
    g, X = _signal(seed)
    return g, np.hstack([X, stream(seed, "wide-sig").standard_normal((24, 8))])


def _partial_split(seed: int) -> Split:
    """Disjoint train, val and test lists in random order; some nodes are in none."""
    perm = stream(seed, "prefix-split").permutation(24)
    ntr, nva, nte = 1 + seed % 10, 1 + seed % 5, 1 + seed % 7
    return Split(train=perm[:ntr], val=perm[ntr:ntr + nva], test=perm[ntr + nva:ntr + nva + nte])


@SETTINGS
@given(cases(), st.lists(st.integers(0, 11), min_size=1, max_size=12, unique=True))
def test_a_build_on_some_columns_is_those_columns_of_the_full_build(case, cols):
    (kind, recipe), _, K, seed = case
    g, X = _wide_signal(seed)
    op = propagation_operator(g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        full = make_basis(op, X, K, kind, **recipe)
        part = make_basis(op, X[:, cols], K, kind, **recipe)
    np.testing.assert_allclose(part.matrices, full.matrices[:, :, cols], rtol=0, atol=1e-12)
    assert part.degenerate_columns == {i for i, j in enumerate(cols)
                                       if j in full.degenerate_columns}


@SETTINGS
@given(cases())
def test_a_basis_and_its_frequencies_do_not_depend_on_the_memory_order_of_X(case):
    (kind, recipe), _, K, seed = case
    g, X = _wide_signal(seed)
    op = propagation_operator(g)
    strided = np.zeros((2 * X.shape[0], 3 * X.shape[1]))
    strided[::2, 1::3] = X
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        runs = [(make_basis(op, Y, K, kind, **recipe), walk_spectrum(op, Y, K, kind, **recipe),
                 matrix_frequencies(op, Y))
                for Y in (np.ascontiguousarray(X), np.asfortranarray(X), strided[::2, 1::3])]
    (want, want_spectrum, want_freqs), *others = runs
    for basis, spectrum, freqs in others:
        assert np.array_equal(basis.matrices, want.matrices)
        assert basis.degenerate_columns == want.degenerate_columns
        assert spectrum == want_spectrum
        assert np.array_equal(freqs, want_freqs, equal_nan=True)


@SETTINGS
@given(cases())
def test_a_build_at_k_is_the_first_hops_of_the_build_at_K(case):
    (kind, recipe), k, K, seed = case
    g, X = _signal(seed)
    op = propagation_operator(g)
    split = _partial_split(seed)
    rows = np.concatenate([split.train, split.val, split.test])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        short = make_basis(op, X, k, kind, **recipe)
        built = make_basis(op, X, K, kind, **recipe)
        ds = LabeledDataset(graph=g, features=X, labels=np.arange(24) % 2, split=split,
                            num_classes=2)
        seen = {}
        with mock.patch.object(model_module, "train",
                               lambda dataset, cfg, basis, return_model:
                               (seen.setdefault(cfg.hops, basis), None)):
            cfg = _config(kind, recipe, K)
            train_runs(ds, [replace(cfg, hops=k), cfg])
    assert short.hops == k
    assert np.array_equal(short.matrices, built.matrices[:, :k + 1])
    # The training basis, and the run at k's view of it, hold the build's
    # values at the split's rows, in split order; unlisted rows are not held.
    for hops, want in ((k, short), (K, built)):
        assert seen[hops].shape == (rows.size, hops + 1, X.shape[1])
        assert np.array_equal(seen[hops], want.matrices[rows])


@SETTINGS
@given(cases(), st.integers(2, 4), st.integers(2, 3))
def test_slab_loss_and_gradient_equal_the_all_rows_computation(case, layers, classes):
    (kind, recipe), _, K, seed = case
    g, X = _signal(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        basis = make_basis(propagation_operator(g), X, K, kind, **recipe)
    rng = stream(seed, "slab-model")
    model = init_filter_model(K, X.shape[1], 8, layers, classes, 0.0, rng)
    model.w = model.w + 0.3 * rng.standard_normal(K + 1)
    labels = rng.integers(0, classes, 24)
    idx = _partial_split(seed).train
    got_loss, got = _loss_and_grads(model, basis.matrices[idx], labels[idx])
    want_loss, want = all_rows_loss_and_grads(model, _hop_major(basis), labels, idx)
    assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _fixed_width_widest(n: int, d: int) -> int:
    """The widest slice of fixed-width blocks, the earlier rule: slices of the
    budget's width from column 0, a lone last column joined to the one before."""
    width = max(2, basis_module._BLOCK_BYTES // (8 * max(n, 1)))
    edges = list(range(0, d, width)) + [d]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return max(b - a for a, b in zip(edges, edges[1:]))


@SETTINGS
@given(st.integers(0, 10**5), st.integers(0, 3000), st.integers(0, 2**28))
def test_blocks_split_the_columns_evenly_within_the_budget(n, d, budget):
    with mock.patch.object(basis_module, "_BLOCK_BYTES", budget):
        blocks = basis_module._blocks(n, d)
        widest = _fixed_width_widest(n, d) if d else 0
    # In order, covering range(d) once.
    assert [c for s in blocks for c in range(d)[s]] == list(range(d))
    widths = [s.stop - s.start for s in blocks]
    if d >= 2:
        assert min(widths) >= 2, widths
    # Even, the wider first, and never wider than the fixed-width rule's widest.
    assert widths == sorted(widths, reverse=True), widths
    assert max(widths, default=0) - min(widths, default=0) <= 1, widths
    assert max(widths, default=0) <= widest, (widths, widest)
