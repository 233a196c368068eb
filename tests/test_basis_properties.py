"""The hop-prefix property, over random hop counts: a basis built at K holds
the one built at k <= K as its hops 0..k, bit for bit, for every kind. The
experiment harnesses rely on it (`model.train_runs` trains a run at k on a
view of the build at K), so the view they hand to `train` is checked too."""

import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import random_connected_graph  # noqa: E402
from unifilter import model as model_module  # noqa: E402
from unifilter.basis import make_basis  # noqa: E402
from unifilter.datasets import make_splits  # noqa: E402
from unifilter.graph import LabeledDataset, propagation_operator  # noqa: E402
from unifilter.model import TrainConfig, train_runs  # noqa: E402
from unifilter.rng import stream  # noqa: E402

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


@SETTINGS
@given(cases())
def test_a_build_at_k_is_the_first_hops_of_the_build_at_K(case):
    (kind, recipe), k, K, seed = case
    g = random_connected_graph(24, 0.2, seed=seed % 64)
    X = stream(seed, "prefix-sig").standard_normal((24, 4))
    X[:, 1] = 0.0
    X[:, 2] = np.sqrt(g.degrees)  # a fixed direction of P: exhausts at hop 1
    op = propagation_operator(g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        short = make_basis(op, X, k, kind, **recipe)
        built = make_basis(op, X, K, kind, **recipe)
        ds = LabeledDataset(graph=g, features=X, labels=np.arange(24) % 2,
                            split=make_splits(24, "60/20/20", 1, seed)[0], num_classes=2)
        seen = {}
        with mock.patch.object(model_module, "train",
                               lambda dataset, cfg, basis: seen.setdefault(cfg.hops, basis)):
            cfg = _config(kind, recipe, K)
            train_runs(ds, [replace(cfg, hops=k), cfg])
    assert short.hops == k
    assert np.array_equal(short.matrices, built.matrices[:k + 1])
    for hops, want in ((k, short), (K, built)):
        assert seen[hops].hops == hops
        assert np.array_equal(seen[hops].matrices, want.matrices)
