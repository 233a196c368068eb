"""`train` makes one pass over the basis per epoch; it must give what the
two-pass loop it replaced gave, bit for bit.

`_two_pass_train` is a verbatim copy of that loop: a training forward and
backward pass, an Adam step, then a validation forward pass, every epoch.
"""

from dataclasses import replace

import numpy as np
import pytest

from unifilter import model as model_module
from unifilter.datasets import make_splits, planted_homophily_graph
from unifilter.graph import FALLBACK_HOMOPHILY, LabeledDataset, _train_edge_homophily
from unifilter.model import (
    TrainConfig,
    TrainReport,
    _Adam,
    _cross_entropy,
    _loss_and_grads,
    _mask_indices,
    build_basis,
    evaluate,
    forward,
    init_filter_model,
    train,
)
from unifilter.rng import stream


def _two_pass_train(dataset, cfg, basis=None, return_model=False):
    if dataset.split is None:
        raise ValueError("dataset has no split")
    split = dataset.split
    split.check_nonempty()
    labels = dataset.labels
    tidx, vidx = (_mask_indices(m, dataset.graph.n) for m in (split.train, split.val))

    h_hat = cfg.h_hat
    if h_hat is None:
        h_hat = _train_edge_homophily(dataset.graph, labels, split.train)
    fallback = h_hat is None
    if fallback:
        h_hat = FALLBACK_HOMOPHILY
    if basis is None:
        basis = build_basis(dataset.graph, dataset.features, replace(cfg, h_hat=h_hat))

    rng_init = stream(cfg.seed, "init")
    rng_drop = stream(cfg.seed, "dropout")
    model = init_filter_model(
        cfg.hops, basis.columns, cfg.hidden, cfg.layers,
        dataset.num_classes, cfg.dropout, rng_init,
    )
    opt = _Adam(model.params.size, cfg.lr, cfg.weight_decay)

    best_acc, best_loss, best_epoch = -1.0, np.inf, -1
    best_params = model.params.copy()
    curve: list[tuple[int, float, float]] = []
    since_best = 0
    epoch = 0
    # A non-finite training loss is raised naming its epoch; numpy's overflow
    # warnings on the way there would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            train_loss, grad = _loss_and_grads(model, basis, labels, tidx,
                                               training=True, rng=rng_drop)
            if not np.isfinite(train_loss):
                raise RuntimeError(f"training loss is not finite at epoch {epoch}")
            opt.step(model.params, grad)

            val_logits = forward(model, basis)
            val_acc = float(np.mean(np.argmax(val_logits[vidx], axis=1) == labels[vidx]))
            val_loss = _cross_entropy(val_logits, labels, vidx)[0]
            curve.append((epoch, train_loss, val_acc))

            improved_acc = val_acc > best_acc
            if improved_acc or (val_acc == best_acc and val_loss < best_loss):
                best_acc, best_loss, best_epoch = val_acc, val_loss, epoch
                np.copyto(best_params, model.params)
            # Patience counts epochs without an accuracy improvement; the loss
            # tie-break only selects which checkpoint to keep.
            if improved_acc:
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break

    np.copyto(model.params, best_params)
    test_acc = evaluate(model, basis, labels, split.test)
    report = TrainReport(
        best_val_acc=best_acc,
        best_epoch=best_epoch,
        test_acc=test_acc,
        loss_curve=curve,
        w=model.w.copy(),
        h_hat=float(h_hat),
        h_hat_fallback=fallback,
        epochs_run=epoch,
    )
    if return_model:
        return report, model
    return report


@pytest.fixture(scope="module")
def dataset():
    g, labels = planted_homophily_graph(120, 360, 3, 0.3, seed=4)
    X = stream(4, "features").standard_normal((120, 6)) + 0.5 * labels[:, None]
    return LabeledDataset(graph=g, features=X, labels=labels,
                          split=make_splits(120, "60/20/20", 1, 4)[0], num_classes=3)


BASE = TrainConfig(hops=4, tau=0.5, lr=0.05, hidden=8, layers=2, patience=200,
                   max_epochs=40, seed=7)
CASES = {
    "dropout-0": BASE,
    "dropout-0.5": replace(BASE, dropout=0.5, layers=3),
    "weight-decay": replace(BASE, weight_decay=5e-4, dropout=0.2),
    "patience-break": replace(BASE, lr=0.2, patience=3, max_epochs=200),
    "one-epoch": replace(BASE, max_epochs=1),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_pass_loop_equals_the_two_pass_loop(dataset, case):
    cfg = CASES[case]
    basis = build_basis(dataset.graph, dataset.features,
                        replace(cfg, h_hat=_train_edge_homophily(
                            dataset.graph, dataset.labels, dataset.split.train)))
    got, got_model = train(dataset, cfg, basis=basis, return_model=True)
    want, want_model = _two_pass_train(dataset, cfg, basis=basis, return_model=True)
    assert got.loss_curve == want.loss_curve
    assert (got.best_epoch, got.best_val_acc, got.test_acc, got.epochs_run) == \
        (want.best_epoch, want.best_val_acc, want.test_acc, want.epochs_run)
    assert np.array_equal(got.w, want.w)
    assert np.array_equal(got_model.params, want_model.params)
    if case == "patience-break":
        assert got.epochs_run < cfg.max_epochs


@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_one_pass_over_the_basis_per_epoch(dataset, monkeypatch, dropout):
    combines = []
    combine = model_module.combine_hops
    monkeypatch.setattr(model_module, "combine_hops",
                        lambda *a: combines.append(1) or combine(*a))
    passes = []
    forward_pass = model_module._forward_pass
    monkeypatch.setattr(model_module, "_forward_pass",
                        lambda *a: passes.append(1) or forward_pass(*a))
    report = train(dataset, replace(BASE, dropout=dropout, max_epochs=25))
    epochs = report.epochs_run
    assert epochs == 25
    # The first epoch's pass, one per epoch after its step, and the test pass.
    assert len(combines) == epochs + 2
    # Without dropout the whole pass is shared; with it only the combined hops.
    assert len(passes) == (epochs + 2 if dropout == 0.0 else 2 * epochs + 1)
