import json
import re
import tracemalloc

import numpy as np
import pytest

from conftest import random_connected_graph
from unifilter import basis as basis_module
from unifilter.basis import make_basis
from unifilter.graph import Graph, LabeledDataset, propagation_operator
from unifilter.datasets import make_splits, planted_homophily_graph
from unifilter.model import (
    TrainConfig,
    gradient_check,
    init_filter_model,
    load_checkpoint,
    save_checkpoint,
    train,
    _combine,
    _cross_entropy,
    _forward_pass,
    _loss_and_grads,
    _slab_loss,
    _training_basis,
)
from unifilter.rng import stream


def small_basis(seed=0, n=20, d=3, hops=4, tau=0.6):
    g = random_connected_graph(n, 0.25, seed=seed)
    op = propagation_operator(g)
    X = stream(seed, "feat").standard_normal((n, d))
    return g, make_basis(op, X, hops, "uni", h_hat=0.4, tau=tau)


def toy_two_cluster(n_per=10, seed=0):
    """Two dense clusters joined by one edge; one-hot cluster features."""
    rng = stream(seed, "toy")
    edges = set()
    for c in range(2):
        base = c * n_per
        for i in range(n_per):
            edges.add(tuple(sorted((base + i, base + (i + 1) % n_per))))
            for j in range(i + 1, n_per):
                if rng.random() < 0.5:
                    edges.add((base + i, base + j))
    edges.add((n_per - 1, n_per))
    g = Graph.from_edges(np.array(sorted(edges)), 2 * n_per)
    labels = np.array([0] * n_per + [1] * n_per)
    X = np.zeros((2 * n_per, 2))
    X[np.arange(2 * n_per), labels] = 1.0
    split = make_splits(2 * n_per, "60/20/20", 1, seed)[0]
    return LabeledDataset(graph=g, features=X, labels=labels, split=split, num_classes=2)


def test_forward_one_hot_hop_weight():
    _, basis = small_basis()
    rng = stream(1, "init")
    model = init_filter_model(4, 3, 8, 1, 3, 0.0, rng)
    model.w = np.zeros(5)
    model.w[0] = 1.0
    logits = _forward_pass(model, _combine(model, basis.matrices), False, None)[0]
    np.testing.assert_allclose(
        logits, basis.matrices[:, 0] @ model.weights[0] + model.biases[0], atol=1e-14)


def test_forward_zero_weights_broadcast_bias():
    _, basis = small_basis()
    model = init_filter_model(4, 3, 8, 2, 3, 0.0, stream(2, "init"))
    model.w = np.zeros(5)
    model.biases[0][:] = 0.7
    logits = _forward_pass(model, _combine(model, basis.matrices), False, None)[0]
    expected = np.maximum(model.biases[0], 0.0) @ model.weights[1] + model.biases[1]
    np.testing.assert_allclose(logits, np.tile(expected, (20, 1)), atol=1e-14)


def test_loss_and_grads_shape_mismatch_names_dimensions():
    _, basis = small_basis()
    labels = np.zeros(20, dtype=int)
    model = init_filter_model(3, 3, 8, 2, 3, 0.0, stream(3, "init"))
    with pytest.raises(ValueError, match="hop"):
        _loss_and_grads(model, basis.matrices, labels)
    model = init_filter_model(4, 7, 8, 2, 3, 0.0, stream(3, "init"))
    with pytest.raises(ValueError, match="columns"):
        _loss_and_grads(model, basis.matrices, labels)
    # A slab must have one label per row, and a row.
    model = init_filter_model(4, 3, 8, 2, 3, 0.0, stream(3, "init"))
    for N, y in ((basis.matrices, labels[:19]), (basis.matrices, labels[:, None]),
                 (basis.matrices[:0], labels[:0])):
        with pytest.raises(ValueError, match="^" + re.escape(f"slab has shape {N.shape} ")):
            gradient_check(model, N, y)


def test_combine_is_linear_in_hop_weights():
    _, basis = small_basis()
    model = init_filter_model(4, 3, 8, 2, 3, 0.0, stream(4, "init"))
    rng = stream(5, "w")
    w1, w2 = rng.standard_normal(5), rng.standard_normal(5)
    a, b = 0.3, -1.7
    model.w = w1
    z1 = _combine(model, basis.matrices)
    model.w = w2
    z2 = _combine(model, basis.matrices)
    model.w = a * w1 + b * w2
    np.testing.assert_allclose(_combine(model, basis.matrices), a * z1 + b * z2, atol=1e-12)


def test_loss_uniform_logits():
    logits = np.zeros((5, 3))
    value = _cross_entropy(logits, np.array([0, 1, 2, 0, 1]), grad=False)[0]
    assert value == pytest.approx(np.log(3))


def test_loss_confident_correct_goes_to_zero():
    labels = np.array([0, 1])
    for scale in (1.0, 10.0, 100.0):
        logits = scale * np.array([[1.0, 0.0], [0.0, 1.0]])
        val = _cross_entropy(logits, labels, grad=False)[0]
        assert val < np.log(1 + np.exp(-scale)) + 1e-12
    assert _cross_entropy(1000 * np.eye(2), labels, grad=False)[0] == pytest.approx(0.0, abs=1e-12)


def test_loss_two_node_closed_form():
    logits = np.array([[1.0, 0.0], [0.0, 1.0]])
    expected = -np.log(np.e / (np.e + 1.0))
    value = _cross_entropy(logits, np.array([0, 1]), grad=False)[0]
    assert value == pytest.approx(expected, rel=1e-12)


def test_gradient_check_small_instances():
    worst = 0.0
    for seed in range(20):
        rng = stream(seed, "gc")
        g = random_connected_graph(25, 0.25, seed=40 + seed, bipartite_ok=True)
        op = propagation_operator(g)
        X = rng.standard_normal((g.n, 5))
        basis = make_basis(op, X, 4, "uni", h_hat=0.4, tau=0.6)
        model = init_filter_model(4, 5, 8, 2, 3, 0.0, rng)
        model.w = model.w + 0.1 * rng.standard_normal(5)
        labels = rng.integers(0, 3, g.n)
        idx = np.arange(0, g.n, 2)
        err = gradient_check(model, basis.matrices[idx], labels[idx])
        worst = max(worst, err)
    assert worst < 1e-4


def test_gradient_check_fails_on_a_non_finite_parameter():
    _, basis = small_basis(seed=9)
    model = init_filter_model(4, 3, 8, 2, 3, 0.0, stream(9, "init"))
    model.weights[1][0, 0] = np.nan
    labels = stream(9, "y").integers(0, 3, 20)
    with np.errstate(invalid="ignore"):
        assert not gradient_check(model, basis.matrices, labels) < 1e-4


def test_gradient_of_hop_weights_at_zero():
    # w = 0 pins Z = 0; biases move the preactivations off the ReLU kink so
    # the finite-difference comparison is valid there
    _, basis = small_basis(seed=7)
    model = init_filter_model(4, 3, 8, 2, 3, 0.0, stream(7, "init"))
    model.w = np.zeros(5)
    model.biases[0][:] = 0.2
    labels = stream(7, "y").integers(0, 3, 20)
    assert gradient_check(model, basis.matrices, labels) < 1e-4
    # chain rule at the linear combination: dL/dw_k is the entrywise sum of
    # dL/dZ against hop matrix k
    _, grads = _loss_and_grads(model, basis.matrices, labels)
    eps = 1e-7
    for k in range(5):
        model.w[k] = eps
        up = _slab_loss(model, basis.matrices, labels)
        model.w[k] = -eps
        down = _slab_loss(model, basis.matrices, labels)
        model.w[k] = 0.0
        assert model.unflatten(grads)[0][k] == pytest.approx((up - down) / (2 * eps), abs=1e-6)


def test_gradients_deterministic_without_dropout():
    _, basis = small_basis(seed=8)
    model = init_filter_model(4, 3, 8, 2, 3, 0.0, stream(8, "init"))
    labels = stream(8, "y").integers(0, 3, 20)
    l1, g1 = _loss_and_grads(model, basis.matrices, labels)
    l2, g2 = _loss_and_grads(model, basis.matrices, labels)
    assert l1 == l2
    assert np.array_equal(model.unflatten(g1)[0], model.unflatten(g2)[0])
    for a, b in zip(model.unflatten(g1)[1], model.unflatten(g2)[1]):
        assert np.array_equal(a, b)


def test_train_toy_separable_reaches_full_accuracy():
    ds = toy_two_cluster()
    for tau in (0.0, 0.5, 1.0):
        cfg = TrainConfig(hops=3, tau=tau, lr=0.05, hidden=8, layers=2,
                          patience=50, max_epochs=200, seed=1)
        report = train(ds, cfg)
        assert report.test_acc == 1.0
        assert report.epochs_run <= 200


def test_train_constant_features_majority_rate():
    rng = stream(9, "const")
    g = random_connected_graph(40, 0.15, seed=21)
    labels = np.array([0, 1] * 20)
    ds = LabeledDataset(graph=g, features=np.ones((40, 3)), labels=labels,
                        split=make_splits(40, "60/20/20", 1, 2)[0], num_classes=2)
    report = train(ds, TrainConfig(hops=2, tau=1.0, lr=0.05, hidden=4, layers=2,
                                   patience=20, max_epochs=100, seed=3))
    # constant input forces a constant prediction, so accuracy equals the
    # test share of whichever class the model settles on
    test_labels = labels[ds.split.test]
    share = float(np.mean(test_labels == np.argmax(np.bincount(test_labels))))
    assert report.test_acc in (share, 1.0 - share)


def test_train_loss_non_increasing_with_small_lr():
    ds = toy_two_cluster()
    cfg = TrainConfig(hops=3, tau=0.5, lr=1e-3, hidden=8, layers=2,
                      dropout=0.0, patience=200, max_epochs=50, seed=4)
    report = train(ds, cfg)
    losses = [tl for _, tl, _ in report.loss_curve]
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-6)


@pytest.mark.parametrize("d, hidden", [(800, 8), (4, 256)])
def test_epoch_memory_is_the_combined_hops_plus_a_few_blocks(monkeypatch, d, hidden):
    # Above the basis, an epoch holds the combined hops z over the train and
    # val rows, row chunks of the first layer's gradient, the model, and the
    # hidden layer's slabs, each hidden/d z: its activations, and then the
    # gradient at them. No (train rows, d) gradient and no kept
    # pre-activations. A deterministic count.
    g, labels = planted_homophily_graph(600, 1800, 3, 0.3, seed=5)
    ds = LabeledDataset(graph=g, features=stream(5, "features").standard_normal((600, d)),
                        labels=labels, split=make_splits(600, "60/20/20", 1, 5)[0],
                        num_classes=3)
    cfg = TrainConfig(hops=4, hidden=hidden, max_epochs=3, patience=3, h_hat=0.3)
    basis = _training_basis(ds, cfg)
    monkeypatch.setattr(basis_module, "_BLOCK_BYTES", 8 * 8 * max(basis.shape[1:]))
    z = (ds.split.train.size + ds.split.val.size) * d * 8
    tracemalloc.start()
    try:
        train(ds, cfg, basis=basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1.25 + 2.5 * hidden / d) * z, peak / z


def test_epoch_holds_one_hidden_slab_at_a_time(monkeypatch):
    # A wide hidden layer over few features: the hidden slabs (rows x hidden)
    # set the epoch's peak. The bias is added in place, and the backward pass
    # drops a layer's activations, keeping a bool ReLU mask, before the
    # gradient at them is made. So above 1.25 z about one slab is alive.
    d, hidden = 4, 256
    g, labels = planted_homophily_graph(600, 1800, 3, 0.3, seed=5)
    ds = LabeledDataset(graph=g, features=stream(5, "features").standard_normal((600, d)),
                        labels=labels, split=make_splits(600, "60/20/20", 1, 5)[0],
                        num_classes=3)
    cfg = TrainConfig(hops=4, hidden=hidden, max_epochs=3, patience=3, h_hat=0.3)
    basis = _training_basis(ds, cfg)
    monkeypatch.setattr(basis_module, "_BLOCK_BYTES", 8 * 8 * max(basis.shape[1:]))
    z = (ds.split.train.size + ds.split.val.size) * d * 8
    tracemalloc.start()
    try:
        train(ds, cfg, basis=basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slabs = (peak - 1.25 * z) / (hidden / d * z)
    assert slabs <= 1.5, slabs


def test_train_deterministic_bitwise():
    ds = toy_two_cluster(seed=5)
    cfg = TrainConfig(hops=4, tau=0.5, lr=0.05, hidden=8, layers=3,
                      dropout=0.3, patience=30, max_epochs=80, seed=11)
    r1, r2 = train(ds, cfg), train(ds, cfg)
    assert r1.test_acc == r2.test_acc
    assert r1.best_val_acc == r2.best_val_acc
    assert r1.loss_curve == r2.loss_curve
    assert np.array_equal(r1.w, r2.w)


def test_train_report_records_h_estimate():
    ds = toy_two_cluster(seed=6)
    report = train(ds, TrainConfig(hops=2, tau=0.5, lr=0.05, hidden=4,
                                   patience=20, max_epochs=60, seed=0))
    assert 0.0 <= report.h_hat <= 1.0
    assert report.h_hat_fallback is False
    assert report.best_epoch >= 1


def test_h_estimate_fallback_propagates_into_report():
    # training split with no internal edge: the homophily estimate falls
    # back to 0.5 and the report records it
    from unifilter.graph import Split

    g = random_connected_graph(12, 0.3, seed=30, bipartite_ok=True)
    e = g.edge_array()
    # build an independent set greedily for the train side
    banned = set()
    train_nodes = []
    for u in range(g.n):
        if u not in banned:
            train_nodes.append(u)
            banned.update(int(v) for v in g.neighbors(u))
        if len(train_nodes) >= 4:
            break
    rest = [u for u in range(g.n) if u not in train_nodes]
    split = Split(train=np.array(train_nodes), val=np.array(rest[: len(rest) // 2]),
                  test=np.array(rest[len(rest) // 2:]))
    ds = LabeledDataset(graph=g, features=stream(30, "f").standard_normal((12, 3)),
                        labels=stream(30, "y").integers(0, 2, 12), split=split,
                        num_classes=2)
    report = train(ds, TrainConfig(hops=2, tau=0.5, lr=0.05, hidden=4,
                                   patience=10, max_epochs=30, seed=0))
    assert report.h_hat == 0.5
    assert report.h_hat_fallback is True


def test_tau_preset_lookup():
    from unifilter.model import tau_preset

    assert tau_preset("cora") == 1.0
    assert tau_preset("Squirrel") == 0.7
    with pytest.raises(KeyError, match="no tau preset"):
        tau_preset("unknown-dataset")


def test_random_search_returns_best_by_validation():
    from unifilter.model import random_search

    ds = toy_two_cluster(seed=7)
    base = TrainConfig(hops=2, tau=0.5, patience=15, max_epochs=40, seed=2)
    best_cfg, best_report, results, _ = random_search(ds, base, trials=3, seed=1)
    assert len(results) == 3
    assert best_report.best_val_acc == max(r.best_val_acc for _, r in results)
    assert best_cfg.lr in (0.001, 0.005, 0.01, 0.05, 0.1, 0.15, 0.2)


def test_dropout_zero_forward_deterministic():
    _, basis = small_basis(seed=10)
    model = init_filter_model(4, 3, 8, 2, 3, 0.0, stream(10, "init"))
    a = _forward_pass(model, _combine(model, basis.matrices), True, stream(1, "d"))[0]
    b = _forward_pass(model, _combine(model, basis.matrices), True, stream(2, "d"))[0]
    assert np.array_equal(a, b)


def test_dropout_scales_at_train_time_only():
    _, basis = small_basis(seed=12)
    model = init_filter_model(4, 3, 16, 2, 3, 0.5, stream(12, "init"))
    eval_a = _forward_pass(model, _combine(model, basis.matrices), False, None)[0]
    eval_b = _forward_pass(model, _combine(model, basis.matrices), False, None)[0]
    assert np.array_equal(eval_a, eval_b)
    t1 = _forward_pass(model, _combine(model, basis.matrices), True, stream(1, "d"))[0]
    t2 = _forward_pass(model, _combine(model, basis.matrices), True, stream(2, "d"))[0]
    assert not np.array_equal(t1, t2)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(tau=1.2)
    with pytest.raises(ValueError):
        TrainConfig(hops=-1)
    with pytest.raises(ValueError):
        TrainConfig(basis="chebyshev")
    with pytest.raises(ValueError):
        TrainConfig(layers=1)
    with pytest.raises(ValueError):
        TrainConfig(layers=7)
    # Integer fields take non-bool integers, real fields finite non-bool
    # numbers, and flags bools.
    for field, value in (("hops", 2.0), ("hops", True), ("seed", "0"), ("h_hat", True),
                         ("tau", "0.5"), ("lr", False), ("reortho", "no"),
                         ("self_loops", 1), ("raw_homophily", None)):
        with pytest.raises(TypeError, match=f"^{field} must be "):
            TrainConfig(**{field: value})
    # Each rate's message names its field.
    for field in ("lr", "weight_decay", "dropout"):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            TrainConfig(**{field: float("nan")})
        with pytest.raises(ValueError, match=f"^{field} must be >= 0$"):
            TrainConfig(**{field: -1.0})
    with pytest.raises(ValueError, match=r"^lr must be finite$"):
        TrainConfig(lr=float("inf"))
    TrainConfig(hops=np.int64(3), tau=np.float64(0.25), lr=1, h_hat=None)


def test_checkpoint_roundtrip(tmp_path):
    model = init_filter_model(3, 5, 8, 2, 4, 0.25, stream(13, "init"))
    model.w = stream(13, "w").standard_normal(4)
    cfg = {"hops": 3, "tau": 0.5, "dropout": 0.25, "hidden": 8, "layers": 2}
    path = tmp_path / "checkpoint.json"
    save_checkpoint(model, cfg, path)
    back, cfg2 = load_checkpoint(path)
    assert cfg2 == cfg
    np.testing.assert_array_equal(back.w, model.w)
    for a, b in zip(back.weights, model.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(back.biases, model.biases):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("where, value, message", [
    (("w", 0), "0.25", "'w' a list of numbers"), (("w", 1), True, "'w' a list of numbers"),
    (("layers", 1, "weights", 2), "0.5", "layer 1 'weights' must be a list of"),
    (("layers", 0, "bias", 0), True, "layer 0 'bias' must be a list of"),
    (("layers", 0, "bias", 1), [0.5], "layer 0 'bias' must be a list of")])
def test_checkpoint_entries_must_be_json_numbers(tmp_path, where, value, message):
    # np.fromiter would read the string "0.25" as 0.25 and true as 1.0.
    model = init_filter_model(3, 5, 8, 2, 4, 0.0, stream(14, "init"))
    path = tmp_path / "checkpoint.json"
    save_checkpoint(model, {"hops": 3}, path)
    payload = node = json.loads(path.read_text())
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_checkpoint(path)
