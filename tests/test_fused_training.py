"""`train` and the squash harness against frozen copies of the epoch arithmetic.

Two frozen blocks below call nothing of the epoch arithmetic from the package.

- The all-rows block is a verbatim copy of the earlier code: the `tensordot`
  hop contractions over all n rows, the cross-entropy through `np.mean`, the
  allocating Adam step, the two-pass loop (a training forward and backward
  pass, an Adam step, then a validation forward pass, every epoch) and
  `oversquashing_experiment` with one basis build per run. `train` now sums
  over the scored rows only, so it meets this block to 1e-12 in the loss and
  gradient at equal parameters, and the squash tables without dropout stay
  equal bit for bit.
- The slab block is the same two-pass loop on the split-ordered node-major
  basis: a combine over the train and val rows, the backward pass over the
  train rows, dropout masks over the train rows, and one test pass. `train`
  makes one pass per epoch and reuses its buffers; results must be equal to
  this block bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from unifilter import basis as basis_module
from unifilter import model as model_module
from unifilter.basis import UNI
from unifilter.datasets import (TreeSpec, binary_tree_dataset, make_splits,
                                oversquashing_experiment, planted_homophily_graph)
from unifilter.graph import FALLBACK_HOMOPHILY, LabeledDataset, _train_edge_homophily
from unifilter.model import (
    TrainConfig,
    TrainReport,
    _mask_indices,
    build_basis,
    init_filter_model,
    train,
)
from unifilter.rng import stream, substream_seed


def _hop_major(basis):
    """`basis` in the earlier hop-major (K+1, n, d) layout the all-rows block reads."""
    return replace(basis, matrices=np.ascontiguousarray(basis.matrices.transpose(1, 0, 2)))

# --- Frozen: verbatim copies of the earlier code; do not edit. ---------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _combine_hops(model, basis):
    return np.tensordot(model.w, basis.matrices, axes=(0, 0))


def _forward_pass(model, z, training, rng):
    nlayers = len(model.weights)
    inputs, masks, pre = [], [], []
    act = z
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        mask = None
        if training and model.dropout > 0.0 and i < nlayers - 1:
            if rng is None:
                raise ValueError("dropout needs an RNG in training mode")
            keep = 1.0 - model.dropout
            mask = (rng.random(act.shape) < keep) / keep
            act = act * mask
        inputs.append(act)
        masks.append(mask)
        h = act @ W + b
        if i < nlayers - 1:
            pre.append(h)
            act = np.maximum(h, 0.0)
    return h, (inputs, masks, pre)


def _forward(model, basis):
    return _forward_pass(model, _combine_hops(model, basis), False, None)[0]


def _cross_entropy(logits, labels, idx):
    sub = logits[idx]
    sub = sub - sub.max(axis=1, keepdims=True)
    expv = np.exp(sub)
    total = expv.sum(axis=1, keepdims=True)
    rows, y = np.arange(idx.size), np.asarray(labels)[idx]
    value = float(np.mean(np.log(total[:, 0]) - sub[rows, y]))
    delta = expv / total
    delta[rows, y] -= 1.0
    return value, delta / idx.size


def _loss_and_grads(model, basis, labels, idx, training=False, rng=None):
    return _backward(model, basis, labels, idx,
                     *_forward_pass(model, _combine_hops(model, basis), training, rng))


def _backward(model, basis, labels, idx, logits, cache):
    inputs, masks, pre = cache
    value, delta = _cross_entropy(logits, labels, idx)
    gout = np.zeros_like(logits)
    gout[idx] = delta

    grad = np.empty_like(model.params)
    gw, gW, gb = model.unflatten(grad)
    for i in range(len(model.weights) - 1, -1, -1):
        gW[i][...] = inputs[i].T @ gout
        gb[i][...] = gout.sum(axis=0)
        gin = gout @ model.weights[i].T
        if masks[i] is not None:
            gin = gin * masks[i]
        if i > 0:
            gout = gin * (pre[i - 1] > 0.0)
    gw[...] = np.tensordot(basis.matrices, gin, axes=([1, 2], [0, 1]))
    return value, grad


class _Adam:
    def __init__(self, size, lr, weight_decay):
        self.lr = lr
        self.wd = weight_decay
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params, grad):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        g = grad + self.wd * params
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * g * g
        params -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + ADAM_EPS)


def _evaluate(model, basis, labels, mask):
    logits = _forward(model, basis)
    idx = _mask_indices(mask, logits.shape[0])
    pred = np.argmax(logits[idx], axis=1)
    return float(np.mean(pred == np.asarray(labels)[idx]))


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
        basis = _hop_major(build_basis(dataset.graph, dataset.features, replace(cfg, h_hat=h_hat)))

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
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            train_loss, grad = _loss_and_grads(model, basis, labels, tidx,
                                               training=True, rng=rng_drop)
            if not np.isfinite(train_loss):
                raise RuntimeError(f"training loss is not finite at epoch {epoch}")
            opt.step(model.params, grad)

            val_logits = _forward(model, basis)
            val_acc = float(np.mean(np.argmax(val_logits[vidx], axis=1) == labels[vidx]))
            val_loss = _cross_entropy(val_logits, labels, vidx)[0]
            curve.append((epoch, train_loss, val_acc))

            improved_acc = val_acc > best_acc
            if improved_acc or (val_acc == best_acc and val_loss < best_loss):
                best_acc, best_loss, best_epoch = val_acc, val_loss, epoch
                np.copyto(best_params, model.params)
            if improved_acc:
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break

    np.copyto(model.params, best_params)
    test_acc = _evaluate(model, basis, labels, split.test)
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


def _per_run_oversquashing(spec, k_grid=(3, 4, 5, 6, 7), num_seeds=5, cfg=None,
                           tau_grid=(0.1, 0.3, 0.5, 0.7, 0.9), trainer=_two_pass_train):
    if cfg is None:
        cfg = TrainConfig(hidden=32, layers=2, lr=0.05, dropout=0.0,
                          patience=50, max_epochs=300)
    ds = binary_tree_dataset(spec)
    acc = {
        "homophily-only": {k: [] for k in k_grid},
        "unifilter": {k: [] for k in k_grid},
    }
    chosen_tau = []
    for s in range(num_seeds):
        run_seed = substream_seed(spec.seed, "squash-run", s)
        for k in k_grid:
            acc["homophily-only"][k].append(
                trainer(ds, replace(cfg, hops=int(k), seed=run_seed,
                                    basis=UNI, tau=1.0)).test_acc)
        runs = {
            tau: [trainer(ds, replace(cfg, hops=int(k), seed=run_seed,
                                      basis=UNI, tau=float(tau)))
                  for k in k_grid]
            for tau in tau_grid
        }
        best_tau = max(tau_grid,
                       key=lambda t: np.mean([r.best_val_acc for r in runs[t]]))
        chosen_tau.append(float(best_tau))
        for k, rep in zip(k_grid, runs[best_tau]):
            acc["unifilter"][k].append(rep.test_acc)
    means = {
        model: {k: float(np.mean(vals)) for k, vals in table.items()}
        for model, table in acc.items()
    }
    return {"acc": acc, "mean": means, "tau": chosen_tau}

# --- End of the frozen all-rows copies. ----------------------------------------

# --- Frozen: the split-ordered slab arithmetic; do not edit. -----------------


def _slab_cross_entropy(logits, y, grad=True):
    sub = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(sub)
    total = expv.sum(axis=1, keepdims=True)
    rows = np.arange(y.size)
    value = float((np.log(total[:, 0]) - sub[rows, y]).sum() / y.size)
    if not grad:
        return value
    delta = expv / total
    delta[rows, y] -= 1.0
    delta /= y.size
    return value, delta


def _slab_backward(model, N, y, logits, cache):
    r = y.size
    inputs, masks, pre = cache
    value, gout = _slab_cross_entropy(logits[:r], y)
    grad = np.empty_like(model.params)
    gw, gW, gb = model.unflatten(grad)
    for i in range(len(model.weights) - 1, -1, -1):
        gW[i][...] = inputs[i][:r].T @ gout
        gb[i][...] = gout.sum(axis=0)
        gin = gout @ model.weights[i].T
        if masks[i] is not None:
            gin = gin * masks[i][:r]
        if i > 0:
            gout = gin * (pre[i - 1][:r] > 0.0)
    gw[...] = np.matmul(N[:r], gin[:, :, None]).sum(axis=0)[:, 0]
    return value, grad


def _slab_two_pass_train(dataset, cfg, basis=None, return_model=False):
    split = dataset.split
    split.check_nonempty()
    parts = [_mask_indices(m, dataset.graph.n) for m in (split.train, split.val, split.test)]
    rows = np.concatenate(parts)
    ntr, nscored = parts[0].size, parts[0].size + parts[1].size
    y = dataset.labels[rows]

    h_hat = cfg.h_hat
    if h_hat is None:
        h_hat = _train_edge_homophily(dataset.graph, dataset.labels, split.train)
    fallback = h_hat is None
    if fallback:
        h_hat = FALLBACK_HOMOPHILY
    if basis is None:
        basis = build_basis(dataset.graph, dataset.features,
                            replace(cfg, h_hat=h_hat)).matrices[rows]

    rng_init = stream(cfg.seed, "init")
    rng_drop = stream(cfg.seed, "dropout")
    model = init_filter_model(
        cfg.hops, basis.shape[2], cfg.hidden, cfg.layers,
        dataset.num_classes, cfg.dropout, rng_init,
    )
    opt = _Adam(model.params.size, cfg.lr, cfg.weight_decay)

    best_acc, best_loss, best_epoch = -1.0, np.inf, -1
    best_params = model.params.copy()
    curve = []
    since_best = 0
    epoch = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            z = np.matmul(model.w, basis[:nscored])
            if model.dropout > 0.0:
                z = z[:ntr]
            train_loss, grad = _slab_backward(model, basis, y[:ntr],
                                              *_forward_pass(model, z, True, rng_drop))
            if not np.isfinite(train_loss):
                raise RuntimeError(f"training loss is not finite at epoch {epoch}")
            opt.step(model.params, grad)

            val_logits = _forward_pass(model, np.matmul(model.w, basis[:nscored]),
                                       False, None)[0][ntr:]
            yva = y[ntr:nscored]
            val_acc = float(np.count_nonzero(np.argmax(val_logits, axis=1) == yva) / yva.size)
            val_loss = _slab_cross_entropy(val_logits, yva, grad=False)
            curve.append((epoch, train_loss, val_acc))

            improved_acc = val_acc > best_acc
            if improved_acc or (val_acc == best_acc and val_loss < best_loss):
                best_acc, best_loss, best_epoch = val_acc, val_loss, epoch
                np.copyto(best_params, model.params)
            if improved_acc:
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break

    np.copyto(model.params, best_params)
    test_logits = _forward_pass(model, np.matmul(model.w, basis[nscored:]), False, None)[0]
    report = TrainReport(
        best_val_acc=best_acc,
        best_epoch=best_epoch,
        test_acc=float(np.mean(np.argmax(test_logits, axis=1) == y[nscored:])),
        loss_curve=curve,
        w=model.w.copy(),
        h_hat=float(h_hat),
        h_hat_fallback=fallback,
        epochs_run=epoch,
    )
    if return_model:
        return report, model
    return report

# --- End of the frozen slab copies. --------------------------------------------


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
    "dropout-weight-decay-3-layers": replace(BASE, dropout=0.5, weight_decay=5e-4, layers=3),
    "tau-0-weight-decay-early-stop": replace(BASE, tau=0.0, weight_decay=1e-3, lr=0.2,
                                             patience=3, max_epochs=200),
    "patience-break": replace(BASE, lr=0.2, patience=3, max_epochs=200),
    "one-epoch": replace(BASE, max_epochs=1),
}


def _training_basis(dataset, cfg):
    """The split-ordered node-major basis of `cfg`, gathered from the build,
    and that build."""
    built = build_basis(dataset.graph, dataset.features,
                        replace(cfg, h_hat=_train_edge_homophily(
                            dataset.graph, dataset.labels, dataset.split.train)))
    split = dataset.split
    return built.matrices[np.concatenate([split.train, split.val, split.test])], built


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_pass_loop_equals_the_two_pass_loop(dataset, case):
    cfg = CASES[case]
    basis, _ = _training_basis(dataset, cfg)
    got, got_model = train(dataset, cfg, basis=basis, return_model=True)
    want, want_model = _slab_two_pass_train(dataset, cfg, basis=basis, return_model=True)
    # repr, as the loss-curve file writes them: equal values of another type differ.
    assert repr(got.loss_curve) == repr(want.loss_curve)
    assert (got.best_epoch, got.best_val_acc, got.test_acc, got.epochs_run) == \
        (want.best_epoch, want.best_val_acc, want.test_acc, want.epochs_run)
    assert np.array_equal(got.w, want.w)
    assert np.array_equal(got_model.params, want_model.params)
    if "early-stop" in case or case == "patience-break":
        assert got.epochs_run < cfg.max_epochs


@pytest.mark.parametrize("case", sorted(CASES))
def test_train_row_loss_and_gradient_equal_the_all_rows_computation(dataset, case):
    cfg = CASES[case]
    _, built = _training_basis(dataset, cfg)
    tidx = dataset.split.train
    _, trained = train(dataset, cfg, return_model=True)
    initial = init_filter_model(cfg.hops, built.columns, cfg.hidden, cfg.layers,
                                dataset.num_classes, cfg.dropout, stream(cfg.seed, "init"))
    for model in (initial, trained):
        got_loss, got = model_module._loss_and_grads(model, built.matrices[tidx],
                                                     dataset.labels[tidx])
        want_loss, want = _loss_and_grads(model, _hop_major(built), dataset.labels, tidx)
        assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("layers", [2, 3])
@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_row_chunked_gradient_equals_the_one_shot_form(dataset, monkeypatch, dropout, layers):
    # Chunks of 3 train rows: the first layer's input gradient and the
    # hop-weight gradient run over 24 chunks, and the hop-weight sum must keep
    # the one-shot form's row-by-row order.
    cfg = replace(BASE, dropout=dropout, layers=layers)
    basis, _ = _training_basis(dataset, cfg)
    ntr = dataset.split.train.size
    monkeypatch.setattr(basis_module, "_BLOCK_BYTES", 3 * 8 * max(basis.shape[1:]))
    assert len(basis_module._blocks(max(basis.shape[1:]), ntr)) == ntr // 3 == 24
    y = dataset.labels[dataset.split.train]
    _, trained = train(dataset, cfg, basis=basis, return_model=True)
    initial = init_filter_model(cfg.hops, basis.shape[2], cfg.hidden, cfg.layers,
                                dataset.num_classes, cfg.dropout, stream(cfg.seed, "init"))
    for model in (initial, trained):
        z = np.matmul(model.w, basis[:ntr])
        grad = model_module._Grad(model)
        got_loss = model_module._backward(
            model, basis, y, grad,
            *model_module._forward_pass(model, z.copy(), True, stream(1, "dropout")))
        want_loss, want = _slab_backward(model, basis, y,
                                         *_forward_pass(model, z, True, stream(1, "dropout")))
        assert got_loss == want_loss
        # Bytes, so that the sign of a zero counts too.
        assert grad.vec.tobytes() == want.tobytes()


@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_one_pass_over_the_basis_per_epoch(dataset, monkeypatch, dropout):
    combines = []
    combine = model_module._combine
    monkeypatch.setattr(model_module, "_combine",
                        lambda model, N: combines.append(N.shape[0]) or combine(model, N))
    passes = []
    forward_pass = model_module._forward_pass
    monkeypatch.setattr(model_module, "_forward_pass",
                        lambda model, z, *a: passes.append(z.shape[0]) or forward_pass(model, z, *a))
    report = train(dataset, replace(BASE, dropout=dropout, max_epochs=25))
    epochs = report.epochs_run
    assert epochs == 25
    split = dataset.split
    ntr, nscored, nte = split.train.size, split.train.size + split.val.size, split.test.size
    # The first epoch's pass and one per epoch after its step, over the train
    # and val rows, then the test pass over the test rows.
    assert combines == [nscored] * (epochs + 1) + [nte]
    # Without dropout the whole pass is shared; with it only the combined
    # hops, and each training pass runs over the train rows.
    if dropout == 0.0:
        assert passes == [nscored] * (epochs + 1) + [nte]
    else:
        assert passes == [ntr, nscored] * epochs + [nte]


SQUASH_CFGS = {
    "default": None,
    "early-stop": TrainConfig(hidden=8, layers=2, lr=0.2, weight_decay=1e-3,
                              patience=3, max_epochs=200),
}


@pytest.mark.parametrize("case", sorted(SQUASH_CFGS))
def test_squash_table_equals_the_per_run_build_harness(case):
    spec = TreeSpec(depth=4, feature_dim=16, seed=3)
    kwargs = dict(k_grid=(2, 3, 5), num_seeds=2, cfg=SQUASH_CFGS[case])
    assert oversquashing_experiment(spec, **kwargs) == _per_run_oversquashing(spec, **kwargs)


def test_dropout_squash_table_equals_the_per_run_slab_harness():
    # Dropout masks now cover the train rows only, so the draws differ from
    # the all-rows loop's; the slab loop draws the same ones.
    spec = TreeSpec(depth=4, feature_dim=16, seed=3)
    kwargs = dict(k_grid=(2, 3, 5), num_seeds=2,
                  cfg=TrainConfig(hidden=16, layers=3, lr=0.05, dropout=0.5,
                                  weight_decay=5e-4, patience=50, max_epochs=80))
    assert oversquashing_experiment(spec, **kwargs) == \
        _per_run_oversquashing(spec, trainer=_slab_two_pass_train, **kwargs)


def test_depth_4_squash_table_equals_the_per_run_build_harness():
    spec = TreeSpec(depth=4, seed=0)
    assert oversquashing_experiment(spec) == _per_run_oversquashing(spec)
