"""Trainable graph filter: learned hop weights, an MLP head, and an Adam loop.

The basis is precomputed once and frozen; only the hop weight vector and
the MLP parameters train. Everything is plain numpy with hand-written
gradients so runs are bit-reproducible for a fixed seed and the analytic
gradients can be checked against central finite differences.

Training holds its basis node-major, as (rows, K+1, d), with the rows in
split order: train, then val, then test. Each group of scored rows is then
one contiguous slab, and an epoch touches only the rows it scores.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .basis import (HETEROPHILY, HOMOPHILY, ORTHONORMAL, UNI, BasisTensor, _blocks,
                    _node_major_basis, make_basis, walk_spectrum)
from .graph import (FALLBACK_HOMOPHILY, NO_SELF_LOOPS, SELF_LOOPS, Graph, LabeledDataset,
                    _mask_indices, _train_edge_homophily, propagation_operator)
from .rng import stream

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRADIENT_CHECK_STEP = 1e-5

# Search ranges used for hyperparameter tuning.
SEARCH_SPACE = {
    "lr": [0.001, 0.005, 0.01, 0.05, 0.1, 0.15, 0.2],
    "hidden": [64, 128, 256],
    "layers": [2, 3, 4, 5, 6],
    "weight_decay": [0.0, 1e-4, 5e-4, 0.001],
    "dropout": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
}


def tau_preset(dataset: str) -> float:
    """Shipped blend-weight preset for a named benchmark dataset."""
    import importlib.resources

    text = importlib.resources.files("unifilter").joinpath("presets.json").read_text()
    presets = {k: v for k, v in json.loads(text).items() if not k.startswith("_")}
    key = dataset.lower()
    if key not in presets:
        raise KeyError(f"no tau preset for {dataset!r}; known: {sorted(presets)}")
    return float(presets[key])


@dataclass
class TrainConfig:
    """Training settings. Defaults follow the standard protocol: 10 hops,
    Adam, early stopping with a patience of 200 epochs."""

    hops: int = 10
    tau: float = 0.5
    lr: float = 0.01
    weight_decay: float = 0.0
    hidden: int = 64
    layers: int = 2
    dropout: float = 0.0
    patience: int = 200
    max_epochs: int = 1000
    seed: int = 0
    basis: str = UNI
    self_loops: bool = False
    raw_homophily: bool = False
    reortho: bool = False
    h_hat: float | None = None

    def __post_init__(self) -> None:
        # Types first. bool is an int to Python, so the numeric fields reject
        # it explicitly.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool" and not isinstance(value, bool):
                raise TypeError(f"{f.name} must be true or false")
            if f.type == "int" and (isinstance(value, bool)
                                    or not isinstance(value, numbers.Integral)):
                raise TypeError(f"{f.name} must be an integer")
            if f.type.startswith("float") and value is not None and (
                    isinstance(value, bool) or not isinstance(value, numbers.Real)):
                raise TypeError(f"{f.name} must be a number")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.hops < 0:
            raise ValueError("hops must be >= 0")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        if self.h_hat is not None and not 0.0 <= self.h_hat <= 1.0:
            raise ValueError("h_hat must lie in [0, 1]")
        if not 2 <= self.layers <= 6:
            raise ValueError("layers must lie in [2, 6]")
        for name in ("lr", "weight_decay", "dropout"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.dropout >= 1.0:
            raise ValueError("dropout must be < 1")
        if self.basis not in (UNI, HOMOPHILY, HETEROPHILY, ORTHONORMAL):
            raise ValueError(f"unknown basis kind {self.basis!r}")


class FilterModel:
    """Hop weight vector plus affine layers with ReLU between them.

    Every parameter is a view into one float64 vector, `params`, laid out
    as w, then each layer's weight matrix followed by its bias; `shapes`
    lists those shapes in that order. The model wraps the vector it is
    given, not a copy, and assigning to `w` writes into it.
    """

    def __init__(self, params: np.ndarray, shapes: list[tuple[int, ...]], dropout: float):
        self.params, self._shapes = params, list(shapes)
        self._w, self.weights, self.biases = self.unflatten(params)
        self.dropout = dropout

    @property
    def w(self) -> np.ndarray:
        return self._w

    @w.setter
    def w(self, value: np.ndarray) -> None:
        self._w[...] = value

    def unflatten(self, vec: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """Views of `vec`, laid out like `params`: w, weight matrices, biases."""
        views, at = [], 0
        for shape in self._shapes:
            views.append(vec[at:at + math.prod(shape)].reshape(shape))
            at += math.prod(shape)
        return views[0], views[1::2], views[2::2]


def init_filter_model(
    hops: int,
    in_dim: int,
    hidden: int,
    layers: int,
    num_classes: int,
    dropout: float,
    rng: np.random.Generator,
) -> FilterModel:
    """Uniform hop weights, symmetric fan-in uniform affine weights, zero bias."""
    if layers < 1:
        raise ValueError("need at least one affine layer")
    dims = [in_dim] + [hidden] * (layers - 1) + [num_classes]
    shapes = [(hops + 1,)] + [s for din, dout in zip(dims[:-1], dims[1:])
                              for s in ((din, dout), (dout,))]
    # Allocated first and filled in place, as `_checkpoint_model` does.
    model = FilterModel(np.zeros(sum(map(math.prod, shapes))), shapes, dropout)
    model.w = 1.0 / (hops + 1)
    for W in model.weights:
        bound = 1.0 / np.sqrt(W.shape[0])
        W[...] = rng.uniform(-bound, bound, size=W.shape)
    return model


def _combine(model: FilterModel, N: np.ndarray) -> np.ndarray:
    """Weighted sum of hop matrices over a node-major (rows, K+1, d) slab: the
    hop weights times each row's (K+1, d) matrix; linear in the hop weights."""
    return np.matmul(model.w, N)


def _forward_pass(model: FilterModel, z: np.ndarray, training: bool,
                  rng: np.random.Generator | None):
    """Logits from the combined hops `z`, plus what the backward pass reads:
    each layer's input and its dropout mask (or None). Masks, biases and
    ReLUs apply in place, masks to `z` too, and no pre-activation is kept: a
    ReLU output is positive exactly where its input is, so a layer input
    carries its mask."""
    nlayers = len(model.weights)
    inputs, masks = [], []
    act = z
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        mask = None
        if training and model.dropout > 0.0 and i < nlayers - 1:
            if rng is None:
                raise ValueError("dropout needs an RNG in training mode")
            keep = 1.0 - model.dropout
            mask = (rng.random(act.shape) < keep) / keep
            act *= mask
        inputs.append(act)
        masks.append(mask)
        h = act @ W
        h += b
        if i < nlayers - 1:
            act = np.maximum(h, 0.0, out=h)
    return h, (inputs, masks)


class _Grad:
    """The gradient vector every backward pass of one model writes into, laid
    out like `model.params`, and its views."""

    def __init__(self, model: FilterModel):
        self.vec = np.empty_like(model.params)
        self.w, self.weights, self.biases = model.unflatten(self.vec)


def _cross_entropy(logits: np.ndarray, y: np.ndarray,
                   grad: bool = True) -> tuple[float, np.ndarray | None]:
    """Mean negative log-softmax of the true classes `y` over the rows of
    `logits`, and its gradient with respect to those logits (None unless `grad`)."""
    sub = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(sub)
    total = expv.sum(axis=1, keepdims=True)
    rows = np.arange(y.size)
    # The sum, then one division: the two steps of np.mean.
    value = float((np.log(total[:, 0]) - sub[rows, y]).sum() / y.size)
    if not grad:
        return value, None
    delta = expv / total
    delta[rows, y] -= 1.0
    delta /= y.size
    return value, delta


def _backward(model: FilterModel, N: np.ndarray, y: np.ndarray, grad: _Grad,
              logits: np.ndarray, cache) -> float:
    """The loss over the first `y.size` rows of a forward pass already made
    over the node-major slab N (its logits and cache), whose labels are `y`.
    Its gradient is written into `grad.vec`. The cache is read through row
    views and the hop-weight gradient runs over N[:y.size], so rows after
    those cost nothing here. The first layer's input gradient is made in
    row chunks of `_blocks`, never whole.

    The cache is consumed: each layer input leaves it once read for the
    last time, so a layer's activations and the gradient at them are never
    alive together. Every caller passes a fresh one."""
    r = y.size
    inputs, masks = cache
    value, gout = _cross_entropy(logits[:r], y)
    for i in range(len(model.weights) - 1, 0, -1):
        grad.weights[i][...] = inputs[i][:r].T @ gout
        grad.biases[i][...] = gout.sum(axis=0)
        # The ReLU mask: the input is positive where the pre-activation was,
        # but at dropped entries, whose gradient is already +-0 and stays so.
        relu = inputs[i][:r] > 0.0
        inputs[i] = None
        gout = gout @ model.weights[i].T
        if masks[i] is not None:
            gout *= masks[i][:r]
            masks[i] = None
        gout *= relu
    grad.weights[0][...] = inputs[0][:r].T @ gout
    grad.biases[0][...] = gout.sum(axis=0)
    inputs[0] = None
    # Each row's (K+1, d) matrix times its d-vector, summed over the rows in
    # order, as np.sum over axis 0 sums them: each chunk's products follow the
    # running total prods[0], which starts at -0.0, the identity of addition.
    # BLAS may tile a chunk's rows unlike the whole matrix's, so gin can differ
    # from the one-shot product's in a last bit; none has reached the
    # hop-weight gradient in a measured run.
    W0, chunks = model.weights[0], _blocks(max(N.shape[1:]), r)  # gin, products fit
    prods = np.empty((max(c.stop - c.start for c in chunks) + 1, N.shape[1], 1))
    prods[0] = -0.0
    for rows in chunks:
        gin = gout[rows] @ W0.T
        if masks[0] is not None:
            gin *= masks[0][rows]
        end = rows.stop - rows.start + 1
        np.matmul(N[rows], gin[:, :, None], out=prods[1:end])
        del gin  # before the next chunk's is made
        prods[0] = prods[:end].sum(axis=0)
    grad.w[...] = prods[0, :, 0]
    return value


def _slab_loss(model: FilterModel, N: np.ndarray, y: np.ndarray) -> float:
    """The loss over the node-major slab N, whose labels are `y`, as `train` computes it."""
    return _cross_entropy(_forward_pass(model, _combine(model, N), False, None)[0], y,
                          grad=False)[0]


def _loss_and_grads(model: FilterModel, N: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """The loss over the node-major slab N, whose labels are `y`, and its
    gradient, laid out like `model.params`, from `train`'s forward and
    backward passes. N must be (y.size, K+1, d) for the model's K and d, and
    hold a row."""
    want = (y.size, model.w.size, model.weights[0].shape[0])
    if N.shape != want or y.shape != want[:1] or not y.size:
        raise ValueError(f"slab has shape {N.shape} and labels {y.shape}; the model's hop "
                         f"weights and input columns expect {want}")
    grad = _Grad(model)
    value = _backward(model, N, y, grad, *_forward_pass(model, _combine(model, N), False, None))
    return value, grad.vec


def gradient_check(model: FilterModel, N: np.ndarray, y: np.ndarray) -> float:
    """Max relative error between analytic and central-difference gradients
    of the loss over the node-major slab N, whose labels are `y`.

    Relative error uses |a - n| / max(|a| + |n|, 1e-6). Both sides run the
    arithmetic of `train`. Dropout is disabled; weight decay is an optimizer
    concern and excluded here.
    """
    _, analytic = _loss_and_grads(model, N, y)
    theta = model.params
    worst = 0.0
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + GRADIENT_CHECK_STEP
        up = _slab_loss(model, N, y)
        theta[i] = orig - GRADIENT_CHECK_STEP
        down = _slab_loss(model, N, y)
        theta[i] = orig
        numeric = (up - down) / (2.0 * GRADIENT_CHECK_STEP)
        # np.maximum keeps a NaN error, where max() would keep the running value.
        worst = np.maximum(worst, abs(analytic[i] - numeric)
                           / max(abs(analytic[i]) + abs(numeric), 1e-6))
    return float(worst)


class _Adam:
    """Adam with L2 weight decay, elementwise over one parameter vector.

    A step computes in place, in the order of `params -= lr * (m / bc1) /
    (sqrt(v / bc2) + eps)` with `g = grad + wd * params`, so its bits are
    those of that expression. `grad` holds g and then the denominator; one
    more vector is made per step. A scratch vector kept across steps would
    be alive at the forward and backward passes and raise the peak memory.
    """

    def __init__(self, size: int, lr: float, weight_decay: float):
        self.lr = lr
        self.wd = weight_decay
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """One update of `params`; `grad` is overwritten."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        g = grad
        g += self.wd * params
        self.m *= ADAM_BETA1
        tmp = (1.0 - ADAM_BETA1) * g
        self.m += tmp
        self.v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
        tmp *= g
        self.v += tmp
        np.divide(self.m, bc1, out=tmp)
        tmp *= self.lr
        np.divide(self.v, bc2, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPS
        tmp /= g
        params -= tmp


@dataclass
class TrainReport:
    """Outcome of one training run. Test accuracy is computed exactly once,
    at the best-validation checkpoint."""

    best_val_acc: float
    best_epoch: int
    test_acc: float
    loss_curve: list[tuple[int, float, float]]
    w: np.ndarray
    h_hat: float
    h_hat_fallback: bool
    epochs_run: int

    def to_dict(self) -> dict:
        return {
            "best_val_acc": self.best_val_acc,
            "best_epoch": self.best_epoch,
            "test_acc": self.test_acc,
            "w": [float(x) for x in self.w],
            "h_hat": self.h_hat,
            "h_hat_fallback": self.h_hat_fallback,
            "epochs_run": self.epochs_run,
        }


def _basis_args(cfg: TrainConfig) -> tuple[str, dict]:
    """The operator kind and the `make_basis` arguments of the basis `cfg`
    names, at `cfg.h_hat`. `build_basis` and `spectrum` read them; configs
    whose arguments at hops=0 are equal name one basis up to its hop count."""
    return (SELF_LOOPS if cfg.self_loops else NO_SELF_LOOPS,
            dict(hops=cfg.hops, kind=cfg.basis, h_hat=cfg.h_hat, tau=cfg.tau,
                 reortho=cfg.reortho, normalize=not cfg.raw_homophily))


def build_basis(graph: Graph, X: np.ndarray, cfg: TrainConfig) -> BasisTensor:
    """The basis `cfg` names over `graph` and features `X`, at `cfg.h_hat`."""
    kind, args = _basis_args(cfg)
    return make_basis(propagation_operator(graph, kind), X, **args)


def _split_parts(dataset: LabeledDataset) -> list[np.ndarray]:
    """The train, val and test node ids of `dataset`'s split."""
    split = dataset.split
    return [_mask_indices(m, dataset.graph.n) for m in (split.train, split.val, split.test)]


def _training_basis(dataset: LabeledDataset, cfg: TrainConfig) -> np.ndarray:
    """`build_basis(graph, features, cfg).matrices[rows]`, bit for bit, built
    as that: the basis `train` reads, node-major (rows, K+1, d) with the rows
    in split order (train, then val, then test). Nodes in no split list
    still shape the basis through propagation; their rows are only not held."""
    kind, args = _basis_args(cfg)
    return _node_major_basis(propagation_operator(dataset.graph, kind), dataset.features,
                             np.concatenate(_split_parts(dataset)), **args)


def spectrum(graph: Graph, X: np.ndarray, cfg: TrainConfig) -> list[float]:
    """`basis_spectrum(graph, build_basis(graph, X, cfg))`, bit for bit, streamed
    hop block by hop block: memory does not grow with the hop count."""
    kind, args = _basis_args(cfg)
    return walk_spectrum(propagation_operator(graph, kind), X, **args)


def _run_h_hat(dataset: LabeledDataset, cfg: TrainConfig) -> tuple[float, bool]:
    """The h_hat a run of `cfg` on `dataset` builds its basis at, and whether it
    fell back: `cfg.h_hat`, else the train-edge estimate, else
    FALLBACK_HOMOPHILY. Raises first if the split is missing or has an empty list."""
    if dataset.split is None:
        raise ValueError("dataset has no split")
    dataset.split.check_nonempty()
    h_hat = cfg.h_hat
    if h_hat is None:
        h_hat = _train_edge_homophily(dataset.graph, dataset.labels, dataset.split.train)
    if h_hat is None:
        return FALLBACK_HOMOPHILY, True
    return h_hat, False


def train(
    dataset: LabeledDataset,
    cfg: TrainConfig,
    basis: np.ndarray | None = None,
    return_model: bool = False,
):
    """Adam training with early stopping on validation accuracy.

    The homophily estimate comes from the training split only (unless
    overridden in the config). Ties in validation accuracy are broken by
    lower validation loss. Fully deterministic for a fixed seed. With
    `return_model` the report comes paired with the restored best model.
    `basis` is the training basis, as `_training_basis` builds it (or a
    hop-prefix view of one, `[:, :hops + 1]`); by default it is built here.
    """
    h_hat, fallback = _run_h_hat(dataset, cfg)
    parts = _split_parts(dataset)
    ntr, nscored = parts[0].size, parts[0].size + parts[1].size
    y = dataset.labels[np.concatenate(parts)]
    ytr, yva = y[:ntr], y[ntr:nscored]
    if basis is None:
        basis = _training_basis(dataset, replace(cfg, h_hat=h_hat))
    want = (y.size, cfg.hops + 1, dataset.features.shape[1])
    if basis.shape != want:
        raise ValueError(f"training basis has shape {basis.shape}, expected {want}")

    rng_init = stream(cfg.seed, "init")
    rng_drop = stream(cfg.seed, "dropout")
    model = init_filter_model(
        cfg.hops, basis.shape[2], cfg.hidden, cfg.layers,
        dataset.num_classes, cfg.dropout, rng_init,
    )
    opt = _Adam(model.params.size, cfg.lr, cfg.weight_decay)
    grad = _Grad(model)

    best_acc, best_loss, best_epoch = -1.0, np.inf, -1
    best_params = model.params.copy()
    curve: list[tuple[int, float, float]] = []
    since_best = 0
    epoch = 0
    # A non-finite training loss is raised naming its epoch; numpy's overflow
    # warnings on the way there would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        # One pass over the train and val rows per epoch: the validation pass
        # after each step runs at the next epoch's parameters, and without
        # dropout its train rows are that epoch's training pass. Dropout draws
        # new masks, over the train rows only, so then only z is shared. Each
        # pass is freed before the next one is made.
        z, ahead = _combine(model, basis[:nscored]), None
        for epoch in range(1, cfg.max_epochs + 1):
            if model.dropout > 0.0:
                ahead = _forward_pass(model, z[:ntr], True, rng_drop)
            elif ahead is None:
                ahead = _forward_pass(model, z, False, None)
            z = None
            train_loss = _backward(model, basis, ytr, grad, *ahead)
            ahead = None
            if not np.isfinite(train_loss):
                raise RuntimeError(f"training loss is not finite at epoch {epoch}")
            opt.step(model.params, grad.vec)

            z = _combine(model, basis[:nscored])
            ahead = _forward_pass(model, z, False, None)
            val_logits = ahead[0][ntr:]
            # The count over the size: the sum and the division np.mean makes.
            val_acc = float(np.count_nonzero(np.argmax(val_logits, axis=1) == yva) / yva.size)
            curve.append((epoch, train_loss, val_acc))

            improved_acc = val_acc > best_acc
            # The validation loss is read only by a new best or its tie-break.
            if val_acc >= best_acc:
                val_loss = _cross_entropy(val_logits, yva, grad=False)[0]
                if improved_acc or val_loss < best_loss:
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
        z = ahead = val_logits = None  # the test pass needs none of them

    np.copyto(model.params, best_params)
    # The test rows, read once.
    test_logits = _forward_pass(model, _combine(model, basis[nscored:]), False, None)[0]
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


def save_checkpoint(model: FilterModel, config: dict, path: str | Path) -> None:
    """JSON checkpoint; floats round-trip exactly through decimal repr."""
    payload = {
        "w": [float(x) for x in model.w],
        "layers": [
            {
                "rows": int(W.shape[0]),
                "cols": int(W.shape[1]),
                "weights": [float(x) for x in W.reshape(-1)],
                "bias": [float(x) for x in b],
            }
            for W, b in zip(model.weights, model.biases)
        ],
        "config": config,
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_checkpoint(path: str | Path) -> tuple[FilterModel, dict]:
    """Model and config from a checkpoint; a bad payload raises ValueError naming `path`."""
    try:
        return _checkpoint_model(json.loads(Path(path).read_text(encoding="utf-8")))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _checkpoint_model(payload) -> tuple[FilterModel, dict]:
    if not isinstance(payload, dict) or not {"w", "layers"} <= payload.keys():
        raise ValueError("checkpoint must hold 'w' and 'layers'")
    cfg, layers, w = payload.get("config", {}), payload["layers"], payload["w"]
    # JSON numbers only: np.fromiter would read "0.25" as 0.25 and true as 1.0.
    if not (isinstance(cfg, dict) and isinstance(w, list) and {*map(type, w)} <= {int, float}
            and isinstance(layers, list) and layers):
        raise ValueError("checkpoint 'config' must be an object, 'w' a list of numbers and "
                         "'layers' a non-empty list")
    values, shapes = [w], [(len(w),)]
    for i, layer in enumerate(layers):
        if not isinstance(layer, dict) or not {"rows", "cols", "weights", "bias"} <= layer.keys():
            raise ValueError(f"layer {i} must hold 'rows', 'cols', 'weights' and 'bias'")
        rows, cols = layer["rows"], layer["cols"]
        if not (type(rows) is int and type(cols) is int and rows >= 1 and cols >= 1):
            raise ValueError(f"layer {i} 'rows' and 'cols' must be positive integers")
        if i and rows != shapes[-1][0]:
            raise ValueError(f"layer {i} has {rows} rows but layer {i - 1} has "
                             f"{shapes[-1][0]} cols")
        for key, shape in (("weights", (rows, cols)), ("bias", (cols,))):
            if not (isinstance(layer[key], list) and len(layer[key]) == math.prod(shape)
                    and {*map(type, layer[key])} <= {int, float}):
                raise ValueError(f"layer {i} {key!r} must be a list of {math.prod(shape)} numbers")
            values.append(layer[key])
            shapes.append(shape)
    # One vector, filled straight from the JSON lists. Per-layer arrays copied
    # into a new vector and then freed left peak RSS one model's size higher.
    params = np.fromiter(itertools.chain.from_iterable(values), np.float64,
                         sum(map(len, values)))
    if not np.isfinite(params).all():
        raise ValueError("checkpoint holds a non-finite value")
    return FilterModel(params, shapes, float(cfg.get("dropout", 0.0))), cfg


def _grouped_runs(dataset: LabeledDataset, cfgs: list[TrainConfig]):
    """Yields `(i, train(dataset, cfgs[i], return_model=True))` for every i,
    bit for bit, building each distinct basis once.

    Configs with equal basis recipes name one basis up to its hop count, and
    a basis at K holds the one at k <= K as its hops 0..k (the hop-prefix
    property). So each such group builds its training basis once, at its
    largest hop count, and each run trains on the view of its first hops+1,
    `[:, :hops + 1]`. Groups run one after another, so one basis is alive at
    a time, and the runs come group by group rather than in index order.
    """
    resolved = [replace(cfg, h_hat=_run_h_hat(dataset, cfg)[0]) for cfg in cfgs]
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(resolved):
        kind, args = _basis_args(replace(cfg, hops=0))
        groups.setdefault((kind, *args.items()), []).append(i)
    for members in groups.values():
        built = _training_basis(dataset, resolved[max(members, key=lambda i: cfgs[i].hops)])
        for i in members:
            yield i, train(dataset, cfgs[i], basis=built[:, :cfgs[i].hops + 1],
                           return_model=True)
        del built  # before the next group's build


def train_runs(dataset: LabeledDataset, cfgs: list[TrainConfig]) -> list[TrainReport]:
    """`[train(dataset, cfg) for cfg in cfgs]`, bit for bit, building each
    distinct basis once (`_grouped_runs`)."""
    reports: list[TrainReport] = [None] * len(cfgs)  # type: ignore[list-item]
    for i, (report, _) in _grouped_runs(dataset, cfgs):
        reports[i] = report
    return reports


def random_search(
    dataset: LabeledDataset,
    base_cfg: TrainConfig,
    trials: int,
    seed: int = 0,
    tau_grid: list[float] | None = None,
) -> tuple[TrainConfig, TrainReport, list[tuple[TrainConfig, TrainReport]], FilterModel]:
    """Random search over the standard ranges; best trial by validation accuracy,
    the first of equals. Returns the best trial's config, report and restored
    model, with every (config, report) before the model. Every trial's config
    is drawn first, so trials that share a tau share a basis."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = stream(seed, "hyper-search")
    cfgs: list[TrainConfig] = []
    for _ in range(trials):
        cfg = replace(base_cfg, **{k: rng.choice(v).item() for k, v in SEARCH_SPACE.items()})
        if tau_grid is not None:
            cfg = replace(cfg, tau=float(rng.choice(tau_grid)))
        cfgs.append(cfg)
    # Only the best model so far is held. The runs come out of index order,
    # so a tie goes to the lower index, the trial `max` would pick.
    reports: list[TrainReport] = [None] * trials  # type: ignore[list-item]
    best, model = -1, None
    for i, (report, run_model) in _grouped_runs(dataset, cfgs):
        reports[i] = report
        if best < 0 or (report.best_val_acc, -i) > (reports[best].best_val_acc, -best):
            best, model = i, run_model
        del run_model
    results = list(zip(cfgs, reports))
    return (*results[best], results, model)
