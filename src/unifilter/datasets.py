"""Synthetic dataset generators, split tooling, and experiment harnesses."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .basis import ORTHONORMAL, UNI, _recipe, _walk
from .graph import Graph, LabeledDataset, Split, homophily_ratio, propagation_operator
from .model import TrainConfig, train_runs
from .rng import stream, substream_seed
from .spectral import dirichlet_energy

REGIMES = {"60/20/20": (0.6, 0.2), "48/32/20": (0.48, 0.32)}
# The taus UniFilter chooses from in the basis-variant ablation.
ABLATION_TAU_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass
class SynthSpec:
    """Relabel a base graph toward a target homophily ratio."""

    base_graph: Graph
    base_labels: np.ndarray
    target_h: float
    feature_dim: int = 100
    tolerance: float = 0.005
    seed: int = 0
    max_sweeps: int = 50


@dataclass
class TreeSpec:
    """Complete binary tree benchmark; depth counts levels from the root."""

    depth: int = 7
    feature_dim: int = 100
    num_classes: int = 3
    seed: int = 0


def one_hot_features(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    cats = rng.integers(0, dim, size=n)
    X = np.zeros((n, dim), dtype=np.float64)
    X[np.arange(n), cats] = 1.0
    return X


def synth_variable_h(spec: SynthSpec) -> tuple[LabeledDataset, dict]:
    """Progressively resample labels of a random node sequence until the
    homophily ratio lands inside the tolerance band around the target.

    Every resample is accepted (no steering); the walk simply stops inside
    the band. Raises when the target stays out of reach after
    `max_sweeps` full passes, reporting the closest ratio achieved.
    """
    g = spec.base_graph
    if not g.is_connected():
        raise ValueError("base graph must be connected")
    labels = np.asarray(spec.base_labels, dtype=np.int64).copy()
    if labels.shape[0] != g.n:
        raise ValueError("base labels must cover all nodes")
    num_classes = int(labels.max()) + 1
    if not 0.0 <= spec.target_h <= 1.0:
        raise ValueError("target homophily must lie in [0, 1]")

    e = g.edge_array()
    same = int(np.count_nonzero(labels[e[:, 0]] == labels[e[:, 1]]))
    h = same / g.m
    rng = stream(spec.seed, "relabel")
    reassignments = 0
    sweeps = 0
    closest = h
    reached = abs(h - spec.target_h) <= spec.tolerance
    while not reached and sweeps < spec.max_sweeps:
        sweeps += 1
        for u in rng.permutation(g.n):
            new = int(rng.integers(0, num_classes))
            reassignments += 1
            old = labels[u]
            if new != old:
                nb = labels[g.neighbors(u)]
                same += int(np.count_nonzero(nb == new)) - int(np.count_nonzero(nb == old))
                labels[u] = new
                h = same / g.m
                if abs(h - spec.target_h) < abs(closest - spec.target_h):
                    closest = h
            if abs(h - spec.target_h) <= spec.tolerance:
                reached = True
                break
    if not reached:
        raise RuntimeError(
            f"target h={spec.target_h} unreachable within {spec.max_sweeps} sweeps; "
            f"closest achieved h={closest:.4f}"
        )
    X = one_hot_features(g.n, spec.feature_dim, stream(spec.seed, "features"))
    ds = LabeledDataset(graph=g, features=X, labels=labels, split=None, num_classes=num_classes)
    meta = {
        "achieved_h": h,
        "target_h": spec.target_h,
        "tolerance": spec.tolerance,
        "reassignments": reassignments,
        "sweeps": sweeps,
        "seed": spec.seed,
        "num_classes": num_classes,
        "feature_dim": spec.feature_dim,
    }
    return ds, meta


def binary_tree_dataset(spec: TreeSpec) -> LabeledDataset:
    """Complete binary tree with random one-hot features and uniform labels.

    Depth d gives 2^d - 1 nodes (root at level 1); node i has children
    2i+1 and 2i+2. Ships with a seeded 60/20/20 split.
    """
    if spec.depth < 2:
        raise ValueError("depth must be >= 2")
    n = 2 ** spec.depth - 1
    children = np.arange(1, n)
    parents = (children - 1) // 2
    edges = np.stack([parents, children], axis=1)
    g = Graph.from_edges(edges, n)
    labels = stream(spec.seed, "labels").integers(0, spec.num_classes, size=n)
    X = one_hot_features(n, spec.feature_dim, stream(spec.seed, "features"))
    split = _partition(n, *REGIMES["60/20/20"], seed=spec.seed, index=0)
    return LabeledDataset(graph=g, features=X, labels=labels, split=split,
                          num_classes=spec.num_classes)


def _partition(n: int, f_train: float, f_val: float, seed: int, index: int) -> Split:
    """Floor-sized train and val lists, the rest to test. Each list gets at
    least one node, as every caller has n >= 3: a depth-2 tree's 60/20/20
    floors would give val none."""
    perm = stream(substream_seed(seed, "split", index), "perm").permutation(n)
    ntr = max(1, int(np.floor(f_train * n)))
    nva = max(1, int(np.floor(f_val * n)))
    return Split(
        train=np.sort(perm[:ntr]),
        val=np.sort(perm[ntr:ntr + nva]),
        test=np.sort(perm[ntr + nva:]),
    )


def make_splits(n: int, regime: str, num_splits: int, seed: int) -> list[Split]:
    """Seeded random partitions of [0, n): floor-sized train and val,
    remainder to test."""
    if n < 5:
        raise ValueError("n must be >= 5")
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; choose one of {sorted(REGIMES)}")
    f_train, f_val = REGIMES[regime]
    return [_partition(n, f_train, f_val, seed, i) for i in range(num_splits)]


def planted_homophily_graph(
    n: int,
    num_edges: int,
    num_classes: int,
    target_h: float,
    seed: int = 0,
) -> tuple[Graph, np.ndarray]:
    """Connected random graph whose edge homophily lands near `target_h`.

    Labels are uniform; a spanning tree (parents matched in class with
    probability target_h) guarantees connectivity, then same- and
    cross-class edges are added to meet the requested counts.
    """
    if num_edges < n - 1:
        raise ValueError("need at least n-1 edges for connectivity")
    if not 1 <= num_classes <= n:
        raise ValueError(f"num_classes {num_classes} must lie in [1, n={n}]")
    pairs = n * (n - 1) // 2
    if num_edges > pairs:
        raise ValueError(f"num_edges {num_edges} exceeds the {pairs} node pairs of n={n}")
    rng = stream(seed, "planted")
    labels = np.concatenate([np.arange(num_classes), rng.integers(0, num_classes, n - num_classes)])
    rng.shuffle(labels)
    by_class = [np.flatnonzero(labels == c) for c in range(num_classes)]

    order = rng.permutation(n)
    edges: set[tuple[int, int]] = set()
    same_cnt = 0
    earlier_by_class: dict[int, list[int]] = {c: [] for c in range(num_classes)}
    earlier: list[int] = []
    for i, u in enumerate(order.tolist()):
        if i > 0:
            cu = int(labels[u])
            pool = earlier_by_class[cu]
            if rng.random() < target_h and pool:
                v = pool[rng.integers(0, len(pool))]
            else:
                v = earlier[rng.integers(0, len(earlier))]
            edges.add((u, v) if u < v else (v, u))
            if labels[v] == cu:
                same_cnt += 1
        earlier.append(u)
        earlier_by_class[int(labels[u])].append(u)

    # Each top-up loop below draws until its count is met; when the pairs the
    # drawn labels leave cannot meet it, it could only exhaust its tries.
    same_needed = int(round(target_h * num_edges))
    same_pairs = sum(c.size * (c.size - 1) // 2 for c in by_class)
    same_added = min(max(same_needed - same_cnt, 0), num_edges - len(edges))
    if same_cnt + same_added > same_pairs:
        raise ValueError(f"{same_cnt + same_added} same-class edges needed, but the drawn "
                         f"classes have only {same_pairs} same-class pairs")
    cross_needed = num_edges - same_cnt - same_added
    if cross_needed > pairs - same_pairs:
        raise ValueError(f"{cross_needed} cross-class edges needed, but the drawn "
                         f"classes have only {pairs - same_pairs} cross-class pairs")
    tries = 0
    while same_cnt < same_needed and len(edges) < num_edges:
        tries += 1
        if tries > 50 * num_edges:
            raise RuntimeError("failed to place same-class edges")
        u = int(rng.integers(0, n))
        pool = by_class[int(labels[u])]
        if pool.size < 2:
            continue
        v = int(pool[rng.integers(0, pool.size)])
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in edges:
            continue
        edges.add(key)
        same_cnt += 1
    tries = 0
    while len(edges) < num_edges:
        tries += 1
        if tries > 50 * num_edges:
            raise RuntimeError("failed to place cross-class edges")
        u, v = rng.integers(0, n, size=2)
        u, v = int(u), int(v)
        if u == v or labels[u] == labels[v]:
            continue
        key = (u, v) if u < v else (v, u)
        if key in edges:
            continue
        edges.add(key)
    arr = np.array(sorted(edges), dtype=np.int64)
    return Graph.from_edges(arr, n), labels


VARIANTS = ("HetFilter", "HomFilter", "OrtFilter", "UniFilter")


def ablation_basis_variants(
    dataset: LabeledDataset,
    cfg: TrainConfig,
    num_seeds: int = 5,
    regime: str = "60/20/20",
) -> dict:
    """Accuracy of the four basis variants under identical splits and seeds.

    Each split trains six runs: the orthonormal basis (OrtFilter) and the uni
    basis at each tau of `ABLATION_TAU_GRID`, whose tau=0 and tau=1 runs are
    HetFilter and HomFilter. UniFilter picks tau per split by validation
    accuracy. Returns per-seed accuracies, means, and gaps to UniFilter.
    """
    if num_seeds < 1:
        raise ValueError("num_seeds must be >= 1")
    splits = make_splits(dataset.graph.n, regime, num_seeds, cfg.seed)
    accs: dict[str, list[float]] = {v: [] for v in VARIANTS}
    chosen_tau: list[float] = []
    for i, split in enumerate(splits):
        ds = LabeledDataset(
            graph=dataset.graph, features=dataset.features, labels=dataset.labels,
            split=split, num_classes=dataset.num_classes,
        )
        run = replace(cfg, seed=substream_seed(cfg.seed, "ablation", i))
        ort, *grid = train_runs(ds, [replace(run, basis=ORTHONORMAL), *(
            replace(run, basis=UNI, tau=float(tau)) for tau in ABLATION_TAU_GRID)])
        by_tau = dict(zip(ABLATION_TAU_GRID, grid))
        tau, best = max(by_tau.items(), key=lambda pair: pair[1].best_val_acc)
        for variant, rep in zip(VARIANTS, (by_tau[0.0], by_tau[1.0], ort, best)):
            accs[variant].append(rep.test_acc)
        chosen_tau.append(float(tau))
    means = {v: float(np.mean(accs[v])) for v in VARIANTS}
    gaps = {v: means["UniFilter"] - means[v] for v in VARIANTS if v != "UniFilter"}
    return {"acc": accs, "mean": means, "gap": gaps, "uni_tau": chosen_tau}


def energy_trajectory(
    dataset: LabeledDataset,
    tau_grid: tuple[float, ...],
    k_max: int,
    h_hat: float | None = None,
) -> list[tuple[float, int, float]]:
    """Dirichlet energy of the blended hop matrices, per tau and hop.

    Hop 0 is included so the common starting energy is visible in the
    table. The homophily estimate defaults to the full-graph ratio. Hops
    are walked once over column blocks and every tau is blended per hop;
    the energy is a sum over columns, so block energies add up. Memory
    holds a few block-sized arrays plus the (m, width) edge gathers of
    each block's energy, whatever `k_max` is; rows come out tau by tau.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    g = dataset.graph
    if h_hat is None:
        h_hat = homophily_ratio(g, dataset.labels)
    mixes = [_recipe(UNI, h_hat=h_hat, tau=tau)[0] for tau in tau_grid]
    op = propagation_operator(g)
    energies = np.zeros((len(tau_grid), k_max + 1))
    for k, _, h, v, u in _walk(op, dataset.features, k_max, diffuse=True, h_hat=h_hat):
        for i, mix in enumerate(mixes):
            energies[i, k] += dirichlet_energy(g, mix(h, v, u))
    return [(float(tau), k, float(e))
            for tau, row in zip(tau_grid, energies) for k, e in enumerate(row)]


def oversquashing_experiment(
    spec: TreeSpec,
    k_grid: tuple[int, ...] = (3, 4, 5, 6, 7),
    num_seeds: int = 5,
    cfg: TrainConfig | None = None,
    tau_grid: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9),
) -> dict:
    """Accuracy of the homophily-only filter and the blended filter on one
    fixed binary tree while the propagation hop grows.

    The dataset (labels, features, split) is drawn once from the spec;
    only the training seeds vary. Per seed, the blended filter picks the
    tau with the best mean validation accuracy across the hop grid. So each
    tau's basis is the same for every seed and hop count: it is built once,
    at the largest hop count, and each run trains on its first hops.
    """
    if num_seeds < 1:
        raise ValueError("num_seeds must be >= 1")
    if cfg is None:
        cfg = TrainConfig(hidden=32, layers=2, lr=0.05, dropout=0.0,
                          patience=50, max_epochs=300)
    ds = binary_tree_dataset(spec)
    acc: dict[str, dict[int, list[float]]] = {
        "homophily-only": {k: [] for k in k_grid},
        "unifilter": {k: [] for k in k_grid},
    }

    def runs(tau: float) -> list[list[tuple[float, float]]]:
        """(best val acc, test acc) of the run at `tau` per seed, then per k."""
        reports = train_runs(ds, [
            replace(cfg, hops=int(k), seed=substream_seed(spec.seed, "squash-run", s),
                    basis=UNI, tau=tau)
            for s in range(num_seeds) for k in k_grid])
        pairs = [(r.best_val_acc, r.test_acc) for r in reports]
        return [pairs[s * len(k_grid):(s + 1) * len(k_grid)] for s in range(num_seeds)]

    homophily = runs(1.0)
    blended = {tau: runs(float(tau)) for tau in tau_grid}
    chosen_tau: list[float] = []
    for s in range(num_seeds):
        for k, (_, test_acc) in zip(k_grid, homophily[s]):
            acc["homophily-only"][k].append(test_acc)
        best_tau = max(tau_grid,
                       key=lambda t: np.mean([val_acc for val_acc, _ in blended[t][s]]))
        chosen_tau.append(float(best_tau))
        for k, (_, test_acc) in zip(k_grid, blended[best_tau][s]):
            acc["unifilter"][k].append(test_acc)
    means = {
        model: {k: float(np.mean(vals)) for k, vals in table.items()}
        for model, table in acc.items()
    }
    return {"acc": acc, "mean": means, "tau": chosen_tau}


def write_dataset(ds: LabeledDataset, outdir: str | Path, meta: dict | None = None) -> None:
    """Write a dataset in the standard file formats (edges, features, labels, split)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    e = ds.graph.edge_array()
    with open(outdir / "edges.txt", "w", encoding="utf-8") as fh:
        for u, v in e.tolist():
            fh.write(f"{u} {v}\n")
    np.savetxt(outdir / "features.csv", ds.features, delimiter=",", fmt="%.17g")
    np.savetxt(outdir / "labels.txt", ds.labels, fmt="%d")
    if ds.split is not None:
        (outdir / "split.json").write_text(
            json.dumps(ds.split.to_dict()), encoding="utf-8")
    if meta is not None:
        (outdir / "meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")
