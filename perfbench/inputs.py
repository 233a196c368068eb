"""Seeded input files for the benchmark workloads.

The generators live here, not in the package, so that a change to the
package's own synthetic generators cannot change what the benchmark
measures: the program only ever sees the files written below, and their
digests go into every result.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def planted_graph(rng: np.random.Generator, n: int, m: int, classes: int,
                  h: float) -> tuple[np.ndarray, np.ndarray]:
    """Connected graph with m distinct edges, about a share h of them same-class.

    A random recursive tree, whose nodes join an earlier node of their own
    class with probability h, makes the graph connected; same-class and
    then cross-class edges top it up to the requested counts. The recipe is
    the one `planted_homophily_graph` documents, vectorized so that the
    million-edge tier generates in seconds. Returns (edges (m, 2) with
    u < v sorted, labels).
    """
    labels = np.concatenate([np.arange(classes), rng.integers(0, classes, n - classes)])
    rng.shuffle(labels)
    order = rng.permutation(n)
    # by_class lists the nodes class by class, each class in arrival order,
    # so a node's earlier same-class nodes sit just before it.
    by_class = order[np.argsort(labels[order], kind="stable")]
    pos = np.empty(n, dtype=np.int64)
    pos[by_class] = np.arange(n)
    first = np.searchsorted(labels[by_class], np.arange(classes))
    child = order[1:]
    rank = pos[child] - first[labels[child]]
    any_parent = order[(rng.random(n - 1) * np.arange(1, n)).astype(np.int64)]
    own_parent = by_class[first[labels[child]] + (rng.random(n - 1) * rank).astype(np.int64)]
    matched = (rng.random(n - 1) < h) & (rank > 0)
    tree = np.stack([child, np.where(matched, own_parent, any_parent)], axis=1)
    keys = _keys(tree, n)

    members = np.argsort(labels, kind="stable")
    starts = np.searchsorted(labels[members], np.arange(classes))
    sizes = np.bincount(labels, minlength=classes)
    same_tree = int(np.count_nonzero(labels[tree[:, 0]] == labels[tree[:, 1]]))
    same_needed = max(0, min(int(round(h * m)) - same_tree, m - keys.size))

    def same_class(k: int) -> np.ndarray:
        u = rng.integers(0, n, k)
        c = labels[u]
        v = members[starts[c] + (rng.random(k) * sizes[c]).astype(np.int64)]
        return np.stack([u, v], axis=1)

    def cross_class(k: int) -> np.ndarray:
        e = rng.integers(0, n, (k, 2))
        return e[labels[e[:, 0]] != labels[e[:, 1]]]

    keys = _top_up(keys, same_needed, same_class, n)
    keys = _top_up(keys, m - keys.size, cross_class, n)
    keys.sort()
    edges = np.stack([keys // n, keys % n], axis=1)
    return edges, labels


def _keys(edges: np.ndarray, n: int) -> np.ndarray:
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return (lo * n + hi)[lo != hi]


def _top_up(keys: np.ndarray, need: int, draw, n: int) -> np.ndarray:
    """Append `need` new distinct edge keys drawn in batches, in draw order."""
    while need > 0:
        cand = _keys(draw(2 * need + 64), n)
        cand = cand[~np.isin(cand, keys)]
        _, first = np.unique(cand, return_index=True)
        fresh = cand[np.sort(first)][:need]
        keys = np.concatenate([keys, fresh])
        need -= fresh.size
    return keys


def split_60_20_20(rng: np.random.Generator, n: int) -> dict:
    perm = rng.permutation(n)
    ntr, nva = int(0.6 * n), int(0.2 * n)
    return {"train": np.sort(perm[:ntr]).tolist(),
            "val": np.sort(perm[ntr:ntr + nva]).tolist(),
            "test": np.sort(perm[ntr + nva:]).tolist()}


def bag_of_words(rng: np.random.Generator, labels: np.ndarray, dim: int, words: int,
                 topic_share: float, topic_size: int) -> np.ndarray:
    """Binary bag-of-words rows: each node sets `words` draws, a share of
    them from a vocabulary slice owned by its class (Cora-like features)."""
    n = labels.shape[0]
    classes = int(labels.max()) + 1
    topics = np.stack([rng.choice(dim, topic_size, replace=False) for _ in range(classes)])
    from_topic = rng.random((n, words)) < topic_share
    topical = topics[labels[:, None], rng.integers(0, topic_size, (n, words))]
    cols = np.where(from_topic, topical, rng.integers(0, dim, (n, words)))
    X = np.zeros((n, dim), dtype=np.uint8)
    X[np.arange(n)[:, None], cols] = 1
    return X


def gaussian_features(rng: np.random.Generator, labels: np.ndarray, dim: int,
                      separation: float) -> np.ndarray:
    """Class-mean-plus-unit-noise features, rounded to 6 decimals."""
    means = rng.normal(0.0, separation, (int(labels.max()) + 1, dim))
    return np.round(means[labels] + rng.normal(0.0, 1.0, (labels.shape[0], dim)), 6)


def write_graph_dataset(outdir: Path, edges: np.ndarray, X: np.ndarray,
                        labels: np.ndarray, split: dict) -> dict[str, str]:
    """Write edges.txt, features.csv, labels.txt and split.json; return
    {file name: sha256}."""
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "edges.txt").write_text(
        "".join(f"{u} {v}\n" for u, v in edges.tolist()), encoding="utf-8")
    if X.dtype == np.uint8:
        # Byte-level writer for 0/1 matrices: digits interleaved with commas.
        buf = np.empty((X.shape[0], 2 * X.shape[1]), dtype=np.uint8)
        buf[:, 0::2] = X + ord("0")
        buf[:, 1::2] = ord(",")
        buf[:, -1] = ord("\n")
        (outdir / "features.csv").write_bytes(buf.tobytes())
    else:
        np.savetxt(outdir / "features.csv", X, delimiter=",", fmt="%.6f")
    (outdir / "labels.txt").write_text(
        "".join(f"{int(c)}\n" for c in labels), encoding="utf-8")
    (outdir / "split.json").write_text(json.dumps(split), encoding="utf-8")
    return {p.name: sha256(p) for p in sorted(outdir.iterdir()) if p.is_file()}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
