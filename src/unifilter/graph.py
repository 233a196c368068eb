"""Sparse undirected graphs, normalized propagation operators, and edge homophily.

The graph is stored in compressed sparse row form with every undirected
edge kept in both directions. Graphs and operators are immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NO_SELF_LOOPS = "no-self-loops"
SELF_LOOPS = "self-loops"
# Neutral homophily estimate used when no training edge qualifies.
FALLBACK_HOMOPHILY = 0.5


@dataclass
class Graph:
    """Undirected graph: CSR adjacency plus a per-node degree vector.

    Invariants enforced at construction: symmetric adjacency, no
    self-loops, no duplicate edges, degrees[u] == len(neighbors(u)) and
    sum(degrees) == 2*m.
    """

    n: int
    m: int
    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray

    @classmethod
    def from_edges(cls, edges: np.ndarray, n: int) -> "Graph":
        """Build from an array of distinct undirected pairs with u < v."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(edges) and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        if np.any(edges[:, 0] >= edges[:, 1]):
            raise ValueError("edges must satisfy u < v (no self-loops)")
        keys = np.sort(edges[:, 0] * n + edges[:, 1])
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate edges")
        return cls._from_keys(keys, n)

    @classmethod
    def _from_keys(cls, keys: np.ndarray, n: int) -> "Graph":
        """Build from the sorted, distinct int64 keys u*n + v of pairs u < v < n,
        unchecked: `from_edges` checks its pairs, `load_graph` makes its keys so."""
        # Row-major keys of both directions, the CSR entries in order: the
        # reversed keys sorted, then one merge of the two sorted runs. Sorted
        # and reduced to columns in place: fewer m-sized temporaries leave
        # the heap holding less once the graph is built.
        lo, hi = np.divmod(keys, n)
        both = np.concatenate([keys, hi * n + lo])
        del lo, hi
        both[len(keys):].sort()
        both.sort(kind="stable")
        degrees = np.bincount(both // n, minlength=n).astype(np.int64)
        np.remainder(both, n, out=both)
        indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
        return cls(n=int(n), m=len(keys), indptr=indptr, indices=both, degrees=degrees)

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def edge_array(self) -> np.ndarray:
        """Distinct undirected edges as an (m, 2) array with u < v."""
        rows = np.repeat(np.arange(self.n), self.degrees)
        keep = rows < self.indices
        return np.stack([rows[keep], self.indices[keep]], axis=1)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = np.zeros(self.n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v in self.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        return bool(seen.all())


def load_graph(path: str | Path, n: int) -> Graph:
    """Parse a whitespace-separated, 0-indexed edge list file.

    Lines starting with '#' and blank lines are ignored. Self-loop lines
    are dropped (counted in a warning); duplicate and reversed pairs
    collapse to one undirected edge. A file of pairs in [0, n), with or
    without '#' lines, is parsed as one array, any other line by line to
    name its first bad line.
    """
    path = Path(path)
    pairs = _parse_array(path)
    if pairs is None or pairs.shape[1] != 2 or pairs.min(initial=0) < 0 or pairs.max(initial=0) >= n:
        pairs = _parse_lines(path, n)
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    loops = lo == hi
    if loops.any():
        warnings.warn(f"{path}: dropped {np.count_nonzero(loops)} self-loop line(s)", stacklevel=2)
    keys = np.sort(lo[~loops] * n + hi[~loops])
    keys = keys[np.diff(keys, prepend=-1) != 0]  # one of each run of equal keys
    return Graph._from_keys(keys, n)


def _parse_array(path: Path) -> np.ndarray | None:
    """The file as one integer array, or None. A plain file takes one parse; a
    file it fails on is parsed once more without its whole-line comments."""
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                return _loadtxt(fh, dtype=np.int64, comments=None, ndmin=2)
            except ValueError:  # a comment, a bad token, or bytes that are not UTF-8
                fh.seek(0)
                lines = [line for line in fh if not line.strip().startswith("#")]
        # A '#' after data stays a bad token here, as in the line loop.
        return _loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None


def _parse_lines(path: Path, n: int) -> np.ndarray:
    """Every (u, v) line as an (L, 2) array; raises naming the first bad line."""
    pairs = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(f"expected 'u v' at line {lineno} of {path}")
                try:
                    u, v = int(parts[0]), int(parts[1])
                except ValueError as exc:
                    raise ValueError(f"non-integer node id at line {lineno} of {path}") from exc
                for idx in (u, v):
                    if idx < 0:
                        raise ValueError(f"negative node index {idx} at line {lineno}")
                    if idx >= n:
                        raise ValueError(f"node index {idx} >= n={n} at line {lineno}")
                pairs.append((u, v))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _load_sparsetools():
    """scipy's compiled sparse kernels (`csr_matvec`, `csr_matvecs`), loaded
    from their extension file without importing scipy.sparse, whose Python
    layer imports numpy.f2py, numpy.testing and numpy.ma and would dominate
    the start-up of a short run; where the file is not found, or scipy.sparse
    is loaded already, scipy.sparse's own module, which holds the same kernels."""
    name = "scipy.sparse._sparsetools"
    spec = None if name in sys.modules else importlib.util.find_spec("scipy")
    for root in (spec.submodule_search_locations or []) if spec else []:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = str(Path(root, "sparse", "_sparsetools" + suffix))
            if Path(path).is_file():
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path, loader=loader))
                loader.exec_module(module)
                # CPython files the module in sys.modules under a package that
                # is not imported; a later `import scipy.sparse` loads its own.
                sys.modules.pop(name, None)
                return module
    from scipy.sparse import _sparsetools
    return _sparsetools


_SPARSETOOLS = _load_sparsetools()


@dataclass
class PropagationOperator:
    """One-hop diffusion P = I - L (or I - L_hat when self-loops are added).

    P is held in compressed sparse row form: row i has the values
    `data[indptr[i]:indptr[i+1]]` at the columns `indices[indptr[i]:indptr[i+1]]`,
    sorted. `indptr` and `indices` are int32 unless nnz passes int32's range,
    as scipy stores them. Never materialized densely; `apply` is one call of
    scipy's compiled CSR kernel, so a single application costs O(m + n).
    """

    kind: str
    graph: Graph
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        # The kernels index with these arrays unchecked, so an operator built
        # by hand must hold an n x n CSR structure before any product runs.
        n, p = self.graph.n, self.indptr
        if (p.shape != (n + 1,) or p[0] != 0 or np.any(p[1:] < p[:-1])
                or self.indices.shape != (p[-1],) or self.data.shape != (p[-1],)
                or (p[-1] and (self.indices.min() < 0 or self.indices.max() >= n))):
            raise ValueError(f"indptr, indices and data do not form a {n} x {n} CSR matrix")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """P @ x for a signal of shape (n,) or (n, c), with the bits of scipy's
        `csr_matrix @ x`: the same kernels, adding into a zeroed output."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2):
            raise ValueError(f"signal must have shape (n,) or (n, c), not {x.shape}")
        n = self.graph.n
        if x.shape[0] != n:
            raise ValueError(f"signal has {x.shape[0]} rows, graph has {n} nodes")
        out = np.zeros(x.shape)
        if x.ndim == 1 or x.shape[1] == 1:
            _SPARSETOOLS.csr_matvec(n, n, self.indptr, self.indices, self.data,
                                    x.ravel(), out.ravel())
        else:
            _SPARSETOOLS.csr_matvecs(n, n, x.shape[1], self.indptr, self.indices, self.data,
                                     x.ravel(), out.ravel())
        return out


def propagation_operator(g: Graph, kind: str = NO_SELF_LOOPS) -> PropagationOperator:
    """Build the symmetric-normalized propagation operator for `g`."""
    if kind not in (NO_SELF_LOOPS, SELF_LOOPS):
        raise ValueError(f"unknown propagation kind {kind!r}")
    if kind == NO_SELF_LOOPS:
        if np.any(g.degrees == 0):
            u = int(np.flatnonzero(g.degrees == 0)[0])
            raise ValueError(f"node {u} is isolated; kind {NO_SELF_LOOPS} needs degree >= 1")
        deff = g.degrees.astype(np.float64)
    else:
        deff = g.degrees.astype(np.float64) + 1.0
    dinv = 1.0 / np.sqrt(deff)
    indptr, indices, degrees = g.indptr, g.indices, g.degrees
    if kind == SELF_LOOPS:
        # Row i's diagonal goes after its neighbours below i: in O(nnz), the
        # entries and order of scipy's sum A + diag(dinv**2).
        rows = np.repeat(np.arange(g.n), degrees)
        at = indptr[:-1] + np.bincount(rows[indices < rows], minlength=g.n)
        indices = np.insert(indices, at, np.arange(g.n))
        indptr, degrees = indptr + np.arange(g.n + 1), degrees + 1
    data = np.repeat(dinv, degrees) * dinv[indices]
    index = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64
    return PropagationOperator(kind=kind, graph=g, indptr=indptr.astype(index),
                               indices=indices.astype(index), data=data)


def homophily_ratio(g: Graph, labels: np.ndarray) -> float:
    """Fraction of edges whose two endpoints carry the same class label."""
    labels = np.asarray(labels)
    if labels.shape[0] != g.n:
        raise ValueError("labels must cover all nodes")
    if g.m == 0:
        raise ValueError("empty edge set")
    e = g.edge_array()
    return float(np.count_nonzero(labels[e[:, 0]] == labels[e[:, 1]]) / g.m)


def estimate_homophily(g: Graph, labels: np.ndarray, train_mask: np.ndarray) -> float:
    """Homophily ratio over edges with BOTH endpoints in the training set.

    This is the only restriction rule that touches no held-out labels.
    Falls back to 0.5 (neutral) with a warning when no edge qualifies.
    """
    h = _train_edge_homophily(g, labels, train_mask)
    if h is None:
        warnings.warn("no edge has both endpoints in the training set; "
                      "falling back to homophily estimate 0.5", stacklevel=2)
        return FALLBACK_HOMOPHILY
    return h


def _train_edge_homophily(g: Graph, labels: np.ndarray, train_mask: np.ndarray) -> float | None:
    """`estimate_homophily` without its fallback: None when no edge qualifies."""
    labels = np.asarray(labels)
    if np.size(train_mask) == 0:
        raise ValueError("train mask is empty")
    mask = np.zeros(g.n, dtype=bool)
    mask[_mask_indices(train_mask, g.n)] = True
    e = g.edge_array()
    keep = mask[e[:, 0]] & mask[e[:, 1]]
    total = int(np.count_nonzero(keep))
    if total == 0:
        return None
    same = int(np.count_nonzero(labels[e[keep, 0]] == labels[e[keep, 1]]))
    return same / total


def _mask_indices(mask: np.ndarray, n: int) -> np.ndarray:
    """The node ids of `mask`, an integer index array, as int64; raises if it
    holds anything but integers, or holds an id outside [0, n)."""
    mask = np.asarray(mask)
    if mask.dtype.kind not in "iu":
        raise ValueError(f"mask must be an integer index array, not {mask.dtype}")
    if mask.min() < 0 or mask.max() >= n:
        raise ValueError("mask index out of range")
    return mask.astype(np.int64)


@dataclass
class Split:
    """Disjoint train/val/test node index sets."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def validate(self, n: int) -> None:
        parts = [np.asarray(p, dtype=np.int64) for p in (self.train, self.val, self.test)]
        allidx = np.concatenate(parts)
        if allidx.size and (allidx.min() < 0 or allidx.max() >= n):
            raise ValueError("split index out of range")
        if np.any(np.diff(np.sort(allidx)) == 0):
            raise ValueError("split sets overlap")

    def check_nonempty(self) -> None:
        """Reject an empty train, val or test list, naming it. Training needs
        all three; `validate` allows empty lists (estimate-h reads train only)."""
        empty = [k for k in ("train", "val", "test") if np.size(getattr(self, k)) == 0]
        if empty:
            raise ValueError(f"split has an empty {', '.join(map(repr, empty))} list")

    def to_dict(self) -> dict:
        return {
            "train": [int(i) for i in self.train],
            "val": [int(i) for i in self.val],
            "test": [int(i) for i in self.test],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Split":
        missing = [k for k in ("train", "val", "test") if not isinstance(d, dict) or k not in d]
        if missing:
            raise ValueError("split must hold 'train', 'val' and 'test' index lists; "
                             f"missing {', '.join(map(repr, missing))}")
        for k in ("train", "val", "test"):
            # bool is a subclass of int; JSON true must not read as node 1.
            if not isinstance(d[k], list) or any(type(i) is not int for i in d[k]):
                raise ValueError(f"split {k!r} must be a list of integer node ids")
        try:
            return cls(
                train=np.asarray(d["train"], dtype=np.int64),
                val=np.asarray(d["val"], dtype=np.int64),
                test=np.asarray(d["test"], dtype=np.int64),
            )
        except OverflowError:  # an id beyond int64
            raise ValueError("split index out of range") from None


@dataclass
class LabeledDataset:
    """Graph plus features, integer class labels, and an optional split."""

    graph: Graph
    features: np.ndarray
    labels: np.ndarray
    split: Split | None
    num_classes: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.graph.n
        if self.features.shape[0] != n:
            raise ValueError(f"features have {self.features.shape[0]} rows, graph has {n} nodes")
        if self.labels.shape[0] != n:
            raise ValueError("labels must cover all nodes")
        if self.labels.min(initial=0) < 0 or (self.labels.size and self.labels.max() >= self.num_classes):
            raise ValueError("label id outside [0, num_classes)")
        if self.split is not None:
            self.split.validate(n)


def _loadtxt(path: str | Path, **kwargs) -> np.ndarray:
    """np.loadtxt without its empty-input UserWarning (the callers reject empty
    input); what it cannot parse raises ValueError naming `path`."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            return np.loadtxt(path, **kwargs)
        except ValueError as exc:  # a bad token, ragged rows, or bytes that are not UTF-8
            raise ValueError(f"{path}: {exc}") from None


def load_features(path: str | Path) -> np.ndarray:
    """CSV feature matrix, n rows x d columns, no header; not empty, every value finite."""
    X = _loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    if X.shape[0] == 0:
        raise ValueError(f"no feature rows in {path}")
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        row, col = bad[0] + 1
        raise ValueError(f"non-finite feature value at row {row}, column {col} of {path}")
    return X


def load_labels(path: str | Path) -> np.ndarray:
    """One non-negative integer label per line; not empty."""
    labels = _loadtxt(path, dtype=np.int64, ndmin=1)
    if labels.size == 0:
        raise ValueError(f"no labels in {path}")
    if labels.ndim != 1:
        raise ValueError(f"{path}: label file must hold one integer per line")
    if labels.min() < 0:
        raise ValueError(f"{path}: labels must be non-negative")
    return labels


def load_split(path: str | Path) -> Split:
    """The split in the JSON file `path`; a file that is not JSON raises ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{path}: {exc}") from None
    return Split.from_dict(payload)


def load_dataset(
    edge_file: str | Path,
    feature_file: str | Path,
    label_file: str | Path,
    split_file: str | Path | None = None,
) -> LabeledDataset:
    labels = load_labels(label_file)
    n = labels.shape[0]
    g = load_graph(edge_file, n)
    X = load_features(feature_file)
    split = load_split(split_file) if split_file is not None else None
    return LabeledDataset(graph=g, features=X, labels=labels, split=split,
                          num_classes=int(labels.max()) + 1)
