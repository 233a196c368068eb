"""Polynomial signal bases: homophily, orthonormal auxiliary, adaptive heterophily, blended.

Every kind is per-column independent: column j of every hop matrix
depends only on column j of the input (to rounding: numpy's column
reductions depend on the array's width). Construction therefore streams: one
walker runs the recurrences hop by hop over blocks of columns, and each hop
is written straight into one preallocated node-major (rows, K+1, d) result,
so the peak memory is the result plus a few block-sized arrays.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import NO_SELF_LOOPS, Graph, PropagationOperator, propagation_operator
from .spectral import matrix_frequencies

HOMOPHILY = "homophily"
HETEROPHILY = "heterophily"
ORTHONORMAL = "orthonormal"
UNI = "uni"

# A column dies (Krylov exhaustion) when the recurrence residual drops below this.
EXHAUSTION_TOL = 1e-10
# Below this cos(theta) the update factor overflows; the exact limit is u_k = v_k.
COS_UNDERFLOW_TOL = 1e-8
_ZERO_NORM = 1e-300
# Bytes of one n x width block array. A uni walk keeps about seven of them
# alive (7.05 by tracemalloc), 24.7 MiB above a 326 MiB result at Cora shape.
# A 127 x 100 tree signal still fits in one block; a 50k x 16 signal splits
# into widths 9 + 7: the same bits, but its build takes about 17% longer
# (1.43 against 1.22 s, medians of 6 cold builds at one BLAS thread).
# Training forms its first layer's input gradient in row chunks of this size.
_BLOCK_BYTES = 7 << 19
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


@dataclass
class BasisTensor:
    """K+1 hop matrices (each n x d), held node-major as one (n, K+1, d)
    array, tagged with their construction recipe. Hop k is `matrices[:, k]`
    and the hop-prefix view at k is `matrices[:, :k + 1]`.

    `degenerate_columns` lists columns where construction degenerated:
    zero input columns, or columns whose Krylov subspace was exhausted
    before hop K. `clamp_events` counts update-factor radicands clipped
    to zero against floating error.
    """

    kind: str
    matrices: np.ndarray
    theta: float | None = None
    tau: float | None = None
    degenerate_columns: frozenset[int] = frozenset()
    clamp_events: int = 0

    @property
    def hops(self) -> int:
        return self.matrices.shape[1] - 1

    @property
    def n(self) -> int:
        return self.matrices.shape[0]

    @property
    def columns(self) -> int:
        return self.matrices.shape[2]


@dataclass
class _Health:
    """What a walk met: degenerate columns, Krylov exhaustions, clamp events."""

    degenerate: set[int] = field(default_factory=set)
    exhausted: int = 0
    clamps: int = 0

    def flag(self, cols: slice, mask: np.ndarray) -> None:
        self.degenerate.update((np.flatnonzero(mask) + cols.start).tolist())


def _as_columns(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError("signal matrix must be 1-D or 2-D")
    # Row-major, so that a basis's bits do not depend on X's memory order.
    return np.ascontiguousarray(X)


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.sum(a * b, axis=0)` bit for bit, without the product array. At width
    >= 2 both sum each column row by row, on C-ordered and strided blocks
    alike; a lone column np.sum sums pairwise and einsum does not, so it keeps
    np.sum's form."""
    if a.shape[1] < 2:
        return np.add.reduce(a * b, axis=0)
    return np.einsum("ij,ij->j", a, b)


def _column_norms(M: np.ndarray) -> np.ndarray:
    """`np.linalg.norm(M, axis=0)` bit for bit, without the copy its `conj()` makes."""
    return np.sqrt(_column_dots(M, M))


def _normalize_columns(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide M's columns by their norms in place, zeroing the columns whose
    norm is below _ZERO_NORM; returns M and the mask of those dead columns."""
    norms = _column_norms(M)
    dead = norms < _ZERO_NORM
    M /= np.where(dead, 1.0, norms)
    M[:, dead] = 0.0
    return M, dead


def _outside_stacklevel() -> int:
    """The `stacklevel` that makes a warning from this function's caller name
    the first frame outside this package: the call that asked for the basis,
    whichever entry point it went through. (Python 3.11's `warnings.warn` has
    no `skip_file_prefixes`.)"""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


def _blocks(n: int, d: int) -> list[slice]:
    """Slices of range(d) of _BLOCK_BYTES per n x width array, each at least 2
    wide: the walk's column blocks, and training's row chunks as `_blocks(row
    width, rows)`.

    numpy sums a lone (n, 1) column pairwise but wider blocks row by row,
    and BLAS multiplies a lone row by another routine than a matrix, so a
    1-wide remainder would change the last bits; it joins the slice before it.
    """
    width = max(2, _BLOCK_BYTES // (8 * max(n, 1)))
    edges = list(range(0, d, width)) + [d]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _walk(op: PropagationOperator, X: np.ndarray, hops: int, health: _Health | None = None, *,
          diffuse: bool = False, normalize: bool = True, krylov: bool = False,
          reortho: bool = False, h_hat: float | None = None):
    """Run the basis recurrences hop by hop over column blocks of X.

    Yields (k, cols, h, v, u) for k = 0..hops of each block `cols`: h is the
    diffusion iterate (unit columns when `normalize`), v the orthonormal
    Krylov vector, and u the heterophily vector for target homophily
    `h_hat`. Parts not asked for are None; u needs v, so `h_hat` implies
    `krylov`. Only v_{k-1} and v_{k-2} are kept, plus the block's history
    under `reortho`, and a block's state is freed before the next block
    starts. A yielded array is never written again, and X never is: hop 0
    normalizes a copy of the block, and each later hop normalizes its fresh
    sparse products in place. Column dots and norms are `_column_dots`, the
    bits of `np.sum(a * b, axis=0)` without its product array. Degenerate
    columns, exhaustions and clamp events accumulate in `health`;
    exhaustion warns once, after the last block.
    """
    health = _Health() if health is None else health
    if h_hat is not None:
        c = float(np.cos(0.5 * np.pi * (1.0 - h_hat)))
        krylov = True
    X = _as_columns(X)
    n, d = X.shape
    for cols in _blocks(n, d):
        x0, zero = _normalize_columns(X[:, cols].copy())
        if krylov or (diffuse and normalize):
            health.flag(cols, zero)
        h = (x0 if normalize else X[:, cols]) if diffuse else None
        v = u = None
        if krylov:
            v, vprev2, alive = x0, np.zeros_like(x0), ~zero
            history = [x0] if reortho else None
        if h_hat is not None:
            u, s = x0, x0.copy()
        del x0
        yield 0, cols, h, v, u
        for k in range(1, hops + 1):
            if diffuse:
                h = op.apply(h)
                if normalize:
                    h, dead = _normalize_columns(h)
                    health.flag(cols, dead)
            if krylov:
                vprev = v
                v = op.apply(vprev)
                v -= _column_dots(v, vprev) * vprev
                v -= _column_dots(v, vprev2) * vprev2
                vprev2 = vprev
                if reortho:
                    for _ in range(2):
                        for w in history:
                            v -= _column_dots(v, w) * w
                norms = _column_norms(v)
                died = alive & (norms < EXHAUSTION_TOL)
                health.exhausted += int(np.count_nonzero(died))
                health.flag(cols, died)
                alive &= ~died
                v /= np.where(norms < EXHAUSTION_TOL, 1.0, norms)
                v[:, ~alive] = 0.0
                if reortho:
                    history.append(v)
            if h_hat is not None:
                if c < COS_UNDERFLOW_TOL:
                    unew = v
                else:
                    t, clipped = update_factor(_column_dots(s, u), k, c)
                    health.clamps += int(np.count_nonzero(clipped & alive))
                    # s / k + t * v, summed into the first term's array.
                    unew = s / k
                    unew += t * v
                    norms = _column_norms(unew)
                    unew /= np.where(norms < _ZERO_NORM, 1.0, norms)
                # Exhausted columns freeze at their last valid vector.
                u = unew if alive.all() else np.where(alive, unew, u)
                del unew
                s += u
            yield k, cols, h, v, u
        # Nothing of this block is read again: free it before the next x0.
        h = v = u = vprev = vprev2 = s = history = None
    if health.exhausted:
        what = ("froze after Krylov exhaustion" if h_hat is not None
                else "exhausted their Krylov subspace")
        warnings.warn(f"{health.exhausted} column(s) {what}", stacklevel=_outside_stacklevel())


def _hop_rows(part: np.ndarray, rows: np.ndarray | slice = slice(None),
              out: np.ndarray | None = None) -> np.ndarray:
    """`part[rows]`, copied into `out` when one is given. An index array is
    gathered with `np.take`, faster than fancy indexing at narrow widths."""
    picked = part[rows] if isinstance(rows, slice) else np.take(part, rows, axis=0)
    if out is None:
        return picked
    out[...] = picked
    return out


def _blend(h: np.ndarray, u: np.ndarray, tau: float, rows: np.ndarray | slice = slice(None),
           out: np.ndarray | None = None) -> np.ndarray:
    """The rows `rows` of the uni hop tau*h + (1-tau)*u, written into `out`
    when one is given; tau=1 and tau=0 give the rows of h and u themselves.
    h and u are never written. Each term is taken over the rows alone and
    their sum is written into `out` once, so a strided `out` (a hop of the
    node-major basis) is not read back, and a partial split blends only its
    own rows."""
    if tau == 1.0 or tau == 0.0:
        return _hop_rows(h if tau == 1.0 else u, rows, out)
    return np.add(tau * _hop_rows(h, rows), (1.0 - tau) * _hop_rows(u, rows), out=out)


def _recipe(kind: str, *, h_hat: float | None = None, tau: float | None = None,
            reortho: bool = False, normalize: bool = True) -> tuple:
    """What a basis of `kind` keeps of each hop, as `mix(h, v, u[, rows[, out]])`:
    its rows `rows` (all by default), written into `out` when one is given. And
    the `_walk` options that produce those parts, which follow from tau alone.
    Orthonormal keeps v; every other kind is the uni blend tau*h + (1-tau)*u,
    homophily at tau=1 (ignoring `h_hat`) and heterophily at tau=0."""
    if kind == ORTHONORMAL:
        return (lambda h, v, u, *at: _hop_rows(v, *at)), dict(krylov=True, reortho=reortho)
    if kind in (HETEROPHILY, UNI) and h_hat is None:
        raise ValueError(f"kind {kind!r} needs h_hat")
    if kind in (HETEROPHILY, UNI) and not 0.0 <= h_hat <= 1.0:
        raise ValueError("h_hat must lie in [0, 1]")
    if kind in (HOMOPHILY, HETEROPHILY):
        tau = 1.0 if kind == HOMOPHILY else 0.0
    elif kind != UNI:
        raise ValueError(f"unknown basis kind {kind!r}")
    elif tau is None:
        raise ValueError("kind 'uni' needs tau")
    elif not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    return (lambda h, v, u, *at: _blend(h, u, tau, *at)), dict(
        diffuse=tau > 0.0, normalize=normalize, reortho=reortho,
        h_hat=None if tau == 1.0 else h_hat)


def make_basis(op: PropagationOperator, X: np.ndarray, hops: int, kind: str, *,
               h_hat: float | None = None, tau: float | None = None, reortho: bool = False,
               normalize: bool = True) -> BasisTensor:
    """The basis of `kind` over X at hops 0..K: X is walked once and each hop
    is written into one (n, K+1, d) buffer. `theta` = (1 - h_hat) * pi/2 is
    set for heterophily and uni, `tau` for uni only. A zero input column
    gives zeros at every hop.

    - homophily: hop k is the k-fold diffusion of X, K sparse products in
      all, O(K (m+n) d). Columns are unit-normalized per hop, so a blend
      mixes unit-scale parts; `normalize=False` keeps the raw powers.
    - orthonormal: per-column Krylov vectors of the three-term recurrence:
      each is the next propagation orthogonalized against the two before.
      `reortho` adds two passes against the whole history, for orthogonality
      near machine precision at more than the O(K (m+n)) cost. A column
      whose residual vanishes (Krylov exhaustion) is zero from then on.
    - heterophily (needs `h_hat`): vectors that pairwise meet at the angle
      theta. Each hop mixes the running mean of the previous ones with the
      fresh orthonormal direction, weighted by `update_factor`; when
      cos(theta) underflows (h_hat ~ 0) it is that direction, the factor's
      exact limit. An exhausted column freezes at its last valid vector.
    - uni (needs `h_hat` and `tau`): tau*h_k + (1-tau)*u_k of the two bases
      above, which are this blend at tau=1 and tau=0 (tau=1 skips the
      heterophily recurrences), so the ends equal them bit for bit.
    """
    health = _Health()
    out = _node_major_basis(op, X, slice(None), hops, kind, health, h_hat=h_hat, tau=tau,
                            reortho=reortho, normalize=normalize)
    angled = kind in (HETEROPHILY, UNI)
    return BasisTensor(kind=kind, matrices=out,
                       theta=0.5 * np.pi * (1.0 - h_hat) if angled else None,
                       tau=tau if kind == UNI else None,
                       degenerate_columns=frozenset(health.degenerate),
                       clamp_events=health.clamps)


def _node_major_basis(op: PropagationOperator, X: np.ndarray, rows: np.ndarray | slice,
                      hops: int, kind: str, health: _Health | None = None,
                      **recipe) -> np.ndarray:
    """The basis of `kind` over X, node-major as (rows, K+1, d), holding the
    rows `rows` in that order: `make_basis(...).matrices[rows]` bit for bit.
    Every node still shapes the basis through propagation; the rows left out
    are only not held. What the walk met accumulates in `health`."""
    mix, recurrences = _recipe(kind, **recipe)
    if hops < 0:
        raise ValueError("hops must be >= 0")
    X = _as_columns(X)
    out = np.empty((np.arange(X.shape[0])[rows].size, hops + 1, X.shape[1]), dtype=np.float64)
    for k, cols, h, v, u in _walk(op, X, hops, health, **recurrences):
        mix(h, v, u, rows, out[:, k, cols])
        del h, v, u  # so that the walk can free each part when it moves on
    return out


def update_factor(s_dot_u: np.ndarray, k: int, cos_theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Mixing weight for the new orthogonal direction at step k.

    Negative radicands (floating error only) are clamped to zero; the
    returned mask marks which entries were clipped.
    """
    rad = (s_dot_u / (k * cos_theta)) ** 2 - ((k - 1) * cos_theta + 1.0) / k
    neg = rad < 0.0
    return np.sqrt(np.clip(rad, 0.0, None)), neg


def _usable(d: int, degenerate) -> np.ndarray:
    """Mask of the d columns that are not in `degenerate`."""
    keep = np.ones(d, dtype=bool)
    keep[list(degenerate)] = False
    return keep


def _mean_frequencies(freqs: np.ndarray, keep: np.ndarray) -> list[float]:
    """Per-hop mean of a (K+1, d) frequency array over the usable columns `keep`."""
    if not keep.any():
        raise ValueError("all basis columns are degenerate")
    out: list[float] = []
    for k, row in enumerate(freqs[:, keep]):
        valid = ~np.isnan(row)
        if not valid.any():
            raise ValueError(f"no usable column at hop {k}")
        out.append(float(row[valid].mean()))
    return out


def basis_spectrum(g: Graph, b: BasisTensor) -> list[float]:
    """Mean per-hop signal frequency over usable (non-degenerate, nonzero) columns."""
    if b.n != g.n:
        raise ValueError("basis was not constructed on this graph")
    op = propagation_operator(g)
    freqs = np.array([matrix_frequencies(op, b.matrices[:, k]) for k in range(b.hops + 1)])
    return _mean_frequencies(freqs, _usable(b.columns, b.degenerate_columns))


def walk_spectrum(op: PropagationOperator, X: np.ndarray, hops: int, kind: str,
                  **recipe) -> list[float]:
    """`basis_spectrum` of `make_basis(op, X, hops, kind, **recipe)`, bit for bit,
    without building that basis.

    Each hop block is mixed into one block buffer, reused across hops, and
    reduced to per-column frequencies as the walk yields it, so memory holds
    a (K+1, d) array and a few blocks whatever K is, and no hop takes fresh
    block-sized pages for its mix. Every column's frequency is taken at every
    hop, since it does not depend on the columns beside it; the columns that
    degenerated are left out once, from the means at the end.
    """
    if hops < 0:
        raise ValueError("hops must be >= 0")
    mix, recurrences = _recipe(kind, **recipe)
    X = _as_columns(X)
    freq_op = op if op.kind == NO_SELF_LOOPS else propagation_operator(op.graph)
    freqs = np.empty((hops + 1, X.shape[1]))
    health = _Health()
    buf = np.empty((X.shape[0], 0))
    for k, cols, h, v, u in _walk(op, X, hops, health, **recurrences):
        if buf.shape[1] != cols.stop - cols.start:
            buf = np.empty((X.shape[0], cols.stop - cols.start))
        freqs[k, cols] = matrix_frequencies(freq_op, mix(h, v, u, slice(None), buf))
        del h, v, u
    return _mean_frequencies(freqs, _usable(X.shape[1], health.degenerate))


def _kept_gram(b: BasisTensor) -> np.ndarray:
    """Gram matrices between hop vectors, one (K+1 x K+1) slab per
    non-degenerate column; raises when every column is degenerate."""
    keep = _usable(b.columns, b.degenerate_columns)
    if not keep.any():
        raise ValueError("all columns degenerate")
    M = b.matrices
    return np.einsum("nkd,njd->kjd", M, M)[:, :, keep]


def angle_law_deviation(b: BasisTensor) -> tuple[float, float]:
    """Max deviation of (off-diagonal, diagonal) hop inner products from
    (cos theta, 1), over non-degenerate columns."""
    if b.theta is None:
        raise ValueError("basis carries no angle")
    gram = _kept_gram(b)
    kk = b.hops + 1
    eye = np.eye(kk, dtype=bool)
    off = np.abs(gram[~eye] - np.cos(b.theta)).max() if kk > 1 else 0.0
    diag = np.abs(gram[eye] - 1.0).max()
    return float(off), float(diag)


def orthonormality_deviation(b: BasisTensor) -> float:
    """Max deviation of hop-vector Gram matrices from identity, per column."""
    gram = _kept_gram(b)
    eye = np.eye(b.hops + 1)[:, :, None]
    return float(np.abs(gram - eye).max())


def export_basis(b: BasisTensor, outdir: str | Path) -> None:
    """Write hop_k.csv matrices plus meta.json into `outdir`."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for k in range(b.hops + 1):
        np.savetxt(outdir / f"hop_{k}.csv", b.matrices[:, k], delimiter=",", fmt="%.17g")
    meta = {
        "kind": b.kind,
        "K": b.hops,
        "theta": b.theta,
        "tau": b.tau,
        "degenerate_columns": sorted(int(j) for j in b.degenerate_columns),
        "clamp_events": b.clamp_events,
    }
    (outdir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")
