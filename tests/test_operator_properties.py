"""The propagation operator against scipy.sparse as the reference.

The package calls scipy's compiled CSR kernels itself, on arrays it builds
without scipy's sparse layer. Its arrays must equal what `sp.csr_matrix`
and `A + sp.diags(dinv**2)` hold, dtypes included, and `apply` must give
the bits of `csr_matrix @ x`, the sign of zero included, for every signal
shape and memory layout.
"""

import sys

import numpy as np
import pytest
import scipy.sparse as sp

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import er_graph, path_graph  # noqa: E402
from unifilter import graph as graph_module  # noqa: E402
from unifilter.graph import NO_SELF_LOOPS, SELF_LOOPS, Graph, propagation_operator  # noqa: E402

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])
LAYOUTS = ("1-D", "(n, 1)", "C", "F", "strided")


def reference_matrix(g: Graph, kind: str) -> sp.csr_matrix:
    """The operator as the package built it with scipy.sparse."""
    dinv = 1.0 / np.sqrt(g.degrees.astype(np.float64) + (kind == SELF_LOOPS))
    rows = np.repeat(np.arange(g.n), g.degrees)
    mat = sp.csr_matrix((dinv[rows] * dinv[g.indices], g.indices.copy(), g.indptr.copy()),
                        shape=(g.n, g.n))
    return (mat + sp.diags(dinv * dinv)).tocsr() if kind == SELF_LOOPS else mat


def signal(rng: np.random.Generator, n: int, width: int, layout: str) -> np.ndarray:
    """A random signal holding exact zeros of both signs."""
    x = rng.standard_normal((n, 2 * width))
    x[rng.random(x.shape) < 0.2] = 0.0
    x[rng.random(x.shape) < 0.2] = -0.0
    if layout == "1-D":
        return x[:, 0]
    if layout == "(n, 1)":
        return x[:, :1]
    if layout == "strided":
        return x[:, ::2]
    x = x[:, :width]
    return np.asfortranarray(x) if layout == "F" else np.ascontiguousarray(x)


@st.composite
def operators(draw):
    """A random graph, sometimes with isolated nodes, and an operator kind it allows."""
    n = draw(st.integers(1, 40))
    g = er_graph(n, draw(st.sampled_from([0.0, 0.05, 0.2, 0.6])),
                 np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    kinds = [SELF_LOOPS] + ([NO_SELF_LOOPS] if g.degrees.min() > 0 else [])
    return g, draw(st.sampled_from(kinds))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@SETTINGS
@given(operators(), st.integers(1, 33), st.sampled_from(LAYOUTS), st.integers(0, 2**32 - 1))
def test_operator_equals_scipy_bit_for_bit(case, width, layout, seed):
    g, kind = case
    op, ref = propagation_operator(g, kind), reference_matrix(g, kind)
    for name in ("indptr", "indices", "data"):
        assert same_bits(getattr(op, name), getattr(ref, name)), name
    x = signal(np.random.default_rng(seed), g.n, width, layout)
    assert same_bits(op.apply(x), ref @ x)


def test_zero_degree_rows_under_self_loops_match_scipy():
    g = Graph.from_edges(np.array([[1, 3], [3, 4]]), 6)  # nodes 0, 2 and 5 isolated
    op, ref = propagation_operator(g, SELF_LOOPS), reference_matrix(g, SELF_LOOPS)
    for name in ("indptr", "indices", "data"):
        assert same_bits(getattr(op, name), getattr(ref, name)), name
    x = signal(np.random.default_rng(0), g.n, 3, "C")
    assert same_bits(op.apply(x), ref @ x)


def test_both_kernel_loaders_give_the_same_bits(monkeypatch):
    """The extension file loaded directly, and scipy.sparse's own module when
    the file is not found, compute the same products."""
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
    direct = graph_module._load_sparsetools()
    assert direct.__file__.startswith(str(graph_module.Path(sp.__file__).parent))
    assert "scipy.sparse._sparsetools" not in sys.modules
    monkeypatch.undo()
    monkeypatch.setattr(graph_module.importlib.util, "find_spec", lambda name: None)
    fallback = graph_module._load_sparsetools()
    assert fallback is sp._sparsetools
    rng = np.random.default_rng(5)
    for g in (er_graph(30, 0.2, rng), path_graph(17)):
        for kind in (SELF_LOOPS, NO_SELF_LOOPS):
            if g.degrees.min() == 0 and kind == NO_SELF_LOOPS:
                continue
            op = propagation_operator(g, kind)
            for width, layout in [(1, "1-D"), (1, "(n, 1)"), (7, "C"), (7, "F"), (5, "strided")]:
                x = signal(rng, g.n, width, layout)
                out = {}
                for name, kernels in (("direct", direct), ("fallback", fallback)):
                    monkeypatch.setattr(graph_module, "_SPARSETOOLS", kernels)
                    out[name] = op.apply(x)
                assert same_bits(out["direct"], out["fallback"])
                assert same_bits(out["direct"], reference_matrix(g, kind) @ x)
