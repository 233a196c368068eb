"""Edge-list loading and CSR construction against the line-by-line reference.

`reference_load_graph` and `reference_from_edges` are the original
implementations: a per-line loop into a set of pairs, then `np.unique` and
`lexsort`. The array versions in `unifilter.graph` must give the same graph
(every array, dtype included), the same warnings and the same errors.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from unifilter.graph import Graph, load_graph  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def reference_from_edges(edges: np.ndarray, n: int) -> Graph:
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    m = edges.shape[0]
    if m:
        if edges.min() < 0 or edges.max() >= n:
            raise ValueError("edge endpoint out of range")
        if np.any(edges[:, 0] >= edges[:, 1]):
            raise ValueError("edges must satisfy u < v (no self-loops)")
        keys = edges[:, 0] * np.int64(n) + edges[:, 1]
        if np.unique(keys).size != m:
            raise ValueError("duplicate edges")
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    degrees = np.bincount(rows, minlength=n).astype(np.int64)
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    return Graph(n=int(n), m=int(m), indptr=indptr, indices=cols, degrees=degrees)


def reference_load_graph(path: str | Path, n: int) -> Graph:
    path = Path(path)
    edges: set[tuple[int, int]] = set()
    dropped = 0
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
                if u == v:
                    dropped += 1
                    continue
                edges.add((u, v) if u < v else (v, u))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} self-loop line(s)", stacklevel=2)
    arr = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return reference_from_edges(arr, n)


def _outcome(build, *args):
    """(graph fields, warnings) on success, (exception type, message) on failure."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = build(*args)
        except ValueError as exc:
            return type(exc), str(exc)
    fields = [g.n, type(g.m), g.m] + [(a.dtype, a.tolist()) for a in (g.indptr, g.indices, g.degrees)]
    return fields, [(w.category, str(w.message), w.filename) for w in caught]


@st.composite
def edge_files(draw):
    """An edge-list file's bytes and its node count, mixing every line form
    the format allows and, sometimes, one bad line."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    space = st.sampled_from([" ", "\t", "  ", " \t "])
    sign = st.sampled_from(["", "", "+", "0"])
    pad = st.sampled_from(["", "", " ", "\t"])

    def pair(u, v):
        return draw(pad) + draw(sign) + str(u) + draw(space) + draw(sign) + str(v) + draw(pad)

    lines, pairs = [], []
    kinds = ["pair", "pair", "pair", "loop", "again", "blank"] + ["comment"] * draw(st.integers(0, 1))
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=30)):
        if kind == "pair" or kind == "loop":
            u = draw(node)
            pairs.append((u, u if kind == "loop" else draw(node)))
            lines.append(pair(*pairs[-1]))
        elif kind == "again" and pairs:  # an earlier pair, maybe reversed
            lines.append(pair(*draw(st.sampled_from(pairs))[::draw(st.sampled_from([1, -1]))]))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["#", "# a comment", "  # indented", "\t#0 1"])))
        else:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    if draw(st.integers(0, 2)) == 0:
        bad = draw(st.sampled_from(["0 1 2", "0 1 # x", "0 1.0", f"-1 {n - 1}", f"0 {n}", "1", "a b"]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()) and text.endswith(("\n", "\r")):
        text = text.rstrip("\r\n")
    return text.encode(), n


@SETTINGS
@given(edge_files())
def test_load_graph_matches_the_line_by_line_reference(tmp_path_factory, case):
    data, n = case
    f = tmp_path_factory.mktemp("edges") / "edges.txt"
    f.write_bytes(data)
    assert _outcome(load_graph, f, n) == _outcome(reference_load_graph, f, n)


@pytest.mark.parametrize("data", [b"", b"\n\n", b"# only a comment\n", b"0 1\n\xff\n", b"\xef\xbb\xbf0 1\n",
                                  b"0 1_0\n", b"0\x001\n", "0 \u0663\n".encode(), b"0 1\n2 3 4\n"])
def test_load_graph_matches_the_reference_on_edge_cases(tmp_path, data):
    f = tmp_path / "edges.txt"
    f.write_bytes(data)
    assert _outcome(load_graph, f, 11) == _outcome(reference_load_graph, f, 11)


@SETTINGS
@given(st.integers(1, 20).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=40))))
def test_from_edges_matches_the_lexsort_reference(case):
    n, pairs = case
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    valid = np.unique(np.sort(edges.clip(0, n - 1), axis=1), axis=0)
    valid = valid[valid[:, 0] < valid[:, 1]]
    for arr in (edges, valid, valid[::-1]):
        assert _outcome(Graph.from_edges, arr, n) == _outcome(reference_from_edges, arr, n)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_from_edges_matches_the_reference_without_edges(n):
    empty = np.empty((0, 2), dtype=np.int64)
    assert _outcome(Graph.from_edges, empty, n) == _outcome(reference_from_edges, empty, n)
