import numpy as np
import pytest

from conftest import er_graph, path_graph, random_connected_graph, triangle, two_node_edge
from oracles import dense_operator
from unifilter import graph as graph_module
from unifilter.graph import (
    Graph,
    PropagationOperator,
    Split,
    estimate_homophily,
    homophily_ratio,
    load_graph,
    propagation_operator,
)
from unifilter.rng import stream


def test_load_graph_path(tmp_path):
    f = tmp_path / "edges.txt"
    f.write_text("0 1\n1 2\n")
    g = load_graph(f, 3)
    assert g.m == 2
    assert g.degrees.tolist() == [1, 2, 1]


def test_load_graph_dedup_and_symmetry(tmp_path):
    f = tmp_path / "edges.txt"
    f.write_text("0 1\n1 0\n0 1\n")
    g = load_graph(f, 2)
    assert g.m == 1
    assert g.neighbors(0).tolist() == [1]
    assert g.neighbors(1).tolist() == [0]


def test_load_graph_out_of_range(tmp_path):
    f = tmp_path / "edges.txt"
    f.write_text("0 5\n")
    with pytest.raises(ValueError, match=r"node index 5 >= n=3 at line 1"):
        load_graph(f, 3)


def test_load_graph_drops_self_loops_with_warning(tmp_path):
    f = tmp_path / "edges.txt"
    f.write_text("# comment line\n0 0\n0 1\n\n")
    with pytest.warns(UserWarning, match="self-loop"):
        g = load_graph(f, 2)
    assert g.m == 1


def test_degree_sum_is_twice_edge_count(rng):
    g = er_graph(40, 0.2, rng)
    assert int(g.degrees.sum()) == 2 * g.m
    for u in range(g.n):
        assert len(g.neighbors(u)) == g.degrees[u]


def test_propagation_two_node_swap():
    op = propagation_operator(two_node_edge())
    np.testing.assert_allclose(op.apply(np.array([1.0, 0.0])), [0.0, 1.0], atol=1e-15)


def test_propagation_self_loops_two_node():
    op = propagation_operator(two_node_edge(), "self-loops")
    np.testing.assert_allclose(op.apply(np.array([1.0, 0.0])), [0.5, 0.5], atol=1e-15)


def test_sqrt_degree_vector_is_fixed_point():
    g = random_connected_graph(35, 0.15, seed=3)
    op = propagation_operator(g)
    x = np.sqrt(g.degrees.astype(float))
    np.testing.assert_allclose(op.apply(x), x, atol=1e-12)


def test_isolated_node_rejected():
    g = Graph.from_edges(np.array([[0, 1]]), 3)
    with pytest.raises(ValueError, match="node 2 is isolated"):
        propagation_operator(g)
    # self-loop variant tolerates isolated nodes
    propagation_operator(g, "self-loops")


def test_sparse_apply_matches_dense(rng):
    for seed in range(5):
        g = random_connected_graph(30, 0.2, seed=seed, bipartite_ok=True)
        for kind in ("no-self-loops", "self-loops"):
            op = propagation_operator(g, kind)
            dense = dense_operator(op)
            x = rng.standard_normal(g.n)
            np.testing.assert_allclose(op.apply(x), dense @ x, atol=1e-12)


def test_operator_is_symmetric(rng):
    g = random_connected_graph(40, 0.15, seed=9)
    op = propagation_operator(g)
    for _ in range(5):
        x = rng.standard_normal(g.n)
        y = rng.standard_normal(g.n)
        a, b = float(op.apply(x) @ y), float(x @ op.apply(y))
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_homophily_ratio_triangle():
    assert homophily_ratio(triangle(), np.array([0, 0, 1])) == pytest.approx(1 / 3)


def test_homophily_ratio_constant_labels(rng):
    g = er_graph(25, 0.3, rng)
    assert homophily_ratio(g, np.zeros(25, dtype=int)) == 1.0


def test_homophily_ratio_empty_graph():
    g = Graph.from_edges(np.empty((0, 2), dtype=np.int64), 4)
    with pytest.raises(ValueError, match="empty edge set"):
        homophily_ratio(g, np.zeros(4, dtype=int))


def test_estimate_homophily_single_qualifying_edge():
    assert estimate_homophily(triangle(), np.array([0, 0, 1]), np.array([0, 1])) == 1.0


def test_estimate_homophily_full_mask_equals_ratio(rng):
    g = er_graph(30, 0.2, rng)
    labels = rng.integers(0, 3, 30)
    full = np.arange(30)
    assert estimate_homophily(g, labels, full) == homophily_ratio(g, labels)


def test_node_sets_are_integer_index_arrays():
    # A bool array is not read as a mask, nor as the node ids 0 and 1.
    g = triangle()
    for ids in (np.array([True, True, False]), np.array([0.0, 1.0])):
        with pytest.raises(ValueError, match="mask must be an integer index array"):
            estimate_homophily(g, np.array([0, 0, 1]), ids)
        with pytest.raises(ValueError, match="mask must be an integer index array"):
            graph_module._mask_indices(ids, g.n)


def test_estimate_homophily_fallback():
    g = path_graph(4)
    labels = np.array([0, 1, 0, 1])
    with pytest.warns(UserWarning, match="falling back"):
        # mask {0, 2}: no edge has both endpoints inside
        assert estimate_homophily(g, labels, np.array([0, 2])) == 0.5


def test_estimate_robust_across_training_fractions():
    # fixed synthetic labeled graph; estimates stay within +-0.05 of truth
    from unifilter.datasets import planted_homophily_graph

    g, labels = planted_homophily_graph(1000, 8000, 4, 0.5, seed=5)
    h_true = homophily_ratio(g, labels)
    for frac in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
        estimates = []
        for seed in range(10):
            r = stream(seed, f"mask-{frac}")
            mask = r.permutation(g.n)[: int(frac * g.n)]
            estimates.append(estimate_homophily(g, labels, mask))
        assert abs(np.mean(estimates) - h_true) <= 0.05


def test_split_validation():
    s = Split(train=np.array([0, 1]), val=np.array([2]), test=np.array([3]))
    s.validate(4)
    bad = Split(train=np.array([0, 1]), val=np.array([1]), test=np.array([3]))
    with pytest.raises(ValueError, match="overlap"):
        bad.validate(4)


# Each bad line follows a comment, an indented comment and blank lines, so
# its number counts the lines that carry no edge.
PREAMBLE = "# header\n\n  # indented\n0 1\n\n"


@pytest.mark.parametrize("bad, message", [
    ("0 1 2", "expected 'u v' at line 6 of {path}"),
    ("0 1 # x", "expected 'u v' at line 6 of {path}"),
    ("0", "expected 'u v' at line 6 of {path}"),
    ("0 1.5", "non-integer node id at line 6 of {path}"),
    ("0 1#x", "non-integer node id at line 6 of {path}"),
    ("-3 1", "negative node index -3 at line 6"),
    ("1 -2", "negative node index -2 at line 6"),
    ("0 9", "node index 9 >= n=4 at line 6"),
    ("9 -1", "node index 9 >= n=4 at line 6"),
])
def test_load_graph_error_messages(tmp_path, bad, message):
    f = tmp_path / "edges.txt"
    f.write_text(PREAMBLE + bad + "\n2 3\n")
    with pytest.raises(ValueError) as exc:
        load_graph(f, 4)
    assert str(exc.value) == message.format(path=f)


def test_load_graph_rejects_bytes_that_are_not_utf8(tmp_path):
    f = tmp_path / "edges.txt"
    data = PREAMBLE.encode() + b"0 \xff\n"
    f.write_bytes(data)
    with pytest.raises(ValueError) as exc:
        load_graph(f, 4)
    assert type(exc.value) is ValueError
    assert str(exc.value) == (f"{f}: 'utf-8' codec can't decode byte 0xff in position "
                              f"{len(data) - 2}: invalid start byte")


def test_load_graph_self_loop_warning_names_the_caller(tmp_path):
    f = tmp_path / "edges.txt"
    f.write_text(PREAMBLE + "2 2\n1 2\n3 3\n")
    with pytest.warns(UserWarning) as record:
        g = load_graph(f, 4)
    assert [str(w.message) for w in record] == [f"{f}: dropped 2 self-loop line(s)"]
    assert record[0].filename == __file__
    assert g.m == 2


def test_load_graph_parses_a_file_with_comment_lines_as_one_array(tmp_path, monkeypatch):
    # A plain file takes one array parse; whole-line comments cost one more,
    # not the line loop. An inline '#' still reaches the loop and its message
    # (test_load_graph_error_messages).
    parses = []
    loadtxt = graph_module._loadtxt
    monkeypatch.setattr(graph_module, "_loadtxt",
                        lambda *a, **k: parses.append(1) or loadtxt(*a, **k))
    monkeypatch.setattr(graph_module, "_parse_lines", None)
    plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
    plain.write_text("0 1\n2 1\n2 3\n0 1\n")
    commented.write_text("# Nodes: 4 Edges: 3\n0 1\n  # note\n\n2 1\n2 3\n#\n0 1\n")
    graphs = []
    for f, count in ((plain, 1), (commented, 2)):
        parses.clear()
        graphs.append(load_graph(f, 4))
        assert len(parses) == count, f.name
    for a in ("indptr", "indices", "degrees"):
        assert np.array_equal(getattr(graphs[0], a), getattr(graphs[1], a)), a
    assert graphs[0].m == graphs[1].m == 3


def test_load_graph_builds_from_its_keys_without_checking_them_again(tmp_path, monkeypatch):
    # load_graph's keys are already sorted and distinct; it must not hand them
    # to from_edges, which would check and sort them once more.
    f = tmp_path / "edges.txt"
    f.write_text("3 0\n0 1\n2 1\n1 0\n3 2\n")
    want = Graph.from_edges(np.array([[0, 1], [0, 3], [1, 2], [2, 3]]), 4)
    monkeypatch.setattr(Graph, "from_edges", None)
    g = load_graph(f, 4)
    assert (g.n, g.m) == (want.n, want.m)
    for a in ("indptr", "indices", "degrees"):
        assert np.array_equal(getattr(g, a), getattr(want, a)), a
        assert getattr(g, a).dtype == getattr(want, a).dtype, a


@pytest.mark.parametrize("x, message", [
    (np.zeros(4), "signal has 4 rows, graph has 3 nodes"),
    (np.zeros((3, 2, 2)), r"signal must have shape \(n,\) or \(n, c\), not \(3, 2, 2\)"),
    (np.float64(1.0), r"signal must have shape \(n,\) or \(n, c\), not \(\)"),
])
def test_apply_rejects_a_misshapen_signal_in_one_line(x, message):
    op = propagation_operator(triangle())
    with pytest.raises(ValueError, match=f"^{message}$"):
        op.apply(x)


@pytest.mark.parametrize("edit", ["column out of range", "negative column", "short indptr",
                                  "falling indptr", "data too long"])
def test_hand_built_operator_with_a_broken_csr_structure_is_rejected(edit):
    op = propagation_operator(triangle())
    indptr, indices, data = op.indptr.copy(), op.indices.copy(), op.data.copy()
    if edit == "column out of range":
        indices[-1] = 3
    elif edit == "negative column":
        indices[0] = -1
    elif edit == "short indptr":
        indptr = indptr[:-1]
    elif edit == "falling indptr":
        indptr[1], indptr[2] = indptr[2], indptr[1]
    else:
        data = np.append(data, 1.0)
    with pytest.raises(ValueError, match="^indptr, indices and data do not form a 3 x 3 CSR matrix$"):
        PropagationOperator(op.kind, op.graph, indptr, indices, data)
