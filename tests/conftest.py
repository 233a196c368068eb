"""Shared graph builders and the acceptance-verdict summary hook."""

import numpy as np
import pytest

from unifilter.graph import Graph
from unifilter.rng import stream

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def er_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    iu = np.triu_indices(n, 1)
    mask = rng.random(iu[0].shape[0]) < p
    edges = np.stack([iu[0][mask], iu[1][mask]], axis=1)
    return Graph.from_edges(edges, n)


def is_bipartite(g: Graph) -> bool:
    color = np.full(g.n, -1, dtype=np.int8)
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    stack.append(int(v))
                elif color[v] == color[u]:
                    return False
    return True


def random_connected_graph(n: int, p: float, seed: int, bipartite_ok: bool = False) -> Graph:
    """Erdos-Renyi draw, resampled until connected (and non-bipartite unless allowed)."""
    rng = stream(seed, "er-graph")
    for _ in range(200):
        g = er_graph(n, p, rng)
        if not g.is_connected():
            continue
        if not bipartite_ok and is_bipartite(g):
            continue
        return g
    raise RuntimeError("could not draw a suitable random graph")


def path_graph(n: int) -> Graph:
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    return Graph.from_edges(edges, n)


def two_node_edge() -> Graph:
    return Graph.from_edges(np.array([[0, 1]]), 2)


def triangle() -> Graph:
    return Graph.from_edges(np.array([[0, 1], [0, 2], [1, 2]]), 3)


@pytest.fixture
def rng():
    return stream(0, "test")
