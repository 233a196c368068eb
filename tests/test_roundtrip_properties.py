"""Files the package writes read back exactly.

A checkpoint's parameters travel through JSON as the shortest repr of each
float, and a dataset's features through "%.17g" text; both round-trip every
finite float64 bit for bit, signed zeros and subnormals included.
"""

from dataclasses import asdict

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from unifilter.datasets import write_dataset  # noqa: E402
from unifilter.graph import Graph, LabeledDataset, Split, load_dataset  # noqa: E402
from unifilter.model import (FilterModel, TrainConfig, load_checkpoint,  # noqa: E402
                             save_checkpoint)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

# Signed zeros, the smallest subnormals, a subnormal with many digits, and
# the ends of the finite range.
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 1e308, -1e308,
           np.finfo(np.float64).max]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@st.composite
def models(draw):
    hops = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(2, 5), min_size=2, max_size=4))
    shapes = [(hops + 1,)] + [s for din, dout in zip(dims[:-1], dims[1:])
                              for s in ((din, dout), (dout,))]
    size = sum(int(np.prod(s)) for s in shapes)
    values = draw(st.lists(FLOATS, min_size=size, max_size=size))
    # Every special value, at a drawn offset, in every example.
    at = draw(st.integers(0, size - len(SPECIAL)))
    values[at:at + len(SPECIAL)] = SPECIAL
    cfg = TrainConfig(hops=hops, tau=draw(st.floats(0.0, 1.0)), lr=draw(st.floats(0.0, 1.0)),
                      h_hat=draw(st.one_of(st.none(), st.floats(0.0, 1.0))),
                      seed=draw(st.integers(0, 2**31)))
    return FilterModel(np.array(values, dtype=np.float64), shapes, 0.0), asdict(cfg)


@SETTINGS
@given(models())
def test_a_checkpoint_reads_back_every_parameter_bit_and_its_config(tmp_path_factory, case):
    model, cfg = case
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.json"
    save_checkpoint(model, cfg, path)
    back, back_cfg = load_checkpoint(path)
    assert np.array_equal(_bits(back.params), _bits(model.params))
    assert [W.shape for W in back.weights] == [W.shape for W in model.weights]
    assert back_cfg == cfg


@st.composite
def datasets(draw):
    n = draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
    edges = draw(st.lists(pairs, min_size=1, max_size=3 * n, unique=True))
    d = draw(st.integers(1, 4))
    X = np.array(draw(st.lists(FLOATS, min_size=n * d, max_size=n * d))).reshape(n, d)
    X.flat[:min(X.size, len(SPECIAL))] = SPECIAL[:X.size]
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    perm = draw(st.permutations(range(n)))
    a, b = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    parts = [np.array(part, dtype=np.int64) for part in (perm[:a], perm[a:b], perm[b:])]
    return LabeledDataset(graph=Graph.from_edges(np.array(edges), n), features=X, labels=labels,
                          split=Split(*parts), num_classes=int(labels.max()) + 1)


@SETTINGS
@given(datasets())
def test_a_written_dataset_loads_back_unchanged(tmp_path_factory, ds):
    out = tmp_path_factory.mktemp("ds")
    write_dataset(ds, out)
    back = load_dataset(out / "edges.txt", out / "features.csv", out / "labels.txt",
                        out / "split.json")
    for name in ("indptr", "indices"):
        got, want = getattr(back.graph, name), getattr(ds.graph, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert back.features.shape == ds.features.shape
    assert np.array_equal(_bits(back.features), _bits(ds.features))
    assert back.labels.dtype == ds.labels.dtype and np.array_equal(back.labels, ds.labels)
    assert back.num_classes == ds.num_classes
    for name in ("train", "val", "test"):
        assert np.array_equal(getattr(back.split, name), getattr(ds.split, name)), name
