import json
import time

import numpy as np
import pytest

from conftest import is_bipartite
from oracles import sample_regular_graph
from unifilter.datasets import (
    REGIMES,
    SynthSpec,
    TreeSpec,
    binary_tree_dataset,
    energy_trajectory,
    make_splits,
    one_hot_features,
    planted_homophily_graph,
    synth_variable_h,
    write_dataset,
    _partition,
)
from unifilter.graph import LabeledDataset, Split, homophily_ratio, load_dataset
from unifilter.rng import stream, substream_seed
from unifilter.spectral import dirichlet_energy


def test_synth_target_equals_base_no_reassignment():
    g, labels = planted_homophily_graph(300, 900, 4, 0.6, seed=0)
    h = homophily_ratio(g, labels)
    ds, meta = synth_variable_h(SynthSpec(base_graph=g, base_labels=labels, target_h=h, seed=1))
    assert meta["reassignments"] == 0
    assert np.array_equal(ds.labels, labels)
    assert meta["achieved_h"] == h


@pytest.mark.parametrize("n, num_edges, num_classes, message", [
    (5, 10, 7, "num_classes 7 must lie in [1, n=5]"),
    (5, 10, 0, "num_classes 0 must lie in [1, n=5]"),
    (10, 100_000, 2, "num_edges 100000 exceeds the 45 node pairs of n=10"),
])
def test_planted_graph_rejects_impossible_sizes_before_drawing(n, num_edges, num_classes,
                                                               message):
    with pytest.raises(ValueError) as exc:
        planted_homophily_graph(n, num_edges, num_classes, 0.5, seed=0)
    assert str(exc.value) == message


@pytest.mark.parametrize("target_h, message", [
    (0.9, "17910 same-class edges needed, but the drawn classes have only 9909 same-class pairs"),
    (0.1, "17910 cross-class edges needed, but the drawn classes have only 9991 cross-class pairs"),
])
def test_planted_graph_rejects_unreachable_class_counts_at_once(target_h, message):
    # All 19900 pairs of 200 nodes in 2 classes: about half are same-class, so
    # neither 90% nor 10% of them can be. The top-up loops used to retry for
    # seconds and then raise a RuntimeError.
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        planted_homophily_graph(200, 19900, 2, target_h, seed=0)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == message


def test_synth_reaches_targets_within_tolerance():
    g, labels = planted_homophily_graph(800, 2400, 7, 0.8, seed=2)
    for target in (0.3, 0.5, 0.7):
        ds, meta = synth_variable_h(
            SynthSpec(base_graph=g, base_labels=labels, target_h=target, seed=3))
        assert abs(meta["achieved_h"] - target) <= 0.005
        assert homophily_ratio(ds.graph, ds.labels) == pytest.approx(meta["achieved_h"])


def test_synth_fully_random_labels_near_class_collision_rate():
    # after many sweeps toward an unreachable low target the labels are
    # uniform, so h fluctuates around the sum of squared class frequencies
    g, labels = planted_homophily_graph(600, 3000, 7, 0.8, seed=4)
    ds, meta = synth_variable_h(
        SynthSpec(base_graph=g, base_labels=labels, target_h=1 / 7, tolerance=0.02, seed=5))
    assert abs(meta["achieved_h"] - 1 / 7) <= 0.02


def test_synth_unreachable_target_reports_closest():
    g, labels = planted_homophily_graph(300, 1200, 3, 0.5, seed=6)
    with pytest.raises(RuntimeError, match="closest achieved"):
        synth_variable_h(SynthSpec(base_graph=g, base_labels=labels, target_h=0.0,
                                   seed=7, max_sweeps=3))


def test_synth_moves_toward_target_while_drift_dominates():
    # between the base ratio and the random-labeling fixed point, the
    # per-sweep distance to the target shrinks monotonically
    g, labels = planted_homophily_graph(1000, 4000, 7, 0.8, seed=8)
    target = 0.4
    base_h = homophily_ratio(g, labels)
    trail = [base_h]
    spec = SynthSpec(base_graph=g, base_labels=labels, target_h=target, seed=9)
    # replicate the generator's walk, sampling h once per sweep
    rng = stream(spec.seed, "relabel")
    lab = labels.copy()
    e = g.edge_array()
    same = int(np.count_nonzero(lab[e[:, 0]] == lab[e[:, 1]]))
    h = same / g.m
    for _ in range(10):
        for u in rng.permutation(g.n):
            new = int(rng.integers(0, 7))
            old = lab[u]
            if new != old:
                nb = lab[g.neighbors(u)]
                same += int(np.count_nonzero(nb == new)) - int(np.count_nonzero(nb == old))
                lab[u] = new
                h = same / g.m
            if abs(h - target) <= spec.tolerance:
                break
        trail.append(h)
        if abs(h - target) <= spec.tolerance:
            break
    gaps = [abs(t - target) for t in trail]
    assert all(b < a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= spec.tolerance


def test_synth_features_are_one_hot():
    g, labels = planted_homophily_graph(200, 600, 3, 0.5, seed=10)
    ds, _ = synth_variable_h(SynthSpec(base_graph=g, base_labels=labels,
                                       target_h=0.45, feature_dim=32, seed=11))
    assert ds.features.shape == (200, 32)
    np.testing.assert_array_equal(ds.features.sum(axis=1), np.ones(200))
    assert set(np.unique(ds.features)) <= {0.0, 1.0}


def test_tree_depth7_counts():
    ds = binary_tree_dataset(TreeSpec(depth=7, seed=0))
    assert ds.graph.n == 127
    assert ds.graph.m == 126
    assert ds.features.shape == (127, 100)
    assert set(np.unique(ds.labels)) <= {0, 1, 2}


def test_tree_depth2_path_star():
    ds = binary_tree_dataset(TreeSpec(depth=2, seed=0))
    assert ds.graph.n == 3
    assert ds.graph.m == 2
    assert ds.graph.degrees.tolist() == [2, 1, 1]


def _floor_partition(n, f_train, f_val, seed, index):
    """`_partition` before it gave each list a node: plain floors."""
    perm = stream(substream_seed(seed, "split", index), "perm").permutation(n)
    ntr = int(np.floor(f_train * n))
    nva = int(np.floor(f_val * n))
    return Split(
        train=np.sort(perm[:ntr]),
        val=np.sort(perm[ntr:ntr + nva]),
        test=np.sort(perm[ntr + nva:]),
    )


def test_partition_is_unchanged_from_five_nodes_up():
    for f_train, f_val in REGIMES.values():
        for seed in (0, 1, 7):
            for n in range(5, 301):
                got, want = _partition(n, f_train, f_val, seed, 0), _floor_partition(
                    n, f_train, f_val, seed, 0)
                for part in ("train", "val", "test"):
                    assert np.array_equal(getattr(got, part), getattr(want, part)), (n, seed)


def test_partition_gives_each_list_a_node_from_three_nodes_up():
    for f_train, f_val in REGIMES.values():
        for n in (3, 4):
            split = _partition(n, f_train, f_val, 0, 0)
            parts = [split.train, split.val, split.test]
            assert min(map(len, parts)) >= 1, (n, f_train)
            assert sorted(np.concatenate(parts).tolist()) == list(range(n))
    tree = binary_tree_dataset(TreeSpec(depth=2, seed=0)).split
    assert (len(tree.train), len(tree.val), len(tree.test)) == (1, 1, 1)


def test_tree_deterministic_bytes(tmp_path):
    for sub in ("a", "b"):
        ds = binary_tree_dataset(TreeSpec(depth=5, seed=3))
        write_dataset(ds, tmp_path / sub, meta={"seed": 3})
    for name in ("edges.txt", "features.csv", "labels.txt", "split.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_tree_rejects_shallow():
    with pytest.raises(ValueError):
        binary_tree_dataset(TreeSpec(depth=1))


def test_make_splits_small_exact_fractions():
    split = make_splits(10, "60/20/20", 1, 0)[0]
    assert (len(split.train), len(split.val), len(split.test)) == (6, 2, 2)


def test_make_splits_cora_sized_floor_arithmetic():
    split = make_splits(2708, "48/32/20", 1, 0)[0]
    assert (len(split.train), len(split.val), len(split.test)) == (1299, 866, 543)


def test_make_splits_partition_property():
    for seed in range(5):
        for regime in ("60/20/20", "48/32/20"):
            for split in make_splits(53, regime, 3, seed):
                allidx = np.concatenate([split.train, split.val, split.test])
                assert np.array_equal(np.sort(allidx), np.arange(53))


def test_make_splits_independent_across_index():
    s0, s1 = make_splits(100, "60/20/20", 2, 7)
    assert not np.array_equal(s0.train, s1.train)


def test_make_splits_validates():
    with pytest.raises(ValueError):
        make_splits(3, "60/20/20", 1, 0)
    with pytest.raises(ValueError, match="regime"):
        make_splits(10, "50/25/25", 1, 0)


def test_planted_graph_hits_ratio_and_connectivity():
    g, labels = planted_homophily_graph(2708, 5429, 7, 0.81, seed=0)
    assert g.n == 2708 and g.m == 5429
    assert g.is_connected()
    assert abs(homophily_ratio(g, labels) - 0.81) < 0.006
    assert np.unique(labels).size == 7


def test_energy_trajectory_hop_zero_matches_normalized_input():
    rng = stream(1, "energy")
    g = sample_regular_graph(80, 4, rng)
    X = one_hot_features(80, 16, rng)
    labels = rng.integers(0, 3, 80)
    ds = LabeledDataset(graph=g, features=X, labels=labels, split=None, num_classes=3)
    rows = energy_trajectory(ds, (0.0, 0.5, 1.0), 2)
    table = {(tau, k): e for tau, k, e in rows}
    Xn = X / np.linalg.norm(X, axis=0)
    e0 = dirichlet_energy(g, Xn)
    for tau in (0.0, 0.5, 1.0):
        assert table[(tau, 0)] == pytest.approx(e0, rel=1e-12)


def test_energy_trajectory_homophily_collapse_and_tau_ordering():
    rng = stream(2, "energy")
    g = sample_regular_graph(300, 6, rng)
    assert not is_bipartite(g)
    X = one_hot_features(300, 40, rng)
    labels = rng.integers(0, 5, 300)
    ds = LabeledDataset(graph=g, features=X, labels=labels, split=None, num_classes=5)
    rows = energy_trajectory(ds, (0.2, 0.8, 1.0), 100)
    table = {(tau, k): e for tau, k, e in rows}
    e_start = table[(1.0, 0)]
    assert table[(1.0, 100)] < 1e-3 * e_start
    assert table[(0.2, 100)] > table[(0.8, 100)] > 0.0


@pytest.mark.parametrize("n, d, blocks", [(2000, 500, 3), (300, 40, 1)])
def test_energy_trajectory_matches_dirichlet_energy_of_built_basis(n, d, blocks):
    # Energy sums block by block; each hop's bits are the built basis's, so
    # only the split of the sum over edges moves the last bits: one rounding
    # per added block sum, a few float64 eps at 3 blocks (2.2e-16 seen), so
    # rtol 1e-14 leaves margin; one block adds 0.0 and matches exactly.
    from unifilter.basis import UNI, _blocks, make_basis
    from unifilter.graph import propagation_operator

    rng = stream(3, "energy")
    g = sample_regular_graph(n, 6, rng)
    X = rng.standard_normal((n, d))
    assert len(_blocks(n, d)) == blocks
    ds = LabeledDataset(graph=g, features=X, labels=np.zeros(n, dtype=np.int64), split=None,
                        num_classes=1)
    taus, h_hat, K = (0.0, 0.3, 1.0), 0.4, 4
    table = {(tau, k): e for tau, k, e in energy_trajectory(ds, taus, K, h_hat=h_hat)}
    op = propagation_operator(g)
    for tau in taus:
        b = make_basis(op, X, K, UNI, h_hat=h_hat, tau=tau)
        want = [dirichlet_energy(g, b.matrices[:, k]) for k in range(K + 1)]
        got = [table[(tau, k)] for k in range(K + 1)]
        if blocks == 1:
            assert got == want
        else:
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_ablation_homfilter_entry_matches_direct_run():
    from dataclasses import replace

    from unifilter.basis import UNI
    from unifilter.datasets import ablation_basis_variants
    from unifilter.model import TrainConfig, train
    from unifilter.rng import substream_seed

    g, labels = planted_homophily_graph(120, 360, 3, 0.7, seed=20)
    rng = stream(20, "feat")
    ds = LabeledDataset(graph=g, features=one_hot_features(120, 16, rng),
                        labels=labels, split=None, num_classes=3)
    cfg = TrainConfig(hops=4, lr=0.05, hidden=8, layers=2, dropout=0.0,
                      patience=20, max_epochs=60, seed=5)
    table = ablation_basis_variants(ds, cfg, num_seeds=2)
    # HomFilter rows are literally blended runs with tau pinned to 1
    for i in range(2):
        split = make_splits(120, "60/20/20", 2, cfg.seed)[i]
        run = LabeledDataset(graph=g, features=ds.features, labels=labels,
                             split=split, num_classes=3)
        direct = train(run, replace(cfg, basis=UNI, tau=1.0,
                                    seed=substream_seed(cfg.seed, "ablation", i)))
        assert table["acc"]["HomFilter"][i] == direct.test_acc


def test_oversquashing_experiment_deterministic():
    import warnings

    from unifilter.datasets import oversquashing_experiment
    from unifilter.model import TrainConfig

    cfg = TrainConfig(hidden=8, layers=2, lr=0.05, dropout=0.0,
                      patience=15, max_epochs=40)
    spec = TreeSpec(depth=4, feature_dim=16, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t1 = oversquashing_experiment(spec, k_grid=(2, 3), num_seeds=2,
                                      cfg=cfg, tau_grid=(0.3, 0.7))
        t2 = oversquashing_experiment(spec, k_grid=(2, 3), num_seeds=2,
                                      cfg=cfg, tau_grid=(0.3, 0.7))
    assert t1["mean"] == t2["mean"]
    assert t1["acc"] == t2["acc"]
    assert set(t1["mean"]) == {"homophily-only", "unifilter"}


def test_write_dataset_roundtrip(tmp_path):
    ds = binary_tree_dataset(TreeSpec(depth=4, seed=5))
    write_dataset(ds, tmp_path, meta={"depth": 4})
    back = load_dataset(tmp_path / "edges.txt", tmp_path / "features.csv",
                        tmp_path / "labels.txt", tmp_path / "split.json")
    assert back.graph.n == ds.graph.n
    assert back.graph.m == ds.graph.m
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_allclose(back.features, ds.features, atol=0)
    np.testing.assert_array_equal(back.split.train, ds.split.train)
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["depth"] == 4
