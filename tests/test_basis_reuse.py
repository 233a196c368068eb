"""The harnesses build each distinct basis once and train every run on it, or
on its first hops; every report must equal a run that builds its own basis."""

import itertools
import json
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from unifilter import cli
from unifilter import model as model_module
from unifilter.basis import ORTHONORMAL, UNI
from unifilter.datasets import (TreeSpec, ablation_basis_variants, make_splits,
                                one_hot_features, oversquashing_experiment,
                                planted_homophily_graph, write_dataset)
from unifilter.graph import LabeledDataset, Split
from unifilter.model import TrainConfig, random_search, train, train_runs
from unifilter.rng import stream, substream_seed


@pytest.fixture
def builds(monkeypatch):
    """The (hops, tau, basis kind) of every training basis build, whoever asks for it."""
    seen = []
    build = model_module._training_basis

    def counted(dataset, cfg):
        seen.append((cfg.hops, cfg.tau, cfg.basis))
        return build(dataset, cfg)

    monkeypatch.setattr(model_module, "_training_basis", counted)
    return seen


@pytest.fixture(scope="module")
def dataset():
    g, labels = planted_homophily_graph(90, 270, 3, 0.6, seed=40)
    return LabeledDataset(graph=g, features=one_hot_features(90, 12, stream(40, "feat")),
                          labels=labels, split=make_splits(90, "60/20/20", 1, 40)[0],
                          num_classes=3)


def _same(a, b):
    return (repr(a.loss_curve) == repr(b.loss_curve) and np.array_equal(a.w, b.w)
            and (a.best_epoch, a.best_val_acc, a.test_acc, a.epochs_run, a.h_hat,
                 a.h_hat_fallback)
            == (b.best_epoch, b.best_val_acc, b.test_acc, b.epochs_run, b.h_hat,
                b.h_hat_fallback))


BASE = TrainConfig(hops=5, lr=0.05, hidden=8, patience=10, max_epochs=30)


def test_train_runs_equals_one_train_per_config(dataset, builds):
    cfgs = [replace(BASE, hops=3, tau=0.2, seed=1), replace(BASE, hops=5, tau=1.0, seed=2),
            replace(BASE, hops=5, tau=0.2, dropout=0.3, seed=3),
            replace(BASE, basis=ORTHONORMAL, hops=2), replace(BASE, hops=1, tau=0.2, lr=0.1),
            replace(BASE, hops=4, tau=1.0, h_hat=0.9)]
    got = train_runs(dataset, cfgs)
    # tau=0.2 at 3, 5 and 1 hops is one build at 5; tau=1 at the estimated
    # h_hat and at a given one are two (h_hat names the basis); the
    # orthonormal basis is its own.
    assert sorted(builds) == sorted([(5, 0.2, UNI), (5, 1.0, UNI), (2, BASE.tau, ORTHONORMAL),
                                     (4, 1.0, UNI)])
    builds.clear()
    want = [train(dataset, cfg) for cfg in cfgs]
    assert len(builds) == len(cfgs)
    assert all(_same(a, b) for a, b in zip(got, want))


def test_train_runs_holds_only_the_rows_of_a_partial_split(dataset, monkeypatch):
    # The split lists 54 of the 90 nodes (60%); the other 36 still shape the
    # basis through propagation, but no row of theirs is held.
    perm = stream(41, "partial-split").permutation(90)
    ds = replace(dataset, split=Split(train=perm[:32], val=perm[32:43], test=perm[43:54]))
    shapes = []
    build = model_module._training_basis

    def recorded(d, cfg):
        built = build(d, cfg)
        shapes.append(built.shape)
        return built

    monkeypatch.setattr(model_module, "_training_basis", recorded)
    cfgs = [replace(BASE, hops=3), BASE]
    got = train_runs(ds, cfgs)
    assert shapes == [(54, BASE.hops + 1, 12)]
    for cfg, report in zip(cfgs, got):
        assert len(report.loss_curve) == report.epochs_run >= 1
        assert np.isfinite([loss for _, loss, _ in report.loss_curve]).all()
        assert _same(report, train(ds, cfg))


def test_train_runs_checks_the_split_first(dataset):
    with pytest.raises(ValueError, match="dataset has no split"):
        train_runs(replace(dataset, split=None), [BASE])


def test_oversquashing_builds_one_basis_per_tau_at_the_largest_hop(builds):
    spec = TreeSpec(depth=4, feature_dim=16, seed=3)
    cfg = TrainConfig(hidden=8, layers=2, lr=0.05, patience=10, max_epochs=30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        oversquashing_experiment(spec, k_grid=(2, 4, 3), num_seeds=3, cfg=cfg,
                                 tau_grid=(0.3, 0.6))
    assert sorted(builds) == [(4, 0.3, UNI), (4, 0.6, UNI), (4, 1.0, UNI)]


def test_ablation_builds_six_bases_per_split(dataset, builds):
    cfg = TrainConfig(hops=3, lr=0.05, hidden=8, patience=10, max_epochs=20, seed=5)
    full = replace(dataset, split=None)
    table = ablation_basis_variants(full, cfg, num_seeds=2)
    # HetFilter and HomFilter reuse the grid's tau=0 and tau=1 builds.
    per_split = sorted([(3, t, UNI) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
                       + [(3, cfg.tau, ORTHONORMAL)])
    assert sorted(builds) == sorted(per_split * 2)
    for i, split in enumerate(make_splits(90, "60/20/20", 2, cfg.seed)):
        run = replace(cfg, seed=substream_seed(cfg.seed, "ablation", i))
        ds = replace(full, split=split)
        assert table["acc"]["HetFilter"][i] == train(ds, replace(run, tau=0.0)).test_acc
        assert table["acc"]["OrtFilter"][i] == \
            train(ds, replace(run, basis=ORTHONORMAL)).test_acc


def test_ablation_trains_each_distinct_config_once(dataset, monkeypatch):
    runs = []
    real_train = model_module.train

    def recorded(ds, cfg, **kwargs):
        runs.append((ds.split, cfg))
        return real_train(ds, cfg, **kwargs)

    monkeypatch.setattr(model_module, "train", recorded)
    cfg = TrainConfig(hops=3, lr=0.05, hidden=8, patience=10, max_epochs=20, seed=5)
    ablation_basis_variants(replace(dataset, split=None), cfg, num_seeds=2)
    by_split = {}
    for split, run in runs:
        by_split.setdefault(id(split), []).append(run)
    # OrtFilter and the five-tau grid; HetFilter and HomFilter are the grid's
    # tau=0 and tau=1 runs.
    assert [len(cfgs) for cfgs in by_split.values()] == [6, 6]
    for cfgs in by_split.values():
        assert all(a != b for a, b in itertools.combinations(cfgs, 2))


def test_random_search_builds_one_basis_per_tau(dataset, builds):
    base = replace(BASE, hops=2, max_epochs=15)
    best_cfg, best, results, model = random_search(dataset, base, trials=6, seed=3,
                                                   tau_grid=[0.2, 0.8])
    taus = {cfg.tau for cfg, _ in results}
    assert sorted(builds) == sorted((2, t, UNI) for t in taus)
    assert len(taus) == 2
    builds.clear()
    random_search(dataset, base, trials=4, seed=3)
    assert builds == [(2, base.tau, UNI)]
    # Every trial equals a run that builds its own basis; the best is the
    # first trial with the highest validation accuracy.
    for cfg, report in results:
        assert _same(report, train(dataset, cfg))
    first_best = max(range(len(results)), key=lambda i: (results[i][1].best_val_acc, -i))
    assert (best_cfg, best) == results[first_best]
    # The winner's model comes back with it: the one its own run restores.
    assert np.array_equal(model.params, train(dataset, best_cfg, return_model=True)[1].params)


def test_train_search_builds_each_group_once_and_trains_no_winner_again(dataset, builds,
                                                                        tmp_path):
    write_dataset(dataset, tmp_path / "in")
    argv = ["train", *(f"--{f}={tmp_path / 'in' / f}.{x}" for f, x in (
        ("edges", "txt"), ("features", "csv"), ("labels", "txt"), ("split", "json"))),
            "--hops=2", "--max-epochs=15", "--patience=15", "--seed=3", "--search=4",
            f"--out-dir={tmp_path / 'out'}"]
    assert cli.main(argv) == 0
    assert builds == [(2, TrainConfig().tau, UNI)]
    # The written files are the winner's own run, as a separate `train` makes it.
    best_cfg, _, _, _ = random_search(dataset, replace(TrainConfig(), hops=2, max_epochs=15,
                                                       patience=15, seed=3), trials=4, seed=3)
    report, model = train(dataset, best_cfg, return_model=True)
    out = tmp_path / "out"
    assert json.loads((out / "report.json").read_text()) == json.loads(
        json.dumps(report.to_dict()))
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert checkpoint["w"] == model.w.tolist()
    assert checkpoint["config"] == asdict(replace(best_cfg, h_hat=report.h_hat))


def test_counts_below_one_raise_before_any_run(dataset, builds):
    with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
        random_search(dataset, BASE, trials=0)
    with pytest.raises(ValueError, match=r"^num_seeds must be >= 1$"):
        ablation_basis_variants(dataset, BASE, num_seeds=0)
    with pytest.raises(ValueError, match=r"^num_seeds must be >= 1$"):
        oversquashing_experiment(TreeSpec(depth=3, feature_dim=8), num_seeds=0)
    assert builds == []
