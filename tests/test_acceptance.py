"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s -v tests/test_acceptance.py` to see
them as they complete).

One check is known-red and kept failing on purpose; see the repository
README ("Known-failing acceptance checks") for the measured evidence:

* `tree_depth_robustness`: the degradation half of the check demands that
  the hop-stack homophily-only filter lose accuracy as depth grows, but
  with learnable per-hop weights the model provably contains every
  shallower model, and measured degradation across dataset draws is
  centered on zero.
"""

import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import is_bipartite, random_connected_graph
from oracles import (
    dense_eigen_oracle,
    expected_frequency_regular,
    mc_expected_frequency,
    sample_regular_graph,
)
from unifilter.basis import (
    angle_law_deviation,
    make_basis,
    orthonormality_deviation,
)
from unifilter.datasets import (
    SynthSpec,
    TreeSpec,
    ablation_basis_variants,
    oversquashing_experiment,
    planted_homophily_graph,
    synth_variable_h,
)
from unifilter.graph import Graph, propagation_operator
from unifilter.model import TrainConfig, gradient_check, init_filter_model
from unifilter.rng import stream
from unifilter.spectral import signal_frequency

warnings.filterwarnings("ignore", message=".*Krylov.*")
warnings.filterwarnings("ignore", message=".*froze.*")


def report(name: str, ok: bool, detail: str) -> None:
    import conftest

    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def angle_grid_cases():
    case = 0
    for n in (20, 50, 200):
        for hops in (4, 10, 16):
            for h in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
                for rep in (0, 1, 2):
                    yield case, n, hops, h
                    case += 1


def test_pairwise_angle_law():
    t0 = time.perf_counter()
    worst_off, worst_diag, cases = 0.0, 0.0, 0
    for case, n, hops, h in angle_grid_cases():
        if cases >= 200:
            break
        g = random_connected_graph(n, min(0.3, 8.0 / n + 0.05), seed=1000 + case)
        op = propagation_operator(g)
        x = stream(case, "angle-sig").standard_normal((n, 1))
        b = make_basis(op, x, hops, "heterophily", h_hat=h)
        off, diag = angle_law_deviation(b)
        worst_off, worst_diag = max(worst_off, off), max(worst_diag, diag)
        cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst_off < 1e-6 and worst_diag < 1e-12 and elapsed < 30.0
    report("pairwise_angle_law", ok,
           f"{cases} cases, max off-target {worst_off:.2e}, "
           f"max diag dev {worst_diag:.2e}, {elapsed:.1f}s")
    assert worst_off < 1e-6
    assert worst_diag < 1e-12
    assert elapsed < 30.0


def test_orthonormal_auxiliary_basis():
    worst_plain, worst_reortho, cases = 0.0, 0.0, 0
    for case, n, hops, h in angle_grid_cases():
        if cases >= 200:
            break
        g = random_connected_graph(n, min(0.3, 8.0 / n + 0.05), seed=1000 + case)
        op = propagation_operator(g)
        x = stream(case, "angle-sig").standard_normal((n, 1))
        worst_plain = max(worst_plain,
                          orthonormality_deviation(make_basis(op, x, hops, "orthonormal")))
        worst_reortho = max(
            worst_reortho,
            orthonormality_deviation(make_basis(op, x, hops, "orthonormal", reortho=True)))
        cases += 1
    ok = worst_plain < 1e-6 and worst_reortho < 1e-10
    report("orthonormal_auxiliary_basis", ok,
           f"{cases} cases, plain {worst_plain:.2e}, reorthogonalized {worst_reortho:.2e}")
    assert worst_plain < 1e-6
    assert worst_reortho < 1e-10


def test_frequency_bounds():
    total, lo, hi, worst_smooth = 0, np.inf, -np.inf, 0.0
    for seed in range(50):
        n = int(stream(seed, "fb-n").integers(10, 60))
        g = random_connected_graph(n, 0.2, seed=2000 + seed, bipartite_ok=True)
        op = propagation_operator(g)
        X = stream(seed, "fb-sig").standard_normal((g.n, 200))
        Xn = X / np.linalg.norm(X, axis=0)
        vals = 0.5 * (1.0 - np.sum(Xn * op.apply(Xn), axis=0))
        lo, hi = min(lo, vals.min()), max(hi, vals.max())
        total += X.shape[1]
        d = np.sqrt(g.degrees.astype(float))
        worst_smooth = max(worst_smooth, signal_frequency(g, d / np.linalg.norm(d)))
    ok = total >= 10_000 and lo >= -1e-12 and hi <= 1 + 1e-12 and worst_smooth <= 1e-12
    report("frequency_bounds", ok,
           f"{total} signals in [{lo:.2e}, {1 - hi:.2e} below 1], "
           f"smooth-direction max {worst_smooth:.2e}")
    assert total >= 10_000
    assert lo >= -1e-12 and hi <= 1 + 1e-12
    assert worst_smooth <= 1e-12


def test_frequency_spectral_form_equivalence():
    worst = 0.0
    for seed in range(50):
        rng = stream(seed, "eq-oracle")
        n = int(rng.integers(5, 31))
        g = random_connected_graph(n, 0.3, seed=3000 + seed, bipartite_ok=True)
        evals, evecs = dense_eigen_oracle(g)
        x = rng.standard_normal(g.n)
        x /= np.linalg.norm(x)
        spectral = float(np.sum(evals * (evecs.T @ x) ** 2) / 2.0)
        worst = max(worst, abs(signal_frequency(g, x) - spectral))
    ok = worst < 1e-10
    report("frequency_spectral_form_equivalence", ok, f"50 cases, max |diff| {worst:.2e}")
    assert worst < 1e-10


def test_regular_graph_expected_frequency():
    # Monte-Carlo mean against the contracted closed form, plus angle
    # monotonicity across the alignment grid.
    n, degree, num_graphs = 60, 6, 2000
    alignments = np.array([1.0, 0.85, 0.6, 0.35, 0.0])
    t0 = time.perf_counter()
    means = mc_expected_frequency(n, degree, alignments, num_graphs=num_graphs, seed=0)
    elapsed = time.perf_counter() - t0
    predicted = np.array([expected_frequency_regular(n, a) for a in alignments])
    errs = np.abs(means - predicted)
    exact = n * (1.0 - alignments**2) / (2.0 * (n - 1))
    monotone = bool(np.all(np.diff(means) > 0))  # theta grows along the grid
    ok = bool(errs.max() <= 0.01) and monotone and elapsed < 120.0
    report(
        "regular_graph_expected_frequency", ok,
        f"max |mc - closed form| = {errs.max():.4f} (tol 0.01), monotone={monotone}, "
        f"{elapsed:.1f}s; mc deviates from the exact ensemble expectation "
        f"n(1-a^2)/(2(n-1)) by at most {np.abs(means - exact).max():.2e}",
    )
    assert monotone
    assert elapsed < 120.0
    assert errs.max() <= 0.01, (
        "Monte-Carlo means disagree with expected_frequency_regular by up to "
        f"{errs.max():.3f}; they match the exact ensemble expectation "
        f"n(1-a^2)/(2(n-1)) to {np.abs(means - exact).max():.1e}, so the "
        "closed form no longer computes that expectation."
    )


def test_homophily_basis_convergence():
    worst_final, worst_eta = 1.0, 0
    for i in range(20):
        n = int(stream(i, "conv-n").integers(20, 80))
        g = random_connected_graph(n, max(0.1, 2 * np.log(n) / n), seed=4000 + i)
        op = propagation_operator(g)
        x = stream(i, "conv-sig").standard_normal(n)
        basis = make_basis(op, x, 201, "homophily")
        M = basis.matrices[:, :, 0].T
        cos = np.einsum("kn,kn->k", M[:-1], M[1:])
        drops = np.flatnonzero(cos[1:] < cos[:-1] - 1e-12)
        eta = int(drops[-1]) + 2 if drops.size else 0
        assert np.all(np.diff(cos[eta:]) >= -1e-12)
        worst_final = min(worst_final, cos[200])
        worst_eta = max(worst_eta, eta)
    ok = worst_final > 1 - 1e-6 and worst_eta <= 150
    report("homophily_basis_convergence", ok,
           f"20 graphs, min cos at hop 200 = {worst_final:.12f}, max eta = {worst_eta}")
    assert worst_final > 1 - 1e-6
    assert worst_eta <= 150


def test_energy_trajectory_over_smoothing():
    from unifilter.datasets import energy_trajectory, one_hot_features
    from unifilter.graph import LabeledDataset

    rng = stream(2, "energy")
    g = sample_regular_graph(300, 6, rng)
    assert not is_bipartite(g)
    X = one_hot_features(300, 40, rng)
    labels = rng.integers(0, 5, 300)
    ds = LabeledDataset(graph=g, features=X, labels=labels, split=None, num_classes=5)
    rows = energy_trajectory(ds, (0.2, 0.8, 1.0), 100)
    table = {(tau, k): e for tau, k, e in rows}
    e_start = table[(1.0, 0)]
    collapse = table[(1.0, 100)]
    low_tau, high_tau = table[(0.2, 100)], table[(0.8, 100)]
    ok = collapse < 1e-3 * e_start and low_tau > high_tau > 0.0
    report("energy_trajectory_over_smoothing", ok,
           f"E(k=100, tau=1)/E0 = {collapse / e_start:.2e}, "
           f"E(0.2)={low_tau:.3f} > E(0.8)={high_tau:.3f} > 0")
    assert collapse < 1e-3 * e_start
    assert low_tau > high_tau > 0.0


def test_tree_depth_robustness():
    t0 = time.perf_counter()
    table = oversquashing_experiment(TreeSpec(depth=7, seed=0), num_seeds=5)
    elapsed = time.perf_counter() - t0
    uni = table["mean"]["unifilter"]
    hom = table["mean"]["homophily-only"]
    spread = (max(uni.values()) - min(uni.values())) * 100
    degradation = (hom[3] - hom[7]) * 100
    ok = spread <= 5.0 and degradation > 0.0 and elapsed < 300.0
    report("tree_depth_robustness", ok,
           f"unifilter spread {spread:.1f} pts (<= 5), homophily-only k3->k7 "
           f"change {degradation:+.1f} pts (needs > 0), {elapsed:.0f}s")
    assert elapsed < 300.0
    assert spread <= 5.0
    assert degradation > 0.0, (
        "the homophily-only filter keeps its learnable hop-0 path, so its "
        "accuracy does not systematically decay with depth; measured change "
        f"{degradation:+.1f} points"
    )


def test_gradient_correctness():
    worst = 0.0
    for seed in range(20):
        rng = stream(seed, "acc-gc")
        g = random_connected_graph(25, 0.25, seed=5000 + seed, bipartite_ok=True)
        op = propagation_operator(g)
        X = rng.standard_normal((g.n, 5))
        basis = make_basis(op, X, 4, "uni", h_hat=0.4, tau=0.6)
        model = init_filter_model(4, 5, 8, 2, 3, 0.0, rng)
        model.w = model.w + 0.1 * rng.standard_normal(5)
        labels = rng.integers(0, 3, g.n)
        idx = np.arange(0, g.n, 2)
        worst = max(worst, gradient_check(model, basis.matrices[idx], labels[idx]))
    ok = worst < 1e-4
    report("gradient_correctness", ok, f"20 seeds, max relative error {worst:.2e}")
    assert worst < 1e-4


def _random_edge_graph(n: int, m: int, seed: int) -> Graph:
    rng = stream(seed, "scal-edges")
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], 1)
    ring.sort(axis=1)
    keys = np.sort(ring[:, 0] * n + ring[:, 1])
    need = m - keys.size
    while need > 0:
        cand = rng.integers(0, n, size=(int(need * 1.3) + 16, 2))
        cand = cand[cand[:, 0] != cand[:, 1]]
        cand.sort(axis=1)
        # Each batch adds, in draw order, the first occurrence of every edge
        # not yet present, up to `need` of them.
        code = cand[:, 0] * n + cand[:, 1]
        order = np.argsort(code, kind="stable")
        first = np.ones(code.size, dtype=bool)
        first[1:] = code[order[1:]] != code[order[:-1]]
        fresh = code[np.sort(order[first])]
        fresh = fresh[~np.isin(fresh, keys)][:need]
        keys = np.sort(np.concatenate([keys, fresh]))
        need -= fresh.size
    return Graph.from_edges(np.stack([keys // n, keys % n], 1), n)


def test_random_edge_graph_equals_its_loop_form():
    # The cost-scaling graphs' helper against the edge-by-edge loop it
    # replaced; the small graphs near saturation take several batches.
    for n, m, seed in ((40, 700, 1), (300, 3000, 2), (1000, 2500, 3)):
        rng = stream(seed, "scal-edges")
        keys = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
        need = m - len(keys)
        while need > 0:
            cand = rng.integers(0, n, size=(int(need * 1.3) + 16, 2))
            cand = cand[cand[:, 0] != cand[:, 1]]
            cand.sort(axis=1)
            for u, v in cand.tolist():
                if (u, v) not in keys and need > 0:
                    keys.add((u, v))
                    need -= 1
        want = Graph.from_edges(np.array(sorted(keys)), n)
        got = _random_edge_graph(n, m, seed)
        for field in ("indptr", "indices", "degrees"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


def test_construction_cost_scaling():
    n, m, hops, reps = 15000, 1_200_000, 20, 3
    op_base = propagation_operator(_random_edge_graph(n, m, seed=1))
    op_dbl = propagation_operator(_random_edge_graph(n, 2 * m, seed=2))
    x = stream(3, "scal-sig").standard_normal((n, 1))

    def timed(op, k):
        t0 = time.perf_counter()
        make_basis(op, x, k, "heterophily", h_hat=0.3)
        return time.perf_counter() - t0

    timed(op_base, 2)
    timed(op_dbl, 2)
    base, dbl_k, dbl_m = [], [], []
    for _ in range(reps):
        base.append(timed(op_base, hops))
        dbl_k.append(timed(op_base, 2 * hops))
        dbl_m.append(timed(op_dbl, hops))
    r_k = float(np.median(dbl_k) / np.median(base))
    r_m = float(np.median(dbl_m) / np.median(base))
    ok = 1.6 <= r_k <= 2.4 and 1.6 <= r_m <= 2.4
    report("construction_cost_scaling", ok,
           f"base {np.median(base) * 1e3:.0f} ms, 2K ratio {r_k:.2f}, 2m ratio {r_m:.2f}")
    assert 1.6 <= r_k <= 2.4
    assert 1.6 <= r_m <= 2.4


def test_synthetic_homophily_grid_and_variant_ordering():
    base_graph, base_labels = planted_homophily_graph(2708, 5429, 7, 0.81, seed=0)
    targets = (0.13, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.81)
    achieved = {}
    datasets = {}
    for target in targets:
        ds, meta = synth_variable_h(SynthSpec(
            base_graph=base_graph, base_labels=base_labels, target_h=target, seed=1))
        achieved[target] = meta["achieved_h"]
        datasets[target] = ds
    grid_ok = all(abs(achieved[t] - t) <= 0.005 for t in targets)

    cfg = TrainConfig(hops=10, lr=0.05, hidden=32, layers=2, dropout=0.0,
                      patience=40, max_epochs=250, seed=0)
    low = ablation_basis_variants(datasets[0.13], cfg, num_seeds=16)
    gaps_low = {k: v * 100 for k, v in low["gap"].items()}
    high = ablation_basis_variants(datasets[0.81], cfg, num_seeds=8)
    gaps_high = {k: v * 100 for k, v in high["gap"].items()}

    low_ok = (gaps_low["HetFilter"] <= 2.0
              and gaps_low["HomFilter"] >= gaps_low["HetFilter"]
              and gaps_low["HomFilter"] >= gaps_low["OrtFilter"])
    high_ok = abs(gaps_high["HomFilter"]) <= 2.0
    ok = grid_ok and low_ok and high_ok
    report("synthetic_homophily_grid_and_variant_ordering", ok,
           f"grid max |err| {max(abs(achieved[t] - t) for t in targets):.4f}; "
           f"low-h gaps (pts) {{Het {gaps_low['HetFilter']:.2f}, "
           f"Hom {gaps_low['HomFilter']:.2f}, Ort {gaps_low['OrtFilter']:.2f}}}; "
           f"h=0.81 Hom gap {gaps_high['HomFilter']:.2f}")
    assert grid_ok
    assert low_ok
    assert high_ok


CORA_ENV = "UNIFILTER_CORA_DIR"


@pytest.mark.skipif(CORA_ENV not in os.environ,
                    reason=f"set {CORA_ENV} to a directory with edges.txt, "
                           "features.csv, labels.txt to run the dataset-gated check")
def test_cora_accuracy_dataset_gated():
    from dataclasses import replace

    from unifilter.datasets import make_splits
    from unifilter.graph import LabeledDataset, estimate_homophily, homophily_ratio, load_dataset
    from unifilter.model import random_search, tau_preset, train

    root = Path(os.environ[CORA_ENV])
    ds = load_dataset(root / "edges.txt", root / "features.csv", root / "labels.txt")
    ratio = homophily_ratio(ds.graph, ds.labels)
    splits = make_splits(ds.graph.n, "60/20/20", 10, seed=0)

    # tune on the first split over the standard ranges, then apply the
    # chosen settings to all ten splits
    base = TrainConfig(hops=10, tau=tau_preset("cora"), patience=200,
                       max_epochs=1000, seed=0)
    first = LabeledDataset(graph=ds.graph, features=ds.features, labels=ds.labels,
                           split=splits[0], num_classes=ds.num_classes)
    best_cfg, _, _, _ = random_search(first, base, trials=15, seed=0)

    accs, hhats = [], []
    for i, split in enumerate(splits):
        run = LabeledDataset(graph=ds.graph, features=ds.features, labels=ds.labels,
                             split=split, num_classes=ds.num_classes)
        hhats.append(estimate_homophily(ds.graph, ds.labels, split.train))
        accs.append(train(run, replace(best_cfg, seed=i)).test_acc)
    mean_acc = float(np.mean(accs))
    mean_h = float(np.mean(hhats))
    ok = mean_acc >= 0.875 and abs(mean_h - 0.82) <= 0.02 and abs(ratio - 0.81) <= 0.01
    report("cora_accuracy_dataset_gated", ok,
           f"homophily ratio {ratio:.3f} (target 0.81), mean test accuracy "
           f"{mean_acc:.4f} (needs >= 0.875), mean estimate {mean_h:.3f} "
           f"(target 0.82 +- 0.02)")
    assert abs(ratio - 0.81) <= 0.01
    assert mean_acc >= 0.875
    assert abs(mean_h - 0.82) <= 0.02
