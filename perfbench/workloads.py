"""The benchmark's workloads: their inputs, CLI invocations and output checks.

README.md in this directory records why each workload was chosen.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

# Files a rerun on the same inputs must reproduce byte for byte.
REPRODUCED = ("report.json", "loss_curve.csv", "checkpoint.json", "spectrum.csv",
              "squash.csv")
TRAIN_FILES = ("report.json", "loss_curve.csv", "checkpoint.json", "manifest.json")


@dataclass(frozen=True)
class GraphWorkload:
    """Planted graph in input files, `unifilter train` for a fixed epoch
    count (patience = max epochs), then optionally `unifilter spectrum`."""

    name: str
    n: int
    m: int
    classes: int
    h: float
    features: tuple  # ("words", dim, words per node, topic share, topic size) or ("gauss", dim, separation)
    hops: int
    epochs: int
    lr: float
    spectrum: bool
    pinned_acc: float | None  # test_acc on the seed code; None: not checked

    @property
    def dim(self) -> int:
        return self.features[1]

    def generate(self, seed: int, indir: Path) -> dict[str, str]:
        rng = np.random.default_rng([seed, self.n, self.m])
        edges, labels = inputs.planted_graph(rng, self.n, self.m, self.classes, self.h)
        if self.features[0] == "words":
            X = inputs.bag_of_words(rng, labels, *self.features[1:])
        else:
            X = inputs.gaussian_features(rng, labels, *self.features[1:])
        split = inputs.split_60_20_20(rng, self.n)
        return inputs.write_graph_dataset(indir, edges, X, labels, split)

    def _data_args(self, indir: Path) -> list[str]:
        return ["--edges", str(indir / "edges.txt"), "--features", str(indir / "features.csv"),
                "--labels", str(indir / "labels.txt")]

    def setup_args(self, indir: Path) -> list[str]:
        return ["graph"] + [str(indir / f) for f in
                            ("edges.txt", "features.csv", "labels.txt", "split.json")]

    def invocations(self, indir: Path, opdir: Path, seed: int) -> list[tuple[str, list[str]]]:
        train = ["train", *self._data_args(indir), "--split", str(indir / "split.json"),
                 "--hops", str(self.hops), "--tau", "0.5", "--lr", repr(self.lr),
                 "--max-epochs", str(self.epochs), "--patience", str(self.epochs),
                 "--seed", str(seed), "--out-dir", str(opdir / "train")]
        calls = [("train", train)]
        if self.spectrum:
            calls.append(("spectrum", [
                "spectrum", "--checkpoint", str(opdir / "train" / "checkpoint.json"),
                *self._data_args(indir), "--out-dir", str(opdir / "spectrum")]))
        return calls

    def check(self, label: str, out: Path) -> list[str]:
        if label == "train":
            problems = _missing(out, TRAIN_FILES)
            if not problems:
                rows = (out / "loss_curve.csv").read_text(encoding="utf-8").splitlines()
                if len(rows) != self.epochs + 1:
                    problems.append(f"loss_curve.csv has {len(rows) - 1} epochs, "
                                    f"expected {self.epochs}")
            return problems
        problems = _missing(out, ("spectrum.csv", "manifest.json"))
        if not problems:
            rows = _csv_rows(out / "spectrum.csv")
            if [int(r["hop"]) for r in rows] != list(range(self.hops + 1)):
                problems.append(f"spectrum.csv rows do not cover hops 0..{self.hops}")
        return problems

    def acc(self, opdir: Path) -> float:
        report = json.loads((opdir / "train" / "report.json").read_text(encoding="utf-8"))
        return float(report["test_acc"])

    def sizes(self) -> dict[str, int]:
        # Computed: float64 values, int32 indices, both edge directions stored.
        return {"csr_bytes_computed": 2 * self.m * (8 + 4) + (self.n + 1) * 4,
                "basis_bytes": (self.hops + 1) * self.n * self.dim * 8}


@dataclass(frozen=True)
class TreeWorkload:
    """`unifilter squash` on the in-process binary tree; no input files."""

    name: str
    depth: int
    num_seeds: int
    k_grid: tuple[int, ...]
    tree_seed: int
    pinned_acc: float | None

    def generate(self, seed: int, indir: Path) -> dict[str, str]:
        return {"tree": f"depth={self.depth} seed={self.tree_seed}"}

    def setup_args(self, indir: Path) -> list[str]:
        return ["tree", str(self.depth), str(self.tree_seed)]

    def invocations(self, indir: Path, opdir: Path, seed: int) -> list[tuple[str, list[str]]]:
        return [("squash", ["squash", "--depth", str(self.depth),
                            "--num-seeds", str(self.num_seeds),
                            "--k-grid", ",".join(map(str, self.k_grid)),
                            "--seed", str(self.tree_seed), "--out-dir", str(opdir / "squash")])]

    def check(self, label: str, out: Path) -> list[str]:
        problems = _missing(out, ("squash.csv", "manifest.json"))
        if not problems:
            got = sorted((r["model"], int(r["k"])) for r in _csv_rows(out / "squash.csv"))
            want = sorted((model, k) for model in ("homophily-only", "unifilter")
                          for k in self.k_grid)
            if got != want:
                problems.append("squash.csv does not hold exactly one row per (model, k)")
        return problems

    def acc(self, opdir: Path) -> float:
        rows = _csv_rows(opdir / "squash" / "squash.csv")
        return float(np.mean([float(r["mean_acc"]) for r in rows if r["model"] == "unifilter"]))

    def sizes(self) -> dict[str, int]:
        n = 2 ** self.depth - 1
        return {"csr_bytes_computed": 2 * (n - 1) * (8 + 4) + (n + 1) * 4,
                "basis_bytes": (max(self.k_grid) + 1) * n * 100 * 8}


def _missing(out: Path, names: tuple[str, ...]) -> list[str]:
    return [f"{out.name}/{f} missing" for f in names if not (out / f).is_file()]


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# Full shapes. The pinned accuracies are the seed code's medians over
# benchmark seeds 1-10 (tree-squash uses one fixed tree, so its value is exact).
WORKLOADS = {
    "cora-train": GraphWorkload(
        "cora-train", n=2708, m=5429, classes=7, h=0.81, features=("words", 1433, 18, 0.3, 150),
        hops=10, epochs=30, lr=0.01, spectrum=True, pinned_acc=0.9668508287292817),
    "sparse-large": GraphWorkload(
        "sparse-large", n=50_000, m=500_000, classes=2, h=0.3, features=("gauss", 16, 0.5),
        hops=20, epochs=20, lr=0.05, spectrum=False, pinned_acc=0.9445),
    "tree-squash": TreeWorkload(
        "tree-squash", depth=7, num_seeds=5, k_grid=(3, 4, 5, 6, 7), tree_seed=0,
        pinned_acc=0.2815384615384615),
}

# Small shapes for the smoke mode: same code paths, about a second each.
SMOKE = {
    "cora-train": GraphWorkload(
        "cora-train", n=300, m=900, classes=4, h=0.8, features=("words", 64, 6, 0.3, 12),
        hops=4, epochs=5, lr=0.01, spectrum=True, pinned_acc=None),
    "sparse-large": GraphWorkload(
        "sparse-large", n=2000, m=20_000, classes=2, h=0.3, features=("gauss", 8, 0.5),
        hops=6, epochs=3, lr=0.05, spectrum=False, pinned_acc=None),
    "tree-squash": TreeWorkload(
        "tree-squash", depth=4, num_seeds=1, k_grid=(2, 3), tree_seed=0, pinned_acc=None),
}
