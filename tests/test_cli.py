"""Golden-run suite for the command line: exit codes, key=value lines,
artifact layout, and rerun determinism."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from unifilter.datasets import write_dataset
from unifilter.graph import Graph, LabeledDataset
from unifilter.datasets import make_splits
from unifilter.model import SEARCH_SPACE, TrainConfig
from unifilter.rng import stream


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "unifilter", *map(str, args)],
        capture_output=True, text=True, timeout=600,
    )
    return proc


def kv_lines(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    """Separable two-cluster dataset written in the standard formats."""
    outdir = tmp_path_factory.mktemp("toy")
    rng = stream(0, "cli-toy")
    n_per = 10
    edges = set()
    for c in range(2):
        base = c * n_per
        for i in range(n_per):
            edges.add(tuple(sorted((base + i, base + (i + 1) % n_per))))
            for j in range(i + 1, n_per):
                if rng.random() < 0.5:
                    edges.add((base + i, base + j))
    edges.add((n_per - 1, n_per))
    g = Graph.from_edges(np.array(sorted(edges)), 2 * n_per)
    labels = np.array([0] * n_per + [1] * n_per)
    X = np.zeros((2 * n_per, 2))
    X[np.arange(2 * n_per), labels] = 1.0
    ds = LabeledDataset(graph=g, features=X, labels=labels,
                        split=make_splits(2 * n_per, "60/20/20", 1, 0)[0],
                        num_classes=2)
    write_dataset(ds, outdir)
    return outdir


@pytest.fixture(scope="module")
def toy_run(toy_dir, tmp_path_factory):
    """Output directory of one `train` run on the toy dataset."""
    out = tmp_path_factory.mktemp("toy-run")
    proc = run_cli(*toy_train_args(toy_dir, out))
    assert proc.returncode == 0, proc.stderr
    return out


def toy_data_args(toy_dir):
    return ["--edges", toy_dir / "edges.txt", "--features", toy_dir / "features.csv",
            "--labels", toy_dir / "labels.txt"]


def toy_train_args(toy_dir, out):
    return [
        "train",
        "--edges", toy_dir / "edges.txt",
        "--features", toy_dir / "features.csv",
        "--labels", toy_dir / "labels.txt",
        "--split", toy_dir / "split.json",
        "--hops", 3, "--tau", 0.5, "--lr", 0.05, "--hidden", 8,
        "--patience", 50, "--max-epochs", 200, "--seed", 1,
        "--out-dir", out,
    ]


def test_train_toy_exits_zero_with_perfect_accuracy(toy_dir, tmp_path):
    out = tmp_path / "run"
    proc = run_cli(*toy_train_args(toy_dir, out))
    assert proc.returncode == 0, proc.stderr
    assert kv_lines(proc.stdout)["test_acc"] == "1.0"
    for name in ("report.json", "loss_curve.csv", "checkpoint.json", "manifest.json"):
        assert (out / name).is_file()


def test_train_rejects_tau_out_of_range(toy_dir, tmp_path):
    args = toy_train_args(toy_dir, tmp_path / "x")
    args[args.index("--tau") + 1] = 1.5
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "tau must be in [0,1]" in proc.stderr


def test_train_missing_labels_flag_usage_error(toy_dir, tmp_path):
    proc = run_cli(
        "train",
        "--edges", toy_dir / "edges.txt",
        "--features", toy_dir / "features.csv",
        "--split", toy_dir / "split.json",
        "--out-dir", tmp_path / "x",
    )
    assert proc.returncode == 2
    assert "--labels" in proc.stderr


def test_train_missing_file_exits_two(toy_dir, tmp_path):
    args = toy_train_args(toy_dir, tmp_path / "x")
    args[args.index("--edges") + 1] = toy_dir / "nope.txt"
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "missing input file" in proc.stderr


def test_train_rerun_is_byte_identical(toy_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*toy_train_args(toy_dir, out1)).returncode == 0
    assert run_cli(*toy_train_args(toy_dir, out2)).returncode == 0
    for name in ("report.json", "loss_curve.csv", "checkpoint.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_basis_check_reports_angle_deviation(toy_dir, tmp_path):
    out = tmp_path / "basis"
    proc = run_cli(
        "basis", "--edges", toy_dir / "edges.txt", "--features", toy_dir / "features.csv",
        "--mode", "hetero", "--hom-ratio", 0.3, "--hops", 6, "--check",
        "--out-dir", out,
    )
    assert proc.returncode == 0, proc.stderr
    vals = kv_lines(proc.stdout)
    assert float(vals["max_offdiag_dev"]) < 1e-6
    assert float(vals["max_diag_dev"]) < 1e-12
    meta = json.loads((out / "meta.json").read_text())
    assert meta["kind"] == "heterophily"
    assert (out / "hop_6.csv").is_file()


def test_basis_uni_tau_one_matches_homo_export(toy_dir, tmp_path):
    out_uni, out_homo = tmp_path / "uni", tmp_path / "homo"
    base = ["--edges", toy_dir / "edges.txt", "--features", toy_dir / "features.csv",
            "--hops", 4]
    assert run_cli("basis", *base, "--mode", "uni", "--tau", 1, "--hom-ratio", 0.3,
                   "--out-dir", out_uni).returncode == 0
    assert run_cli("basis", *base, "--mode", "homo",
                   "--out-dir", out_homo).returncode == 0
    for k in range(5):
        a = (out_uni / f"hop_{k}.csv").read_bytes()
        b = (out_homo / f"hop_{k}.csv").read_bytes()
        assert a == b


def test_basis_rejects_hom_ratio_out_of_range(toy_dir, tmp_path):
    proc = run_cli(
        "basis", "--edges", toy_dir / "edges.txt", "--features", toy_dir / "features.csv",
        "--mode", "hetero", "--hom-ratio", 1.2, "--out-dir", tmp_path / "x",
    )
    assert proc.returncode == 2


def test_spectrum_rows_and_weight_passthrough(toy_dir, tmp_path):
    run = tmp_path / "run"
    assert run_cli(*toy_train_args(toy_dir, run)).returncode == 0
    out = tmp_path / "spec"
    proc = run_cli(
        "spectrum", "--checkpoint", run / "checkpoint.json",
        "--edges", toy_dir / "edges.txt", "--features", toy_dir / "features.csv",
        "--labels", toy_dir / "labels.txt", "--out-dir", out,
    )
    assert proc.returncode == 0, proc.stderr
    rows = (out / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "hop,frequency,weight"
    assert len(rows) == 1 + 4  # hops 0..3
    ckpt = json.loads((run / "checkpoint.json").read_text())
    weights = [float(r.split(",")[2]) for r in rows[1:]]
    assert weights == ckpt["w"]
    freqs = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(0.0 <= f <= 1.0 for f in freqs)


def test_spectrum_hop_mismatch_exits_two(toy_dir, tmp_path):
    run = tmp_path / "run"
    assert run_cli(*toy_train_args(toy_dir, run)).returncode == 0
    proc = run_cli(
        "spectrum", "--checkpoint", run / "checkpoint.json",
        "--edges", toy_dir / "edges.txt", "--features", toy_dir / "features.csv",
        "--labels", toy_dir / "labels.txt", "--hops", 9,
        "--out-dir", tmp_path / "x",
    )
    assert proc.returncode == 2
    assert "K=3" in proc.stderr


def test_tree_command_counts(tmp_path):
    proc = run_cli("tree", "--depth", 7, "--out-dir", tmp_path / "tree")
    assert proc.returncode == 0
    vals = kv_lines(proc.stdout)
    assert vals["n"] == "127"
    assert vals["m"] == "126"
    assert (tmp_path / "tree" / "split.json").is_file()


def test_depth2_tree_trains(tmp_path):
    # Its three nodes split 1/1/1, so no split list is empty.
    assert run_cli("tree", "--depth", 2, "--out-dir", tmp_path / "tree").returncode == 0
    d = tmp_path / "tree"
    proc = run_cli("train", "--edges", d / "edges.txt", "--features", d / "features.csv",
                   "--labels", d / "labels.txt", "--split", d / "split.json", "--hops", 2,
                   "--max-epochs", 5, "--out-dir", tmp_path / "run")
    assert proc.returncode == 0, proc.stderr
    split = json.loads((d / "split.json").read_text())
    assert sorted(len(nodes) for nodes in split.values()) == [1, 1, 1]


def test_splits_command_sizes(tmp_path):
    proc = run_cli("splits", "--nodes", 10, "--regime", "60/20/20",
                   "--out-dir", tmp_path / "s")
    assert proc.returncode == 0
    assert kv_lines(proc.stdout)["sizes"] == "6/2/2"
    split = json.loads((tmp_path / "s" / "split_0.json").read_text())
    assert sorted(split) == ["test", "train", "val"]


def test_estimate_h_full_split_equals_ratio(toy_dir, tmp_path):
    # a split whose training set covers every node reduces to the plain ratio
    labels = np.loadtxt(toy_dir / "labels.txt", dtype=int)
    n = labels.shape[0]
    full = {"train": list(range(n)), "val": [], "test": []}
    split_file = tmp_path / "full_split.json"
    split_file.write_text(json.dumps(full))
    proc = run_cli("estimate-h", "--edges", toy_dir / "edges.txt",
                   "--labels", toy_dir / "labels.txt", "--split", split_file)
    assert proc.returncode == 0
    from unifilter.graph import homophily_ratio, load_graph

    g = load_graph(toy_dir / "edges.txt", n)
    assert float(kv_lines(proc.stdout)["h_hat"]) == homophily_ratio(g, labels)


def test_synth_command_achieves_target(tmp_path):
    out = tmp_path / "synth"
    proc = run_cli("synth", "--target", 0.5, "--planted-nodes", 400,
                   "--planted-edges", 1200, "--planted-classes", 4,
                   "--planted-h", 0.7, "--seed", 3, "--out-dir", out)
    assert proc.returncode == 0, proc.stderr
    achieved = float(kv_lines(proc.stdout)["achieved_h"])
    assert abs(achieved - 0.5) <= 0.005
    meta = json.loads((out / "meta.json").read_text())
    assert meta["achieved_h"] == achieved


def test_synth_with_unreachable_planted_homophily_exits_one_in_one_line(tmp_path):
    out = tmp_path / "synth"
    proc = run_cli("synth", "--target", 0.5, "--planted-nodes", 200,
                   "--planted-edges", 19900, "--planted-classes", 2,
                   "--planted-h", 0.9, "--seed", 0, "--out-dir", out)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ("error: 17910 same-class edges needed, but the drawn classes "
                           "have only 9909 same-class pairs\n"), proc.stderr
    assert not (out / "manifest.json").exists()


def test_energy_command_rows(tmp_path):
    tree = tmp_path / "tree"
    assert run_cli("tree", "--depth", 5, "--out-dir", tree).returncode == 0
    out = tmp_path / "energy"
    proc = run_cli("energy", "--edges", tree / "edges.txt",
                   "--features", tree / "features.csv",
                   "--labels", tree / "labels.txt",
                   "--tau-grid", "0.5,1.0", "--k-max", 5, "--out-dir", out)
    assert proc.returncode == 0, proc.stderr
    rows = (out / "energy.csv").read_text().strip().splitlines()
    assert rows[0] == "tau,k,energy"
    assert len(rows) == 1 + 2 * 6


def test_train_tau_preset_flag(toy_dir, tmp_path):
    args = toy_train_args(toy_dir, tmp_path / "run")
    i = args.index("--tau")
    args = args[:i] + args[i + 2:] + ["--tau-preset", "cora"]
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["config"]["tau_preset"] == "cora"
    proc = run_cli(*args[:-1], "not-a-dataset")
    assert proc.returncode == 2


def test_train_search_reports_chosen_settings(toy_dir, tmp_path):
    args = toy_train_args(toy_dir, tmp_path / "run") + ["--search", 2]
    i = args.index("--max-epochs")
    args[i + 1] = 40
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    vals = kv_lines(proc.stdout)
    assert "test_acc" in vals
    # One line per searched setting, in SEARCH_SPACE's order, each the value
    # the winner was trained and checkpointed with.
    searched = [line.partition("=") for line in proc.stdout.splitlines()
                if line.startswith("search_")]
    assert [key for key, _, _ in searched] == [f"search_{key}" for key in SEARCH_SPACE]
    config = json.loads((tmp_path / "run" / "checkpoint.json").read_text())["config"]
    for key, _, value in searched:
        assert value == repr(config[key.removeprefix("search_")]), (key, value)


def test_train_flags_reach_every_config_field(toy_dir, tmp_path):
    # Every flag that feeds a TrainConfig field, each away from its default.
    settings = {"hops": 2, "tau": 0.25, "lr": 0.02, "weight_decay": 1e-4, "hidden": 6,
                "layers": 3, "dropout": 0.1, "patience": 7, "max_epochs": 9, "seed": 3,
                "basis": "heterophily", "self_loops": True, "raw_homophily": True,
                "reortho": True, "h_hat": 0.375}
    defaults = asdict(TrainConfig())
    assert settings.keys() == defaults.keys()
    assert all(settings[k] != defaults[k] for k in settings)
    args = toy_data_args(toy_dir) + ["--split", toy_dir / "split.json"]
    for field, value in settings.items():
        flag = "--" + ("hom-ratio" if field == "h_hat" else field.replace("_", "-"))
        args += [flag] if value is True else [flag, value]
    proc = run_cli("train", *args, "--out-dir", tmp_path / "run")
    assert proc.returncode == 0, proc.stderr
    config = json.loads((tmp_path / "run" / "checkpoint.json").read_text())["config"]
    assert config == asdict(TrainConfig(**settings))


def test_ablate_command_smoke(tmp_path):
    synth = tmp_path / "synth"
    assert run_cli("synth", "--target", 0.5, "--planted-nodes", 120,
                   "--planted-edges", 360, "--planted-classes", 3,
                   "--planted-h", 0.7, "--seed", 3, "--out-dir", synth).returncode == 0
    out = tmp_path / "ablate"
    proc = run_cli("ablate", "--edges", synth / "edges.txt",
                   "--features", synth / "features.csv",
                   "--labels", synth / "labels.txt",
                   "--hops", 3, "--hidden", 8, "--patience", 15,
                   "--max-epochs", 40, "--num-seeds", 2, "--out-dir", out)
    assert proc.returncode == 0, proc.stderr
    rows = (out / "ablation.csv").read_text().strip().splitlines()
    assert rows[0] == "variant,mean_acc,gap_to_unifilter"
    assert len(rows) == 5
    vals = kv_lines(proc.stdout)
    assert "gap_HetFilter" in vals


def test_squash_command_smoke(tmp_path):
    out = tmp_path / "squash"
    proc = run_cli("squash", "--depth", 4, "--feature-dim", 16,
                   "--k-grid", "2,3", "--num-seeds", 1, "--out-dir", out)
    assert proc.returncode == 0, proc.stderr
    rows = (out / "squash.csv").read_text().strip().splitlines()
    assert rows[0] == "model,k,mean_acc"
    assert len(rows) == 5
    vals = kv_lines(proc.stdout)
    assert "spread_unifilter" in vals


def test_manifest_written_once_with_digests(toy_dir, tmp_path):
    out = tmp_path / "run"
    assert run_cli(*toy_train_args(toy_dir, out)).returncode == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 1
    assert len(manifest["inputs"]) == 4
    for digest in manifest["inputs"].values():
        assert len(digest) == 64


@pytest.mark.parametrize("case", ["nan-feature", "empty-features",
                                  "non-utf8-features", "ragged-features", "fractional-label",
                                  "negative-label", "split-without-val", "empty-val",
                                  "nonfinite-loss"])
def test_train_rejects_bad_input_in_one_line(toy_dir, tmp_path, case):
    # The output directory exists, so a manifest written on failure would show.
    (tmp_path / "out").mkdir()
    args = toy_train_args(toy_dir, tmp_path / "out")
    if case == "nan-feature":
        X = np.loadtxt(toy_dir / "features.csv", delimiter=",")
        X[3, 1] = np.nan
        np.savetxt(tmp_path / "features.csv", X, delimiter=",")
        args[args.index("--features") + 1] = tmp_path / "features.csv"
        expected = "non-finite feature value at row 4, column 2"
    elif case == "empty-features":
        (tmp_path / "features.csv").write_text("")
        args[args.index("--features") + 1] = tmp_path / "features.csv"
        expected = "no feature rows in"
    elif case in ("non-utf8-features", "ragged-features"):
        # numpy's own message, prefixed with the file it is about.
        path = tmp_path / "features.csv"
        bad, message = {
            "non-utf8-features": (b"\xff,0\n", "'utf-8' codec can't decode byte 0xff"),
            "ragged-features": (b"1,0,0\n", "the number of columns changed from 2 to 3"),
        }[case]
        path.write_bytes((toy_dir / "features.csv").read_bytes() + bad)
        args[args.index("--features") + 1] = path
        expected = f"{path}: {message}"
    elif case in ("fractional-label", "negative-label"):
        path = tmp_path / "labels.txt"
        bad, message = {
            "fractional-label": ("0.5", "could not convert string '0.5' to int64"),
            "negative-label": ("-1", "labels must be non-negative"),
        }[case]
        lines = (toy_dir / "labels.txt").read_text().splitlines()
        path.write_text("\n".join([bad] + lines[1:]) + "\n")
        args[args.index("--labels") + 1] = path
        expected = f"{path}: {message}"
    elif case == "nonfinite-loss":
        args[args.index("--lr") + 1] = 1e300
        expected = "training loss is not finite at epoch 2"
    else:
        split = json.loads((toy_dir / "split.json").read_text())
        if case == "empty-val":
            split["val"] = []
            expected = "split has an empty 'val' list"
        else:
            del split["val"]
            expected = "missing 'val'"
        (tmp_path / "split.json").write_text(json.dumps(split))
        args[args.index("--split") + 1] = tmp_path / "split.json"
    proc = run_cli(*args)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.count("\n") == 1 and expected in proc.stderr, proc.stderr
    assert "test_acc" not in proc.stdout
    assert not (tmp_path / "out" / "report.json").exists()
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("case", ["tree-depth", "splits-nodes", "train-hidden", "basis-hops",
                                  "train-label"])
def test_impossible_allocations_exit_one_in_one_line(toy_dir, tmp_path, case):
    # Each case asks numpy for 2^48..2^62 bytes: beyond any machine's address
    # space, so the request fails whatever the overcommit setting and nothing
    # is touched, yet below numpy's own size limit, so it fails as MemoryError.
    out = tmp_path / "out"
    args = toy_train_args(toy_dir, out)
    if case == "tree-depth":
        args = ["tree", "--depth", 50, "--out-dir", out]
    elif case == "splits-nodes":
        args = ["splits", "--nodes", 2**50, "--out-dir", out]
    elif case == "train-hidden":
        args[args.index("--hidden") + 1] = 10**14
    elif case == "basis-hops":
        args = ["basis", "--edges", toy_dir / "edges.txt", "--features",
                toy_dir / "features.csv", "--mode", "homo", "--hops", 10**13, "--out-dir", out]
    else:
        lines = (toy_dir / "labels.txt").read_text().splitlines()
        (tmp_path / "labels.txt").write_text("\n".join([str(10**13)] + lines[1:]) + "\n")
        args[args.index("--labels") + 1] = tmp_path / "labels.txt"
    proc = run_cli(*args)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.startswith("error: out of memory: Unable to allocate"), proc.stderr
    shape, dtype = re.search(r"shape \(([\d, ]+)\) and data type (\w+)", proc.stderr).groups()
    asked = math.prod(int(s) for s in shape.split(",") if s.strip()) * np.dtype(dtype).itemsize
    assert 2**48 <= asked <= 2**62, asked
    assert not (out / "manifest.json").exists()


def test_basis_rejects_empty_input_files(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    proc = run_cli("basis", "--edges", empty, "--features", empty, "--mode", "homo",
                   "--out-dir", tmp_path / "x")
    assert proc.returncode == 1
    assert proc.stderr == f"error: no feature rows in {empty}\n"
    assert not (tmp_path / "x").exists()


def test_estimate_h_rejects_an_empty_labels_file(toy_dir, tmp_path):
    empty = tmp_path / "labels.txt"
    empty.write_text("")
    proc = run_cli("estimate-h", "--edges", toy_dir / "edges.txt", "--labels", empty,
                   "--split", toy_dir / "split.json")
    assert proc.returncode == 1
    assert proc.stderr == f"error: no labels in {empty}\n"


def path_split_args(tmp_path, train_ids):
    """Input flags for the path 0-1-2-3 with four labels and two features, and
    a split whose train list is `train_ids`, written as JSON."""
    (tmp_path / "edges.txt").write_text("0 1\n1 2\n2 3\n")
    (tmp_path / "labels.txt").write_text("0\n0\n1\n1\n")
    (tmp_path / "features.csv").write_text("1,0\n1,0\n0,1\n0,1\n")
    (tmp_path / "split.json").write_text(json.dumps({"train": train_ids, "val": [2],
                                                     "test": [3]}))
    return {flag: tmp_path / name for flag, name in (
        ("--edges", "edges.txt"), ("--labels", "labels.txt"),
        ("--features", "features.csv"), ("--split", "split.json"))}


def run_on_path(command, files, out):
    if command == "estimate-h":
        files = {k: v for k, v in files.items() if k != "--features"}
    return run_cli(command, *(x for item in files.items() for x in item), "--out-dir", out)


@pytest.mark.parametrize("train_ids", [[0, 1, 9], [-1, 0, 1], [0, 10**20]])
def test_estimate_h_rejects_split_ids_outside_the_graph(tmp_path, train_ids):
    proc = run_on_path("estimate-h", path_split_args(tmp_path, train_ids), tmp_path / "out")
    assert proc.returncode == 1
    assert proc.stderr == "error: split index out of range\n"
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("train_ids", [[0.9, 1.2], [True, 0], ["1", 0]])
@pytest.mark.parametrize("command", ["train", "estimate-h"])
def test_split_ids_must_be_json_integers(tmp_path, command, train_ids):
    proc = run_on_path(command, path_split_args(tmp_path, train_ids), tmp_path / "out")
    assert proc.returncode == 1
    assert proc.stderr == "error: split 'train' must be a list of integer node ids\n"
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "estimate-h"])
def test_malformed_split_file_names_its_path(tmp_path, command):
    files = path_split_args(tmp_path, [0, 1])
    files["--split"].write_text('{"train": [0')
    proc = run_on_path(command, files, tmp_path / "out")
    assert proc.returncode == 1
    assert proc.stderr == (f"error: {files['--split']}: Expecting ',' delimiter: "
                           "line 1 column 13 (char 12)\n")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


def test_train_flag_defaults_are_the_train_config_defaults():
    from dataclasses import fields

    from unifilter.cli import build_parser

    args = build_parser().parse_args(["train", "--edges", "e", "--features", "f",
                                      "--labels", "l", "--split", "s", "--out-dir", "o"])
    # Each TrainConfig field and the `train` flag that feeds it (cmd_train).
    feeds = {f.name: f.name for f in fields(TrainConfig)}
    feeds["h_hat"] = "hom_ratio"
    defaults = TrainConfig()
    for field, flag in feeds.items():
        assert getattr(args, flag) == getattr(defaults, field), (field, flag)


@pytest.mark.parametrize("command", ["train", "basis", "energy"])
def test_hom_ratio_out_of_range_exits_two_in_every_command(toy_dir, tmp_path, command):
    out = tmp_path / "out"
    args = {
        "train": toy_train_args(toy_dir, out),
        "basis": ["basis", "--edges", toy_dir / "edges.txt",
                  "--features", toy_dir / "features.csv", "--mode", "uni", "--out-dir", out],
        "energy": ["energy", *toy_data_args(toy_dir), "--k-max", 2, "--out-dir", out],
    }[command]
    proc = run_cli(*args, "--hom-ratio", 1.5)
    assert proc.returncode == 2
    assert proc.stderr == "error: hom-ratio must be in [0,1]\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("train", "--search", -1, "search must be >= 0"),
    ("splits", "--num-splits", 0, "num-splits must be >= 1"),
    ("ablate", "--num-seeds", 0, "num-seeds must be >= 1"),
    ("squash", "--num-seeds", 0, "num-seeds must be >= 1"),
    ("synth", "--feature-dim", 0, "feature-dim must be >= 1"),
    ("tree", "--feature-dim", 0, "feature-dim must be >= 1"),
    ("tree", "--classes", 0, "classes must be >= 1"),
    ("squash", "--feature-dim", 0, "feature-dim must be >= 1"),
    ("squash", "--classes", 0, "classes must be >= 1"),
    ("energy", "--k-max", 0, "k-max must be >= 1"),
    ("energy", "--tau-grid", "a,b", "tau-grid must be comma-separated float values, got 'a,b'"),
    ("energy", "--tau-grid", "", "tau-grid must be comma-separated float values, got ''"),
    ("squash", "--k-grid", "x", "k-grid must be comma-separated int values, got 'x'"),
    ("train", "--tau-preset", "nope", "no tau preset for 'nope'; known: ['actor', 'chameleon', "
     "'citeseer', 'cora', 'genius', 'ogbn-arxiv', 'penn94', 'pubmed', 'squirrel']"),
    # Values TrainConfig rejects, with its own message, before any input is read.
    ("train", "--hidden", 0, "hidden must be >= 1"),
    ("train", "--max-epochs", 0, "max_epochs must be >= 1"),
    ("train", "--layers", 7, "layers must lie in [2, 6]"),
    ("train", "--patience", 0, "patience must be >= 1"),
    ("train", "--lr", -1, "lr must be >= 0"),
    ("train", "--dropout", 1.0, "dropout must be < 1"),
    ("train", "--lr", "nan", "lr must be finite"),
    ("train", "--weight-decay", -1, "weight_decay must be >= 0"),
    ("train", "--dropout", "nan", "dropout must be finite"),
    ("basis", "--hops", -1, "hops must be >= 0"),
    ("ablate", "--hidden", 0, "hidden must be >= 1"),
    ("tree", "--depth", 1, "depth must be >= 2"),
    ("squash", "--depth", 1, "depth must be >= 2"),
    ("splits", "--nodes", 4, "nodes must be >= 5"),
    ("squash", "--k-grid", "2,-1", "k-grid entry must be >= 0"),
    ("synth", "--tolerance", -1, "tolerance must be in [0,1]")])
def test_bad_count_and_grid_flags_exit_two(toy_dir, tmp_path, command, flag, value, message):
    out = tmp_path / "out"
    args = {
        "train": toy_train_args(toy_dir, out),
        "basis": ["basis", "--edges", toy_dir / "edges.txt", "--features",
                  toy_dir / "features.csv", "--mode", "homo", "--out-dir", out],
        "splits": ["splits", "--nodes", 20, "--out-dir", out],
        "synth": ["synth", "--target", 0.5, "--planted-nodes", 50, "--out-dir", out],
        "tree": ["tree", "--depth", 3, "--out-dir", out],
        "ablate": ["ablate", *toy_data_args(toy_dir), "--out-dir", out],
        "energy": ["energy", *toy_data_args(toy_dir), "--k-max", 2, "--out-dir", out],
        "squash": ["squash", "--depth", 3, "--out-dir", out],
    }[command]
    proc = run_cli(*args, flag, value)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["basis", "train"])
def test_warnings_print_as_one_line(toy_dir, tmp_path, command):
    if command == "basis":
        # A 12-cycle is regular, so the constant column is a fixed point of P
        # and its Krylov subspace is exhausted at hop 1.
        edges = tmp_path / "cycle.txt"
        edges.write_text("".join(f"{i} {(i + 1) % 12}\n" for i in range(12)))
        features = tmp_path / "features.csv"
        X = np.column_stack([stream(3, "warn").standard_normal(12), np.ones(12)])
        np.savetxt(features, X, delimiter=",")
        args = ["basis", "--edges", edges, "--features", features, "--mode", "hetero",
                "--hom-ratio", 0.3, "--hops", 3, "--out-dir", tmp_path / "out"]
        expected = "warning: 1 column(s) froze after Krylov exhaustion\n"
    else:
        edges = tmp_path / "edges.txt"
        edges.write_text((toy_dir / "edges.txt").read_text() + "3 3\n")
        args = toy_train_args(toy_dir, tmp_path / "out")
        args[args.index("--edges") + 1] = edges
        expected = f"warning: {edges}: dropped 1 self-loop line(s)\n"
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == expected


def test_main_gives_in_process_callers_their_warning_handler_back(toy_dir, tmp_path, capsys):
    import warnings

    from unifilter.cli import main

    edges = tmp_path / "edges.txt"
    edges.write_text((toy_dir / "edges.txt").read_text() + "3 3\n")
    args = [str(a) for a in toy_train_args(toy_dir, tmp_path / "out")]
    args[args.index("--edges") + 1] = str(edges)
    before = warnings.showwarning
    assert main(args) == 0
    assert warnings.showwarning is before
    assert capsys.readouterr().err == f"warning: {edges}: dropped 1 self-loop line(s)\n"


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("command", ["train", "basis", "spectrum", "estimate-h", "ablate",
                                     "energy", "synth"])
def test_manifest_digests_exactly_the_input_files(toy_dir, toy_run, tmp_path, command):
    edges, features, labels, split = (toy_dir / f for f in
                                       ("edges.txt", "features.csv", "labels.txt", "split.json"))
    checkpoint = toy_run / "checkpoint.json"
    data = toy_data_args(toy_dir)
    out = tmp_path / "out"
    args, inputs = {
        "train": (toy_train_args(toy_dir, out)[:-2], [edges, features, labels, split]),
        "basis": (["basis", "--edges", edges, "--features", features, "--mode", "homo",
                   "--hops", 2], [edges, features]),
        "spectrum": (["spectrum", "--checkpoint", checkpoint, *data],
                     [checkpoint, edges, features, labels]),
        "estimate-h": (["estimate-h", "--edges", edges, "--labels", labels, "--split", split],
                       [edges, labels, split]),
        "ablate": (["ablate", *data, "--hops", 2, "--hidden", 4, "--max-epochs", 5,
                    "--patience", 5, "--num-seeds", 1], [edges, features, labels]),
        "energy": (["energy", *data, "--tau-grid", "0.5", "--k-max", 2],
                   [edges, features, labels]),
        "synth": (["synth", "--target", 0.5, "--tolerance", 0.5, "--feature-dim", 2,
                   "--base-edges", edges, "--base-labels", labels], [edges, labels]),
    }[command]
    proc = run_cli(*args, "--out-dir", out)
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["inputs"] == {str(p): _sha256(p) for p in inputs}


# The config keys of checkpoints written before the config held every
# TrainConfig field.
OLDER_CHECKPOINT_KEYS = ("hops", "tau", "basis", "h_hat", "hidden", "layers", "dropout",
                         "self_loops", "raw_homophily", "reortho", "seed")


def run_spectrum(toy_dir, checkpoint, out):
    return run_cli("spectrum", "--checkpoint", checkpoint, *toy_data_args(toy_dir),
                   "--out-dir", out)


def test_checkpoint_config_is_the_resolved_train_config(toy_run):
    config = json.loads((toy_run / "checkpoint.json").read_text())["config"]
    h_hat = json.loads((toy_run / "report.json").read_text())["h_hat"]
    assert config == asdict(TrainConfig(hops=3, tau=0.5, lr=0.05, hidden=8, patience=50,
                                        max_epochs=200, seed=1, h_hat=h_hat))


# Config fields of the wrong type or range, each of which TrainConfig rejects.
BAD_CONFIG = {"string-h_hat": {"h_hat": "0.5"}, "list-h_hat": {"h_hat": [0.5]},
              "above-one-h_hat": {"h_hat": 1.5}, "float-hops": {"hops": 2.0},
              "bool-hops-and-h_hat": {"hops": True, "h_hat": True},
              "string-reortho": {"reortho": "no"}, "int-self_loops": {"self_loops": 1}}


@pytest.mark.parametrize("case", ["extra-key", "no-h_hat", "null-h_hat", *BAD_CONFIG])
def test_spectrum_rejects_a_bad_checkpoint_config_in_one_line(toy_dir, toy_run, tmp_path,
                                                              case):
    ckpt = json.loads((toy_run / "checkpoint.json").read_text())
    if case == "extra-key":
        ckpt["config"]["momentum"] = 0.9
    elif case == "no-h_hat":
        del ckpt["config"]["h_hat"]
    elif case == "null-h_hat":
        ckpt["config"]["h_hat"] = None
    else:
        ckpt["config"].update(BAD_CONFIG[case])
        # The hop weights fit the hop count, so only the config's types are wrong.
        ckpt["w"] = ckpt["w"][:int(ckpt["config"]["hops"]) + 1]
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(ckpt))
    proc = run_spectrum(toy_dir, path, tmp_path / "out")
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: "), proc.stderr
    if case in BAD_CONFIG:
        assert proc.stderr.startswith(f"error: {path}: bad config: "), proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["no-layers", "no-w", "short-weights", "broken-chain",
                                  "non-finite", "not-json", "hop-count", "feature-width"])
def test_spectrum_rejects_a_bad_checkpoint_payload_in_one_line(toy_dir, toy_run, tmp_path,
                                                               case):
    ckpt = json.loads((toy_run / "checkpoint.json").read_text())
    first, second = ckpt["layers"]
    if case in ("no-layers", "no-w"):
        del ckpt[case[3:]]
        expected = "checkpoint must hold 'w' and 'layers'"
    elif case == "short-weights":
        second["weights"].pop()
        expected = "layer 1 'weights' must be a list of"
    elif case == "broken-chain":
        # Layer 0 stays consistent on its own; only the chaining breaks.
        first["cols"] = first["cols"] - 1
        first["weights"] = first["weights"][:first["rows"] * first["cols"]]
        first["bias"].pop()
        expected = "layer 1 has"
    elif case == "non-finite":
        second["bias"][0] = float("nan")
        expected = "checkpoint holds a non-finite value"
    elif case == "hop-count":
        ckpt["w"].pop()
        expected = "3 hop weights, but config hops 3 needs 4"
    elif case == "feature-width":
        # A consistent checkpoint for 5 feature columns; the toy file has 2.
        first["weights"] += [0.0] * (3 * first["cols"])
        first["rows"] += 3
        expected = f"first layer takes 5 features, {toy_dir / 'features.csv'} has 2 columns"
    else:
        expected = "Expecting value"
    path = tmp_path / "checkpoint.json"
    path.write_text("not json" if case == "not-json" else json.dumps(ckpt))
    proc = run_spectrum(toy_dir, path, tmp_path / "out")
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith(f"error: {path}: ") and expected in proc.stderr, proc.stderr
    assert not (tmp_path / "out").exists()


def test_spectrum_reads_a_checkpoint_with_the_older_keys(toy_dir, toy_run, tmp_path):
    ckpt = json.loads((toy_run / "checkpoint.json").read_text())
    assert set(OLDER_CHECKPOINT_KEYS) < set(ckpt["config"])
    ckpt["config"] = {k: ckpt["config"][k] for k in OLDER_CHECKPOINT_KEYS}
    (tmp_path / "older.json").write_text(json.dumps(ckpt))
    assert run_spectrum(toy_dir, toy_run / "checkpoint.json", tmp_path / "full").returncode == 0
    assert run_spectrum(toy_dir, tmp_path / "older.json", tmp_path / "older").returncode == 0
    assert ((tmp_path / "older" / "spectrum.csv").read_bytes()
            == (tmp_path / "full" / "spectrum.csv").read_bytes())


def test_version_flag_reports_the_package_version():
    import unifilter

    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == unifilter.__version__


def test_pyproject_version_matches_the_package():
    import unifilter

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == unifilter.__version__


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc thread listing")
def test_thread_cap_applies_before_numpy_loads():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS")}
    env["UNIFILTER_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, unifilter; print(len(os.listdir('/proc/self/task')))"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_cold_start_never_imports_scipy_sparse(toy_dir, tmp_path):
    """A `train` run loads only scipy's compiled CSR kernel, never the Python
    layer of scipy.sparse, nor numpy.f2py, which that layer imports."""
    args = [str(a) for a in toy_train_args(toy_dir, tmp_path / "run")]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, unifilter.cli\n"
         f"code = unifilter.cli.main({args!r})\n"
         "print(code, sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy.f2py'))))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
