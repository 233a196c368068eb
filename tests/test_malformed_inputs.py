"""Malformed-input corpus for the command line: every command, each input-file
flag it takes, and each way that file can be broken. `cli.main` runs in
process, so a traceback shows as an exception escaping it."""

import json

import pytest

from unifilter import cli

EDGES = "".join(f"{i} {(i + 1) % 8}\n" for i in range(8)) + "0 4\n"
FEATURES = "".join(f"{1.0 - i / 8!r},{i / 8!r}\n" for i in range(8))
LABELS = "0\n0\n0\n0\n1\n1\n1\n1\n"
SPLIT = {"train": [0, 1, 4, 5], "val": [2, 6], "test": [3, 7]}
CHECKPOINT = {"w": [0.5, 0.25, 0.25], "config": {"hops": 2, "h_hat": 0.5},
              "layers": [{"rows": 2, "cols": 2, "weights": [0.1, 0.2, 0.3, 0.4],
                          "bias": [0.0, 0.0]}]}
NOT_UTF8 = b"0 1\n\xff\xfe 2\n"
GOOD = {"edges": EDGES, "features": FEATURES, "labels": LABELS, "split": json.dumps(SPLIT),
        "checkpoint": json.dumps(CHECKPOINT), "base_edges": EDGES, "base_labels": LABELS}


def _with(payload, value, *keys):
    """JSON text of `payload` with the entry at `keys` replaced by `value`."""
    root = node = json.loads(json.dumps(payload))
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return json.dumps(root)


# Each file kind's malformed contents, by case name.
BROKEN = {
    "edges": {"empty": "", "not-utf8": NOT_UTF8, "truncated": EDGES + "5",
              "ragged": EDGES + "5 6 7\n", "nan": EDGES + "0 nan\n",
              "out-of-range": EDGES + "0 8\n", "negative": EDGES + "-1 2\n"},
    "features": {"empty": "", "not-utf8": NOT_UTF8, "truncated": FEATURES[:FEATURES.rindex(",")],
                 "ragged": FEATURES + "0.5\n", "nan": FEATURES.replace("0.5,", "nan,"),
                 "too-few-rows": FEATURES.split("\n", 1)[1]},
    "labels": {"empty": "", "not-utf8": NOT_UTF8, "ragged": LABELS + "0 1\n",
               "nan": LABELS.replace("1\n", "nan\n", 1), "negative": LABELS + "-1\n",
               "too-few": LABELS[:-4], "float": LABELS.replace("1\n", "0.5\n", 1)},
    "split": {"empty": "", "not-utf8": NOT_UTF8, "truncated": json.dumps(SPLIT)[:-7],
              "string-id": _with(SPLIT, [0, 1, 4, "5"], "train"),
              "bool-id": _with(SPLIT, [2, True], "val"),
              "float-id": _with(SPLIT, [3.0, 7], "test"),
              "not-a-list": _with(SPLIT, {"0": 1}, "train"),
              "missing-key": json.dumps({"train": [0, 1], "val": [2]}),
              "not-an-object": json.dumps([0, 1, 2]),
              "out-of-range": _with(SPLIT, [3, 8], "test"),
              "negative": _with(SPLIT, [3, -1], "test"),
              "beyond-int64": _with(SPLIT, [3, 2 ** 70], "test")},
    "checkpoint": {"empty": "", "not-utf8": NOT_UTF8,
                   "truncated": json.dumps(CHECKPOINT)[:-9],
                   "string-w": _with(CHECKPOINT, "0.5", "w", 0),
                   "bool-bias": _with(CHECKPOINT, True, "layers", 0, "bias", 0),
                   "string-weights": _with(CHECKPOINT, "0.2", "layers", 0, "weights", 1),
                   "null-w": _with(CHECKPOINT, None, "w", 1),
                   "nan-w": _with(CHECKPOINT, float("nan"), "w", 1),
                   "beyond-float": _with(CHECKPOINT, 10 ** 400, "w", 1),
                   "layers-object": _with(CHECKPOINT, {"0": 1}, "layers")},
}
BROKEN["base_edges"], BROKEN["base_labels"] = BROKEN["edges"], BROKEN["labels"]

# Each command's input-file flags and its other flags, sized to run in milliseconds.
COMMANDS = {
    "train": (("edges", "features", "labels", "split"),
              ["--hops", "1", "--hidden", "4", "--max-epochs", "2", "--patience", "2"]),
    "basis": (("edges", "features"), ["--mode", "uni", "--hops", "1", "--hom-ratio", "0.5"]),
    "spectrum": (("checkpoint", "edges", "features", "labels"), []),
    "energy": (("edges", "features", "labels"), ["--tau-grid", "0.5", "--k-max", "1"]),
    "ablate": (("edges", "features", "labels"),
               ["--hops", "1", "--hidden", "4", "--max-epochs", "2", "--patience", "2",
                "--num-seeds", "1"]),
    "estimate-h": (("edges", "labels", "split"), []),
    "synth": (("base_edges", "base_labels"),
              ["--target", "0.5", "--tolerance", "0.5", "--feature-dim", "2"]),
}
# An empty edge file is a graph with no edges: estimate-h falls back with a
# warning by design.
CLEAN = {("estimate-h", "edges", "empty")}
CASES = [(command, None, None) for command in COMMANDS]
CASES += [(command, flag, case) for command, (flags, _) in COMMANDS.items() for flag in flags
          for case in BROKEN[flag] if (command, flag, case) not in CLEAN]


@pytest.mark.parametrize("command, flag, case", CASES, ids=lambda v: str(v))
def test_a_malformed_input_file_exits_in_one_stderr_line(tmp_path, capsys, command, flag, case):
    flags, extra = COMMANDS[command]
    argv = [command, *extra, "--out-dir", str(tmp_path / "out")]
    for name in flags:
        content = BROKEN[name][case] if name == flag else GOOD[name]
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        argv += [f"--{name.replace('_', '-')}", str(path)]
    code = cli.main(argv)
    err = capsys.readouterr().err
    if flag is None:  # the well-formed inputs, so that each broken one is what fails
        assert (code, err) == (0, "")
    else:
        assert code in (1, 2), (code, err)
        assert err.count("\n") == 1 and err.startswith("error: "), err
        if case == "not-utf8":
            assert str(tmp_path / flag) in err, err
