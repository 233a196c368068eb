"""The benchmark's own test: smoke runs of every workload, plus compare's verdicts.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the repository root. Each smoke run uses small shapes and the
same code paths as a full run; the whole file takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_without_errors(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert f"{name} = " in proc.stdout
    assert "error_rate = 0.0 " in proc.stdout
    record = json.loads(lines[-2])
    assert record["workload"] == workload and record["result"] == result
    assert {"nproc", "blas", "python", "numpy", "scipy", "unifilter_threads",
            "llc_bytes"} <= set(record["fingerprint"])
    assert {"csr_bytes_computed", "basis_bytes"} <= set(record["sizes"])


def test_same_seed_gives_same_input_digests():
    runs = [bench("--workload", "sparse-large", "--seed", str(s), "--seconds", "1",
                  "--smoke") for s in (5, 5, 6)]
    digests = [json.loads(p.stdout.splitlines()[-2])["inputs"] for p in runs]
    assert digests[0] == digests[1] != digests[2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "tree-squash", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert compare.verdict(parent, faster, True, 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, True, 0.1)[0] == "worse"
    assert compare.verdict(parent, list(parent), True, 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0]
    assert compare.verdict(noisy, list(reversed(noisy)), True, 0.1)[0] == "unresolved"
    assert compare.verdict(parent, list(parent), True, None)[0] == "unresolved"
