#!/usr/bin/env python3
"""Benchmark of the unifilter CLI: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the directory that holds
src/unifilter and BENCHMARK.json):

    python3 perfbench/run.py --workload cora-train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sparse-large --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload tree-squash --seed 1 --seconds 1 --trace 0 --smoke
    python3 perfbench/run.py --compare parent.txt change.txt

With --trace 0 every CLI invocation runs untraced in a fresh subprocess and
the end-to-end metrics of BENCHMARK.json are reported; with --trace 1
traced and untraced operations alternate and the per-layer metrics are
reported. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full record (fingerprint, input digests, sizes, per-operation times) that
--compare reads. Inputs are generated from --seed before any timing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import compare
import layers
from workloads import REPRODUCED, SMOKE, WORKLOADS

HERE = Path(__file__).resolve().parent
# Every child gets the same fixed thread count. One thread: on a shared
# two-core machine two OpenBLAS threads ran the sparse-large operation 3x
# slower whenever any other process wanted a core, one thread 1.1x.
THREADS = 1
# Set-up probes per run: at least SETUP_REPS, and more while they take
# under SETUP_SECONDS in total, so that a short set-up gets a steadier median.
SETUP_REPS = 3
SETUP_SECONDS = 4.0
# Untraced operations per run, at least: the rerun check needs two on the
# same inputs. More run while the --seconds window lasts.
MIN_OPS = 2
# Whole-run budget: children still running at this point are killed.
BUDGET_S = 170.0


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in ("UNIFILTER_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def run_child(argv: list[str], env: dict, log: Path, timeout: float) -> tuple[int, float, float]:
    """Run one child process to its end; return (exit code, wall s, peak RSS MiB)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def fingerprint() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "unifilter_threads": THREADS,
            "llc_bytes": last_level_cache_bytes()}


def last_level_cache_bytes() -> int | None:
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        best = max(best, (level, value))
    return best[1]


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, root: Path, workload, seed: int) -> None:
        self.w, self.seed = workload, seed
        self.deadline = time.monotonic() + BUDGET_S
        self.env = child_env(root)
        self.work = root / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.indir = self.work / "inputs"
        self.attempted = 0
        self.failed: set[str] = set()  # failed invocations, as "op<i>/<label>"
        self.problems: list[str] = []
        self.peak_rss = 0.0

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def fail(self, invocation: str, message: str) -> None:
        self.failed.add(invocation)
        self.problems.append(f"{invocation}: {message}")
        print(f"FAIL {invocation}: {message}", file=sys.stderr)

    def setup_wall(self, index: int) -> float:
        argv = [sys.executable, str(HERE / "setup_probe.py"),
                *self.w.setup_args(self.indir)]
        log = self.work / f"setup{index}.log"
        code, wall, _ = run_child(argv, self.env, log, self.left())
        if code != 0:  # counted as a failed operation, so attempted stays >= failed
            self.attempted += 1
            self.fail(f"setup{index}", f"set-up probe exited {code}\n{_tail(log)}")
        return wall

    def operation(self, index: int, traced: bool) -> tuple[float, Path, list[Path]]:
        """Run the workload's CLI invocations once; return (wall s, out dir, span files)."""
        opdir = self.work / f"op{index}"
        opdir.mkdir(parents=True)
        wall, spans = 0.0, []
        for label, args in self.w.invocations(self.indir, opdir, self.seed):
            self.attempted += 1
            if traced:
                spans.append(opdir / f"{label}.spans.json")
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans[-1]), *args]
            else:
                argv = [sys.executable, "-m", "unifilter", *args]
            log = opdir / f"{label}.log"
            code, seconds, rss = run_child(argv, self.env, log, self.left())
            wall += seconds
            self.peak_rss = max(self.peak_rss, rss)
            problems = [f"exit code {code}"] if code != 0 else self.w.check(label, opdir / label)
            if problems:
                self.fail(f"op{index}/{label}", f"{'; '.join(problems)}\n{_tail(log)}")
                break
        return wall, opdir, spans

    def check_reruns(self, opdirs: list[Path]) -> None:
        """Every operation ran on the same inputs, so its files must match op 0's."""
        for opdir in opdirs[1:]:
            for ref in sorted(opdirs[0].rglob("*")):
                if ref.name in REPRODUCED:
                    other = opdir / ref.relative_to(opdirs[0])
                    if not other.is_file() or other.read_bytes() != ref.read_bytes():
                        self.fail(f"{opdir.name}/{other.parent.name}",
                                  f"{other.name} differs from the first run's")

    def check_acc(self, opdir: Path, acc: float, bound: float) -> None:
        pinned = self.w.pinned_acc
        if pinned is not None and abs(acc - pinned) > bound * pinned:
            label = self.w.invocations(self.indir, opdir, self.seed)[0][0]
            self.fail(f"{opdir.name}/{label}",
                      f"acc {acc!r} is not within {bound:.0%} of the pinned {pinned!r}")


def _tail(log: Path) -> str:
    return log.read_text(encoding="utf-8", errors="replace")[-400:]


def measure(runner: Runner, seconds: float, trace: bool, acc_bound: float) -> dict[str, float]:
    """Run operations for `seconds` and return the metric values.

    Untraced runs make at least MIN_OPS operations; traced runs at least one
    untraced and one traced operation.
    """
    setup: list[float] = []
    while not trace and not runner.problems and (
            len(setup) < SETUP_REPS or sum(setup) < SETUP_SECONDS and len(setup) < 15):
        setup.append(runner.setup_wall(len(setup)))
    walls, traced_walls, opdirs, per_op = [], [], [], []
    window = time.monotonic()
    index = 0
    # With tracing, untraced and traced operations alternate in pairs.
    while not runner.problems:
        traced = trace and index % 2 == 1
        wall, opdir, spans = runner.operation(index, traced)
        index += 1
        opdirs.append(opdir)
        (traced_walls if traced else walls).append(wall)
        if runner.problems:
            break
        if traced:
            per_op.append(layers.op_metrics(spans))
        elif trace:
            continue
        last = wall + (walls[-1] if traced else 0.0)
        enough = index >= 2 if trace else index >= MIN_OPS
        if enough and (time.monotonic() - window >= seconds
                       or runner.left() < 1.5 * last + 5):
            break
    if runner.problems:
        return {}
    runner.check_reruns(opdirs)
    acc = runner.w.acc(opdirs[0])
    runner.check_acc(opdirs[0], acc, acc_bound)
    print(f"operations={index} walls_s={[round(w, 4) for w in walls + traced_walls]}")
    if not trace:
        return {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
                "peak_rss_mib": runner.peak_rss, "acc": acc}
    for name in layers.EXACT_COUNTS:
        if len({m[name] for m in per_op}) > 1:
            runner.fail(f"{opdirs[-1].name}/traced",
                        f"{name} differs between traced runs: {[m[name] for m in per_op]}")
    out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    out["trace.wall_s"] = statistics.median(traced_walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(walls)
    out["trace.overhead_share"] = out["trace.overhead_s"] / statistics.median(walls)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small shapes, same code paths")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two files of saved benchmark output")
    args = parser.parse_args(argv)
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        parser.error("run from the repository root: BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.compare:
        print(compare.report(*args.compare, spec))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (root / "src" / "unifilter" / "cli.py").is_file():
        print("error: src/unifilter not found; run from the root of a unifilter checkout",
              file=sys.stderr)
        return 2

    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    runner = Runner(root, workload, args.seed)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    acc_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "acc")
    try:
        runner.work.mkdir(parents=True)
        t0 = time.perf_counter()
        digests = workload.generate(args.seed, runner.indir)
        generate_s = time.perf_counter() - t0
        # Untimed warm-up: byte-compiles the package and fills the file cache.
        run_child([sys.executable, "-c", "import unifilter"], runner.env,
                  runner.work / "warmup.log", runner.left())
        values = measure(runner, args.seconds, bool(args.trace), acc_bound)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        try:
            runner.work.parent.rmdir()
        except OSError:
            pass

    failed = len(runner.failed)
    # A run that measured must yield every metric; a failed one reports zeros.
    metrics = {name: {"value": values[name] if values else 0.0, "unit": unit}
               for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    error_rate = failed / max(runner.attempted, 1)
    print(f"error_rate = {error_rate!r} (failed {failed} of {runner.attempted} invocations)")
    result = {"correct": not runner.problems and bool(values), "attempted": runner.attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "seconds": args.seconds, "fingerprint": fingerprint(),
              "inputs": digests, "sizes": workload.sizes(), "generate_s": generate_s,
              "error_rate": error_rate, "problems": runner.problems, "result": result}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
