"""Run one unifilter CLI command with spans around the package's public calls.

    python3 perfbench/traced_cli.py SPANS.json <unifilter arguments...>

The package itself is not changed: after import, each public function
listed in TRACED is replaced, in every unifilter module that holds it, by
a wrapper that records a span (name, start, end, parent span) and a few
counts read from its arguments or result. `PropagationOperator.apply` is
wrapped at the class, so every sparse product is seen whoever calls it.
Spans stay in memory and are written to SPANS.json when the command ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

_T0 = time.perf_counter()
import unifilter.cli  # noqa: E402  (the import itself is measured)

IMPORT_S = time.perf_counter() - _T0

# Public calls per layer (module). Calls into a module that the package
# makes through a private helper are covered by the public caller's span.
TRACED = {
    "graph": ("load_graph", "load_features", "load_labels", "load_split", "load_dataset",
              "propagation_operator", "estimate_homophily"),
    "basis": ("homophily_basis", "orthonormal_basis", "heterophily_basis", "unibasis",
              "basis_spectrum"),
    "spectral": ("matrix_frequencies",),
    "model": ("build_basis", "train", "forward", "evaluate", "save_checkpoint",
              "load_checkpoint", "random_search"),
    "datasets": ("binary_tree_dataset", "oversquashing_experiment",
                 "ablation_basis_variants", "energy_trajectory"),
}


class Tracer:
    """In-memory span recorder; spans nest by call order (one thread)."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, counts]
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counts=None, measure_memory: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
            self.spans.append(span)
            self._stack.append(index)
            own_tracemalloc = measure_memory and not tracemalloc.is_tracing()
            if own_tracemalloc:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if own_tracemalloc:
                    span[4]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if counts is not None:
                span[4].update(counts(args, kwargs, result))
            return result

        return traced


def _apply_counts(args, kwargs, result) -> dict:
    op, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    n = op.graph.n
    cols = 1 if x.ndim == 1 else int(x.shape[1])
    nnz = int(op.graph.indptr[-1]) + (n if op.kind == "self-loops" else 0)
    # Computed, not measured: float64 values and int32 indices of the CSR
    # matrix read once, the input block read once, the output block written.
    csr = nnz * (8 + 4) + (n + 1) * 4
    return {"cols": cols, "bytes": csr + 2 * n * cols * 8}


def _load_graph_counts(args, kwargs, result) -> dict:
    return {"edges": int(result.m)}


def _basis_counts(args, kwargs, result) -> dict:
    return {"result_bytes": int(result.matrices.nbytes)}


def _train_counts(args, kwargs, result) -> dict:
    report = result[0] if isinstance(result, tuple) else result
    return {"epochs": int(report.epochs_run)}


COUNTS = {"load_graph": _load_graph_counts, "unibasis": _basis_counts,
          "train": _train_counts}


def install(tracer: Tracer) -> None:
    modules = [m for name, m in sys.modules.items()
               if name == "unifilter" or name.startswith("unifilter.")]
    for layer, names in TRACED.items():
        home = sys.modules[f"unifilter.{layer}"]
        for name in names:
            original = getattr(home, name, None)
            if original is None:  # a later version may drop a function
                continue
            wrapper = tracer.wrap(f"{layer}.{name}", original, COUNTS.get(name),
                                  measure_memory=name == "unibasis")
            # Rebind every alias (e.g. model.unibasis, datasets.train) too.
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
    cls = sys.modules["unifilter.graph"].PropagationOperator
    cls.apply = tracer.wrap("graph.apply", cls.apply, _apply_counts)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    run = tracer.wrap("cli.main", unifilter.cli.main)
    try:
        return run(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
