"""Per-layer metrics from the span files that traced_cli.py writes.

A layer is a module of the package. A layer's self time is the duration
of its spans minus the part covered by their child spans, so the self
times of all layers add up to the traced command's run time. Sums are
over every CLI invocation of one operation (e.g. train then spectrum).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

LAYERS = ("cli", "graph", "basis", "spectral", "model", "datasets")
HARNESSES = ("datasets.oversquashing_experiment", "datasets.ablation_basis_variants",
             "datasets.energy_trajectory")

# Counts that must repeat exactly between traced runs of one operation.
EXACT_COUNTS = ("graph.apply_calls", "graph.apply_cols", "model.epochs",
                "datasets.train_calls", "datasets.apply_calls", "datasets.epochs")


def op_metrics(span_files: list[Path]) -> dict[str, float]:
    """Per-layer metrics of one operation from its invocations' span files."""
    m = dict.fromkeys(
        ["graph.load_graph_s", "graph.load_features_s", "graph.operator_s",
         "graph.apply_calls", "graph.apply_cols", "graph.apply_s",
         "graph.apply_bytes_computed", "basis.homophily_s", "basis.heterophily_s",
         "basis.unibasis_s", "basis.result_mib", "basis.peak_mib", "model.train_s",
         "model.epochs", "spectral.basis_spectrum_s", "datasets.harness_s",
         "datasets.train_calls", "datasets.apply_calls", "datasets.epochs"]
        + [f"{layer}.self_s" for layer in LAYERS], 0.0)
    edges = apply_in_unibasis = harness_train_s = 0.0
    forward_s: list[float] = []
    imports: list[float] = []
    for path in span_files:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        imports.append(data["import_s"])
        spans = data["spans"]
        dur = [end - start for _, start, end, _, _ in spans]
        covered = [0.0] * len(spans)
        basis_in_train = [0.0] * len(spans)
        for i, (name, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                covered[parent] += dur[i]
                if name == "model.build_basis":
                    basis_in_train[parent] += dur[i]
        for i, (name, _, _, parent, counts) in enumerate(spans):
            m[f"{name.split('.')[0]}.self_s"] += dur[i] - covered[i]
            ancestors = set()
            while parent >= 0:
                ancestors.add(spans[parent][0])
                parent = spans[parent][3]
            in_harness = not ancestors.isdisjoint(HARNESSES)
            if name == "graph.load_graph":
                m["graph.load_graph_s"] += dur[i]
                edges += counts["edges"]
            elif name == "graph.load_features":
                m["graph.load_features_s"] += dur[i]
            elif name == "graph.propagation_operator":
                m["graph.operator_s"] += dur[i]
            elif name == "graph.apply":
                m["graph.apply_calls"] += 1
                m["graph.apply_cols"] += counts["cols"]
                m["graph.apply_s"] += dur[i]
                m["graph.apply_bytes_computed"] += counts["bytes"]
                if "basis.unibasis" in ancestors:
                    apply_in_unibasis += dur[i]
                if in_harness:
                    m["datasets.apply_calls"] += 1
            elif name == "basis.homophily_basis":
                m["basis.homophily_s"] += dur[i]
            elif name == "basis.heterophily_basis":
                m["basis.heterophily_s"] += dur[i]
            elif name == "basis.unibasis":
                m["basis.unibasis_s"] += dur[i]
                if counts["result_bytes"] >= m["basis.result_mib"] * 2**20:
                    m["basis.result_mib"] = counts["result_bytes"] / 2**20
                    m["basis.peak_mib"] = counts["peak_bytes"] / 2**20
            elif name == "basis.basis_spectrum":
                m["spectral.basis_spectrum_s"] += dur[i]
            elif name == "model.forward":
                forward_s.append(dur[i])
            elif name == "model.train":
                own = dur[i] - basis_in_train[i]
                m["model.train_s"] += own
                m["model.epochs"] += counts["epochs"]
                if in_harness:
                    harness_train_s += own
                    m["datasets.train_calls"] += 1
                    m["datasets.epochs"] += counts["epochs"]
            elif name in HARNESSES:
                m["datasets.harness_s"] += dur[i]
    m["graph.edges_per_s"] = _ratio(edges, m["graph.load_graph_s"])
    m["graph.apply_gbps_computed"] = _ratio(m["graph.apply_bytes_computed"] / 1e9,
                                            m["graph.apply_s"])
    m["basis.apply_share"] = _ratio(apply_in_unibasis, m["basis.unibasis_s"])
    m["basis.peak_ratio"] = _ratio(m["basis.peak_mib"], m["basis.result_mib"])
    m["model.forward_ms"] = 1e3 * statistics.median(forward_s) if forward_s else 0.0
    m["model.epoch_ms"] = 1e3 * _ratio(m["model.train_s"], m["model.epochs"])
    m["datasets.epoch_ms"] = 1e3 * _ratio(harness_train_s, m["datasets.epochs"])
    m["cli.import_s"] = statistics.fmean(imports)
    return m


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did no work in this workload."""
    return num / den if den else 0.0
