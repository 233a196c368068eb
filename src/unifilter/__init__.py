"""Adaptive polynomial graph filters with homophily-aware bases and spectral diagnostics."""

import os

__version__ = "0.1.0"


def _apply_thread_cap() -> None:
    """Let UNIFILTER_THREADS cap the numeric thread pools.

    The BLAS and OpenMP runtimes read their variables once, when numpy
    loads, so this runs before any submodule imports numpy.
    """
    cap = os.environ.get("UNIFILTER_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


_apply_thread_cap()

from .basis import (  # noqa: E402  (after the thread cap)
    BasisTensor,
    angle_law_deviation,
    basis_spectrum,
    export_basis,
    make_basis,
    orthonormality_deviation,
)
from .datasets import (
    SynthSpec,
    TreeSpec,
    ablation_basis_variants,
    binary_tree_dataset,
    energy_trajectory,
    make_splits,
    oversquashing_experiment,
    planted_homophily_graph,
    synth_variable_h,
    write_dataset,
)
from .graph import (
    Graph,
    LabeledDataset,
    PropagationOperator,
    Split,
    estimate_homophily,
    homophily_ratio,
    load_dataset,
    load_graph,
    propagation_operator,
)
from .model import (
    FilterModel,
    TrainConfig,
    TrainReport,
    gradient_check,
    init_filter_model,
    load_checkpoint,
    random_search,
    save_checkpoint,
    train,
)
from .spectral import (
    dirichlet_energy,
    signal_frequency,
)
