"""The library's public names. Adding or removing one is an API change, made
here on purpose."""

import types

import unifilter

PUBLIC = {
    "BasisTensor", "angle_law_deviation", "basis_spectrum", "export_basis", "make_basis",
    "orthonormality_deviation",
    "SynthSpec", "TreeSpec", "ablation_basis_variants", "binary_tree_dataset",
    "energy_trajectory", "make_splits", "oversquashing_experiment", "planted_homophily_graph",
    "synth_variable_h", "write_dataset",
    "Graph", "LabeledDataset", "PropagationOperator", "Split", "estimate_homophily",
    "homophily_ratio", "load_dataset", "load_graph", "propagation_operator",
    "FilterModel", "TrainConfig", "TrainReport", "gradient_check", "init_filter_model",
    "load_checkpoint", "random_search", "save_checkpoint", "train",
    "dirichlet_energy", "signal_frequency",
}


def test_public_names_are_the_pinned_set():
    # Submodules and the `os` the package imports are not API.
    names = {name for name, value in vars(unifilter).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC
