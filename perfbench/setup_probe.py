"""Set-up probe: import unifilter, load one workload's inputs, build its operator.

    python3 perfbench/setup_probe.py graph EDGES FEATURES LABELS SPLIT
    python3 perfbench/setup_probe.py tree DEPTH SEED

The benchmark times this whole process from outside, interpreter start
included, as the workload's set-up time.
"""

import sys

import unifilter


def main(argv: list[str]) -> None:
    if argv[0] == "graph":
        ds = unifilter.load_dataset(*argv[1:5])
    else:
        ds = unifilter.binary_tree_dataset(unifilter.TreeSpec(depth=int(argv[1]),
                                                              seed=int(argv[2])))
    unifilter.propagation_operator(ds.graph)


if __name__ == "__main__":
    main(sys.argv[1:])
