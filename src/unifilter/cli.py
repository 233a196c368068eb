"""Command-line frontend wiring loaders, bases, training, and diagnostics.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Machine-readable
stdout lines are key=value. Every output directory receives exactly one
manifest.json recording the resolved configuration, the seed, and input
file digests; reruns with an equal manifest and an equal BLAS thread count
produce byte-identical metric files (timestamps aside).

UNIFILTER_THREADS caps the numeric thread pools; the package applies it
when it is imported, before numpy loads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .basis import (HETEROPHILY, HOMOPHILY, ORTHONORMAL, UNI, angle_law_deviation, export_basis,
                    orthonormality_deviation)
from .datasets import (SynthSpec, TreeSpec, ablation_basis_variants, binary_tree_dataset,
                       energy_trajectory, make_splits, oversquashing_experiment,
                       planted_homophily_graph, synth_variable_h, write_dataset)
from .graph import (estimate_homophily, load_dataset, load_features, load_graph, load_labels,
                    load_split)
from .model import (SEARCH_SPACE, TrainConfig, build_basis, load_checkpoint, random_search,
                    save_checkpoint, spectrum, tau_preset, train)


class UsageError(Exception):
    """Flag or input validation failure; maps to exit code 2."""


# Flags that name input files: main checks that each given one exists and
# the manifest digests the same files. Unit-interval flags and count flags
# (with their least value) are checked by main in every command that has them.
FILE_FLAGS = ("checkpoint", "edges", "features", "labels", "split", "base_edges",
              "base_labels")
UNIT_FLAGS = ("tau", "hom_ratio", "target", "tolerance")
COUNT_FLAGS = {"search": 0, "num_splits": 1, "num_seeds": 1, "feature_dim": 1, "classes": 1,
               "k_max": 1, "depth": 2, "nodes": 5}
# The library's run settings, which the `train` and `basis` flags default to.
_DEFAULT = TrainConfig()


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _input_files(args: argparse.Namespace) -> list[str]:
    return [getattr(args, f) for f in FILE_FLAGS if getattr(args, f, None) is not None]


def _write_manifest(args: argparse.Namespace) -> None:
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": args.seed,
        "inputs": {p: _sha256(p) for p in _input_files(args)},
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    (Path(args.out_dir) / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_table(path: Path, header: str, rows) -> None:
    """Write a CSV table: the header line, one line per row with floats by repr
    (so they read back exactly), and a final newline."""
    lines = [header] + [",".join(repr(c) if isinstance(c, float) else str(c) for c in row)
                        for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _grid(text: str, kind: type, name: str) -> tuple:
    try:
        return tuple(kind(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"{name} must be comma-separated {kind.__name__} values, "
                         f"got {text!r}") from None


def _check_unit(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise UsageError(f"{name} must be in [0,1]")


def _config(args: argparse.Namespace, **given) -> TrainConfig:
    """The run's TrainConfig from the flags named after its fields (`--hom-ratio`
    feeds h_hat). A field with no flag keeps its default, and `given` overrides
    the flags. A value the config rejects is a usage error."""
    flags = {f.name: "hom_ratio" if f.name == "h_hat" else f.name for f in fields(TrainConfig)}
    values = {name: getattr(args, flag) for name, flag in flags.items() if hasattr(args, flag)}
    try:
        return TrainConfig(**{**values, **given})
    except (TypeError, ValueError) as exc:
        raise UsageError(exc) from None


def _load_dataset_args(args: argparse.Namespace):
    return load_dataset(args.edges, args.features, args.labels, getattr(args, "split", None))


def cmd_train(args: argparse.Namespace) -> int:
    given = {}
    if args.tau_preset is not None:
        try:
            given["tau"] = tau_preset(args.tau_preset)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
    cfg = _config(args, **given)
    ds = _load_dataset_args(args)
    if args.search:
        cfg, report, _, model = random_search(ds, cfg, trials=args.search, seed=args.seed)
        for key in SEARCH_SPACE:
            print(f"search_{key}={getattr(cfg, key)!r}")
    else:
        report, model = train(ds, cfg, return_model=True)
    out = _outdir(args)
    (out / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True), encoding="utf-8")
    _write_table(out / "loss_curve.csv", "epoch,train_loss,val_acc", report.loss_curve)
    save_checkpoint(model, asdict(replace(cfg, h_hat=report.h_hat)), out / "checkpoint.json")
    print(f"h_hat={report.h_hat!r}")
    print(f"best_val_acc={report.best_val_acc!r}")
    print(f"test_acc={report.test_acc!r}")
    return 0


def cmd_basis(args: argparse.Namespace) -> int:
    kind = {"homo": HOMOPHILY, "hetero": HETEROPHILY, "ortho": ORTHONORMAL,
            "uni": UNI}[args.mode]
    if kind in (HETEROPHILY, UNI) and args.hom_ratio is None:
        raise UsageError(f"--hom-ratio is required for mode {args.mode}")
    cfg = _config(args, basis=kind)
    X = load_features(args.features)
    g = load_graph(args.edges, X.shape[0])
    b = build_basis(g, X, cfg)
    export_basis(b, _outdir(args))
    if args.check:
        if args.mode == "hetero":
            off, diag = angle_law_deviation(b)
            print(f"max_offdiag_dev={off!r}")
            print(f"max_diag_dev={diag!r}")
        elif args.mode == "ortho":
            print(f"max_orthonormality_dev={orthonormality_deviation(b)!r}")
        else:
            print("check=not-applicable")
    print(f"hops={b.hops}")
    print(f"degenerate_columns={len(b.degenerate_columns)}")
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    model, ckcfg = load_checkpoint(args.checkpoint)
    try:
        cfg = TrainConfig(**ckcfg)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{args.checkpoint}: bad config: {exc}") from None
    if cfg.h_hat is None:
        raise ValueError(f"{args.checkpoint}: config has no h_hat")
    if args.hops is not None and args.hops != cfg.hops:
        raise UsageError(f"checkpoint was trained with K={cfg.hops}, got --hops {args.hops}")
    if model.w.shape[0] != cfg.hops + 1:
        raise ValueError(f"{args.checkpoint}: {model.w.shape[0]} hop weights, but config hops "
                         f"{cfg.hops} needs {cfg.hops + 1}")
    ds = _load_dataset_args(args)
    if model.weights[0].shape[0] != ds.features.shape[1]:
        raise ValueError(f"{args.checkpoint}: first layer takes {model.weights[0].shape[0]} "
                         f"features, {args.features} has {ds.features.shape[1]} columns")
    freqs = spectrum(ds.graph, ds.features, cfg)
    _write_table(_outdir(args) / "spectrum.csv", "hop,frequency,weight",
                 [(k, freqs[k], float(model.w[k])) for k in range(cfg.hops + 1)])
    print(f"rows={cfg.hops + 1}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if args.base_edges is not None or args.base_labels is not None:
        if args.base_edges is None or args.base_labels is None:
            raise UsageError("--base-edges and --base-labels go together")
        labels = load_labels(args.base_labels)
        g = load_graph(args.base_edges, labels.shape[0])
    else:
        g, labels = planted_homophily_graph(
            args.planted_nodes, args.planted_edges, args.planted_classes,
            args.planted_h, seed=args.seed)
    spec = SynthSpec(base_graph=g, base_labels=labels, target_h=args.target,
                     feature_dim=args.feature_dim, tolerance=args.tolerance,
                     seed=args.seed)
    ds, meta = synth_variable_h(spec)
    write_dataset(ds, _outdir(args), meta=meta)
    print(f"achieved_h={meta['achieved_h']!r}")
    print(f"reassignments={meta['reassignments']}")
    return 0


def cmd_tree(args: argparse.Namespace) -> int:
    ds = binary_tree_dataset(TreeSpec(depth=args.depth, feature_dim=args.feature_dim,
                                      num_classes=args.classes, seed=args.seed))
    write_dataset(ds, _outdir(args), meta={"depth": args.depth, "seed": args.seed,
                                           "num_classes": args.classes,
                                           "feature_dim": args.feature_dim})
    print(f"n={ds.graph.n}")
    print(f"m={ds.graph.m}")
    return 0


def cmd_splits(args: argparse.Namespace) -> int:
    splits = make_splits(args.nodes, args.regime, args.num_splits, args.seed)
    out = _outdir(args)
    for i, split in enumerate(splits):
        (out / f"split_{i}.json").write_text(json.dumps(split.to_dict()), encoding="utf-8")
    sizes = splits[0]
    print(f"sizes={len(sizes.train)}/{len(sizes.val)}/{len(sizes.test)}")
    return 0


def cmd_estimate_h(args: argparse.Namespace) -> int:
    labels = load_labels(args.labels)
    g = load_graph(args.edges, labels.shape[0])
    split = load_split(args.split)
    split.validate(g.n)
    h_hat = estimate_homophily(g, labels, split.train)
    if args.out_dir is not None:
        (_outdir(args) / "h_hat.json").write_text(json.dumps({"h_hat": h_hat}),
                                                  encoding="utf-8")
    print(f"h_hat={h_hat!r}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _config(args)
    ds = _load_dataset_args(args)
    table = ablation_basis_variants(ds, cfg, num_seeds=args.num_seeds,
                                    regime=args.regime)
    _write_table(_outdir(args) / "ablation.csv", "variant,mean_acc,gap_to_unifilter",
                 [(v, mean, table["gap"].get(v, 0.0)) for v, mean in table["mean"].items()])
    for variant, gap in table["gap"].items():
        print(f"gap_{variant}={gap!r}")
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    tau_grid = _grid(args.tau_grid, float, "tau-grid")
    for t in tau_grid:
        _check_unit(t, "tau-grid entry")
    ds = _load_dataset_args(args)
    rows = energy_trajectory(ds, tau_grid, args.k_max, h_hat=args.hom_ratio)
    _write_table(_outdir(args) / "energy.csv", "tau,k,energy", rows)
    print(f"rows={len(rows)}")
    return 0


def cmd_squash(args: argparse.Namespace) -> int:
    k_grid = _grid(args.k_grid, int, "k-grid")
    if min(k_grid) < 0:
        raise UsageError("k-grid entry must be >= 0")
    table = oversquashing_experiment(
        TreeSpec(depth=args.depth, feature_dim=args.feature_dim,
                 num_classes=args.classes, seed=args.seed),
        k_grid=k_grid, num_seeds=args.num_seeds)
    _write_table(_outdir(args) / "squash.csv", "model,k,mean_acc",
                 [(model, k, acc) for model, per_k in table["mean"].items()
                  for k, acc in per_k.items()])
    for model, per_k in table["mean"].items():
        accs = [per_k[k] for k in k_grid]
        print(f"spread_{model}={max(accs) - min(accs)!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="unifilter",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, out_required: bool = True) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", type=str, required=out_required)

    def add_files(p: argparse.ArgumentParser, *flags: str, required: bool = True) -> None:
        for flag in flags:
            p.add_argument(f"--{flag}", required=required)

    p = sub.add_parser("train", help="train a filter and report test accuracy")
    add_files(p, "edges", "features", "labels", "split")
    p.add_argument("--hops", type=int, default=_DEFAULT.hops)
    p.add_argument("--tau", type=float, default=_DEFAULT.tau)
    p.add_argument("--tau-preset", default=None,
                   help="take tau from the shipped per-dataset preset file")
    p.add_argument("--basis", choices=["uni", "homophily", "heterophily", "orthonormal"],
                   default=_DEFAULT.basis)
    p.add_argument("--search", type=int, default=0,
                   help="random-search trials over the standard ranges; "
                        "best trial by validation accuracy is reported")
    p.add_argument("--lr", type=float, default=_DEFAULT.lr)
    p.add_argument("--weight-decay", type=float, default=_DEFAULT.weight_decay)
    p.add_argument("--hidden", type=int, default=_DEFAULT.hidden)
    p.add_argument("--layers", type=int, default=_DEFAULT.layers)
    p.add_argument("--dropout", type=float, default=_DEFAULT.dropout)
    p.add_argument("--patience", type=int, default=_DEFAULT.patience)
    p.add_argument("--max-epochs", type=int, default=_DEFAULT.max_epochs)
    p.add_argument("--hom-ratio", type=float, default=_DEFAULT.h_hat,
                   help="override the estimated homophily ratio")
    p.add_argument("--self-loops", action="store_true")
    p.add_argument("--raw-homophily", action="store_true")
    p.add_argument("--reortho", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("basis", help="construct and export a basis")
    add_files(p, "edges", "features")
    p.add_argument("--mode", choices=["homo", "hetero", "ortho", "uni"], required=True)
    p.add_argument("--hops", type=int, default=_DEFAULT.hops)
    p.add_argument("--hom-ratio", type=float, default=_DEFAULT.h_hat)
    p.add_argument("--tau", type=float, default=_DEFAULT.tau)
    p.add_argument("--check", action="store_true",
                   help="verify angle and orthonormality deviations")
    p.add_argument("--reortho", action="store_true")
    p.add_argument("--raw-homophily", action="store_true")
    p.add_argument("--self-loops", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("spectrum", help="per-hop frequency/weight report for a checkpoint")
    add_files(p, "checkpoint", "edges", "features", "labels")
    p.add_argument("--hops", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("synth", help="variable-homophily relabeled dataset")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--tolerance", type=float, default=0.005)
    p.add_argument("--feature-dim", type=int, default=100)
    add_files(p, "base-edges", "base-labels", required=False)
    p.add_argument("--planted-nodes", type=int, default=2708)
    p.add_argument("--planted-edges", type=int, default=5429)
    p.add_argument("--planted-classes", type=int, default=7)
    p.add_argument("--planted-h", type=float, default=0.81)
    add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("tree", help="binary-tree benchmark dataset")
    p.add_argument("--depth", type=int, default=7)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--feature-dim", type=int, default=100)
    add_common(p)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("splits", help="seeded train/val/test splits")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--regime", choices=sorted(["60/20/20", "48/32/20"]), default="60/20/20")
    p.add_argument("--num-splits", type=int, default=1)
    add_common(p)
    p.set_defaults(func=cmd_splits)

    p = sub.add_parser("estimate-h", help="homophily ratio from training labels")
    add_files(p, "edges", "labels", "split")
    add_common(p, out_required=False)
    p.set_defaults(func=cmd_estimate_h)

    p = sub.add_parser("ablate", help="basis-variant accuracy table")
    add_files(p, "edges", "features", "labels")
    p.add_argument("--hops", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--patience", type=int, default=60)
    p.add_argument("--max-epochs", type=int, default=300)
    p.add_argument("--num-seeds", type=int, default=5)
    p.add_argument("--regime", choices=sorted(["60/20/20", "48/32/20"]), default="60/20/20")
    add_common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("energy", help="Dirichlet energy per hop and tau")
    add_files(p, "edges", "features", "labels")
    p.add_argument("--tau-grid", default="0.2,0.4,0.8,1.0")
    p.add_argument("--k-max", type=int, default=100)
    p.add_argument("--hom-ratio", type=float, default=None)
    add_common(p)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("squash", help="tree benchmark accuracy across hop counts")
    p.add_argument("--depth", type=int, default=7)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--feature-dim", type=int, default=100)
    p.add_argument("--k-grid", default="3,4,5,6,7")
    p.add_argument("--num-seeds", type=int, default=5)
    add_common(p)
    p.set_defaults(func=cmd_squash)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # One stderr line per warning; catch_warnings gives the caller its handler back.
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            for flag in UNIT_FLAGS:
                if getattr(args, flag, None) is not None:
                    _check_unit(getattr(args, flag), flag.replace("_", "-"))
            for flag, least in COUNT_FLAGS.items():
                if getattr(args, flag, least) < least:
                    raise UsageError(f"{flag.replace('_', '-')} must be >= {least}")
            for path in _input_files(args):
                if not Path(path).is_file():
                    raise UsageError(f"missing input file: {path}")
            code = args.func(args)
            if code == 0 and args.out_dir is not None:
                _write_manifest(args)
            return code
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (ValueError, RuntimeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except MemoryError as exc:
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
