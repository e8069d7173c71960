"""Command-line interface.

Subcommands: gen-data, train, eval, export, ablate. Exit codes: 0 on
success, 2 on configuration, input or file errors, 3 on numeric failures;
each `CloodError` class carries its own. A command runs with
floating-point overflow, invalid operations and division by zero raised,
so a value that overflows ends in exit 3, not in a silently wrong result.
"""

import argparse
import os
import sys

import numpy as np

from . import ablate as ablate_mod
from .config import benchmark_config, config_from_dict, load_config_file
from .data import generate_synthetic, load_bundle, save_bundle
from .errors import CloodError, ConfigError
from .model import LAYERS
from .scoring import SCORE_KINDS, write_report
from .train import (check_width, evaluate, export_features, load_checkpoint,
                    save_checkpoint, train, write_metrics)


# the message prefix of each exit code a CloodError carries
_KINDS = {2: "config error", 3: "numeric failure"}


def _build_config(args, base=None):
    """The config of --config, then each --set, over `base` (default:
    `TrainConfig()`)."""
    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        values[key] = val
    return config_from_dict(values, base)


def _add_config_args(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable; wins over file)")


def _check_outputs(*paths):
    """OSError naming the first given path that cannot be written as a
    file: its directory is missing, or it is a directory itself."""
    for path in filter(None, paths):
        folder = os.path.dirname(path) or os.curdir
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(folder):
            raise OSError(f"cannot write {path}: no directory {folder}")


def _get_bundle(config, args, checkpoint=None):
    """The bundle of --data, else one generated from `config` (the config
    of `checkpoint`, if given). A pair `check_width` rejects is a
    ConfigError naming the checkpoint and --data."""
    bundle = load_bundle(args.data) if args.data else \
        generate_synthetic(config, config.seed)
    try:
        check_width(config, bundle)
    except ConfigError as e:
        names = [f"checkpoint {checkpoint}"] if checkpoint else []
        names += [f"bundle {args.data}"] if args.data else []
        if names:
            raise ConfigError(f"{e} ({', '.join(names)})") from None
        raise
    return bundle


def _cmd_gen_data(args):
    config = _build_config(args)
    bundle = generate_synthetic(config, config.seed)
    save_bundle(bundle, args.out)
    print(f"wrote bundle to {args.out} "
          f"(train {bundle.id_train.shape[0]}, test {bundle.id_test.shape[0]}, "
          f"ood sets: {', '.join(sorted(bundle.ood_sets))})")


def _cmd_train(args):
    _check_outputs(args.checkpoint, args.metrics)
    config = _build_config(args)
    bundle = _get_bundle(config, args)
    result = train(config, bundle)
    save_checkpoint(args.checkpoint, result)
    if args.metrics:
        write_metrics(result.metrics, args.metrics)
    print(f"trained {config.epochs_total} epochs "
          f"(refits at {result.refit_epochs}); checkpoint: {args.checkpoint}")


def _cmd_eval(args):
    _check_outputs(args.scores, args.summary)
    result = load_checkpoint(args.checkpoint)
    bundle = _get_bundle(result.config, args, args.checkpoint)
    report = evaluate(result, bundle, score_kind=args.score_kind,
                      k_top=args.k_top)
    write_report(report, args.scores, args.summary)
    for name, auc in sorted(report.aurocs.items()):
        print(f"{name}: auroc={auc:.4f} ({report.score_kind}, K={report.k_top})")


def _cmd_export(args):
    _check_outputs(args.out)
    result = load_checkpoint(args.checkpoint)
    bundle = _get_bundle(result.config, args, args.checkpoint)
    export_features(result, bundle, args.layer, args.out)
    print(f"wrote {args.layer} features to {args.out}")


def _cmd_ablate(args):
    _check_outputs(args.out)
    base = _build_config(args, benchmark_config())
    rows = ablate_mod.run_sweep(args.sweep, base, n_seeds=args.seeds)
    if args.out:
        ablate_mod.write_sweep(rows, args.out)
    print(ablate_mod.format_sweep(rows))


def build_parser():
    p = argparse.ArgumentParser(
        prog="clood",
        description="cluster-aware contrastive learning for unsupervised "
                    "OOD detection on synthetic vector data")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset bundle")
    _add_config_args(g)
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(func=_cmd_gen_data)

    t = sub.add_parser("train", help="train a model")
    _add_config_args(t)
    t.add_argument("--data", help="bundle directory (default: generate)")
    t.add_argument("--checkpoint", required=True)
    t.add_argument("--metrics", help="per-epoch metrics CSV path")
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("eval", help="score a checkpoint and compute AUROC")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", help="bundle directory (default: regenerate)")
    e.add_argument("--scores", required=True, help="per-sample scores CSV")
    e.add_argument("--summary", required=True, help="per-set AUROC CSV")
    e.add_argument("--score-kind", choices=SCORE_KINDS, default=None)
    e.add_argument("--k-top", type=int, default=None)
    e.set_defaults(func=_cmd_eval)

    x = sub.add_parser("export", help="export features for visualization")
    x.add_argument("--checkpoint", required=True)
    x.add_argument("--data", help="bundle directory (default: regenerate)")
    x.add_argument("--layer", choices=LAYERS, default="embedding")
    x.add_argument("--out", required=True)
    x.set_defaults(func=_cmd_export)

    a = sub.add_parser("ablate", help="run a named ablation sweep")
    _add_config_args(a)
    a.add_argument("--sweep", required=True, choices=ablate_mod.SWEEPS)
    a.add_argument("--seeds", type=int, default=5)
    a.add_argument("--out", help="summary CSV path")
    a.set_defaults(func=_cmd_ablate)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            args.func(args)
    except FloatingPointError as e:
        print(f"numeric failure in {args.command}: {e}", file=sys.stderr)
        return 3
    except CloodError as e:
        print(f"{_KINDS[e.exit_code]}: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"file error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
