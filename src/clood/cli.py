"""Command-line interface.

Subcommands: gen-data, train, eval, export, ablate. Exit codes: 0 on
success, 2 on configuration or file errors, 3 on numeric failures. A
command runs with floating-point overflow, invalid operations and division
by zero raised, so a value that overflows ends in exit 3, not in a
silently wrong result.
"""

import argparse
import sys

import numpy as np

from . import ablate as ablate_mod
from .config import benchmark_config, config_from_dict, load_config_file
from .data import generate_synthetic, load_bundle, save_bundle
from .errors import ConfigError, DomainError, NumericError
from .scoring import write_report
from .train import (evaluate, export_features, load_checkpoint,
                    save_checkpoint, train, write_metrics)


def _build_config(args):
    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        values[key] = val
    return config_from_dict(values)


def _add_config_args(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable; wins over file)")


def _get_bundle(config, args):
    if args.data:
        return load_bundle(args.data)
    return generate_synthetic(config, config.seed)


def _cmd_gen_data(args):
    config = _build_config(args)
    bundle = generate_synthetic(config, config.seed)
    save_bundle(bundle, args.out)
    print(f"wrote bundle to {args.out} "
          f"(train {bundle.id_train.shape[0]}, test {bundle.id_test.shape[0]}, "
          f"ood sets: {', '.join(sorted(bundle.ood_sets))})")


def _cmd_train(args):
    config = _build_config(args)
    bundle = _get_bundle(config, args)
    result = train(config, bundle)
    save_checkpoint(args.checkpoint, result)
    if args.metrics:
        write_metrics(result.metrics, args.metrics)
    print(f"trained {config.epochs_total} epochs "
          f"(refits at {result.refit_epochs}); checkpoint: {args.checkpoint}")


def _cmd_eval(args):
    result = load_checkpoint(args.checkpoint)
    bundle = _get_bundle(result.config, args)
    report = evaluate(result, bundle, score_kind=args.score_kind,
                      k_top=args.k_top)
    write_report(report, args.scores, args.summary)
    for name, auc in sorted(report.aurocs.items()):
        print(f"{name}: auroc={auc:.4f} ({report.score_kind}, K={report.k_top})")


def _cmd_export(args):
    result = load_checkpoint(args.checkpoint)
    bundle = _get_bundle(result.config, args)
    export_features(result, bundle, args.layer, args.out)
    print(f"wrote {args.layer} features to {args.out}")


def _cmd_ablate(args):
    base = _build_config(args) if (args.config or args.set) \
        else benchmark_config()
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
    e.add_argument("--score-kind", choices=["cos", "var"], default=None)
    e.add_argument("--k-top", type=int, default=None)
    e.set_defaults(func=_cmd_eval)

    x = sub.add_parser("export", help="export features for visualization")
    x.add_argument("--checkpoint", required=True)
    x.add_argument("--data", help="bundle directory (default: regenerate)")
    x.add_argument("--layer", choices=["embedding", "projection"],
                   default="embedding")
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
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (NumericError, DomainError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"file error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
