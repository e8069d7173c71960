"""Named ablation sweeps over loss terms, clustering layer, update
schedule, and cluster count, aggregated over seeds.

`variants` is the one table of sweep variants and `run_one` the one run
cache; `clood ablate` and the acceptance gate both go through them. Runs
whose configs differ only in `train.WARMUP_FREE` fields train their
shared warm-up once per process.
"""

import csv
from dataclasses import replace

import numpy as np

from .config import benchmark_config
from .data import generate_synthetic
from .errors import CloodError, ConfigError
from .train import evaluate, mean_max_center_similarity, train

# (label, overrides) variants of each sweep around a base config
_VARIANTS = {
    "loss-terms": lambda c: [
        ("self_only", dict(use_ccl=False, use_cil=False)),
        ("self+ccl", dict(use_ccl=True, use_cil=False)),
        ("self+cil", dict(use_ccl=False, use_cil=True)),
        ("full", dict(use_ccl=True, use_cil=True)),
    ],
    "cluster-layer": lambda c: [
        ("self_only", dict(use_ccl=False, use_cil=False)),
        ("projection", dict(clustering_layer="projection")),
        ("embedding", dict(clustering_layer="embedding")),
    ],
    "schedule": lambda c: [
        ("no_warmup_u10", dict(warmup_epochs=0, update_interval=10)),
        ("warmup_u_batch", dict(update_per_batch=True)),
        ("warmup_u1", dict(update_interval=1)),
        ("warmup_u10", dict(update_interval=10)),
        ("warmup_u50", dict(update_interval=50)),
    ],
    # half, equal to and five times the mixture's component count
    "cluster-count": lambda c: [
        (f"r={r}", dict(clusters=r))
        for r in sorted({max(2, c.components // 2), c.components,
                         5 * c.components})
    ],
}
SWEEPS = tuple(_VARIANTS)

# (TrainResult, DatasetBundle) of every config trained in this process
_runs = {}
# the warm-up of every config trained in this process, by `warmup_key`
_warm = {}


def variants(name, base):
    """The (label, config) variants of sweep `name` around `base`; a
    variant's invalid config is a ConfigError naming it."""
    if name not in _VARIANTS:
        raise ConfigError(f"unknown sweep {name!r}; choose {', '.join(SWEEPS)}")
    out = []
    for label, overrides in _VARIANTS[name](base):
        try:
            out.append((label, replace(base, **overrides)))
        except ConfigError as e:
            raise ConfigError(f"sweep {name} variant {label}: {e}") from None
    return out


def run_one(config):
    """Train one config on its own seeded bundle, once per process.

    Returns the (result, bundle) pair, cached under the config hash.
    """
    key = config.hash()
    if key not in _runs:
        bundle = generate_synthetic(config, config.seed)
        _runs[key] = (train(config, bundle, warm=_warm), bundle)
    return _runs[key]


def run_sweep(name, base=None, n_seeds=5):
    """Run every variant of a named sweep over n_seeds seeds.

    Returns one row per variant with mean AUROC per OOD set (and, for the
    cluster-count sweep, the mean max embedding-to-center similarity). A
    CloodError or FloatingPointError of a run keeps its type and gains
    the sweep, the variant and the seed after its text.
    """
    if n_seeds < 1:
        raise ConfigError(f"a sweep needs at least one seed, got {n_seeds}")
    base = base or benchmark_config()
    want_sim = name == "cluster-count"
    rows = []
    for label, cfg in variants(name, base):
        aurocs, sims = {}, []
        for seed in range(base.seed, base.seed + n_seeds):
            try:
                result, bundle = run_one(replace(cfg, seed=seed))
                for set_name, v in evaluate(result, bundle).aurocs.items():
                    aurocs.setdefault(set_name, []).append(v)
                if want_sim:
                    sims.append(mean_max_center_similarity(result, bundle)
                                if result.cluster_state is not None
                                else float("nan"))
            except (CloodError, FloatingPointError) as e:
                raise type(e)(f"{e} (sweep {name}, variant {label}, "
                              f"seed {seed})") from e
        row = {"sweep": name, "variant": label, "config_hash": cfg.hash()}
        for set_name in sorted(aurocs):
            row[f"auroc_{set_name}"] = float(np.mean(aurocs[set_name]))
        if want_sim:
            row["similarity"] = float(np.mean(sims))
        rows.append(row)
    return rows


def write_sweep(rows, path):
    fieldnames = sorted({k for row in rows for k in row},
                        key=lambda k: (k not in ("sweep", "variant"), k))
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fieldnames)
        w.writeheader()
        for row in rows:
            w.writerow(row)


def format_sweep(rows):
    lines = []
    for row in rows:
        metrics = ", ".join(f"{k.removeprefix('auroc_')}={v:.4f}"
                            for k, v in sorted(row.items())
                            if isinstance(v, float))
        lines.append(f"{row['sweep']:8s} {row['variant']:16s} {metrics}")
    return "\n".join(lines)
