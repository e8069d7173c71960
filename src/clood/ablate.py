"""Named ablation sweeps over loss terms, clustering layer, update
schedule, and cluster count, aggregated over seeds.

`variants` is the one table of sweep variants and `run_one` the one run
cache; `clood ablate` and the acceptance gate both go through them.
"""

import csv
from dataclasses import replace

import numpy as np

from .config import benchmark_config
from .data import generate_synthetic
from .errors import ConfigError
from .train import evaluate, mean_max_center_similarity, train

# (label, config) variants of each sweep around a base config
_VARIANTS = {
    "loss-terms": lambda c: [
        ("self_only", replace(c, use_ccl=False, use_cil=False)),
        ("self+ccl", replace(c, use_ccl=True, use_cil=False)),
        ("self+cil", replace(c, use_ccl=False, use_cil=True)),
        ("full", replace(c, use_ccl=True, use_cil=True)),
    ],
    "cluster-layer": lambda c: [
        ("self_only", replace(c, use_ccl=False, use_cil=False)),
        ("projection", replace(c, clustering_layer="projection")),
        ("embedding", replace(c, clustering_layer="embedding")),
    ],
    "schedule": lambda c: [
        ("no_warmup_u10", replace(c, warmup_epochs=0, update_interval=10)),
        ("warmup_u_batch", replace(c, update_per_batch=True)),
        ("warmup_u1", replace(c, update_interval=1)),
        ("warmup_u10", replace(c, update_interval=10)),
        ("warmup_u50", replace(c, update_interval=50)),
    ],
    # half, equal to and five times the mixture's component count
    "cluster-count": lambda c: [
        (f"r={r}", replace(c, clusters=r))
        for r in sorted({max(2, c.components // 2), c.components,
                         5 * c.components})
    ],
}
SWEEPS = tuple(_VARIANTS)

# (TrainResult, DatasetBundle) of every config trained in this process
_runs = {}


def variants(name, base):
    """The (label, config) variants of sweep `name` around `base`."""
    if name not in _VARIANTS:
        raise ConfigError(f"unknown sweep {name!r}; choose {', '.join(SWEEPS)}")
    return _VARIANTS[name](base)


def run_one(config):
    """Train one config on its own seeded bundle, once per process.

    Returns the (result, bundle) pair, cached under the config hash.
    """
    key = config.hash()
    if key not in _runs:
        bundle = generate_synthetic(config, config.seed)
        _runs[key] = (train(config, bundle), bundle)
    return _runs[key]


def run_sweep(name, base=None, n_seeds=5):
    """Run every variant of a named sweep over n_seeds seeds.

    Returns one row per variant with mean AUROC per OOD set (and, for the
    cluster-count sweep, the mean max embedding-to-center similarity).
    """
    if n_seeds < 1:
        raise ConfigError(f"a sweep needs at least one seed, got {n_seeds}")
    base = base or benchmark_config()
    want_sim = name == "cluster-count"
    rows = []
    for label, cfg in variants(name, base):
        aurocs, sims = {}, []
        for s in range(n_seeds):
            result, bundle = run_one(replace(cfg, seed=base.seed + s))
            for set_name, v in evaluate(result, bundle).aurocs.items():
                aurocs.setdefault(set_name, []).append(v)
            if want_sim:
                sims.append(mean_max_center_similarity(result, bundle)
                            if result.cluster_state is not None
                            else float("nan"))
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
