"""Run configuration: defaults, validation, flat-file parsing, hashing.

Config files are flat `key=value` lines ('#' starts a comment). Precedence
is CLI flag > file > default.
"""

import hashlib
from dataclasses import dataclass, fields, replace

from .data import DatasetSpec
from .errors import ConfigError


def _parse_widths(text):
    try:
        return tuple(int(p) for p in str(text).replace(" ", "").split(","))
    except ValueError:
        raise ConfigError(f"bad width list {text!r}") from None


def _parse_bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean {text!r}")


@dataclass(frozen=True)
class TrainConfig(DatasetSpec):
    """Every run setting; the synthetic dataset's are declared on
    `DatasetSpec`."""

    seed: int = 0

    # model
    encoder_widths: tuple = (16, 64, 64, 32)
    projection_widths: tuple = (32, 32, 16)

    # training
    batch_size: int = 32
    epochs_total: int = 400
    warmup_epochs: int = 200
    update_interval: int = 10
    update_per_batch: bool = False
    clusters: int = 4
    tau: float = 0.5
    alpha: float = 10.0
    lambda_weight: float = 0.5
    phi_floor: float = 0.05
    lr: float = 0.05
    clustering_layer: str = "embedding"
    use_ccl: bool = True
    use_cil: bool = True

    # augmentation
    aug_noise: float = 0.15
    aug_mask_prob: float = 0.1
    aug_gain: float = 0.3

    # clustering solver
    kmeans_max_iters: int = 100
    kmeans_tol: float = 1e-6

    # scoring
    score_kind: str = "var"
    k_top: int = 10
    score_layer: str = "projection"

    def __post_init__(self):
        super().__post_init__()
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.warmup_epochs > self.epochs_total:
            raise ConfigError("warmup_epochs must not exceed epochs_total")
        if self.warmup_epochs < 0 or self.update_interval < 1:
            raise ConfigError("bad schedule: need warmup >= 0 and interval >= 1")
        if self.clusters < 2:
            raise ConfigError("clusters must be >= 2")
        if self.clustering_layer not in ("embedding", "projection"):
            raise ConfigError(f"bad clustering_layer {self.clustering_layer!r}")
        if self.score_layer not in ("embedding", "projection"):
            raise ConfigError(f"bad score_layer {self.score_layer!r}")
        if self.score_kind not in ("cos", "var"):
            raise ConfigError(f"bad score_kind {self.score_kind!r}")
        for name in ("k_top", "tau", "alpha", "phi_floor", "lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ConfigError("lambda_weight must lie in [0, 1]")
        if not 0.0 <= self.aug_mask_prob < 1.0:
            raise ConfigError("aug_mask_prob must lie in [0, 1)")
        if not 0.0 <= self.aug_gain < 1.0:
            raise ConfigError("aug_gain must lie in [0, 1)")

    def to_dict(self):
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            out[f.name] = str(v)
        return out

    def hash(self):
        text = "\n".join(f"{k}={v}" for k, v in sorted(self.to_dict().items()))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


_PARSERS = {
    int: int,
    float: float,
    bool: _parse_bool,
    str: str,
    tuple: _parse_widths,
}


def config_from_dict(values, base=None):
    """Build a TrainConfig from string key/value pairs over `base`."""
    base = base or TrainConfig()
    known = {f.name: f for f in fields(TrainConfig)}
    updates = {}
    for key, raw in values.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        kind = type(getattr(base, key))
        try:
            updates[key] = _PARSERS[kind](raw)
        except (ValueError, KeyError):
            raise ConfigError(f"bad value {raw!r} for {key}") from None
    return replace(base, **updates)


def load_config_file(path):
    """Parse a flat key=value config file into a string dict."""
    values = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def benchmark_config(**overrides):
    """Desk-scale benchmark defaults used by the ablation sweeps and tests.

    Tuned so the loss/schedule ablation directions are resolvable over a
    handful of seeds: moderate concentration floor (the raw concentrations
    collapse to tiny values on tight synthetic clusters), embedding-layer
    scoring, and a 60-epoch warm-up followed by 100 joint epochs.
    """
    base = TrainConfig(
        d_in=16,
        components=4,
        train_per_component=75,
        test_per_component=40,
        ood_samples=160,
        component_spread=0.15,
        ood_angle=0.6,
        epochs_total=160,
        warmup_epochs=60,
        update_interval=10,
        clusters=4,
        batch_size=32,
        lr=0.05,
        phi_floor=0.5,
        score_layer="embedding",
        k_top=100,
    )
    return replace(base, **overrides) if overrides else base
