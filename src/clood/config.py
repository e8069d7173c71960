"""Run configuration: defaults, validation, flat-file parsing, hashing.

Config files are flat `key=value` lines ('#' starts a comment). Precedence
is CLI flag > file > default.
"""

import hashlib
from dataclasses import dataclass, fields, replace

from .data import DatasetSpec, in_domain
from .errors import ConfigError
from .model import LAYERS
from .scoring import check_score_args


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

    seed: int = in_domain("[0, inf)", 0)

    # model
    encoder_widths: tuple = (16, 64, 64, 32)
    projection_widths: tuple = (32, 32, 16)

    # training
    batch_size: int = in_domain("[2, inf)", 32)
    epochs_total: int = in_domain("[0, inf)", 400)
    warmup_epochs: int = in_domain("[0, inf)", 200)
    update_interval: int = in_domain("[1, inf)", 10)
    update_per_batch: bool = False
    clusters: int = in_domain("[2, inf)", 4)
    tau: float = in_domain("(0, inf)", 0.5)
    alpha: float = in_domain("(0, inf)", 10.0)
    lambda_weight: float = in_domain("[0, 1]", 0.5)
    phi_floor: float = in_domain("(0, inf)", 0.05)
    lr: float = in_domain("(0, inf)", 0.05)
    clustering_layer: str = in_domain(LAYERS, "embedding")
    use_ccl: bool = True
    use_cil: bool = True

    # augmentation
    aug_noise: float = in_domain("[0, inf)", 0.15)
    aug_mask_prob: float = in_domain("[0, 1)", 0.1)
    aug_gain: float = in_domain("[0, 1)", 0.3)

    # clustering solver
    kmeans_max_iters: int = in_domain("[1, inf)", 100)
    kmeans_tol: float = in_domain("(0, inf)", 1e-6)

    # scoring
    score_kind: str = "var"
    k_top: int = 10
    score_layer: str = in_domain(LAYERS, "projection")

    def __post_init__(self):
        super().__post_init__()
        for name in ("encoder_widths", "projection_widths"):
            widths = getattr(self, name)
            if len(widths) < 2 or min(widths) <= 0:
                raise ConfigError(
                    f"{name} must hold at least two positive widths, "
                    f"got {widths}")
        embedding = self.encoder_widths[-1]
        if self.projection_widths[0] != embedding:
            raise ConfigError(
                f"projection input width {self.projection_widths[0]} must "
                f"equal embedding width {embedding}")
        if self.projection_widths[-1] > embedding:
            raise ConfigError(
                f"projection output width {self.projection_widths[-1]} must "
                f"not exceed embedding width {embedding}")
        if self.warmup_epochs > self.epochs_total:
            raise ConfigError("warmup_epochs must not exceed epochs_total")
        self.check_training_rows(self.components * self.train_per_component)

    def check_training_rows(self, m):
        """ConfigError unless m training rows can fill `clusters` clusters
        and be the bank of `score_kind` and `k_top` (`check_score_args`)."""
        if m < self.clusters:
            raise ConfigError(
                f"clusters={self.clusters} exceeds the {m} training rows")
        check_score_args(self.score_kind, self.k_top, m)

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
    """Parse a flat key=value config file, which may start with a UTF-8
    byte-order mark, into a string dict; a line that is not UTF-8 text is
    a ConfigError naming the file and the line."""
    values = {}
    # surrogateescape reads each byte that is not UTF-8 as U+DC80..U+DCFF
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, 1):
            if any("\udc80" <= c <= "\udcff" for c in line):
                raise ConfigError(f"{path}:{lineno}: not UTF-8 text")
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
