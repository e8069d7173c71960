"""Synthetic datasets and vector augmentations.

ID data is a C-component Gaussian mixture projected onto the unit sphere.
Three OOD sets probe different failure directions: "shifted" rotates every
mixture center by a fixed angle, "scaled" inflates the component spread,
and "interp" takes midpoints of random ID pairs plus small noise.
"""

import csv
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import normalize_rows
from .errors import ConfigError

OOD_SET_NAMES = ("shifted", "scaled", "interp")


@dataclass(frozen=True)
class DatasetSpec:
    """The synthetic dataset's settings; `TrainConfig` extends it, so a
    config is a spec."""

    d_in: int = 16
    components: int = 4
    train_per_component: int = 100
    test_per_component: int = 50
    ood_samples: int = 200
    component_spread: float = 0.15
    ood_angle: float = 0.45
    ood_scale: float = 3.0
    interp_noise: float = 0.02

    def __post_init__(self):
        # every float field, a TrainConfig's included, must be finite
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name in ("d_in", "components", "train_per_component",
                     "test_per_component", "ood_samples", "component_spread",
                     "ood_scale"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.ood_angle <= 0.0:
            raise ConfigError("ood_angle must be positive (0 duplicates ID)")

    @classmethod
    def from_config(cls, cfg):
        # only bench/worker.py still calls this projection
        return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)})


@dataclass
class DatasetBundle:
    id_train: np.ndarray
    id_test: np.ndarray
    ood_sets: dict


def _mixture_centers(rng, c, d, max_cos=0.5, tries=200):
    """Random unit centers with bounded pairwise cosine similarity."""
    for _ in range(tries):
        centers = normalize_rows(rng.standard_normal((c, d)))[0]
        sims = centers @ centers.T
        np.fill_diagonal(sims, -1.0)
        if sims.max() < max_cos:
            return centers
    raise ConfigError(f"cannot place {c} separated centers in {d} dimensions")


def _sample_mixture(rng, centers, per_component, spread):
    rows = []
    for c in centers:
        rows.append(c + spread * rng.standard_normal((per_component, len(c))))
    return normalize_rows(np.concatenate(rows))[0]


def _rotate_centers(rng, centers, angle):
    """Rotate each center by `angle` within the span of all ID centers.

    Keeping the shift inside the span matters: representations trained with
    isotropic augmentation noise are invariant to directions orthogonal to
    the data, so an out-of-span shift would be invisible to any encoder.
    """
    span = np.linalg.qr(centers.T)[0]
    rotated = np.empty_like(centers)
    for i, c in enumerate(centers):
        u = span @ rng.standard_normal(span.shape[1])
        u -= (u @ c) * c
        u /= np.linalg.norm(u)
        rotated[i] = np.cos(angle) * c + np.sin(angle) * u
    return rotated


def generate_synthetic(spec, seed):
    """Deterministic DatasetBundle for a DatasetSpec (or a TrainConfig)
    and seed."""
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(6)]
    r_centers, r_train, r_test, r_shift, r_scale, r_interp = rngs

    centers = _mixture_centers(r_centers, spec.components, spec.d_in)
    id_train = _sample_mixture(r_train, centers, spec.train_per_component,
                               spec.component_spread)
    id_test = _sample_mixture(r_test, centers, spec.test_per_component,
                              spec.component_spread)

    per_ood = max(1, spec.ood_samples // spec.components)
    shifted_centers = _rotate_centers(r_shift, centers, spec.ood_angle)
    shifted = _sample_mixture(r_shift, shifted_centers, per_ood,
                              spec.component_spread)
    scaled = _sample_mixture(r_scale, centers, per_ood,
                             spec.component_spread * spec.ood_scale)

    n = id_train.shape[0]
    a = r_interp.integers(n, size=spec.ood_samples)
    b = r_interp.integers(n, size=spec.ood_samples)
    mid = 0.5 * (id_train[a] + id_train[b])
    mid += spec.interp_noise * r_interp.standard_normal(mid.shape)
    interp = normalize_rows(mid)[0]

    return DatasetBundle(id_train=id_train, id_test=id_test,
                         ood_sets={"shifted": shifted, "scaled": scaled,
                                   "interp": interp})


def augment(batch, seed, noise_sigma=0.15, mask_prob=0.1, gain=0.3):
    """Two stochastic views per source row, paired as rows (2k, 2k+1).

    Each view applies a random positive per-sample gain, additive Gaussian
    noise, and random coordinate zeroing.
    """
    batch = np.asarray(batch, dtype=np.float64)
    n, d = batch.shape
    rng = np.random.default_rng(seed)
    views = np.repeat(batch, 2, axis=0)
    gains = rng.uniform(1.0 - gain, 1.0 + gain, size=(2 * n, 1))
    noise = noise_sigma * rng.standard_normal((2 * n, d)) if noise_sigma > 0 \
        else np.zeros((2 * n, d))
    keep = rng.random((2 * n, d)) >= mask_prob
    return (views * gains + noise) * keep


# ---- bundle file round-trip (CLI gen-data / train / eval) ----

def _write_set(path, name, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([name, rows.shape[1]])
        for row in rows:
            w.writerow([repr(float(x)) for x in row])


def save_bundle(bundle, directory):
    os.makedirs(directory, exist_ok=True)
    _write_set(os.path.join(directory, "id_train.csv"), "id_train",
               bundle.id_train)
    _write_set(os.path.join(directory, "id_test.csv"), "id_test",
               bundle.id_test)
    for name in sorted(bundle.ood_sets):
        _write_set(os.path.join(directory, f"ood_{name}.csv"), name,
                   bundle.ood_sets[name])


def _read_set(path, expect_name):
    """One set's rows; a bad header, cell or row is a ConfigError naming
    the file and the line."""
    with open(path, newline="") as f:
        lines = list(csv.reader(f))
    header = next(iter(lines), None) or [""]
    if header[0] != expect_name:
        raise ConfigError(
            f"{path}: expected set {expect_name!r}, found {header[0]!r}")
    try:
        d = int(header[1])
    except (IndexError, ValueError):
        raise ConfigError(f"{path}:1: header needs a dimension, "
                          f"found {header}") from None
    if len(lines) < 2:
        raise ConfigError(f"{path}: set {expect_name!r} has no rows")
    rows = []
    for lineno, cells in enumerate(lines[1:], 2):
        if len(cells) != d:
            raise ConfigError(f"{path}:{lineno}: expected {d} cells, "
                              f"found {len(cells)}")
        try:
            row = [float(x) for x in cells]
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: {e}") from None
        if not all(map(math.isfinite, row)):
            raise ConfigError(f"{path}:{lineno}: non-finite value")
        rows.append(row)
    return np.array(rows)


def load_bundle(directory):
    """The bundle save_bundle wrote; a set whose width differs from
    id_train's is a ConfigError naming its file."""
    id_train = _read_set(os.path.join(directory, "id_train.csv"), "id_train")

    def read(file, name):
        path = os.path.join(directory, file)
        rows = _read_set(path, name)
        if rows.shape[1] != id_train.shape[1]:
            raise ConfigError(f"{path}: set {name!r} is {rows.shape[1]} wide, "
                              f"id_train is {id_train.shape[1]}")
        return rows

    ood = {name: read(f"ood_{name}.csv", name) for name in OOD_SET_NAMES
           if os.path.exists(os.path.join(directory, f"ood_{name}.csv"))}
    return DatasetBundle(id_train=id_train,
                         id_test=read("id_test.csv", "id_test"), ood_sets=ood)
