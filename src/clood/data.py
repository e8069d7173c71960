"""Synthetic datasets and vector augmentations.

ID data is a C-component Gaussian mixture projected onto the unit sphere.
Three OOD sets probe different failure directions: "shifted" rotates every
mixture center by a fixed angle, "scaled" inflates the component spread,
and "interp" takes midpoints of random ID pairs plus small noise.
"""

import csv
import math
import os
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import normalize_rows
from .errors import ConfigError

OOD_SET_NAMES = ("shifted", "scaled", "interp")
# an OOD set's name, the <name> of its file ood_<name>.csv
_SET_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]{0,246}")
# the DatasetSpec fields that size a bundle's arrays
_SIZES = ("d_in", "components", "train_per_component", "test_per_component",
          "ood_samples")


def in_domain(domain, default):
    """A field whose value must lie in `domain`: a tuple of names, or an
    interval such as "[0, 1)" or "(0, inf)", which NaN and inf lie outside."""
    return field(default=default, metadata={"domain": domain})


def _check_in(name, domain, value):
    """ConfigError unless `value` lies in `domain` (see `in_domain`)."""
    if isinstance(domain, tuple):
        inside, domain = value in domain, "{%s}" % ", ".join(domain)
    else:
        lo, hi = map(float, domain[1:-1].split(","))
        inside = (lo <= value if domain[0] == "[" else lo < value) and (
            value <= hi if domain[-1] == "]" else value < hi)
    if not inside:
        raise ConfigError(f"{name} must lie in {domain}, got {value!r}")


@dataclass(frozen=True)
class DatasetSpec:
    """The synthetic dataset's settings; `TrainConfig` extends it, so a
    config is a spec; construction checks each field's `in_domain`."""

    d_in: int = in_domain("[1, inf)", 16)
    components: int = in_domain("[1, inf)", 4)
    train_per_component: int = in_domain("[1, inf)", 100)
    test_per_component: int = in_domain("[1, inf)", 50)
    ood_samples: int = in_domain("[1, inf)", 200)
    component_spread: float = in_domain("(0, inf)", 0.15)
    ood_angle: float = in_domain("(0, inf)", 0.45)
    ood_scale: float = in_domain("(0, inf)", 3.0)
    interp_noise: float = in_domain("[0, inf)", 0.02)

    def __post_init__(self):
        for f in fields(self):
            if "domain" in f.metadata:
                _check_in(f.name, f.metadata["domain"], getattr(self, f.name))

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
    raise ConfigError(f"cannot place components={c} separated centers in "
                      f"d_in={d} dimensions")


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
    and seed; sizes whose arrays numpy cannot make are a ConfigError."""
    try:
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
    except (ValueError, MemoryError) as e:
        sizes = ", ".join(f"{name}={getattr(spec, name)}" for name in _SIZES)
        raise ConfigError(f"cannot generate a bundle of {sizes}: {e}") from None


def augment(batch, seed, noise_sigma=0.15, mask_prob=0.1, gain=0.3):
    """Two stochastic views per source row, paired as rows (2k, 2k+1).

    Each view applies a random positive per-sample gain, additive Gaussian
    noise, and random coordinate zeroing, drawn in that order. `seed` is
    anything `np.random.default_rng` takes; a Generator is drawn from as
    it is, so its state moves on.
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


def _check_set_name(name, where=""):
    """ConfigError, its message led by `where`, unless `name` can come
    back from its file name ood_<name>.csv: 1 to 247 characters of the
    POSIX portable file-name set (letters, digits, '.', '_', '-'), not
    starting with '.'."""
    if not (isinstance(name, str) and _SET_NAME.fullmatch(name)):
        raise ConfigError(f"{where}OOD set name {name!r} must be 1 to 247 "
                          f"letters, digits, '.', '_' or '-', not starting "
                          f"with '.'")


def save_bundle(bundle, directory):
    """Write each set to its CSV file: id_train.csv, id_test.csv and
    ood_<name>.csv per OOD set; a name that cannot come back from its file
    name is a ConfigError, raised before anything is written."""
    for name in bundle.ood_sets:
        _check_set_name(name)
    os.makedirs(directory, exist_ok=True)
    _write_set(os.path.join(directory, "id_train.csv"), "id_train",
               bundle.id_train)
    _write_set(os.path.join(directory, "id_test.csv"), "id_test",
               bundle.id_test)
    for name in sorted(bundle.ood_sets):
        _write_set(os.path.join(directory, f"ood_{name}.csv"), name,
                   bundle.ood_sets[name])


def _read_set(path, expect_name):
    """One set's rows, from a file that may start with a UTF-8 byte-order
    mark; non-UTF-8 bytes, an over-long cell or a bad header, cell or row
    is a ConfigError naming the file and, if known, the line."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        try:
            lines = list(reader)
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text: {e.reason}") from None
        except csv.Error as e:
            raise ConfigError(f"{path}:{reader.line_num}: {e}") from None
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
    """The bundle save_bundle wrote, with every ood_<name>.csv file as an
    OOD set, in name order; a set whose width differs from id_train's, or
    whose name save_bundle would refuse, is a ConfigError naming its
    file."""
    id_train = _read_set(os.path.join(directory, "id_train.csv"), "id_train")

    def read(file, name):
        path = os.path.join(directory, file)
        rows = _read_set(path, name)
        if rows.shape[1] != id_train.shape[1]:
            raise ConfigError(f"{path}: set {name!r} is {rows.shape[1]} wide, "
                              f"id_train is {id_train.shape[1]}")
        return rows

    names = []
    for file in os.listdir(directory):
        path = os.path.join(directory, file)
        if file.startswith("ood_") and file.endswith(".csv") and \
                os.path.isfile(path):
            names.append(file[len("ood_"):-len(".csv")])
            _check_set_name(names[-1], f"{path}: ")
    ood = {name: read(f"ood_{name}.csv", name) for name in sorted(names)}
    return DatasetBundle(id_train=id_train,
                         id_test=read("id_test.csv", "id_test"), ood_sets=ood)
