"""Spherical k-means over encoder features and the center-update schedule.

Points and centers are unit rows, so Lloyd's Euclidean updates followed by
re-normalization cluster by cosine similarity, matching the geometry of
every loss term. Every function takes unit rows but `fit_state`, which
normalizes the raw features once.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import normalize_rows
from .errors import ConfigError, NumericError


@dataclass
class ClusterState:
    centers: np.ndarray          # R x d, unit rows
    assignments: np.ndarray      # over the full ID training set
    phis: np.ndarray             # R concentrations, all >= phi_floor
    updated_at_epoch: int


def _kmeanspp_init(points, r, rng):
    m = points.shape[0]
    centers = np.empty((r, points.shape[1]))
    first = int(rng.integers(m))
    centers[0] = points[first]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for k in range(1, r):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=d2 / total))
        centers[k] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[k]) ** 2, axis=1))
    return centers


def _reseed_empty(unit, labels, centers):
    """Move each empty cluster's center, in place and in index order, to the
    row farthest from its assigned center that no earlier one took (ties to
    the lowest row); True if any cluster was empty."""
    empty = np.flatnonzero(np.bincount(labels, minlength=len(centers)) == 0)
    if empty.size:
        dists = np.linalg.norm(unit - centers[labels], axis=1)
        centers[empty] = unit[np.argsort(-dists, kind="stable")[:empty.size]]
    return empty.size > 0


def kmeans_fit(unit, r, seed=0, max_iters=100, tol=1e-6):
    """Lloyd's algorithm on unit rows with k-means++ seeding; empty clusters
    are re-seeded. Deterministic given (unit, r, seed)."""
    m = unit.shape[0]
    if r < 2:
        raise ConfigError(f"need at least 2 clusters, got {r}")
    if m < r:
        raise ConfigError(f"{m} points cannot support {r} clusters")
    if not np.all(np.isfinite(unit)):
        raise NumericError("points must be finite")

    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(unit, r, rng)

    for _ in range(max_iters):
        labels = assign(unit, centers)
        new_centers = centers.copy()
        _reseed_empty(unit, labels, new_centers)
        for k in np.unique(labels):
            mean = unit[labels == k].mean(axis=0)
            norm = np.linalg.norm(mean)
            # antipodal cancellation: keep the previous center direction
            if norm > 0:
                new_centers[k] = mean / norm
        movement = np.max(np.linalg.norm(new_centers - centers, axis=1))
        centers = new_centers
        if movement < tol:
            break
    return centers


def assign(unit, centers):
    """Nearest unit center to each unit row by cosine similarity; ties go
    to the lowest index."""
    return np.argmax(unit @ centers.T, axis=1)


def moved_rows(previous, labels, r):
    """Rows whose cluster changed between two assignments of the same rows
    to r clusters, cluster numbering aside: the rows of each previous
    cluster that the new cluster holding most of them did not take. With
    no cluster empty, 0 exactly when the partition is the same."""
    overlap = np.bincount(previous * r + labels, minlength=r * r)
    return int(len(labels) - overlap.reshape(r, r).max(axis=1).sum())


def compute_concentrations(unit, assignments, centers, alpha, phi_floor=0.05):
    """Per-cluster concentration of unit rows around their center: the
    mean member-to-center distance scaled by ln(T + alpha), clamped below
    at phi_floor, for a cluster of T members."""
    dists = np.linalg.norm(unit - centers[assignments], axis=1)
    phis = np.empty(centers.shape[0])
    for k in range(centers.shape[0]):
        members = dists[assignments == k]
        t = members.shape[0]
        if t == 0:
            raise ConfigError(f"cluster {k} is empty; refit must repair first")
        phis[k] = max(members.sum() / (t * np.log(t + alpha)), phi_floor)
    return phis


def should_update(epoch, warmup_epochs, update_interval):
    """True on the first post-warm-up epoch and every interval after it."""
    if epoch < 0:
        raise ConfigError("epoch must be >= 0")
    return epoch >= warmup_epochs and (epoch - warmup_epochs) % update_interval == 0


def fit_state(points, r, seed, alpha, phi_floor, epoch, max_iters=100,
              tol=1e-6):
    """Full refit on raw `points`, normalized once: centers, assignments
    and concentrations.

    A cluster the final assignment leaves empty is re-seeded once by
    `_reseed_empty`. One that stays empty (the points have fewer distinct
    directions than `r`) raises NumericError naming the epoch and cluster.
    """
    unit = normalize_rows(points)[0]
    centers = kmeans_fit(unit, r, seed=seed, max_iters=max_iters, tol=tol)
    labels = assign(unit, centers)
    if _reseed_empty(unit, labels, centers):
        labels = assign(unit, centers)
    empty = np.flatnonzero(np.bincount(labels, minlength=r) == 0)
    if empty.size:
        raise NumericError(f"epoch {epoch}: cluster {empty[0]} is still empty "
                           f"after repair; the features have fewer than {r} "
                           f"distinct directions")
    phis = compute_concentrations(unit, labels, centers, alpha, phi_floor)
    return ClusterState(centers=centers, assignments=labels, phis=phis,
                        updated_at_epoch=epoch)
