"""Spherical k-means over encoder features and the center-update schedule.

Points and centers are L2-normalized, so Lloyd's Euclidean updates followed
by re-normalization cluster by cosine similarity, matching the geometry of
every loss term.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import normalize_rows
from .errors import ConfigError, ContractError, DomainError, NumericError


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


def kmeans_fit(points, r, seed=0, max_iters=100, tol=1e-6):
    """Lloyd's algorithm on normalized points with k-means++ seeding.

    Empty clusters are re-seeded at the point farthest from its current
    center. Deterministic given (points, r, seed).
    """
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    if r < 2:
        raise ConfigError(f"need at least 2 clusters, got {r}")
    if m < r:
        raise ConfigError(f"{m} points cannot support {r} clusters")
    if not np.all(np.isfinite(points)):
        raise DomainError("points must be finite")

    pts = normalize_rows(points)[0]
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(pts, r, rng)

    for _ in range(max_iters):
        labels = assign(pts, centers)
        dists = np.linalg.norm(pts - centers[labels], axis=1)
        new_centers = centers.copy()
        taken = set()
        for k in range(r):
            members = labels == k
            if members.any():
                mean = pts[members].mean(axis=0)
                norm = np.linalg.norm(mean)
                # antipodal cancellation: keep the previous center direction
                new_centers[k] = mean / norm if norm > 0 else centers[k]
            else:
                order = np.argsort(-dists, kind="stable")
                pick = next(int(i) for i in order if int(i) not in taken)
                taken.add(pick)
                new_centers[k] = pts[pick]
        movement = np.max(np.linalg.norm(new_centers - centers, axis=1))
        centers = new_centers
        if movement < tol:
            break
    return centers


def assign(points, centers):
    """Nearest center by cosine similarity; ties go to the lowest index."""
    sims = normalize_rows(points)[0] @ normalize_rows(centers)[0].T
    return np.argmax(sims, axis=1)


def compute_concentrations(points, assignments, centers, alpha, phi_floor=0.05):
    """Per-cluster concentration of normalized points around their center:
    the mean member-to-center distance scaled by ln(T + alpha), clamped
    below at phi_floor, for a cluster of T members."""
    centers = np.asarray(centers, dtype=np.float64)
    assignments = np.asarray(assignments, dtype=np.intp)
    dists = np.linalg.norm(normalize_rows(points)[0] - centers[assignments],
                           axis=1)
    phis = np.empty(centers.shape[0])
    for k in range(centers.shape[0]):
        members = dists[assignments == k]
        t = members.shape[0]
        if t == 0:
            raise ContractError(f"cluster {k} is empty; refit must repair first")
        phis[k] = max(members.sum() / (t * np.log(t + alpha)), phi_floor)
    return phis


def should_update(epoch, warmup_epochs, update_interval):
    """True on the first post-warm-up epoch and every interval after it."""
    if epoch < 0:
        raise ContractError("epoch must be >= 0")
    return epoch >= warmup_epochs and (epoch - warmup_epochs) % update_interval == 0


def fit_state(points, r, seed, alpha, phi_floor, epoch, max_iters=100,
              tol=1e-6):
    """Full refit: centers, assignments over `points`, and concentrations.

    A cluster the repair pass cannot fill (the points have fewer distinct
    directions than `r`) raises NumericError naming the epoch and cluster.
    """
    centers = kmeans_fit(points, r, seed=seed, max_iters=max_iters, tol=tol)
    labels = assign(points, centers)
    # repair clusters emptied by the final assignment pass
    for k in range(r):
        if not (labels == k).any():
            pts = normalize_rows(points)[0]
            dists = np.linalg.norm(pts - centers[labels], axis=1)
            far = int(np.argmax(dists))
            centers[k] = pts[far]
            labels = assign(points, centers)
    empty = np.flatnonzero(np.bincount(labels, minlength=r) == 0)
    if empty.size:
        raise NumericError(f"epoch {epoch}: cluster {empty[0]} is still empty "
                           f"after repair; the features have fewer than {r} "
                           f"distinct directions")
    phis = compute_concentrations(points, labels, centers, alpha, phi_floor)
    return ClusterState(centers=centers, assignments=labels, phis=phis,
                        updated_at_epoch=epoch)
