"""Contrastive losses: pairwise NT-Xent, its batch average, the cluster
center loss with adaptive per-cluster concentrations, the same-cluster
instance loss, and their weighted combination.

Each loss builds the denominator mask, positive weights and anchor weights
of one masked InfoNCE (see `autodiff`) over cosine logits, and returns
`(value, gradient with respect to its first argument)`. Centers,
assignments and concentrations are constants within a step.
"""

import warnings

import numpy as np

from .autodiff import cosine_logits, masked_infonce
from .errors import ConfigError, ContractError


def _infonce(logits, backward, mask, pos_weights, anchor_weights):
    value, dlogits = masked_infonce(logits, mask, pos_weights, anchor_weights)
    return value, backward(dlogits)


def nt_xent_pair(i, j, projections, tau):
    """Temperature-scaled contrastive loss for the ordered pair (i, j).

    Denominator runs over every row except i itself (j included).
    """
    n = len(projections)
    if i == j:
        raise ContractError("nt_xent_pair requires i != j")
    if n < 2:
        raise ContractError("need at least two rows")
    logits, backward = cosine_logits(projections, scale=1.0 / tau)
    pos, anchor = np.zeros((n, n)), np.zeros(n)
    pos[i, j] = anchor[i] = 1.0
    return _infonce(logits, backward, ~np.eye(n, dtype=bool), pos, anchor)


def self_supervised_loss(projections, tau):
    """Mean NT-Xent over both orderings of every augmented pair.

    Rows are ordered as view pairs (0, 1), (2, 3), ...
    """
    n = len(projections)
    if n < 2 or n % 2 != 0:
        raise ContractError(f"row count must be even and >= 2, got {n}")
    logits, backward = cosine_logits(projections, scale=1.0 / tau)
    pos = np.zeros((n, n))
    pos[np.arange(n), np.arange(n) ^ 1] = 1.0
    return _infonce(logits, backward, ~np.eye(n, dtype=bool), pos,
                    np.full(n, 1.0 / n))


def concentration(member_embeddings, center, alpha, phi_floor=0.05):
    """Adaptive temperature for one cluster: mean member-to-center distance
    scaled by ln(T + alpha), clamped below at phi_floor.
    """
    members = np.asarray(member_embeddings, dtype=np.float64)
    if members.ndim != 2 or members.shape[0] < 1:
        raise ContractError("cluster must have at least one member")
    t = members.shape[0]
    dists = np.linalg.norm(members - np.asarray(center, dtype=np.float64), axis=1)
    raw = dists.sum() / (t * np.log(t + alpha))
    return max(float(raw), float(phi_floor))


def cluster_center_loss(embeddings, centers, assignments, phis,
                        include_positive=False):
    """Pull each embedding toward its assigned center, push from the others.

    As written, the denominator covers only the R-1 non-assigned centers,
    each tempered by its own concentration; `include_positive=True` switches
    to the conventional form with the positive term in the denominator.
    """
    centers = np.asarray(centers, dtype=np.float64)
    assignments = np.asarray(assignments, dtype=np.intp)
    phis = np.asarray(phis, dtype=np.float64)
    r = centers.shape[0]
    if r < 2:
        raise ConfigError(f"need at least 2 centers, got {r}")
    if assignments.min() < 0 or assignments.max() >= r:
        raise ContractError("assignment index out of range")
    if len(phis) != r:
        raise ContractError(f"expected {r} concentrations, got {len(phis)}")

    n = len(embeddings)
    logits, backward = cosine_logits(embeddings, centers, scale=1.0 / phis)
    pos = np.zeros((n, r))
    pos[np.arange(n), assignments] = 1.0
    mask = np.ones((n, r), dtype=bool) if include_positive else pos == 0.0
    return _infonce(logits, backward, mask, pos, np.full(n, 1.0 / n))


def cluster_instance_loss(embeddings, assignments, tau):
    """Same-cluster batch members as positives, everything else negative.

    Anchors whose positive set is empty are skipped and excluded from the
    averaging count; if no anchor has positives the loss is zero.
    """
    assignments = np.asarray(assignments, dtype=np.intp)
    n = len(embeddings)
    if n < 2:
        raise ContractError(f"need at least two rows, got {n}")
    if len(assignments) != n:
        raise ContractError("one assignment per row required")

    others = ~np.eye(n, dtype=bool)
    pos_mask = (assignments[:, None] == assignments[None, :]) & others
    counts = pos_mask.sum(axis=1)
    anchors = counts > 0
    if not anchors.any():
        warnings.warn("all clusters are singletons in this batch; loss is 0")
        return 0.0, np.zeros(np.shape(embeddings))

    logits, backward = cosine_logits(embeddings, scale=1.0 / tau)
    # per-anchor term: lse_i - mean logit over P(i), averaged over live anchors
    pos = pos_mask / np.maximum(counts, 1)[:, None]
    return _infonce(logits, backward, others, pos, anchors / anchors.sum())


def cluster_aware_loss(l_ccl, l_cil):
    """Mean of the center and instance losses (or of their gradients)."""
    return (l_ccl + l_cil) * 0.5


def total_loss(l_self, l_cluster, lambda_weight):
    """Convex combination of instance-level and cluster-aware losses (or of
    their gradients)."""
    if not 0.0 <= lambda_weight <= 1.0:
        raise ConfigError(f"lambda_weight must lie in [0, 1], got {lambda_weight}")
    return l_self * (1.0 - lambda_weight) + l_cluster * lambda_weight
