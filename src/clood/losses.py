"""Contrastive losses on unit rows: pairwise NT-Xent, its batch average,
the cluster center loss with adaptive per-cluster concentrations, and the
same-cluster instance loss.

Each loss takes unit rows (and unit centers), builds one masked InfoNCE
(see `autodiff`) over their cosine logits, and returns `(value, gradient
with respect to the unit rows)`. Centers, assignments and concentrations
are constants within a step.
"""

import warnings

import numpy as np

from .autodiff import masked_infonce
from .errors import ConfigError, ContractError


def _self_infonce(unit, tau, mask, pos_weights, anchor_weights):
    """Masked InfoNCE over cos(unit, unit) / tau; both uses carry gradient."""
    scale = 1.0 / tau
    value, dlogits = masked_infonce((unit @ unit.T) * scale, mask,
                                    pos_weights, anchor_weights)
    g = dlogits * scale
    return value, g @ unit + g.T @ unit


def nt_xent_pair(i, j, unit, tau):
    """Temperature-scaled contrastive loss for the ordered pair (i, j).

    Denominator runs over every row except i itself (j included).
    """
    n = len(unit)
    if i == j:
        raise ContractError("nt_xent_pair requires i != j")
    if n < 2:
        raise ContractError("need at least two rows")
    pos, anchor = np.zeros((n, n)), np.zeros(n)
    pos[i, j] = anchor[i] = 1.0
    return _self_infonce(unit, tau, ~np.eye(n, dtype=bool), pos, anchor)


def self_supervised_loss(unit, tau):
    """Mean NT-Xent over both orderings of every augmented pair.

    Rows are ordered as view pairs (0, 1), (2, 3), ...
    """
    n = len(unit)
    if n < 2 or n % 2 != 0:
        raise ContractError(f"row count must be even and >= 2, got {n}")
    pos = np.zeros((n, n))
    pos[np.arange(n), np.arange(n) ^ 1] = 1.0
    return _self_infonce(unit, tau, ~np.eye(n, dtype=bool), pos,
                         np.full(n, 1.0 / n))


def cluster_center_loss(unit, centers, assignments, phis):
    """Pull each unit row toward its assigned center, push from the others.

    As written, the denominator covers only the R-1 non-assigned centers,
    each tempered by its own concentration.
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

    n = len(unit)
    scale = 1.0 / phis
    pos = np.zeros((n, r))
    pos[np.arange(n), assignments] = 1.0
    value, dlogits = masked_infonce((unit @ centers.T) * scale, pos == 0.0,
                                    pos, np.full(n, 1.0 / n))
    return value, (dlogits * scale) @ centers


def cluster_instance_loss(unit, assignments, tau):
    """Same-cluster batch members as positives, everything else negative.

    Anchors whose positive set is empty are skipped and excluded from the
    averaging count; if no anchor has positives the loss is zero.
    """
    assignments = np.asarray(assignments, dtype=np.intp)
    n = len(unit)
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
        return 0.0, np.zeros(np.shape(unit))

    # per-anchor term: lse_i - mean logit over P(i), averaged over live anchors
    pos = pos_mask / np.maximum(counts, 1)[:, None]
    return _self_infonce(unit, tau, others, pos, anchors / anchors.sum())
