"""Contrastive losses on unit rows: the batch-averaged NT-Xent, the
cluster center loss with adaptive per-cluster concentrations, and the
same-cluster instance loss.

Each loss takes unit rows (and unit centers) and returns `(value, gradient
with respect to the unit rows)` of one masked InfoNCE (see `autodiff`)
over their cosine logits. The three training losses form the logits once,
read their positives by index (CIL keeps its weighted row sum), write -inf
over the excluded entries and take one in-place softmax, which becomes
dL/dlogits once the positives are taken off and the rows weighted; the
arithmetic is the dense masked InfoNCE's, operation for operation. Centers,
assignments and concentrations are constants within a step.
"""

import functools
import warnings

import numpy as np

from .autodiff import softmax_in_place
from .errors import ConfigError


@functools.lru_cache(maxsize=64)
def _batch_indices(n):
    """Read-only row indices 0..n-1, each row's view partner (i ^ 1) and
    the uniform anchor weights 1/n."""
    rows = np.arange(n)
    out = rows, rows ^ 1, np.full(n, 1.0 / n)
    for a in out:
        a.setflags(write=False)
    return out


def _self_logits(unit, scale):
    # exactly symmetric: numpy computes unit @ unit.T as one syrk, which
    # fills one triangle and mirrors it; the scale and a -inf diagonal
    # keep that
    logits = unit @ unit.T
    logits *= scale
    return logits


def self_supervised_loss(unit, tau):
    """Mean NT-Xent over both orderings of every augmented pair.

    Rows are ordered as view pairs (0, 1), (2, 3), ...
    """
    n = len(unit)
    if n < 2 or n % 2 != 0:
        raise ConfigError(f"row count must be even and >= 2, got {n}")
    rows, partners, weights = _batch_indices(n)
    scale = 1.0 / tau
    logits = _self_logits(unit, scale)
    positives = logits[rows, partners]
    logits[rows, rows] = -np.inf
    value = weights @ (softmax_in_place(logits, symmetric=True) - positives)
    logits[rows, partners] -= 1.0
    logits *= weights[:, None]
    logits *= scale
    return float(value), logits @ unit + logits.T @ unit


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
        raise ConfigError("assignment index out of range")
    if len(phis) != r:
        raise ConfigError(f"expected {r} concentrations, got {len(phis)}")

    rows, _, weights = _batch_indices(len(unit))
    scale = 1.0 / phis
    logits = unit @ centers.T
    logits *= scale
    positives = logits[rows, assignments]
    logits[rows, assignments] = -np.inf
    value = weights @ (softmax_in_place(logits) - positives)
    logits[rows, assignments] -= 1.0
    logits *= weights[:, None]
    logits *= scale
    return float(value), logits @ centers


def cluster_instance_loss(unit, assignments, tau):
    """Same-cluster batch members as positives, everything else negative.

    Anchors whose positive set is empty are skipped and excluded from the
    averaging count; if no anchor has positives the loss is zero.
    """
    assignments = np.asarray(assignments, dtype=np.intp)
    n = len(unit)
    if n < 2:
        raise ConfigError(f"need at least two rows, got {n}")
    if len(assignments) != n:
        raise ConfigError("one assignment per row required")

    rows, _, _ = _batch_indices(n)
    same = assignments[:, None] == assignments[None, :]
    same[rows, rows] = False
    counts = same.sum(axis=1)
    anchors = counts > 0
    if not anchors.any():
        warnings.warn("all clusters are singletons in this batch; loss is 0")
        return 0.0, np.zeros(np.shape(unit))

    # per-anchor term: lse_i - mean logit over P(i), averaged over live anchors
    pos = same / np.maximum(counts, 1)[:, None]
    weights = anchors / anchors.sum()
    scale = 1.0 / tau
    logits = _self_logits(unit, scale)
    positives = np.sum(pos * logits, axis=1)
    logits[rows, rows] = -np.inf
    value = weights @ (softmax_in_place(logits, symmetric=True) - positives)
    logits -= pos
    logits *= weights[:, None]
    logits *= scale
    return float(value), logits @ unit + logits.T @ unit
