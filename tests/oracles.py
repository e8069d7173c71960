"""Independent brute-force oracles, written as plain python loops, and
the numpy references the tests check the package against.

The oracles deliberately avoid the package's numpy code so that
agreement with the production implementations is meaningful. The numpy
references are `score_var_sorted`, which repeats the scorer's arithmetic
query by query, so that its scores can be compared exactly;
`masked_infonce`, the dense masked InfoNCE with its closed-form
gradient, which the lean losses are checked against, and `nt_xent_pair`,
its form for one ordered pair; and `finite_difference_check`, the
central-difference gradient checker. `on_raw_rows` is the one harness
around package code: it turns a loss of unit rows into the function of
raw rows that training differentiates.
"""

import math

import numpy as np

from clood.autodiff import (normalize_backward, normalize_rows,
                            softmax_in_place)
from clood.errors import ConfigError, NumericError


def on_raw_rows(loss):
    """`loss(unit)` -> (value, gradient wrt unit rows), as a function of
    raw rows x: normalize_rows, the loss, then normalize_backward."""
    def f(x):
        unit, norms = normalize_rows(x)
        value, d_unit = loss(unit)
        return value, normalize_backward(unit, norms, d_unit)
    return f


def masked_infonce(logits, mask, pos_weights, anchor_weights):
    """Value and dL/dlogits of sum_i a_i (LSE_{j: mask_ij} L_ij - sum_j W_ij L_ij)."""
    if not mask.any(axis=1).all():
        raise NumericError("masked log-sum-exp: a row has no allowed entries")
    probs = np.where(mask, logits, -np.inf)
    lse = softmax_in_place(probs)
    value = anchor_weights @ (lse - np.sum(pos_weights * logits, axis=1))
    return float(value), anchor_weights[:, None] * (probs - pos_weights)


def nt_xent_pair(i, j, unit, tau):
    """Temperature-scaled contrastive loss for the ordered pair (i, j) of
    unit rows, and its gradient wrt them.

    Denominator runs over every row except i itself (j included).
    """
    n = len(unit)
    if i == j:
        raise ConfigError("nt_xent_pair requires i != j")
    if n < 2:
        raise ConfigError("need at least two rows")
    pos, anchor = np.zeros((n, n)), np.zeros(n)
    pos[i, j] = anchor[i] = 1.0
    scale = 1.0 / tau
    logits = unit @ unit.T
    logits *= scale
    value, dlogits = masked_infonce(logits, ~np.eye(n, dtype=bool), pos,
                                    anchor)
    # unit is both the rows and the columns: both uses carry gradient
    g = dlogits * scale
    return value, g @ unit + g.T @ unit


def finite_difference_check(f, x, step=1e-5):
    """Max relative error between analytic and central-difference gradients.

    `f(x)` returns `(value, grad)`; the gradient at `x` is compared
    coordinate by coordinate against (f(x + h) - f(x - h)) / 2h.
    """
    x = np.array(x, dtype=np.float64)
    analytic = np.asarray(f(x)[1], dtype=np.float64).ravel()
    numeric = np.empty(x.size)
    for i in range(x.size):
        values = []
        for sign in (1.0, -1.0):
            shifted = x.copy()
            shifted.flat[i] += sign * step
            values.append(f(shifted)[0])
        numeric[i] = (values[0] - values[1]) / (2.0 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def norm(a):
    return math.sqrt(dot(a, a))


def cosine(a, b):
    return dot(a, b) / (norm(a) * norm(b))


def ntxent_pair_oracle(i, j, rows, tau):
    num = math.exp(cosine(rows[i], rows[j]) / tau)
    den = sum(math.exp(cosine(rows[i], rows[k]) / tau)
              for k in range(len(rows)) if k != i)
    return -math.log(num / den)


def self_supervised_oracle(rows, tau):
    n2 = len(rows)
    total = 0.0
    for k in range(n2 // 2):
        total += ntxent_pair_oracle(2 * k, 2 * k + 1, rows, tau)
        total += ntxent_pair_oracle(2 * k + 1, 2 * k, rows, tau)
    return total / n2


def concentration_oracle(members, center, alpha, floor):
    t = len(members)
    total = sum(norm([m - c for m, c in zip(row, center)]) for row in members)
    return max(total / (t * math.log(t + alpha)), floor)


def cluster_center_oracle(rows, centers, assignments, phis):
    total = 0.0
    for i, row in enumerate(rows):
        a = assignments[i]
        num = math.exp(cosine(row, centers[a]) / phis[a])
        den = 0.0
        for j, c in enumerate(centers):
            if j != a:
                den += math.exp(cosine(row, c) / phis[j])
        total += -math.log(num / den)
    return total / len(rows)


def cluster_instance_oracle(rows, assignments, tau):
    n = len(rows)
    terms = []
    for i in range(n):
        positives = [p for p in range(n)
                     if p != i and assignments[p] == assignments[i]]
        if not positives:
            continue
        den = sum(math.exp(cosine(rows[i], rows[a]) / tau)
                  for a in range(n) if a != i)
        inner = sum(math.log(math.exp(cosine(rows[i], rows[p]) / tau) / den)
                    for p in positives)
        terms.append(-inner / len(positives))
    if not terms:
        return 0.0
    return sum(terms) / len(terms)


def assign_oracle(points, centers):
    out = []
    for p in points:
        best, best_sim = 0, -2.0
        for j, c in enumerate(centers):
            s = cosine(p, c)
            if s > best_sim:
                best, best_sim = j, s
        out.append(best)
    return out


def score_cos_oracle(bank, z):
    return max(cosine(row, z) * norm(row) for row in bank)


def score_var_oracle(bank, z, k):
    scored = sorted(((cosine(row, z) * norm(row), idx)
                     for idx, row in enumerate(bank)),
                    key=lambda t: (-t[0], t[1]))
    top = [bank[idx] for _, idx in scored[:k]]
    d = len(top[0])
    mean = [sum(row[c] for row in top) / k for c in range(d)]
    var = sum(sum((row[c] - mean[c]) ** 2 for c in range(d))
              for row in top) / (k - 1)
    denom = max(math.sqrt(var), 1e-8)
    return score_cos_oracle(bank, z) / denom


def score_var_sorted(bank, queries, k):
    """`var` scores, each query's top-K set taken by a full stable sort and
    gathered in ascending row order, its spread by the scorer's
    arithmetic: the mean as one product with weights 1/K, the sum of
    squares as one dot product."""
    bank = np.asarray(bank, dtype=np.float64)
    weights = np.full((1, k), 1.0 / k)
    scores = []
    for z in np.asarray(queries, dtype=np.float64):
        cand = bank @ (z / np.linalg.norm(z))
        top = np.sort(np.argsort(-cand, kind="stable")[:k])
        dev = bank[top][None]
        dev -= np.matmul(weights, dev)
        flat = dev.reshape(1, -1)
        spread = np.sqrt(np.vecdot(flat, flat)[0] / (k - 1))
        scores.append(cand.max() / max(spread, 1e-8))
    return np.array(scores)


def auroc_oracle(id_scores, ood_scores):
    wins = 0.0
    for a in id_scores:
        for b in ood_scores:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(id_scores) * len(ood_scores))
