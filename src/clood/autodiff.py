"""Closed-form gradients of clood's losses, on plain float64 arrays.

Every loss term is one masked InfoNCE over a matrix of cosine logits
L = (U V^T) * scale of unit rows U and V:

    loss = sum_i a_i (LSE_{j in D_i} L_ij - sum_j W_ij L_ij)

with a denominator mask D, positive weights W and anchor weights a. Its
gradient with respect to L is a_i (softmax_D(L_i) - W_i), and one
`normalize_backward` carries a layer's summed unit-row gradient back.
`masked_infonce` is the dense reference; the losses build the same
arithmetic from one `softmax_in_place` over logits whose excluded
entries hold -inf.
"""

import numpy as np

from .errors import NumericError


def normalize_rows(x):
    """Each row of `x`, as float64, divided by its L2 norm, and the norms."""
    x = np.asarray(x, dtype=np.float64)
    # np.linalg.norm's own formula for real rows, without its wrapper
    norms = np.sqrt(np.add.reduce(x * x, axis=1))
    if not norms.all():
        bad = np.flatnonzero(norms == 0.0)
        raise NumericError(f"zero-norm row {bad[0]} cannot be normalized")
    return x / norms[:, None], norms


def normalize_backward(unit, norms, d_unit):
    """Gradient wrt x, given `d_unit` wrt unit = x / |x| and norms = |x|."""
    # d(x / |x|) takes off the part of the gradient along the row itself
    dot = np.sum(d_unit * unit, axis=1, keepdims=True)
    return (d_unit - dot * unit) / norms[:, None]


def softmax_in_place(logits, symmetric=False):
    """Overwrite each row of `logits` with its softmax and return each row's
    log-sum-exp. Entries that hold -inf are excluded; each row needs a
    finite one. The log-sum-exp is stabilised by the row's largest logit.
    A `symmetric` matrix takes those maxima down its columns, the same
    values at about half the cost on C-ordered rows.
    """
    rowmax = (logits.max(axis=0) if symmetric else logits.max(axis=1))[:, None]
    logits -= rowmax
    np.exp(logits, out=logits)
    sums = logits.sum(axis=1, keepdims=True)
    logits /= sums
    return np.log(sums[:, 0]) + rowmax[:, 0]


def masked_infonce(logits, mask, pos_weights, anchor_weights):
    """Value and dL/dlogits of sum_i a_i (LSE_{j: mask_ij} L_ij - sum_j W_ij L_ij)."""
    if not mask.any(axis=1).all():
        raise NumericError("masked log-sum-exp: a row has no allowed entries")
    probs = np.where(mask, logits, -np.inf)
    lse = softmax_in_place(probs)
    value = anchor_weights @ (lse - np.sum(pos_weights * logits, axis=1))
    return float(value), anchor_weights[:, None] * (probs - pos_weights)


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
