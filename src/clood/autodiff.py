"""The row arithmetic clood's closed-form gradients share, on plain
float64 arrays: `normalize_rows`, its backward `normalize_backward`, and
`softmax_in_place`.

Every loss term is one masked InfoNCE over a matrix of cosine logits
L = (U V^T) * scale of unit rows U and V:

    loss = sum_i a_i (LSE_{j in D_i} L_ij - sum_j W_ij L_ij)

with a denominator mask D, positive weights W and anchor weights a. Its
gradient with respect to L is a_i (softmax_D(L_i) - W_i), which the
losses build from one `softmax_in_place` over logits whose excluded
entries hold -inf, and one `normalize_backward` carries a layer's
summed unit-row gradient back.
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
