import numpy as np
import pytest

import oracles
from oracles import finite_difference_check, masked_infonce
from clood import losses, model
from clood.autodiff import (normalize_backward, normalize_rows,
                            softmax_in_place)
from clood.errors import NumericError


def test_normalize_rows_345():
    out, norms = normalize_rows(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(out, [[0.6, 0.8]])
    np.testing.assert_allclose(norms, [5.0])


def test_log_domain_error():
    # the log-sum-exp of a row with no allowed entries is the log of zero
    mask = np.array([[True, False], [False, False]])
    with pytest.raises(NumericError):
        masked_infonce(np.zeros((2, 2)), mask, np.zeros((2, 2)), np.ones(2))


def test_gradient_accumulation_double_use():
    # cos(x, x) uses x as rows and as columns; the unit-row gradient sums
    # both uses before the one normalization backward
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 4))
    dlogits = rng.standard_normal((3, 3))

    def f(u):
        g = 2.0 * dlogits
        return float(np.sum(2.0 * (u @ u.T) * dlogits)), g @ u + g.T @ u

    assert finite_difference_check(oracles.on_raw_rows(f), x) < 1e-6


def test_self_cosine_has_zero_gradient():
    # cosine similarity of x with itself is constant 1 under normalization:
    # its unit-row gradient 2u lies along the row and carries nothing back
    unit, norms = normalize_rows(np.array([[1.0, 2.0, -3.0]]))
    np.testing.assert_allclose(normalize_backward(unit, norms, 2.0 * unit),
                               np.zeros((1, 3)), atol=1e-12)


def test_relu_masks_negative_gradients():
    # one hidden unit on and one off: only the live unit passes gradient
    params = model.MLPParams(weights=[np.eye(2), np.ones((2, 1))],
                             biases=[np.zeros(2), np.zeros(1)])
    acts = model.mlp_forward_np(params, np.array([[-1.0, 2.0]]))
    grads = [np.empty_like(a) for a in params.arrays().values()]
    d_input = model.mlp_backward(params, acts, np.ones((1, 1)), grads)
    np.testing.assert_array_equal(grads[1], [0.0, 1.0])        # b0
    np.testing.assert_array_equal(d_input, [[0.0, 1.0]])


def test_masked_logsumexp_matches_direct():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((4, 5))
    mask = rng.random((4, 5)) > 0.3
    mask[:, 0] = True
    for i in range(4):
        value, _ = masked_infonce(vals, mask, np.zeros((4, 5)), np.eye(4)[i])
        expected = np.log(np.exp(vals[i][mask[i]]).sum())
        assert value == pytest.approx(expected)


def test_masked_logsumexp_stable_at_large_logits():
    vals = np.array([[1000.0, 999.0]])
    value, grad = masked_infonce(vals, np.ones((1, 2), dtype=bool),
                                 np.zeros((1, 2)), np.ones(1))
    assert np.isfinite(value) and np.isfinite(grad).all()


@pytest.mark.parametrize("n", [2, 7, 64])
def test_symmetric_softmax_equals_the_row_softmax(n):
    # self-similarity logits as the losses form them: u @ u.T, scaled, with
    # a -inf diagonal; column maxima stand in for row maxima bit for bit
    unit = normalize_rows(np.random.default_rng(n).standard_normal((n, 5)))[0]
    logits = unit @ unit.T
    logits *= 10.0
    np.fill_diagonal(logits, -np.inf)
    assert np.array_equal(logits, logits.T)
    rows, cols = logits.copy(), logits.copy()
    assert np.array_equal(softmax_in_place(rows),
                          softmax_in_place(cols, symmetric=True))
    assert np.array_equal(rows, cols)


def test_masked_infonce_gradient_is_softmax_minus_positives():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((3, 4))
    mask = np.array([[1, 1, 0, 1], [1, 1, 1, 1], [0, 1, 1, 0]], dtype=bool)
    pos = np.zeros((3, 4))
    pos[0, 1] = pos[2, 2] = 1.0
    pos[1, :2] = 0.5
    anchor = np.array([0.2, 0.3, 0.5])

    def f(t):
        return masked_infonce(t, mask, pos, anchor)

    assert finite_difference_check(f, logits) < 1e-6


def test_fd_check_quadratic():
    err = finite_difference_check(lambda t: (float(np.sum(t * t)), 2.0 * t),
                                  np.array([1.0, 2.0]))
    assert err < 1e-6


def test_fd_check_constant_is_zero():
    assert finite_difference_check(lambda t: (0.0, np.zeros_like(t)),
                                   np.array([1.0, 2.0])) == 0.0


def test_fd_check_ntxent_small_batch():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 6))
    err = finite_difference_check(
        oracles.on_raw_rows(lambda u: losses.self_supervised_loss(u, 0.5)), z,
        step=1e-5)
    assert err < 1e-4


def test_fd_check_total_loss_instance():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((6, 5))
    centers = normalize_rows(rng.standard_normal((3, 5)))[0]
    assigns = np.array([0, 0, 1, 1, 2, 2])
    phis = np.array([0.6, 0.7, 0.8])

    def f(u):
        # the combinations are linear, so they apply to values and gradients:
        # (1 - lambda) * self + lambda * mean(center, instance), lambda = 0.5
        terms = zip(losses.self_supervised_loss(u, 0.5),
                    losses.cluster_center_loss(u, centers, assigns, phis),
                    losses.cluster_instance_loss(u, assigns, 0.5))
        return tuple(s * 0.5 + (c + i) * 0.5 * 0.5 for s, c, i in terms)

    assert finite_difference_check(oracles.on_raw_rows(f), h,
                                   step=1e-5) < 1e-4


def test_replay_is_bit_identical():
    def compute():
        rng = np.random.default_rng(11)
        return losses.self_supervised_loss(rng.standard_normal((4, 3)), 0.5)

    v1, g1 = compute()
    v2, g2 = compute()
    assert v1 == v2 and np.array_equal(g1, g2)
