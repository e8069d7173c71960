import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import masked_infonce, nt_xent_pair
from clood import losses
from clood.autodiff import normalize_rows
from clood.errors import ConfigError, NumericError


class TestNtXentPair:
    def test_single_pair_is_zero(self):
        z = np.array([[1.0, 2.0], [3.0, -1.0]])
        assert nt_xent_pair(0, 1, z, 0.7)[0] == pytest.approx(0.0)

    def test_two_pair_hand_value(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        expected = -math.log(math.e / (math.e + 2.0))
        assert nt_xent_pair(0, 1, z, 1.0)[0] == pytest.approx(expected)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((6, 4))
        loss = oracles.on_raw_rows(lambda u: nt_xent_pair(2, 3, u, 0.5))
        a, b = loss(z)[0], loss(5.0 * z)[0]
        assert a == pytest.approx(b, abs=1e-12)

    def test_rejects_equal_indices(self):
        with pytest.raises(ConfigError):
            nt_xent_pair(1, 1, np.eye(4), 0.5)

    def test_zero_norm_row_rejected(self):
        z = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NumericError, match="row 1"):
            oracles.on_raw_rows(lambda u: nt_xent_pair(0, 1, u, 0.5))(z)


class TestSelfSupervisedLoss:
    def test_single_pair_batch_is_zero(self):
        z = np.array([[1.0, 2.0], [0.5, -1.0]])
        assert losses.self_supervised_loss(z, 0.5)[0] == pytest.approx(0.0)

    def test_decomposes_into_pair_terms(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((4, 3))
        pairs = [nt_xent_pair(i, j, z, 0.5)[0]
                 for i, j in ((0, 1), (1, 0), (2, 3), (3, 2))]
        assert losses.self_supervised_loss(z, 0.5)[0] == pytest.approx(
            np.mean(pairs))

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((8, 3))
        loss = oracles.on_raw_rows(lambda u: losses.self_supervised_loss(u, 0.6))
        assert loss(z)[0] == pytest.approx(
            oracles.self_supervised_oracle(z.tolist(), 0.6), abs=1e-10)

    def test_view_swap_symmetry(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((6, 4))
        swapped = z.reshape(3, 2, 4)[:, ::-1, :].reshape(6, 4)
        assert losses.self_supervised_loss(z, 0.5)[0] == pytest.approx(
            losses.self_supervised_loss(swapped, 0.5)[0], abs=1e-12)

    def test_odd_row_count_rejected(self):
        with pytest.raises(ConfigError):
            losses.self_supervised_loss(np.ones((3, 2)), 0.5)


class TestClusterCenterLoss:
    def test_sample_at_center_orthogonal_pair(self):
        centers = np.array([[1.0, 0.0], [0.0, 1.0]])
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        out, _ = losses.cluster_center_loss(h, centers, np.array([0, 1]),
                                            np.array([1.0, 1.0]))
        # positive term exp(1), denominator only the orthogonal center exp(0)
        assert out == pytest.approx(-1.0)

    def test_relabeling_symmetry(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((6, 4))
        centers = rng.standard_normal((3, 4))
        assigns = np.array([0, 1, 2, 0, 1, 2])
        phis = np.array([0.5, 0.7, 0.9])
        perm = np.array([2, 0, 1])
        a = losses.cluster_center_loss(h, centers, assigns, phis)[0]
        b = losses.cluster_center_loss(h, centers[perm],
                                       np.argsort(perm)[assigns],
                                       phis[perm])[0]
        assert a == pytest.approx(b, abs=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((8, 5))
        centers = normalize_rows(rng.standard_normal((3, 5)))[0]
        assigns = rng.integers(3, size=8)
        phis = rng.uniform(0.3, 1.0, 3)
        got = oracles.on_raw_rows(lambda u: losses.cluster_center_loss(
            u, centers, assigns, phis))(h)[0]
        want = oracles.cluster_center_oracle(
            h.tolist(), centers.tolist(), assigns.tolist(), phis.tolist())
        assert got == pytest.approx(want, abs=1e-10)

    def test_single_center_rejected(self):
        with pytest.raises(ConfigError):
            losses.cluster_center_loss(np.ones((2, 2)), np.ones((1, 2)),
                                       np.zeros(2, dtype=int), np.ones(1))

    def test_out_of_range_assignment_rejected(self):
        with pytest.raises(ConfigError):
            losses.cluster_center_loss(np.eye(2), np.eye(2),
                                       np.array([0, 2]), np.ones(2))


class TestClusterInstanceLoss:
    def test_all_singletons_is_zero_with_warning(self):
        h = np.eye(4)
        with pytest.warns(UserWarning):
            out, _ = losses.cluster_instance_loss(h, np.arange(4), 0.5)
        assert out == pytest.approx(0.0)

    def test_two_samples_one_cluster_is_zero(self):
        h = np.array([[1.0, 2.0], [0.3, -1.0]])
        out, _ = losses.cluster_instance_loss(h, np.array([0, 0]), 0.5)
        assert out == pytest.approx(0.0)

    def test_matches_supcon_style_oracle(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((8, 4))
        assigns = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        got = oracles.on_raw_rows(lambda u: losses.cluster_instance_loss(
            u, assigns, 0.5))(h)[0]
        want = oracles.cluster_instance_oracle(h.tolist(), assigns.tolist(), 0.5)
        assert got == pytest.approx(want, abs=1e-10)

    def test_skips_singleton_anchors_in_mean(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((5, 3))
        assigns = np.array([0, 0, 1, 1, 2])   # sample 4 has no positives
        got = oracles.on_raw_rows(lambda u: losses.cluster_instance_loss(
            u, assigns, 0.5))(h)[0]
        want = oracles.cluster_instance_oracle(h.tolist(), assigns.tolist(), 0.5)
        assert got == pytest.approx(want, abs=1e-10)


def test_all_losses_scale_invariant():
    rng = np.random.default_rng(9)
    h = rng.standard_normal((6, 4))
    centers = normalize_rows(rng.standard_normal((3, 4)))[0]
    assigns = np.array([0, 1, 2, 0, 1, 2])
    phis = np.array([0.4, 0.6, 0.8])
    for loss in (lambda u: losses.self_supervised_loss(u, 0.5),
                 lambda u: losses.cluster_center_loss(u, centers, assigns,
                                                      phis),
                 lambda u: losses.cluster_instance_loss(u, assigns, 0.5)):
        on_raw = oracles.on_raw_rows(loss)
        for gamma in (0.1, 7.0):
            assert on_raw(gamma * h)[0] == pytest.approx(on_raw(h)[0],
                                                         abs=1e-10)


# The three training losses built as dense masked InfoNCEs: explicit
# denominator masks, positive weights and anchor weights.

def _dense_self(unit, tau, mask, pos, anchor):
    scale = 1.0 / tau
    value, dlogits = masked_infonce((unit @ unit.T) * scale, mask, pos, anchor)
    g = dlogits * scale
    return value, g @ unit + g.T @ unit


def _dense_self_supervised(unit, tau):
    n = len(unit)
    pos = np.zeros((n, n))
    pos[np.arange(n), np.arange(n) ^ 1] = 1.0
    return _dense_self(unit, tau, ~np.eye(n, dtype=bool), pos,
                       np.full(n, 1.0 / n))


def _dense_center(unit, centers, assignments, phis):
    n = len(unit)
    scale = 1.0 / phis
    pos = np.zeros((n, len(centers)))
    pos[np.arange(n), assignments] = 1.0
    value, dlogits = masked_infonce((unit @ centers.T) * scale, pos == 0.0,
                                    pos, np.full(n, 1.0 / n))
    return value, (dlogits * scale) @ centers


def _dense_instance(unit, assignments, tau):
    n = len(unit)
    others = ~np.eye(n, dtype=bool)
    pos_mask = (assignments[:, None] == assignments[None, :]) & others
    counts = pos_mask.sum(axis=1)
    anchors = counts > 0
    if not anchors.any():
        return 0.0, np.zeros(unit.shape)
    pos = pos_mask / np.maximum(counts, 1)[:, None]
    return _dense_self(unit, tau, others, pos, anchors / anchors.sum())


@settings(max_examples=60, deadline=None)
@given(pairs=st.integers(1, 32), width=st.integers(1, 40),
       r=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       tau=st.floats(0.05, 2.0),
       phis=st.lists(st.floats(0.05, 1.0), min_size=8, max_size=8),
       grouping=st.sampled_from(["drawn", "one cluster", "singletons"]))
def test_losses_equal_their_dense_masked_infonce(pairs, width, r, seed, tau,
                                                 phis, grouping):
    # same value and gradient, bit for bit, as the dense formulation
    n = 2 * pairs
    rng = np.random.default_rng(seed)
    unit = normalize_rows(rng.standard_normal((n, width)))[0]
    centers = normalize_rows(rng.standard_normal((r, width)))[0]
    phis = np.array(phis[:r])
    assigns = {"drawn": rng.integers(r, size=n),
               "one cluster": np.zeros(n, dtype=np.intp),
               "singletons": np.arange(n)}[grouping]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        pairs_of_results = [
            (losses.self_supervised_loss(unit, tau),
             _dense_self_supervised(unit, tau)),
            (losses.cluster_center_loss(unit, centers, assigns % r, phis),
             _dense_center(unit, centers, assigns % r, phis)),
            (losses.cluster_instance_loss(unit, assigns, tau),
             _dense_instance(unit, assigns, tau)),
        ]
    for (value, grad), (want_value, want_grad) in pairs_of_results:
        assert value == want_value
        assert np.array_equal(grad, want_grad)
