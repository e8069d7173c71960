import math

import numpy as np
import pytest

import oracles
from clood import losses
from clood.autodiff import normalize_rows
from clood.errors import ConfigError, ContractError, DomainError


class TestNtXentPair:
    def test_single_pair_is_zero(self):
        z = np.array([[1.0, 2.0], [3.0, -1.0]])
        assert losses.nt_xent_pair(0, 1, z, 0.7)[0] == pytest.approx(0.0)

    def test_two_pair_hand_value(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        expected = -math.log(math.e / (math.e + 2.0))
        assert losses.nt_xent_pair(0, 1, z, 1.0)[0] == pytest.approx(expected)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((6, 4))
        loss = oracles.on_raw_rows(lambda u: losses.nt_xent_pair(2, 3, u, 0.5))
        a, b = loss(z)[0], loss(5.0 * z)[0]
        assert a == pytest.approx(b, abs=1e-12)

    def test_rejects_equal_indices(self):
        with pytest.raises(ContractError):
            losses.nt_xent_pair(1, 1, np.eye(4), 0.5)

    def test_zero_norm_row_rejected(self):
        z = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DomainError, match="row 1"):
            oracles.on_raw_rows(lambda u: losses.nt_xent_pair(0, 1, u, 0.5))(z)


class TestSelfSupervisedLoss:
    def test_single_pair_batch_is_zero(self):
        z = np.array([[1.0, 2.0], [0.5, -1.0]])
        assert losses.self_supervised_loss(z, 0.5)[0] == pytest.approx(0.0)

    def test_decomposes_into_pair_terms(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((4, 3))
        pairs = [losses.nt_xent_pair(i, j, z, 0.5)[0]
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
        with pytest.raises(ContractError):
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
        with pytest.raises(ContractError):
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
