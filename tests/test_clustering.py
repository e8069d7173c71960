import math

import numpy as np
import pytest

import oracles
from clood import clustering
from clood.errors import ConfigError, ContractError, DomainError, NumericError


def _unit(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestKmeansFit:
    def test_points_at_r_locations_are_fixed_points(self):
        pts = _unit(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]))
        centers = clustering.kmeans_fit(pts, 3, seed=0)
        # every point is its own cluster, whatever the center order
        labels = clustering.assign(pts, centers)
        assert sorted(labels) == [0, 1, 2]
        for i, lab in enumerate(labels):
            np.testing.assert_allclose(centers[lab], pts[i], atol=1e-12)

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(0)
        a = np.array([10.0, 0.0]) + 0.1 * rng.standard_normal((30, 2))
        b = np.array([0.0, 10.0]) + 0.1 * rng.standard_normal((30, 2))
        pts = np.concatenate([a, b])
        centers = clustering.kmeans_fit(pts, 2, seed=1)
        labels = clustering.assign(pts, centers)
        # purity check against the construction
        assert len(set(labels[:30])) == 1
        assert len(set(labels[30:])) == 1
        assert labels[0] != labels[30]
        # each center lies inside the cone of its blob
        for blob, lab in ((a, labels[0]), (b, labels[30])):
            sims = _unit(blob) @ centers[lab]
            assert sims.min() > 0.99

    def test_k_equal_to_distinct_points_reaches_zero_objective(self):
        rng = np.random.default_rng(2)
        pts = _unit(rng.standard_normal((6, 3)))
        # duplicated points, k = number of distinct locations
        centers = clustering.kmeans_fit(np.repeat(pts, 3, axis=0), 6, seed=3)
        labels = clustering.assign(pts, centers)
        np.testing.assert_allclose(pts, centers[labels], atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((40, 5))
        c1 = clustering.kmeans_fit(pts, 4, seed=9)
        c2 = clustering.kmeans_fit(pts, 4, seed=9)
        np.testing.assert_array_equal(c1, c2)

    def test_objective_non_increasing_in_iterations(self):
        rng = np.random.default_rng(5)
        pts = _unit(rng.standard_normal((60, 4)))
        objectives = []
        for iters in range(1, 8):
            centers = clustering.kmeans_fit(pts, 5, seed=6, max_iters=iters)
            labels = clustering.assign(pts, centers)
            objectives.append(
                np.sum(np.linalg.norm(pts - centers[labels], axis=1) ** 2))
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigError):
            clustering.kmeans_fit(np.ones((2, 3)), 3)

    def test_centers_are_unit_norm(self):
        rng = np.random.default_rng(6)
        centers = clustering.kmeans_fit(rng.standard_normal((30, 4)), 3, seed=0)
        np.testing.assert_allclose(np.linalg.norm(centers, axis=1), 1.0,
                                   atol=1e-12)


class TestAssign:
    def test_point_at_center(self):
        centers = np.eye(3)
        assert clustering.assign(np.array([[0.0, 0, 2.0]]), centers)[0] == 2

    def test_tie_goes_to_lowest_index(self):
        centers = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert clustering.assign(np.array([[1.0, 1.0]]), centers)[0] == 0

    def test_matches_argmax_oracle(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((25, 4))
        centers = rng.standard_normal((5, 4))
        got = clustering.assign(pts, centers)
        want = oracles.assign_oracle(pts.tolist(), centers.tolist())
        np.testing.assert_array_equal(got, want)

    def test_zero_norm_point_rejected(self):
        with pytest.raises(DomainError):
            clustering.assign(np.zeros((1, 3)), np.eye(3))


class TestConcentrations:
    def test_collapsed_cluster_hits_floor(self):
        pts = np.tile(np.array([[0.0, 1.0]]), (5, 1))
        phis = clustering.compute_concentrations(
            pts, np.zeros(5, dtype=int), np.array([[0.0, 1.0]]), 10.0, 0.05)
        assert phis[0] == 0.05

    def test_unit_distance_cluster(self):
        center = np.array([[1.0, 0.0]])
        # normalized points at 60 degrees from the center: chord length 1
        pts = np.array([[0.5, math.sqrt(3) / 2], [0.5, -math.sqrt(3) / 2],
                        [0.5, math.sqrt(3) / 2], [0.5, -math.sqrt(3) / 2]])
        phis = clustering.compute_concentrations(
            pts, np.zeros(4, dtype=int), center, 10.0, 0.01)
        assert phis[0] == pytest.approx(1.0 / math.log(14.0))

    def test_identical_clusters_identical_phis(self):
        rng = np.random.default_rng(8)
        blob = rng.standard_normal((6, 3)) + np.array([5.0, 0, 0])
        pts = np.concatenate([blob, blob @ _rotation_swap()])
        centers = _unit(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        assigns = np.array([0] * 6 + [1] * 6)
        phis = clustering.compute_concentrations(pts, assigns, centers, 10.0)
        assert phis[0] == pytest.approx(phis[1])

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((40, 5))
        centers = _unit(rng.standard_normal((3, 5)))
        assigns = clustering.assign(pts, centers)
        unit = _unit(pts)
        got = clustering.compute_concentrations(pts, assigns, centers, 10.0,
                                                0.01)
        want = [oracles.concentration_oracle(
            unit[assigns == k].tolist(), centers[k].tolist(), 10.0, 0.01)
            for k in range(3)]
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert (got > 0.01).all()

    def test_empty_cluster_rejected(self):
        with pytest.raises(ContractError):
            clustering.compute_concentrations(
                np.ones((3, 2)), np.zeros(3, dtype=int), np.eye(2), 10.0)


def _rotation_swap():
    # swaps the first two coordinates, preserving all distances
    return np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


class TestSchedule:
    def test_warmup_boundary(self):
        assert not clustering.should_update(999, 1000, 10)
        assert clustering.should_update(1000, 1000, 10)
        assert not clustering.should_update(1015, 1000, 10)
        assert clustering.should_update(1020, 1000, 10)

    def test_zero_warmup_fires_immediately(self):
        assert [e for e in range(10) if clustering.should_update(e, 0, 3)] == \
            [0, 3, 6, 9]


def test_fit_state_invariants():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((50, 6))
    state = clustering.fit_state(pts, 5, seed=1, alpha=10.0, phi_floor=0.05,
                                 epoch=20)
    assert state.updated_at_epoch == 20
    for k in range(5):
        assert (state.assignments == k).sum() >= 1
    assert (state.phis >= 0.05).all()


def test_fit_state_reports_collapse_as_numeric_failure():
    # five points on two directions cannot fill three clusters
    pts = np.array([[1.0, 0], [1.0, 0], [1.0, 0], [0, 1.0], [0, 1.0]])
    with pytest.raises(NumericError, match="epoch 7: cluster 2"):
        clustering.fit_state(pts, 3, seed=0, alpha=10.0, phi_floor=0.05,
                             epoch=7)
