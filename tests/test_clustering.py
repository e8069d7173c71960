import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from clood import clustering
from clood.errors import ConfigError, NumericError


def _unit(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _exact_unit_rows(d):
    """Unit rows with entries in {0, +-1/2, +-1}: a signed axis, or four
    signed halves. Their dot products are exact multiples of 1/4."""
    def row(order, signs, halves):
        n = 4 if halves else 1
        out = np.zeros(d)
        out[list(order[:n])] = np.array(signs[:n]) / math.sqrt(n)
        return out
    return st.builds(row, st.permutations(range(d)),
                     st.lists(st.sampled_from([-1.0, 1.0]), min_size=4,
                              max_size=4),
                     st.booleans())


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
        pts = _unit(np.concatenate([a, b]))
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
        pts = _unit(rng.standard_normal((40, 5)))
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
        centers = clustering.kmeans_fit(_unit(rng.standard_normal((30, 4))), 3,
                                        seed=0)
        np.testing.assert_allclose(np.linalg.norm(centers, axis=1), 1.0,
                                   atol=1e-12)


class TestAssign:
    def test_point_at_center(self):
        centers = np.eye(3)
        assert clustering.assign(np.array([[0.0, 0, 1.0]]), centers)[0] == 2

    def test_tie_goes_to_lowest_index(self):
        centers = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert clustering.assign(_unit(np.array([[1.0, 1.0]])), centers)[0] == 0

    def test_matches_argmax_oracle(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((25, 4))
        centers = rng.standard_normal((5, 4))
        got = clustering.assign(_unit(pts), _unit(centers))
        want = oracles.assign_oracle(pts.tolist(), centers.tolist())
        np.testing.assert_array_equal(got, want)

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_exact_ties_go_to_lowest_index_as_in_oracle(self, data):
        # few distinct centers, repeated, and similarities that are exact:
        # equal cosines tie exactly, in `assign` and in the oracle alike
        d = data.draw(st.integers(4, 6))
        distinct = data.draw(st.lists(_exact_unit_rows(d), min_size=1,
                                      max_size=4))
        picks = data.draw(st.lists(st.integers(0, len(distinct) - 1),
                                   min_size=2, max_size=8))
        centers = np.array([distinct[i] for i in picks])
        pts = np.array(data.draw(st.lists(_exact_unit_rows(d), min_size=1,
                                          max_size=10)))
        got = clustering.assign(pts, centers)
        assert got.tolist() == oracles.assign_oracle(pts.tolist(),
                                                     centers.tolist())
        # a repeated center never wins over its first occurrence
        for k in got:
            assert not (centers[:k] == centers[k]).all(axis=1).any()


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
        pts = _unit(np.concatenate([blob, blob @ _rotation_swap()]))
        centers = _unit(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        assigns = np.array([0] * 6 + [1] * 6)
        phis = clustering.compute_concentrations(pts, assigns, centers, 10.0)
        assert phis[0] == pytest.approx(phis[1])

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(10)
        unit = _unit(rng.standard_normal((40, 5)))
        centers = _unit(rng.standard_normal((3, 5)))
        assigns = clustering.assign(unit, centers)
        got = clustering.compute_concentrations(unit, assigns, centers, 10.0,
                                                0.01)
        want = [oracles.concentration_oracle(
            unit[assigns == k].tolist(), centers[k].tolist(), 10.0, 0.01)
            for k in range(3)]
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert (got > 0.01).all()

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigError):
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


class TestMovedRows:
    def test_counts_rows_outside_the_largest_overlap(self):
        # cluster 0's rows went 3 to new cluster 1 and 1 to new cluster 0;
        # cluster 1's rows went whole to new cluster 2
        previous = np.array([0, 0, 0, 0, 1, 1, 2])
        labels = np.array([1, 1, 0, 1, 2, 2, 0])
        assert clustering.moved_rows(previous, labels, 3) == 1
        assert clustering.moved_rows(labels, previous, 3) == 1

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(0, 3), min_size=4, max_size=30),
           st.permutations(range(4)))
    def test_zero_exactly_on_the_same_partition(self, labels, perm):
        labels = np.array(labels)
        if np.unique(labels).size < 4:
            labels[:4] = range(4)
        renumbered = np.array(perm)[labels]
        assert clustering.moved_rows(labels, renumbered, 4) == 0
        # one row moved to another cluster, none left empty
        other = renumbered.copy()
        other[0] = (other[0] + 1) % 4
        if np.unique(other).size == 4:
            assert clustering.moved_rows(labels, other, 4) == 1


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


def test_fit_state_rejects_zero_norm_row():
    pts = np.array([[1.0, 0], [0, 1.0], [0, 0], [1.0, 1.0]])
    with pytest.raises(NumericError, match="zero-norm row 2"):
        clustering.fit_state(pts, 2, seed=0, alpha=10.0, phi_floor=0.05,
                             epoch=0)


def test_fit_state_repairs_a_cluster_the_final_assignment_empties():
    # after one Lloyd iteration on nine directions, the last assignment to
    # the centers leaves cluster 2 empty; one re-seed fills it
    theta = np.random.default_rng(9526).uniform(0, 2 * np.pi, 9)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    centers = clustering.kmeans_fit(pts, 4, seed=9526, max_iters=1)
    assert np.bincount(clustering.assign(pts, centers), minlength=4)[2] == 0
    state = clustering.fit_state(pts, 4, seed=9526, alpha=10.0,
                                 phi_floor=0.05, epoch=0, max_iters=1)
    assert np.bincount(state.assignments, minlength=4).tolist() == [3, 1, 2, 3]
