import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from clood import data
from clood.errors import ConfigError


def _spec(**kw):
    base = dict(d_in=12, components=3, train_per_component=20,
                test_per_component=10, ood_samples=30)
    base.update(kw)
    return data.DatasetSpec(**base)


class TestGenerate:
    def test_shapes_and_unit_norms(self):
        b = data.generate_synthetic(_spec(), seed=0)
        assert b.id_train.shape == (60, 12)
        assert b.id_test.shape == (30, 12)
        assert set(b.ood_sets) == {"shifted", "scaled", "interp"}
        for rows in [b.id_train, b.id_test, *b.ood_sets.values()]:
            np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0,
                                       atol=1e-12)

    def test_same_seed_identical(self):
        b1 = data.generate_synthetic(_spec(), seed=3)
        b2 = data.generate_synthetic(_spec(), seed=3)
        np.testing.assert_array_equal(b1.id_train, b2.id_train)
        for name in b1.ood_sets:
            np.testing.assert_array_equal(b1.ood_sets[name],
                                          b2.ood_sets[name])

    def test_different_seed_differs(self):
        b1 = data.generate_synthetic(_spec(), seed=3)
        b2 = data.generate_synthetic(_spec(), seed=4)
        assert not np.array_equal(b1.id_train, b2.id_train)

    def test_shifted_centers_preserve_angle(self):
        rng = np.random.default_rng(0)
        centers = data._mixture_centers(rng, 4, 16)
        rotated = data._rotate_centers(rng, centers, 0.45)
        cosines = np.sum(centers * rotated, axis=1)
        np.testing.assert_allclose(cosines, np.cos(0.45), atol=1e-12)
        # and the shift stays inside the span of the original centers
        span = np.linalg.qr(centers.T)[0]
        residual = rotated - rotated @ span @ span.T
        np.testing.assert_allclose(residual, 0.0, atol=1e-10)

    def test_zero_angle_rejected(self):
        with pytest.raises(ConfigError):
            data.generate_synthetic(_spec(ood_angle=0.0), seed=0)


class TestAugment:
    def test_identity_settings_duplicate_batch(self):
        batch = np.random.default_rng(0).standard_normal((4, 3))
        out = data.augment(batch, seed=0, noise_sigma=0.0, mask_prob=0.0,
                           gain=0.0)
        np.testing.assert_array_equal(out, np.repeat(batch, 2, axis=0))

    def test_two_views_per_row(self):
        batch = np.ones((5, 3))
        out = data.augment(batch, seed=1)
        assert out.shape == (10, 3)

    def test_seed_determinism(self):
        batch = np.random.default_rng(1).standard_normal((6, 4))
        a = data.augment(batch, seed=7)
        b = data.augment(batch, seed=7)
        c = data.augment(batch, seed=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_mask_only_zeroes_coordinates(self):
        batch = np.ones((50, 8))
        out = data.augment(batch, seed=2, noise_sigma=0.0, mask_prob=0.3,
                           gain=0.0)
        assert set(np.unique(out)) == {0.0, 1.0}
        frac_zero = (out == 0.0).mean()
        assert 0.2 < frac_zero < 0.4


def test_bundle_round_trip(tmp_path):
    b = data.generate_synthetic(_spec(), seed=9)
    data.save_bundle(b, tmp_path)
    loaded = data.load_bundle(tmp_path)
    np.testing.assert_array_equal(loaded.id_train, b.id_train)
    np.testing.assert_array_equal(loaded.id_test, b.id_test)
    for name in b.ood_sets:
        np.testing.assert_array_equal(loaded.ood_sets[name], b.ood_sets[name])


@st.composite
def _bundles(draw):
    d = draw(st.integers(1, 4))

    def rows():
        return draw(arrays(np.float64, (draw(st.integers(1, 4)), d),
                           elements=st.floats(allow_nan=False,
                                              allow_infinity=False)))
    names = draw(st.sets(st.sampled_from(data.OOD_SET_NAMES)))
    return data.DatasetBundle(id_train=rows(), id_test=rows(),
                              ood_sets={name: rows() for name in sorted(names)})


@settings(deadline=None, max_examples=100)
@given(_bundles())
@example(data.DatasetBundle(
    id_train=np.array([[-0.0, 5e-324], [0.0, -1.7976931348623157e308]]),
    id_test=np.array([[-0.0, 0.1]]),
    ood_sets={"scaled": np.array([[-5e-324, -0.0]])}))
def test_bundle_round_trips_bit_exactly(bundle):
    # signed zeros, subnormals and the largest floats survive the CSV
    with tempfile.TemporaryDirectory() as directory:
        data.save_bundle(bundle, directory)
        loaded = data.load_bundle(directory)
    assert sorted(loaded.ood_sets) == sorted(bundle.ood_sets)
    pairs = [(loaded.id_train, bundle.id_train),
             (loaded.id_test, bundle.id_test)]
    pairs += [(loaded.ood_sets[name], bundle.ood_sets[name])
              for name in bundle.ood_sets]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_load_bundle_name_mismatch(tmp_path):
    b = data.generate_synthetic(_spec(), seed=9)
    data.save_bundle(b, tmp_path)
    (tmp_path / "id_train.csv").write_text("wrong,12\n")
    with pytest.raises(ConfigError):
        data.load_bundle(tmp_path)
