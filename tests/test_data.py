import os
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

    def test_generator_is_drawn_from(self):
        # a Generator is used as it is: gains, noise and masks come from
        # its stream, in that order, and its state moves past them
        batch = np.random.default_rng(3).standard_normal((6, 4))
        rng = np.random.default_rng(11)
        out = data.augment(batch, rng, noise_sigma=0.2, mask_prob=0.25,
                           gain=0.4)
        assert np.array_equal(out, data.augment(batch, 11, noise_sigma=0.2,
                                                mask_prob=0.25, gain=0.4))
        same = np.random.default_rng(11)
        gains = same.uniform(0.6, 1.4, size=(12, 1))
        noise = 0.2 * same.standard_normal((12, 4))
        keep = same.random((12, 4)) >= 0.25
        assert np.array_equal(out, (np.repeat(batch, 2, axis=0) * gains
                                    + noise) * keep)
        assert rng.bit_generator.state == same.bit_generator.state

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
    # the shipped names and any other a file name can carry back
    names = draw(st.sets(st.one_of(
        st.sampled_from(data.OOD_SET_NAMES),
        st.from_regex(data._SET_NAME, fullmatch=True)), max_size=4))
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


@settings(deadline=None, max_examples=100)
@given(st.one_of(st.text(max_size=8), st.integers(), st.just("x" * 248))
       .filter(lambda name: not (isinstance(name, str)
                                 and data._SET_NAME.fullmatch(name))))
@example("../shifted")
@example(".")
@example("")
def test_save_bundle_refuses_names_a_file_cannot_carry(name):
    bundle = data.DatasetBundle(id_train=np.eye(2), id_test=np.eye(2),
                                ood_sets={"shifted": np.eye(2), name: np.eye(2)})
    with tempfile.TemporaryDirectory() as directory:
        with pytest.raises(ConfigError, match="OOD set name"):
            data.save_bundle(bundle, os.path.join(directory, "bundle"))
        assert not os.listdir(directory)


def test_load_bundle_reads_every_ood_file_in_name_order(tmp_path):
    b = data.generate_synthetic(_spec(), seed=9)
    b.ood_sets["custom"] = b.ood_sets["shifted"][:3]
    data.save_bundle(b, tmp_path)
    (tmp_path / "ood_dir.csv").mkdir()
    loaded = data.load_bundle(tmp_path)
    assert list(loaded.ood_sets) == ["custom", "interp", "scaled", "shifted"]
    np.testing.assert_array_equal(loaded.ood_sets["custom"],
                                  b.ood_sets["shifted"][:3])
    (tmp_path / "ood_my set.csv").write_text("my set,12\n")
    with pytest.raises(ConfigError, match="ood_my set.csv: OOD set name"):
        data.load_bundle(tmp_path)


def test_load_bundle_name_mismatch(tmp_path):
    b = data.generate_synthetic(_spec(), seed=9)
    data.save_bundle(b, tmp_path)
    (tmp_path / "id_train.csv").write_text("wrong,12\n")
    with pytest.raises(ConfigError):
        data.load_bundle(tmp_path)


def test_set_files_may_start_with_a_bom(tmp_path):
    b = data.generate_synthetic(_spec(), seed=9)
    plain, bom = tmp_path / "plain", tmp_path / "bom"
    data.save_bundle(b, plain)
    bom.mkdir()
    for path in plain.iterdir():
        (bom / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    want, got = data.load_bundle(plain), data.load_bundle(bom)
    assert list(got.ood_sets) == list(want.ood_sets)
    for x, y in zip([got.id_train, got.id_test, *got.ood_sets.values()],
                    [want.id_train, want.id_test, *want.ood_sets.values()]):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
