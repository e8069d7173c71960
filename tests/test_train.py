import argparse
import contextlib
import csv
import gc
import io
import math
import os
import subprocess
import sys
import tempfile
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import clood
import clood.train as train_mod
from clood import ablate, cli, clustering, errors, losses, model, scoring
from clood.config import (TrainConfig, benchmark_config, config_from_dict,
                          load_config_file)
from clood.data import DatasetSpec, generate_synthetic
from clood.errors import ConfigError, NumericError


def _small_config(**kw):
    base = TrainConfig(
        d_in=8, components=2, train_per_component=12, test_per_component=6,
        ood_samples=8, encoder_widths=(8, 8, 6), projection_widths=(6, 6, 4),
        batch_size=8, epochs_total=6, warmup_epochs=2, update_interval=2,
        clusters=2, k_top=5)
    return replace(base, **kw)


def _small_run(**kw):
    config = _small_config(**kw)
    bundle = generate_synthetic(config, config.seed)
    return train_mod.train(config, bundle), bundle


@pytest.mark.parametrize("key,value", [
    ("tau", 0.0), ("lambda_weight", 1.5), ("phi_floor", 0.0),
    ("warmup_epochs", -1), ("update_interval", 0),
    ("lr", float("nan")), ("tau", float("inf")), ("seed", -1),
    ("aug_noise", -1.0), ("kmeans_max_iters", 0), ("kmeans_max_iters", -1),
    ("clusters", 401), ("kmeans_tol", 0.0), ("kmeans_tol", -1.0),
    ("interp_noise", -1.0)])
def test_config_rejects_bad_value(key, value):
    with pytest.raises(ConfigError):
        TrainConfig(**{key: value})


def test_config_rejects_an_unknown_score_kind_naming_the_kinds():
    with pytest.raises(ConfigError) as raised:
        TrainConfig(score_kind="knn")
    assert str(raised.value) == \
        "unknown score_kind 'knn', expected one of cos, var"
    assert all(kind in str(raised.value) for kind in scoring.SCORE_KINDS)


@pytest.mark.parametrize("encoder,projection,message", [
    ((), (4, 2), "encoder_widths must hold at least two positive widths"),
    ((8,), (8, 4), "encoder_widths must hold at least two positive widths"),
    ((8, 4), (4,), "projection_widths must hold at least two positive"),
    ((8, 0, 4), (4, 2), "encoder_widths must hold at least two positive"),
    ((8, 8, 5), (6, 6, 4), "projection input width 6 must equal embedding "
                           "width 5"),
    ((8, 4), (4, 8), "projection output width 8 must not exceed embedding "
                     "width 4")],
    ids=["empty", "one-width", "one-projection-width", "zero-width",
         "projection-input", "projection-wider"])
def test_config_rejects_bad_widths(encoder, projection, message):
    with pytest.raises(ConfigError, match=message):
        TrainConfig(encoder_widths=encoder, projection_widths=projection)


_POSITIVE = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def _widths(draw):
    """Encoder and projection widths a TrainConfig accepts."""
    encoder = draw(st.lists(st.integers(1, 512), min_size=2))
    hidden = draw(st.lists(st.integers(1, 512)))
    last = draw(st.integers(1, encoder[-1]))
    return tuple(encoder), (encoder[-1], *hidden, last)


@given(_widths().flatmap(lambda widths: st.builds(
    TrainConfig,
    seed=st.integers(0, 2**63), d_in=st.integers(1, 4096),
    component_spread=_POSITIVE, ood_angle=_POSITIVE,
    interp_noise=st.floats(min_value=0.0, allow_infinity=False),
    encoder_widths=st.just(widths[0]), projection_widths=st.just(widths[1]),
    update_per_batch=st.booleans(), tau=_POSITIVE,
    lambda_weight=st.floats(0.0, 1.0), lr=_POSITIVE,
    clustering_layer=st.sampled_from(["embedding", "projection"]),
    use_cil=st.booleans(), aug_gain=st.floats(0.0, 1.0, exclude_max=True),
    kmeans_tol=st.floats(min_value=0.0, exclude_min=True,
                         allow_infinity=False),
    # var's top-K must fit the 400 training rows of the default mixture
    score_kind=st.sampled_from(["cos", "var"]), k_top=st.integers(2, 400))))
def test_config_round_trips_through_dict(config):
    back = config_from_dict(config.to_dict())
    assert back == config
    assert back.hash() == config.hash()


# the TrainConfig fields that declare a domain (`data.in_domain`)
_DOMAINS = {f.name: f for f in fields(TrainConfig) if "domain" in f.metadata}


def _edges(domain, kind):
    """(value, inside) at each edge of an interval or at each name of a
    tuple `domain`, and one step outside; an int field has no value past
    an infinite end."""
    if isinstance(domain, tuple):
        return [(name, True) for name in domain] + [(" ".join(domain), False)]
    edges, (lo, hi) = [], domain[1:-1].split(",")
    for end, closed, outward in ((float(lo), domain[0] == "[", -math.inf),
                                 (float(hi), domain[-1] == "]", math.inf)):
        if kind is float:
            edges += [(end if closed else math.nextafter(end, -outward), True),
                      (math.nextafter(end, outward) if closed else end, False)]
        elif math.isinf(end):
            edges.append((int(math.nextafter(end, -outward)), True))
        else:
            step = 1 if outward > 0 else -1
            edges += [(int(end) if closed else int(end) - step, True),
                      (int(end) + step if closed else int(end), False)]
    return edges


@settings(max_examples=300)
@given(st.data())
def test_declared_domains_hold_at_their_edges(data):
    # one step outside a field's domain is that field's error, and its
    # edges are not; a rule across fields may still refuse an edge
    name = data.draw(st.sampled_from(sorted(_DOMAINS)), label="field")
    domain = _DOMAINS[name].metadata["domain"]
    value, inside = data.draw(st.sampled_from(
        _edges(domain, type(_DOMAINS[name].default))))
    shown = "{%s}" % ", ".join(domain) if isinstance(domain, tuple) else domain
    raw = value if isinstance(value, str) else repr(value)
    try:
        config_from_dict({name: raw}, _small_config())
        message = ""
    except ConfigError as e:
        message = str(e)
    event("inside" if inside else "outside")
    if inside:
        assert not message.startswith(f"{name} must lie in "), message
    else:
        assert message == f"{name} must lie in {shown}, got {value!r}"


def test_every_scalar_field_declares_a_domain():
    # scoring.check_score_args owns score_kind and k_top
    assert {f.name for f in fields(TrainConfig)
            if f.name not in _DOMAINS
            and not isinstance(f.default, (bool, tuple))} == \
        {"score_kind", "k_top"}


class TestTrainLoop:
    def test_refit_epochs_follow_schedule(self):
        result, _ = _small_run()
        assert result.refit_epochs == [2, 4]
        assert result.cluster_state is not None
        assert result.cluster_state.updated_at_epoch == 4

    def test_self_only_never_refits(self):
        result, _ = _small_run(use_ccl=False, use_cil=False)
        assert result.refit_epochs == []
        assert result.cluster_state is None

    def test_metrics_rows(self):
        result, _ = _small_run()
        assert [m["epoch"] for m in result.metrics] == list(range(6))
        assert all(m["config_hash"] == result.config.hash()
                   for m in result.metrics)
        # warm-up epochs have no cluster term
        for name in ("l_cluster", "l_ccl", "l_cil"):
            assert np.isnan(result.metrics[0][name])
            assert np.isfinite(result.metrics[5][name])
        assert [m["refit"] for m in result.metrics] == [0, 0, 1, 0, 1, 0]
        # l_cluster is the mean of the two terms, to rounding
        for m in result.metrics[2:]:
            assert m["l_cluster"] == pytest.approx((m["l_ccl"] + m["l_cil"]) / 2)
        # the refit columns: rows moved since the previous refit (none
        # before the first), concentrations at the floor after the last
        assert [m["changed"] is None for m in result.metrics] == \
            [True, True, True, True, False, True]
        assert [m["at_floor"] is None for m in result.metrics] == \
            [True, True, False, True, False, True]
        assert 0 <= result.metrics[4]["changed"] <= 24
        assert result.metrics[4]["at_floor"] == np.count_nonzero(
            result.cluster_state.phis == result.config.phi_floor)

    def test_refit_columns_sum_each_epochs_refits(self, monkeypatch):
        # refits before each of the 3 batches: "changed" sums the moves of
        # an epoch's refits that follow another, "at_floor" reads its last
        states, refit = [], train_mod._refit
        monkeypatch.setattr(train_mod, "_refit", lambda *a: (
            states.append(refit(*a)) or states[-1]))
        result, _ = _small_run(update_per_batch=True, phi_floor=0.5)
        assert len(states) == 4 * 3
        moved = [None] + [clustering.moved_rows(a.assignments, b.assignments, 2)
                          for a, b in zip(states, states[1:])]
        for i, m in enumerate(result.metrics[2:]):
            assert m["changed"] == sum(x for x in moved[3 * i:3 * i + 3]
                                       if x is not None)
            assert m["at_floor"] == np.count_nonzero(states[3 * i + 2].phis
                                                     == 0.5)
        assert any(m["at_floor"] for m in result.metrics[2:])

    @pytest.mark.parametrize("on,off", [("use_ccl", "use_cil"),
                                        ("use_cil", "use_ccl")])
    def test_metrics_rows_of_one_cluster_term(self, on, off):
        # a term not in use reads NaN, and l_cluster is the other term
        term = {"use_ccl": "l_ccl", "use_cil": "l_cil"}
        result, _ = _small_run(**{on: True, off: False})
        for m in result.metrics:
            assert np.isnan(m[term[off]])
            assert repr(m["l_cluster"]) == repr(m[term[on]])

    def test_metrics_rows_of_a_shared_warmup(self):
        # a run that resumes a stored warm-up carries its rows, every
        # column included; self_only has no cluster column at all
        config = _small_config()
        bundle = generate_synthetic(config, config.seed)
        warm = {}
        first = train_mod.train(config, bundle, warm=warm)
        second = train_mod.train(replace(config, use_ccl=False, use_cil=False),
                                 bundle, warm=warm)
        assert len(warm) == 1
        for a, b in zip(first.metrics[:2], second.metrics):
            assert repr({**a, "config_hash": None}) == \
                repr({**b, "config_hash": None})
        assert all(np.isnan(m[name]) for m in second.metrics
                   for name in ("l_cluster", "l_ccl", "l_cil"))
        assert all(m["changed"] is None and m["at_floor"] is None
                   for m in second.metrics)
        # the refit columns of a resumed run are those of a cold one
        cold = train_mod.train(config, bundle)
        resumed = train_mod.train(config, bundle, warm=warm)
        assert [(m["changed"], m["at_floor"]) for m in resumed.metrics] == \
            [(m["changed"], m["at_floor"]) for m in cold.metrics]

    def test_update_per_batch_refits_every_joint_epoch(self):
        result, _ = _small_run(update_per_batch=True)
        assert result.refit_epochs == [2, 3, 4, 5]

    def test_non_finite_loss_aborts_with_location(self, monkeypatch):
        monkeypatch.setattr(
            losses, "self_supervised_loss",
            lambda z, tau: (float("nan"), np.zeros_like(z)))
        with pytest.raises(NumericError, match="epoch 0, batch 0"):
            _small_run()

    def test_training_set_smaller_than_clusters_rejected(self):
        config = _small_config(clusters=2)
        bundle = generate_synthetic(config, 0)
        bundle.id_train = bundle.id_train[:1]
        with pytest.raises(ConfigError,
                           match="clusters=2 exceeds the 1 training rows"):
            train_mod.train(config, bundle)

    def test_write_metrics(self, tmp_path):
        result, _ = _small_run()
        path = tmp_path / "metrics.csv"
        train_mod.write_metrics(result.metrics, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("epoch,lr,l_self,l_cluster,l_ccl,l_cil,refit,"
                            "changed,at_floor,config_hash")
        assert len(lines) == 1 + len(result.metrics)
        warmup, joint = lines[1].split(","), lines[-1].split(",")
        assert warmup[3:6] == ["nan"] * 3
        assert [float(x) for x in joint[3:6]] == \
            [result.metrics[-1][k] for k in ("l_cluster", "l_ccl", "l_cil")]
        # the refit columns are empty on an epoch without a refit, and
        # "changed" on the first refit
        first, second = lines[3].split(","), lines[5].split(",")
        assert warmup[7:9] == joint[7:9] == ["", ""]
        assert first[7] == "" and first[8] == str(result.metrics[2]["at_floor"])
        assert second[7:9] == [str(result.metrics[4][k])
                               for k in ("changed", "at_floor")]

    @pytest.mark.parametrize("per_component,batch_size,used", [
        (11, 8, 16),    # 22 rows: two batches, the last 6 rows of the order idle
        (12, 32, 24)])  # 24 rows, fewer than a batch: one batch of all of them
    def test_each_epoch_augments_its_batches_once(self, monkeypatch,
                                                  per_component, batch_size,
                                                  used):
        config = _small_config(train_per_component=per_component,
                               batch_size=batch_size)
        bundle = generate_synthetic(config, config.seed)
        calls, real_augment = [], train_mod.data_augment

        def spy(rows, rng, cfg):
            state = rng.bit_generator.state
            views = real_augment(rows, rng, cfg)
            calls.append((rows, state, views))
            return views

        monkeypatch.setattr(train_mod, "data_augment", spy)
        train_mod.train(config, bundle)
        assert len(calls) == config.epochs_total
        for epoch, (rows, state, views) in enumerate(calls):
            # drawn from the epoch's generator, right after its order
            rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, 7, epoch]))
            order = rng.permutation(len(bundle.id_train))
            assert state == rng.bit_generator.state
            assert np.array_equal(rows, bundle.id_train[order[:used]])
            assert views.shape == (2 * used, config.d_in)

    def test_float_faults_name_epoch_batch_and_phase(self, monkeypatch):
        # a FloatingPointError keeps its type and gains where it arose
        config = _small_config()
        bundle = generate_synthetic(config, config.seed)
        bundle.id_train[1] = 1.7e308
        with np.errstate(over="raise"), pytest.raises(FloatingPointError) as e:
            train_mod.train(config, bundle)
        assert str(e.value) == \
            "overflow encountered in multiply (epoch 0, augmentation)"

        def refit(*args):
            raise FloatingPointError("invalid value encountered in divide")

        monkeypatch.setattr(train_mod, "_refit", refit)
        with pytest.raises(FloatingPointError) as e:
            _small_run()
        assert str(e.value) == \
            "invalid value encountered in divide (epoch 2, batch 0, refit)"

    @pytest.mark.parametrize("warmup_epochs", [0, 1])
    def test_one_epoch_equals_a_per_array_sgd_loop(self, warmup_epochs):
        # the flat-vector step of `train` against step_gradients into
        # arrays of their own and one `p -= lr * g` per array, bit for bit
        config = _small_config(epochs_total=1, warmup_epochs=warmup_epochs)
        bundle = generate_synthetic(config, config.seed)
        result = train_mod.train(config, bundle)

        enc, proj = model.init_params(config.seed, config.encoder_widths,
                                      config.projection_widths)
        params = [*enc.arrays().values(), *proj.arrays().values()]
        grads = [np.empty_like(p) for p in params]
        state = train_mod._refit(config, enc, proj, bundle, 0) \
            if warmup_epochs == 0 else None
        m, rows = len(bundle.id_train), 2 * config.batch_size
        # one stream per epoch: the order, then every view of the epoch
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 7, 0]))
        order = rng.permutation(m)
        n_batches = m // config.batch_size
        views = train_mod.data_augment(
            bundle.id_train[order[:n_batches * config.batch_size]], rng, config)
        for b in range(n_batches):
            train_mod.step_gradients(
                config, enc, proj, views[b * rows:(b + 1) * rows], state, grads)
            for p, g in zip(params, grads):
                p -= config.lr * g
        assert (state is None) == (result.cluster_state is None)
        assert _blob(result) == train_mod.serialize_checkpoint(
            enc, proj, state, config)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        result, _ = _small_run()
        path = tmp_path / "model.ckpt"
        train_mod.save_checkpoint(path, result)
        loaded = train_mod.load_checkpoint(path)
        assert loaded.config == result.config
        for net in ("encoder", "projection"):
            for a, b in zip(getattr(result, net).arrays().values(),
                            getattr(loaded, net).arrays().values()):
                np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(loaded.cluster_state.centers,
                                      result.cluster_state.centers)
        np.testing.assert_array_equal(loaded.cluster_state.assignments,
                                      result.cluster_state.assignments)
        np.testing.assert_array_equal(loaded.cluster_state.phis,
                                      result.cluster_state.phis)
        assert loaded.cluster_state.updated_at_epoch == \
            result.cluster_state.updated_at_epoch

    def test_save_is_byte_deterministic(self, tmp_path):
        result, _ = _small_run()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        train_mod.save_checkpoint(p1, result)
        train_mod.save_checkpoint(p2, result)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_existing_checkpoint(self, tmp_path,
                                                     monkeypatch):
        result, _ = _small_run()
        path = tmp_path / "model.ckpt"
        train_mod.save_checkpoint(path, result)
        before = path.read_bytes()

        class HalfWrite:
            # writes half of what it is given, then fails like a full disk
            def __init__(self, file, mode):
                self.f = open(file, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                raise OSError("no space left on device")

        result.encoder.weights[0][0, 0] += 1.0
        monkeypatch.setattr(train_mod, "open", HalfWrite, raising=False)
        with pytest.raises(OSError):
            train_mod.save_checkpoint(path, result)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(ConfigError):
            train_mod.load_checkpoint(path)


class TestEvaluate:
    def test_report_covers_all_sets(self):
        result, bundle = _small_run()
        report = train_mod.evaluate(result, bundle)
        assert set(report.aurocs) == {"shifted", "scaled", "interp"}
        assert report.score_kind == result.config.score_kind
        assert report.config_hash == result.config.hash()

    @pytest.mark.parametrize("kind", ["cos", "var"])
    def test_one_pass_equals_scoring_each_set(self, kind):
        # every set goes through one forward and one score_set call; each
        # set's scores equal scoring it alone on the same features, a
        # one-row set included
        result, bundle = _small_run()
        bundle.ood_sets["single"] = bundle.ood_sets["shifted"][:1]
        report = train_mod.evaluate(result, bundle, score_kind=kind)
        names = sorted(bundle.ood_sets)
        sets = [bundle.id_test] + [bundle.ood_sets[n] for n in names]

        def feats(x):
            return model.layer_features(result.encoder, result.projection, x,
                                        result.config.score_layer)

        bank = scoring.ReferenceBank(feats(bundle.id_train))
        stacked = np.split(feats(np.concatenate(sets)),
                           np.cumsum([len(x) for x in sets])[:-1])
        got = [report.id_scores] + [report.ood_scores[n] for n in names]
        for f, scores in zip(stacked, got):
            want = scoring.score_set(bank, f, kind, result.config.k_top)
            assert scores.tobytes() == want.tobytes()

    def test_dimension_mismatch_rejected(self):
        result, _ = _small_run()
        other = generate_synthetic(DatasetSpec(d_in=6, components=2,
                                               train_per_component=5,
                                               test_per_component=5,
                                               ood_samples=6), 0)
        with pytest.raises(ConfigError):
            train_mod.evaluate(result, other)

    def test_bundle_without_ood_sets_rejected(self):
        result, bundle = _small_run()
        bundle.ood_sets.clear()
        with pytest.raises(ConfigError, match="ood_shifted.csv, "
                           "ood_scaled.csv, ood_interp.csv"):
            train_mod.evaluate(result, bundle)

    def test_similarity_bounded(self):
        result, bundle = _small_run()
        sim = train_mod.mean_max_center_similarity(result, bundle)
        assert -1.0 <= sim <= 1.0

    def test_similarity_requires_cluster_state(self):
        result, bundle = _small_run(use_ccl=False, use_cil=False)
        with pytest.raises(ConfigError):
            train_mod.mean_max_center_similarity(result, bundle)

    def test_export_features_labels_every_row(self, tmp_path):
        result, bundle = _small_run()
        path = tmp_path / "features.csv"
        train_mod.export_features(result, bundle, "embedding", path)
        lines = path.read_text().splitlines()
        total = (bundle.id_train.shape[0] + bundle.id_test.shape[0] +
                 sum(v.shape[0] for v in bundle.ood_sets.values()))
        assert len(lines) == total
        assert lines[0].startswith("id_train,")

    def test_export_features_of_an_unknown_layer_write_no_file(self, tmp_path):
        result, bundle = _small_run()
        path = tmp_path / "features.csv"
        with pytest.raises(ConfigError, match="unknown layer 'hidden'"):
            train_mod.export_features(result, bundle, "hidden", path)
        assert not path.exists()


def _forwards(monkeypatch):
    """The score layer of each `model.layer_features` call from now on."""
    calls, real = [], model.layer_features
    monkeypatch.setattr(model, "layer_features", lambda enc, proj, x, layer: (
        calls.append(layer) or real(enc, proj, x, layer)))
    return calls


def _cleared(result, bundle, **kw):
    """`evaluate` with no entry held before or after."""
    train_mod._prepared.clear()
    report = train_mod.evaluate(result, bundle, **kw)
    train_mod._prepared.clear()
    return report


def _report_bytes(report):
    return (report.score_kind, report.k_top, report.config_hash,
            report.id_scores.tobytes(), report.id_clamped,
            [(n, s.tobytes(), report.aurocs[n], report.ood_clamped[n])
             for n, s in report.ood_scores.items()])


# each edits (result, bundle) in place, or replaces its config, and
# returns the pair
def _scale_train_cell(result, bundle):
    bundle.id_train[0, 0] *= 2
    return result, bundle


def _edit_ood_cell(result, bundle):
    bundle.ood_sets["scaled"][1, 2] = 0.5
    return result, bundle


def _edit_weight(result, bundle):
    result.encoder.weights[0][0, 0] += 0.25
    return result, bundle


def _move_a_layer(result, bundle):
    # the same arrays in the same order, but the projection's first layer
    # now ends the encoder, behind a ReLU
    enc, proj = result.encoder, result.projection
    return replace(result, encoder=model.MLPParams(
        enc.weights + proj.weights[:1], enc.biases + proj.biases[:1]),
        projection=model.MLPParams(proj.weights[1:], proj.biases[1:])), bundle


def _add_set(result, bundle):
    bundle.ood_sets["extra"] = bundle.ood_sets["shifted"][:3].copy()
    return result, bundle


def _rename_set(result, bundle):
    bundle.ood_sets["renamed"] = bundle.ood_sets.pop("shifted")
    return result, bundle


def _other_layer(result, bundle):
    layer = {"embedding": "projection", "projection": "embedding"}
    return replace(result, config=replace(
        result.config, score_layer=layer[result.config.score_layer])), bundle


def _negate_zero(result, bundle):
    assert bundle.id_test[0, 0].tobytes() == np.float64(0.0).tobytes()
    bundle.id_test[0, 0] = -0.0
    return result, bundle


class TestEvaluateCache:
    """`evaluate` holds one (model, bundle) entry: the bank, the stacked
    query features and the bank's cells, keyed by its inputs' bits."""

    @pytest.fixture(autouse=True)
    def _no_entry(self, monkeypatch):
        monkeypatch.setattr(train_mod, "_prepared", [])

    @pytest.fixture(scope="class")
    def wide_run(self):
        # 600 training rows: a bank with direction cells, wide enough for
        # var's threshold filter at K = 5
        return _small_run(train_per_component=300)

    def test_both_kinds_share_one_forward_and_one_set_of_cells(
            self, monkeypatch, wide_run):
        result, bundle = wide_run
        want = [_cleared(result, bundle, score_kind=kind)
                for kind in ("var", "cos")]
        forwards, cells, real = _forwards(monkeypatch), [], scoring._cos_cells
        monkeypatch.setattr(scoring, "_cos_cells", lambda features: (
            cells.append(len(features)) or real(features)))
        var = train_mod.evaluate(result, bundle, score_kind="var")
        assert len(forwards) == 2 and cells == [600]
        cos = train_mod.evaluate(result, bundle, score_kind="cos")
        assert len(forwards) == 2 and cells == [600]
        assert [_report_bytes(r) for r in (var, cos)] == \
            [_report_bytes(r) for r in want]

    def test_var_too_narrow_for_its_filter_builds_no_cells(self, monkeypatch):
        result, bundle = _small_run()
        cells, real = [], scoring._cos_cells
        monkeypatch.setattr(scoring, "_cos_cells", lambda features: (
            cells.append(len(features)) or real(features)))
        train_mod.evaluate(result, bundle, score_kind="var")
        assert cells == []
        for _ in range(2):
            train_mod.evaluate(result, bundle, score_kind="cos")
        assert cells == [24]

    @pytest.mark.parametrize("edit", [
        _scale_train_cell, _edit_ood_cell, _edit_weight, _move_a_layer,
        _add_set, _rename_set, _other_layer, _negate_zero])
    @pytest.mark.parametrize("kind", ["cos", "var"])
    def test_a_changed_input_gives_a_fresh_report(self, monkeypatch, edit,
                                                  kind):
        result, bundle = _small_run()
        bundle.id_test[0, 0] = 0.0
        train_mod.evaluate(result, bundle, score_kind=kind)
        forwards = _forwards(monkeypatch)
        result, bundle = edit(result, bundle)
        got = train_mod.evaluate(result, bundle, score_kind=kind)
        assert len(forwards) == 2
        assert _report_bytes(got) == \
            _report_bytes(_cleared(result, bundle, score_kind=kind))

    def test_a_nan_row_evaluates_as_without_the_entry(self, monkeypatch):
        result, bundle = _small_run()
        bundle.id_test[2] = np.nan
        forwards = _forwards(monkeypatch)
        for _ in range(2):
            with pytest.raises(NumericError, match="AUROC needs finite"):
                train_mod.evaluate(result, bundle)
        # the NaN row's bits match: one forward of bank and queries
        assert len(forwards) == 2

    def test_one_entry_is_held(self, monkeypatch):
        first, second = _small_run(), _small_run(seed=1)
        train_mod.evaluate(*first)
        bank = weakref.ref(train_mod._prepared[0].bank)
        train_mod.evaluate(*second)
        gc.collect()
        assert bank() is None and len(train_mod._prepared) == 1
        forwards = _forwards(monkeypatch)
        train_mod.evaluate(*first)
        assert len(forwards) == 2 and len(train_mod._prepared) == 1

    def test_a_failed_forward_holds_no_entry(self):
        # a test row of 1.7e308 cells overflows the forward: ignored, the
        # forward runs on; raised, the same inputs stop it
        result, bundle = _small_run()
        bundle.id_test[0] = 1.7e308
        with np.errstate(all="ignore"):
            train_mod.evaluate(result, bundle)
        assert len(train_mod._prepared) == 1
        with np.errstate(over="raise"), pytest.raises(
                FloatingPointError, match=r"in matmul \(forward\)$"):
            train_mod.evaluate(result, bundle)
        assert train_mod._prepared == []

    @pytest.mark.parametrize("kind,k_top,message", [
        ("energy", None, "unknown score_kind 'energy', expected one of cos, var"),
        ("", None, "unknown score_kind '', expected one of cos, var"),
        ("var", 25, r"k_top must lie in \[2, 24\]"),
        ("var", 1, r"k_top must lie in \[2, 24\]"),
        ("cos", 0, "k_top must be positive")])
    def test_bad_arguments_cost_no_forward(self, monkeypatch, kind, k_top,
                                           message):
        (result, bundle), other = _small_run(), _small_run(seed=1)[1]
        train_mod.evaluate(result, bundle)
        entry = train_mod._prepared[0]
        forwards = _forwards(monkeypatch)
        for data in (bundle, other):
            with pytest.raises(ConfigError, match=message):
                train_mod.evaluate(result, data, score_kind=kind, k_top=k_top)
        assert forwards == []
        assert len(train_mod._prepared) == 1 and train_mod._prepared[0] is entry


def test_training_beats_untrained_encoder():
    config = benchmark_config()
    blank = replace(config, epochs_total=0, warmup_epochs=0)
    trained, untrained = (
        train_mod.evaluate(*ablate.run_one(c), score_kind="cos").aurocs["shifted"]
        for c in (config, blank))
    assert trained > untrained


def test_clood_train_is_the_module():
    import clood.train as m
    assert callable(m.step_gradients)


def test_sweeps_train_each_config_once(monkeypatch):
    monkeypatch.setattr(ablate, "_runs", {})
    trained, real_train = [], ablate.train
    monkeypatch.setattr(ablate, "train", lambda config, bundle, **kw: (
        trained.append(config.hash()) or real_train(config, bundle, **kw)))
    for sweep in ("loss-terms", "cluster-count"):
        ablate.run_sweep(sweep, _small_config(), n_seeds=1)
    # the four loss-term variants, then only r=10: r=2 is the full model
    assert len(trained) == len(set(trained)) == 5


@pytest.mark.parametrize("components,labels", [
    (2, ["r=2", "r=10"]), (3, ["r=2", "r=3", "r=15"]),
    (4, ["r=2", "r=4", "r=20"])])
def test_cluster_count_labels_give_trained_clusters(components, labels):
    variants = ablate.variants("cluster-count",
                               benchmark_config(components=components))
    assert [label for label, _ in variants] == labels
    assert all(label == f"r={cfg.clusters}" for label, cfg in variants)


def test_unknown_sweep_lists_the_sweeps():
    with pytest.raises(ConfigError, match=", ".join(ablate.SWEEPS)):
        ablate.variants("bogus", benchmark_config())


def test_ablation_sweep_smoke(tmp_path):
    rows = ablate.run_sweep("loss-terms", _small_config(), n_seeds=1)
    assert [r["variant"] for r in rows] == ["self_only", "self+ccl",
                                            "self+cil", "full"]
    assert all(0.0 <= r["auroc_shifted"] <= 1.0 for r in rows)
    out = tmp_path / "sweep.csv"
    ablate.write_sweep(rows, out)
    assert out.read_text().startswith("sweep,variant,")
    assert "self_only" in ablate.format_sweep(rows)


def _blob(result):
    return train_mod.serialize_checkpoint(result.encoder, result.projection,
                                          result.cluster_state, result.config)


@pytest.mark.parametrize("reverse", [False, True])
def test_shared_warmup_equals_fresh_training(monkeypatch, reverse):
    monkeypatch.setattr(ablate, "_runs", {})
    monkeypatch.setattr(ablate, "_warm", {})
    calls, real_augment = [], train_mod.data_augment
    monkeypatch.setattr(train_mod, "data_augment", lambda *a: (
        calls.append(a) or real_augment(*a)))
    labelled = [(label, replace(cfg, seed=seed)) for sweep in ablate.SWEEPS
                for label, cfg in ablate.variants(sweep, _small_config())
                for seed in (0, 1)]
    assert {"no_warmup_u10", "warmup_u_batch"} <= {label for label, _ in labelled}
    if reverse:
        labelled.reverse()
    stored = {}
    for _, cfg in labelled:
        new = cfg.hash() not in ablate._runs
        bundle = generate_synthetic(cfg, cfg.seed)
        hit = train_mod.warmup_key(cfg, bundle) in ablate._warm
        del calls[:]
        result, bundle = ablate.run_one(cfg)
        # a run that finds its warm-up trains only the epochs after it, and
        # augments once per epoch
        epochs = cfg.epochs_total - cfg.warmup_epochs * hit
        assert len(calls) == new * epochs
        for key, (params, rows) in ablate._warm.items():
            stored.setdefault(key, (params.copy(), repr(rows)))

        fresh = train_mod.train(cfg, bundle)
        assert _blob(result) == _blob(fresh)
        assert repr(result.metrics) == repr(fresh.metrics)
        assert result.refit_epochs == fresh.refit_epochs
    # one warm-up per seed; SGD updates in place, so a run that aliased
    # the stored arrays would have changed them
    assert len(ablate._warm) == 2
    for key, (params, rows) in ablate._warm.items():
        assert np.array_equal(params, stored[key][0])
        assert repr(rows) == stored[key][1]


def _other_value(config, name):
    """A valid value of field `name` other than `config`'s."""
    value = getattr(config, name)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value - 1 if name == "warmup_epochs" else value + 1
    if isinstance(value, float):
        return value / 2
    if isinstance(value, tuple):
        return value[:1] + (value[1] + 1,) + value[2:]
    return {"embedding": "projection", "projection": "embedding",
            "var": "cos", "cos": "var"}[value]


def _warmup_params(config, bundle):
    """The flat parameter vector `train` stores in a fresh `warm` mapping
    at the start of epoch `warmup_epochs`."""
    warm = {}
    train_mod.train(config, bundle, warm=warm)
    (params, _), = warm.values()
    return params


def test_warmup_free_fields_leave_the_warmup_alone():
    config = _small_config()
    bundle = generate_synthetic(config, config.seed)
    key = train_mod.warmup_key(config, bundle)
    want = _warmup_params(config, bundle)
    for name in train_mod.WARMUP_FREE:
        changed = replace(config, **{name: _other_value(config, name)})
        assert train_mod.warmup_key(changed, bundle) == key, name
        got = _warmup_params(changed, bundle)
        assert got.tobytes() == want.tobytes(), name


def test_every_other_field_changes_the_warmup_key():
    config = _small_config()
    bundle = generate_synthetic(config, config.seed)
    key = train_mod.warmup_key(config, bundle)
    others = [f.name for f in fields(TrainConfig)
              if f.name not in train_mod.WARMUP_FREE]
    for name in others:
        changed = replace(config, **{name: _other_value(config, name)})
        assert train_mod.warmup_key(changed, bundle) != key, name
    other_rows = replace(bundle, id_train=bundle.id_train[::-1].copy())
    assert train_mod.warmup_key(config, other_rows) != key


def test_ablate_options_apply_over_benchmark_config(monkeypatch, tmp_path):
    # --config, then --set, change only the benchmark fields they name
    bases = []
    monkeypatch.setattr(ablate, "run_sweep", lambda name, base, n_seeds: (
        bases.append(base) or []))
    path = tmp_path / "sweep.cfg"
    path.write_text("lr = 0.1\ncomponent_spread = 0.2\n")
    assert cli.main(["ablate", "--sweep", "loss-terms",
                     "--set", "component_spread=0.3"]) == 0
    assert cli.main(["ablate", "--sweep", "loss-terms", "--config", str(path),
                     "--set", "component_spread=0.3"]) == 0
    assert cli.main(["ablate", "--sweep", "loss-terms"]) == 0
    assert bases == [benchmark_config(component_spread=0.3),
                     benchmark_config(component_spread=0.3, lr=0.1),
                     benchmark_config()]


def test_sweep_checks_every_cluster_count_before_training(monkeypatch, capsys):
    monkeypatch.setattr(ablate, "train", lambda *a, **kw: pytest.fail(
        "a variant trained before the cluster counts were checked"))
    rc = cli.main(["ablate", "--sweep", "cluster-count", "--seeds", "1",
                   "--set", "components=2", "--set", "train_per_component=4",
                   "--set", "k_top=5"])
    assert rc == 2
    assert ("sweep cluster-count variant r=10: clusters=10 exceeds the 8 "
            "training rows") in capsys.readouterr().err


def test_sweep_checks_k_top_against_training_rows_before_training(
        monkeypatch, capsys):
    # var's top-K of 100 (benchmark_config's) cannot fit a bank of the 8
    # training rows
    monkeypatch.setattr(ablate, "train", lambda *a, **kw: pytest.fail(
        "a variant trained before k_top was checked"))
    rc = cli.main(["ablate", "--sweep", "loss-terms", "--seeds", "1",
                   "--set", "components=2", "--set", "train_per_component=4",
                   "--set", "clusters=2"])
    assert rc == 2
    assert ("k_top must lie in [2, 8] for a bank of 8 rows, got 100\n"
            in capsys.readouterr().err)
    # cos has no top-K
    TrainConfig(score_kind="cos", components=2, train_per_component=4,
                clusters=2)


def _text_positions(blob):
    """Offsets of every byte on a checkpoint's text lines: the header, the
    array section's checksum and each array's header line, but not the raw
    array bytes."""
    positions, pos = [], 0

    def line():
        nonlocal pos
        end = blob.index(b"\n", pos) + 1
        positions.extend(range(pos, end))
        text, pos = blob[pos:end], end
        return text

    line()
    line()
    for _ in range(int(line())):
        line()
    line()
    for _ in range(int(line())):
        name, dtype, *shape = line().split()
        pos += math.prod(map(int, shape)) * np.dtype(dtype.decode()).itemsize
    return positions


def _array_positions(blob):
    """Offsets of every raw array byte of a checkpoint."""
    text = set(_text_positions(blob))
    return [pos for pos in range(len(blob)) if pos not in text]


class TestCli:
    def _config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# desk-scale smoke run\n"
            "d_in = 8\ncomponents = 2\ntrain_per_component = 12\n"
            "test_per_component = 6\nood_samples = 8\n"
            "encoder_widths = 8,8,6\nprojection_widths = 6,6,4\n"
            "batch_size = 8\nepochs_total = 6\nwarmup_epochs = 2\n"
            "update_interval = 2\nclusters = 2\nk_top = 5\n")
        return str(path)

    def test_full_pipeline(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        data_dir = str(tmp_path / "bundle")
        ckpt = str(tmp_path / "model.ckpt")
        assert cli.main(["gen-data", "--config", cfg, "--out", data_dir]) == 0
        assert cli.main(["train", "--config", cfg, "--data", data_dir,
                         "--checkpoint", ckpt,
                         "--metrics", str(tmp_path / "metrics.csv")]) == 0
        assert cli.main(["eval", "--checkpoint", ckpt, "--data", data_dir,
                         "--scores", str(tmp_path / "scores.csv"),
                         "--summary", str(tmp_path / "summary.csv")]) == 0
        assert cli.main(["export", "--checkpoint", ckpt, "--data", data_dir,
                         "--layer", "embedding",
                         "--out", str(tmp_path / "features.csv")]) == 0
        out = capsys.readouterr().out
        assert "auroc=" in out
        assert (tmp_path / "summary.csv").exists()

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = self._config_file(tmp_path)
        for seed, name in ((1, "a.ckpt"), (2, "b.ckpt")):
            assert cli.main(["train", "--config", cfg, "--set",
                             f"seed={seed}",
                             "--checkpoint", str(tmp_path / name)]) == 0
        assert (tmp_path / "a.ckpt").read_bytes() != \
            (tmp_path / "b.ckpt").read_bytes()

    @pytest.mark.parametrize("error,code,kind", [
        (errors.ConfigError, 2, "config error"),
        (errors.NumericError, 3, "numeric failure")])
    def test_each_error_class_exits_with_its_code(self, tmp_path, capsys,
                                                  monkeypatch, error, code,
                                                  kind):
        def fail(*args):
            raise error("raised in the command")

        monkeypatch.setattr(cli, "generate_synthetic", fail)
        rc = cli.main(["gen-data", "--out", str(tmp_path / "bundle"),
                       "--config", self._config_file(tmp_path)])
        assert rc == code == error.exit_code
        err = capsys.readouterr().err
        assert err == f"{kind}: raised in the command\n"

    def test_choices_are_the_declared_kinds_and_layers(self):
        commands = next(a for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices

        def choices(command, flag):
            return next(a.choices for a in commands[command]._actions
                        if flag in a.option_strings)

        assert tuple(choices("eval", "--score-kind")) == scoring.SCORE_KINDS
        assert tuple(choices("export", "--layer")) == model.LAYERS

    def test_unplaceable_centers_name_their_keys(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--set", "components=20", "--set", "d_in=2",
                       "--out", str(tmp_path / "d")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "components=20" in err and "d_in=2" in err

    # past int64 numpy cannot shape an array; 2**40 rows it cannot allocate
    @pytest.mark.parametrize("key", ["d_in", "train_per_component",
                                     "ood_samples"])
    @pytest.mark.parametrize("value", [2**70, 2**40])
    def test_unallocatable_sizes_name_their_keys(self, tmp_path, capsys, key,
                                                 value):
        rc = cli.main(["gen-data", "--set", f"{key}={value}",
                       "--out", str(tmp_path / "d")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot generate a bundle of ")
        assert f"{key}={value}" in err
        assert not (tmp_path / "d").exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--set", "bogus=1",
                       "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--set", "seed=-1",
                       "--out", str(tmp_path / "d")])
        assert rc == 2
        assert capsys.readouterr().err == \
            "config error: seed must lie in [0, inf), got -1\n"

    def test_negative_aug_noise_exits_2(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", self._config_file(tmp_path),
                       "--set", "aug_noise=-1",
                       "--checkpoint", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert capsys.readouterr().err == \
            "config error: aug_noise must lie in [0, inf), got -1.0\n"

    @pytest.mark.parametrize("iters", [0, -1])
    def test_kmeans_max_iters_below_one_exits_2(self, tmp_path, capsys, iters):
        rc = cli.main(["train", "--config", self._config_file(tmp_path),
                       "--set", f"kmeans_max_iters={iters}",
                       "--checkpoint", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert capsys.readouterr().err == ("config error: kmeans_max_iters "
                                           "must lie in [1, inf), "
                                           f"got {iters}\n")

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"lr=0.05\n\xff\xfe=1\n")
        rc = cli.main(["train", "--config", str(path),
                       "--checkpoint", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"config error: {path}:2: not UTF-8 text\n"

    def test_config_file_may_start_with_a_bom(self, tmp_path):
        # the mark is no part of the first key: both files give the same
        # values and the same bundle bytes
        plain = Path(self._config_file(tmp_path))
        text = b"seed = 3\n" + plain.read_bytes()
        plain.write_bytes(text)
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + text)
        assert load_config_file(bom) == load_config_file(plain)
        for path in (plain, bom):
            assert cli.main(["gen-data", "--config", str(path),
                             "--out", str(tmp_path / path.stem)]) == 0
        files = sorted(os.listdir(tmp_path / "run"))
        assert files == sorted(os.listdir(tmp_path / "bom"))
        for name in files:
            assert (tmp_path / "bom" / name).read_bytes() == \
                (tmp_path / "run" / name).read_bytes()

    def test_non_finite_config_exits_2(self, tmp_path, capsys):
        rc = cli.main(["train", "--set", "lr=nan",
                       "--checkpoint", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert capsys.readouterr().err == \
            "config error: lr must lie in (0, inf), got nan\n"

    def _trained(self, tmp_path):
        cfg = self._config_file(tmp_path)
        data_dir, ckpt = tmp_path / "bundle", tmp_path / "model.ckpt"
        assert cli.main(["gen-data", "--config", cfg,
                         "--out", str(data_dir)]) == 0
        assert cli.main(["train", "--config", cfg, "--data", str(data_dir),
                         "--checkpoint", str(ckpt)]) == 0
        return data_dir, ckpt

    def _eval(self, tmp_path, ckpt, data_dir, *flags):
        return cli.main(["eval", "--checkpoint", str(ckpt),
                         "--data", str(data_dir),
                         "--scores", str(tmp_path / "s.csv"),
                         "--summary", str(tmp_path / "a.csv"), *flags])

    @pytest.mark.parametrize("edit,message", [
        (lambda line: "x," + line.split(",", 1)[1],
         "id_test.csv:3: could not convert string to float: 'x'"),
        (lambda line: "nan," + line.split(",", 1)[1],
         "id_test.csv:3: non-finite value"),
        (lambda line: "-inf," + line.split(",", 1)[1],
         "id_test.csv:3: non-finite value"),
        (lambda line: line.rsplit(",", 1)[0],
         "id_test.csv:3: expected 8 cells, found 7"),
        (None, "id_test.csv: set 'id_test' has no rows"),
        # '\udcff' is written as the byte 0xff
        (lambda line: "\udcff" + line,
         "id_test.csv: not UTF-8 text: invalid start byte"),
        (lambda line: "1" * (csv.field_size_limit() + 1) + line[1:],
         "id_test.csv:3: field larger than field limit (131072)")],
        ids=["non-numeric", "nan", "inf", "ragged", "header-only", "not-utf8",
             "long-cell"])
    def test_bad_bundle_set_exits_2(self, tmp_path, capsys, edit, message):
        data_dir, ckpt = self._trained(tmp_path)
        path = data_dir / "id_test.csv"
        lines = path.read_text().splitlines()
        if edit is None:
            lines = lines[:1]
        else:
            lines[2] = edit(lines[2])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8",
                        errors="surrogateescape")
        capsys.readouterr()
        assert self._eval(tmp_path, ckpt, data_dir) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_narrow_bundle_set_exits_2(self, tmp_path, capsys, command):
        data_dir, ckpt = self._trained(tmp_path)
        path = data_dir / "ood_shifted.csv"
        lines = path.read_text().splitlines()
        lines = ["shifted,7"] + [line.rsplit(",", 1)[0] for line in lines[1:]]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        if command == "eval":
            rc = self._eval(tmp_path, ckpt, data_dir)
        else:
            rc = cli.main(["export", "--checkpoint", str(ckpt),
                           "--data", str(data_dir),
                           "--out", str(tmp_path / "f.csv")])
        assert rc == 2
        assert f"{path}: set 'shifted' is 7 wide, id_train is 8" in \
            capsys.readouterr().err

    def test_eval_without_ood_sets_exits_2(self, tmp_path, capsys):
        data_dir, ckpt = self._trained(tmp_path)
        for path in data_dir.glob("ood_*.csv"):
            path.unlink()
        capsys.readouterr()
        assert self._eval(tmp_path, ckpt, data_dir) == 2
        assert "bundle has no OOD set" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("data", [False, True], ids=["generated", "bundle"])
    def test_train_width_mismatch_exits_2(self, tmp_path, capsys, data):
        # the default encoder takes 16 columns: set d_in=8 under it, which
        # the config itself breaks, or read an 8-wide bundle, which the
        # default d_in=16 names the bundle's fault
        args = ["train", "--checkpoint", str(tmp_path / "m.ckpt")]
        if data:
            data_dir = str(tmp_path / "bundle")
            assert cli.main(["gen-data", "--config", self._config_file(tmp_path),
                             "--out", data_dir]) == 0
            args += ["--data", data_dir]
            message = (f"config error: bundle width 8 does not match config "
                       f"d_in 16 (bundle {data_dir})\n")
        else:
            args += ["--set", "d_in=8"]
            message = ("config error: encoder_widths[0] 16 does not match "
                       "d_in 8\n")
        capsys.readouterr()
        assert cli.main(args) == 2
        assert capsys.readouterr().err == message

    def test_bundle_of_a_config_with_a_wrong_encoder_blames_the_config(
            self, tmp_path, capsys):
        # gen-data reads d_in alone, so it writes a bundle of the width the
        # config says; train then names the two fields that disagree
        sizes = ["--config", self._config_file(tmp_path), "--set", "d_in=4",
                 "--set", "encoder_widths=5,8,6"]
        data_dir = str(tmp_path / "bundle")
        assert cli.main(["gen-data", *sizes, "--out", data_dir]) == 0
        capsys.readouterr()
        assert cli.main(["train", *sizes, "--data", data_dir,
                         "--checkpoint", str(tmp_path / "m.ckpt")]) == 2
        assert capsys.readouterr().err == (
            f"config error: encoder_widths[0] 5 does not match d_in 4 "
            f"(bundle {data_dir})\n")

    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_bundle_wider_than_the_checkpoint_names_both(
            self, trained_once, tmp_path, capsys, command):
        # an 8-wide checkpoint against the default 16-wide bundle
        _, ckpt = trained_once
        data_dir = str(tmp_path / "wide")
        assert cli.main(["gen-data", "--out", data_dir]) == 0
        capsys.readouterr()
        outputs = {"eval": ["--scores", str(tmp_path / "s.csv"),
                            "--summary", str(tmp_path / "a.csv")],
                   "export": ["--out", str(tmp_path / "f.csv")]}[command]
        assert cli.main([command, "--checkpoint", str(ckpt), "--data",
                         data_dir, *outputs]) == 2
        assert capsys.readouterr().err == (
            f"config error: bundle width 16 does not match config d_in 8 "
            f"(checkpoint {ckpt}, bundle {data_dir})\n")
        assert sorted(os.listdir(tmp_path)) == ["wide"]

    @pytest.mark.parametrize("bad", ["missing", "directory"])
    @pytest.mark.parametrize("command,flag", [
        ("train", "--checkpoint"), ("train", "--metrics"),
        ("eval", "--scores"), ("eval", "--summary"), ("export", "--out"),
        ("ablate", "--out")])
    def test_unwritable_output_exits_2_before_any_work(
            self, trained_once, tmp_path, capsys, monkeypatch, command, flag,
            bad):
        # a missing directory or a directory in an output's place is found
        # before anything is trained, scored or written
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} ran")

        for module, name in [(cli, "train"), (cli, "evaluate"),
                             (cli, "export_features"),
                             (ablate, "run_sweep")]:
            monkeypatch.setattr(module, name, no_work)
        data_dir, ckpt = trained_once
        (tmp_path / "dir").mkdir()
        path = str(tmp_path / "missing" / "out") if bad == "missing" \
            else str(tmp_path / "dir")
        cfg, out = self._config_file(tmp_path), str(tmp_path / "out")
        args = {
            "train": ["--config", cfg, "--data", str(data_dir),
                      "--checkpoint", out, "--metrics", out + ".csv"],
            "eval": ["--checkpoint", str(ckpt), "--data", str(data_dir),
                     "--scores", out, "--summary", out + ".csv"],
            "export": ["--checkpoint", str(ckpt), "--data", str(data_dir),
                       "--out", out],
            "ablate": ["--sweep", "loss-terms", "--seeds", "1",
                       "--config", cfg, "--out", out]}[command]
        args[args.index(flag) + 1] = path
        capsys.readouterr()
        assert cli.main([command, *args]) == 2
        reason = "no directory " + str(tmp_path / "missing") \
            if bad == "missing" else "it is a directory"
        assert capsys.readouterr().err == \
            f"file error: cannot write {path}: {reason}\n"
        assert sorted(os.listdir(tmp_path)) == ["dir", "run.cfg"]
        assert not os.listdir(tmp_path / "dir")

    def test_gen_data_creates_its_output_directory(self, tmp_path):
        out = tmp_path / "new" / "bundle"
        assert cli.main(["gen-data", "--config", self._config_file(tmp_path),
                         "--out", str(out)]) == 0
        assert (out / "id_train.csv").exists()

    @pytest.mark.parametrize("kind,code", [("cos", 0), ("var", 3)])
    def test_eval_bank_with_a_huge_row(self, tmp_path, capsys, kind, code):
        # 600 training rows, more than a cos tile, and row 1 of eight 1e200
        # cells: their squares overflow, the candidates do not, so cos
        # scores the bundle; var's spread takes the huge row and overflows
        data_dir, ckpt = self._trained(tmp_path)
        wide = tmp_path / "wide"
        assert cli.main(["gen-data", "--config", self._config_file(tmp_path),
                         "--set", "train_per_component=300",
                         "--out", str(wide)]) == 0
        path = wide / "id_train.csv"
        lines = path.read_text().splitlines()
        assert len(lines) == 601
        lines[2] = ",".join(["1e200"] * 8)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self._eval(tmp_path, ckpt, wide, "--score-kind", kind) == code
        captured = capsys.readouterr()
        if code == 0:
            assert "auroc=" in captured.out
        else:
            assert captured.err.startswith("numeric failure in eval: overflow")
            assert captured.err.endswith(" (scoring var)\n")

    @pytest.mark.parametrize("kind", ["cos", "var"])
    @pytest.mark.parametrize("k_top", ["0", "-1"])
    def test_eval_k_top_below_one_exits_2(self, tmp_path, capsys, k_top, kind):
        data_dir, ckpt = self._trained(tmp_path)
        capsys.readouterr()
        assert self._eval(tmp_path, ckpt, data_dir,
                          "--score-kind", kind, "--k-top", k_top) == 2
        assert f"k_top must be positive, got {k_top}" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_ablate_without_seeds_exits_2(self, tmp_path, capsys, seeds):
        rc = cli.main(["ablate", "--sweep", "loss-terms", "--seeds", seeds,
                       "--config", self._config_file(tmp_path)])
        assert rc == 2
        assert "at least one seed" in capsys.readouterr().err

    def test_non_finite_scores_exit_3(self, tmp_path, capsys):
        data_dir, ckpt = self._trained(tmp_path)
        result = train_mod.load_checkpoint(ckpt)
        result.encoder.weights[0][0, 0] = float("nan")
        train_mod.save_checkpoint(ckpt, result)
        assert self._eval(tmp_path, ckpt, data_dir) == 3
        assert "AUROC needs finite scores" in capsys.readouterr().err

    @pytest.mark.parametrize("setting,message", [
        ("tau=1e-320", "invalid value encountered in subtract"),
        ("aug_noise=1e200", "overflow encountered in multiply")])
    def test_numeric_failure_in_train_names_its_phase(self, tmp_path, capsys,
                                                      setting, message):
        ckpt = tmp_path / "model.ckpt"
        assert cli.main(["train", "--config", self._config_file(tmp_path),
                         "--set", setting, "--checkpoint", str(ckpt)]) == 3
        assert f"numeric failure in train: {message} (epoch 0, batch 0, " \
            f"step)" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_overflowing_forward_names_its_phase(self, tmp_path, capsys):
        # a test row of 1.7e308 cells overflows the forward
        data_dir, ckpt = self._trained(tmp_path)
        path = data_dir / "id_test.csv"
        lines = path.read_text().splitlines()
        lines[1] = ",".join(["1.7e308"] * 8)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self._eval(tmp_path, ckpt, data_dir) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure in eval: overflow")
        assert err.endswith(" (forward)\n")

    @pytest.mark.parametrize("error,code", [
        (NumericError, 3), (FloatingPointError, 3), (ConfigError, 2)])
    def test_failed_sweep_run_names_sweep_variant_and_seed(
            self, tmp_path, capsys, monkeypatch, error, code):
        real = ablate.evaluate

        def evaluate(result, bundle):
            if result.config.seed == 1 and result.config.use_ccl \
                    and not result.config.use_cil:
                raise error("no score")
            return real(result, bundle)

        monkeypatch.setattr(ablate, "evaluate", evaluate)
        assert cli.main(["ablate", "--sweep", "loss-terms", "--seeds", "2",
                         "--config", self._config_file(tmp_path)]) == code
        assert capsys.readouterr().err.endswith(
            "no score (sweep loss-terms, variant self+ccl, seed 1)\n")
        with pytest.raises(error) as raised:
            ablate.run_sweep("loss-terms", _small_config(), n_seeds=2)
        assert type(raised.value) is error

    def test_overflowing_row_exits_3(self, tmp_path, capsys):
        # a training row of 1e308 cells overflows its norm: train and eval
        # stop with exit 3 instead of reporting AUROCs of 0.5
        data_dir, ckpt = self._trained(tmp_path)
        path = data_dir / "id_train.csv"
        lines = path.read_text().splitlines()
        lines[1] = ",".join(["1e308"] * 8)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        big = tmp_path / "big.ckpt"
        assert cli.main(["train", "--config", self._config_file(tmp_path),
                         "--data", str(data_dir),
                         "--checkpoint", str(big)]) == 3
        assert "numeric failure in train: overflow" in capsys.readouterr().err
        assert not big.exists()
        assert self._eval(tmp_path, ckpt, data_dir) == 3
        assert "numeric failure in eval: overflow" in capsys.readouterr().err

    def test_valid_runs_raise_no_float_fault(self, tmp_path, capsys):
        # commands run with overflow, invalid and divide-by-zero raised;
        # the tiny pipeline and a small sweep trip none of them
        data_dir, ckpt = self._trained(tmp_path)
        for kind in ("cos", "var"):
            assert self._eval(tmp_path, ckpt, data_dir,
                              "--score-kind", kind) == 0
        for layer in ("embedding", "projection"):
            assert cli.main(["export", "--checkpoint", str(ckpt),
                             "--data", str(data_dir), "--layer", layer,
                             "--out", str(tmp_path / "f.csv")]) == 0
        assert cli.main(["ablate", "--sweep", "loss-terms", "--seeds", "1",
                         "--config", self._config_file(tmp_path)]) == 0
        assert "numeric failure" not in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--checkpoint", "--data", "--config"])
    def test_missing_input_file_exits_2(self, tmp_path, capsys, flag):
        missing = str(tmp_path / "missing")
        args = {"--checkpoint": ["eval", "--checkpoint", missing,
                                 "--scores", str(tmp_path / "s.csv"),
                                 "--summary", str(tmp_path / "a.csv")],
                "--data": ["train", "--data", missing,
                           "--checkpoint", str(tmp_path / "m.ckpt")],
                "--config": ["train", "--config", missing,
                             "--checkpoint", str(tmp_path / "m.ckpt")]}[flag]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert "file error" in err and missing in err

    def test_ablate_writes_similarity(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert cli.main(["ablate", "--sweep", "cluster-count", "--seeds", "1",
                         "--config", self._config_file(tmp_path),
                         "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert "similarity" in header.split(",")
        assert [row.split(",")[1] for row in rows] == ["r=2", "r=10"]
        assert "r=10" in capsys.readouterr().out

    def test_checkpoint_with_removed_key_exits_2(self, tmp_path, capsys):
        data_dir, ckpt = self._trained(tmp_path)
        lines = ckpt.read_bytes().split(b"\n")
        # line 2 counts the header's key=value lines, which follow it
        lines[2] = str(int(lines[2]) + 1).encode()
        lines.insert(3, b"denominator_includes_positive=False")
        ckpt.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert self._eval(tmp_path, ckpt, data_dir) == 2
        assert f"{ckpt}: unknown config key 'denominator_includes_positive'" \
            in capsys.readouterr().err

    # the small config's checkpoint holds 11 arrays: encoder and projection
    # w0, w1, b0, b1 and the three cluster arrays
    @pytest.mark.parametrize("old,new,message", [
        (b"encoder.w1 ", b"encoder.x1 ", "array encoder.x1 (float64 (8, 6))"),
        (b"encoder.w1 ", b"encoder.w0 ", "array encoder.w0 (float64 (8, 6))"),
        (b"projection.b1 ", b"projection.b2 ",
         "array projection.b2 (float64 (4,))"),
        (b"cluster.phis ", b"cluster.phiz ", "array cluster.phiz (float64 (2,))"),
        (b"encoder.b0 float64 8\n", b"encoder.b0 float64 9\n",
         "array encoder.b0 (float64 (9,))"),
        (b"\n11\n", b"\n10\n", "array projection.w1 is missing")],
        ids=["unknown", "repeated", "beyond-widths", "cluster", "shape",
             "missing"])
    def test_checkpoint_arrays_off_config_exit_2(self, tmp_path, capsys, old,
                                                 new, message):
        data_dir, ckpt = self._trained(tmp_path)
        blob = ckpt.read_bytes()
        assert blob.count(old) == 1
        ckpt.write_bytes(blob.replace(old, new))
        capsys.readouterr()
        assert self._eval(tmp_path, ckpt, data_dir) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: {message}" in err
        assert "missing" in message or "not one its config implies" in err

    @pytest.fixture(scope="class")
    def trained_once(self, tmp_path_factory):
        return self._trained(tmp_path_factory.mktemp("cli"))

    def _eval_changed_byte(self, trained_once, data, positions):
        """Exit code of `clood eval` on the checkpoint with one byte, drawn
        from `positions(blob)`, changed."""
        data_dir, ckpt = trained_once
        blob = ckpt.read_bytes()
        pos = data.draw(st.sampled_from(positions(blob)))
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]))
        bad = ckpt.with_name("bad.ckpt")
        bad.write_bytes(blob[:pos] + bytes([byte]) + blob[pos + 1:])
        return self._eval(ckpt.parent, bad, data_dir)

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_corrupt_text_byte_never_raises(self, trained_once, data):
        # a single-byte change to the header or an array header is read, or
        # rejected with exit 2 (3 for a numeric failure), never a traceback
        assert self._eval_changed_byte(trained_once, data,
                                       _text_positions) in (0, 2, 3)

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_corrupt_array_byte_never_raises(self, trained_once, data):
        # a changed raw array byte fails the array section's checksum
        assert self._eval_changed_byte(trained_once, data,
                                       _array_positions) == 2

    @pytest.mark.parametrize("key,widths", [
        ("encoder_widths", (8,)), ("projection_widths", (6,)),
        ("encoder_widths", (8, 8, 5)), ("projection_widths", (6, 8))],
        ids=["encoder-one", "projection-one", "projection-input",
             "projection-wider"])
    def test_checkpoint_with_bad_widths_exits_2(self, trained_once, tmp_path,
                                                 capsys, key, widths):
        # header, config hash, arrays and checksum all agree; only the
        # widths break TrainConfig's rules, which a config written past
        # its own checks can hold
        data_dir, _ = trained_once
        config = _small_config()
        object.__setattr__(config, key, widths)
        encoder, projection = model.init_params(
            0, config.encoder_widths, config.projection_widths)
        ckpt = tmp_path / "widths.ckpt"
        ckpt.write_bytes(train_mod.serialize_checkpoint(
            encoder, projection, None, config))
        capsys.readouterr()
        assert self._eval(tmp_path, ckpt, data_dir) == 2
        err = capsys.readouterr().err
        assert f"config error: {ckpt}: " in err and "width" in err

    def test_eval_imports_no_scipy(self, trained_once, tmp_path):
        data_dir, ckpt = trained_once
        script = ("import sys\n"
                  "from clood import cli\n"
                  "assert cli.main(sys.argv[1:]) == 0\n"
                  "print(sorted(m for m in sys.modules\n"
                  "             if m.split('.')[0] == 'scipy'))\n")
        src = str(Path(clood.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-c", script, "eval", "--checkpoint", str(ckpt),
             "--data", str(data_dir), "--scores", str(tmp_path / "s.csv"),
             "--summary", str(tmp_path / "a.csv")],
            env=env, capture_output=True, text=True, check=True)
        assert run.stdout.splitlines()[-1] == "[]"

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_truncated_checkpoint_exits_2(self, trained_once, data):
        data_dir, ckpt = trained_once
        blob = ckpt.read_bytes()
        bad = ckpt.with_name("cut.ckpt")
        bad.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        assert self._eval(ckpt.parent, bad, data_dir) == 2

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_fuzzed_set_train_exits_0_2_or_3(self, trained_once, data):
        # one field of the tiny config set to a non-finite, negative, zero,
        # subnormal, huge, empty, listed or past-int64 value; 2**70 epochs
        # is a valid config that trains for as long as it says, so that
        # one pair is not drawn
        name = data.draw(st.sampled_from([f.name for f in fields(TrainConfig)]))
        value = data.draw(st.sampled_from(
            ["nan", "inf", "-1", "0", "1e-320", "1e308", "", "1,0",
             str(2**70)]).filter(
                 lambda v: (name, v) != ("epochs_total", str(2**70))))
        directory = trained_once[1].parent
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = cli.main(["train", "--config", self._config_file(directory),
                           "--set", f"{name}={value}",
                           "--checkpoint", str(directory / "fuzz.ckpt")])
        event(f"exit {rc}")
        assert rc in (0, 2, 3), err.getvalue()
        assert rc == 0 or err.getvalue().splitlines()[-1].startswith(
            ("config error:", "numeric failure in")), err.getvalue()

    @settings(deadline=None, max_examples=60)
    @given(st.booleans(), st.lists(st.one_of(
        st.sampled_from([b"", b"  ", b"# a comment", b"  # d_in = 8", b"\r"]),
        st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80",
                         b"ood_angle=\x80"]),
        st.from_regex(rb"[a-z_ #]{1,12}", fullmatch=True),
        st.sampled_from([b"no_such_key = 1", b"\xef\xbb\xbfseed = 1", b"=1"]),
        st.tuples(st.sampled_from([f.name for f in fields(TrainConfig)]),
                  st.one_of(st.sampled_from(
                      ["nan", "inf", "-1", "0", "1", "0.5", "1e-320", "1e308",
                       "", "true", "8,8,6", "16,64,64,32", "embedding",
                       str(2**70)]), st.text(max_size=6)))
        .map(lambda kv: f"{kv[0]} = {kv[1]}".encode(
            "utf-8", "surrogateescape"))), max_size=6))
    def test_fuzzed_config_file_gen_data_exits_0_2_or_3(self, bom, lines):
        # a config file of comment-only, blank, key-less, unknown-key, not
        # UTF-8 and known-key lines, maybe after a byte-order mark; the
        # sizes come from --set, so any bundle it writes is tiny
        tiny = [f"--set={key}={value}" for key, value in [
            ("d_in", 16), ("components", 2), ("train_per_component", 12),
            ("test_per_component", 6), ("ood_samples", 8)]]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "fuzz.cfg")
            with open(path, "wb") as f:
                f.write(b"\xef\xbb\xbf" * bom + b"\n".join(lines))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(["gen-data", "--config", path, "--out",
                               os.path.join(directory, "bundle"), *tiny])
        event(f"exit {rc}")
        assert rc in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert rc == 0 or err.getvalue().splitlines()[-1].startswith(
            ("config error:", "numeric failure in")), err.getvalue()

    @settings(deadline=None, max_examples=80)
    @given(st.data())
    def test_fuzzed_bundle_eval_exits_0_2_or_3(self, trained_once, data):
        # a bundle directory of drawn OOD set names and sizes, with up to
        # two faults: a set name no file can carry, a width other than the
        # checkpoint's d_in = 8, a header that does not match, a ragged
        # row, a row of huge cells, a byte that is not UTF-8, a cell past
        # csv's size limit, or a cell that is empty, not a number,
        # non-finite, huge or subnormal
        _, ckpt = trained_once
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        names = data.draw(st.lists(st.one_of(
            st.just("shifted"),
            st.from_regex(r"[a-z0-9][a-z0-9._-]{0,6}", fullmatch=True)),
            max_size=3, unique=True))
        sets = [("id_train", 8, rng.integers(1, 30)),
                ("id_test", 8, rng.integers(1, 6)),
                *((n, 8, rng.integers(1, 6)) for n in names)]
        sets = [[name, [name, "8"], rng.standard_normal((rows, width))
                 .astype(str).tolist()] for name, width, rows in sets]
        for _ in range(data.draw(st.integers(0, 2))):
            name, header, rows = sets[rng.integers(len(sets))]
            row = rows[rng.integers(len(rows))]
            fault = data.draw(st.sampled_from(
                ["name", "width", "header", "ragged", "cell", "huge",
                 "not-utf8", "long"]))
            if fault == "name":
                sets.append([data.draw(st.sampled_from(["my set", "", "-"])),
                             ["x", "8"], [["1"] * 8]])
            elif fault == "width":
                width = data.draw(st.sampled_from([1, 7, 9]))
                header[1] = str(width)
                rows[:] = [r[:width] + ["0.5"] * (width - 8) for r in rows]
            elif fault == "header":
                header[data.draw(st.integers(0, 1))] = "x"
            elif fault == "ragged":
                del row[rng.integers(len(row) + 1):]
                row += ["1"] * data.draw(st.integers(0, 2))
            elif fault == "huge":
                row[:] = [data.draw(st.sampled_from(
                    ["1e308", "-1e308", "1e200"]))] * len(row)
            elif fault == "not-utf8":
                # written as the byte 0xff
                row[rng.integers(len(row))] += "\udcff"
            elif fault == "long":
                row[rng.integers(len(row))] = "1" * (csv.field_size_limit()
                                                     + 1)
            else:
                row[rng.integers(len(row))] = data.draw(st.sampled_from(
                    ["", "x", "nan", "inf", "-inf", "1e308", "1e400",
                     "5e-324"]))
        directory = Path(tempfile.mkdtemp(dir=ckpt.parent))
        for name, header, rows in sets:
            file = name + ".csv" if name.startswith("id_") else \
                f"ood_{name}.csv"
            with open(directory / file, "w", newline="", encoding="utf-8",
                      errors="surrogateescape") as f:
                csv.writer(f).writerows([header, *rows])
        kind = data.draw(st.sampled_from(["cos", "var"]))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = self._eval(directory, ckpt, directory, "--score-kind", kind)
        event(f"exit {rc}")
        assert rc in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_fuzzed_flags_exit_0_2_or_3(self, trained_once, data):
        # eval's --k-top and --score-kind, export's --layer and ablate's
        # --seeds and --sweep, each left out or drawn from integers (0,
        # negatives, 2**70), non-integers, the declared choices and junk;
        # a drawn --seeds stays in [-2, 2], since a larger count is valid
        # and trains that many seeds of every variant (left out, it is 5)
        data_dir, ckpt = trained_once
        directory = ckpt.parent
        junk = st.sampled_from(["", "x", "1.5", "1e3", "nan", "0x10", "-",
                                "COS", " var", "embedding,", "\u00e9"])

        def flag(name, values):
            value = data.draw(st.one_of(st.none(), values, junk))
            return [] if value is None else [f"{name}={value}"]

        command = data.draw(st.sampled_from(["eval", "export", "ablate"]))
        if command == "eval":
            args = ["--checkpoint", str(ckpt), "--data", str(data_dir),
                    "--scores", str(directory / "fuzz_s.csv"),
                    "--summary", str(directory / "fuzz_a.csv"),
                    *flag("--k-top", st.one_of(
                        st.integers(-3, 30),
                        st.sampled_from([2**70, -2**70])).map(str)),
                    *flag("--score-kind", st.sampled_from(scoring.SCORE_KINDS))]
        elif command == "export":
            args = ["--checkpoint", str(ckpt), "--data", str(data_dir),
                    "--out", str(directory / "fuzz_f.csv"),
                    *flag("--layer", st.sampled_from(model.LAYERS))]
        else:
            args = ["--config", self._config_file(directory),
                    *flag("--seeds", st.integers(-2, 2).map(str)),
                    *flag("--sweep", st.sampled_from(ablate.SWEEPS))]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                rc = cli.main([command, *args])
            except SystemExit as e:
                # argparse's exit on a value it cannot parse
                rc = e.code
        event(f"{command} exit {rc}")
        assert rc in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert rc == 0 or err.getvalue().splitlines()[-1].startswith(
            ("config error:", "numeric failure in", "file error:",
             f"clood {command}: error:")), err.getvalue()

    def test_bad_checkpoint_exits_2(self, tmp_path, capsys):
        result, _ = _small_run()
        blob = train_mod.serialize_checkpoint(
            result.encoder, result.projection, result.cluster_state,
            result.config)
        # the last array, projection.w1, holds 192 bytes
        cases = {"garbage": b"garbage", "cut in header": blob[:60],
                 "cut in array": blob[:-100]}
        for name, data in cases.items():
            bad = tmp_path / "bad.ckpt"
            bad.write_bytes(data)
            rc = cli.main(["eval", "--checkpoint", str(bad),
                           "--scores", str(tmp_path / "s.csv"),
                           "--summary", str(tmp_path / "a.csv")])
            assert rc == 2, name
        assert f"{bad}: array projection.w1 is truncated" in \
            capsys.readouterr().err
