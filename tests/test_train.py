from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import clood.train as train_mod
from clood import ablate, cli, losses
from clood.config import TrainConfig, benchmark_config, config_from_dict
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
    ("lr", float("nan")), ("tau", float("inf")), ("seed", -1)])
def test_config_rejects_bad_value(key, value):
    with pytest.raises(ConfigError):
        TrainConfig(**{key: value})


_POSITIVE = st.floats(min_value=1e-300, max_value=1e300)


@given(st.builds(
    TrainConfig,
    seed=st.integers(0, 2**63), d_in=st.integers(1, 4096),
    component_spread=_POSITIVE, ood_angle=_POSITIVE,
    interp_noise=st.floats(allow_nan=False, allow_infinity=False),
    encoder_widths=st.lists(st.integers(1, 512), min_size=1).map(tuple),
    projection_widths=st.lists(st.integers(1, 512), min_size=1).map(tuple),
    update_per_batch=st.booleans(), tau=_POSITIVE,
    lambda_weight=st.floats(0.0, 1.0), lr=_POSITIVE,
    clustering_layer=st.sampled_from(["embedding", "projection"]),
    use_cil=st.booleans(), aug_gain=st.floats(0.0, 1.0, exclude_max=True),
    kmeans_tol=st.floats(allow_nan=False, allow_infinity=False),
    score_kind=st.sampled_from(["cos", "var"]), k_top=st.integers(1, 10**6)))
def test_config_round_trips_through_dict(config):
    back = config_from_dict(config.to_dict())
    assert back == config
    assert back.hash() == config.hash()


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
        assert np.isnan(result.metrics[0]["l_cluster"])
        assert np.isfinite(result.metrics[5]["l_cluster"])
        assert [m["refit"] for m in result.metrics] == [0, 0, 1, 0, 1, 0]

    def test_update_per_batch_refits_every_joint_epoch(self):
        result, _ = _small_run(update_per_batch=True)
        assert result.refit_epochs == [2, 3, 4, 5]

    def test_probe_snapshots_taken_at_epoch_start(self):
        config = _small_config()
        bundle = generate_synthetic(config, config.seed)
        result = train_mod.train(config, bundle, probe_epochs=(0, 3, 6))
        assert set(result.snapshots) == {0, 3, 6}
        assert result.snapshots[0] != result.snapshots[3]

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
        with pytest.raises(ConfigError):
            train_mod.train(config, bundle)

    def test_write_metrics(self, tmp_path):
        result, _ = _small_run()
        path = tmp_path / "metrics.csv"
        train_mod.write_metrics(result.metrics, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) == 1 + len(result.metrics)


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

    def test_dimension_mismatch_rejected(self):
        result, _ = _small_run()
        other = generate_synthetic(DatasetSpec(d_in=6, components=2,
                                               train_per_component=5,
                                               test_per_component=5,
                                               ood_samples=6), 0)
        with pytest.raises(ConfigError):
            train_mod.evaluate(result, other)

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
    monkeypatch.setattr(ablate, "train", lambda config, bundle: (
        trained.append(config.hash()) or real_train(config, bundle)))
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

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--set", "bogus=1",
                       "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--set", "seed=-1",
                       "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err

    def test_non_finite_config_exits_2(self, tmp_path, capsys):
        rc = cli.main(["train", "--set", "lr=nan",
                       "--checkpoint", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert "lr must be finite" in capsys.readouterr().err

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
        (None, "id_test.csv: set 'id_test' has no rows")],
        ids=["non-numeric", "nan", "inf", "ragged", "header-only"])
    def test_bad_bundle_set_exits_2(self, tmp_path, capsys, edit, message):
        data_dir, ckpt = self._trained(tmp_path)
        path = data_dir / "id_test.csv"
        lines = path.read_text().splitlines()
        if edit is None:
            lines = lines[:1]
        else:
            lines[2] = edit(lines[2])
        path.write_text("\n".join(lines) + "\n")
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

    @pytest.mark.parametrize("data", [False, True], ids=["generated", "bundle"])
    def test_train_width_mismatch_exits_2(self, tmp_path, capsys, data):
        # the default encoder takes 16 columns: give it 8-wide rows either
        # generated at d_in=8 or read from an 8-wide bundle
        args = ["train", "--checkpoint", str(tmp_path / "m.ckpt")]
        if data:
            data_dir = str(tmp_path / "bundle")
            assert cli.main(["gen-data", "--config", self._config_file(tmp_path),
                             "--out", data_dir]) == 0
            args += ["--data", data_dir]
        else:
            args += ["--set", "d_in=8"]
        capsys.readouterr()
        assert cli.main(args) == 2
        assert "bundle dimension 8 does not match config d_in" in \
            capsys.readouterr().err

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
