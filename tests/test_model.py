import numpy as np
import pytest

import clood.train as train_mod
from clood import model
from clood.autodiff import finite_difference_check
from clood.clustering import ClusterState
from clood.config import TrainConfig
from clood.errors import ShapeError


def _arrays(*nets):
    return [a for net in nets for a in net.arrays().values()]


_WIDTHS = TrainConfig().encoder_widths, TrainConfig().projection_widths


def test_init_same_seed_identical():
    e1, p1 = model.init_params(7, *_WIDTHS)
    e2, p2 = model.init_params(7, *_WIDTHS)
    for a, b in zip(_arrays(e1, p1), _arrays(e2, p2)):
        np.testing.assert_array_equal(a, b)


def test_init_different_seed_differs():
    e1, _ = model.init_params(7, *_WIDTHS)
    e2, _ = model.init_params(8, *_WIDTHS)
    assert any(not np.array_equal(a, b)
               for a, b in zip(_arrays(e1), _arrays(e2)))


def test_init_shapes_chain():
    enc, _ = model.init_params(0, encoder_widths=(8, 16, 8),
                               projection_widths=(8, 8, 4))
    assert [w.shape for w in enc.weights] == [(8, 16), (16, 8)]
    assert [b.shape for b in enc.biases] == [(16,), (8,)]


def test_encode_zero_params_gives_zeros():
    enc, _ = model.init_params(0, encoder_widths=(4, 3, 2),
                               projection_widths=(2, 2, 2))
    for a in _arrays(enc):
        a[...] = 0.0
    out = model.mlp_forward_np(enc, np.ones((5, 4)))[-1]
    np.testing.assert_array_equal(out, np.zeros((5, 2)))


def test_encode_identity_layer_on_nonnegative_input():
    enc = model.MLPParams(weights=[np.eye(3)], biases=[np.zeros(3)])
    x = np.abs(np.random.default_rng(0).standard_normal((4, 3)))
    np.testing.assert_array_equal(model.mlp_forward_np(enc, x)[-1], x)


def test_encode_matches_straight_line_evaluation():
    rng = np.random.default_rng(5)
    enc, proj = model.init_params(5, encoder_widths=(6, 5, 4),
                                  projection_widths=(4, 4, 3))
    x = rng.standard_normal((7, 6))
    # independent re-evaluation with raw numpy, layer by layer
    h = np.maximum(x @ enc.weights[0] + enc.biases[0], 0.0)
    h = h @ enc.weights[1] + enc.biases[1]
    np.testing.assert_allclose(model.mlp_forward_np(enc, x)[-1], h, atol=1e-12)
    z = np.maximum(h @ proj.weights[0] + proj.biases[0], 0.0)
    z = z @ proj.weights[1] + proj.biases[1]
    np.testing.assert_allclose(model.mlp_forward_np(proj, h)[-1], z,
                               atol=1e-12)


def test_encode_shape_mismatch():
    enc, _ = model.init_params(0, encoder_widths=(4, 2),
                               projection_widths=(2, 2))
    with pytest.raises(ShapeError):
        model.mlp_forward_np(enc, np.ones((3, 5)))


def test_encode_batch_composition_consistent():
    rng = np.random.default_rng(9)
    enc, proj = model.init_params(9, encoder_widths=(5, 4, 3),
                                  projection_widths=(3, 3, 2))
    x = rng.standard_normal((6, 5))
    batch = model.encode_batch(enc, proj, x)
    np.testing.assert_array_equal(
        batch.projections,
        model.mlp_forward_np(proj, batch.embeddings)[-1])
    np.testing.assert_array_equal(
        batch.projections,
        model.mlp_forward_np(proj, model.mlp_forward_np(enc, x)[-1])[-1])


def _tiny_step(layer, lambda_weight=0.5, seed=2):
    """A tiny network, a batch of paired views and a cluster state."""
    config = TrainConfig(d_in=5, encoder_widths=(5, 4, 3),
                         projection_widths=(3, 3, 2), clustering_layer=layer,
                         lambda_weight=lambda_weight)
    rng = np.random.default_rng(seed)
    enc, proj = model.init_params(seed, config.encoder_widths,
                                  config.projection_widths)
    width = 3 if layer == "embedding" else 2
    state = ClusterState(centers=rng.standard_normal((2, width)),
                         assignments=None, phis=np.array([0.5, 0.7]),
                         updated_at_epoch=0)
    return config, enc, proj, rng.standard_normal((6, 5)), state


@pytest.mark.parametrize("layer", ["embedding", "projection"])
def test_step_gradients_match_central_differences(layer):
    config, enc, proj, views, state = _tiny_step(layer)
    params = _arrays(enc, proj)
    for k, p in enumerate(params):
        original = p.copy()

        def f(x):
            p[...] = x
            total, _, _, grads = train_mod.step_gradients(
                config, enc, proj, views, state)
            return total, grads[k]

        err = finite_difference_check(f, original, step=1e-5)
        p[...] = original
        assert err < 1e-4, (k, err)


def test_cluster_loss_on_embeddings_leaves_projection_untouched():
    # with lambda_weight 1 only the cluster terms count; computed at the
    # embedding layer, no gradient may reach the projection head
    config, enc, proj, views, state = _tiny_step("embedding", lambda_weight=1.0)
    _, _, _, grads = train_mod.step_gradients(config, enc, proj, views, state)
    n_enc = len(enc.arrays())
    assert not any(np.any(g) for g in grads[n_enc:])
    assert any(np.any(g) for g in grads[:n_enc])


def test_self_loss_updates_both_encoder_and_projection():
    config, enc, proj, views, _ = _tiny_step("embedding", seed=4)
    _, _, _, grads = train_mod.step_gradients(config, enc, proj, views[:4],
                                              None)
    n_enc = len(enc.arrays())
    assert any(np.any(g) for g in grads[:n_enc])
    assert any(np.any(g) for g in grads[n_enc:])
