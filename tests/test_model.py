import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import finite_difference_check
import clood.train as train_mod
from clood import model
from clood.clustering import ClusterState
from clood.config import TrainConfig, benchmark_config
from clood.errors import ConfigError


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
    with pytest.raises(ConfigError):
        model.mlp_forward_np(enc, np.ones((3, 5)))


def test_encode_batch_composition_consistent():
    rng = np.random.default_rng(9)
    enc, proj = model.init_params(9, encoder_widths=(5, 4, 3),
                                  projection_widths=(3, 3, 2))
    x = rng.standard_normal((6, 5))
    encoder_acts, projection_acts = model.encode_batch(enc, proj, x)
    np.testing.assert_array_equal(
        projection_acts[-1],
        model.mlp_forward_np(proj, encoder_acts[-1])[-1])
    np.testing.assert_array_equal(
        projection_acts[-1],
        model.mlp_forward_np(proj, model.mlp_forward_np(enc, x)[-1])[-1])


def _blocks(n, block):
    """The row blocks layer_features takes: `block` rows each, the last
    one taking a lone leftover row."""
    cuts = list(range(block, n, block))
    if cuts and n - cuts[-1] == 1:
        cuts.pop()
    return np.split(np.arange(n), cuts)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_layer_features_equal_forward_of_each_block(data):
    # blocks of 2 to 5 rows; row counts that leave a lone row after the
    # last full block are drawn as often as any other. Each block equals
    # mlp_forward_np on its rows bit for bit, and all of `x` to rounding:
    # a product's last bit can depend on its row count, as with fan-ins
    # of 16 or more and fan-outs of 8k + 1 to 8k + 3 on OpenBLAS 0.3.31
    block = data.draw(st.integers(2, 5))
    n = data.draw(st.one_of(st.integers(1, 6 * block),
                            st.integers(1, 5).map(lambda m: m * block + 1)))
    enc_widths = data.draw(st.lists(st.integers(1, 40), min_size=2,
                                    max_size=4))
    proj_widths = [enc_widths[-1]] + data.draw(
        st.lists(st.integers(1, enc_widths[-1]), min_size=1, max_size=3))
    seed = data.draw(st.integers(0, 2**32 - 1))
    enc, proj = model.init_params(seed, enc_widths, proj_widths)
    x = np.random.default_rng(seed).standard_normal((n, enc_widths[0])) * 3

    def forward(rows, layer):
        h = model.mlp_forward_np(enc, rows)[-1]
        return h if layer == "embedding" else model.mlp_forward_np(proj, h)[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_FORWARD_ROWS", block)
        for layer in ("embedding", "projection"):
            got = model.layer_features(enc, proj, x, layer)
            want = np.vstack([forward(x[rows], layer)
                              for rows in _blocks(n, block)])
            assert got.tobytes() == want.tobytes()
            np.testing.assert_allclose(got, forward(x, layer), rtol=1e-12,
                                       atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 11, 13, 600, 2049])
def test_layer_features_bit_equal_full_forward_at_benchmark_widths(
        monkeypatch, n):
    # the bench's digests rest on this: at benchmark_config()'s widths a
    # blocked forward gives mlp_forward_np's bits, blocks of 3 (13 rows
    # end in a block of 4) or of 1 024 (2 049 rows end in 1 025)
    config = benchmark_config()
    enc, proj = model.init_params(n, config.encoder_widths,
                                  config.projection_widths)
    x = np.random.default_rng(n).standard_normal((n, config.d_in)) * 3
    h = model.mlp_forward_np(enc, x)[-1]
    want = {"embedding": h, "projection": model.mlp_forward_np(proj, h)[-1]}
    if n < 1000:
        monkeypatch.setattr(model, "_FORWARD_ROWS", 3)
    for layer, rows in want.items():
        assert model.layer_features(enc, proj, x, layer).tobytes() == \
            rows.tobytes()


def test_layer_features_never_take_a_lone_row(monkeypatch):
    # 7 rows in blocks of 3: 3 then 4, not 3, 3 and 1
    monkeypatch.setattr(model, "_FORWARD_ROWS", 3)
    enc, proj = model.init_params(0, (4, 5, 3), (3, 2))
    seen = []
    weights = enc.weights[0]

    class Spy(np.ndarray):
        def __rmatmul__(self, other):
            seen.append(other.shape[0])
            return other @ np.asarray(self)

    enc.weights[0] = weights.view(Spy)
    x = np.random.default_rng(0).standard_normal((7, 4))
    model.layer_features(enc, proj, x, "projection")
    assert seen == [3, 4]


def test_layer_features_reject_wrong_width():
    enc, proj = model.init_params(0, (4, 3), (3, 2))
    with pytest.raises(ConfigError, match="input width 5"):
        model.layer_features(enc, proj, np.ones((2, 5)), "embedding")


def test_layer_features_reject_an_unknown_layer():
    enc, proj = model.init_params(0, (4, 3), (3, 2))
    with pytest.raises(ConfigError, match="^unknown layer 'hidden', expected "
                                          "one of embedding, projection$"):
        model.layer_features(enc, proj, np.ones((2, 4)), "hidden")


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
    grads = [np.empty_like(a) for a in params]
    for k, p in enumerate(params):
        original = p.copy()

        def f(x):
            p[...] = x
            total, _ = train_mod.step_gradients(config, enc, proj, views,
                                                state, grads)
            # the next step overwrites the buffers
            return total, grads[k].copy()

        err = finite_difference_check(f, original, step=1e-5)
        p[...] = original
        assert err < 1e-4, (k, err)


def test_cluster_loss_on_embeddings_leaves_projection_untouched():
    # with lambda_weight 1 only the cluster terms count; computed at the
    # embedding layer, no gradient may reach the projection head
    config, enc, proj, views, state = _tiny_step("embedding", lambda_weight=1.0)
    grads = [np.empty_like(a) for a in _arrays(enc, proj)]
    train_mod.step_gradients(config, enc, proj, views, state, grads)
    n_enc = len(enc.arrays())
    assert not any(np.any(g) for g in grads[n_enc:])
    assert any(np.any(g) for g in grads[:n_enc])


def test_self_loss_updates_both_encoder_and_projection():
    config, enc, proj, views, _ = _tiny_step("embedding", seed=4)
    grads = [np.empty_like(a) for a in _arrays(enc, proj)]
    train_mod.step_gradients(config, enc, proj, views[:4], None, grads)
    n_enc = len(enc.arrays())
    assert any(np.any(g) for g in grads[:n_enc])
    assert any(np.any(g) for g in grads[n_enc:])


@pytest.mark.parametrize("with_embeddings", [False, True])
@pytest.mark.parametrize("widths,rows", [(((5, 4, 3), (3, 3, 2)), 6),
                                         (_WIDTHS, 64)])
def test_backward_overwrites_every_gradient_entry(with_embeddings, widths,
                                                  rows):
    # into a flat gradient vector's views pre-filled with NaN the backward
    # leaves no NaN and gives the bytes it gives into zeroed ones: it
    # writes every entry and adds to none
    enc, proj = model.init_params(3, *widths)
    rng = np.random.default_rng(3)
    views = rng.standard_normal((rows, widths[0][0]))
    acts = model.encode_batch(enc, proj, views)
    d_proj = rng.standard_normal(acts[1][-1].shape)
    d_emb = rng.standard_normal(acts[0][-1].shape) \
        if with_embeddings else None
    _, zeroed, zeroed_views = model.flat_parameters(enc, proj)
    _, filled, filled_views = model.flat_parameters(enc, proj)
    filled[...] = np.nan
    for buffers in (zeroed_views, filled_views):
        assert model.backward(enc, proj, acts, d_proj, d_emb, buffers) is None
    assert not np.isnan(filled).any()
    assert filled.tobytes() == zeroed.tobytes()


def test_flat_parameters_keep_values_and_alias_the_vector():
    enc, proj = model.init_params(1, *_WIDTHS)
    before = [a.copy() for a in _arrays(enc, proj)]
    params, grads, views = model.flat_parameters(enc, proj)
    arrays = _arrays(enc, proj)
    assert params.tobytes() == b"".join(a.tobytes() for a in before)
    assert [v.shape for v in views] == [a.shape for a in before]
    assert not grads.any()
    params += 1.0
    assert all(np.array_equal(a, b + 1.0) for a, b in zip(arrays, before))
