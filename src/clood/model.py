"""Encoder and projection-head MLPs, their forward pass and its backward.

The encoder's final output is the embedding layer (h); the projection head's
final output is the projection layer (z). Both are plain MLPs with ReLU
between layers and a linear last layer.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# rows per block of `layer_features`
_FORWARD_ROWS = 1024
# the layers `layer_features` takes features at
LAYERS = ("embedding", "projection")


@dataclass
class MLPParams:
    """Weights and biases of one MLP; ReLU between layers, linear output."""

    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)

    def arrays(self):
        """Named parameter arrays, in a stable order."""
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"w{i}"] = w
            out[f"b{i}"] = b
        return out


def _init_mlp(rng, widths):
    params = MLPParams()
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        params.weights.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
        params.biases.append(rng.uniform(-bound, bound, fan_out))
    return params


def init_params(seed, encoder_widths, projection_widths):
    """Deterministically initialize encoder and projection parameters.

    Weights are uniform on [-1/sqrt(fan_in), 1/sqrt(fan_in)]. The widths
    are a `TrainConfig`'s, which checks them.
    """
    rng = np.random.default_rng(seed)
    return _init_mlp(rng, encoder_widths), _init_mlp(rng, projection_widths)


def _check_input(params, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != params.weights[0].shape[0]:
        raise ConfigError(
            f"input width {x.shape[1]} does not match "
            f"first layer fan-in {params.weights[0].shape[0]}"
        )
    return x


def mlp_forward_np(params, x):
    """The MLP's input and every layer's output; the last is the MLP's output.

    Hidden outputs are taken after the ReLU.
    """
    x = _check_input(params, x)
    acts = [x]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        x = x @ w
        x += b
        if i != last:
            np.maximum(x, 0.0, out=x)
        acts.append(x)
    return acts


def layer_features(encoder, projection, x, layer):
    """The rows of `x` at `layer`, one of LAYERS (else a ConfigError).

    The last of `mlp_forward_np`'s outputs through the encoder and, for
    the projection, the head, taken on blocks of about _FORWARD_ROWS rows
    into one preallocated array. BLAS picks its kernel by a product's
    shape, so the last bit of an entry can depend on the row count, and
    the output equals `mlp_forward_np`'s on all of `x` bit for bit only
    where it does not, as for the benchmark's widths. No block holds a
    lone row when `x` has more: BLAS computes a one-row product on
    another path.
    """
    if layer not in LAYERS:
        raise ConfigError(f"unknown layer {layer!r}, expected one of "
                          f"{', '.join(LAYERS)}")
    x = _check_input(encoder, x)
    nets = [encoder] if layer == "embedding" else [encoder, projection]
    n = x.shape[0]
    out = np.empty((n, nets[-1].weights[-1].shape[1]))
    # no block starts at the last row, unless it is the only one
    starts = range(0, max(n - 1, 1), _FORWARD_ROWS)
    for start, stop in zip(starts, [*starts[1:], n]):
        h = x[start:stop]
        for net in nets:
            h = mlp_forward_np(net, h)[-1]
        out[start:stop] = h
    return out


def flat_parameters(*nets):
    """Move every weight and bias of `nets` into one new contiguous float64
    vector, and rebind each to its view in it, so that one update of the
    vector updates them all. Returns the vector and a zeroed second one of
    the same layout, with the list of its views in `arrays()` order.
    """
    arrays = [a for net in nets for a in net.arrays().values()]
    bounds = np.cumsum([0] + [a.size for a in arrays])
    params, grads = np.empty(bounds[-1]), np.zeros(bounds[-1])

    def views(flat):
        return [flat[lo:hi].reshape(a.shape)
                for a, lo, hi in zip(arrays, bounds, bounds[1:])]

    param_views = iter(views(params))
    for net in nets:
        for i in range(len(net.weights)):
            for layer in (net.weights, net.biases):
                view = next(param_views)
                view[...] = layer[i]
                layer[i] = view
    return params, grads, views(grads)


def mlp_backward(params, acts, grad, out, input_grad=True):
    """Write the gradients of `params.arrays()` into `out`, arrays of those
    shapes in that order, from the gradient at the MLP's output; `acts` is
    what mlp_forward_np returned. Returns the gradient at the MLP's input,
    or None without `input_grad`.
    """
    last = len(params.weights) - 1
    for i in range(last, -1, -1):
        if i != last:
            # `grad` is a product taken below, never the caller's array
            np.multiply(grad, acts[i + 1] > 0.0, out=grad)
        np.matmul(acts[i].T, grad, out=out[2 * i])
        np.add.reduce(grad, axis=0, out=out[2 * i + 1])
        if i or input_grad:
            grad = grad @ params.weights[i].T
    return grad if input_grad else None


def encode_batch(encoder, projection, inputs):
    """Every layer's activations for one batch of paired augmented inputs
    (rows 2k and 2k+1 are two views of one sample): the encoder's, from
    the inputs to the embeddings, then the projection's, from the
    embeddings to the projections."""
    acts = mlp_forward_np(encoder, inputs)
    return acts, mlp_forward_np(projection, acts[-1])


def backward(encoder, projection, acts, d_projections, d_embeddings, out):
    """Write the gradients of the encoder's then the projection's
    `arrays()` into `out`, arrays in that order and of those shapes, from
    the loss gradient at the projections of `acts`, the (encoder,
    projection) pair of `encode_batch`, and at its embeddings (None where
    the loss has none).
    """
    n_enc = 2 * len(encoder.weights)
    d_h = mlp_backward(projection, acts[1], d_projections, out[n_enc:])
    if d_embeddings is not None:
        d_h += d_embeddings
    mlp_backward(encoder, acts[0], d_h, out[:n_enc], input_grad=False)
