"""Encoder and projection-head MLPs, their forward pass and its backward.

The encoder's final output is the embedding layer (h); the projection head's
final output is the projection layer (z). Both are plain MLPs with ReLU
between layers and a linear last layer.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

# rows per block of `layer_features`
_FORWARD_ROWS = 1024


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


@dataclass
class EncodedBatch:
    """Every layer's activations for one batch of paired augmented inputs.

    Rows 2k and 2k+1 of every array are two views of the same source
    sample. `encoder_acts` runs from the inputs to the embeddings,
    `projection_acts` from the embeddings to the projections.
    """

    encoder_acts: list
    projection_acts: list

    @property
    def embeddings(self):
        return self.encoder_acts[-1]

    @property
    def projections(self):
        return self.projection_acts[-1]


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
        raise ShapeError(
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
    """The rows of `x` at the "embedding" layer, or else at the projection.

    The last of `mlp_forward_np`'s outputs through the encoder and, for
    the projection, the head, taken on blocks of about _FORWARD_ROWS rows
    into one preallocated array. BLAS picks its kernel by a product's
    shape, so the last bit of an entry can depend on the row count, and
    the output equals `mlp_forward_np`'s on all of `x` bit for bit only
    where it does not, as for the benchmark's widths. No block holds a
    lone row when `x` has more: BLAS computes a one-row product on
    another path.
    """
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


def mlp_backward(params, acts, grad, out=None, input_grad=True):
    """Gradients of `params.arrays()`, in that order, and of the MLP's input
    (None without `input_grad`), from the gradient at its output; `acts` is
    what mlp_forward_np returned. With `out`, arrays shaped like
    `params.arrays()`, the gradients are written into those and returned.
    """
    last = len(params.weights) - 1
    grads = [None] * (2 * last + 2) if out is None else out
    for i in range(last, -1, -1):
        if i != last:
            # `grad` is a product taken below, never the caller's array
            np.multiply(grad, acts[i + 1] > 0.0, out=grad)
        grads[2 * i] = np.matmul(acts[i].T, grad, out=grads[2 * i])
        grads[2 * i + 1] = np.add.reduce(grad, axis=0, out=grads[2 * i + 1])
        if i or input_grad:
            grad = grad @ params.weights[i].T
    return grads, grad if input_grad else None


def encode_batch(encoder, projection, inputs):
    """Full forward pass producing a consistent EncodedBatch."""
    acts = mlp_forward_np(encoder, inputs)
    return EncodedBatch(encoder_acts=acts,
                        projection_acts=mlp_forward_np(projection, acts[-1]))


def backward(encoder, projection, batch, d_projections, d_embeddings=None,
             out=None):
    """Gradients of the encoder's then the projection's `arrays()` from the
    loss gradient at the batch's projections and, if given, at its
    embeddings. With `out`, arrays in that order and of those shapes, the
    gradients are written into those and returned.
    """
    n_enc = 2 * len(encoder.weights)
    enc_out, proj_out = (None, None) if out is None else (out[:n_enc], out[n_enc:])
    projection_grads, d_h = mlp_backward(projection, batch.projection_acts,
                                         d_projections, proj_out)
    if d_embeddings is not None:
        d_h += d_embeddings
    encoder_grads, _ = mlp_backward(encoder, batch.encoder_acts, d_h, enc_out,
                                    input_grad=False)
    return encoder_grads + projection_grads
