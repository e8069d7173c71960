"""Encoder and projection-head MLPs, their forward pass and its backward.

The encoder's final output is the embedding layer (h); the projection head's
final output is the projection layer (z). Both are plain MLPs with ReLU
between layers and a linear last layer.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError


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


def mlp_forward_np(params, x):
    """The MLP's input and every layer's output; the last is the MLP's output.

    Hidden outputs are taken after the ReLU.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != params.weights[0].shape[0]:
        raise ShapeError(
            f"input width {x.shape[1]} does not match "
            f"first layer fan-in {params.weights[0].shape[0]}"
        )
    acts = [x]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        x = x @ w + b
        if i != last:
            x = np.maximum(x, 0.0)
        acts.append(x)
    return acts


def mlp_backward(params, acts, grad):
    """Gradients of `params.arrays()`, in that order, and of the MLP's input,
    from the gradient at its output; `acts` is what mlp_forward_np returned.
    """
    grads = []
    last = len(params.weights) - 1
    for i in range(last, -1, -1):
        if i != last:
            grad = grad * (acts[i + 1] > 0.0)
        grads[:0] = [acts[i].T @ grad, grad.sum(axis=0)]
        grad = grad @ params.weights[i].T
    return grads, grad


def encode_batch(encoder, projection, inputs):
    """Full forward pass producing a consistent EncodedBatch."""
    acts = mlp_forward_np(encoder, inputs)
    return EncodedBatch(encoder_acts=acts,
                        projection_acts=mlp_forward_np(projection, acts[-1]))


def backward(encoder, projection, batch, d_projections, d_embeddings=None):
    """Gradients of the encoder's then the projection's `arrays()` from the
    loss gradient at the batch's projections and, if given, at its
    embeddings.
    """
    projection_grads, d_h = mlp_backward(projection, batch.projection_acts,
                                         d_projections)
    if d_embeddings is not None:
        d_h = d_h + d_embeddings
    encoder_grads, _ = mlp_backward(encoder, batch.encoder_acts, d_h)
    return encoder_grads + projection_grads
