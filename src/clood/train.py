"""Two-phase training loop (warm-up then joint), checkpointing, evaluation.

Warm-up minimizes the instance-level contrastive loss alone; once the
warm-up epochs have elapsed, cluster centers are refit on the full
un-augmented ID training set at the configured layer on every scheduled
epoch, and each step optimizes the weighted combination of the instance
and cluster-aware losses with plain SGD.
"""

import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import clustering, losses, model, scoring
from .autodiff import normalize_backward, normalize_rows
from .data import OOD_SET_NAMES, augment
from .clustering import ClusterState
from .config import TrainConfig, config_from_dict
from .errors import ConfigError, NumericError
from .model import MLPParams


@dataclass
class TrainResult:
    encoder: MLPParams
    projection: MLPParams
    cluster_state: ClusterState | None
    config: TrainConfig
    metrics: list = field(default_factory=list)
    refit_epochs: list = field(default_factory=list)
    snapshots: dict = field(default_factory=dict)


# ---- deterministic checkpoint format ----

_MAGIC = b"CLOODCKPT1"


def _named_arrays(encoder, projection, cluster_state):
    arrays = {}
    for name, arr in encoder.arrays().items():
        arrays[f"encoder.{name}"] = arr
    for name, arr in projection.arrays().items():
        arrays[f"projection.{name}"] = arr
    if cluster_state is not None:
        arrays["cluster.centers"] = cluster_state.centers
        arrays["cluster.assignments"] = cluster_state.assignments.astype(np.int64)
        arrays["cluster.phis"] = cluster_state.phis
    return arrays


def serialize_checkpoint(encoder, projection, cluster_state, config):
    """Byte-deterministic flat serialization of all parameter arrays."""
    buf = io.BytesIO()
    buf.write(_MAGIC + b"\n")
    buf.write(config.hash().encode() + b"\n")
    cfg = config.to_dict()
    if cluster_state is not None:
        cfg["_cluster_epoch"] = str(cluster_state.updated_at_epoch)
    buf.write(f"{len(cfg)}\n".encode())
    for key in sorted(cfg):
        buf.write(f"{key}={cfg[key]}\n".encode())
    arrays = _named_arrays(encoder, projection, cluster_state)
    parts = [f"{len(arrays)}\n".encode()]
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        shape = " ".join(str(s) for s in arr.shape)
        parts += [f"{name} {arr.dtype.name} {shape}\n".encode(), arr.tobytes()]
    # the array section follows the line holding its sha256
    section = b"".join(parts)
    buf.write(hashlib.sha256(section).hexdigest().encode() + b"\n")
    buf.write(section)
    return buf.getvalue()


def save_checkpoint(path, result):
    """Write via `<path>.tmp` and a rename, so `path` is never partial."""
    blob = serialize_checkpoint(result.encoder, result.projection,
                                result.cluster_state, result.config)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _array_shapes(config, clustered):
    """{name: shape} of a checkpoint's float64 arrays; None for its int64
    assignments, one per training row."""
    shapes = {}
    for net in ("encoder", "projection"):
        widths = getattr(config, f"{net}_widths")
        for i, fan in enumerate(zip(widths, widths[1:])):
            shapes[f"{net}.w{i}"], shapes[f"{net}.b{i}"] = fan, fan[1:]
    if clustered:
        net = "encoder" if config.clustering_layer == "embedding" else "projection"
        r, width = config.clusters, getattr(config, f"{net}_widths")[-1]
        shapes.update({"cluster.centers": (r, width), "cluster.phis": (r,),
                       "cluster.assignments": None})
    return shapes


def _unpack(arrays, prefix):
    n = sum(name.startswith(f"{prefix}.w") for name in arrays)
    return MLPParams([arrays[f"{prefix}.w{i}"] for i in range(n)],
                     [arrays[f"{prefix}.b{i}"] for i in range(n)])


def load_checkpoint(path):
    """Round-trips serialize_checkpoint bit-exactly.

    A truncated or corrupt file, arrays other than its config implies, or
    an array section whose sha256 differs from the stored one raise
    ConfigError naming the path and the part that could not be read.
    """
    with open(path, "rb") as f:
        if f.readline().strip() != _MAGIC:
            raise ConfigError(f"{path} is not a checkpoint file")
        part = "header"
        try:
            stored_hash = f.readline().strip().decode()
            cfg = {}
            for _ in range(int(f.readline())):
                key, val = f.readline().decode().rstrip("\n").split("=", 1)
                cfg[key] = val
            cluster_epoch = cfg.pop("_cluster_epoch", None)
            try:
                config = config_from_dict(cfg)
            except ConfigError as e:
                raise ConfigError(f"{path}: {e}") from None
            if config.hash() != stored_hash:
                raise ConfigError(f"{path}: config hash mismatch")
            shapes = _array_shapes(config, cluster_epoch is not None)
            stored_sum = f.readline().strip().decode()
            section = f.read()
            body = io.BytesIO(section)
            arrays = {}
            for _ in range(int(body.readline())):
                part = "array header"
                name, dtype, *shape = body.readline().decode().split()
                part = f"array {name}"
                dtype, shape = np.dtype(dtype), tuple(int(s) for s in shape)
                want = shapes.pop(name, "absent")
                kind = np.int64 if want is None else np.float64
                if dtype != kind or shape != (want or shape[:1] or (0,)):
                    raise ConfigError(f"{path}: array {name} ({dtype} {shape}) "
                                      f"is repeated or not one its config implies")
                size = math.prod(shape) * dtype.itemsize
                raw = body.read(size)
                if len(raw) != size:
                    raise ConfigError(f"{path}: array {name} is truncated "
                                      f"({len(raw)} of {size} bytes)")
                arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
            if shapes:
                raise ConfigError(f"{path}: array {min(shapes)} is missing")
            if hashlib.sha256(section).hexdigest() != stored_sum:
                raise ConfigError(f"{path}: array checksum mismatch")

            part = "arrays"
            encoder, projection = _unpack(arrays, "encoder"), _unpack(arrays, "projection")
            cluster_state = None
            if cluster_epoch is not None:
                cluster_state = ClusterState(
                    centers=arrays["cluster.centers"],
                    assignments=arrays["cluster.assignments"],
                    phis=arrays["cluster.phis"],
                    updated_at_epoch=int(cluster_epoch))
        except (ValueError, TypeError, KeyError) as e:
            raise ConfigError(f"{path}: corrupt checkpoint, {part}: {e}") from None
    return TrainResult(encoder=encoder, projection=projection,
                       cluster_state=cluster_state, config=config)


# ---- training ----

def check_width(config, bundle):
    """ConfigError unless the bundle's rows are as wide as config.d_in and
    the encoder's first layer."""
    width = bundle.id_train.shape[1]
    if not width == config.d_in == config.encoder_widths[0]:
        raise ConfigError(
            f"bundle dimension {width} does not match config d_in "
            f"{config.d_in} and encoder_widths[0] {config.encoder_widths[0]}")


def _refit(config, encoder, projection, bundle, epoch):
    feats = model.layer_features(encoder, projection, bundle.id_train,
                                 config.clustering_layer)
    seed = int(np.random.SeedSequence([config.seed, 13, epoch]).generate_state(1)[0])
    return clustering.fit_state(
        feats, config.clusters, seed=seed, alpha=config.alpha,
        phi_floor=config.phi_floor, epoch=epoch,
        max_iters=config.kmeans_max_iters, tol=config.kmeans_tol)


# the per-step loss values `step_gradients` returns, in order; each epoch's
# metric row holds their means over its batches
LOSS_COLUMNS = ("l_self", "l_cluster", "l_ccl", "l_cil")


def step_gradients(config, encoder, projection, views, state, out=None):
    """Losses and parameter gradients of one SGD step on a batch of views.

    The instance loss is taken at the projections. With a cluster `state`
    (the joint phase) the cluster terms, at the configured layer and with
    assignments to the state's centers, join it. Each layer is normalized
    once. Returns the total loss, the LOSS_COLUMNS values (the cluster
    loss is the mean of the terms in use; a term not taken is NaN) and
    the gradients of the encoder's then the projection's `arrays()`,
    written into `out` if given (see `model.backward`).
    """
    batch = model.encode_batch(encoder, projection, views)
    u_proj, n_proj = normalize_rows(batch.projections)
    l_self, du_proj = losses.self_supervised_loss(u_proj, config.tau)
    total, d_emb = l_self, None
    l_cluster = l_ccl = l_cil = float("nan")
    if state is not None:
        on_embeddings = config.clustering_layer == "embedding"
        unit, norms = normalize_rows(batch.embeddings) if on_embeddings \
            else (u_proj, n_proj)
        assigns = clustering.assign(unit, state.centers)
        terms = []
        if config.use_ccl:
            terms.append(losses.cluster_center_loss(
                unit, state.centers, assigns, state.phis))
            l_ccl = terms[-1][0]
        if config.use_cil:
            terms.append(losses.cluster_instance_loss(unit, assigns, config.tau))
            l_cil = terms[-1][0]
        l_cluster, du_cluster = (sum(part) / len(terms) for part in zip(*terms))
        lam = config.lambda_weight
        total = l_self * (1.0 - lam) + l_cluster * lam
        du_proj, du_cluster = du_proj * (1.0 - lam), du_cluster * lam
        if on_embeddings:
            d_emb = normalize_backward(unit, norms, du_cluster)
        else:
            du_proj = du_proj + du_cluster
    d_proj = normalize_backward(u_proj, n_proj, du_proj)
    return total, (l_self, l_cluster, l_ccl, l_cil), \
        model.backward(encoder, projection, batch, d_proj, d_emb, out=out)


# the TrainConfig fields that act only from the first refit on, or only
# after training: two configs that differ in nothing else take the same
# warm-up steps
WARMUP_FREE = ("update_interval", "update_per_batch", "clusters", "alpha",
               "lambda_weight", "phi_floor", "clustering_layer", "use_ccl",
               "use_cil", "kmeans_max_iters", "kmeans_tol", "score_kind",
               "score_layer", "k_top")


def warmup_key(config, bundle):
    """The key `train` shares a warm-up under: the hash of `config` with
    its WARMUP_FREE fields at their defaults, and the sha256 of the
    training rows."""
    shared = replace(config, **{name: getattr(TrainConfig, name)
                                for name in WARMUP_FREE})
    return shared.hash(), hashlib.sha256(bundle.id_train.tobytes()).hexdigest()


def train(config, bundle, probe_epochs=(), warm=None):
    """Run the full two-phase schedule; deterministic for a fixed config.

    With a `warm` mapping the instance-only warm-up is trained once per
    `warmup_key`: the first call stores copies of the parameters and the
    metric rows at `warmup_epochs` in it, and later calls resume from
    copies of those. The result is byte-identical to training from
    scratch. A probe epoch inside the warm-up is only taken by training
    it, so it turns the sharing off.
    """
    check_width(config, bundle)
    encoder, projection = model.init_params(
        config.seed, config.encoder_widths, config.projection_widths)
    # an SGD step updates every parameter through these two vectors
    params, grads, grad_views = model.flat_parameters(encoder, projection)
    step = np.empty_like(params)

    m = bundle.id_train.shape[0]
    config.check_training_rows(m)
    state = None
    result = TrainResult(encoder=encoder, projection=projection,
                         cluster_state=None, config=config)
    cluster_on = config.use_ccl or config.use_cil
    cfg_hash = config.hash()

    warmup = config.warmup_epochs
    start, key = 0, None
    if warm is not None and warmup > 0 \
            and all(probe >= warmup for probe in probe_epochs):
        key = warmup_key(config, bundle)
        if key in warm:
            saved, rows = warm[key]
            params[...] = saved
            result.metrics = [dict(row, config_hash=cfg_hash) for row in rows]
            start = warmup

    for epoch in range(start, config.epochs_total):
        if epoch == warmup and key is not None and key not in warm:
            warm[key] = (params.copy(), [dict(row) for row in result.metrics])
        if epoch in probe_epochs:
            result.snapshots[epoch] = serialize_checkpoint(
                encoder, projection, state, config)
        # a refit epoch refits before its first batch, or before each batch
        # when update_per_batch is set, and reports that in its "refit" column
        refits = cluster_on and clustering.should_update(
            epoch, config.warmup_epochs,
            1 if config.update_per_batch else config.update_interval)
        if refits:
            result.refit_epochs.append(epoch)

        # cosine annealing from lr towards 0
        lr = config.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / config.epochs_total))
        epoch_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, 7, epoch]))
        order = epoch_rng.permutation(m)
        n_batches = max(1, m // config.batch_size)
        sums = [0.0] * len(LOSS_COLUMNS)
        changed = None

        for b in range(n_batches):
            idx = order[b * config.batch_size:(b + 1) * config.batch_size]
            if refits and (b == 0 or config.update_per_batch):
                fitted = _refit(config, encoder, projection, bundle, epoch)
                if state is not None:
                    changed = (changed or 0) + clustering.moved_rows(
                        state.assignments, fitted.assignments, config.clusters)
                state = fitted

            aug_seed = np.random.SeedSequence([config.seed, 11, epoch, b])
            views = data_augment(bundle.id_train[idx], aug_seed, config)
            # state is None until the first refit, which opens the joint phase
            total, values, _ = step_gradients(
                config, encoder, projection, views, state, out=grad_views)
            if not math.isfinite(total):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {b}")
            np.multiply(grads, lr, out=step)
            params -= step
            sums = [s + v for s, v in zip(sums, values)]

        # the cluster columns are NaN until the joint phase, whose epochs
        # all have a state, and for a term not in use; "changed" sums the
        # epoch's refits that follow another, and each refit column is
        # None (empty in the CSV) where it has nothing to count
        result.metrics.append({
            "epoch": epoch,
            "lr": lr,
            **{name: s / n_batches for name, s in zip(LOSS_COLUMNS, sums)},
            "refit": int(refits),
            "changed": changed,
            "at_floor": int(np.count_nonzero(state.phis == config.phi_floor))
            if refits else None,
            "config_hash": cfg_hash,
        })

    if config.epochs_total in probe_epochs:
        result.snapshots[config.epochs_total] = serialize_checkpoint(
            encoder, projection, state, config)
    result.cluster_state = state
    return result


def data_augment(rows, seed_seq, config):
    seed = int(np.asarray(seed_seq.generate_state(1))[0])
    return augment(rows, seed, noise_sigma=config.aug_noise,
                   mask_prob=config.aug_mask_prob, gain=config.aug_gain)


def write_metrics(metrics, path):
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=["epoch", "lr", *LOSS_COLUMNS,
                                          "refit", "changed", "at_floor",
                                          "config_hash"])
        w.writeheader()
        for row in metrics:
            w.writerow(row)


# ---- evaluation ----

def evaluate(result, bundle, score_kind=None, k_top=None):
    """Score ID test and every OOD set against the training-feature bank.

    The test rows of every set are stacked, go through one forward and
    are scored by one `score_set` call. `score_kind` and `k_top` default
    to the checkpoint's; an explicit `k_top` must be positive, whatever
    the score kind. A bundle with no OOD set is a ConfigError.
    """
    config = result.config
    score_kind = score_kind or config.score_kind
    if k_top is None:
        k_top = config.k_top
    elif k_top < 1:
        raise ConfigError(f"k_top must be positive, got {k_top}")
    check_width(config, bundle)
    if not bundle.ood_sets:
        files = ", ".join(f"ood_{name}.csv" for name in OOD_SET_NAMES)
        raise ConfigError(f"bundle has no OOD set to score; expected one "
                          f"or more of {files}")

    def feats(x):
        return model.layer_features(result.encoder, result.projection, x,
                                    config.score_layer)

    names = sorted(bundle.ood_sets)
    bank = scoring.ReferenceBank(feats(bundle.id_train))
    queries = feats(np.concatenate(
        [bundle.id_test] + [bundle.ood_sets[n] for n in names]))
    return scoring.stacked_report(
        bank, queries, len(bundle.id_test),
        {n: len(bundle.ood_sets[n]) for n in names}, score_kind,
        k_top=k_top, config_hash=config.hash())


def mean_max_center_similarity(result, bundle):
    """Mean over ID test samples of max cosine similarity to any center."""
    if result.cluster_state is None:
        raise ConfigError("checkpoint has no cluster state")
    feats = model.layer_features(result.encoder, result.projection,
                                 bundle.id_test,
                                 result.config.clustering_layer)
    centers = result.cluster_state.centers
    return float(np.mean(np.max(normalize_rows(feats)[0] @ centers.T, axis=1)))


def export_features(result, bundle, layer, path):
    """Write every set's features at the chosen layer as one labeled CSV."""
    if layer not in ("embedding", "projection"):
        raise ConfigError(f"unknown layer {layer!r}")
    check_width(result.config, bundle)
    sets = [("id_train", bundle.id_train), ("id_test", bundle.id_test)]
    sets += [(name, bundle.ood_sets[name]) for name in sorted(bundle.ood_sets)]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        for name, rows in sets:
            feats = model.layer_features(result.encoder, result.projection,
                                         rows, layer)
            for row in feats:
                w.writerow([name] + [repr(float(x)) for x in row])
