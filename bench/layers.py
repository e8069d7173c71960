"""What the traced run wraps in clood, and the per-layer metrics it derives.

Every target is wrapped where its callers look it up at call time: the
training loop calls `clustering.fit_state` and `model.encode_batch` through
their modules, `ablate` calls the `train` and `evaluate` it imported into
its own namespace, and `clood.train` is the module, not the function the
package re-exports under that name.
"""

import numpy as np

from spans import self_times

# (target, span name); the same span name may cover several lookup sites
TARGETS = [
    ("clood.train:data_augment", "data.augment"),
    ("clood.model:encode_batch", "model.encode_batch"),
    ("clood.model:mlp_forward_np", "model.mlp_forward_np"),
    ("clood.losses:self_supervised_loss", "losses.self_supervised_loss"),
    ("clood.losses:cluster_center_loss", "losses.cluster_center_loss"),
    ("clood.losses:cluster_instance_loss", "losses.cluster_instance_loss"),
    ("clood.autodiff:Tensor.backward", "autodiff.backward"),
    ("clood.train:train", "train.train"),
    ("clood.ablate:train", "train.train"),
    ("clood.train:evaluate", "train.evaluate"),
    ("clood.ablate:evaluate", "train.evaluate"),
    ("clood.clustering:fit_state", "clustering.fit_state"),
    ("clood.clustering:kmeans_fit", "clustering.kmeans_fit"),
    ("clood.clustering:assign", "clustering.assign"),
    ("clood.scoring:score_set", "scoring.score_set"),
    ("clood.scoring:score_cos", "scoring.score_cos"),
    ("clood.scoring:score_var", "scoring.score_var"),
    ("clood.scoring:auroc", "scoring.auroc"),
    ("clood.ablate:run_one", "ablate.run_one"),
]
TENSOR_INIT = "clood.autodiff:Tensor.__init__"

# name, unit, better; the order is the order of the printed report
PER_LAYER = [
    ("data.augment.calls", "count", "lower"),
    ("data.augment.us_per_call", "us", "lower"),
    ("model.encode_batch.us_per_call", "us", "lower"),
    ("model.mlp_forward_np.calls", "count", "lower"),
    ("model.mlp_forward_np.us_per_call", "us", "lower"),
    ("losses.self_supervised_loss.us_per_call", "us", "lower"),
    ("losses.cluster_center_loss.us_per_call", "us", "lower"),
    ("losses.cluster_instance_loss.us_per_call", "us", "lower"),
    ("autodiff.backward.us_per_call", "us", "lower"),
    ("autodiff.tensors_per_step", "tensors/step", "lower"),
    ("train.train.calls", "count", "lower"),
    ("train.train.self_share", "share", "lower"),
    ("train.evaluate.us_per_call", "us", "lower"),
    ("clustering.fit_state.calls", "count", "lower"),
    ("clustering.fit_state.us_per_call", "us", "lower"),
    ("clustering.kmeans_iters_per_fit", "iters", "lower"),
    ("clustering.assign.calls", "count", "lower"),
    ("clustering.assign.us_per_call", "us", "lower"),
    ("clustering.refit_changed_share", "share", "higher"),
    ("clustering.phi_at_floor_share", "share", "lower"),
    ("scoring.score_set.us_per_query", "us", "lower"),
    ("scoring.score_calls", "count", "lower"),
    ("scoring.auroc.us_per_call", "us", "lower"),
    ("ablate.run_one.calls", "count", "lower"),
    ("ablate.train_calls_per_run_one", "ratio", "lower"),
    ("trace.overhead_share", "share", "lower"),
]


def train_steps(config, bundle):
    """SGD steps one `train(config, bundle)` call takes."""
    return config.epochs_total * max(1, bundle.id_train.shape[0] // config.batch_size)


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def canonical_partition(labels):
    """Labels renumbered by first appearance: equal iff same partition."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))
    return rank[inverse].astype(np.int64).tobytes()


# probe(args, kwargs, result) -> span payload, per span name
PROBES = {
    "train.train": lambda a, k, r: train_steps(_arg(a, k, 0, "config"),
                                               _arg(a, k, 1, "bundle")),
    "clustering.fit_state": lambda a, k, r: (
        canonical_partition(r.assignments),
        int(np.count_nonzero(r.phis <= _arg(a, k, 4, "phi_floor"))),
        int(r.phis.size)),
    "scoring.score_set": lambda a, k, r: len(_arg(a, k, 1, "features")),
}


def patches(recorder):
    """(target, make_wrapper) pairs that feed `recorder`."""
    out = [(target, lambda fn, name=name: recorder.wrap(fn, name, PROBES.get(name)))
           for target, name in TARGETS]
    out.append((TENSOR_INIT, lambda fn: recorder.counter(fn, "tensors")))
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(spans, tensors):
    """Every PER_LAYER metric but the tracing overhead, from one run's spans.

    A `us_per_call` is the mean duration of a call, children included; a
    `self_share` is the part of a layer's time no child span covers. A
    layer the run never called reads zero calls and zero time.
    """
    by_sid = {s.sid: s for s in spans}
    calls, total = {}, {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.duration
    own = self_times(spans)

    def n(name):
        return calls.get(name, 0)

    def us(name):
        return _ratio(total.get(name, 0.0) * 1e6, n(name))

    def ancestor(s, name):
        while s.parent is not None:
            s = by_sid[s.parent]
            if s.name == name:
                return s
        return None

    steps = sum(s.payload for s in spans if s.name == "train.train")
    iters = sum(1 for s in spans if s.name == "clustering.assign"
                and s.parent is not None
                and by_sid[s.parent].name == "clustering.kmeans_fit")

    # refits compared with the previous refit of the same training
    last, compared, changed, at_floor, phis = {}, 0, 0, 0, 0
    for s in sorted((s for s in spans if s.name == "clustering.fit_state"),
                    key=lambda s: s.start):
        partition, floor, count = s.payload
        at_floor += floor
        phis += count
        owner = ancestor(s, "train.train")
        key = None if owner is None else owner.sid
        if key in last:
            compared += 1
            changed += partition != last[key]
        last[key] = partition

    rows = sum(s.payload for s in spans if s.name == "scoring.score_set")
    under_run_one = sum(1 for s in spans if s.name == "train.train"
                        and ancestor(s, "ablate.run_one") is not None)

    return {
        "data.augment.calls": n("data.augment"),
        "data.augment.us_per_call": us("data.augment"),
        "model.encode_batch.us_per_call": us("model.encode_batch"),
        "model.mlp_forward_np.calls": n("model.mlp_forward_np"),
        "model.mlp_forward_np.us_per_call": us("model.mlp_forward_np"),
        "losses.self_supervised_loss.us_per_call": us("losses.self_supervised_loss"),
        "losses.cluster_center_loss.us_per_call": us("losses.cluster_center_loss"),
        "losses.cluster_instance_loss.us_per_call": us("losses.cluster_instance_loss"),
        "autodiff.backward.us_per_call": us("autodiff.backward"),
        "autodiff.tensors_per_step": _ratio(tensors, steps),
        "train.train.calls": n("train.train"),
        "train.train.self_share": _ratio(own.get("train.train", 0.0),
                                         total.get("train.train", 0.0)),
        "train.evaluate.us_per_call": us("train.evaluate"),
        "clustering.fit_state.calls": n("clustering.fit_state"),
        "clustering.fit_state.us_per_call": us("clustering.fit_state"),
        "clustering.kmeans_iters_per_fit": _ratio(iters, n("clustering.kmeans_fit")),
        "clustering.assign.calls": n("clustering.assign"),
        "clustering.assign.us_per_call": us("clustering.assign"),
        "clustering.refit_changed_share": _ratio(changed, compared),
        "clustering.phi_at_floor_share": _ratio(at_floor, phis),
        "scoring.score_set.us_per_query": _ratio(
            total.get("scoring.score_set", 0.0) * 1e6, rows),
        "scoring.score_calls": n("scoring.score_cos") + n("scoring.score_var"),
        "scoring.auroc.us_per_call": us("scoring.auroc"),
        "ablate.run_one.calls": n("ablate.run_one"),
        "ablate.train_calls_per_run_one": _ratio(under_run_one, n("ablate.run_one")),
    }
