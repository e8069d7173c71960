"""Output checks on what clood returns to the benchmark.

A check that fails is counted and described, never raised, so one bad
output does not hide the others. The scorer here shares no code with
`clood.scoring`: it takes each bank row's score as its dot product with
the unit query and picks the top-K by a stable sort, so ties go to the
lowest index.
"""

import hashlib
import math
import os

import numpy as np

REL_TOL = 1e-9
SAMPLE = 8          # queries re-scored per set and score kind


class Checks:
    """Counts operations and output checks, and describes each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def guard(self, what, fn, *args, **kwargs):
        """Run `fn` as one operation, which fails if it raises."""
        try:
            out = fn(*args, **kwargs)
        except Exception as e:
            self.check(False, f"{what}: {type(e).__name__}: {e}")
            return None
        self.check(True, what)
        return out

    def merge(self, report):
        """Add the counts of a report from another process."""
        self.attempted += report["attempted"]
        self.failures += report["failures"]


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def features(result, rows):
    """Rows at the result's score layer, by a plain forward pass."""
    x = np.asarray(rows, dtype=np.float64)
    nets = [result.encoder]
    if result.config.score_layer == "projection":
        nets.append(result.projection)
    for net in nets:
        arrays = net.arrays()
        depth = len(arrays) // 2
        for i in range(depth):
            x = x @ arrays[f"w{i}"] + arrays[f"b{i}"]
            if i < depth - 1:
                x = np.maximum(x, 0.0)
    return x


def brute_force_scores(bank, z, k_top):
    """(cos score, var score, top-K boundary gap) of one query."""
    z = np.asarray(z, dtype=np.float64)
    cand = [float(v) for v in bank @ (z / math.sqrt(float(z @ z)))]
    order = sorted(range(len(cand)), key=lambda m: (-cand[m], m))
    top = bank[order[:k_top]]
    spread = math.sqrt(float(np.sum((top - top.mean(axis=0)) ** 2)) / (k_top - 1))
    cos = cand[order[0]]
    gap = cand[order[k_top - 1]] - cand[order[k_top]] if k_top < len(cand) \
        else math.inf
    return cos, cos / max(spread, 1e-8), gap


def pair_count_auroc(id_scores, ood_scores):
    """Share of (ID, OOD) pairs the ID score wins, ties counted one half."""
    a = np.asarray(id_scores)[:, None]
    b = np.asarray(ood_scores)[None, :]
    wins = np.count_nonzero(a > b) + 0.5 * np.count_nonzero(a == b)
    return wins / (a.size * b.size)


def score_arrays(report):
    """A report's ID scores, then each OOD set's, in name order."""
    return [np.asarray(report.id_scores)] + [np.asarray(report.ood_scores[name])
                                             for name in sorted(report.ood_scores)]


def same_report(a, b):
    """Whether two reports hold the same scores and AUROCs, bit for bit."""
    return (a.score_kind == b.score_kind and a.aurocs == b.aurocs
            and sorted(a.ood_scores) == sorted(b.ood_scores)
            and all(np.array_equal(x, y)
                    for x, y in zip(score_arrays(a), score_arrays(b))))


def check_report(checks, result, bundle, report, tag):
    """Re-score a fixed sample of every set and recount every AUROC."""
    bank = features(result, bundle.id_train)
    sets = [("id_test", bundle.id_test, report.id_scores)]
    sets += [(name, bundle.ood_sets[name], report.ood_scores[name])
             for name in sorted(bundle.ood_sets)]
    for name, rows, scores in sets:
        scores = np.asarray(scores)
        checks.check(scores.shape == (len(rows),) and np.all(np.isfinite(scores)),
                     f"{tag} {name}: want one finite score per row")
        picks = np.unique(np.linspace(0, len(rows) - 1, SAMPLE).astype(int))
        for i, z in zip(picks, features(result, rows[picks])):
            cos, var, gap = brute_force_scores(bank, z, report.k_top)
            want = cos if report.score_kind == "cos" else var
            # a near-tie at the top-K boundary may go either way
            tied = report.score_kind == "var" and gap <= REL_TOL * max(1.0, abs(cos))
            checks.check(_close(float(scores[i]), want) or tied,
                         f"{tag} {name}[{i}]: {report.score_kind} score "
                         f"{float(scores[i])!r}, brute force {want!r}")
    for name in sorted(report.aurocs):
        value = report.aurocs[name]
        checks.check(0.0 <= value <= 1.0, f"{tag} {name}: AUROC {value!r} outside [0, 1]")
        count = pair_count_auroc(report.id_scores, report.ood_scores[name])
        checks.check(abs(value - count) <= 1e-12,
                     f"{tag} {name}: AUROC {value!r}, pair count {count!r}")


def check_training(checks, result, tag, train_module, scratch):
    """Finite losses and a byte-exact checkpoint round trip.

    Returns the checkpoint's sha256, which the traced and untraced runs
    must agree on.
    """
    cfg = result.config
    cluster_on = cfg.use_ccl or cfg.use_cil
    bad = [row["epoch"] for row in result.metrics
           if not math.isfinite(row["l_self"])
           or (cluster_on and row["epoch"] >= cfg.warmup_epochs
               and not math.isfinite(row["l_cluster"]))]
    checks.check(len(result.metrics) == cfg.epochs_total and not bad,
                 f"{tag}: {len(result.metrics)} epochs logged, non-finite loss "
                 f"at epochs {bad[:5]}")

    def serialize(r):
        return train_module.serialize_checkpoint(r.encoder, r.projection,
                                                 r.cluster_state, r.config)

    blob = serialize(result)
    path = os.path.join(scratch, f"roundtrip-{os.getpid()}.ckpt")
    with open(path, "wb") as f:
        f.write(blob)
    try:
        again = serialize(train_module.load_checkpoint(path))
    finally:
        os.remove(path)
    checks.check(again == blob, f"{tag}: checkpoint bytes change on a round trip")
    return hashlib.sha256(blob).hexdigest()
