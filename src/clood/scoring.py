"""OOD score functions over a bank of training features, plus exact AUROC."""

import csv
from dataclasses import dataclass

import numpy as np

from .autodiff import normalize_rows
from .errors import ConfigError, ContractError, DomainError


# entries a chunk of queries holds at once: 2**18 float64s, 2 MB
_CHUNK_ENTRIES = 1 << 18


@dataclass
class ReferenceBank:
    """Training-set features test samples are scored against."""

    features: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ContractError("bank must be a non-empty 2-D matrix")

    def __len__(self):
        return self.features.shape[0]


@dataclass
class ScoreReport:
    score_kind: str
    k_top: int
    id_scores: np.ndarray
    ood_scores: dict          # set name -> scores array
    aurocs: dict              # set name -> float in [0, 1]
    config_hash: str = ""


def score_cos(bank, z):
    """Max norm-weighted cosine similarity against the bank."""
    return float(score_set(bank, [z], "cos")[0])


def score_var(bank, z, k_top=10):
    """Cosine score normalized by the spread of its top-K neighbors."""
    return float(score_set(bank, [z], "var", k_top)[0])


def auroc(id_scores, ood_scores):
    """P(random ID score > random OOD score), ties counted one half.

    Exact Mann-Whitney statistic by counting pairs: against the sorted OOD
    scores, an ID score's left insertion point counts the OOD scores it
    beats, and its right one adds those it ties, so the two sums add up
    to twice U. Both are integers, so U is exact.
    """
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    if id_scores.size == 0 or ood_scores.size == 0:
        raise ContractError("both score lists must be non-empty")
    if not (np.isfinite(id_scores).all() and np.isfinite(ood_scores).all()):
        raise DomainError("AUROC needs finite scores")
    ood = np.sort(ood_scores)
    u = (np.searchsorted(ood, id_scores, "left").sum()
         + np.searchsorted(ood, id_scores, "right").sum()) / 2
    return float(u / (id_scores.size * ood_scores.size))


def score_set(bank, features, score_kind, k_top=10):
    """Score every row of `features` against the bank.

    A bank row's candidate score, sim(bank_m, z) * ||bank_m||, is its dot
    product with the unit query. `cos` is the best candidate; `var`
    divides it by the spread of the top-K bank rows by candidate score
    (ties to the lowest index; `_top_k` selects them in linear time),
    clamped at 1e-8. Queries are scored in chunks that hold about
    _CHUNK_ENTRIES entries.
    """
    if score_kind not in ("cos", "var"):
        raise ConfigError(f"unknown score kind {score_kind!r}")
    if score_kind == "var" and not 2 <= k_top <= len(bank):
        raise ConfigError(f"k_top must lie in [2, {len(bank)}], got {k_top}")
    queries = normalize_rows(features)[0]
    scores = np.empty(queries.shape[0])
    # a query holds its candidates and, for var, its top-K bank rows
    per_query = len(bank) + (k_top * bank.features.shape[1]
                             if score_kind == "var" else 0)
    step = max(1, _CHUNK_ENTRIES // per_query)
    for start in range(0, queries.shape[0], step):
        cand = queries[start:start + step] @ bank.features.T
        best = cand.max(axis=1)
        if score_kind == "var":
            # cand is not read again: negate it in place, largest first
            top = _top_k(np.negative(cand, out=cand), k_top)
            # the gathered rows are a fresh copy: centre and square in place
            dev = bank.features[top]
            dev -= dev.mean(axis=1, keepdims=True)
            np.square(dev, out=dev)
            spread = np.sqrt(dev.sum(axis=(1, 2)) / (k_top - 1))
            best = best / np.maximum(spread, 1e-8)
        scores[start:start + step] = best
    return scores


def _top_k(values, k):
    """Columns of each row's k smallest values, ordered by (value, column).

    Equal to np.argsort(values, axis=1, kind="stable")[:, :k], in linear
    time: argpartition picks k columns, and a stable sort of the picks,
    taken in column order, orders them. A row whose k-th value is NaN,
    or ties with a value left out, may hold the wrong ones of its tied
    columns; only those rows are sorted in full.
    """
    n = values.shape[1]
    # column k of the partition holds the (k+1)-th smallest value
    part = np.argpartition(values, min(k, n - 1), axis=1)
    picks = np.sort(part[:, :k], axis=1)
    picked = np.take_along_axis(values, picks, axis=1)
    order = np.argsort(picked, axis=1, kind="stable")
    top = np.take_along_axis(picks, order, axis=1)
    kth = np.take_along_axis(picked, order[:, -1:], axis=1)[:, 0]
    redo = np.isnan(kth)
    if k < n:
        after = np.take_along_axis(values, part[:, k:k + 1], axis=1)[:, 0]
        redo |= after == kth
    if redo.any():
        top[redo] = np.argsort(values[redo], axis=1, kind="stable")[:, :k]
    return top


def build_report(bank, id_test_features, ood_features, score_kind, k_top=10,
                 config_hash=""):
    """Score ID test and every OOD set, with one AUROC per OOD set."""
    id_scores = score_set(bank, id_test_features, score_kind, k_top)
    ood_scores, aurocs = {}, {}
    for name in sorted(ood_features):
        ood_scores[name] = score_set(bank, ood_features[name], score_kind, k_top)
        aurocs[name] = auroc(id_scores, ood_scores[name])
    return ScoreReport(score_kind=score_kind, k_top=k_top,
                       id_scores=id_scores, ood_scores=ood_scores,
                       aurocs=aurocs, config_hash=config_hash)


def write_report(report, scores_path, summary_path):
    """Persist per-sample scores and the per-set AUROC summary as CSV."""
    with open(scores_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["set", "sample_id", "score"])
        for i, s in enumerate(report.id_scores):
            w.writerow(["id_test", i, repr(float(s))])
        for name in sorted(report.ood_scores):
            for i, s in enumerate(report.ood_scores[name]):
                w.writerow([name, i, repr(float(s))])
    with open(summary_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["set", "score_kind", "k_top", "auroc", "config_hash"])
        for name in sorted(report.aurocs):
            w.writerow([name, report.score_kind, report.k_top,
                        repr(report.aurocs[name]), report.config_hash])
