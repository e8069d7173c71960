"""OOD score functions over a bank of training features, plus exact AUROC."""

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

from .errors import ConfigError, ContractError, DomainError


@dataclass
class ReferenceBank:
    """Training-set features test samples are scored against."""

    features: np.ndarray
    norms: np.ndarray = field(init=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ContractError("bank must be a non-empty 2-D matrix")
        self.norms = np.linalg.norm(self.features, axis=1)

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


def _candidate_scores(bank, z):
    """sim(bank_m, z) * ||bank_m|| for every bank row."""
    z = np.asarray(z, dtype=np.float64)
    zn = np.linalg.norm(z)
    if zn == 0.0:
        raise DomainError("query vector has zero norm")
    sims = (bank.features @ z) / (np.maximum(bank.norms, 1e-300) * zn)
    return sims * bank.norms


def score_cos(bank, z):
    """Max norm-weighted cosine similarity against the bank."""
    return float(np.max(_candidate_scores(bank, z)))


def _var_denominator(bank, scores, k_top):
    """Std-dev of the top-K bank rows (by candidate score), clamped at 1e-8."""
    top = np.argsort(-scores, kind="stable")[:k_top]
    rows = bank.features[top]
    mean = rows.mean(axis=0)
    var = np.sum((rows - mean) ** 2) / (k_top - 1)
    return max(np.sqrt(var), 1e-8)


def score_var(bank, z, k_top=10):
    """Cosine score normalized by the spread of its top-K neighbors."""
    if k_top < 2 or k_top > len(bank):
        raise ConfigError(
            f"k_top must lie in [2, {len(bank)}], got {k_top}"
        )
    scores = _candidate_scores(bank, z)
    return float(np.max(scores)) / _var_denominator(bank, scores, k_top)


def auroc(id_scores, ood_scores):
    """P(random ID score > random OOD score), ties counted one half.

    Exact Mann-Whitney statistic via midranks.
    """
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    if id_scores.size == 0 or ood_scores.size == 0:
        raise ContractError("both score lists must be non-empty")
    if not (np.isfinite(id_scores).all() and np.isfinite(ood_scores).all()):
        raise DomainError("AUROC needs finite scores")
    n_id, n_ood = id_scores.size, ood_scores.size
    ranks = rankdata(np.concatenate([id_scores, ood_scores]))
    u = ranks[:n_id].sum() - n_id * (n_id + 1) / 2.0
    return float(u / (n_id * n_ood))


def score_set(bank, features, score_kind, k_top=10):
    """Score every row of `features` against the bank."""
    if score_kind == "cos":
        return np.array([score_cos(bank, z) for z in features])
    if score_kind == "var":
        return np.array([score_var(bank, z, k_top) for z in features])
    raise ConfigError(f"unknown score kind {score_kind!r}")


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
