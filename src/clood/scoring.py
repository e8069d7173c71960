"""OOD score functions over a bank of training features, plus exact AUROC."""

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .autodiff import normalize_rows
from .errors import ConfigError, ContractError, DomainError


# entries a chunk of queries holds at once: 2**18 float64s, 2 MB
_CHUNK_ENTRIES = 1 << 18
# `_top_k` filters a wide row by a sample of every _SAMPLE-th column
_SAMPLE = 8


@dataclass
class ReferenceBank:
    """Training-set features test samples are scored against.

    What scoring derives from the rows is built on first use and kept, so
    the rows must not change once the bank has scored.
    """

    features: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ContractError("bank must be a non-empty 2-D matrix")

    def __len__(self):
        return self.features.shape[0]

    @cached_property
    def _norms(self):
        return np.linalg.norm(self.features, axis=1)

    @cached_property
    def _finite(self):
        """True when every row norm is finite.

        Then no candidate of a unit query can overflow: a partial sum of
        b . q is at most ||b|| ||q|| in magnitude.
        """
        return bool(np.isfinite(self._norms).all())

    @cached_property
    def _negated(self):
        """The bank, negated and transposed into a contiguous (d, n) array."""
        rows = self.features.T.copy()
        return np.negative(rows, out=rows)

    @cached_property
    def _tiles(self):
        """Norm-ordered tiles for `cos`, or None to scan the bank whole.

        The rows, stably sorted by norm, largest first, are cut into
        contiguous transposed (d, width) tiles, the last one taking a lone
        leftover row. Next to them: the norm of the first row after each
        tile but the last, the largest norm of all rows after it. A bank
        that fits in one tile, or has a non-finite row norm, gets None.
        """
        width = _tile_width()
        if len(self) <= width or not self._finite:
            return None
        order = np.argsort(-self._norms, kind="stable")
        starts = list(range(0, len(self), width))
        if len(self) - starts[-1] == 1:
            starts.pop()
        ends = starts[1:] + [len(self)]
        tiles = [np.ascontiguousarray(self.features[order[a:b]].T)
                 for a, b in zip(starts, ends)]
        return tiles, self._norms[order[starts[1:]]]


@dataclass
class ScoreReport:
    score_kind: str
    k_top: int
    id_scores: np.ndarray
    ood_scores: dict          # set name -> scores array
    aurocs: dict              # set name -> float in [0, 1]
    config_hash: str = ""
    # queries whose `var` spread was clamped at 1e-8: ID test, per OOD set
    id_clamped: int = 0
    ood_clamped: dict = field(default_factory=dict)


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


def check_k_top(k_top, rows):
    """ConfigError unless `var`'s top-K fits a bank of `rows` rows: its
    spread needs two rows or more."""
    if not 2 <= k_top <= rows:
        raise ConfigError(f"k_top must lie in [2, {rows}] for a bank of "
                          f"{rows} rows, got {k_top}")


def score_set(bank, features, score_kind, k_top=10, clamped=False):
    """Score every row of `features` against the bank.

    A bank row's candidate score, sim(bank_m, z) * ||bank_m||, is its dot
    product with the unit query. `cos` is the best candidate; `var`
    divides it by the spread of the top-K bank rows by candidate score
    (ties to the lowest index), clamped at 1e-8. With `clamped`, also
    returns which queries' spread was clamped (none under `cos`).

    `var` scores chunks of queries against the whole bank, prepared once
    as a negated transposed copy, so the best candidate is the first of
    the top-K; a chunk's candidates and top-K rows fill up to twice
    _CHUNK_ENTRIES entries (`_var_scores`), and its top-K rows, at most
    half of _CHUNK_ENTRIES, are gathered into one workspace kept for the
    call. `_top_k` selects the top-K exactly; on a bank of 8K rows or
    more (its docstring gives the rule) it keeps each query's candidates
    at or below a threshold drawn from every 8th one, about K + 64 of
    them, and orders only those, or the full row when fewer than K pass.
    `cos` scans the bank's norm-ordered tiles (`_cos_scores`) and stops a
    query once no row left can beat its best; a bank that fits in one
    tile, or has a non-finite row norm, is scanned whole, a chunk at a
    time. No product has a single row on either side:
    BLAS computes those on another path, whose last bit differs. BLAS
    also picks its kernel by a product's shape, so the last bit of a
    score can depend on how many queries share its product.
    """
    if score_kind not in ("cos", "var"):
        raise ConfigError(f"unknown score kind {score_kind!r}")
    if score_kind == "var":
        check_k_top(k_top, len(bank))
    queries = normalize_rows(features)[0]
    if score_kind == "cos":
        scores = _cos_scores(bank, queries)
        spread_clamped = np.zeros(len(queries), dtype=bool)
    else:
        scores, spread_clamped = _var_scores(bank, queries, k_top)
    return (scores, spread_clamped) if clamped else scores


def _var_scores(bank, queries, k_top):
    """`var` scores of unit queries, and which of them had their spread
    clamped.

    A chunk of step = min(2 _CHUNK_ENTRIES // (n + K d),
    _CHUNK_ENTRIES // 2 // (K d)) queries, at least one, is scored at a
    time: its n candidates and K top rows of width d a query fill up to
    twice _CHUNK_ENTRIES, and its top rows at most half of it.
    """
    n, d = bank.features.shape
    step = max(1, min(2 * _CHUNK_ENTRIES // (n + k_top * d),
                      _CHUNK_ENTRIES // 2 // (k_top * d)))
    work = np.empty((min(step, len(queries)), k_top, d))
    scores = np.empty(len(queries))
    clamped = np.empty(len(queries), dtype=bool)
    for start in range(0, len(queries), step):
        neg = _product(queries[start:start + step], bank._negated)
        top = _top_k(neg, k_top)
        # a NaN candidate can only come from a row with a non-finite norm
        lowest = (np.take_along_axis(neg, top[:, :1], axis=1)[:, 0]
                  if bank._finite else neg.min(axis=1))
        # "clip" writes straight into the workspace; the indices are in range
        dev = np.take(bank.features, top, axis=0, out=work[:len(top)],
                      mode="clip")
        dev -= dev.mean(axis=1, keepdims=True)
        np.square(dev, out=dev)
        spread = np.sqrt(dev.sum(axis=(1, 2)) / (k_top - 1))
        clamped[start:start + step] = spread < 1e-8
        scores[start:start + step] = -lowest / np.maximum(spread, 1e-8)
    return scores, clamped


def _tile_width():
    """Bank rows per `cos` tile, about the square root of _CHUNK_ENTRIES;
    a block of queries times a tile holds no more than that many entries."""
    return max(2, math.isqrt(_CHUNK_ENTRIES))


def _product(queries, rows):
    """queries @ rows, with a lone query (or bank row) doubled first, so
    that BLAS takes the path a batch takes."""
    if rows.shape[1] == 1:
        rows = np.repeat(rows, 2, axis=1)
    if queries.shape[0] == 1:
        return (np.repeat(queries, 2, axis=0) @ rows)[:1]
    return queries @ rows


def _cos_scores(bank, queries):
    """Best candidate of each unit query, exactly.

    With the bank's norm-ordered tiles (`ReferenceBank._tiles`), each
    block of queries is multiplied by one tile after another, largest
    norms first; a query drops out once its best candidate reaches the
    limit of the tile it would take next. The limit bounds every computed
    candidate of the rows left, so the maximum, and every bit of it, is
    that of the unpruned scan over the same tiles. Without tiles, the
    whole bank is one tile, and a block holds _CHUNK_ENTRIES // n queries.

    The limit. Let u = 2**-53, d the row width and g = d u / (1 - d u).
    Without underflow or overflow, a d-term dot product computed in any
    order, with or without fused multiply-adds, has
        fl(b . q) <= (1 + g) ||b|| ||q||,
    and a computed norm v = fl(||x||) has ||x|| <= v / ((1 - u) sqrt(1 - g)).
    Hence
        fl(b . q) <= v_b v_q (1 + g) / ((1 - u)^2 (1 - g))
                   = v_b v_q (1 + (2d + 3) u + O(d^2 u^2)),
    with v_b the largest norm among the rows left (the first row of the
    next tile) and v_q the largest query norm. The limit is
        v_b (v_q (1 + 4(d + 2) u)) + d 2**-536,   4u = 2**-51;
    its four roundings take off at most 4u, so the factor keeps a margin
    of about 2d u while d u < 2**-10. Underflow costs each product or
    square at most 2**-1074, so the dot product gains at most d 2**-1074
    and a row norm loses at most sqrt(d) 2**-537; the term d 2**-536
    covers both. A unit query's largest entry is about 1 / sqrt(d) or
    more, so its own norm does not underflow. Only a row of non-finite
    norm can overflow, and such a bank is not pruned. A NaN query scores
    NaN however far it is scanned, so v_q skips it.
    """
    if bank._tiles is None:
        tiles, limits = [bank.features.T], []
    else:
        tiles, after = bank._tiles
        d = queries.shape[1]
        v_q = np.fmax.reduce(np.linalg.norm(queries, axis=1), initial=0.0)
        limits = after * (v_q * (1 + (d + 2) * 2.0 ** -51)) + d * 2.0 ** -536
    block = max(1, _CHUNK_ENTRIES // tiles[0].shape[1])
    scores = np.empty(queries.shape[0])
    for start in range(0, queries.shape[0], block):
        q = queries[start:start + block]
        best = _product(q, tiles[0]).max(axis=1)
        active = np.arange(q.shape[0])
        for tile, limit in zip(tiles[1:], limits):
            active = active[best[active] < limit]
            if not active.size:
                break
            best[active] = np.maximum(
                best[active], _product(q[active], tile).max(axis=1))
        scores[start:start + block] = best
    return scores


def _top_k(values, k):
    """Columns of each row's k smallest values, ordered by (value, column).

    Equal to np.argsort(values, axis=1, kind="stable")[:, :k] on every
    input. Wide rows, n >= _SAMPLE k columns whose 1-in-_SAMPLE column
    sample is wider than r = ceil(k / _SAMPLE) + _SAMPLE (the shape alone
    decides), are filtered first. Each row's threshold t is the r-th
    smallest sampled value; the columns holding values <= t, at least r
    and about _SAMPLE r of them, are laid out in column order and padded
    with +inf. A row that keeps k columns or more has its k-th smallest
    value at or below t, so it keeps every column ranked up to there,
    ties included, in its own order, and the padding ranks after them:
    the layout's k smallest, which `_top_k_full` picks, are the row's. A
    row that keeps fewer than k columns (t too low, or NaN) goes through
    `_top_k_full` whole, as does every row of narrower values.
    """
    n = values.shape[1]
    rank = -(-k // _SAMPLE) + _SAMPLE
    if n < _SAMPLE * k or rank >= -(-n // _SAMPLE):
        return _top_k_full(values, k)
    t = np.partition(values[:, ::_SAMPLE], rank - 1, axis=1)[:, rank - 1:rank]
    flat = np.flatnonzero(values <= t)
    rows = flat // n
    counts = np.bincount(rows, minlength=len(values))
    short = counts < k
    if short.all():
        return _top_k_full(values, k)
    if short.any():
        long = ~short[rows]
        flat, rows = flat[long], rows[long]
        counts[short] = 0
    # row r keeps the columns flat[starts[r]:starts[r] + counts[r]] - r n
    starts = np.cumsum(counts) - counts
    width = counts.max()
    kept = np.full((len(values), width), np.inf)
    kept.reshape(-1)[rows * width + np.arange(len(flat)) - starts[rows]] = \
        np.take(values, flat)
    # "clip" keeps the places of short rows, overwritten below, in range
    top = np.take(flat - rows * n, starts[:, None] + _top_k_full(kept, k),
                  mode="clip")
    if short.any():
        top[short] = _top_k_full(values[short], k)
    return top


def _top_k_full(values, k):
    """`_top_k` over every column, in linear time: argpartition picks k
    columns, and a stable sort of the picks, taken in column order, orders
    them. A row whose k-th value is NaN, or ties with a value left out,
    may hold the wrong ones of its tied columns; only those rows are
    sorted in full.
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
    names = sorted(ood_features)
    parts = [np.asarray(x, dtype=np.float64)
             for x in [id_test_features] + [ood_features[n] for n in names]]
    return stacked_report(bank, np.concatenate(parts), len(parts[0]),
                          {n: len(x) for n, x in zip(names, parts[1:])},
                          score_kind, k_top, config_hash)


def stacked_report(bank, features, id_rows, ood_rows, score_kind, k_top=10,
                   config_hash=""):
    """The report on `features`: the ID test set's `id_rows` rows, then
    each OOD set's, in the order of `ood_rows` (set name -> row count),
    scored by one `score_set` call.

    A zero-norm row raises DomainError naming its set and its index there.
    """
    ends = list(accumulate([id_rows, *ood_rows.values()]))
    spans = [slice(a, b) for a, b in zip([0, *ends], ends)]
    try:
        scores, clamped = score_set(bank, features, score_kind, k_top,
                                    clamped=True)
    except DomainError:
        zero = np.flatnonzero(np.linalg.norm(features, axis=1) == 0.0)
        if not zero.size:
            raise
        i = bisect_right(ends, zero[0])
        raise DomainError(f"zero-norm row {zero[0] - spans[i].start} of set "
                          f"{['id_test', *ood_rows][i]!r} cannot be "
                          f"normalized") from None
    scores = [scores[span] for span in spans]
    counts = [int(np.count_nonzero(clamped[span])) for span in spans]
    return ScoreReport(
        score_kind=score_kind, k_top=k_top, id_scores=scores[0],
        ood_scores=dict(zip(ood_rows, scores[1:])),
        aurocs={name: auroc(scores[0], s)
                for name, s in zip(ood_rows, scores[1:])},
        config_hash=config_hash, id_clamped=counts[0],
        ood_clamped=dict(zip(ood_rows, counts[1:])))


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
        w.writerow(["set", "score_kind", "k_top", "auroc", "config_hash",
                    "id_clamped", "ood_clamped"])
        for name in sorted(report.aurocs):
            w.writerow([name, report.score_kind, report.k_top,
                        repr(report.aurocs[name]), report.config_hash,
                        report.id_clamped, report.ood_clamped.get(name, 0)])
