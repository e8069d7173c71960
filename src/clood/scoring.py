"""OOD score functions over a bank of training features, plus exact AUROC."""

import csv
import functools
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import clustering
from .autodiff import normalize_rows
from .errors import ConfigError, NumericError


# entries a chunk of queries holds at once: 2**18 float64s, 2 MB
_CHUNK_ENTRIES = 1 << 18
# `_top_k` filters a wide row by a sample of every _SAMPLE-th column, and
# `cos` picks its cell directions among every _SAMPLE-th bank row
_SAMPLE = 8
# bank rows per tile, and direction cells of a bank of more than two
# tiles (`_cos_cells`), both chosen by timing score-bank's banks;
# the cells are sorted as bytes, so there are at most 256
_TILE = 256
_CELLS = 8
# the score kinds `score_set` knows
SCORE_KINDS = ("cos", "var")


@dataclass(frozen=True)
class ReferenceBank:
    """Training-set features test samples are scored against: a read-only
    float64 copy of a non-empty matrix, one row per training sample, in
    the input's memory layout. Its direction cells (`_cos_cells`) are
    built on first use and kept for every later call."""

    features: np.ndarray

    def __post_init__(self):
        features = np.array(self.features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ConfigError("bank must be a non-empty 2-D matrix")
        features.setflags(write=False)
        object.__setattr__(self, "features", features)

    def __len__(self):
        return self.features.shape[0]

    @functools.cached_property
    def cells(self):
        return _cos_cells(self.features)


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
        raise ConfigError("both score lists must be non-empty")
    if not (np.isfinite(id_scores).all() and np.isfinite(ood_scores).all()):
        raise NumericError("AUROC needs finite scores")
    ood = np.sort(ood_scores)
    u = (np.searchsorted(ood, id_scores, "left").sum()
         + np.searchsorted(ood, id_scores, "right").sum()) / 2
    return float(u / (id_scores.size * ood_scores.size))


def check_score_args(score_kind, k_top, rows):
    """ConfigError unless `score_kind` is one of SCORE_KINDS, K >= 1, and,
    for `var`, whose spread needs two rows, 2 <= K <= the bank's `rows`."""
    if score_kind not in SCORE_KINDS:
        raise ConfigError(f"unknown score_kind {score_kind!r}, expected one "
                          f"of {', '.join(SCORE_KINDS)}")
    if k_top < 1:
        raise ConfigError(f"k_top must be positive, got {k_top}")
    if score_kind == "var" and not 2 <= k_top <= rows:
        raise ConfigError(f"k_top must lie in [2, {rows}] for a bank of "
                          f"{rows} rows, got {k_top}")


def score_set(bank, features, score_kind, k_top=10, clamped=False):
    """Score every row of `features` against the bank.

    A bank row's candidate score, sim(bank_m, z) * ||bank_m||, is its dot
    product with the unit query. `cos` is the best candidate; `var`
    divides it by the spread of the query's top-K set, clamped at 1e-8.
    The set is the K bank rows first by (candidate score, descending;
    bank row, ascending), so a tie at the K-th place goes to the lowest
    row, and a NaN candidate ranks last. Its rows are summed in
    ascending bank-row order: their mean is one product with weights
    1/K, and the spread is sqrt(sum of squared deviations / (K - 1)),
    the sum one dot product over the K d deviations. With `clamped`,
    also returns which queries' spread was clamped (none under `cos`).

    Both kinds take one pruning decision: a bank with direction cells of
    norm-ordered tiles (`_cos_cells`) is pruned, a tile skipped by its
    cone bound (`_cone_bounds`), which no computed candidate of its rows
    exceeds; any other bank is scanned whole, a chunk at a time. A bank
    of at most two tiles, with a non-finite row norm or with only zero
    rows has no cells, and `var` asks for none on a bank too narrow for
    its threshold (`_sample_rank`). A bank builds its cells once, for
    the first call that needs them (`ReferenceBank.cells`). `cos`
    multiplies a query by a tile only while the tile's bound is above
    the query's best.
    On cells, `var` scores chunks of queries against a negated copy of
    the bank, in order of each query's best cell and threshold, and
    multiplies a chunk only by the tiles some threshold of it reaches;
    a query that keeps fewer than K candidates picks over the whole bank
    (`_var_scores`). No product has a single row on either side: BLAS
    computes those on another path, whose last bit differs. BLAS also
    picks its kernel by a product's shape, so the last bit of a score
    can depend on how many queries share its product.
    """
    check_score_args(score_kind, k_top, len(bank))
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
    twice _CHUNK_ENTRIES, and its top rows at most half of it. Every
    chunk product is written into one buffer, sized by the widest of
    them. A query's top-K set, ties at the K-th place to the lowest bank
    row, is gathered in ascending bank-row order; its mean is one product
    with weights 1/K, taken off in place, and its sum of squared
    deviations one dot product over the K d entries, both of which raise
    on overflow under errstate(over="raise").

    As for `cos`, only a bank with cells (`_cos_cells`) is pruned, and
    only one wide enough for `_top_k`'s filter (`_sample_rank`) asks for
    them. Any other is multiplied whole, in query order, each set picked
    over every row, and its best candidate is the least negated one, NaN
    if any is, as for `cos`.

    On a bank with cells, each query's threshold t comes first
    (`_thresholds`), from its best cell, the cell direction c of largest
    c . q, and the queries are scored in order of (best cell, t). A chunk
    is multiplied, cell by cell, only by the tiles of the cell up to the
    last one whose cone bound (`_cone_bounds`) is not below -t for some
    query of the chunk (`_spans`), each product into a column slice of
    the buffer; `_Cells.keys` maps the columns back to bank rows. It
    keeps only its candidates at or below t, or at or below the
    `_sample_rank`-th smallest of every _SAMPLE-th of its computed
    columns where that is lower, as when the query's neighbours lie
    outside its best cell; a query that keeps K or more of them has its
    K-th smallest value at or below t, and `_top_k` picks its set among
    them. A skipped tile's bound lies below -t for every query of the
    chunk, so each of its rows has a negated candidate above t: no query
    that keeps K candidates picks it, nor ties its K-th value, and its
    set, ties to the lowest row included, is the whole bank's; one whose
    K-th value ties a value left out picks again by (value, row) over
    its computed row (`_by_key`). A query that keeps fewer than K
    candidates, as all do in a chunk of fewer than K computed columns,
    picks its set over the whole bank, which is the set by definition,
    multiplied again unless the chunk's product spans it; on clustered
    banks such queries are rare.
    """
    features = bank.features
    n, d = features.shape
    cells = bank.cells if _sample_rank(n, k_top) else None
    step = max(1, min(2 * _CHUNK_ENTRIES // (n + k_top * d),
                      _CHUNK_ENTRIES // 2 // (k_top * d)))
    starts = range(0, len(queries), step)
    # the rows transposed and negated: the best candidate is the least
    if cells is None:
        negated = np.negative(features.T, order="C")
        chunks = [np.arange(a, min(a + step, len(queries))) for a in starts]
        spans = [[(0, n)]] * len(chunks)
    else:
        negated = np.take(features.T, cells.keys, axis=1,
                          out=np.empty((d, n)), mode="clip")
        np.negative(negated, out=negated)
        best = (cells.centers @ queries.T).argmax(axis=0)
        t = _thresholds(negated, cells, best, queries, k_top)
        sequence = np.lexsort((t, best))
        chunks = [sequence[a:a + step] for a in starts]
        v_q = _query_norm(queries)
        spans = [_spans(cells, ~(_cone_bounds(cells, queries[chunk], v_q)
                                 < -t[chunk]))
                 for chunk in chunks]
    # every chunk product of the call is written here
    buffer = np.empty(max((max(2, len(chunk)) * sum(b - a for a, b in span)
                           for chunk, span in zip(chunks, spans)), default=0))
    weights = np.full((1, k_top), 1.0 / k_top)
    work = np.empty((min(step, len(queries)), k_top, d))
    scores = np.empty(len(queries))
    clamped = np.empty(len(queries), dtype=bool)
    for chunk, span in zip(chunks, spans):
        q = queries[chunk]
        neg = _multiply(q, negated, span, buffer)
        if cells is None:
            top = _top_k_full(neg, k_top)[0]
            # a NaN candidate counts, as for `cos`
            lowest = neg.min(axis=1)
        else:
            keys = np.concatenate(
                [cells.keys[:0], *(cells.keys[a:b] for a, b in span)])
            # the chunk's own sample may cut tighter than the cell's
            cut, row_rank = t[chunk], _sample_rank(neg.shape[1], k_top)
            if row_rank is not None:
                cut = np.minimum(cut, np.partition(
                    neg[:, ::_SAMPLE], row_rank - 1, axis=1)[:, row_rank - 1])
            top, lowest, short = _top_k(neg, k_top, cut[:, None], keys)
            if short.any():
                # picked again over the whole bank, multiplied unless the
                # chunk's product spans it already
                whole = neg[short] if neg.shape[1] == n else _multiply(
                    q[short], negated, [(0, n)])
                top[short], lowest[short] = _top_k_full(whole, k_top,
                                                        cells.keys)
        # "clip" writes straight into the workspace; the indices are in range
        dev = np.take(features, top, axis=0, out=work[:len(top)],
                      mode="clip")
        dev -= np.matmul(weights, dev)
        flat = dev.reshape(len(top), -1)
        # not einsum: under errstate(over="raise") it returns inf silently
        spread = np.sqrt(np.vecdot(flat, flat) / (k_top - 1))
        clamped[chunk] = spread < 1e-8
        scores[chunk] = -lowest / np.maximum(spread, 1e-8)
    return scores, clamped


def _sample_rank(n, k):
    """The rank r = ceil(k / _SAMPLE) + _SAMPLE of `_top_k`'s threshold
    in a 1-in-_SAMPLE sample of n bank rows, or None if they are too few
    for the filter: fewer than _SAMPLE k rows, or a sample no wider than
    r. The shape alone decides."""
    rank = -(-k // _SAMPLE) + _SAMPLE
    return None if n < _SAMPLE * k or rank >= -(-n // _SAMPLE) else rank


def _thresholds(negated, cells, best, queries, k):
    """Each unit query's `_top_k` threshold: the `_sample_rank`-th
    smallest negated candidate of every _SAMPLE-th column of its best
    cell, negated[:, edges[c]:edges[c + 1]] for c = best[i] and edges =
    cells.starts[cells.cuts], or of all columns where the cell is too
    narrow for the filter. The queries of a cell share one product with
    a contiguous copy of the sample, in blocks of _CHUNK_ENTRIES
    entries."""
    edges = cells.starts[cells.cuts]
    t = np.empty(len(queries))
    for c in np.unique(best):
        who = np.flatnonzero(best == c)
        rank = _sample_rank(edges[c + 1] - edges[c], k)
        sample = negated[:, ::_SAMPLE] if rank is None else \
            negated[:, edges[c]:edges[c + 1]:_SAMPLE]
        rank = rank or _sample_rank(negated.shape[1], k)
        sample = np.ascontiguousarray(sample)
        block = max(1, _CHUNK_ENTRIES // sample.shape[1])
        for a in range(0, len(who), block):
            values = _product(queries[who[a:a + block]], sample)
            values.partition(rank - 1, axis=1)
            t[who[a:a + block]] = values[:, rank - 1]
    return t


def _spans(cells, reach):
    """The row span of each cell, where not empty, from its first tile to
    the last one that `reach` (tiles, queries) marks for some query."""
    stop = cells.cuts[:-1].copy()
    hit = np.flatnonzero(reach.any(axis=1))
    np.maximum.at(stop, np.searchsorted(cells.cuts, hit, "right") - 1,
                  hit + 1)
    return [(a, b) for a, b in zip(cells.starts[cells.cuts[:-1]],
                                   cells.starts[stop]) if a < b]


def _multiply(queries, negated, spans, buffer=None):
    """The queries times the column spans (a, b) of `negated`, side by
    side, written to the front of `buffer`, if given, which holds
    max(2, len(queries)) rows of them."""
    width = sum(b - a for a, b in spans)
    rows = max(2, len(queries))
    out = (np.empty(rows * width) if buffer is None else buffer)[
        :rows * width].reshape(rows, width)
    at = 0
    for a, b in spans:
        _product(queries, negated[:, a:b], out[:, at:at + b - a])
        at += b - a
    return out[:len(queries)]


def _norm_order(features):
    """The bank's row norms and the rows' stable order by norm, largest
    first, or None if a row norm is not finite. A norm whose squares
    overflow reads as infinite; it does not raise."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(features, axis=1)
    if not np.isfinite(norms).all():
        return None
    return norms, np.argsort(-norms, kind="stable")


def _query_norm(queries):
    """The largest computed norm of the unit queries, NaN rows skipped."""
    return np.fmax.reduce(np.linalg.norm(queries, axis=1), initial=0.0)


class _Cells(NamedTuple):
    """A bank cut by direction (`_cos_cells`): the rows of each cell, in
    norm order, cut into tiles, and what bounds each tile."""

    keys: np.ndarray       # the bank rows by cell, then by norm
    starts: np.ndarray     # each tile's first row, then n
    cuts: np.ndarray       # each cell's first tile, then the tile count
    centers: np.ndarray    # (cells, d): the unit cell directions c
    norm: np.ndarray       # each tile's largest row norm v_t
    # (tiles, 3 x cells): each tile's largest alpha_b, least alpha_b and
    # largest beta_b, in its cell's column of each third, zeros elsewhere
    coef: np.ndarray


def _directions(features, norms, first):
    """_CELLS unit directions of bank rows, by farthest-point traversal:
    row `first`, then each time the nonzero row, among every _SAMPLE-th,
    whose largest cosine to the rows picked is least, ties to the lowest
    row. The picks are normalized once more: a row of tiny entries has
    an inexact norm, its unit row not."""
    sample = np.flatnonzero(norms[::_SAMPLE]) * _SAMPLE
    rows = features[sample] / norms[sample, None]
    closest = np.full(len(rows), -np.inf)
    picks = [features[first] / norms[first]]
    while len(picks) < min(_CELLS, len(rows) + 1):
        np.maximum(closest, rows @ picks[-1], out=closest)
        picks.append(rows[np.argmin(closest)])
    return normalize_rows(picks)[0]


def _cos_cells(features):
    """The bank's direction cells, or None to scan the bank whole.

    A bank of at most two tiles, 2 _TILE rows, whose cells would not pay
    for their set-up, gets None, as does one with a non-finite row norm
    or only zero rows. Otherwise `_directions` picks the cells'
    directions c, `clustering.assign` puts each row in the cell of its
    nearest c (the argmax over the cells of b . c needs no division by a
    norm, which may be zero), and `keys` orders the rows by cell and then
    in `_norm_order`. Each cell's rows are cut into tiles of _TILE rows,
    which `cos` gathers and takes transposed, as a view, at the speed of
    a transposed copy, which would cost several times the gather. A
    row b of norm v_b and cell direction c has alpha_b = fl(b . c) and
        beta_b = v_b sqrt(max(1 - t^2, 0) + e),   t = alpha_b / v_b,
    (t = 0 if v_b = 0), e = 4(d + 4) u: `_cone_bounds` shows that beta_b
    bounds ||b - (b . c) c||.
    """
    n, d = features.shape
    prepared = _norm_order(features) if n > 2 * _TILE else None
    if prepared is None or not prepared[0].any():
        return None
    norms, order = prepared
    centers = _directions(features, norms, order[0])
    labels = clustering.assign(features, centers)
    keys = order[np.argsort(labels[order].astype(np.uint8), kind="stable")]
    labels, v = labels[keys], norms[keys]
    alpha = np.take_along_axis(features[keys] @ centers.T, labels[:, None],
                               1)[:, 0]
    t = np.divide(alpha, v, out=np.zeros(n), where=v > 0)
    beta = v * np.sqrt(np.maximum(1 - t * t, 0) + (d + 4) * 2.0 ** -51)
    sizes = np.bincount(labels, minlength=len(centers))
    ends = np.cumsum(sizes)
    starts = np.concatenate([np.arange(e - s, e, _TILE)
                             for s, e in zip(sizes, ends)])
    tiles, cells = np.arange(len(starts)), labels[starts]
    coef = np.zeros((len(starts), 3, len(centers)))
    coef[tiles, 0, cells] = np.maximum.reduceat(alpha, starts)
    coef[tiles, 1, cells] = np.minimum.reduceat(alpha, starts)
    coef[tiles, 2, cells] = np.maximum.reduceat(beta, starts)
    cuts = np.searchsorted(starts, ends - sizes)
    return _Cells(keys, np.append(starts, n),
                  np.append(cuts, len(starts)), centers, v[starts],
                  coef.reshape(len(starts), -1))


def _cone_bounds(cells, queries, v_q):
    """(tiles, queries): for each tile and unit query q, a bound that no
    computed candidate fl(b . q) of the tile's rows exceeds.

    With s = q . c for the tile's cell direction c, every row b has
        b . q = (b . c) s + (b - (b . c) c) . (q - s c)
              <= alpha s + ||b - (b . c) c|| sqrt(||q||^2 - s^2)
    for unit c, and alpha s <= max(alpha_lo s, alpha_hi s) =
    alpha_hi max(s, 0) + alpha_lo min(s, 0). Let u = 2**-53, e =
    4(d + 4) u and v_q the largest query norm. The bound is
        alpha_hi max(s, 0) + alpha_lo min(s, 0) + beta rho
            + 2 e v_t v_q + d 2**-535,
        rho = sqrt(max(v_q^2 - s^2, 0) + e v_q^2),
    with s, alpha and beta computed. Its first three terms, for every
    tile and query, are one product of the tiles' `coef` and the queries'
    max(s, 0), min(s, 0) and rho for every cell; the terms of other cells
    are exact zeros. Without underflow, a d-term dot product x . y
    computed in any order, with or without fused multiply-adds, is off by
    at most d u ||x|| ||y|| / (1 - d u). Its margins, where d u < 2**-10,
    to first order in u (the slack below covers the rest):
    - ||c|| is 1 within (d/2 + 2) u, relatively, as c is a row of
      `normalize_rows` whose entries do not underflow; ||q|| is at most
      v_q, and ||b|| at most v_b, within as much.
    - The computed alpha and s are off by at most d u ||b|| and d u ||q||
      (that bound), and dividing by ||c||^2 moves (b . c) s by
      (d + 4) u ||b|| ||q|| more: alpha s is off by at most
      (3d + 4) u ||b|| ||q||.
    - t is then off by at most (2d + 5) u from b . c / (||c|| ||b||), so
      1 - t^2 by (4d + 12) u and 1 - s^2 / v_q^2 by (4d + 9) u, with
      their roundings: e covers both, so beta_b and rho bound the two
      norms within (d/2 + 5) u and 3u, relatively.
    - fl(b . q) exceeds b . q by at most d u ||b|| ||q||, and the bound's
      two products and three sums, in any order, with or without fused
      multiply-adds, take off at most 8u v_t v_q.
    These add up to less than (4.5d + 20) u v_t v_q < 2 e v_t v_q.
    Underflow costs a square or product at most 2**-1074, so a row norm
    at most sqrt(d) 2**-537 and beta rho at most twice that; d 2**-535
    covers it. A NaN query, which scores NaN however far it is scanned,
    gets a NaN bound.
    """
    d = queries.shape[1]
    e = (d + 4) * 2.0 ** -51
    s = cells.centers @ queries.T
    vv = v_q * v_q
    rho = np.sqrt(np.maximum(vv - s * s, 0) + e * vv)
    bounds = cells.coef @ np.concatenate([np.maximum(s, 0), np.minimum(s, 0),
                                          rho])
    bounds += (cells.norm * (2 * e * v_q) + d * 2.0 ** -535)[:, None]
    return bounds


def _product(queries, rows, out=None):
    """queries @ rows, with a lone query (or bank row) doubled first, so
    that BLAS takes the path a batch takes; written into `out`, if given,
    which has max(2, len(queries)) rows. A lone bank row's product comes
    back doubled, and only its first column is written."""
    lone = queries.shape[0] == 1
    if lone:
        queries = np.repeat(queries, 2, axis=0)
    if rows.shape[1] > 1:
        product = np.matmul(queries, rows, out=out)
    else:
        product = np.matmul(queries, np.repeat(rows, 2, axis=1))
        if out is not None:
            out[...] = product[:, :1]
    return product[:1] if lone else product


def _cos_scores(bank, queries):
    """Best candidate of each unit query, exactly.

    A bank without cells (`_cos_cells`) is one tile. Otherwise, for a
    block of queries whose bound matrix, a column a query, fits in
    _CHUNK_ENTRIES, every tile's `_cone_bounds` come first. Each
    query is multiplied by the tile of its highest bound; then the other
    tiles, in order of their largest bound, each by the queries whose
    bound still exceeds their best. A tile a query skips holds no
    computed candidate above its best, so the maximum, and every bit of
    it, is that of the unpruned scan over the same tiles.
    """
    cells = bank.cells
    if cells is None:
        return _best(queries, bank.features.T)
    tiles = [bank.features[cells.keys[a:b]].T
             for a, b in zip(cells.starts[:-1], cells.starts[1:])]
    v_q = _query_norm(queries)
    block = max(1, _CHUNK_ENTRIES // len(tiles))
    scores = np.empty(len(queries))
    for start in range(0, len(queries), block):
        q = queries[start:start + block]
        bounds = _cone_bounds(cells, q, v_q)
        first = bounds.argmax(axis=0)
        best = np.empty(len(q))
        for i in np.unique(first):
            who = np.flatnonzero(first == i)
            best[who] = _best(q[who], tiles[i])
        bounds[first, np.arange(len(q))] = -np.inf
        top = bounds.max(axis=1)
        for i in np.argsort(-top, kind="stable"):
            if top[i] <= best.min():
                break
            who = np.flatnonzero(bounds[i] > best)
            if who.size:
                best[who] = np.maximum(best[who], _best(q[who], tiles[i]))
        scores[start:start + len(q)] = best
    return scores


def _best(queries, tile):
    """Each unit query's best candidate among the tile's columns, a block
    of _CHUNK_ENTRIES // width queries at a time."""
    step = max(1, _CHUNK_ENTRIES // tile.shape[1])
    return np.concatenate([_product(queries[a:a + step], tile).max(axis=1)
                           for a in range(0, len(queries), step)])


def _top_k(values, k, t, keys):
    """Each row's top-K set: the keys (keys[column]) of its k smallest
    values taken by (value, key), so a tie at the k-th place goes to the
    lowest key, in ascending order; the least value in it (NaN if one
    is); and which rows keep fewer than k values at or below their
    threshold t (a column of thresholds), whose set and least value are
    left unset for the caller to pick over the whole bank.

    The columns holding values <= t are laid out in column order and
    padded with +inf. A row that keeps k columns or more has its k-th
    smallest value at or below t, so every value left out of the layout
    lies above it, and the layout's k smallest are the row's, but for a
    tie at the k-th place, which `_by_key` breaks over the whole row. Any
    t gives the same set; one that keeps a few times k columns makes the
    layout small.
    """
    n = values.shape[1]
    flat = np.flatnonzero(values <= t)
    rows = flat // n
    counts = np.bincount(rows, minlength=len(values))
    short = counts < k
    if short.all():
        return (np.zeros((len(values), k), dtype=np.intp),
                np.zeros(len(values)), short)
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
    picks, lowest, tied = _select(kept, k)
    # "clip" keeps the places of short rows, left unset, in range
    top = np.take(flat - rows * n, starts[:, None] + picks, mode="clip")
    return _by_key(values, top, tied & ~short, keys), lowest, short


def _select(values, k):
    """k columns of each row's k smallest values, in no order, the least
    of those values, and which rows may hold the wrong ones of their
    tied columns: a row whose k-th value is NaN or ties a value left out.

    argpartition puts NaN last. Any other row's k-th value is a number
    below every value left out, so its k columns are the only ones whose
    values are at most that number, whatever rule breaks ties.
    """
    n = values.shape[1]
    # column k of the partition holds the (k+1)-th smallest value
    part = np.argpartition(values, min(k, n - 1), axis=1)
    picked = np.take_along_axis(values, part[:, :k], axis=1)
    kth = picked.max(axis=1)
    tied = np.isnan(kth)
    if k < n:
        after = np.take_along_axis(values, part[:, k:k + 1], axis=1)[:, 0]
        tied |= after == kth
    return part[:, :k], picked.min(axis=1), tied


def _by_key(values, top, tied, keys=None):
    """The sets `top`, columns of `values`, as keys in ascending order:
    keys[column], or the column itself without keys. The rows in `tied`
    are picked again over all of `values`, by (value, key)."""
    k = top.shape[1]
    top = top if keys is None else keys[top]
    if tied.any():
        ties = values[tied]
        key = np.arange(values.shape[1]) if keys is None else keys
        top[tied] = key[np.lexsort((np.broadcast_to(key, ties.shape), ties),
                                   axis=1)[:, :k]]
    top.sort(axis=1)
    return top


def _top_k_full(values, k, keys=None):
    """Each row's top-K set over every column, in linear time, and the
    least value in it (NaN if one is): the k columns of its smallest
    values, taken by (value, column), or given `keys` (column -> key) by
    (value, keys[column]), as ascending keys (`_select`, `_by_key`)."""
    top, lowest, tied = _select(values, k)
    return _by_key(values, top, tied, keys), lowest


def stacked_report(bank, features, id_rows, ood_rows, score_kind, k_top=10,
                   config_hash=""):
    """The report on `features`: the ID test set's `id_rows` rows, then
    each OOD set's, in the order of `ood_rows` (set name -> row count),
    scored by one `score_set` call.

    A zero-norm row raises NumericError naming its set and its index there.
    """
    ends = list(accumulate([id_rows, *ood_rows.values()]))
    spans = [slice(a, b) for a, b in zip([0, *ends], ends)]
    try:
        scores, clamped = score_set(bank, features, score_kind, k_top,
                                    clamped=True)
    except NumericError:
        zero = np.flatnonzero(np.linalg.norm(features, axis=1) == 0.0)
        if not zero.size:
            raise
        i = bisect_right(ends, zero[0])
        raise NumericError(
            f"zero-norm row {zero[0] - spans[i].start} of set "
            f"{['id_test', *ood_rows][i]!r} cannot be normalized") from None
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
