import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from clood import scoring
from clood.autodiff import normalize_rows
from clood.errors import ConfigError, NumericError


def _bank(rows):
    return scoring.ReferenceBank(np.asarray(rows, dtype=np.float64))


def _report(bank, id_test, ood, kind, **kwargs):
    """`stacked_report` on the ID test rows, then each OOD set's in name
    order."""
    names = sorted(ood)
    return scoring.stacked_report(
        bank, np.concatenate([id_test] + [ood[n] for n in names]),
        len(id_test), {n: len(ood[n]) for n in names}, kind, **kwargs)


@st.composite
def _exact_query(draw, d):
    """A query whose unit vector has entries in {0, +-1/2, +-1}."""
    if d == 4 and draw(st.booleans()):
        row = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=4,
                            max_size=4))
    else:
        row = draw(st.lists(st.sampled_from([-0.0, 0.0]), min_size=d,
                            max_size=d))
        row[draw(st.integers(0, d - 1))] = draw(st.sampled_from([-1.0, 1.0]))
    scale = draw(st.sampled_from([0.5, 1.0, 4.0]))
    return [scale * v for v in row]


@st.composite
def _cos_scan_case(draw):
    """`test_cos_scan_matches_unpruned_tiles`' draws: chunk entries, cells
    and tile rows, the bank's rows n and width d, its pool of p distinct
    rows, the seed, the shares of zero and flipped rows, a non-finite
    entry or None, and the query count m."""
    case = dict(chunk=draw(st.integers(4, 48)), cells=draw(st.integers(1, 4)),
                tile=draw(st.integers(2, 6)))
    width = 2 * case["tile"]
    case["n"] = draw(st.one_of(st.just(1), st.just(width),
                               st.integers(width + 1, 8 * width)))
    case["d"] = draw(st.integers(1, 6))
    case["p"] = draw(st.integers(1, case["n"]))
    case["seed"] = draw(st.integers(0, 2**32 - 1))
    case["zero"] = draw(st.sampled_from([0, 0.2]))
    case["flip"] = draw(st.sampled_from([0, 0.5]))
    case["bad"] = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    case["m"] = draw(st.integers(1, 9))
    return case


class TestScoreCos:
    def test_query_equal_to_unit_bank_row(self):
        bank = _bank(np.eye(3))
        assert scoring.score_cos(bank, [0.0, 5.0, 0.0]) == pytest.approx(1.0)

    def test_norm_weighting_prefers_longer_row(self):
        # two rows with the same direction: the longer row wins
        bank = _bank([[1.0, 0.0], [3.0, 0.0]])
        assert scoring.score_cos(bank, [1.0, 0.0]) == pytest.approx(3.0)

    def test_orthogonal_query_scores_zero(self):
        bank = _bank([[1.0, 0.0]])
        assert scoring.score_cos(bank, [0.0, 2.0]) == pytest.approx(0.0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((30, 5))
        bank = _bank(feats)
        for z in rng.standard_normal((20, 5)):
            assert scoring.score_cos(bank, z) == pytest.approx(
                oracles.score_cos_oracle(feats.tolist(), z.tolist()),
                abs=1e-10)

    def test_zero_query_rejected(self):
        with pytest.raises(NumericError):
            scoring.score_cos(_bank(np.eye(2)), [0.0, 0.0])

    def test_empty_bank_rejected(self):
        with pytest.raises(ConfigError):
            _bank(np.empty((0, 3)))


class TestScoreVar:
    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((25, 4))
        bank = _bank(feats)
        for z in rng.standard_normal((15, 4)):
            got = scoring.score_var(bank, z, k_top=6)
            want = oracles.score_var_oracle(feats.tolist(), z.tolist(), 6)
            assert got == pytest.approx(want, abs=1e-8)

    def test_identical_top_rows_clamp_denominator(self):
        # all candidate rows identical: spread is exactly zero, so the
        # denominator is clamped and the score becomes cos / 1e-8
        bank = _bank(np.tile([[2.0, 0.0]], (5, 1)))
        got = scoring.score_var(bank, [1.0, 0.0], k_top=3)
        assert got == pytest.approx(2.0 / 1e-8)

    def test_clamped_spreads_are_counted(self, tmp_path):
        # five equal rows along x, two along +-y and three within 1e-10 of
        # [-2, 0]: a query along x takes three equal rows (spread 0), one
        # along -x three rows of spread about 1e-10, both clamped; one
        # along y takes [0, 3] and two equal rows, a spread above 1e-8
        bank = _bank(np.vstack([np.tile([[2.0, 0.0]], (5, 1)),
                                [[0.0, 3.0], [0.0, -3.0]],
                                [[-2.0, 0.0], [-2.0, 1e-10], [-2.0, -1e-10]]]))
        queries = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.1], [-1.0, 0.0]])
        _, clamped = scoring.score_set(bank, queries, "var", 3, clamped=True)
        assert clamped.tolist() == [True, False, True, True]
        _, clamped = scoring.score_set(bank, queries, "cos", clamped=True)
        assert not clamped.any()
        ood = {"near": queries[[0, 2, 3]], "far": queries[1:2]}
        var = _report(bank, queries, ood, "var", k_top=3)
        assert (var.id_clamped, var.ood_clamped) == (3, {"far": 0, "near": 3})
        cos = _report(bank, queries, ood, "cos")
        assert (cos.id_clamped, cos.ood_clamped) == (0, {"far": 0, "near": 0})
        scoring.write_report(var, tmp_path / "s.csv", tmp_path / "a.csv")
        rows = [line.split(",") for line in
                (tmp_path / "a.csv").read_text().splitlines()]
        assert [[r[0], *r[-2:]] for r in rows] == [
            ["set", "id_clamped", "ood_clamped"], ["far", "3", "0"],
            ["near", "3", "3"]]

    def test_tight_neighborhood_scores_higher_than_loose(self):
        rng = np.random.default_rng(2)
        tight = _bank([1.0, 0.0] + 0.01 * rng.standard_normal((20, 2)))
        loose = _bank([1.0, 0.0] + 0.5 * rng.standard_normal((20, 2)))
        z = [1.0, 0.0]
        assert scoring.score_var(tight, z, 10) > scoring.score_var(loose, z, 10)

    def test_k_bounds_enforced(self):
        bank = _bank(np.eye(3))
        with pytest.raises(ConfigError):
            scoring.score_var(bank, [1.0, 0, 0], k_top=1)
        with pytest.raises(ConfigError):
            scoring.score_var(bank, [1.0, 0, 0], k_top=4)


class TestScoreSet:
    def test_chunks_match_oracles_and_one_row_calls(self, monkeypatch):
        # cos cuts the 25 bank rows into cells of tiles of up to 8 rows,
        # multiplied by blocks of up to 9 queries; a var chunk holds one
        # query (25 candidates and 6 top rows of 4), so 11 queries make
        # eleven chunks
        monkeypatch.setattr(scoring, "_CHUNK_ENTRIES", 3 * 25)
        monkeypatch.setattr(scoring, "_TILE", 8)
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((25, 4))
        queries = rng.standard_normal((11, 4))
        bank = _bank(feats)
        cos = scoring.score_set(bank, queries, "cos")
        var = scoring.score_set(bank, queries, "var", k_top=6)
        for i, z in enumerate(queries):
            assert cos[i] == pytest.approx(
                oracles.score_cos_oracle(feats.tolist(), z.tolist()), abs=1e-10)
            assert var[i] == pytest.approx(
                oracles.score_var_oracle(feats.tolist(), z.tolist(), 6), abs=1e-10)
            assert cos[i] == scoring.score_cos(bank, z)
            assert var[i] == scoring.score_var(bank, z, 6)

    @settings(deadline=None, max_examples=300)
    @given(_cos_scan_case())
    # one row along d = 5 whose best cosine with a query cancels to about
    # -5.8e-9 (terms near 1e-4): its two products differ by 2.7e-20, a
    # relative 4.7e-12
    @example(dict(chunk=4, cells=1, tile=2, n=1, d=5, p=1, seed=3870015643,
                  zero=0, flip=0, bad=None, m=8))
    def test_cos_scan_matches_unpruned_tiles(self, case):
        # tiles of 2 to 6 rows in 1 to 4 cells, products of a few queries;
        # a bank of one row, of two tiles, scanned whole, or of more, with
        # norms over eight decades, zero rows, antipodal rows, repeated
        # rows and maybe one non-finite entry; queries near bank rows stop
        # the scan early
        n, d, p, m, bad = (case[k] for k in ("n", "d", "p", "m", "bad"))
        rng = np.random.default_rng(case["seed"])
        pool = (rng.standard_normal((p, d))
                * 10.0 ** rng.uniform(-4, 4, (p, 1)))
        pool[rng.random(p) < case["zero"]] = 0.0
        rows = pool[rng.integers(0, p, n)]
        flip = rng.random(n) < case["flip"]
        rows[flip] *= -1
        if bad is not None:
            rows[rng.integers(n), rng.integers(d)] = bad
        noise = 10.0 ** rng.uniform(-6, 1)
        queries = (rows[rng.integers(0, n, m)] * rng.uniform(0.5, 2, (m, 1))
                   + noise * rng.standard_normal((m, d)))
        bank = _bank(rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scoring, "_CHUNK_ENTRIES", case["chunk"])
            mp.setattr(scoring, "_CELLS", case["cells"])
            mp.setattr(scoring, "_TILE", case["tile"])
            # a query drawn from a row holding inf or NaN normalizes to NaN
            with np.errstate(invalid="ignore"):
                got = scoring.score_set(bank, queries, "cos")
                alone = [scoring.score_cos(bank, z) for z in queries]
                want = _unpruned_cos(bank, queries)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got, alone, equal_nan=True)
        if bad is None:
            # two d-term products of a unit query differ by at most
            # 4 d 2**-53 times the row norm, whatever their shapes
            unit = normalize_rows(queries)[0]
            atol = 4 * d * 2.0 ** -53 * np.linalg.norm(rows, axis=1).max()
            np.testing.assert_allclose(got, (unit @ rows.T).max(axis=1),
                                       rtol=1e-12, atol=atol)

    def test_query_along_one_direction_skips_the_other(self, monkeypatch):
        # 600 rows near [1, 0, 0, 0], of norms 1 to 2, and 600 longer ones
        # near [0, 1, 0, 0], of norms 3 to 6, in alternate order: a query
        # near [1, 0, 0, 0] would scan every longer row by norm alone, but
        # the cells keep the two directions apart, and its bound for a
        # cell of the other direction is about 0.06, under its best
        rng = np.random.default_rng(15)
        rows = np.zeros((1200, 4))
        rows[::2, 0] = rng.uniform(1, 2, 600)
        rows[1::2, 1] = rng.uniform(3, 6, 600)
        rows[:, 2:] = 0.01 * rng.uniform(-1, 1, (1200, 2))
        queries = np.array([1.0, 0, 0, 0]) + 0.01 * rng.standard_normal((5, 4))
        tiles, product = [], scoring._product
        monkeypatch.setattr(scoring, "_product", lambda q, r, *buffer: (
            tiles.append(r) or product(q, r, *buffer)))
        got = scoring.score_set(_bank(rows), queries, "cos")
        assert tiles
        assert all((np.abs(r[0]) > np.abs(r[1])).all() for r in tiles)
        unit = normalize_rows(queries)[0]
        np.testing.assert_allclose(got, (unit @ rows.T).max(axis=1),
                                   rtol=1e-12)

    @pytest.mark.parametrize("zero", [slice(None, None, 8), slice(None)],
                             ids=["sampled-rows", "all-rows"])
    def test_zero_rows_neither_divide_nor_direct_a_cell(self, zero):
        # 600 rows, more than two tiles: zero every row the directions are
        # sampled from, or every row
        rng = np.random.default_rng(17)
        rows = rng.standard_normal((600, 4))
        rows[zero] = 0.0
        queries = rng.standard_normal((7, 4))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = scoring.score_set(_bank(rows), queries, "cos")
        unit = normalize_rows(queries)[0]
        np.testing.assert_allclose(got, (unit @ rows.T).max(axis=1),
                                   rtol=1e-12)

    def test_long_parallel_row_stops_scan_after_first_tile(self, monkeypatch):
        # tiles of 4 rows: the 100-long row along the query is the first
        # cell direction and beats every other row, whose norms are
        # below 1, so only the first tile of its cell is multiplied
        monkeypatch.setattr(scoring, "_TILE", 4)
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((20, 3))
        rows /= 2 * np.linalg.norm(rows, axis=1)[:, None]
        rows[13] = [100.0, 0.0, 0.0]
        tiles, product = [], scoring._product
        monkeypatch.setattr(scoring, "_product", lambda q, r: (
            tiles.append(r.T) or product(q, r)))
        got = scoring.score_set(_bank(rows), [[3.0, 0.0, 0.0]], "cos")
        assert got[0] == 100.0
        assert len(tiles) == 1 and (tiles[0][0] == rows[13]).all()

    def test_tie_at_top_k_boundary_takes_lowest_index(self, monkeypatch):
        # one query per var chunk
        monkeypatch.setattr(scoring, "_CHUNK_ENTRIES", 7)
        # on the query [1, 0, 0] rows 2 and 3 tie for the fourth place
        rows = np.array([[5.0, 0, 0], [0, 5.0, 0], [3.0, 0, 4.0], [3.0, 4.0, 0],
                         [4.0, 3.0, 0], [4.0, 3.0, 0], [0, 0, 5.0]])
        queries = np.array([[0.3, 1.0, 0.2], [1.0, 0, 0], [0.5, 0.1, 1.0]])
        got = scoring.score_set(_bank(rows), queries, "var", k_top=4)[1]
        lowest = oracles.score_var_oracle(rows.tolist(), [1.0, 0, 0], 4)
        swapped = oracles.score_var_oracle(rows[[0, 1, 3, 2, 4, 5, 6]].tolist(),
                                           [1.0, 0, 0], 4)
        assert got == pytest.approx(lowest, rel=1e-12)
        assert got != pytest.approx(swapped)

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_var_matches_stable_sort_reference(self, data):
        # every candidate score is exact: bank entries are multiples of 1/2
        # and unit queries have entries in {0, +-1/2, +-1}; a few distinct
        # rows repeated many times make ties at the K-th place common
        d = data.draw(st.integers(1, 4))
        cell = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
        pool = data.draw(st.lists(st.lists(cell, min_size=d, max_size=d),
                                  min_size=2, max_size=6))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                   min_size=2, max_size=40))
        feats = np.array([pool[i] for i in picks])
        queries = np.array(data.draw(st.lists(_exact_query(d), min_size=1,
                                              max_size=8)))
        k = data.draw(st.integers(2, len(feats)))
        # from one query per chunk up to a few
        per_query = len(feats) + k * d
        chunk = data.draw(st.integers(1, 4 * per_query))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scoring, "_CHUNK_ENTRIES", chunk)
            got = scoring.score_set(_bank(feats), queries, "var", k)
        assert np.array_equal(got, oracles.score_var_sorted(feats, queries, k))

    def test_var_chunks_with_a_lone_tail_match_stable_sort(self, monkeypatch):
        # 10 candidates and 5 top rows of 4 per query: the top-K rows cap a
        # chunk at 60 // 20 = 3 queries, below 240 // 30 = 8, so 10 queries
        # make chunks of 3, 3, 3 and 1; bank entries are multiples of 1/2
        # and unit queries have entries in {0, +-1/2, +-1}, so ties are exact
        monkeypatch.setattr(scoring, "_CHUNK_ENTRIES", 120)
        rng = np.random.default_rng(8)
        feats = rng.integers(-4, 5, (10, 4)) / 2.0
        queries = np.zeros((10, 4))
        queries[np.arange(10), rng.integers(0, 4, 10)] = \
            rng.choice([-2.0, 1.0], 10)
        chunks, product = [], scoring._product
        monkeypatch.setattr(scoring, "_product", lambda q, r, *buffer: (
            chunks.append(len(q)) or product(q, r, *buffer)))
        got = scoring.score_set(_bank(feats), queries, "var", 5)
        assert chunks == [3, 3, 3, 1]
        want = oracles.score_var_sorted(feats, queries, 5)
        assert got.tobytes() == want.tobytes()

    def test_bank_is_a_read_only_copy_of_its_rows(self):
        # 600 rows, more than two tiles, make cos cells; the bank keeps its
        # own rows, so the cells it built stay true to them
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((600, 4))
        queries = rng.standard_normal((7, 4))
        bank = scoring.ReferenceBank(rows)
        assert bank.features is not rows
        with pytest.raises(ValueError, match="read-only"):
            bank.features[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            bank.features = rows
        before = [scoring.score_set(bank, queries, kind, 5).tobytes()
                  for kind in ("cos", "var")]
        rows *= 2
        assert [scoring.score_set(bank, queries, kind, 5).tobytes()
                for kind in ("cos", "var")] == before
        doubled, fresh = scoring.ReferenceBank(rows), _bank(rows.copy())
        for kind in ("cos", "var"):
            scoring.score_set(doubled, queries[:1], kind, 5)
            assert scoring.score_set(doubled, queries, kind, 5).tobytes() == \
                scoring.score_set(fresh, queries, kind, 5).tobytes()

    def test_bank_copy_keeps_the_rows_memory_layout(self):
        rows = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        features = scoring.ReferenceBank(rows).features
        assert features.flags.f_contiguous and not features.flags.c_contiguous
        assert features.tobytes("A") == rows.tobytes("A")

    @settings(deadline=None, max_examples=20)
    @given(st.lists(st.tuples(st.sampled_from(["set", "one"]),
                              st.sampled_from(["cos", "var"])),
                    min_size=1, max_size=6))
    def test_a_bank_builds_its_cells_once(self, calls):
        # 600 rows at K = 5: cells, and wide enough for var's filter
        rng = np.random.default_rng(11)
        bank = _bank(rng.standard_normal((600, 4)))
        queries = rng.standard_normal((3, 4))
        built, real = [], scoring._cos_cells
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scoring, "_cos_cells", lambda features: (
                built.append(len(features)) or real(features)))
            for how, kind in calls:
                if how == "set":
                    scoring.score_set(bank, queries, kind, 5)
                elif kind == "cos":
                    scoring.score_cos(bank, queries[0])
                else:
                    scoring.score_var(bank, queries[0], 5)
        assert built == [600]

    @pytest.mark.parametrize("k", [2, 4])
    def test_nan_bank_rows_give_nan_var_scores(self, k):
        # with k=4 the fourth candidate is a NaN row's
        rows = np.array([[1.0, 0.0], [np.nan, 0.0], [0.0, 1.0], [1.0, 1.0]])
        queries = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 2.0]])
        assert np.isnan(scoring.score_set(_bank(rows), queries, "var", k)).all()

    @pytest.mark.parametrize("kind", ["cos", "var"])
    def test_zero_norm_query_names_its_row(self, kind):
        queries = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericError, match="row 2"):
            scoring.score_set(_bank(np.eye(2)), queries, kind, k_top=2)


def _sign_queries(rng, m, d):
    """m queries of +-1 on 4 or on all 16 coordinates (4 when d = 4): their
    unit vectors hold +-1/2 or +-1/4 and zeros, exactly."""
    queries = np.zeros((m, d))
    for q in queries:
        on = rng.permutation(d)[:rng.choice([4, d])]
        q[on] = rng.choice([-1.0, 1.0], len(on))
    return queries


def _assert_same_bits(got, want):
    """Equal bit for bit, but for the sign of a zero score: `var` takes the
    best candidate as minus the least of a product with the negated
    bank, and x - x is +0 both ways."""
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


def _recorded_widths(monkeypatch, n):
    """The widths of the `var` chunk products against the negated copy of
    an n-row bank (its rows are n entries apart), as they are made."""
    widths, product = [], scoring._product
    def record(q, r, *buffer):
        if r.strides[0] == 8 * n:
            widths.append(r.shape[1])
        return product(q, r, *buffer)
    monkeypatch.setattr(scoring, "_product", record)
    return widths


def _headed_bank(filler, far=0):
    """A bank of one cell of 200 rows along [1, 0, 0, 0] and `far` rows
    along [-1, -1, 0, 0], in a fixed shuffled order. In norm order, tile
    j of 8 rows starts, for j < 15, with [16 - j/2, 0, 0, 0]; its other
    rows, and every row of the later tiles, are [f, y, 0, 0], f =
    filler(position) or the row's norm if less, of norms 1/16 apart
    between. Along an axis every candidate is an entry, exactly."""
    rows = np.zeros((200, 4))
    for p in range(200):
        j, k = divmod(p, 8)
        norm = 16 - j / 2 - k / 16
        f = norm if k == 0 and j < 15 else min(filler(p), norm)
        rows[p, :2] = f, np.sqrt(norm * norm - f * f)
    away = -np.linspace(1, 2, far)[:, None] * [[1.0, 1.0, 0.0, 0.0]]
    feats = np.vstack([rows, away])
    return feats[np.random.default_rng(0).permutation(len(feats))]


def _clustered_bank(data, most):
    """513 to `most` rows of width 4 or 16 in 2 to 6 clusters, each row a
    center of entries in -1..1, scaled by 1/8 to 1/2, plus -1/8, 0 or 1/8
    on each entry; and the generator that drew them."""
    d = data.draw(st.sampled_from([4, 16]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    centers = rng.integers(-8, 9, (data.draw(st.integers(2, 6)), d))
    centers[~centers.any(axis=1), 0] = 8
    n = data.draw(st.integers(513, most))
    return (centers[rng.integers(0, len(centers), n)]
            * rng.integers(1, 5, (n, 1))
            + rng.integers(-1, 2, (n, d))) / 8.0, rng


def _cell_labels(feats):
    """The cell of each bank row, by `_cos_cells`."""
    cells = scoring._cos_cells(feats)
    labels = np.empty(len(feats), dtype=int)
    labels[cells.keys] = np.repeat(np.arange(len(cells.cuts) - 1),
                                   np.diff(cells.starts[cells.cuts]))
    return labels


class TestVarPrefix:
    """`var` on banks wide enough for the threshold filter, where a chunk
    scans, cell by cell, the norm-ordered tiles its thresholds reach, and
    a query keeping fewer than K candidates picks over the whole bank.
    Bank entries are multiples of 1/8 and queries +-1 on 4 or 16
    coordinates (or candidates are otherwise exact), so every candidate
    is exact under any BLAS path, and ties are exact too."""

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_equals_stable_sort_with_ties_across_the_norm_order(self, data):
        # a few distinct rows of different norms, repeated: their
        # candidates tie often, within a norm and across norms, inside
        # the top-K and at its K-th place
        d = data.draw(st.sampled_from([4, 16]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pool = rng.integers(-8, 9, (data.draw(st.integers(2, 12)), d)) / 8.0
        pool[np.linalg.norm(pool, axis=1) == 0, 0] = 1.0
        n = data.draw(st.integers(800, 3000))
        feats = pool[rng.integers(0, len(pool), n)]
        k = data.draw(st.integers(2, 100))
        queries = _sign_queries(rng, data.draw(st.integers(1, 12)), d)
        # from one query per chunk to all of them in one
        chunk = data.draw(st.integers(1, 4 * (n + k * d)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scoring, "_CHUNK_ENTRIES", chunk)
            got = scoring.score_set(_bank(feats), queries, "var", k)
        _assert_same_bits(got, oracles.score_var_sorted(feats, queries, k))

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_clustered_banks_equal_stable_sort(self, data):
        # K up to n / 8, so the cells are scanned; chunks of a few
        # queries, in (best cell, threshold) order, take queries of two
        # cells where groups meet
        feats, rng = _clustered_bank(data, 3000)
        n, d = feats.shape
        k = data.draw(st.integers(2, min(100, n // 8)))
        queries = _sign_queries(rng, data.draw(st.integers(2, 24)), d)
        chunk = data.draw(st.integers(1, 3 * (n + k * d)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scoring, "_CHUNK_ENTRIES", chunk)
            got = scoring.score_set(_bank(feats), queries, "var", k)
        _assert_same_bits(got, oracles.score_var_sorted(feats, queries, k))

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_any_threshold_gives_the_whole_bank_set(self, data):
        # the threshold only prunes: clustered banks in tiles of 8 or 64
        # rows, each query thresholded at a random one of its K smallest
        # negated candidates, or at -inf, so that chunks compute from
        # nothing to every tile and most queries are short
        feats, rng = _clustered_bank(data, 2000)
        n, d = feats.shape
        k = data.draw(st.integers(2, min(100, n // 8)))
        queries = _sign_queries(rng, data.draw(st.integers(1, 12)), d)
        low = data.draw(st.sampled_from([0.0, 0.3]))

        def thresholds(negated, edges, best, unit, k):
            values = np.sort(unit @ negated, axis=1)
            t = values[np.arange(len(unit)),
                       rng.integers(0, k, len(unit))]
            t[rng.random(len(unit)) < low] = -np.inf
            return t

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scoring, "_thresholds", thresholds)
            mp.setattr(scoring, "_TILE", data.draw(st.sampled_from([8, 64])))
            mp.setattr(scoring, "_CHUNK_ENTRIES",
                       data.draw(st.integers(1, 3 * (n + k * d))))
            got = scoring.score_set(_bank(feats), queries, "var", k)
        _assert_same_bits(got, oracles.score_var_sorted(feats, queries, k))

    def test_prefix_is_narrower_than_the_bank(self, monkeypatch):
        # 2 000 rows of norms 1/4 to 4 along two directions, the queries,
        # make two cells: a query's threshold lies among the longest rows
        # along it, so its chunk stops after the first tile of each cell
        n = 2000
        rng = np.random.default_rng(11)
        directions = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0]])
        feats = (rng.integers(1, 17, (n, 1)) / 8.0
                 * directions[rng.integers(0, 2, n)])
        queries = directions[rng.integers(0, 2, 40)]
        widths = _recorded_widths(monkeypatch, n)
        got = scoring.score_set(_bank(feats), queries, "var", 50)
        assert widths and max(widths) < n // 2
        _assert_same_bits(got, oracles.score_var_sorted(feats, queries, 50))

    def test_top_k_may_end_at_the_last_row_of_the_prefix(self):
        # rows 1, 9, ..., 793 are [c, 0, 0, 0] with c of 1 1/128 to
        # 1 100/128; the others [1, 7/4, 0, 0], longer, every sampled row
        # among them, so the bank is one cell. Along [1, 0, 0, 0] the
        # sample, all long rows, sets the threshold at -1, and every row
        # stays under it; the top-K are the short rows, last in norm
        # order, so the scan may leave out no tile of the cell
        feats = np.tile([1.0, 1.75, 0.0, 0.0], (800, 1))
        feats[1::8] = 0.0
        feats[1::8, 0] = 1.0 + np.arange(1, 101) / 128.0
        queries = np.array([[1.0, 0, 0, 0], [4.0, 0, 0, 0]])
        for k in (2, 50, 100):
            got = scoring.score_set(_bank(feats), queries, "var", k)
            _assert_same_bits(got,
                              oracles.score_var_sorted(feats, queries, k))

    def test_ties_across_the_norm_order_take_the_lowest_rows(self):
        # rows 0-799 alternate [1, 0, 0, 0] and the longer [1, 1/2, 0, 0],
        # which come first in norm order and fall in another cell: along
        # [1, 0, 0, 0] all 800 tie across the two cells, along
        # [1, 1, -1, 1] the 400 long rows tie above the others. Rows
        # 800-1599, [0, 0, c, x] with c of 3 and x of 4 values, tie along
        # [0, 0, 1, 0] across norms.
        feats = np.zeros((1600, 4))
        feats[:800, 0] = 1.0
        feats[1:800:2, 1] = 0.5
        i = np.arange(800)
        feats[800:, 2] = (1 + i % 3) / 8.0
        feats[800:, 3] = i % 4 / 8.0
        assert _cell_labels(feats)[0] != _cell_labels(feats)[1]
        queries = np.array([[1.0, 0, 0, 0], [1.0, 1.0, -1.0, 1.0],
                            [1.0, -1.0, 1.0, 1.0], [0, 0, 1.0, 0]])
        for k in (2, 3, 40, 99, 100):
            got = scoring.score_set(_bank(feats), queries, "var", k)
            _assert_same_bits(got,
                              oracles.score_var_sorted(feats, queries, k))

    def test_queries_keeping_too_few_candidates_scan_the_whole_bank(
            self, monkeypatch):
        # tiles of 8 rows, two cells (`_headed_bank`). Along [1, 0, 0, 0]
        # the threshold, the 11th largest of every 8th row, is -11, so the
        # chunk multiplies tiles 0-10 of the first cell and keeps their
        # 11 heads, fewer than K = 20, so the query is multiplied again by
        # the whole bank, 240 rows. Every other row is [0, y, 0, 0]: its
        # set takes the 15 heads and the 5 lowest zero rows.
        monkeypatch.setattr(scoring, "_TILE", 8)
        monkeypatch.setattr(scoring, "_CELLS", 2)
        feats = _headed_bank(lambda p: 0.0, far=40)
        queries = np.array([[1.0, 0, 0, 0]])
        widths = _recorded_widths(monkeypatch, len(feats))
        got = scoring.score_set(_bank(feats), queries, "var", 20)
        assert widths == [88, 240]
        _assert_same_bits(got, oracles.score_var_sorted(feats, queries, 20))

    def test_short_query_takes_far_rows_from_the_whole_bank(
            self, monkeypatch):
        # as above, but 9 of the rows of tiles 0-8 are [39/4, y, 0, 0]:
        # the query is short and picks over the whole bank. Its set takes
        # the 13 heads of 16 to 10, two of them in tiles 11 and 12, which
        # the chunk did not multiply, and 7 of the 9 rows tied at 39/4,
        # the lowest in the bank; without those two heads it would differ.
        monkeypatch.setattr(scoring, "_TILE", 8)
        monkeypatch.setattr(scoring, "_CELLS", 2)
        tied = set(range(3, 75, 8))
        feats = _headed_bank(lambda p: 9.75 if p in tied else 0.0, far=40)
        queries = np.array([[1.0, 0, 0, 0]])
        widths = _recorded_widths(monkeypatch, len(feats))
        got = scoring.score_set(_bank(feats), queries, "var", 20)
        assert widths == [88, 240]
        _assert_same_bits(got, oracles.score_var_sorted(feats, queries, 20))
        heads = np.flatnonzero((feats[:, 1] == 0) & (feats[:, 0] <= 10.5)
                               & (feats[:, 0] >= 10))
        without = oracles.score_var_sorted(np.delete(feats, heads, axis=0),
                                           queries, 20)
        assert len(heads) == 2 and got[0] != without[0]

    def test_thresholds_reaching_no_tile_pick_over_the_whole_bank(
            self, monkeypatch):
        # at a threshold of -inf no cone bound reaches, so every chunk
        # multiplies no tile, and each query of it is short: one product
        # with the whole bank per chunk, and the whole bank's sets
        rng = np.random.default_rng(19)
        directions = rng.integers(-8, 9, (4, 16))
        feats = (directions[rng.integers(0, 4, 1500)]
                 * rng.integers(1, 5, (1500, 1))
                 + rng.integers(-1, 2, (1500, 16))) / 8.0
        queries = _sign_queries(rng, 9, 16)
        monkeypatch.setattr(scoring, "_thresholds", lambda negated, edges,
                            best, unit, k: np.full(len(unit), -np.inf))
        monkeypatch.setattr(scoring, "_CHUNK_ENTRIES", 3 * (1500 + 40 * 16))
        assert scoring._cos_cells(feats) is not None
        widths = _recorded_widths(monkeypatch, len(feats))
        got = scoring.score_set(_bank(feats), queries, "var", 40)
        assert widths == [1500] * 2
        _assert_same_bits(got, oracles.score_var_sorted(feats, queries, 40))

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_short_queries_equal_stable_sort(self, data):
        # `_headed_bank`s whose other rows take a few first entries, some
        # above the threshold, some tied below it: queries along
        # [1, 0, 0, 0] are short or not, and their K-th value reaches
        # more or fewer of the tiles after the chunk's; queries along the
        # other axes tie across the whole bank
        values = data.draw(st.lists(st.sampled_from(
            [0.0, 3.5, 9.75, 10.25, 12.0, 15.75]), min_size=1, max_size=4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        firsts = rng.choice(values, 200)
        feats = _headed_bank(lambda p: firsts[p],
                             far=data.draw(st.sampled_from([0, 40])))
        axes = [[1.0, 0, 0, 0], [2.0, 0, 0, 0], [-1.0, 0, 0, 0],
                [0, 1.0, 0, 0], [0, 0, 1.0, 0]]
        queries = np.array(data.draw(st.lists(st.sampled_from(axes),
                                              min_size=1, max_size=6)))
        k = data.draw(st.integers(12, 40))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scoring, "_TILE", 8)
            mp.setattr(scoring, "_CELLS", 2)
            mp.setattr(scoring, "_CHUNK_ENTRIES",
                       data.draw(st.integers(1, 3 * (len(feats) + 4 * k))))
            got = scoring.score_set(_bank(feats), queries, "var", k)
        _assert_same_bits(got, oracles.score_var_sorted(feats, queries, k))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_scans_the_whole_bank(self, monkeypatch, bad):
        # a non-finite row norm bounds nothing: no cells, so every chunk
        # product takes the whole bank, in bank order, and no threshold
        # sample is taken
        n = 1000
        rng = np.random.default_rng(12)
        feats = rng.integers(-8, 9, (n, 4)) / 8.0
        feats[np.linalg.norm(feats, axis=1) == 0, 0] = 1.0
        feats[321, 2] = bad
        queries = _sign_queries(rng, 6, 4)
        widths, product = [], scoring._product
        monkeypatch.setattr(scoring, "_product", lambda q, r, *buffer: (
            widths.append(r.shape[1]) or product(q, r, *buffer)))
        with np.errstate(invalid="ignore"):
            got = scoring.score_set(_bank(feats), queries, "var", 30)
            want = oracles.score_var_sorted(feats, queries, 30)
        assert set(widths) == {n}
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [300, 512])
    def test_bank_of_two_tiles_scans_the_whole_bank(self, monkeypatch, n):
        # at most two tiles have no cells: wide enough for the filter at
        # K = 30, but not pruned, so every chunk product takes the whole
        # bank and no threshold sample is taken
        rng = np.random.default_rng(18)
        feats = rng.integers(-8, 9, (n, 4)) / 8.0
        feats[np.linalg.norm(feats, axis=1) == 0, 0] = 1.0
        queries = _sign_queries(rng, 6, 4)
        assert scoring._sample_rank(n, 30) is not None
        assert scoring._cos_cells(feats) is None
        widths, product = [], scoring._product
        monkeypatch.setattr(scoring, "_product", lambda q, r, *buffer: (
            widths.append(r.shape[1]) or product(q, r, *buffer)))
        got = scoring.score_set(_bank(feats), queries, "var", 30)
        assert set(widths) == {n}
        _assert_same_bits(got, oracles.score_var_sorted(feats, queries, 30))


class TestBounds:
    """The cone bounds that let `cos` and `var` skip rows hold for
    candidates that round above their exact value."""

    @pytest.mark.parametrize("d", [4, 16])
    def test_cone_bounds_hold_along_a_cell_direction(self, d):
        # 1 500 rows along +-3 directions, norms over four decades, and
        # queries along +-c for each cell direction c and +-each row
        # direction, some moved by 1e-12: dozens of computed candidates
        # round above alpha s + beta rho without its margins
        rng = np.random.default_rng(14)
        directions = normalize_rows(rng.standard_normal((3, d)))[0]
        rows = (directions[rng.integers(0, 3, 1500)]
                * rng.choice([-1.0, 1.0], (1500, 1))
                * 10.0 ** rng.uniform(-2, 2, (1500, 1)))
        cells = scoring._cos_cells(rows)
        queries = np.repeat(np.concatenate([cells.centers, directions]), 20,
                            axis=0)
        queries[::2] *= -1
        queries[::3] += 1e-12 * rng.standard_normal((len(queries[::3]), d))
        unit = normalize_rows(queries)[0]
        bounds = scoring._cone_bounds(cells, unit, scoring._query_norm(unit))
        for a, b, bound in zip(cells.starts[:-1], cells.starts[1:], bounds):
            got = scoring._product(unit, rows[cells.keys[a:b]].T).max(axis=1)
            assert (got <= bound).all()

    @staticmethod
    def _assert_bounded(rows, queries):
        # every tile's computed candidates lie within its cone bounds, and
        # `cos` equals the unpruned scan over the tiles
        cells = scoring._cos_cells(rows)
        unit = normalize_rows(queries)[0]
        bounds = scoring._cone_bounds(cells, unit, scoring._query_norm(unit))
        for a, b, bound in zip(cells.starts[:-1], cells.starts[1:], bounds):
            got = scoring._product(unit, rows[cells.keys[a:b]].T).max(axis=1)
            assert (got <= bound).all()
        bank = _bank(rows)
        np.testing.assert_array_equal(scoring.score_set(bank, queries, "cos"),
                                      _unpruned_cos(bank, queries))

    def test_rows_whose_squares_underflow(self):
        # 1 200 rows with x0 < 0 and 300 rows of entries near 1e-170 with
        # x0 > 0, whose squared norms underflow to 0: no cell direction
        # comes from them, and their beta is 0, so along e1 only the
        # additive d 2**-535 bounds their candidates; without it `cos`
        # stops at a tile of them and misses a better one
        rng = np.random.default_rng(3)
        rows = np.vstack([rng.standard_normal((1200, 4)),
                          rng.uniform(0.5, 4, (300, 4)) * 1e-170])
        rows[:1200, 0] = -np.abs(rows[:1200, 0])
        self._assert_bounded(rows, np.array([[1.0, 0, 0, 0]]))

    def test_query_a_billionth_off_a_cell_direction(self):
        # cell e1 holds 256 rows e1, one of them sampled, the direction,
        # and 256 unsampled rows [1 - 2**-40, 1/100, 0, 0]; the other
        # rows are -2 e1. A query 1e-9 off e1 toward e2 has s = ||q|| =
        # 1 computed, so only the e inside rho bounds the second tile's
        # part off e1, which lifts its candidates 9e-12 above the first
        # tile's 1
        rows = np.zeros((1024, 4))
        rows[:, 0] = -2.0
        unsampled = np.flatnonzero(np.arange(1024) % scoring._SAMPLE)
        rows[[8, *unsampled[:255]]] = [1.0, 0, 0, 0]
        rows[unsampled[255:511]] = [1 - 2.0**-40, 0.01, 0, 0]
        self._assert_bounded(rows, np.array([[1.0, 1e-9, 0, 0]]))


class TestHugeRows:
    """Bank rows whose squares overflow but whose candidates do not."""

    @staticmethod
    def _bank_and_queries(n):
        rng = np.random.default_rng(16)
        rows = rng.standard_normal((n, 8))
        rows[1] = 1e200
        queries = rng.standard_normal((6, 8))
        queries[:3] = -np.abs(queries[:3])
        queries[3:] = np.abs(queries[3:])
        return rows, queries

    @pytest.mark.parametrize("n", [300, 600])
    def test_cos_scores_them_at_any_bank_size(self, n):
        rows, queries = self._bank_and_queries(n)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = scoring.score_set(_bank(rows), queries, "cos")
        unit = normalize_rows(queries)[0]
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, (unit @ rows.T).max(axis=1),
                                   rtol=1e-12)

    @classmethod
    def _var_raises_only_on_a_spread_that_overflows(cls, n, k):
        # the first three queries point away from the huge row, so it is
        # never in their top-K set; the others take it first
        rows, queries = cls._bank_and_queries(n)
        bank = _bank(rows)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = scoring.score_set(bank, queries[:3], "var", k)
            with pytest.raises(FloatingPointError, match="overflow"):
                scoring.score_set(bank, queries, "var", k)
        want = oracles.score_var_sorted(np.delete(rows, 1, axis=0),
                                        queries[:3], k)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    @pytest.mark.parametrize("n", [300, 600])
    def test_var_raises_only_on_a_spread_that_overflows(self, n):
        # 8K rows or more: the thresholded path
        assert scoring._sample_rank(n, 10) is not None
        self._var_raises_only_on_a_spread_that_overflows(n, 10)

    @pytest.mark.parametrize("n,k", [(60, 10), (300, 100)])
    def test_var_raises_on_the_whole_bank_path(self, n, k):
        # fewer than 8K rows: each query's set is picked over every row
        assert scoring._sample_rank(n, k) is None
        self._var_raises_only_on_a_spread_that_overflows(n, k)


def _top_k(values, k):
    """`scoring._top_k` as `var` runs it on one cell of as many rows as
    `values` has columns, in bank order, each column its own key: too
    narrow for the filter, `_top_k_full`; else thresholded at the
    `_sample_rank`-th smallest value of every _SAMPLE-th column, with
    rows that keep fewer than k columns picking their set by
    `_top_k_full` over all of them. The sets, and the least value of
    each."""
    rank = scoring._sample_rank(values.shape[1], k)
    if rank is None:
        return scoring._top_k_full(values, k)
    t = np.partition(values[:, ::scoring._SAMPLE], rank - 1,
                     axis=1)[:, rank - 1:rank]
    top, lowest, short = scoring._top_k(values, k, t,
                                        np.arange(values.shape[1]))
    if short.any():
        top[short], lowest[short] = scoring._top_k_full(values[short], k)
    return top, lowest


def _assert_stable_sets(values, k, got, rows=slice(None)):
    """`got`, the sets and least values of the rows `rows` of `values`,
    are each row's first k columns by a stable sort, in ascending order,
    and the least of their values (NaN if one is)."""
    want = np.sort(np.argsort(values, axis=1, kind="stable")[:, :k], axis=1)
    top, lowest = got
    assert np.array_equal(top[rows], want[rows])
    np.testing.assert_array_equal(
        lowest[rows], np.take_along_axis(values, want, 1)[rows].min(axis=1))


def _unpruned_cos(bank, queries):
    """cos over every tile the scan uses: all queries at once (two or more
    rows) times each tile (two or more rows), best over the tiles."""
    unit = normalize_rows(queries)[0]
    both = np.vstack([unit, unit])
    cells = scoring._cos_cells(bank.features)
    if cells is None:
        tiles = [bank.features.T]
    else:
        tiles = [bank.features[cells.keys[a:b]].T
                 for a, b in zip(cells.starts[:-1], cells.starts[1:])]
        # the tiles hold every bank row once
        counts = [np.unique(r, axis=0, return_counts=True)
                  for r in (np.hstack(tiles).T, bank.features)]
        assert all(np.array_equal(a, b) for a, b in zip(*counts))
    best = [(both @ (np.hstack([t, t]) if t.shape[1] == 1 else t)).max(axis=1)
            for t in tiles]
    return np.max(best, axis=0)[:len(unit)]


class TestTopK:
    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_equals_stable_argsort(self, data):
        # a few distinct values, among them signed zeros, infinities and
        # NaN: ties and NaN at the K-th place are common
        n = data.draw(st.integers(1, 40))
        pool = data.draw(st.lists(
            st.one_of(st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan]),
                      st.floats()), min_size=1, max_size=4))
        values = data.draw(arrays(np.float64, (data.draw(st.integers(1, 6)), n),
                                  elements=st.sampled_from(pool)))
        k = data.draw(st.integers(1, n))
        _assert_stable_sets(values, k, _top_k(values, k))

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_wide_rows_equal_stable_argsort(self, data):
        # rows wide enough for the filter (n >= 8k, and the 1-in-8 sample
        # wider than ceil(k/8) + 8), of a few values among signed zeros,
        # infinities and NaN, or of many: ties at the K-th place, at the
        # threshold and in the padding are common
        n = data.draw(st.integers(80, 2000))
        k = data.draw(st.integers(1, min(n // 8, 8 * (-(-n // 8) - 9))))
        pool = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan]),
                      st.floats(-4, 4)), min_size=1, max_size=4)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rows = data.draw(st.integers(1, 6))
        values = rng.choice(pool, (rows, n))
        spread = rng.random(rows) < 0.5
        values[spread] = rng.standard_normal((spread.sum(), n)).round(1)
        _assert_stable_sets(values, k, _top_k(values, k))

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_keys_order_ties_by_key(self, data):
        # columns stand for bank rows in another order: a row that keeps
        # k values at or below its threshold takes the keys of its k
        # smallest by (value, key), whatever the threshold, so a tie at
        # the k-th place goes to the lower key; the others are short
        n = data.draw(st.integers(2, 300))
        k = data.draw(st.integers(1, n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rows = data.draw(st.integers(1, 6))
        values = rng.integers(0, data.draw(st.integers(1, 20)),
                              (rows, n)) / 2.0
        values[rng.random((rows, n)) < 0.05] = np.nan
        keys = rng.permutation(n)
        t = rng.integers(0, 12, (rows, 1)) / 2.0
        top, lowest, short = scoring._top_k(values, k, t, keys)
        assert np.array_equal(short, (values <= t).sum(axis=1) < k)
        # a stable sort of the columns laid out in key order, whose
        # places are the keys
        _assert_stable_sets(values[:, np.argsort(keys)], k, (top, lowest),
                            ~short)

    def test_edge_rows_of_the_filter(self, monkeypatch):
        # k = 100 of 800 columns samples every 8th column and thresholds at
        # the 21st smallest sampled value. Row 0 holds 0..99 in the sampled
        # columns and larger values elsewhere: 21 columns pass, and it
        # takes the full path. Row 1 holds 90 ones, 30 infinities in
        # sampled columns and NaN elsewhere: its threshold is +inf, and its
        # set ends with kept infinities that must be picked before the
        # padding, since row 2, all zeros, keeps all 800 columns
        widths, select = [], scoring._select
        monkeypatch.setattr(scoring, "_select", lambda v, k: (
            widths.append(v.shape) or select(v, k)))
        values = np.random.default_rng(5).uniform(100, 200, (4, 800))
        values[0, ::8] = np.arange(100)
        values[1] = np.nan
        values[1, 1:8 * 90:8] = 1.0
        values[1, 0:8 * 30:8] = np.inf
        values[2] = 0.0
        _assert_stable_sets(values, 100, _top_k(values, 100))
        assert widths == [(4, 800), (1, 800)]

    @pytest.mark.parametrize("n,filtered", [(10_000, True), (300, False)])
    def test_wide_chunks_take_the_filter(self, monkeypatch, n, filtered):
        # var with k = 100: a chunk of 10 000 candidates a query is
        # filtered to a few hundred, and no query picks again over more
        # columns; one of 300 takes the full path
        widths, select = [], scoring._select
        monkeypatch.setattr(scoring, "_select", lambda v, k: (
            widths.append(v.shape) or select(v, k)))
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((n, 4))
        queries = rng.standard_normal((5, 4))
        got = scoring.score_set(_bank(feats), queries, "var", 100)
        assert len(widths) == 1 and widths[0][0] == 5
        assert (widths[0][1] < 300) if filtered else (widths[0][1] == n)
        np.testing.assert_allclose(
            got, oracles.score_var_sorted(feats, queries, 100), rtol=1e-12)


class TestAuroc:
    def test_perfect_separation(self):
        assert scoring.auroc([3.0, 4.0], [1.0, 2.0]) == 1.0

    def test_perfect_inversion(self):
        assert scoring.auroc([1.0, 2.0], [3.0, 4.0]) == 0.0

    def test_all_ties_is_half(self):
        assert scoring.auroc([1.0, 1.0, 1.0], [1.0, 1.0]) == 0.5

    def test_hand_mixed_case(self):
        # pairs: (2>1)=1, (2<3)=0, (4>1)=1, (4>3)=1 -> 3/4
        assert scoring.auroc([2.0, 4.0], [1.0, 3.0]) == pytest.approx(0.75)

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ids = rng.integers(0, 6, size=13).astype(float)
            oods = rng.integers(0, 6, size=9).astype(float)
            assert scoring.auroc(ids, oods) == \
                oracles.auroc_oracle(ids.tolist(), oods.tolist())

    # both sides count half-integers exactly, so they must agree exactly;
    # -0.0 ties 0.0
    _tied = st.one_of(st.integers(-3, 3), st.sampled_from([-0.0, 0.0]))

    @given(st.lists(_tied, min_size=1, max_size=30),
           st.lists(_tied, min_size=1, max_size=30))
    def test_tied_integers_match_quadratic_oracle(self, ids, oods):
        assert scoring.auroc(ids, oods) == oracles.auroc_oracle(ids, oods)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            scoring.auroc([], [1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NumericError, match="finite"):
            scoring.auroc([1.0, bad], [0.5])
        with pytest.raises(NumericError, match="finite"):
            scoring.auroc([1.0], [0.5, bad])


class TestReport:
    def test_stacked_report_aurocs_per_set(self):
        rng = np.random.default_rng(4)
        bank = _bank(rng.standard_normal((20, 3)))
        id_test = rng.standard_normal((10, 3))
        ood = {"shifted": rng.standard_normal((8, 3)),
               "scaled": rng.standard_normal((8, 3))}
        rep = _report(bank, id_test, ood, "cos")
        assert set(rep.aurocs) == {"shifted", "scaled"}
        assert all(0.0 <= v <= 1.0 for v in rep.aurocs.values())
        assert rep.id_scores.shape == (10,)

    def test_write_report_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(5)
        bank = _bank(rng.standard_normal((15, 3)))
        rep = _report(bank, rng.standard_normal((6, 3)),
                      {"interp": rng.standard_normal((6, 3))}, "var",
                      k_top=5, config_hash="abc")
        paths = [(tmp_path / f"s{i}.csv", tmp_path / f"a{i}.csv")
                 for i in (1, 2)]
        for sp, ap in paths:
            scoring.write_report(rep, sp, ap)
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    @pytest.mark.parametrize("kind", ["cos", "var"])
    def test_zero_norm_row_names_its_set(self, kind):
        rng = np.random.default_rng(9)
        bank = _bank(rng.standard_normal((6, 3)))
        ood = {"a": rng.standard_normal((2, 3)),
               "b": rng.standard_normal((4, 3))}
        ood["b"][1] = 0.0
        with pytest.raises(NumericError, match="zero-norm row 1 of set 'b'"):
            _report(bank, rng.standard_normal((3, 3)), ood, kind, k_top=2)
        id_test = rng.standard_normal((3, 3))
        id_test[2] = 0.0
        with pytest.raises(NumericError,
                           match="zero-norm row 2 of set 'id_test'"):
            _report(bank, id_test, {"a": ood["a"]}, kind, k_top=2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            scoring.score_set(_bank(np.eye(2)), np.eye(2), "energy")

    @pytest.mark.parametrize("kind", scoring.SCORE_KINDS)
    def test_k_below_one_rejected_for_every_kind(self, kind):
        with pytest.raises(ConfigError, match="^k_top must be positive, got 0$"):
            scoring.check_score_args(kind, 0, 10)
