import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from clood import scoring
from clood.autodiff import normalize_rows
from clood.errors import ConfigError, ContractError, DomainError


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
        with pytest.raises(DomainError):
            scoring.score_cos(_bank(np.eye(2)), [0.0, 0.0])

    def test_empty_bank_rejected(self):
        with pytest.raises(ContractError):
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
        # cos scans tiles of 8 bank rows (8, 8 and 9) in blocks of 9
        # queries; a var chunk holds one query (25 candidates and 6 top
        # rows of 4), so 11 queries make eleven chunks
        monkeypatch.setattr(scoring, "_CHUNK_ENTRIES", 3 * 25)
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
    @given(st.data())
    def test_cos_scan_matches_unpruned_tiles(self, data):
        # tiles of 2 to 6 rows; a bank of one row, of one tile or of many,
        # with norms over eight decades, repeated rows and maybe one
        # non-finite entry; queries near bank rows stop the scan early
        chunk = data.draw(st.integers(4, 48))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scoring, "_CHUNK_ENTRIES", chunk)
            width = scoring._tile_width()
            n = data.draw(st.one_of(st.just(1), st.just(width),
                                    st.integers(width + 1, 8 * width)))
            d = data.draw(st.integers(1, 6))
            p = data.draw(st.integers(1, n))
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            pool = (rng.standard_normal((p, d))
                    * 10.0 ** rng.uniform(-4, 4, (p, 1)))
            rows = pool[rng.integers(0, p, n)]
            bad = data.draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
            if bad is not None:
                rows[rng.integers(n), rng.integers(d)] = bad
            m = data.draw(st.integers(1, 9))
            noise = 10.0 ** rng.uniform(-6, 1)
            queries = (rows[rng.integers(0, n, m)] * rng.uniform(0.5, 2, (m, 1))
                       + noise * rng.standard_normal((m, d)))
            bank = _bank(rows)
            # a query drawn from a row holding inf or NaN normalizes to NaN
            with np.errstate(invalid="ignore"):
                got = scoring.score_set(bank, queries, "cos")
                alone = [scoring.score_cos(bank, z) for z in queries]
                want = _unpruned_cos(bank, queries)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got, alone, equal_nan=True)
        if bad is None:
            unit = normalize_rows(queries)[0]
            np.testing.assert_allclose(got, (unit @ rows.T).max(axis=1),
                                       rtol=1e-12)

    def test_long_parallel_row_stops_scan_after_first_tile(self, monkeypatch):
        # tiles of 4 rows: the 100-long row along the query beats every
        # other row, whose norms are below 1
        monkeypatch.setattr(scoring, "_CHUNK_ENTRIES", 16)
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((20, 3))
        rows /= 2 * np.linalg.norm(rows, axis=1)[:, None]
        rows[13] = [100.0, 0.0, 0.0]
        products, product = [], scoring._product
        monkeypatch.setattr(scoring, "_product", lambda q, r: (
            products.append(r.shape) or product(q, r)))
        got = scoring.score_set(_bank(rows), [[3.0, 0.0, 0.0]], "cos")
        assert got[0] == 100.0
        assert products == [(3, 4)]

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
        monkeypatch.setattr(scoring, "_product", lambda q, r: (
            chunks.append(len(q)) or product(q, r)))
        got = scoring.score_set(_bank(feats), queries, "var", 5)
        assert chunks == [3, 3, 3, 1]
        want = oracles.score_var_sorted(feats, queries, 5)
        assert got.tobytes() == want.tobytes()

    def test_rows_changed_in_place_score_as_a_fresh_bank(self):
        # 600 rows make two cos tiles, of 512 and 88 rows; nothing either
        # kind derives from the rows outlives its call
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((600, 4))
        queries = rng.standard_normal((7, 4))
        bank = scoring.ReferenceBank(rows)
        assert bank.features is rows
        for kind in ("cos", "var"):
            scoring.score_set(bank, queries, kind, 5)
        rows *= 2
        fresh = scoring.ReferenceBank(rows.copy())
        for kind in ("cos", "var"):
            assert scoring.score_set(bank, queries, kind, 5).tobytes() == \
                scoring.score_set(fresh, queries, kind, 5).tobytes()

    @pytest.mark.parametrize("k", [2, 4])
    def test_nan_bank_rows_give_nan_var_scores(self, k):
        # with k=4 the fourth candidate is a NaN row's
        rows = np.array([[1.0, 0.0], [np.nan, 0.0], [0.0, 1.0], [1.0, 1.0]])
        queries = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 2.0]])
        assert np.isnan(scoring.score_set(_bank(rows), queries, "var", k)).all()

    @pytest.mark.parametrize("kind", ["cos", "var"])
    def test_zero_norm_query_names_its_row(self, kind):
        queries = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError, match="row 2"):
            scoring.score_set(_bank(np.eye(2)), queries, kind, k_top=2)


def _unpruned_cos(bank, queries):
    """cos over every tile the scan uses: all queries at once (two or more
    rows) times each tile (two or more rows), best over the tiles."""
    unit = normalize_rows(queries)[0]
    both = np.vstack([unit, unit])
    prepared = scoring._cos_tiles(bank.features)
    if prepared is None:
        tiles = [bank.features.T]
    else:
        tiles = prepared[0]
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
        want = np.argsort(values, axis=1, kind="stable")[:, :k]
        assert np.array_equal(scoring._top_k(values, k), want)

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
        want = np.argsort(values, axis=1, kind="stable")[:, :k]
        assert np.array_equal(scoring._top_k(values, k), want)

    def test_edge_rows_of_the_filter(self, monkeypatch):
        # k = 100 of 800 columns samples every 8th column and thresholds at
        # the 21st smallest sampled value. Row 0 holds 0..99 in the sampled
        # columns and larger values elsewhere: 21 columns pass, and it
        # takes the full path. Row 1 holds 90 ones, 30 infinities in
        # sampled columns and NaN elsewhere: its threshold is +inf, and its
        # top-K ends with kept infinities that must rank before the
        # padding, since row 2, all zeros, keeps all 800 columns
        widths, full = [], scoring._top_k_full
        monkeypatch.setattr(scoring, "_top_k_full", lambda v, k: (
            widths.append(v.shape) or full(v, k)))
        values = np.random.default_rng(5).uniform(100, 200, (4, 800))
        values[0, ::8] = np.arange(100)
        values[1] = np.nan
        values[1, 1:8 * 90:8] = 1.0
        values[1, 0:8 * 30:8] = np.inf
        values[2] = 0.0
        got = scoring._top_k(values, 100)
        assert np.array_equal(got, np.argsort(values, axis=1,
                                              kind="stable")[:, :100])
        assert widths == [(4, 800), (1, 800)]

    @pytest.mark.parametrize("n,filtered", [(10_000, True), (300, False)])
    def test_wide_chunks_take_the_filter(self, monkeypatch, n, filtered):
        # var with k = 100: a chunk of 10 000 candidates a query is
        # filtered to a few hundred, and no query falls back to the full
        # row; one of 300 takes the full path
        widths, full = [], scoring._top_k_full
        monkeypatch.setattr(scoring, "_top_k_full", lambda v, k: (
            widths.append(v.shape) or full(v, k)))
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
        with pytest.raises(ContractError):
            scoring.auroc([], [1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            scoring.auroc([1.0, bad], [0.5])
        with pytest.raises(DomainError, match="finite"):
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
        with pytest.raises(DomainError, match="zero-norm row 1 of set 'b'"):
            _report(bank, rng.standard_normal((3, 3)), ood, kind, k_top=2)
        id_test = rng.standard_normal((3, 3))
        id_test[2] = 0.0
        with pytest.raises(DomainError,
                           match="zero-norm row 2 of set 'id_test'"):
            _report(bank, id_test, {"a": ood["a"]}, kind, k_top=2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            scoring.score_set(_bank(np.eye(2)), np.eye(2), "energy")
