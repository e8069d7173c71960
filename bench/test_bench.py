"""Tests for the benchmark's own pieces: spans, the brute-force scorer, names.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Recorder, Span, install, overhead_s, self_times, wrapper_costs  # noqa: E402

from clood import scoring  # noqa: E402


def test_self_time_on_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 7.0, 8.0, 10.0, 20.0, 21.0])
    rec = Recorder(clock=lambda: next(ticks))
    leaf = rec.wrap(lambda: None, "leaf")
    mid = rec.wrap(lambda: leaf(), "mid")

    def body():
        mid()
        leaf()
    top = rec.wrap(body, "top")
    top()
    top_2 = rec.wrap(lambda: None, "top")
    top_2()

    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (mid_span,) = by_name["mid"]
    first, second = by_name["top"]
    assert [s.parent for s in by_name["leaf"]] == [mid_span.sid, first.sid]
    assert mid_span.parent == first.sid
    assert {s.run for s in rec.spans if s is not second} == {first.sid}
    assert second.run == second.sid and second.parent is None
    # top: 10 - (mid 5 + leaf 1) + second call 1; mid: 5 - 1; leaf: 1 + 1
    assert self_times(rec.spans) == {"top": 5.0, "mid": 4.0, "leaf": 2.0}


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, "p", 0.0, 10.0, None, 0),
             Span(1, "c", 1.0, 4.0, 0, 0),
             Span(2, "c", 3.0, 6.0, 0, 0),
             Span(3, "c", 9.0, 12.0, 0, 0)]
    # children cover [1, 6] and [9, 10] of the parent's interval
    assert self_times(spans)["p"] == pytest.approx(4.0)


def test_span_closes_when_the_call_raises():
    rec = Recorder()

    def boom():
        raise ValueError("x")
    with pytest.raises(ValueError):
        rec.wrap(boom, "boom")()
    assert [s.name for s in rec.spans] == ["boom"]
    assert rec.wrap(lambda: 1, "after")() == 1
    assert rec.spans[-1].parent is None


def test_overhead_counts_spans_counters_and_probes():
    rec = Recorder()
    rec.wrap(lambda: 1, "a", probe=lambda a, k, r: r)()
    rec.counter(lambda: None, "n")()
    rec.counter(lambda: None, "n")()
    span_cost, count_cost = wrapper_costs(calls=1000, rounds=2)
    assert span_cost > 0 and count_cost >= 0
    assert rec.spans[0].payload == 1 and rec.probe_s > 0
    assert overhead_s(rec, (3.0, 5.0)) == pytest.approx(3.0 + 2 * 5.0 + rec.probe_s)


def test_guard_counts_each_operation_once():
    c = checks.Checks()
    assert c.guard("ok", lambda: 7) == 7
    assert c.guard("boom", lambda: 1 / 0) is None
    c.check(False, "bad output")
    c.merge({"attempted": 4, "failures": ["elsewhere"]})
    assert c.attempted == 7
    assert c.failures == ["boom: ZeroDivisionError: division by zero",
                          "bad output", "elsewhere"]


def test_install_skips_missing_targets_and_undoes():
    rec = Recorder()
    undo, missing = install([("clood.scoring:auroc", lambda fn: rec.wrap(fn, "a")),
                             ("clood.scoring:no_such_name", lambda fn: fn)])
    try:
        assert missing == ["clood.scoring:no_such_name"]
        scoring.auroc([1.0], [0.0])
        assert [s.name for s in rec.spans] == ["a"]
    finally:
        undo()
    scoring.auroc([1.0], [0.0])
    assert len(rec.spans) == 1


def test_per_layer_counts_kmeans_iterations_and_changed_refits():
    a, b = np.array([0, 0, 1, 1]), np.array([0, 1, 1, 0])
    same_as_a = layers.canonical_partition(np.array([1, 1, 0, 0]))
    spans = [Span(0, "train.train", 0.0, 100.0, None, 0, payload=10)]
    sid = 1
    for t, labels in enumerate((layers.canonical_partition(a), same_as_a,
                                layers.canonical_partition(b))):
        start = 10.0 * (t + 1)
        spans.append(Span(sid, "clustering.fit_state", start, start + 5, 0, 0,
                          payload=(labels, t, 4)))
        spans.append(Span(sid + 1, "clustering.kmeans_fit", start, start + 4, sid, 0))
        spans += [Span(sid + 2 + i, "clustering.assign", start + i, start + i + 1,
                       sid + 1, 0) for i in range(2)]
        sid += 4
    m = layers.per_layer(spans, tensors=50)
    assert m["clustering.fit_state.calls"] == 3
    assert m["clustering.kmeans_iters_per_fit"] == 2.0
    assert m["clustering.refit_changed_share"] == 0.5   # a -> a, a -> b
    assert m["clustering.phi_at_floor_share"] == 3 / 12
    assert m["autodiff.tensors_per_step"] == 5.0
    assert m["train.train.self_share"] == pytest.approx(85 / 100)
    assert m["data.augment.calls"] == 0 and m["data.augment.us_per_call"] == 0.0


def test_brute_force_scorer_matches_clood_on_a_tied_bank():
    # rows 2 and 3 tie on the query, and so do rows 4 and 5; the top-3 must
    # take row 2, and picking row 3 instead would change the spread
    rows = np.array([[5.0, 0, 0], [0, 5.0, 0], [3.0, 0, 4.0], [3.0, 4.0, 0],
                     [4.0, 3.0, 0], [4.0, 3.0, 0], [0, 0, 5.0]])
    z = np.array([1.0, 0, 0])
    bank = scoring.ReferenceBank(rows)
    for k in (2, 3, 4, 6):
        cos, var, _ = checks.brute_force_scores(rows, z, k)
        assert cos == pytest.approx(scoring.score_cos(bank, z), rel=1e-12)
        assert var == pytest.approx(scoring.score_var(bank, z, k), rel=1e-12)
    _, var_lowest, gap = checks.brute_force_scores(rows, z, 4)
    _, var_other, _ = checks.brute_force_scores(rows[[0, 1, 3, 2, 4, 5, 6]], z, 4)
    assert gap == 0.0 and var_lowest != pytest.approx(var_other)


def test_brute_force_scorer_matches_clood_on_a_random_bank():
    rng = np.random.default_rng(3)
    rows, queries = rng.standard_normal((200, 8)), rng.standard_normal((5, 8))
    bank = scoring.ReferenceBank(rows)
    for z in queries:
        cos, var, _ = checks.brute_force_scores(rows, z, 10)
        assert cos == pytest.approx(scoring.score_cos(bank, z), rel=1e-12)
        assert var == pytest.approx(scoring.score_var(bank, z, 10), rel=1e-12)


def test_pair_count_auroc_matches_clood_with_ties():
    id_scores, ood_scores = [3.0, 1.0, 2.0, 2.0], [2.0, 0.5, 3.0]
    want = (2.5 + 1.0 + 1.5 + 1.5) / 12     # wins per ID score, ties as 1/2
    assert checks.pair_count_auroc(id_scores, ood_scores) == pytest.approx(want)
    assert scoring.auroc(id_scores, ood_scores) == pytest.approx(want)


def test_a_unit_past_the_time_limit_is_a_timeout_not_a_failure(capsys):
    # the limit, 2.5 x 0.05 s, stops the first unit long before it can finish
    assert run.run_workload("train-sweep", 0, 0.05, 0) == 3
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith("# TIMED OUT") for line in out)
    assert not any(line.startswith("# FAILED") for line in out)
    assert not out[-1].startswith("{")


def test_sum_of_medians_sums_each_parts_median():
    # one slow call in each of the last two parts is left out
    assert run.sum_of_medians([(1.0, 3.0), (5.0, 2.0, 2.0), (4.0, 9.0, 6.0, 4.0)]) \
        == 2.0 + 2.0 + 5.0


def test_end_to_end_pools_units_part_by_part():
    def unit(wall_parts, trainings, evaluations):
        return {"setup_s": 1.0, "peak_rss_mb": 100.0, "aurocs": {"shifted": 0.7},
                "wall_parts": wall_parts, "trainings": trainings,
                "evaluations": evaluations}
    units = [unit([2.0, 1.0, 0.5], [[100, 2.0]], [["m", "var", 50, 1.0]]),
             unit([4.0, 0.5, 0.5], [[100, 4.0]], [["m", "var", 50, 0.5],
                                                  ["m", "cos", 50, 0.1]])]
    c = checks.Checks()
    m = run.end_to_end(units, [unit([], [], [])], c)
    assert not c.failures
    assert m["wall_s"] == 4.25 and m["train_steps_per_s"] == pytest.approx(100 / 3)
    assert m["score_var_queries_per_s"] == pytest.approx(50 / 0.75)
    assert m["score_cos_queries_per_s"] == pytest.approx(500.0)
    assert m["auroc_shifted"] == 0.7 and m["setup_s"] == 1.0
    run.end_to_end(units + [unit([1.0], [[100, 2.0]], [])], [], c)
    assert c.failures == ["units made different numbers of calls in the timed phase"]


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_use_the_allowed_charset_and_match_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["end_to_end"] + spec["per_layer"]
    for m in declared + spec["workloads"]:
        assert NAME.fullmatch(m["name"]), m["name"]
    for m in declared:
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    names = [m["name"] for m in declared + spec["workloads"]]
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
