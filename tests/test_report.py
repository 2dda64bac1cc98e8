import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socnav.core import MetricParams
from socnav.errors import EmptyCorpus, InvariantError, MalformedDocument, SchemaError
from socnav.ingest import canonical_json_bytes, load_json
from socnav.metrics import compute_all
from socnav.report import (
    MAX_BINS,
    CorpusSummary,
    Distribution,
    compare,
    params_from_jsonable,
    params_to_jsonable,
    parse_report,
    parse_summary,
    summarize,
    write_output,
)
from socnav.scenarios import ClassifierParams, ScenarioCard, UsageGuide, parse_card, serialize_card

from conftest import fuzz_episode
from oracles import WelfordStats

PARAMS = MetricParams()


def corpus_reports(n=12, **kwargs):
    return [compute_all(fuzz_episode(seed, **kwargs), PARAMS) for seed in range(n)]


class TestReportIO:
    def test_round_trip(self):
        report = compute_all(fuzz_episode(1), PARAMS, include_stepwise=True)
        raw = write_output(report)
        again = parse_report(raw)
        assert again.episode_id == report.episode_id
        assert again.params == report.params
        for name, mv in report.taskwise.items():
            assert again.taskwise[name].value == mv.value
            assert again.taskwise[name].code == mv.code
        assert write_output(again) == raw

    @pytest.mark.parametrize("kwargs", [{}, {"n_humans": 0, "with_obstacles": False},
                                        {"with_goal": False}])
    def test_stepwise_round_trip_equals_report(self, kwargs):
        report = compute_all(fuzz_episode(1, **kwargs), PARAMS, include_stepwise=True)
        assert parse_report(write_output(report)) == report
        assert report.stepwise["speed"].unit == "m/s"

    def test_canonical_deterministic(self):
        report = compute_all(fuzz_episode(2), PARAMS)
        assert write_output(report) == write_output(report)

    def test_infinity_encoding(self):
        report = compute_all(fuzz_episode(3, n_humans=0, with_obstacles=False), PARAMS)
        assert report.taskwise["DH_min"].value == math.inf
        doc = json.loads(write_output(report))
        assert doc["metrics"]["DH_min"]["value"] == "Infinity"
        assert parse_report(write_output(report)).taskwise["DH_min"].value == math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_values_json_cannot_hold_refused_at_their_path(self, bad):
        """A NaN metric or a non-finite stepwise sample fails at its path, the
        metrics first; an infinite metric is written as a string."""
        report = compute_all(fuzz_episode(1), PARAMS, include_stepwise=True)
        speed = report.stepwise["speed"]
        values = list(speed.values)
        values[3] = bad
        report = replace(report, stepwise=dict(report.stepwise,
                                               speed=replace(speed, values=tuple(values))))
        with pytest.raises(InvariantError, match="^/stepwise/speed/v/3: must be finite"):
            write_output(report)
        pl = replace(report.taskwise["PL"], value=bad)
        report = replace(report, taskwise=dict(report.taskwise, PL=pl))
        if math.isnan(bad):
            with pytest.raises(InvariantError, match="^/metrics/PL/value: must not be NaN$"):
                write_output(report)
        else:
            write_output(replace(report, stepwise=None))

    def test_schema_fields(self):
        doc = json.loads(write_output(compute_all(fuzz_episode(4), PARAMS)))
        assert doc["format_version"] == "1.0"
        assert "dt" in doc["params"]
        for name, entry in doc["metrics"].items():
            assert set(entry) == {"value", "unit", "code", "params_used"}


# Values the writers emit; an int in a float field must read back as that int.
_positive = st.floats(min_value=0, exclude_min=True, allow_infinity=False) | st.integers(1, 10**9)
_number = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**9, 10**9)
_count = st.integers(0, 10**9)
_params = st.builds(
    MetricParams, **{f.name: _positive for f in fields(MetricParams) if f.type == "float"},
    collision_terminate_count=st.none() | st.integers(1, 10**9),
    cooperative_agent_ids=st.none() | st.frozensets(st.text(), max_size=3))
_criteria = st.builds(
    ClassifierParams, **{f.name: _positive for f in fields(ClassifierParams) if f.type == "float"},
    min_crowd_size=st.integers(1, 10**9))
_card = st.builds(ScenarioCard, name=st.text(min_size=1),
                  usage_guide=st.builds(UsageGuide, labeling_criteria=st.none() | _criteria))
_distribution = st.builds(
    Distribution, n=_count, n_excluded=_count,
    **{name: st.none() | _number for name in ("mean", "std", "min", "max", "median")},
    edges=st.lists(_number, max_size=4).map(tuple), counts=st.lists(_count, max_size=4).map(tuple))
_summary = st.builds(CorpusSummary, n_episodes=_count, params=_params,
                     distributions=st.dictionaries(st.text(max_size=6), _distribution, max_size=3),
                     success_rate=st.none() | _number, collision_rate=st.none() | _number)
# kind -> (write, parse)
_FORMATS = {
    "params": (lambda p: canonical_json_bytes(params_to_jsonable(p)),
               lambda b: params_from_jsonable(load_json(b))),
    "card": (serialize_card, parse_card),
    "summary": (write_output, parse_summary),
}


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.just("params"), _params) | st.tuples(st.just("card"), _card)
       | st.tuples(st.just("summary"), _summary))
@example(("params", MetricParams(collision_terminate_count=3,
                                 cooperative_agent_ids=frozenset({"a", "b"}))))
@example(("params", MetricParams(cooperative_agent_ids=frozenset())))
def test_documents_read_back_as_written(document):
    kind, value = document
    write, parse = _FORMATS[kind]
    raw = write(value)
    assert parse(raw) == value
    assert write(parse(raw)) == raw


class TestSummarize:
    def test_all_success_rate_one(self):
        from conftest import make_episode, straight_robot
        reports = []
        for n in range(8, 18):
            ep = make_episode([straight_robot(n=n, goal_xy=((n - 1) * 0.1, 0.0))],
                              episode_id=f"s{n}")
            reports.append(compute_all(ep, PARAMS))
        assert all(r.taskwise["S"].value for r in reports)
        summary = summarize(reports)
        assert summary.success_rate == 1.0

    def test_simple_moments(self):
        reports = corpus_reports(3)
        summary = summarize(reports)
        pl = summary.distributions["PL"]
        values = [r.taskwise["PL"].value for r in reports]
        assert pl.mean == pytest.approx(np.mean(values))
        assert pl.median == pytest.approx(np.median(values))

    def test_known_pl_values(self):
        # PL of {1, 2, 3}: mean 2.0, median 2.0
        import dataclasses
        base = corpus_reports(3)
        reports = []
        for r, value in zip(base, (1.0, 2.0, 3.0)):
            taskwise = dict(r.taskwise)
            taskwise["PL"] = dataclasses.replace(taskwise["PL"], value=value)
            reports.append(dataclasses.replace(r, taskwise=taskwise))
        pl = summarize(reports).distributions["PL"]
        assert pl.mean == 2.0
        assert pl.median == 2.0
        assert pl.min == 1.0 and pl.max == 3.0

    def test_matches_streaming_oracle(self):
        reports = corpus_reports(30)
        summary = summarize(reports)
        for name in ("PL", "V_avg", "SC", "A_max"):
            oracle = WelfordStats()
            for r in reports:
                v = r.taskwise[name].value
                if v is None or (isinstance(v, float) and not math.isfinite(v)):
                    continue
                oracle.add(float(v))
            d = summary.distributions[name]
            assert d.mean == pytest.approx(oracle.mean, abs=1e-9)
            assert d.std == pytest.approx(oracle.std, abs=1e-9)
            assert d.min == pytest.approx(oracle.min, abs=1e-9)
            assert d.max == pytest.approx(oracle.max, abs=1e-9)
            assert d.median == pytest.approx(oracle.median, abs=1e-9)

    def test_histogram_conserves_n(self):
        reports = corpus_reports(25)
        summary = summarize(reports, bins=7)
        for name, d in summary.distributions.items():
            if d.n:
                assert sum(d.counts) == d.n
                assert len(d.edges) == len(d.counts) + 1

    def test_excluded_values_counted(self):
        reports = corpus_reports(8, n_humans=0, with_obstacles=False)
        summary = summarize(reports)
        dh = summary.distributions["DH_min"]
        assert dh.n == 0
        assert dh.n_excluded == 8
        at = summary.distributions["AT"]
        assert at.n_excluded == 8  # no cooperative set given

    def test_permutation_invariance(self):
        reports = corpus_reports(10)
        fwd = summarize(reports)
        rev = summarize(list(reversed(reports)))
        assert write_output(fwd) == write_output(rev)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            summarize([])

    def test_bins_bound(self):
        reports = corpus_reports(3)
        d = summarize(reports, bins=MAX_BINS).distributions["PL"]
        assert len(d.counts) == MAX_BINS and sum(d.counts) == d.n
        for bins in (0, MAX_BINS + 1):
            with pytest.raises(SchemaError) as err:
                summarize(reports, bins=bins)
            assert err.value.path == "/bins"

    def test_metric_outside_the_suite_gets_its_taxonomy_code(self):
        import dataclasses
        from socnav.metrics import MetricValue, taxonomy_code
        reports = [dataclasses.replace(r, taskwise={**r.taskwise, "XYZ": MetricValue(
                       "XYZ", 1.0, "", taxonomy_code("XYZ"))}) for r in corpus_reports(2)]
        summary = json.loads(write_output(summarize(reports)))
        assert summary["metrics"]["XYZ"]["code"] == taxonomy_code("XYZ") == "NHT"
        doc = json.loads(write_output(reports[0]))
        del doc["metrics"]["XYZ"]["code"]
        assert parse_report(json.dumps(doc)).taskwise["XYZ"].code == taxonomy_code("XYZ")

    def test_summary_round_trip(self):
        summary = summarize(corpus_reports(6))
        again = parse_summary(write_output(summary))
        assert write_output(again) == write_output(summary)


class TestCompare:
    def test_identical_summaries_no_flags(self):
        summary = summarize(corpus_reports(10))
        comparison = compare({"a": summary, "b": summary})
        assert comparison.flags == ()
        assert set(comparison.policies) == {"a", "b"}

    def test_single_policy(self):
        comparison = compare({"only": summarize(corpus_reports(5))})
        assert comparison.policies == ("only",)
        assert comparison.flags == ()

    def test_flags_on_shifted_corpus(self):
        a = summarize(corpus_reports(10))
        b = summarize([compute_all(fuzz_episode(seed, n_steps=160), PARAMS)
                       for seed in range(40, 50)])
        comparison = compare({"short": a, "long": b})
        assert any(f.metric == "PL" for f in comparison.flags)
        doc = json.loads(write_output(comparison))
        assert doc["flags"] == [{"metric": f.metric, "policy": f.policy,
                                 "baseline": f.baseline, "delta": f.delta}
                                for f in comparison.flags]
        assert doc["metrics"] == comparison.means

    def test_all_metrics_in_matrix(self):
        from socnav.metrics import TASKWISE_KEYS
        comparison = compare({"a": summarize(corpus_reports(4))})
        assert set(TASKWISE_KEYS) <= set(comparison.means)

    def test_comparison_serializes(self):
        summary = summarize(corpus_reports(4))
        raw = write_output(compare({"a": summary, "b": summary}))
        doc = json.loads(raw)
        assert doc["policies"] == ["a", "b"]
        assert "note" in doc


@pytest.mark.parametrize("parse", [parse_report, parse_summary, parse_card])
def test_integer_past_conversion_limit_is_malformed(parse):
    with pytest.raises(MalformedDocument, match="4300"):
        parse(b'{"n": ' + b"1" * 5001 + b"}")
