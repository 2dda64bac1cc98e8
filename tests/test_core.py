import dataclasses
import math
import struct
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import socnav.core
from socnav.core import (
    _COLUMNS,
    AgentKind,
    Episode,
    MetricParams,
    ObstacleMap,
    agent_rows,
    common_timeline,
    event_runs,
    median,
    check_episode,
    median_sample_interval,
    windows,
)
from socnav.errors import InvariantError
from socnav.geometry import wrap_angle
from socnav import ingest
from socnav.ingest import parse_episode, validate
from socnav.metrics import compute_all
from socnav.report import write_output
from socnav.scenarios import classify, serialize_labels
from socnav.simulator import SCENARIO_NAMES, generate_scenario, run

from conftest import crowd_document, fuzz_episode, make_agent, make_episode, straight_robot
from oracles import (
    Point,
    State,
    active_segments_oracle,
    derive_velocities,
    event_runs_oracle,
    interpolate_state,
    sampled_agent_oracle,
    smoothed_heading_oracle,
)


class TestDeriveVelocities:
    """The reference ``derive_velocities`` in ``oracles``."""

    def test_constant_speed_line(self):
        agent = make_agent("a", [(0, 0), (1, 0), (2, 0)], dt=1.0)
        out = derive_velocities(agent)
        for s in out.states:
            assert (s["vx"], s["vy"]) == (1.0, 0.0)

    def test_stationary(self):
        agent = make_agent("a", [(2, 3)] * 3, dt=1.0)
        out = derive_velocities(agent)
        for s in out.states:
            assert (s["vx"], s["vy"]) == (0.0, 0.0)

    def test_quadratic_central_difference_exact(self):
        # x(t) = t^2 has exact central differences: vx(0.5) == 2*0.5 == 1.0
        ts = np.arange(0.0, 1.0 + 1e-12, 0.1)
        agent = make_agent("a", [(t * t, 0.0) for t in ts], times=ts)
        out = derive_velocities(agent)
        i = int(np.argmin(np.abs(ts - 0.5)))
        assert out.states[i]["vx"] == pytest.approx(1.0, abs=1e-12)
        # interior points match the analytic derivative 2t
        for j in range(1, len(ts) - 1):
            assert out.states[j]["vx"] == pytest.approx(2 * ts[j], abs=1e-9)

    def test_single_state_rejected(self):
        agent = make_agent("a", [(0, 0)])
        with pytest.raises(ValueError):
            derive_velocities(agent)

    def test_idempotent(self):
        agent = make_agent("a", [(0, 0), (0.5, 0.2), (1.5, 0.1), (2.0, -0.3)])
        once = derive_velocities(agent)
        twice = derive_velocities(once)
        assert once == twice

    def test_existing_velocities_untouched(self):
        agent = make_agent("a", [(0, 0), (1, 0), (2, 0)], dt=1.0,
                           velocities=[(9, 9), (9, 9), (9, 9)])
        out = derive_velocities(agent)
        assert all((s["vx"], s["vy"]) == (9.0, 9.0) for s in out.states)


class TestInterpolateState:
    """The reference ``interpolate_state`` in ``oracles``, which metric oracles read."""

    def test_midpoint(self):
        agent = make_agent("a", [(0, 0), (2, 0)], dt=2.0)
        s = interpolate_state(agent, 1.0)
        assert (s.position.x, s.position.y) == (1.0, 0.0)

    def test_exact_sample_identity(self):
        agent = make_agent("a", [(0, 0), (1, 1), (2, 0)], dt=0.5)
        for stored in agent.states:
            assert interpolate_state(agent, stored["t"]) == State(
                stored["t"], Point(stored["x"], stored["y"]), stored["theta"], None)

    def test_heading_shorter_arc_through_pi(self):
        agent = make_agent("a", [(0, 0), (1, 0)], dt=1.0, headings=[3.0, -3.0])
        s = interpolate_state(agent, 0.5)
        # unit-vector averaging oracle
        expected = math.atan2((math.sin(3.0) + math.sin(-3.0)) / 2,
                              (math.cos(3.0) + math.cos(-3.0)) / 2)
        assert s.heading == pytest.approx(expected, abs=1e-12)
        assert abs(s.heading) == pytest.approx(math.pi, abs=1e-9)

    def test_out_of_range(self):
        agent = make_agent("a", [(0, 0), (1, 0)], dt=1.0)
        with pytest.raises(ValueError):
            interpolate_state(agent, 2.5)

    def test_velocity_interpolated(self):
        agent = make_agent("a", [(0, 0), (2, 0)], dt=2.0, velocities=[(0, 0), (2, 2)])
        s = interpolate_state(agent, 1.0)
        assert s.velocity == Point(1.0, 1.0)


class TestCommonTimeline:
    def test_exact_division(self):
        ep = make_episode([straight_robot(n=11, dt=0.1)])  # span [0, 1]
        tl = common_timeline(ep, 0.5)
        assert list(tl) == [0.0, 0.5, 1.0]

    def test_terminal_appended(self):
        ep = make_episode([straight_robot(n=10, dt=0.1)])  # span [0, 0.9]
        tl = common_timeline(ep, 0.5)
        assert list(tl) == [0.0, 0.5, 0.9]

    def test_count_101(self):
        ep = make_episode([straight_robot(n=101, dt=0.1)])  # span [0, 10]
        tl = common_timeline(ep, 0.1)
        assert len(tl) == 101
        assert tl[-1] == pytest.approx(10.0)

    def test_strictly_increasing(self):
        ep = make_episode([straight_robot(n=7, dt=0.13)])
        tl = common_timeline(ep, 0.05)
        assert np.all(np.diff(tl) > 0)

    def test_step_bound(self):
        ep = make_episode([straight_robot(n=11, dt=0.1)])  # span [0, 1]
        assert socnav.core.MAX_TIMELINE_STEPS == 10**6
        assert len(common_timeline(ep, 1.25e-6)) == 800_001
        for dt, steps in ((0.9e-6, "1.111e+06"), (1e-300, "1.000e+300"), (5e-324, "inf")):
            with pytest.raises(InvariantError) as e:
                common_timeline(ep, dt)
            assert str(e.value) == (f"/dt: {dt} asks for {steps} timeline steps over the "
                                    "robot's 1.0 s; at most 1000000 are allowed")


def _crossing_pi() -> Episode:
    """Agents of different lengths and rates, standing still for a while, whose pose
    headings cross +-pi: the view unwraps them as one zero-padded block."""
    robot = make_agent("robot", [(0.1 * min(i, 4), 0.0) for i in range(11)],
                       kind=AgentKind.ROBOT, headings=wrap_angle(np.linspace(2.8, 3.8, 11)))
    still = make_agent("h1", [(1.0, 1.0)] * 5, dt=0.25,
                       headings=wrap_angle(np.linspace(3.0, 3.6, 5)))
    longer = make_agent("h2", [(0.0, -1.0)] * 17, dt=0.07, t0=0.2,
                        headings=wrap_angle(np.linspace(-2.9, -3.9, 17)))
    return make_episode([still, robot, longer], episode_id="crossing_pi")


class TestColumns:
    """``Episode.columns``: every agent's columns end to end, read-only and built once."""

    @pytest.mark.parametrize("make", [lambda: parse_episode(crowd_document(1)),
                                      lambda: run(generate_scenario("parallel_traffic", 3)),
                                      _crossing_pi, lambda: make_episode([])],
                             ids=["decoded", "simulated", "make_agent", "no_agents"])
    def test_the_agents_end_to_end(self, make):
        ep = make()
        block = ep.columns
        assert ep.columns is block and len(block) == len(_COLUMNS) + 2
        for name, column in zip(_COLUMNS, block):
            parts = [getattr(a, name) for a in ep.agents]
            want = (np.concatenate(parts) if parts
                    else np.empty(0, bool if name == "has_vel" else float))
            assert column.dtype == want.dtype and column.tobytes() == want.tobytes(), name
        offsets, owner = agent_rows([len(a.t) for a in ep.agents])
        assert block[-2].tolist() == offsets.tolist() and block[-1].tolist() == owner.tolist()
        assert not any(column.flags.writeable for column in block)

    def test_no_agents_is_checked(self):
        assert check_episode(make_episode([])) == [
            ("/robot_under_test", "does not resolve to an agent: 'robot'")]

    def test_parse_then_validate_builds_it_once(self, monkeypatch):
        built = []

        def counting(episode):
            built.append(episode.episode_id)
            return columns(episode)

        columns = Episode.columns.func
        counted = cached_property(counting)
        counted.__set_name__(Episode, "columns")
        monkeypatch.setattr(Episode, "columns", counted)
        document = crowd_document(2)
        ingest._decode.cache_clear()
        episode = parse_episode(document)
        assert validate(document) == validate(document)
        assert built == [episode.episode_id]


class TestResampled:
    def test_default_dt_and_file_order(self):
        ep = make_episode([make_agent("h1", [(0, 1)] * 5, dt=0.2),
                           straight_robot(n=11, dt=0.1),
                           make_agent("h2", [(0, -1)] * 3, dt=0.5)])
        dt, timeline, robot, others, pairs = ep.resampled()
        assert dt == median_sample_interval(ep.robot)
        assert list(timeline) == list(common_timeline(ep, dt))
        assert robot.agents is ep.robot
        assert [o.id for o in others.agents] == ["h1", "h2"]
        assert pairs.robot is robot and pairs.others is others
        assert ep.resampled(0.5)[1].tolist() == [0.0, 0.5, 1.0]
        single = make_episode([straight_robot(n=1)])
        assert single.resampled()[0] == 1.0

    def test_built_once_per_dt(self):
        ep = fuzz_episode(2)
        view = ep.resampled()
        assert ep.resampled() is view
        assert ep.resampled(0.05) is ep.resampled(0.05) is not view
        # 1 and 1.0 are echoed differently in reports, so each keeps its own dt.
        assert type(ep.resampled(1)[0]) is int and type(ep.resampled(1.0)[0]) is float

    def test_replace_gets_its_own_view(self):
        ep = fuzz_episode(2)
        view = ep.resampled()
        assert dataclasses.replace(ep).resampled() is not view
        longer = dataclasses.replace(ep, agents=(straight_robot(n=21, dt=0.1),))
        _, timeline, robot, others, pairs = longer.resampled()
        assert len(timeline) == 21 and robot.agents is longer.robot and others.agents == ()
        assert others.pos.shape == (0, 21, 2) and pairs.dist.shape == (0, 21)
        assert ep.resampled() is view

    def test_classify_and_compute_all_resample_each_agent_once(self, monkeypatch):
        built = []

        class Counting(socnav.core.SampledAgents):
            def __init__(self, agents, timeline):
                super().__init__(agents, timeline)
                built.extend(a.id for a in self.agents)

        monkeypatch.setattr(socnav.core, "SampledAgents", Counting)
        ep = fuzz_episode(3)
        classify(ep)
        compute_all(ep)
        compute_all(ep, include_stepwise=True)
        classify(ep)
        assert sorted(built) == sorted(a.id for a in ep.agents)

    @pytest.mark.parametrize("dt", [None, 0.05])
    @pytest.mark.parametrize("ep", [*(parse_episode(crowd_document(seed)) for seed in range(3)),
                                    *(fuzz_episode(seed, n_humans=6) for seed in range(3)),
                                    run(generate_scenario("blind_corner", 3)),
                                    run(generate_scenario("perpendicular_traffic", 5,
                                                          "straight_line_stop")),
                                    _crossing_pi(), make_episode([straight_robot(n=1)])],
                             ids=lambda ep: ep.episode_id)
    def test_rows_equal_the_per_agent_view(self, ep, dt):
        """Each row of the block, and each row of the pair block, is bit for bit what
        the per-agent view of ``oracles.sampled_agent_oracle`` gives for that agent."""
        def same(got, want):
            got, want = np.asarray(got), np.asarray(want)
            return got.dtype == want.dtype and got.shape == want.shape and (
                got.tobytes() == want.tobytes())

        _, timeline, robot, others, pairs = ep.resampled(dt)
        alone = sampled_agent_oracle(ep.robot, timeline)
        for name, want in alone.items():
            assert same(getattr(robot, name), want), ("robot", name)
        assert same(pairs.travel, smoothed_heading_oracle(alone, timeline))
        assert pairs.human.tolist() == [a.kind is AgentKind.HUMAN for a in ep.others]
        for i, agent in enumerate(ep.others):
            row = sampled_agent_oracle(agent, timeline)
            for name, want in row.items():
                assert same(getattr(others, name)[i], want), (agent.id, name)
            dp = row["pos"] - alone["pos"]
            turn = alone["heading"] - row["heading"]
            for name, want in (("dp", dp), ("dist", np.linalg.norm(dp, axis=1)), ("turn", turn),
                               ("relative", np.abs(wrap_angle(turn))),
                               ("en_route", alone["en_route"] & row["en_route"]),
                               ("slower", np.minimum(alone["speed"], row["speed"]))):
                assert same(getattr(pairs, name)[i], want), (agent.id, name)


_GOLDEN = Path(__file__).parent / "golden"


def _fresh_episodes():
    """(id, factory) pairs; each factory call builds a new Episode of the same data."""
    for case in sorted(p for p in _GOLDEN.iterdir() if p.is_dir()):
        if not case.name.startswith("invalid_"):
            yield case.name, lambda case=case: parse_episode((case / "episode.json").read_bytes())
    for name in SCENARIO_NAMES:
        yield name, lambda name=name: run(generate_scenario(name, 0, robot_policy="sfm"))


@pytest.mark.parametrize("make", [make for _, make in _fresh_episodes()],
                         ids=[name for name, _ in _fresh_episodes()])
def test_outputs_do_not_depend_on_the_order_of_classify_and_compute_all(make):
    def labels(ep, dt):
        return serialize_labels({ep.episode_id: classify(ep, dt=dt)})

    def report(ep, dt):
        return write_output(compute_all(ep, dt=dt, include_stepwise=True))

    # Each output from its own fresh episode, then both from one, in either order.
    expected = {dt: (labels(make(), dt), report(make(), dt)) for dt in (None, 0.05)}
    for dt in (None, 0.05):
        first = make()
        assert (labels(first, dt), report(first, dt)) == expected[dt]
        later = make()
        got_report = report(later, dt)
        assert (labels(later, dt), got_report) == expected[dt]
    both = make()  # both dts on one episode, each read twice
    runs = [(labels(both, dt), report(both, dt)) for dt in (None, 0.05, None, 0.05)]
    assert runs == [expected[None], expected[0.05]] * 2


class TestEventRuns:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.booleans(), max_size=64))
    @example([])
    @example([True] * 9)
    @example([False] * 9)
    @example([True, False] * 5)
    @example([False, True] * 5)
    def test_matches_plain_scan(self, mask):
        assert event_runs(np.array(mask, dtype=bool)) == event_runs_oracle(mask)


# Steps and durations on a quarter-second grid keep every time exact, so gaps
# equal to the bridge and windows equal to the minimum duration both occur.
_QUARTERS = st.integers(1, 8).map(lambda q: q / 4)


@st.composite
def _masked_timelines(draw):
    mask = draw(st.lists(st.booleans(), max_size=40))
    steps = draw(st.lists(st.integers(1, 4).map(lambda q: q / 4),
                          min_size=len(mask), max_size=len(mask)))
    return np.cumsum([draw(st.integers(-8, 8)) / 4, *steps])[1:], np.array(mask, dtype=bool)


def _one_row_windows(timeline, mask, min_duration, bridge=0.0):
    """The (s, e) windows of ``windows`` on a one-row ``mask``."""
    return [(s, e) for _, s, e in windows(timeline, mask[None], min_duration, bridge)]


class TestWindows:
    """``core.windows`` on one row against a plain scan of the mask's runs."""

    @settings(max_examples=300, deadline=None)
    @given(_masked_timelines(), _QUARTERS | st.just(0.0))
    @example((np.arange(6.0), np.array([True, True, False, True, True, True])), 2.0)
    # A dt finer than the float spacing of the stamps repeats a time.
    @example((np.array([0.0, 0.0, 0.0, 1.0]), np.array([True, False, True, True])), 0.0)
    def test_runs_that_last_min_duration(self, case, min_duration):
        timeline, mask = case
        want = [(s, e) for s, e in event_runs_oracle(mask.tolist())
                if timeline[e - 1] - timeline[s] >= min_duration]
        assert _one_row_windows(timeline, mask, min_duration) == want

    @settings(max_examples=300, deadline=None)
    @given(_masked_timelines(), _QUARTERS | st.just(0.0), _QUARTERS)
    @example((np.arange(6.0), np.array([True, False, True, False, False, True])), 0.0, 2.0)
    def test_gaps_up_to_bridge_merged(self, case, min_duration, bridge):
        timeline, mask = case
        runs = event_runs_oracle(mask.tolist())
        merged = _one_row_windows(timeline, mask, 0.0, bridge)
        groups = [[r for r in runs if s <= r[0] and r[1] <= e] for s, e in merged]
        # The windows split the runs into groups and span each group ...
        assert all(groups) and [r for g in groups for r in g] == runs
        assert merged == [(g[0][0], g[-1][1]) for g in groups]

        def gap(a, b):
            return timeline[b[0]] - timeline[a[1] - 1]

        # ... every gap inside a window is at most the bridge, and every gap
        # between two windows is larger.
        assert all(gap(a, b) <= bridge for g in groups for a, b in zip(g, g[1:]))
        assert all(gap(a, b) > bridge for a, b in zip(merged, merged[1:]))
        assert _one_row_windows(timeline, mask, min_duration, bridge) == [
            (s, e) for s, e in merged if timeline[e - 1] - timeline[s] >= min_duration]


@st.composite
def _masked_rows(draw):
    """A timeline and an (A, T) mask on it: ``_masked_timelines`` and up to 3 more rows."""
    timeline, first = draw(_masked_timelines())
    rows = [first.tolist(), *draw(st.lists(
        st.lists(st.booleans(), min_size=len(first), max_size=len(first)), max_size=3))]
    return timeline, np.array(rows, dtype=bool).reshape(len(rows), len(first))


class TestWindowRows:
    """``core.windows`` on (A, T) masks: each row is cut as if it stood alone."""

    @settings(max_examples=300, deadline=None)
    @given(_masked_rows(), _QUARTERS | st.just(0.0), _QUARTERS | st.just(0.0))
    @example((np.arange(4.0), np.array([[False, True, True, True], [True, True, False, True]])),
             0.0, 2.0)
    def test_each_row_as_the_one_row_call(self, case, min_duration, bridge):
        timeline, mask = case
        assert windows(timeline, mask, min_duration, bridge) == [
            (i, s, e) for i, row in enumerate(mask)
            for s, e in _one_row_windows(timeline, row, min_duration, bridge)]

    @settings(max_examples=300, deadline=None)
    @given(_masked_rows())
    @example((np.arange(3.0), np.array([[True, True, True], [True, False, True]])))
    def test_a_run_at_a_rows_end_ends_there(self, case):
        timeline, mask = case
        found = windows(timeline, mask, 0.0)
        assert all(e <= mask.shape[1] for _, _, e in found)
        assert [i for i, _, e in found if e == mask.shape[1]] == np.flatnonzero(
            mask[:, -1] if mask.shape[1] else []).tolist()

    @settings(max_examples=300, deadline=None)
    @given(_masked_rows())
    @example((np.arange(4.0), np.array([[False, False, True, True], [True, True, False, False]])))
    def test_bridge_never_joins_two_rows(self, case):
        timeline, mask = case
        # A bridge longer than the timeline merges every run of a row, and no more.
        want = [(i, int(np.argmax(row)), len(row) - int(np.argmax(row[::-1])))
                for i, row in enumerate(mask) if row.any()]
        assert windows(timeline, mask, 0.0, bridge=1e6) == want


_MEDIAN_FLOATS = st.floats(allow_nan=False) | st.sampled_from([math.inf, -math.inf, math.nan])


@settings(max_examples=400, deadline=None)
@given(st.lists(_MEDIAN_FLOATS, min_size=1, max_size=40)
       | st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=40))
@example([2.0])
@example([1.0, 2.0])
@example([3, 1, 2])
@example([4, 1, 2, 3])
@example([-0.0])
@example([-5e-324, 0.0])
@example([math.inf, -math.inf])
@example([1.0, math.nan, 2.0])
@example([1.7e308, 1.7e308])
def test_median_matches_numpy_bit_for_bit(values):
    a = np.array(values)
    with np.errstate(all="ignore"):  # inf - inf and overflow, in both
        got, want = median(a), np.median(a)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestValidation:
    def test_valid_episode_passes(self):
        assert check_episode(fuzz_episode(1)) == []

    def test_duplicate_ids(self):
        a1 = straight_robot()
        a2 = make_agent("robot", [(0, 0), (1, 0)], kind=AgentKind.ROBOT)
        assert check_episode(make_episode([a1, a2]))[0] == (
            "/agents", "duplicate agent ids: ['robot']")

    def test_robot_must_be_robot_kind(self):
        human = make_agent("robot", [(0, 0), (1, 0)], kind=AgentKind.HUMAN)
        assert check_episode(make_episode([human]))[0] == (
            "/robot_under_test", "agent 'robot' is not of kind robot")

    def test_speed_cap(self):
        flash = make_agent("robot", [(0, 0), (50, 0)], dt=1.0, kind=AgentKind.ROBOT)
        assert check_episode(make_episode([flash]))[0] == (
            "/agents/0/states/1", "implied speed 50.00 m/s exceeds cap 10.0 m/s")

    def test_non_overlapping_span(self):
        robot = straight_robot(n=5, dt=0.1)  # span [0, 0.4]
        late = make_agent("h", [(0, 0), (1, 0)], dt=1.0, t0=100.0)
        assert check_episode(make_episode([robot, late]))[0] == (
            "/agents/1/states", "time span does not overlap the robot's")

    def test_bad_params(self):
        with pytest.raises(InvariantError):
            MetricParams(space_threshold=-1.0)
        with pytest.raises(InvariantError):
            MetricParams(timeout=0.0)

    @pytest.mark.parametrize("field", ["timeout", "collision_terminate_count"])
    def test_bool_params_rejected(self, field):
        """A report would echo ``true``, which parse_report refuses."""
        with pytest.raises(InvariantError) as err:
            MetricParams(**{field: True})
        assert err.value.path == f"/params/{field}"

    def test_median_interval(self):
        agent = make_agent("a", [(0, 0), (1, 0), (2, 0)], dt=0.25)
        assert median_sample_interval(agent) == pytest.approx(0.25)

    def test_dynamic_obstacles_must_be_time_ordered(self):
        from socnav.core import ObstacleMap
        bad = ObstacleMap(dynamic=((2.0, ((0, 0, 1, 0),)), (1.0, ())))
        ep = make_episode([straight_robot()], obstacles=bad)
        assert check_episode(ep)[0] == (
            "/obstacles/dynamic/1/t", "dynamic sets must be time-ordered")

    def test_heading_range_checked(self):
        agent = make_agent("robot", [(0, 0), (1, 0)], kind=AgentKind.ROBOT,
                           headings=[5.0, 5.0])
        assert check_episode(make_episode([agent]))[0] == (
            "/agents/0/states/0/theta", "must lie in (-pi, pi], got 5.0")


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_fuzzed_episodes_always_valid(seed):
    assert check_episode(fuzz_episode(seed)) == []


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.01, max_value=0.5))
def test_interpolation_identity_property(seed, frac):
    ep = fuzz_episode(seed)
    agent = derive_velocities(ep.robot)
    t = agent.t_start + frac * (agent.t_end - agent.t_start)
    s = interpolate_state(agent, t)
    assert agent.t_start <= s.t <= agent.t_end
    assert -math.pi < s.heading <= math.pi + 1e-12
    # derive_velocities idempotence on fuzzed agents
    assert derive_velocities(agent) == agent


class TestWrapAngleScalar:
    """The float path of wrap_angle gives the array path's bits, as a built-in float."""

    EDGES = [v for p in (math.pi, -math.pi) for v in (p, math.nextafter(p, 0.0),
                                                      math.nextafter(p, 2 * p))]
    EDGES += [2 * math.pi, -2 * math.pi, 3 * math.pi, -3 * math.pi, 1e300, -1e300,
              -0.0, 5e-324, math.inf, -math.inf, math.nan]

    @staticmethod
    def check(value):
        with np.errstate(invalid="ignore"):
            want = wrap_angle(np.array([value]))[0]
            from_numpy_scalar = wrap_angle(np.float64(value))
        got = wrap_angle(value)
        assert type(got) is float and type(from_numpy_scalar) is float
        assert struct.pack("<d", got) == struct.pack("<d", want), value
        assert struct.pack("<d", from_numpy_scalar) == struct.pack("<d", want), value

    @pytest.mark.parametrize("value", EDGES)
    def test_edges(self, value):
        self.check(value)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_any_float(self, value):
        self.check(value)


COORD = st.floats(-5.0, 5.0)
SEGMENT_SET = st.lists(st.tuples(COORD, COORD, COORD, COORD), max_size=3).map(tuple)


@st.composite
def obstacle_queries(draw):
    """A map with sorted stamps (duplicates, negatives, empty sets) and times to query.

    The times sit on each stamp, an ulp either side of it, between stamps,
    and before the first and after the last.
    """
    stamps = sorted(draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 1.0]) | st.floats(-10.0, 10.0),
                                  max_size=5)))
    obstacles = ObstacleMap(segments=draw(SEGMENT_SET),
                            dynamic=tuple((stamp, draw(SEGMENT_SET)) for stamp in stamps))
    near = [v for s in stamps for v in (s, math.nextafter(s, -math.inf),
                                        math.nextafter(s, math.inf))]
    times = draw(st.lists(st.sampled_from(near + [-100.0, 100.0]) | st.floats(-20.0, 20.0),
                          min_size=1, max_size=8))
    return obstacles, times


class TestActiveObstacleSet:
    """set_index over the prebuilt segment_sets against the stamp loop in ``oracles``."""

    @settings(max_examples=300, deadline=None)
    @given(obstacle_queries())
    @example((ObstacleMap(), [0.0]))
    @example((ObstacleMap(segments=((0, 0, 1, 0),)), [-1.0, 0.0]))
    @example((ObstacleMap(dynamic=((0.0, ()), (0.0, ((0, 0, 1, 0),)))), [0.0]))
    def test_matches_stamp_loop(self, case):
        obstacles, times = case
        want = [active_segments_oracle(obstacles, t) for t in times]
        assert obstacles.set_index(np.array(times)).tolist() == [k for k, _, _ in want]
        for t, (k, seg_a, seg_b) in zip(times, want):
            assert obstacles.set_index(t) == k
            got_a, got_b = obstacles.segment_sets[obstacles.set_index(t)]
            assert got_a.dtype == got_b.dtype == float
            assert np.array_equal(got_a, seg_a) and np.array_equal(got_b, seg_b)
        _, static_a, static_b = active_segments_oracle(obstacles, -math.inf)
        got_a, got_b = obstacles.static_arrays
        assert np.array_equal(got_a, static_a) and np.array_equal(got_b, static_b)
