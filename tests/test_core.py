import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socnav.core import (
    AgentKind,
    MetricParams,
    ObstacleMap,
    Vec2,
    common_timeline,
    derive_velocities,
    event_runs,
    interpolate_state,
    median_sample_interval,
    validate_episode,
)
from socnav.errors import InvariantError, OutOfRange, SingleStateAgent
from socnav.geometry import wrap_angle

from conftest import fuzz_episode, make_agent, make_episode, straight_robot
from oracles import active_segments_oracle, event_runs_oracle


class TestDeriveVelocities:
    def test_constant_speed_line(self):
        agent = make_agent("a", [(0, 0), (1, 0), (2, 0)], dt=1.0)
        out = derive_velocities(agent)
        for s in out.states:
            assert s.velocity == Vec2(1.0, 0.0)

    def test_stationary(self):
        agent = make_agent("a", [(2, 3)] * 3, dt=1.0)
        out = derive_velocities(agent)
        for s in out.states:
            assert s.velocity == Vec2(0.0, 0.0)

    def test_quadratic_central_difference_exact(self):
        # x(t) = t^2 has exact central differences: vx(0.5) == 2*0.5 == 1.0
        ts = np.arange(0.0, 1.0 + 1e-12, 0.1)
        agent = make_agent("a", [(t * t, 0.0) for t in ts], times=ts)
        out = derive_velocities(agent)
        i = int(np.argmin(np.abs(ts - 0.5)))
        assert out.states[i].velocity.x == pytest.approx(1.0, abs=1e-12)
        # interior points match the analytic derivative 2t
        for j in range(1, len(ts) - 1):
            assert out.states[j].velocity.x == pytest.approx(2 * ts[j], abs=1e-9)

    def test_single_state_rejected(self):
        agent = make_agent("a", [(0, 0)])
        with pytest.raises(SingleStateAgent):
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
        assert all(s.velocity == Vec2(9.0, 9.0) for s in out.states)


class TestInterpolateState:
    def test_midpoint(self):
        agent = make_agent("a", [(0, 0), (2, 0)], dt=2.0)
        s = interpolate_state(agent, 1.0)
        assert (s.position.x, s.position.y) == (1.0, 0.0)

    def test_exact_sample_identity(self):
        agent = make_agent("a", [(0, 0), (1, 1), (2, 0)], dt=0.5)
        for stored in agent.states:
            assert interpolate_state(agent, stored.t) == stored

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
        with pytest.raises(OutOfRange):
            interpolate_state(agent, 2.5)

    def test_velocity_interpolated(self):
        agent = make_agent("a", [(0, 0), (2, 0)], dt=2.0, velocities=[(0, 0), (2, 2)])
        s = interpolate_state(agent, 1.0)
        assert s.velocity == Vec2(1.0, 1.0)


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


class TestValidation:
    def test_valid_episode_passes(self):
        validate_episode(fuzz_episode(1))

    def test_duplicate_ids(self):
        a1 = straight_robot()
        a2 = make_agent("robot", [(0, 0), (1, 0)], kind=AgentKind.ROBOT)
        with pytest.raises(InvariantError, match="duplicate"):
            validate_episode(make_episode([a1, a2]))

    def test_robot_must_be_robot_kind(self):
        human = make_agent("robot", [(0, 0), (1, 0)], kind=AgentKind.HUMAN)
        with pytest.raises(InvariantError, match="not of kind robot"):
            validate_episode(make_episode([human]))

    def test_speed_cap(self):
        flash = make_agent("robot", [(0, 0), (50, 0)], dt=1.0, kind=AgentKind.ROBOT)
        with pytest.raises(InvariantError, match="exceeds cap"):
            validate_episode(make_episode([flash]))

    def test_non_overlapping_span(self):
        robot = straight_robot(n=5, dt=0.1)  # span [0, 0.4]
        late = make_agent("h", [(0, 0), (1, 0)], dt=1.0, t0=100.0)
        with pytest.raises(InvariantError, match="overlap"):
            validate_episode(make_episode([robot, late]))

    def test_bad_params(self):
        with pytest.raises(InvariantError):
            MetricParams(space_threshold=-1.0)
        with pytest.raises(InvariantError):
            MetricParams(timeout=0.0)

    def test_median_interval(self):
        agent = make_agent("a", [(0, 0), (1, 0), (2, 0)], dt=0.25)
        assert median_sample_interval(agent) == pytest.approx(0.25)

    def test_dynamic_obstacles_must_be_time_ordered(self):
        from socnav.core import ObstacleMap
        bad = ObstacleMap(dynamic=((2.0, ((Vec2(0, 0), Vec2(1, 0)),)), (1.0, ())))
        ep = make_episode([straight_robot()], obstacles=bad)
        with pytest.raises(InvariantError, match="time-ordered"):
            validate_episode(ep)

    def test_heading_range_checked(self):
        agent = make_agent("robot", [(0, 0), (1, 0)], kind=AgentKind.ROBOT,
                           headings=[5.0, 5.0])
        with pytest.raises(InvariantError, match="-pi, pi"):
            validate_episode(make_episode([agent]))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_fuzzed_episodes_always_valid(seed):
    validate_episode(fuzz_episode(seed))


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


POINT = st.builds(Vec2, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
SEGMENT_SET = st.lists(st.tuples(POINT, POINT), max_size=3).map(tuple)


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
    """set_index and active_segments against the stamp loop in ``oracles``."""

    @settings(max_examples=300, deadline=None)
    @given(obstacle_queries())
    @example((ObstacleMap(), [0.0]))
    @example((ObstacleMap(segments=((Vec2(0, 0), Vec2(1, 0)),)), [-1.0, 0.0]))
    @example((ObstacleMap(dynamic=((0.0, ()), (0.0, ((Vec2(0, 0), Vec2(1, 0)),)))), [0.0]))
    def test_matches_stamp_loop(self, case):
        obstacles, times = case
        want = [active_segments_oracle(obstacles, t) for t in times]
        assert obstacles.set_index(np.array(times)).tolist() == [k for k, _, _ in want]
        for t, (k, seg_a, seg_b) in zip(times, want):
            assert obstacles.set_index(t) == k
            got_a, got_b = obstacles.active_segments(t)
            assert got_a.dtype == got_b.dtype == float
            assert np.array_equal(got_a, seg_a) and np.array_equal(got_b, seg_b)
        _, static_a, static_b = active_segments_oracle(obstacles, -math.inf)
        got_a, got_b = obstacles.static_arrays
        assert np.array_equal(got_a, static_a) and np.array_equal(got_b, static_b)
