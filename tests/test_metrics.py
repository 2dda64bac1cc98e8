import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from socnav.core import (
    AgentKind,
    Goal,
    MetricParams,
    ObstacleMap,
    SampledAgent,
    common_timeline,
)
import socnav.metrics
from socnav.metrics import TASKWISE_KEYS, UNITS, _Frames, compute_all, taxonomy_code
from socnav.report import params_from_jsonable

from conftest import (
    fuzz_episode,
    line_points,
    make_agent,
    make_episode,
    metric,
    rigid_transform,
    scale_time,
    straight_robot,
)
from oracles import (
    collision_counts_oracle,
    failure_to_progress_oracle,
    stalled_time_oracle,
    ttc_forward_stepping,
)

PARAMS = MetricParams()
GOAL_KEYS = ("S", "T", "SPL", "FP")
COLLISIONS = ("C", "WC", "AC", "HC")
V_KEYS = ("V_min", "V_avg", "V_max")
A_KEYS = ("A_min", "A_avg", "A_max")
J_KEYS = ("J_min", "J_avg", "J_max")
CD_KEYS = ("CD_min", "CD_avg")


def null_keys(episode, params=None, dt=None):
    """The taskwise keys that ``compute_all`` leaves null."""
    return {key for key, m in compute_all(episode, params, dt).taskwise.items() if m.value is None}


def goal_robot(n=11, dt=0.1, speed=1.0, goal_xy=(1.0, 0.0), tolerance=0.2):
    return straight_robot(n=n, dt=dt, speed=speed, goal_xy=goal_xy, tolerance=tolerance)


class TestSuccess:
    def test_reaches_goal(self):
        ep = make_episode([goal_robot(goal_xy=(1.05, 0.0))])
        assert metric(ep, "S", PARAMS) is True

    def test_never_in_tolerance(self):
        ep = make_episode([goal_robot(goal_xy=(50.0, 0.0))])
        assert metric(ep, "S", PARAMS) is False

    def test_timeout_blocks_success(self):
        # reaching at t = 5 with timeout 4 does not count
        robot = straight_robot(n=51, dt=0.1, speed=1.0, goal_xy=(5.0, 0.0))
        ep = make_episode([robot])
        assert metric(ep, "S", MetricParams(timeout=4.0)) is False
        assert metric(ep, "S", MetricParams(timeout=6.0)) is True

    def test_collision_termination_blocks_success(self):
        robot = straight_robot(n=51, dt=0.1, speed=1.0, goal_xy=(5.0, 0.0))
        human = make_agent("h", [(2.0, 0.0)] * 51, dt=0.1)
        ep = make_episode([robot, human])
        assert metric(ep, "S", MetricParams(collision_terminate_count=1)) is False
        assert metric(ep, "S", PARAMS) is True

    def test_missing_goal(self):
        # AT (no cooperative set) and CD_avg (no obstacles) are null with a goal too
        ep = make_episode([straight_robot()])
        assert null_keys(ep, PARAMS) == {*GOAL_KEYS, "AT", "CD_avg"}


class TestCollisions:
    def test_single_pass_through_human(self):
        # overlap (|dx| < 0.6) holds on exactly three consecutive steps
        robot = straight_robot(n=21, dt=0.5, speed=1.0)  # x = 0..10
        human = make_agent("h", [(5.0, 0.0)] * 21, dt=0.5)
        ep = make_episode([robot, human])
        c, wc, ac, hc = metric(ep, COLLISIONS, PARAMS, dt=0.5)
        assert (c, wc, ac, hc) == (1, 0, 1, 1)

    def test_no_overlap(self):
        robot = straight_robot(n=11)
        human = make_agent("h", [(0.0, 5.0)] * 11)
        ep = make_episode([robot, human])
        assert metric(ep, COLLISIONS, PARAMS) == (0, 0, 0, 0)

    def test_wall_collision(self):
        wall = ObstacleMap(segments=((0.5, -1.0, 0.5, 1.0),))
        robot = straight_robot(n=11)  # crosses x=0.5 with radius 0.3
        ep = make_episode([robot], obstacles=wall)
        c, wc, ac, hc = metric(ep, COLLISIONS, PARAMS)
        assert (c, wc, ac, hc) == (1, 1, 0, 0)

    def test_c_equals_wc_plus_ac(self):
        for seed in range(10):
            ep = fuzz_episode(seed, n_humans=4)
            c, wc, ac, hc = metric(ep, COLLISIONS, PARAMS)
            assert c == wc + ac
            assert 0 <= hc <= ac

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_interval_merge_oracle(self, seed):
        # dense episodes: small box, many slow agents, fixed dt
        ep = fuzz_episode(seed, n_humans=5, n_steps=30, box=1.5)
        assert metric(ep, COLLISIONS, PARAMS, dt=0.1) == collision_counts_oracle(ep, PARAMS, dt=0.1)


class TestTimeout:
    def test_success_means_no_timeout(self):
        ep = make_episode([goal_robot()])
        assert metric(ep, "TO", MetricParams(timeout=10.0)) is False

    def test_long_failure_times_out(self):
        robot = straight_robot(n=1201, dt=0.1, speed=0.0, goal_xy=(50.0, 0.0))  # 120 s
        ep = make_episode([robot])
        assert metric(ep, "TO", MetricParams(timeout=100.0)) is True

    def test_short_failure_is_not_timeout(self):
        robot = straight_robot(n=501, dt=0.1, speed=0.0, goal_xy=(50.0, 0.0))  # 50 s
        ep = make_episode([robot])
        assert metric(ep, "TO", MetricParams(timeout=100.0)) is False


class TestFailureToProgress:
    def test_monotone_approach(self):
        ep = make_episode([goal_robot(n=41, goal_xy=(4.0, 0.0))])
        assert metric(ep, "FP", PARAMS) == 0

    def test_stationary_two_windows(self):
        # 2 x fp_window of no progress, away from the goal
        params = MetricParams(fp_window=5.0, fp_distance_eps=0.1)
        robot = straight_robot(n=101, dt=0.1, speed=0.0, goal_xy=(10.0, 0.0))  # 10 s still
        ep = make_episode([robot])
        assert metric(ep, "FP", params) == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_oscillating_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 80
        ts = 0.1 * np.arange(n)
        xs = np.cumsum(rng.normal(0, 0.05, n))
        robot = make_agent("robot", [(x, 0.0) for x in xs], dt=0.1,
                           kind=AgentKind.ROBOT,
                           goal=Goal(3.0, 0.0, 0.2))
        ep = make_episode([robot])
        params = MetricParams(fp_window=2.0, fp_distance_eps=0.05)
        d = np.abs(xs - 3.0)
        expected = failure_to_progress_oracle(ts, list(d), 0.05, 2.0)
        assert metric(ep, "FP", params, dt=0.1) == expected


class TestStalledTime:
    def test_constant_speed_never_stalls(self):
        ep = make_episode([straight_robot(n=21, speed=1.0)])
        assert metric(ep, "ST", PARAMS) == 0.0

    def test_stationary_full_span(self):
        robot = straight_robot(n=101, dt=0.1, speed=0.0)
        ep = make_episode([robot])
        assert metric(ep, "ST", MetricParams(stall_min_duration=1.0)) == pytest.approx(10.0)

    @pytest.mark.parametrize("seed", range(15))
    def test_stop_go_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        # blocky speed profile: alternating stop/go runs
        segments = []
        x = 0.0
        for _ in range(8):
            run = int(rng.integers(3, 15))
            moving = rng.random() < 0.5
            for _ in range(run):
                x += 0.1 if moving else 0.0
                segments.append(x)
        robot = make_agent("robot", [(v, 0.0) for v in segments], dt=0.1,
                           kind=AgentKind.ROBOT)
        ep = make_episode([robot])
        timeline = common_timeline(ep, 0.1)
        frames = _Frames(ep, PARAMS, 0.1)
        expected = stalled_time_oracle(list(timeline), list(frames.robot.speed),
                                       PARAMS.stall_speed, PARAMS.stall_min_duration)
        assert metric(ep, "ST", PARAMS, dt=0.1) == pytest.approx(expected)


class TestPathAndSPL:
    def test_three_four_five(self):
        robot = make_agent("robot", [(0, 0), (3, 0), (3, 4)], dt=1.0,
                           kind=AgentKind.ROBOT)
        assert metric(make_episode([robot]), "PL") == pytest.approx(7.0)

    def test_single_state(self):
        robot = make_agent("robot", [(0, 0)], kind=AgentKind.ROBOT)
        assert metric(make_episode([robot]), "PL") == 0.0

    def test_circle_circumference(self):
        angles = np.radians(np.arange(361))
        pts = [(math.cos(a), math.sin(a)) for a in angles]
        robot = make_agent("robot", pts, dt=0.01, kind=AgentKind.ROBOT)
        pl = metric(make_episode([robot]), "PL")
        assert pl == pytest.approx(2 * math.pi, rel=1e-3)

    def test_spl_straight_line_success(self):
        ep = make_episode([goal_robot(goal_xy=(1.0, 0.0))])
        assert metric(ep, "SPL", PARAMS) == pytest.approx(1.0, abs=1e-9)

    def test_spl_failure_zero(self):
        ep = make_episode([goal_robot(goal_xy=(10.0, 0.0))])
        assert metric(ep, "SPL", PARAMS) == 0.0

    def test_spl_detour_half(self):
        # path twice the straight-line distance: out 0.5 and back, then to goal
        xs = np.concatenate([np.linspace(0, -0.5, 6), np.linspace(-0.4, 1.0, 15)])
        robot = make_agent("robot", [(x, 0.0) for x in xs], dt=0.1,
                           kind=AgentKind.ROBOT,
                           goal=Goal(1.0, 0.0, 0.05))
        ep = make_episode([robot])
        p = metric(ep, "PL")
        expected = 1.0 / max(1.0, p)
        assert metric(ep, "SPL", PARAMS) == pytest.approx(expected)
        assert metric(ep, "SPL", PARAMS) == pytest.approx(0.5, abs=0.01)

    def test_time_to_goal(self):
        ep = make_episode([goal_robot(n=11, dt=0.1, speed=1.0, goal_xy=(0.85, 0.0),
                                      tolerance=0.06)])
        assert metric(ep, "T", PARAMS) == pytest.approx(0.8)
        ep_fail = make_episode([goal_robot(goal_xy=(10.0, 0.0))])
        assert metric(ep_fail, "T", PARAMS) is None


class TestKinematicFeatures:
    def test_constant_velocity_zeros(self):
        vels = [(1.0, 0.0)] * 21
        robot = make_agent("robot", [(0.1 * i, 0.0) for i in range(21)], dt=0.1,
                           kind=AgentKind.ROBOT, velocities=vels)
        ep = make_episode([robot])
        assert metric(ep, A_KEYS, PARAMS) == pytest.approx((0, 0, 0), abs=1e-9)
        assert metric(ep, J_KEYS, PARAMS) == pytest.approx((0, 0, 0), abs=1e-9)
        vmin, vavg, vmax = metric(ep, V_KEYS, PARAMS)
        assert (vmin, vavg, vmax) == pytest.approx((1, 1, 1), abs=1e-9)

    def test_linear_speed(self):
        # speed(t) = t: A_avg = 1, J_avg = 0
        ts = np.arange(0.0, 1.0001, 0.05)
        robot = make_agent("robot", [(t * t / 2, 0.0) for t in ts], times=ts,
                           kind=AgentKind.ROBOT, velocities=[(t, 0.0) for t in ts])
        ep = make_episode([robot])
        _, a_avg, _ = metric(ep, A_KEYS, PARAMS, dt=0.05)
        _, j_avg, _ = metric(ep, J_KEYS, PARAMS, dt=0.05)
        assert a_avg == pytest.approx(1.0, abs=1e-6)
        assert j_avg == pytest.approx(0.0, abs=1e-6)

    def test_cubic_speed_jerk(self):
        # speed(t) = t^3 sampled at dt = 0.01: jerk ~ 6t within 5 % per point
        ts = np.arange(0.1, 1.0 + 1e-9, 0.01)
        robot = make_agent("robot", [(t, 0.0) for t in ts], times=ts,
                           kind=AgentKind.ROBOT,
                           velocities=[(t ** 3, 0.0) for t in ts])
        ep = make_episode([robot])
        frames = _Frames(ep, PARAMS, 0.01)
        jerk = frames.jerk
        expected = 6.0 * frames.timeline[1:-1]
        assert np.all(np.abs(jerk - expected) <= 0.05 * np.abs(expected))
        _, j_avg, _ = metric(ep, J_KEYS, PARAMS, dt=0.01)
        assert j_avg == pytest.approx(np.mean(expected), rel=0.05)

    def test_too_few_states(self):
        robot = make_agent("robot", [(0, 0), (1, 0), (2, 0)], dt=1.0,
                           kind=AgentKind.ROBOT)
        # the robot has no goal, the episode no obstacles and no cooperative set
        assert null_keys(make_episode([robot]), PARAMS) == {*J_KEYS, *GOAL_KEYS, "AT", "CD_avg"}

    def test_min_le_avg_le_max(self):
        for seed in range(10):
            ep = fuzz_episode(seed)
            for keys in (V_KEYS, A_KEYS, J_KEYS):
                lo, avg, hi = metric(ep, keys, PARAMS)
                assert lo <= avg + 1e-12 <= hi + 1e-12


class TestClearingDistance:
    def test_parallel_wall(self):
        wall = ObstacleMap(segments=((-5.0, 1.0, 5.0, 1.0),))
        robot = straight_robot(n=11, radius=0.3)  # y = 0, wall at y = 1
        ep = make_episode([robot], obstacles=wall)
        cd_min, cd_avg = metric(ep, CD_KEYS, PARAMS)
        assert cd_min == pytest.approx(0.7)
        assert cd_avg == pytest.approx(0.7)

    def test_no_obstacles(self):
        ep = make_episode([straight_robot()])
        cd_min, cd_avg = metric(ep, CD_KEYS, PARAMS)
        assert cd_min == math.inf
        assert cd_avg is None

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scalar_oracle(self, seed):
        from oracles import scalar_point_segment_distance
        ep = fuzz_episode(seed, with_obstacles=True)
        frames = _Frames(ep, PARAMS, 0.1)
        cd_min, cd_avg = metric(ep, CD_KEYS, PARAMS, dt=0.1)
        seg_a, seg_b = ep.obstacles.static_arrays
        per_step = []
        for p in frames.robot.pos:
            d = min(scalar_point_segment_distance(p[0], p[1], a[0], a[1], b[0], b[1])
                    for a, b in zip(seg_a, seg_b))
            per_step.append(max(0.0, d - ep.robot.radius))
        assert cd_min == pytest.approx(min(per_step))
        assert cd_avg == pytest.approx(sum(per_step) / len(per_step))


class TestSpaceCompliance:
    def test_always_far(self):
        robot = straight_robot(n=11)
        human = make_agent("h", [(0.0, 3.0)] * 11)
        ep = make_episode([robot, human])
        assert metric(ep, "SC", PARAMS) == 1.0

    def test_always_overlapping(self):
        robot = straight_robot(n=11)
        human = make_agent("h", [(i * 0.1, 0.0) for i in range(11)])
        ep = make_episode([robot, human])
        assert metric(ep, "SC", PARAMS) == 0.0

    def test_half_compliant(self):
        # robot x = 0..0.9, human fixed at 0.95: exactly the 5 steps with
        # x <= 0.45 keep the 0.5 m threshold (counting oracle: 5 of 10)
        robot = straight_robot(n=10, dt=0.1)
        human = make_agent("h", [(0.95, 0.0)] * 10, dt=0.1)
        ep = make_episode([robot, human])
        compliant = sum(abs(0.1 * i - 0.95) >= 0.5 for i in range(10))
        assert compliant == 5
        assert metric(ep, "SC", PARAMS, dt=0.1) == pytest.approx(0.5)

    def test_monotone_in_threshold(self):
        ep = fuzz_episode(7)
        values = [metric(ep, "SC", MetricParams(space_threshold=th))
                  for th in (0.1, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_sc_zero_threshold(self):
        ep = fuzz_episode(9)
        assert metric(ep, "SC", MetricParams(space_threshold=1e-12)) == 1.0


class TestDistanceAndTTC:
    def test_min_distance(self):
        robot = straight_robot(n=11)
        human = make_agent("h", [(0.5, 1.0)] * 11)
        ep = make_episode([robot, human])
        assert metric(ep, "DH_min", PARAMS) == pytest.approx(1.0)

    def test_no_humans_inf(self):
        ep = make_episode([straight_robot()])
        assert metric(ep, "DH_min", PARAMS) == math.inf

    def test_head_on_closed_form(self):
        # robot at origin moving +x at 1, human at (10, 0) moving -x at 1
        robot = make_agent("robot", [(0.0, 0.0)], kind=AgentKind.ROBOT,
                           velocities=[(1.0, 0.0)])
        human = make_agent("h", [(10.0, 0.0)], velocities=[(-1.0, 0.0)],
                           times=[0.0])
        ep = make_episode([robot, human])
        ttc = metric(ep, "TTC", PARAMS)
        assert ttc == pytest.approx((10 - 0.6) / 2, abs=1e-9)
        oracle = ttc_forward_stepping(0, 0, 1, 0, 10, 0, -1, 0, 0.6)
        assert abs(ttc - oracle) <= 1e-2

    def test_receding_inf(self):
        robot = make_agent("robot", [(0.0, 0.0), (0.1, 0.0)], dt=0.1,
                           kind=AgentKind.ROBOT)
        human = make_agent("h", [(5.0, 0.0), (5.2, 0.0)], dt=0.1)
        ep = make_episode([robot, human])
        assert metric(ep, "TTC", PARAMS) == math.inf

    def test_already_overlapping_zero(self):
        robot = make_agent("robot", [(0.0, 0.0), (0.1, 0.0)], dt=0.1,
                           kind=AgentKind.ROBOT)
        human = make_agent("h", [(0.2, 0.0), (0.3, 0.0)], dt=0.1)
        ep = make_episode([robot, human])
        assert metric(ep, "TTC", PARAMS) == 0.0


    def test_single_state_human_keeps_stored_velocity(self):
        robot = straight_robot()  # x = t along +x, t in [0, 1]
        human = make_agent("h", [(3.0, 0.0)], t0=0.5, velocities=[(-1.0, 0.0)])
        ep = make_episode([robot, human])
        timeline = common_timeline(ep, 0.1)
        sampled = SampledAgent(human, timeline)
        assert sampled.vel.tolist() == [[-1.0, 0.0]] * len(timeline)
        assert sampled.active.tolist() == [k == 5 for k in range(len(timeline))]
        # at t = 0.5: gap 2.5 m, radii 0.6 m, closing at 2 m/s, not 1 m/s
        assert metric(ep, "TTC", PARAMS, dt=0.1) == pytest.approx(0.95)


class TestAggregatedTime:
    def test_max_rule(self):
        robot = goal_robot(n=31, dt=0.1, speed=1.0, goal_xy=(3.0, 0.0), tolerance=0.05)
        a = make_agent("a", line_points((0, 1), (3, 1), 31), dt=0.1,
                       goal=Goal(3.0, 1.0, 0.15))
        b = make_agent("b", line_points((0, 2), (1.5, 2), 31), dt=0.1,
                       goal=Goal(1.5, 2.0, 0.15))
        ep = make_episode([robot, a, b])
        params = MetricParams(cooperative_agent_ids=frozenset({"a", "b"}))
        at = metric(ep, "AT", params)
        # a reaches |3 - x| <= 0.15 at x = 2.85 -> t = 2.85; b at t halfway
        assert at == pytest.approx(2.9, abs=0.11)

    def test_empty_set_none(self):
        ep = make_episode([goal_robot()])
        assert metric(ep, "AT", PARAMS) is None

    def test_unreached_none(self):
        robot = goal_robot()
        a = make_agent("a", [(0, 1)] * 11, dt=0.1,
                       goal=Goal(9.0, 9.0, 0.1))
        ep = make_episode([robot, a])
        params = MetricParams(cooperative_agent_ids=frozenset({"a"}))
        assert metric(ep, "AT", params) is None


class TestComputeAll:
    def test_all_keys_present(self):
        report = compute_all(fuzz_episode(3), PARAMS)
        assert tuple(report.taskwise) == TASKWISE_KEYS

    def test_taxonomy_codes(self):
        report = compute_all(fuzz_episode(3), PARAMS)
        assert report.taskwise["S"].code == "NHT"
        assert report.taskwise["SC"].code == "SHT"
        for key in ("C", "WC", "AC", "HC", "TO", "FP", "ST", "T", "PL", "SPL"):
            assert report.taskwise[key].code == "NHT"
        for key in ("V_avg", "A_max", "J_min", "CD_min", "CD_avg", "DH_min", "TTC", "AT"):
            assert report.taskwise[key].code == "SHT"

    def test_params_recorded(self):
        report = compute_all(fuzz_episode(3), PARAMS)
        assert report.taskwise["SC"].params_used["space_threshold"] == 0.5
        assert report.taskwise["FP"].params_used["fp_window"] == PARAMS.fp_window
        assert report.dt > 0

    def test_stepwise_series(self):
        report = compute_all(fuzz_episode(3), PARAMS, include_stepwise=True)
        assert "speed" in report.stepwise
        speed = report.stepwise["speed"]
        assert len(speed.timeline) == len(speed.values)
        assert "acceleration" in report.stepwise
        assert "jerk" in report.stepwise

    def test_goalless_episode_has_null_goal_metrics(self):
        ep = fuzz_episode(4, with_goal=False)
        report = compute_all(ep, PARAMS)
        assert report.taskwise["S"].value is None
        assert report.taskwise["SPL"].value is None
        assert report.taskwise["T"].value is None
        assert isinstance(report.taskwise["PL"].value, float)


def test_compute_all_measures_obstacles_once(monkeypatch):
    calls = []
    real = socnav.metrics.point_segment_distance

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(socnav.metrics, "point_segment_distance", counting)
    robot = goal_robot(n=31, goal_xy=(3.0, 0.0))
    wall = ObstacleMap(segments=((1.0, -1.0, 1.0, 1.0),))
    ep = make_episode([robot], obstacles=wall)
    params = MetricParams(collision_terminate_count=1)
    report = compute_all(ep, params, dt=0.1, include_stepwise=True)
    assert report.taskwise["WC"].value == 1 and report.taskwise["S"].value is False
    assert len(calls) == 1


def _short_robot_episode(n):
    robot = make_agent("robot", [(0.1 * i, 0.0) for i in range(n)], dt=0.1,
                       kind=AgentKind.ROBOT, velocities=[(1.0, 0.0)] * n,
                       goal=Goal(0.3, 0.0, 0.2))
    human = make_agent("h", [(1.0, 0.1 * i) for i in range(6)], dt=0.1)
    wall = ObstacleMap(segments=((0.5, -1.0, 0.5, 1.0),))
    return make_episode([robot, human], obstacles=wall, episode_id=f"robot-{n}-states")


CONSISTENCY_CORPUS = ([fuzz_episode(s) for s in range(3)]
                      + [fuzz_episode(s, with_goal=False) for s in range(3)]
                      + [_short_robot_episode(n) for n in range(1, 6)])
GOLDEN_PARAMS = params_from_jsonable(
    json.loads((Path(__file__).parent / "golden" / "params.json").read_bytes()))

# Robot states each kinematic family needs, and whether its derivative
# stencil needs 3 timeline steps.
KINEMATIC = {V_KEYS: (2, False), A_KEYS: (3, True), J_KEYS: (4, True)}
# Keys whose kernel may give None: T without success, CD_avg without
# obstacles, AT without a cooperative set that reaches its goals.
VALUE_NULLS = {"T", "CD_avg", "AT"}


def _expected_null(ep, steps):
    null = set(GOAL_KEYS) if ep.robot.goal is None else set()
    for keys, (states, stencil) in KINEMATIC.items():
        if len(ep.robot.t) < states or (stencil and steps < 3):
            null.update(keys)
    return null


@pytest.mark.parametrize("dt", [None, 0.03, 1.0])
@pytest.mark.parametrize("params", [PARAMS, GOLDEN_PARAMS], ids=["default", "golden"])
@pytest.mark.parametrize("ep", CONSISTENCY_CORPUS, ids=lambda ep: ep.episode_id)
def test_undefined_metrics_are_exactly_null(ep, params, dt):
    """compute_all nulls exactly the keys the episode cannot define; every other
    key holds its kernel's value, which is None only for a key of VALUE_NULLS."""
    report = compute_all(ep, params, dt)
    frames = _Frames(ep, params, dt)
    expected = _expected_null(ep, len(frames.timeline))
    for row in socnav.metrics._ROWS:
        got = tuple(report.taskwise[key].value for key in row.keys)
        if expected.isdisjoint(row.keys):
            assert got == row.values(frames), row.keys
            assert all(v is not None or k in VALUE_NULLS for k, v in zip(row.keys, got)), row.keys
        else:
            assert expected.issuperset(row.keys) and got == (None,) * len(row.keys), row.keys


def _readme_metric_table():
    """(key, unit, code) for each key of the README's "Metric suite" table, in order."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Metric suite", 1)[1].split("\n## ", 1)[0]
    out = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("`"):
            continue
        unit = cells[2].replace("²", "^2").replace("³", "^3")
        for name in re.findall(r"`([^`]+)`", cells[0]):
            # `V_min/avg/max` stands for V_min, V_avg and V_max
            head, *tails = name.split("/")
            prefix = head.rsplit("_", 1)[0] + "_"
            out.extend((key, unit, cells[3]) for key in [head, *(prefix + t for t in tails)])
    return out


def test_readme_metric_table_matches_the_suite():
    table = _readme_metric_table()
    assert [key for key, _, _ in table] == list(TASKWISE_KEYS)
    for key, unit, code in table:
        assert (unit, code) == (UNITS[key], taxonomy_code(key)), key


class TestInvariances:
    @pytest.mark.parametrize("seed", range(8))
    def test_rigid_transform_invariance(self, seed):
        ep = fuzz_episode(seed)
        moved = rigid_transform(ep, angle=1.1, tx=20.0, ty=-7.0)
        assert metric(moved, "PL") == pytest.approx(metric(ep, "PL"), abs=1e-9)
        assert metric(moved, "DH_min", PARAMS, dt=0.1) == pytest.approx(
            metric(ep, "DH_min", PARAMS, dt=0.1), abs=1e-9)
        assert metric(moved, "SC", PARAMS, dt=0.1) == pytest.approx(
            metric(ep, "SC", PARAMS, dt=0.1), abs=1e-12)
        assert metric(moved, COLLISIONS, PARAMS, dt=0.1) == metric(ep, COLLISIONS, PARAMS, dt=0.1)
        cd_m = metric(moved, CD_KEYS, PARAMS, dt=0.1)
        cd_o = metric(ep, CD_KEYS, PARAMS, dt=0.1)
        assert cd_m[0] == pytest.approx(cd_o[0], abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_time_scaling(self, seed):
        k = 3.0
        ep = fuzz_episode(seed, with_obstacles=False)
        slow = scale_time(ep, k)
        params = MetricParams()
        scaled = MetricParams(timeout=params.timeout * k,
                              fp_window=params.fp_window * k,
                              stall_speed=params.stall_speed / k,
                              stall_min_duration=params.stall_min_duration * k)
        assert metric(slow, "PL") == pytest.approx(metric(ep, "PL"), abs=1e-9)
        assert metric(slow, "S", scaled, dt=0.1 * k) == metric(ep, "S", params, dt=0.1)
        t_fast = metric(ep, "T", params, dt=0.1)
        t_slow = metric(slow, "T", scaled, dt=0.1 * k)
        if t_fast is None:
            assert t_slow is None
        else:
            assert t_slow == pytest.approx(k * t_fast, rel=1e-9)
        st_fast = metric(ep, "ST", params, dt=0.1)
        st_slow = metric(slow, "ST", scaled, dt=0.1 * k)
        assert st_slow == pytest.approx(k * st_fast, rel=1e-9, abs=1e-9)
        ttc_fast = metric(ep, "TTC", params, dt=0.1)
        ttc_slow = metric(slow, "TTC", scaled, dt=0.1 * k)
        if math.isinf(ttc_fast):
            assert math.isinf(ttc_slow)
        else:
            assert ttc_slow == pytest.approx(k * ttc_fast, rel=1e-6)

    @pytest.mark.parametrize("seed", range(20))
    def test_spl_bounds(self, seed):
        ep = fuzz_episode(seed)
        value = metric(ep, "SPL", PARAMS)
        assert 0.0 <= value <= 1.0
        assert (value == 0.0) == (not metric(ep, "S", PARAMS))

    def test_spl_zero_iff_failure_on_degenerate_start(self):
        # starts exactly on the goal, wanders, returns: still a success
        robot = make_agent("robot", [(0, 0), (1, 0), (0.5, 0), (0, 0)], dt=1.0,
                           kind=AgentKind.ROBOT,
                           goal=Goal(0.0, 0.0, 0.2))
        ep = make_episode([robot])
        assert metric(ep, "S", PARAMS)
        assert metric(ep, "SPL", PARAMS) == 1.0
