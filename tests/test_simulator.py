import dataclasses
import hashlib
import math

import numpy as np
import pytest

from socnav.core import (
    MAX_TIMELINE_STEPS,
    AgentKind,
    Goal,
    MetricParams,
    ObstacleMap,
    check_episode,
)
from socnav.errors import InvariantError, UnknownScenario
from socnav.geometry import sightlines_blocked, wrap_angle
from socnav.ingest import parse_episode, serialize_episode, validate
from socnav.metrics import compute_all
from socnav.report import write_output
from socnav.scenarios import classify, serialize_labels
from socnav.simulator import (
    SCENARIO_NAMES,
    AgentSpec,
    SimConfig,
    _V_MAX,
    _uniform_stream,
    generate_scenario,
    run,
)

from conftest import metric
from oracles import SimState, reference_step

PARAMS = MetricParams()


def single_agent_config(max_duration=20.0, desired_speed=1.0, policy="sfm",
                        scene=ObstacleMap(), goal_xy=(5.0, 0.0)):
    spec = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT, policy=policy,
                     position=(0.0, 0.0),
                     goal=Goal(*goal_xy, 0.2),
                     desired_speed=desired_speed)
    return SimConfig(dt=0.05, max_duration=max_duration, agents=(spec,), scene=scene)


def first_step(config):
    """The episode of one dt from config: row 1 is the state after the first step."""
    return run(dataclasses.replace(config, max_duration=config.dt))


def _human(agent_id, start, goal, policy="sfm", kind=AgentKind.HUMAN, **kwargs):
    return AgentSpec(agent_id=agent_id, kind=kind, policy=policy,
                     position=start, goal=Goal(*goal, 0.3),
                     **kwargs)


WALL = (1.0, 1.0, 2.0, 1.0)
POINT_WALL = (1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("scene, path", [
    (ObstacleMap(dynamic=((math.nan, (WALL,)),)), "/obstacles/dynamic/0/t"),
    (ObstacleMap(dynamic=((0.0, ()), (math.inf, (WALL,)))), "/obstacles/dynamic/1/t"),
    (ObstacleMap(dynamic=((2.0, (WALL,)), (1.0, ()))), "/obstacles/dynamic/1/t"),
    (ObstacleMap(segments=(WALL, POINT_WALL)), "/obstacles/segments/1"),
    (ObstacleMap(dynamic=((1.0, (POINT_WALL,)),)), "/obstacles/dynamic/0/segments/0"),
])
def test_config_rejects_scene_the_checks_reject(scene, path):
    """set_index needs finite, time-ordered stamps: a SimConfig scene is checked as an episode's is."""
    with pytest.raises(InvariantError) as raised:
        single_agent_config(scene=scene)
    assert raised.value.path == path


class TestStep:
    def test_open_space_goal_reach_time(self):
        # single SFM agent, goal 5 m ahead: at most 1.5x the straight-line time
        for speed in (0.6, 1.0, 1.5):
            ep = run(single_agent_config(desired_speed=speed))
            reach = ep.robot.t_end
            assert reach <= 1.5 * (5.0 / speed), f"speed {speed}: {reach}"
            d = np.linalg.norm(ep.robot.positions[-1] - (5.0, 0.0))
            assert d <= 0.2

    def test_agent_at_goal_stays(self):
        spec = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT, policy="sfm",
                         position=(5.0, 0.0),
                         goal=Goal(5.0, 0.0, 0.2))
        # a far-off walker that does not arrive keeps run going for all 40 steps
        walker = _human("h0", (-20.0, 0.0), (-40.0, 0.0))
        ep = run(SimConfig(dt=0.05, max_duration=2.0, agents=(spec, walker)))
        assert len(ep.robot.t) == 41
        assert np.all(np.linalg.norm(ep.robot.positions - (5.0, 0.0), axis=1) <= 0.2)

    def test_straight_line_stop_freezes_at_wall(self):
        wall = ObstacleMap(segments=((0.3, -1.0, 0.3, 1.0),))
        config = single_agent_config(policy="straight_line_stop", scene=wall,
                                     goal_xy=(5.0, 0.0))
        robot = first_step(config).robot
        assert (robot.vx[1], robot.vy[1]) == (0.0, 0.0)
        assert tuple(robot.positions[1]) == tuple(robot.positions[0])

    def test_straight_line_stop_blocked_by_agent(self):
        robot = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT,
                          policy="straight_line_stop", position=(0.0, 0.0),
                          goal=Goal(5.0, 0.0, 0.2))
        blocker = AgentSpec(agent_id="h", kind=AgentKind.HUMAN, policy="sfm",
                            position=(0.5, 0.0))  # within 0.3+0.3+0.1
        config = SimConfig(dt=0.05, max_duration=1.0, agents=(robot, blocker))
        robot = first_step(config).robot
        assert (robot.vx[1], robot.vy[1]) == (0.0, 0.0)

    def test_straight_line_stop_ignores_rear_agent(self):
        robot = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT,
                          policy="straight_line_stop", position=(0.0, 0.0),
                          goal=Goal(5.0, 0.0, 0.2))
        rear = AgentSpec(agent_id="h", kind=AgentKind.HUMAN, policy="sfm",
                         position=(-0.5, 0.0))
        config = SimConfig(dt=0.05, max_duration=1.0, agents=(robot, rear))
        robot = first_step(config).robot
        assert math.hypot(robot.vx[1], robot.vy[1]) > 0.0

    def test_waypoints_path(self):
        spec = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT,
                         policy="sfm", position=(0.0, 0.0),
                         goal=Goal(2.0, 2.0, 0.2),
                         waypoints=((2.0, 0.0),))
        config = SimConfig(dt=0.05, max_duration=10.0, agents=(spec,))
        ep = run(config)
        xs = ep.robot.positions
        # visits the corner (2, 0) before the goal (2, 2)
        corner_near = np.min(np.linalg.norm(xs - (2.0, 0.0), axis=1))
        assert corner_near <= 0.45
        assert np.linalg.norm(xs[-1] - (2.0, 2.0)) <= 0.2


# sha256 of serialize_episode(run(generate_scenario(name, 3, policy))): any change to
# the simulator's arithmetic, its stop rule or the episode writer shows here.
CORPUS_SHA256 = "97c1725fd530da8689776641a9c38295564eebbcfa3784b3e8b8ea42f298629a"

EPISODE_SHA256 = {
    ("frontal_approach", "sfm"):
        "d0406eda218f0b7c8cd41850bfa83a71d48bf92dd692ec93b013feb964a09bca",
    ("frontal_approach", "straight_line_stop"):
        "59d82cb366de99e773631bbc054e9f1023459ccd49b344eb09d4b37b476e8920",
    ("robot_overtaking", "sfm"):
        "dc721ee0f7374878e1248f36719d6e7e57718c55459fda4196d44edb0701ef59",
    ("robot_overtaking", "straight_line_stop"):
        "205eff7cc020bd3dd28d79a05daa79f17d251e5ccc3c9800ebe80f8e9d535e3d",
    ("pedestrian_overtaking", "sfm"):
        "245d49faf4687dbd895d7583bd25cbcdef59e6af9310c2ffee910979bb886ef5",
    ("pedestrian_overtaking", "straight_line_stop"):
        "df71ff4d6decdd4e65e726be53e402dd8dfaf936d99a05b4aefb15d81d00ee6d",
    ("intersection", "sfm"):
        "4fee435682c30258108a0bde95d247691ab2a2db56ca62e40998423dc97e77e9",
    ("intersection", "straight_line_stop"):
        "41bf057b1dee2aea746ad19b5d975d32196e3c3525fced7c9e0de075a6593547",
    ("blind_corner", "sfm"):
        "d6b6aabbf7813d41d4569d3b0377dcfa1dd637f198c3cf80752773a224e4438c",
    ("blind_corner", "straight_line_stop"):
        "d78f07e96df50978ee15077c9dda124b4fdc3cf82f3ef1f4f0ae0f280ad00add",
    ("parallel_traffic", "sfm"):
        "0b6f7e3252c85e5145974a4998727361f06e7774f2b328e3cac9bafe8caf41c8",
    ("parallel_traffic", "straight_line_stop"):
        "4acd521bd3d3079ba82e7a378376e27e275a70253089c0d84861e95cf4ce1f55",
    ("perpendicular_traffic", "sfm"):
        "ad91147c28d0b639de94e40d1161417450c442da743081cc25a69eda3300a34b",
    ("perpendicular_traffic", "straight_line_stop"):
        "c756205ab42eb29ae086e6d082c8343b27f59717cc59144834aa1e93d3311f5b",
    ("random_crossing", "sfm"):
        "9a23d2f864ef641ab2afae486a851d59c4f7c685bb6166dec9433aa9ab24f031",
    ("random_crossing", "straight_line_stop"):
        "de5c34d10bd441bb612d464c789a8792dc012e320657a4e5a6a4791f0f2c1bbc",
}


class TestRun:
    def test_state_count_cap(self):
        config = single_agent_config(max_duration=10.0, goal_xy=(100.0, 0.0))
        config = SimConfig(dt=0.05, max_duration=10.0, agents=config.agents)
        ep = run(config)
        assert len(ep.robot.t) <= 201

    def test_determinism_byte_identical(self):
        for name in ("frontal_approach", "random_crossing"):
            a = serialize_episode(run(generate_scenario(name, 42)))
            b = serialize_episode(run(generate_scenario(name, 42)))
            assert a == b

    def test_seeds_differ(self):
        a = serialize_episode(run(generate_scenario("frontal_approach", 1)))
        b = serialize_episode(run(generate_scenario("frontal_approach", 2)))
        assert a != b

    def test_episodes_validate_and_round_trip(self):
        for name in SCENARIO_NAMES:
            ep = run(generate_scenario(name, 11))
            assert check_episode(ep) == []
            assert parse_episode(serialize_episode(ep)) == ep
            assert ep.metadata["scenario"] == name
            assert ep.metadata["seed"] == "11"

    def test_config_without_agents_rejected(self):
        with pytest.raises(InvariantError) as err:
            SimConfig(max_duration=0.2)
        assert err.value.path == "/agents"

    @pytest.mark.parametrize("agents, message", [
        ((_human("h", (0.0, 0.0), (1.0, 0.0)),), "must hold a robot agent"),
        ((_human("a", (0.0, 0.0), (1.0, 0.0), kind=AgentKind.ROBOT),
          _human("b", (0.0, 2.0), (1.0, 2.0)), _human("a", (0.0, 4.0), (1.0, 4.0))),
         "duplicate agent ids: ['a']"),
    ], ids=["no-robot", "duplicate-id"])
    def test_config_whose_episode_validate_refuses_rejected(self, agents, message):
        """Without the refusal, run would write an episode that validate rejects."""
        with pytest.raises(InvariantError) as err:
            SimConfig(max_duration=0.2, agents=agents)
        assert (err.value.path, err.value.message) == ("/agents", message)

    def test_robot_need_not_be_the_first_agent(self):
        robot = single_agent_config().agents[0]
        config = SimConfig(max_duration=1.0,
                           agents=(_human("h0", (0.0, 2.0), (5.0, 2.0)), robot))
        ep = run(config)
        assert ep.robot_under_test == "robot"
        assert validate(serialize_episode(ep)) == []

    @pytest.mark.parametrize("value", [0.0, -0.1, math.inf, math.nan, "x", np.float32(0.1), True])
    @pytest.mark.parametrize("field, path", [
        ("dt", "/dt"), ("max_duration", "/max_duration"),
        ("desired_speed", "/agents/robot/desired_speed"), ("radius", "/agents/robot/radius"),
        ("tolerance", "/agents/robot/goal/tolerance"),
    ])
    def test_config_values_run_cannot_honour_rejected(self, field, path, value):
        """An infinite max_duration would never end run's loop: only the constructors run here.
        A goal tolerance of 0 would give an episode that validate refuses."""
        spec = single_agent_config().agents[0]
        with pytest.raises(InvariantError) as err:
            if field in ("dt", "max_duration"):
                SimConfig(agents=(spec,), **{field: value})
            elif field == "tolerance":
                dataclasses.replace(spec, goal=Goal(spec.goal.x, spec.goal.y, value))
            else:
                dataclasses.replace(spec, **{field: value})
        assert err.value.path == path
        assert err.value.message == f"must be a positive finite number, got {value}"

    @pytest.mark.parametrize("dt, max_duration, accepted", [
        (1.0, MAX_TIMELINE_STEPS - 2.0, True),
        (1.0, math.nextafter(MAX_TIMELINE_STEPS - 2.0, math.inf), False),
        (0.05, 49_999.0, True), (0.05, 50_000.0, False), (0.05, 1e9, False),
        (1e-300, 1e300, False),
    ])
    def test_config_refuses_more_steps_than_check_episode_allows(self, dt, max_duration, accepted):
        """run may take one step past max_duration / dt, so the cap sits two steps inside
        MAX_TIMELINE_STEPS. Only the constructor runs: no million-step episode here."""
        spec = single_agent_config().agents[0]
        if accepted:
            SimConfig(dt=dt, max_duration=max_duration, agents=(spec,))
            return
        with pytest.raises(InvariantError) as err:
            SimConfig(dt=dt, max_duration=max_duration, agents=(spec,))
        assert err.value.path == "/max_duration"
        assert err.value.message == (f"{max_duration} s at dt {dt} asks for {max_duration / dt:.3e} "
                                     f"steps; at most {MAX_TIMELINE_STEPS - 2} are allowed")

    def test_unknown_policy_rejected(self):
        with pytest.raises(InvariantError) as err:
            dataclasses.replace(single_agent_config().agents[0], policy="fly")
        assert err.value.path == "/agents/robot/policy"

    def test_ids_that_are_not_strings_rejected(self):
        """validate reads an id only as a string: an int would run to an episode it refuses."""
        spec = single_agent_config().agents[0]
        with pytest.raises(InvariantError) as err:
            SimConfig(agents=(spec,), episode_id=7)
        assert (err.value.path, err.value.message) == ("/episode_id", "expected a string, got int")
        with pytest.raises(InvariantError) as err:
            dataclasses.replace(spec, agent_id=7)
        assert (err.value.path, err.value.message) == ("/agents/7", "expected a string, got int")

    def test_kind_must_be_an_agent_kind(self):
        """A str kind would run, and the writer would fail on it; a lone robot given as
        "robot" is refused at its kind, not as a config without a robot."""
        with pytest.raises(InvariantError) as err:
            _human("h", (0.0, 2.0), (1.0, 2.0), kind="human")
        assert (err.value.path, err.value.message) == (
            "/agents/h/kind", "expected an AgentKind, got 'human'")
        with pytest.raises(InvariantError) as err:
            SimConfig(agents=(dataclasses.replace(single_agent_config().agents[0], kind="robot"),))
        assert err.value.path == "/agents/robot/kind"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_start_must_be_finite(self, value):
        """A NaN start would only fail mid-run, as a non-finite state at /sim."""
        with pytest.raises(InvariantError) as err:
            dataclasses.replace(single_agent_config().agents[0], position=(0.0, value))
        assert (err.value.path, err.value.message) == ("/agents/robot/position", "must be finite")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_goal_must_be_finite(self, value):
        """A NaN goal would run to an episode the writer cannot write; the message is
        check_episode's. A far but finite goal still runs."""
        spec = single_agent_config().agents[0]
        with pytest.raises(InvariantError) as err:
            dataclasses.replace(spec, goal=Goal(value, 0.0, 0.2))
        assert (err.value.path, err.value.message) == ("/agents/robot/goal",
                                                       "position must be finite")
        far = dataclasses.replace(spec, goal=Goal(1e308, 0.0, 0.2))
        assert check_episode(parse_episode(serialize_episode(
            run(SimConfig(dt=0.1, max_duration=3.0, agents=(far,)))))) == []

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_waypoints_must_be_finite(self, value):
        """A NaN waypoint would be passed by without a word."""
        with pytest.raises(InvariantError) as err:
            dataclasses.replace(single_agent_config().agents[0],
                                waypoints=((1.0, 0.0), (value, 1.0)))
        assert (err.value.path, err.value.message) == ("/agents/robot/waypoints/1",
                                                       "must be finite")

    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenario):
            generate_scenario("conga_line", 0)

    def test_non_finite_state_raised_at_the_same_step(self):
        # a wall from x = -1e308 to 1e308 appears at t = 0.2: its squared length
        # overflows, and the robot's wall force with it
        wall = ObstacleMap(dynamic=((0.2, ((-1e308, 1.0, 1e308, 1.0),)),))
        config = single_agent_config(scene=wall)
        steps = 4  # states 0..4 exist; the step from t = 0.2 fails
        before = dataclasses.replace(config, max_duration=steps * config.dt)
        assert len(run(before).robot.t) == steps + 1
        with pytest.raises(InvariantError) as by_run:
            run(dataclasses.replace(config, max_duration=(steps + 1) * config.dt))
        assert by_run.value.path == "/sim"
        assert by_run.value.message == "non-finite state produced"

    @pytest.mark.parametrize("robot_policy", ("sfm", "straight_line_stop"))
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_episode_bytes_pinned(self, name, robot_policy):
        episode = serialize_episode(run(generate_scenario(name, 3, robot_policy)))
        assert hashlib.sha256(episode).hexdigest() == EPISODE_SHA256[name, robot_policy]

    def test_corpus_outputs_pinned(self):
        """One digest over every scenario, both robot policies and three seeds (the last
        past numpy's 4-word seed pool): each episode's bytes and stepwise report, then
        each policy's labels document."""
        digest = hashlib.sha256()
        for robot_policy in ("sfm", "straight_line_stop"):
            labels = {}
            for name in SCENARIO_NAMES:
                for seed in (0, 7, 2**128 + 1):
                    ep = run(generate_scenario(name, seed, robot_policy))
                    digest.update(serialize_episode(ep))
                    digest.update(write_output(compute_all(ep, include_stepwise=True)))
                    labels[ep.episode_id] = classify(ep)
            digest.update(serialize_labels(labels))
        assert digest.hexdigest() == CORPUS_SHA256

    def test_speeds_capped(self):
        for seed in range(5):
            ep = run(generate_scenario("random_crossing", seed))
            for agent in ep.agents:
                speeds = np.hypot(agent.vx, agent.vy)
                assert np.all(speeds <= _V_MAX + 1e-9)


# Every (low, high) pair generate_scenario draws with.
_UNIFORM_BOUNDS = ((-0.5, 0.5), (-0.1, 0.1), (-0.15, 0.15), (-0.2, 0.2), (-0.3, 0.3),
                   (-0.05, 0.05), (-1.5, 1.5), (-0.4, 0.4), (0.0, 1.8), (-0.6, 0.6))


class TestUniformStream:
    """The scenario jitter is numpy's ``default_rng(seed).uniform`` stream, bit for bit."""

    @pytest.mark.parametrize("seeds", [
        pytest.param(range(2001), id="0-2000"),
        pytest.param(np.random.default_rng(2023).integers(0, 2**64, 2000, dtype=np.uint64).tolist(),
                     id="random-below-2**64"),
        # 2**128 + 1 has five 32-bit words: SeedSequence mixes the fifth in past its 4-word pool.
        pytest.param([2**32 - 1, 2**32, 2**64, 2**128 + 1, 10**40], id="word-boundaries"),
    ])
    def test_matches_numpy_generator(self, seeds):
        bounds = [_UNIFORM_BOUNDS[k % len(_UNIFORM_BOUNDS)] for k in range(30)]
        for seed in seeds:
            ours, oracle = _uniform_stream(seed), np.random.default_rng(seed)
            assert ([ours(low, high).hex() for low, high in bounds]
                    == [oracle.uniform(low, high).hex() for low, high in bounds]), seed

    def test_numpy_integer_seed(self):
        assert generate_scenario("random_crossing", np.uint64(7)) == generate_scenario(
            "random_crossing", 7)
        with pytest.raises(TypeError):
            generate_scenario("random_crossing", 7.0)


class TestScenarioGeometry:
    def test_frontal_corridor_passable(self):
        config = generate_scenario("frontal_approach", 5)
        robot = next(a for a in config.agents if a.kind is AgentKind.ROBOT)
        human = next(a for a in config.agents if a.kind is AgentKind.HUMAN)
        width = abs(config.scene.segments[0][1] - config.scene.segments[1][1])
        assert width > 2 * (robot.radius + human.radius)

    def test_blind_corner_sightline_blocked_early(self):
        ep = run(generate_scenario("blind_corner", 9))
        seg_a, seg_b = ep.obstacles.static_arrays
        robot, human = ep.robot, ep.agent("h0")
        n = min(len(robot.t), len(human.t))
        blocked = sightlines_blocked(robot.positions[:n:5], human.positions[:n:5], seg_a, seg_b)
        assert blocked.any(), "blind corner must occlude the pair before the encounter"

    def test_overtaking_pass_happens(self):
        ep = run(generate_scenario("robot_overtaking", 3))
        robot, human = ep.robot, ep.agent("h0")
        n = min(len(robot.t), len(human.t))
        gap = robot.positions[:n, 0] - human.positions[:n, 0]
        assert gap[0] < 0 and gap[n - 1] > 0  # behind at start, ahead at end

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_zero_collisions_at_defaults(self, name):
        for seed in (0, 17, 31):
            ep = run(generate_scenario(name, seed))
            c = metric(ep, "C", PARAMS, dt=0.05)
            assert c == 0, f"{name} seed {seed}: {c} collision(s)"

    def test_crowd_scenarios_have_crowds(self):
        for name in ("parallel_traffic", "perpendicular_traffic"):
            config = generate_scenario(name, 0)
            humans = [a for a in config.agents if a.kind is AgentKind.HUMAN]
            assert len(humans) >= 5


def _assert_run_matches_reference(config):
    """Feed reference_step each row run recorded: it must give the next row.

    The reference carries the waypoint indices and the goal-reached flags
    itself. run stops at the first row where every goal-bearing agent has
    reached its goal, and otherwise at max_duration.
    """
    ep = run(config)
    times = ep.robot.t.tolist()
    pos = np.stack([a.positions for a in ep.agents], axis=1)
    vel = np.stack([np.column_stack((a.vx, a.vy)) for a in ep.agents], axis=1)
    heading = np.stack([a.heading for a in ep.agents], axis=1)
    n = len(config.agents)
    goal_bearing = [i for i, a in enumerate(config.agents) if a.goal is not None]
    waypoint_idx, reached = np.zeros(n, dtype=int), np.zeros(n, dtype=bool)
    assert len(times) > 1
    for k in range(len(times) - 1):
        where = f"{config.episode_id} at t={times[k]:.2f}"
        want = reference_step(SimState(times[k], pos[k], vel[k], heading[k],
                                       waypoint_idx, reached), config)
        assert times[k + 1] == want.t, where
        np.testing.assert_allclose(pos[k + 1], want.pos, rtol=0, atol=1e-9, err_msg=where)
        np.testing.assert_allclose(vel[k + 1], want.vel, rtol=0, atol=1e-9, err_msg=where)
        assert np.all(np.abs(wrap_angle(heading[k + 1] - want.heading)) <= 1e-9), where
        assert np.all(np.abs(heading[k + 1]) <= np.pi), where
        assert not np.any(heading[k + 1] == -np.pi), where
        waypoint_idx, reached = want.waypoint_idx, want.reached
        all_reached = bool(goal_bearing) and bool(reached[goal_bearing].all())
        assert not all_reached or k == len(times) - 2, where
    assert all_reached or times[-1] >= config.max_duration - 1e-9


class TestRunMatchesReference:
    @pytest.mark.parametrize("robot_policy", ("sfm", "straight_line_stop"))
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenarios(self, name, robot_policy):
        _assert_run_matches_reference(generate_scenario(name, 3, robot_policy))

    def test_waypoints_agent(self):
        robot = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT, policy="sfm",
                          position=(0.0, 0.0),
                          goal=Goal(2.0, 2.0, 0.2),
                          waypoints=((2.0, 0.0), (2.0, 1.0)))
        config = SimConfig(dt=0.05, max_duration=8.0, episode_id="waypoints",
                           agents=(robot, _human("h0", (4.0, 0.2), (-2.0, 0.0))),
                           scene=ObstacleMap(segments=((-1.0, -0.8, 5.0, -0.8),)))
        _assert_run_matches_reference(config)

    def test_dynamic_obstacles(self):
        door = (1.5, -1.5, 1.5, 1.5)
        scene = ObstacleMap(segments=((-3.0, 1.2, 6.0, 1.2),
                                      (-3.0, -1.2, 6.0, -1.2)),
                            dynamic=((0.0, (door,)), (1.5, ()),
                                     (3.0, ((3.0, 0.2, 3.5, 0.6),))))
        robot = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT, policy="straight_line_stop",
                          position=(0.0, -0.4), radius=0.25,
                          goal=Goal(5.0, -0.4, 0.2))
        config = SimConfig(dt=0.05, max_duration=8.0, episode_id="dynamic", scene=scene,
                           agents=(robot, _human("h0", (0.5, 0.4), (5.0, 0.4)),
                                   _human("h1", (5.0, 0.0), (-2.0, 0.0), radius=0.5)))
        _assert_run_matches_reference(config)

    def test_agent_starting_on_goal(self):
        config = SimConfig(dt=0.05, max_duration=2.0, episode_id="on-goal",
                           agents=(_human("h0", (1.0, 1.0), (1.0, 1.0), kind=AgentKind.ROBOT),
                                   _human("h1", (1.0, -1.0), (1.0, -1.0),
                                          policy="straight_line_stop"),
                                   _human("h2", (3.0, 1.0), (-2.0, 1.0)),
                                   # nearly on top of h0: inside the 1e-6 m distance floor
                                   _human("h3", (1.0 + 5e-7, 1.0), (4.0, 1.0))))
        _assert_run_matches_reference(config)

    def test_agent_starting_on_a_wall(self):
        # h0 starts on the wall itself: no direction to push it along, so the wall
        # exerts no force on the first step
        config = SimConfig(dt=0.05, max_duration=3.0, episode_id="on-wall",
                           agents=(_human("h0", (1.0, -0.8), (1.0, 1.0), kind=AgentKind.ROBOT),
                                   _human("h1", (3.0, -0.8), (3.0, 1.0),
                                          policy="straight_line_stop")),
                           scene=ObstacleMap(segments=((-1.0, -0.8, 5.0, -0.8),)))
        _assert_run_matches_reference(config)

    def test_westward_heading_wraps_to_pi(self):
        # goal.y - pos.y is -0.0, so atan2 sees (-0.0, -v) and returns -pi
        config = SimConfig(dt=0.05, max_duration=1.0, episode_id="west",
                           agents=(_human("h0", (0.0, 0.0), (-5.0, -0.0), kind=AgentKind.ROBOT,
                                          policy="straight_line_stop"),))
        assert first_step(config).agents[0].heading[1] == math.pi
        _assert_run_matches_reference(config)
