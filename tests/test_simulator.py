import dataclasses
import math

import numpy as np
import pytest

from socnav.core import (
    AgentKind,
    AgentRecord,
    Goal,
    MetricParams,
    ObstacleMap,
    Vec2,
    validate_episode,
)
from socnav.errors import InvariantError, UnknownScenario
from socnav.geometry import segment_blocked, wrap_angle
from socnav.ingest import parse_episode, serialize_episode
from socnav.metrics import collisions
from socnav.simulator import (
    SCENARIO_NAMES,
    AgentSpec,
    SimConfig,
    SfmParams,
    generate_scenario,
    init_state,
    run,
    step,
)

from oracles import reference_step

PARAMS = MetricParams()


def single_agent_config(max_duration=20.0, desired_speed=1.0, policy="sfm",
                        scene=ObstacleMap(), goal_xy=(5.0, 0.0)):
    spec = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT, policy=policy,
                     position=Vec2(0.0, 0.0),
                     goal=Goal(position=Vec2(*goal_xy), tolerance=0.2),
                     desired_speed=desired_speed)
    return SimConfig(dt=0.05, max_duration=max_duration, agents=(spec,), scene=scene)


WALL = (Vec2(1.0, 1.0), Vec2(2.0, 1.0))
POINT_WALL = (Vec2(1.0, 1.0), Vec2(1.0, 1.0))


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
                         position=Vec2(5.0, 0.0),
                         goal=Goal(position=Vec2(5.0, 0.0), tolerance=0.2))
        config = SimConfig(dt=0.05, max_duration=3.0, agents=(spec,))
        state = init_state(config)
        for _ in range(40):
            state = step(state, config)
        assert np.linalg.norm(state.pos[0] - (5.0, 0.0)) <= 0.2

    def test_straight_line_stop_freezes_at_wall(self):
        wall = ObstacleMap(segments=((Vec2(0.3, -1.0), Vec2(0.3, 1.0)),))
        config = single_agent_config(policy="straight_line_stop", scene=wall,
                                     goal_xy=(5.0, 0.0))
        state = init_state(config)
        nxt = step(state, config)
        assert tuple(nxt.vel[0]) == (0.0, 0.0)
        assert tuple(nxt.pos[0]) == tuple(state.pos[0])

    def test_straight_line_stop_blocked_by_agent(self):
        robot = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT,
                          policy="straight_line_stop", position=Vec2(0.0, 0.0),
                          goal=Goal(position=Vec2(5.0, 0.0), tolerance=0.2))
        blocker = AgentSpec(agent_id="h", kind=AgentKind.HUMAN, policy="sfm",
                            position=Vec2(0.5, 0.0))  # within 0.3+0.3+0.1
        config = SimConfig(dt=0.05, max_duration=1.0, agents=(robot, blocker))
        state = step(init_state(config), config)
        assert tuple(state.vel[0]) == (0.0, 0.0)

    def test_straight_line_stop_ignores_rear_agent(self):
        robot = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT,
                          policy="straight_line_stop", position=Vec2(0.0, 0.0),
                          goal=Goal(position=Vec2(5.0, 0.0), tolerance=0.2))
        rear = AgentSpec(agent_id="h", kind=AgentKind.HUMAN, policy="sfm",
                         position=Vec2(-0.5, 0.0))
        config = SimConfig(dt=0.05, max_duration=1.0, agents=(robot, rear))
        state = step(init_state(config), config)
        assert np.linalg.norm(state.vel[0]) > 0.0

    def test_replay_follows_states(self):
        i = np.arange(20)
        track = AgentRecord(id="robot", kind=AgentKind.ROBOT, radius=0.3,
                            t=0.1 * i, x=0.2 * i, y=np.zeros(20))
        spec = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT, policy="replay",
                         position=Vec2(0.0, 0.0), replay=track)
        config = SimConfig(dt=0.05, max_duration=1.0, agents=(spec,))
        ep = run(config)
        # at t = 1.0 the replayed trajectory sits at x = 2.0
        assert ep.robot.states[-1].position.x == pytest.approx(2.0, abs=1e-6)

    def test_scripted_waypoints_path(self):
        spec = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT,
                         policy="scripted_waypoints", position=Vec2(0.0, 0.0),
                         goal=Goal(position=Vec2(2.0, 2.0), tolerance=0.2),
                         waypoints=(Vec2(2.0, 0.0),))
        config = SimConfig(dt=0.05, max_duration=10.0, agents=(spec,))
        ep = run(config)
        xs = ep.robot.positions
        # visits the corner (2, 0) before the goal (2, 2)
        corner_near = np.min(np.linalg.norm(xs - (2.0, 0.0), axis=1))
        assert corner_near <= 0.45
        assert np.linalg.norm(xs[-1] - (2.0, 2.0)) <= 0.2


class TestRun:
    def test_state_count_cap(self):
        config = single_agent_config(max_duration=10.0, goal_xy=(100.0, 0.0))
        config = SimConfig(dt=0.05, max_duration=10.0, agents=config.agents)
        ep = run(config)
        assert len(ep.robot.states) <= 201

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
            validate_episode(ep)
            assert parse_episode(serialize_episode(ep)) == ep
            assert ep.metadata["scenario"] == name
            assert ep.metadata["seed"] == "11"

    def test_config_without_agents_rejected(self):
        with pytest.raises(InvariantError) as err:
            SimConfig(max_duration=0.2)
        assert err.value.path == "/agents"

    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenario):
            generate_scenario("conga_line", 0)

    def test_speeds_capped(self):
        for seed in range(5):
            ep = run(generate_scenario("random_crossing", seed))
            for agent in ep.agents:
                speeds = np.linalg.norm(agent.velocities, axis=1)
                assert np.all(speeds <= SfmParams().v_max + 1e-9)


class TestScenarioGeometry:
    def test_frontal_corridor_passable(self):
        config = generate_scenario("frontal_approach", 5)
        robot = next(a for a in config.agents if a.kind is AgentKind.ROBOT)
        human = next(a for a in config.agents if a.kind is AgentKind.HUMAN)
        width = abs(config.scene.segments[0][0].y - config.scene.segments[1][0].y)
        assert width > 2 * (robot.radius + human.radius)

    def test_blind_corner_sightline_blocked_early(self):
        ep = run(generate_scenario("blind_corner", 9))
        seg_a, seg_b = ep.obstacles.static_arrays
        robot, human = ep.robot, ep.humans[0]
        blocked_any = False
        for i in range(0, min(len(robot.states), len(human.states)), 5):
            p = robot.positions[i]
            q = human.positions[i]
            if segment_blocked(p, q, seg_a, seg_b):
                blocked_any = True
                break
        assert blocked_any, "blind corner must occlude the pair before the encounter"

    def test_overtaking_pass_happens(self):
        ep = run(generate_scenario("robot_overtaking", 3))
        robot, human = ep.robot, ep.humans[0]
        n = min(len(robot.states), len(human.states))
        gap = robot.positions[:n, 0] - human.positions[:n, 0]
        assert gap[0] < 0 and gap[n - 1] > 0  # behind at start, ahead at end

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_zero_collisions_at_defaults(self, name):
        for seed in (0, 17, 31):
            ep = run(generate_scenario(name, seed))
            c, wc, ac, hc = collisions(ep, PARAMS, dt=0.05)
            assert c == 0, f"{name} seed {seed}: {c} collision(s)"

    def test_crowd_scenarios_have_crowds(self):
        for name in ("parallel_traffic", "perpendicular_traffic"):
            config = generate_scenario(name, 0)
            humans = [a for a in config.agents if a.kind is AgentKind.HUMAN]
            assert len(humans) >= 5


def _assert_steps_match_reference(config):
    """Feed step and reference_step the same state at every step of a run."""
    state = init_state(config)
    steps = 0
    while state.t < config.max_duration - 1e-9:
        got, want = step(state, config), reference_step(state, config)
        where = f"{config.episode_id} at t={state.t:.2f}"
        assert got.t == want.t, where
        np.testing.assert_allclose(got.pos, want.pos, rtol=0, atol=1e-9, err_msg=where)
        np.testing.assert_allclose(got.vel, want.vel, rtol=0, atol=1e-9, err_msg=where)
        assert np.all(np.abs(wrap_angle(got.heading - want.heading)) <= 1e-9), where
        assert np.all(np.abs(got.heading) <= np.pi) and not np.any(got.heading == -np.pi), where
        assert got.waypoint_idx.tolist() == want.waypoint_idx.tolist(), where
        assert got.reached.tolist() == want.reached.tolist(), where
        state = got
        steps += 1
        if state.reached.all():
            break
    assert steps > 0


def _human(agent_id, start, goal, policy="sfm", **kwargs):
    return AgentSpec(agent_id=agent_id, kind=AgentKind.HUMAN, policy=policy,
                     position=Vec2(*start), goal=Goal(position=Vec2(*goal), tolerance=0.3),
                     **kwargs)


class TestStepMatchesReference:
    @pytest.mark.parametrize("robot_policy", ("sfm", "straight_line_stop"))
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenarios(self, name, robot_policy):
        _assert_steps_match_reference(generate_scenario(name, 3, robot_policy))

    def test_scripted_waypoints_agent(self):
        robot = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT, policy="scripted_waypoints",
                          position=Vec2(0.0, 0.0),
                          goal=Goal(position=Vec2(2.0, 2.0), tolerance=0.2),
                          waypoints=(Vec2(2.0, 0.0), Vec2(2.0, 1.0)))
        config = SimConfig(dt=0.05, max_duration=8.0, episode_id="scripted",
                           agents=(robot, _human("h0", (4.0, 0.2), (-2.0, 0.0))),
                           scene=ObstacleMap(segments=((Vec2(-1.0, -0.8), Vec2(5.0, -0.8)),)))
        _assert_steps_match_reference(config)

    def test_replay_agent(self):
        i = np.arange(30)
        track = AgentRecord(id="robot", kind=AgentKind.ROBOT, radius=0.3,
                            t=0.1 * i, x=0.15 * i, y=0.05 * i, heading=np.full(30, 0.3),
                            vx=np.full(30, 1.5), vy=np.full(30, 0.5))
        robot = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT, policy="replay",
                          position=Vec2(0.0, 0.0), replay=track)
        config = SimConfig(dt=0.05, max_duration=4.0, episode_id="replay",
                           agents=(robot, _human("h0", (4.0, 0.5), (-2.0, 0.5)),
                                   _human("h1", (3.0, -1.0), (3.0, 3.0),
                                          policy="straight_line_stop")))
        _assert_steps_match_reference(config)

    def test_dynamic_obstacles(self):
        door = (Vec2(1.5, -1.5), Vec2(1.5, 1.5))
        scene = ObstacleMap(segments=((Vec2(-3.0, 1.2), Vec2(6.0, 1.2)),
                                      (Vec2(-3.0, -1.2), Vec2(6.0, -1.2))),
                            dynamic=((0.0, (door,)), (1.5, ()),
                                     (3.0, ((Vec2(3.0, 0.2), Vec2(3.5, 0.6)),))))
        robot = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT, policy="straight_line_stop",
                          position=Vec2(0.0, -0.4), radius=0.25,
                          goal=Goal(position=Vec2(5.0, -0.4), tolerance=0.2))
        config = SimConfig(dt=0.05, max_duration=8.0, episode_id="dynamic", scene=scene,
                           agents=(robot, _human("h0", (0.5, 0.4), (5.0, 0.4)),
                                   _human("h1", (5.0, 0.0), (-2.0, 0.0), radius=0.5)))
        _assert_steps_match_reference(config)

    def test_agent_starting_on_goal(self):
        config = SimConfig(dt=0.05, max_duration=2.0, episode_id="on-goal",
                           agents=(_human("h0", (1.0, 1.0), (1.0, 1.0)),
                                   _human("h1", (1.0, -1.0), (1.0, -1.0),
                                          policy="straight_line_stop"),
                                   _human("h2", (3.0, 1.0), (-2.0, 1.0)),
                                   # nearly on top of h0: inside the 1e-6 m distance floor
                                   _human("h3", (1.0 + 5e-7, 1.0), (4.0, 1.0))))
        _assert_steps_match_reference(config)

    def test_westward_heading_wraps_to_pi(self):
        # goal.y - pos.y is -0.0, so atan2 sees (-0.0, -v) and returns -pi
        config = SimConfig(dt=0.05, max_duration=1.0, episode_id="west",
                           agents=(_human("h0", (0.0, 0.0), (-5.0, -0.0),
                                          policy="scripted_waypoints"),
                                   _human("h1", (3.0, 0.0), (-5.0, -0.0),
                                          policy="straight_line_stop")))
        state = step(init_state(config), config)
        assert state.heading.tolist() == [math.pi, math.pi]
        _assert_steps_match_reference(config)


def _run_by_steps(config):
    """`run`'s loop written with the public `step`: the states it visits."""
    state = init_state(config)
    history = [state]
    goal_bearing = [i for i, a in enumerate(config.agents) if a.goal is not None]
    while state.t < config.max_duration - 1e-9:
        state = step(state, config)
        history.append(state)
        if goal_bearing and state.reached[goal_bearing].all():
            break
    return history


def _assert_run_matches_steps(config):
    """run(config) holds, bit for bit, the states a loop of `step` visits."""
    history = _run_by_steps(config)
    ep = run(config)
    for i, agent in enumerate(ep.agents):
        where = f"{config.episode_id} agent {agent.id}"
        assert agent.t.tolist() == [s.t for s in history], where
        assert agent.positions.tolist() == [s.pos[i].tolist() for s in history], where
        assert agent.velocities.tolist() == [s.vel[i].tolist() for s in history], where
        assert agent.heading.tolist() == [s.heading[i] for s in history], where


def _replay_track(x):
    """A robot track along x at 10 Hz with stored headings and velocities."""
    n = len(x)
    return AgentRecord(id="robot", kind=AgentKind.ROBOT, radius=0.3,
                       t=0.1 * np.arange(n), x=np.asarray(x, dtype=float),
                       y=np.zeros(n), heading=np.zeros(n),
                       vx=np.full(n, 1.5), vy=np.zeros(n))


def _replay_config(track, max_duration=4.0):
    robot = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT, policy="replay",
                      position=Vec2(0.0, 0.0), replay=track)
    return SimConfig(dt=0.05, max_duration=max_duration, episode_id="replay",
                     agents=(robot, _human("h0", (4.0, 0.5), (-2.0, 0.5)),
                             _human("h1", (3.0, -1.0), (3.0, 3.0),
                                    policy="straight_line_stop")))


class TestRunMatchesSteps:
    @pytest.mark.parametrize("robot_policy", ("sfm", "straight_line_stop"))
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenarios(self, name, robot_policy):
        _assert_run_matches_steps(generate_scenario(name, 3, robot_policy))

    def test_scripted_waypoints_agent(self):
        robot = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT, policy="scripted_waypoints",
                          position=Vec2(0.0, 0.0),
                          goal=Goal(position=Vec2(2.0, 2.0), tolerance=0.2),
                          waypoints=(Vec2(2.0, 0.0), Vec2(2.0, 1.0)))
        config = SimConfig(dt=0.05, max_duration=8.0, episode_id="scripted",
                           agents=(robot, _human("h0", (4.0, 0.2), (-2.0, 0.0))),
                           scene=ObstacleMap(segments=((Vec2(-1.0, -0.8), Vec2(5.0, -0.8)),)))
        _assert_run_matches_steps(config)

    def test_replay_agent(self):
        _assert_run_matches_steps(_replay_config(_replay_track(0.15 * np.arange(30))))

    def test_dynamic_obstacles(self):
        door = (Vec2(1.5, -1.5), Vec2(1.5, 1.5))
        scene = ObstacleMap(segments=((Vec2(-3.0, 1.2), Vec2(6.0, 1.2)),
                                      (Vec2(-3.0, -1.2), Vec2(6.0, -1.2))),
                            dynamic=((0.0, (door,)), (1.5, ()),
                                     (3.0, ((Vec2(3.0, 0.2), Vec2(3.5, 0.6)),))))
        robot = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT, policy="straight_line_stop",
                          position=Vec2(0.0, -0.4), radius=0.25,
                          goal=Goal(position=Vec2(5.0, -0.4), tolerance=0.2))
        config = SimConfig(dt=0.05, max_duration=8.0, episode_id="dynamic", scene=scene,
                           agents=(robot, _human("h0", (0.5, 0.4), (5.0, 0.4)),
                                   _human("h1", (5.0, 0.0), (-2.0, 0.0), radius=0.5)))
        _assert_run_matches_steps(config)

    def test_non_finite_state_raised_at_the_same_step(self):
        # the track jumps by 1e308 m between t = 0.2 and 0.3: the replayed velocity overflows
        config = _replay_config(_replay_track([0.0, 0.1, 0.2, 1e308, 1e308]))
        state, steps = init_state(config), 0
        with pytest.raises(InvariantError) as by_step:
            while steps < 10:
                state = step(state, config)
                steps += 1
        assert by_step.value.path == "/sim"
        assert steps == 4  # states 0..4 exist; the step to t = 0.25 fails
        before = dataclasses.replace(config, max_duration=steps * config.dt)
        assert len(run(before).robot.t) == steps + 1
        with pytest.raises(InvariantError) as by_run:
            run(dataclasses.replace(config, max_duration=(steps + 1) * config.dt))
        assert by_run.value.path == "/sim"
        assert by_run.value.message == by_step.value.message == "non-finite state produced"
