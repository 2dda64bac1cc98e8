"""Deterministic 2D kinematic pedestrian simulator for corpus generation.

Pedestrians follow a social-force style model: goal attraction with a
relaxation time plus exponential repulsion from agents and obstacles,
integrated with explicit Euler at a fixed dt (unit mass, so forces are
accelerations). The worst-case baseline policy walks straight toward its
goal and freezes whenever anything sits within stopping distance ahead.

Identical configs produce byte-identical serialized episodes.
The step loops over agents on plain Python floats, because crowds are
small enough that numpy's per-call overhead would dominate; the float
arithmetic is fixed, so reruns stay byte-identical. `run` is the one
entry: one pass over the config gives the per-agent and wall tuples and
the start state, which stays plain float lists for the whole episode;
`_advance` steps it, and the history is stacked into read-only arrays
once at the end. The walls felt at time t are `ObstacleMap.set_index(t)`'s
set, as in the metrics. A `SimConfig` holds a robot agent and unique ids,
as `validate` asks of an episode; the first robot is the robot under test.
Scenario jitter is numpy's PCG64 stream on ints.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    MAX_TIMELINE_STEPS,
    AgentKind,
    AgentRecord,
    Episode,
    Goal,
    ObstacleMap,
    obstacle_issues,
    positive_finite,
)
from .errors import InvariantError, UnknownScenario
from .geometry import wrap_angle

POLICIES = ("sfm", "straight_line_stop")

SCENARIO_NAMES = (
    "frontal_approach",
    "robot_overtaking",
    "pedestrian_overtaking",
    "intersection",
    "blind_corner",
    "parallel_traffic",
    "perpendicular_traffic",
    "random_crossing",
)

_WAYPOINT_TOLERANCE = 0.4
_STOP_LOOKAHEAD = 0.1

# Unit-mass social-force constants (forces are accelerations). The repulsion
# strength is tuned so that the generated scenarios stay collision-free: with
# goal drive v/tau ~ 2 m/s^2, a contact repulsion of the same order is too
# weak to resolve head-on encounters.
_RELAXATION_TIME = 0.5
_REPULSION_STRENGTH = 5.0
_REPULSION_RANGE = 0.3
_OBSTACLE_STRENGTH = 3.0
_OBSTACLE_RANGE = 0.2
_V_MAX = 2.0


@dataclass(frozen=True)
class AgentSpec:
    agent_id: str
    kind: AgentKind
    policy: str
    position: tuple[float, float]
    goal: Optional[Goal] = None
    desired_speed: float = 1.0
    radius: float = 0.3
    waypoints: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        base = f"/agents/{self.agent_id}"
        if self.policy not in POLICIES:
            raise InvariantError(f"{base}/policy", f"unknown policy {self.policy!r}")
        positive_finite(self.desired_speed, f"{base}/desired_speed")
        positive_finite(self.radius, f"{base}/radius")
        if not all(map(math.isfinite, self.position)):
            raise InvariantError(f"{base}/position", "must be finite")
        if self.goal is not None:
            positive_finite(self.goal.tolerance, f"{base}/goal/tolerance")
            if not (math.isfinite(self.goal.x) and math.isfinite(self.goal.y)):
                raise InvariantError(f"{base}/goal", "position must be finite")
        for k, waypoint in enumerate(self.waypoints):
            if not all(map(math.isfinite, waypoint)):
                raise InvariantError(f"{base}/waypoints/{k}", "must be finite")


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.05
    max_duration: float = 30.0
    scene: ObstacleMap = ObstacleMap()
    agents: tuple[AgentSpec, ...] = ()
    episode_id: str = "sim"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        positive_finite(self.dt, "/dt")
        positive_finite(self.max_duration, "/max_duration")
        # run may take one step past max_duration / dt, and summing dt moves the
        # span and the median interval by far less than a step: a margin of two
        # keeps every episode within check_episode's cap on the robot's steps.
        if (steps := self.max_duration / self.dt) > MAX_TIMELINE_STEPS - 2:
            raise InvariantError("/max_duration", f"{self.max_duration} s at dt {self.dt} asks for "
                                 f"{steps:.3e} steps; at most {MAX_TIMELINE_STEPS - 2} are allowed")
        # The episode's robot under test is its first robot agent; validate refuses
        # an episode without one, and one whose agent ids repeat.
        if not any(a.kind is AgentKind.ROBOT for a in self.agents):
            raise InvariantError("/agents", "must hold a robot agent")
        ids = [a.agent_id for a in self.agents]
        if dupes := sorted({i for i in ids if ids.count(i) > 1}):
            raise InvariantError("/agents", f"duplicate agent ids: {dupes}")
        if issues := obstacle_issues(self.scene):
            raise InvariantError(*issues[0])


def _away_from_segment(px: float, py: float, seg: tuple) -> tuple[float, float]:
    """(px, py) minus its closest point on seg = (ax, ay, dx, dy, |d|^2)."""
    ax, ay, sx, sy, len2 = seg
    u = 0.0 if len2 == 0.0 else min(1.0, max(0.0, ((px - ax) * sx + (py - ay) * sy) / len2))
    return px - (ax + u * sx), py - (ay + u * sy)


def _advance(dt: float, plan: list, segs: list, pos: list, vel: list, headings: list,
             waypoint_idx: list, reached: list) -> tuple[list, list, list]:
    """The physics of one dt on plain floats, with ``run``'s agent tuples and the
    segment tuples of the walls active now.

    Returns the new positions, velocities and headings; advances
    ``waypoint_idx`` and sets ``reached`` in place.
    """
    relaxation_time, repulsion_strength, repulsion_range = \
        _RELAXATION_TIME, _REPULSION_STRENGTH, _REPULSION_RANGE
    obstacle_strength, obstacle_range, v_max = _OBSTACLE_STRENGTH, _OBSTACLE_RANGE, _V_MAX
    hypot, exp, atan2, isfinite = math.hypot, math.exp, math.atan2, math.isfinite
    new_pos, new_vel, new_heading = [], [], []
    finite = True

    for i, (policy, waypoints, goal, desired_speed, r_i, r_sum) in enumerate(plan):
        px, py = pos[i]
        vx, vy = vel[i]
        # Advance waypoints while the agent is close enough to the current one.
        n_waypoints = len(waypoints)
        k = waypoint_idx[i]
        while k < n_waypoints:
            wx, wy = waypoints[k]
            if hypot(px - wx, py - wy) > _WAYPOINT_TOLERANCE:
                break
            k += 1
        waypoint_idx[i] = k
        heading = headings[i]
        nvx = nvy = 0.0

        # Without a target, d = 0 and the agent gets no goal drive.
        if k < n_waypoints:
            tx, ty = waypoints[k][0] - px, waypoints[k][1] - py
        elif goal is not None:
            tx, ty = goal[0] - px, goal[1] - py
        else:
            tx, ty = 0.0, 0.0
        d = hypot(tx, ty)
        at_goal = goal is not None and hypot(px - goal[0], py - goal[1]) <= goal[2]

        if policy == "straight_line_stop":
            if not at_goal and d >= 1e-9:
                ex, ey = tx / d, ty / d
                heading = atan2(ey, ex)
                blocked = False
                for j, (qx, qy) in enumerate(pos):
                    if j != i and ((qx - px) * ex + (qy - py) * ey > 0.0
                                   and hypot(px - qx, py - qy)
                                   <= r_sum[j] + _STOP_LOOKAHEAD):
                        blocked = True
                        break
                if not blocked:
                    for seg in segs:
                        gx, gy = _away_from_segment(px, py, seg)
                        if (hypot(gx, gy) <= r_i + _STOP_LOOKAHEAD
                                and gx * ex + gy * ey < 0.0):
                            blocked = True
                            break
                if not blocked:
                    speed = min(desired_speed, d / dt, v_max)
                    nvx, nvy = ex * speed, ey * speed

        else:
            # SFM agent: goal attraction toward the current target.
            if not (at_goal and k >= n_waypoints) and d > 1e-9:
                fx = (desired_speed * tx / d - vx) / relaxation_time
                fy = (desired_speed * ty / d - vy) / relaxation_time
            else:
                fx, fy = -vx / relaxation_time, -vy / relaxation_time
            # Repulsion from the other agents.
            rx = ry = 0.0
            for j, (qx, qy) in enumerate(pos):
                if j == i:
                    continue
                dx, dy = px - qx, py - qy
                dist = hypot(dx, dy)
                weight = repulsion_strength * exp(-(dist - r_sum[j]) / repulsion_range)
                safe = 1e-6 if 1e-6 > dist else dist  # max(dist, 1e-6) without the call
                rx += weight * (dx / safe)
                ry += weight * (dy / safe)
            fx += rx
            fy += ry
            # Repulsion from obstacle segments, via each closest point.
            for seg in segs:
                gx, gy = _away_from_segment(px, py, seg)
                gap = hypot(gx, gy)
                if gap < 1e-6:
                    continue
                k_obs = obstacle_strength * exp(-(gap - r_i) / obstacle_range)
                fx += k_obs * gx / gap
                fy += k_obs * gy / gap
            nvx, nvy = vx + fx * dt, vy + fy * dt
            speed = hypot(nvx, nvy)
            if speed > v_max:
                nvx, nvy = nvx / speed * v_max, nvy / speed * v_max

        nx, ny = px + nvx * dt, py + nvy * dt
        if hypot(nvx, nvy) > 1e-9:
            heading = atan2(nvy, nvx)
        if goal is not None and hypot(nx - goal[0], ny - goal[1]) <= goal[2]:
            reached[i] = True
        finite = finite and isfinite(nx) and isfinite(ny) and isfinite(nvx) and isfinite(nvy)
        new_pos.append((nx, ny))
        new_vel.append((nvx, nvy))
        new_heading.append(wrap_angle(heading))  # atan2 may return exactly -pi: maps to pi

    if not finite:
        raise InvariantError("/sim", "non-finite state produced")
    return new_pos, new_vel, new_heading


def run(config: SimConfig) -> Episode:
    """Run to max_duration or until every goal-bearing agent has reached its goal."""
    # One tuple per agent: (policy, waypoints as given, goal as (x, y, tolerance)
    # or None, desired speed, radius and radius sums with every agent). An agent
    # starts at rest, facing its first waypoint, else its goal, else +x.
    radii = [a.radius for a in config.agents]
    plan, pos, headings = [], [], []
    for spec in config.agents:
        goal = None if spec.goal is None else (spec.goal.x, spec.goal.y, spec.goal.tolerance)
        plan.append((spec.policy, spec.waypoints, goal, spec.desired_speed, spec.radius,
                     [spec.radius + r for r in radii]))
        x, y = map(float, spec.position)
        target = spec.waypoints[0] if spec.waypoints else goal
        heading = 0.0
        if target is not None and math.hypot(target[0] - x, target[1] - y) > 1e-9:
            heading = wrap_angle(math.atan2(target[1] - y, target[0] - x))
        pos.append((x, y))
        headings.append(heading)
    # The (ax, ay, dx, dy, |d|^2) segment tuples of each of the scene's segment_sets.
    segment_sets = []
    for seg_a, seg_b in config.scene.segment_sets:
        segs = []
        for (ax, ay), (bx, by) in zip(seg_a.tolist(), seg_b.tolist()):
            sx, sy = bx - ax, by - ay
            segs.append((ax, ay, sx, sy, sx * sx + sy * sy))
        segment_sets.append(segs)

    n, t, dt = len(plan), 0.0, config.dt
    vel, waypoint_idx, reached = [(0.0, 0.0)] * n, [0] * n, [False] * n
    times, pos_history, vel_history, heading_history = [t], [pos], [vel], [headings]
    goal_bearing = [i for i, a in enumerate(config.agents) if a.goal is not None]
    while t < config.max_duration - 1e-9:
        segs = segment_sets[config.scene.set_index(t)]
        pos, vel, headings = _advance(dt, plan, segs, pos, vel, headings, waypoint_idx, reached)
        t += dt
        times.append(t)
        pos_history.append(pos)
        vel_history.append(vel)
        heading_history.append(headings)
        if goal_bearing and all(reached[i] for i in goal_bearing):
            break

    # One (T, n, ...) stack per field; agent i's columns are its slices.
    steps = len(times)
    flat = itertools.chain.from_iterable
    times = np.array(times)
    pos = np.fromiter(flat(flat(pos_history)), float, steps * n * 2).reshape(steps, n, 2)
    vel = np.fromiter(flat(flat(vel_history)), float, steps * n * 2).reshape(steps, n, 2)
    heading = np.fromiter(flat(heading_history), float, steps * n).reshape(steps, n)
    has_vel = np.ones(steps, bool)
    for column in (times, pos, vel, heading, has_vel):
        column.flags.writeable = False
    agents = tuple(
        AgentRecord(id=spec.agent_id, kind=spec.kind, radius=spec.radius, t=times,
                    x=pos[:, i, 0], y=pos[:, i, 1], heading=heading[:, i],
                    vx=vel[:, i, 0], vy=vel[:, i, 1], has_vel=has_vel, goal=spec.goal)
        for i, spec in enumerate(config.agents))
    robot_id = next(a.agent_id for a in config.agents if a.kind is AgentKind.ROBOT)
    return Episode(episode_id=config.episode_id, robot_under_test=robot_id,
                   agents=agents, obstacles=config.scene,
                   metadata={str(k): str(v) for k, v in config.metadata.items()})


# --- Scenario generation ------------------------------------------------------

def _corridor(half_width: float) -> ObstacleMap:
    return ObstacleMap(segments=(
        (-7.0, half_width, 7.0, half_width),
        (-7.0, -half_width, 7.0, -half_width),
    ))


def _l_corridor(half_width: float) -> ObstacleMap:
    """L-shaped corridor: horizontal leg along -x, vertical leg along -y, each 6 m long."""
    w = half_width
    return ObstacleMap(segments=(
        (-6.0, w, w, w),        # outer top
        (w, w, w, -6.0),        # outer right
        (-6.0, -w, -w, -w),     # inner bottom
        (-w, -w, -w, -6.0),     # inner left
    ))


def _spec(agent_id, kind, policy, start, goal_xy, speed, waypoints=()):
    return AgentSpec(agent_id=agent_id, kind=kind, policy=policy, position=start,
                     goal=Goal(*goal_xy, 0.3), desired_speed=float(speed), radius=0.3,
                     waypoints=waypoints)


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _uniform_stream(seed: int):
    """numpy's ``default_rng(seed).uniform`` on Python ints, bit for bit: ``SeedSequence(seed)``
    seeds a PCG64 (O'Neill 2014); a draw scales the top 53 bits of one XSL-RR output."""
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(value, mult=0x931E8875):
        nonlocal h
        value, h = value ^ h, h * mult & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    # Every pool word into every other, then the words past the pool into all four.
    for src, dst in itertools.product(range(max(4, len(words))), range(4)):
        if src != dst:
            value = hashmix(pool[src] if src < 4 else words[src])
            r = (0xCA01F9DD * pool[dst] - 0x4973F715 * value) & _MASK32
            pool[dst] = r ^ r >> 16
    h = 0x8B51F9DD
    w = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    # Two little-endian uint64 pairs, each read high word first.
    inc = ((w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 | 1) & _MASK128
    state = (inc + (w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2])) * _PCG64_MULT + inc

    def uniform(low, high):
        nonlocal state
        state = (state * _PCG64_MULT + inc) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        return low + (high - low) * ((x >> 11) * 2.0 ** -53)

    return uniform


def generate_scenario(name: str, variation_seed: int,
                      robot_policy: str = "sfm") -> SimConfig:
    """Instantiate a named scenario layout with seeded jitter.

    Start positions get up to +-0.5 m longitudinal jitter (less laterally in
    narrow corridors) and desired speeds vary +-20 %. The ground-truth
    scenario name and the seed are recorded in the episode metadata.
    """
    if name not in SCENARIO_NAMES:
        raise UnknownScenario(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    if variation_seed < 0:
        raise InvariantError("/seed", f"must be a non-negative integer, got {variation_seed}")
    uniform = _uniform_stream(operator.index(variation_seed))  # numpy integers too

    def jit(scale=0.5):
        return uniform(-scale, scale)

    def speed(base):
        return base * (1.0 + uniform(-0.2, 0.2))

    agents: list[AgentSpec] = []
    scene = ObstacleMap()
    max_duration = 20.0

    if name == "frontal_approach":
        scene = _corridor(1.25)
        agents.append(_spec("robot", AgentKind.ROBOT, robot_policy,
                            (-5.0 + jit(), -0.5 + jit(0.1)), (5.5, -0.5), speed(1.0)))
        agents.append(_spec("h0", AgentKind.HUMAN, "sfm",
                            (5.0 + jit(), 0.5 + jit(0.1)), (-5.5, 0.5), speed(1.0)))
        max_duration = 16.0

    elif name == "robot_overtaking":
        agents.append(_spec("robot", AgentKind.ROBOT, robot_policy,
                            (-4.0 + jit(), -0.4 + jit(0.15)), (8.5, -0.4), speed(1.3)))
        agents.append(_spec("h0", AgentKind.HUMAN, "sfm",
                            (-1.0 + jit(), 0.4 + jit(0.15)), (8.0, 0.4), speed(0.55)))
        max_duration = 18.0

    elif name == "pedestrian_overtaking":
        agents.append(_spec("robot", AgentKind.ROBOT, robot_policy,
                            (-1.0 + jit(), -0.4 + jit(0.15)), (8.0, -0.4), speed(0.55)))
        agents.append(_spec("h0", AgentKind.HUMAN, "sfm",
                            (-4.0 + jit(), 0.4 + jit(0.15)), (8.5, 0.4), speed(1.3)))
        max_duration = 22.0

    elif name == "intersection":
        agents.append(_spec("robot", AgentKind.ROBOT, robot_policy,
                            (-4.0 + jit(), 0.0 + jit(0.2)), (4.5, 0.0), speed(1.0)))
        agents.append(_spec("h0", AgentKind.HUMAN, "sfm",
                            (0.3 + jit(0.2), -4.0 + jit()), (0.3, 4.5), speed(1.0)))
        max_duration = 16.0

    elif name == "blind_corner":
        scene = _l_corridor(0.8)
        # A shared pace factor carries the +-20% speed variation; the junction
        # arrival gap stays small so the encounter happens at the corner.
        pace = 1.0 + uniform(-0.2, 0.2)
        agents.append(_spec("robot", AgentKind.ROBOT, robot_policy,
                            (-5.0 + jit(0.3), -0.35 + jit(0.1)), (0.35, -5.0),
                            pace * (1.0 + jit(0.05)),
                            waypoints=((0.35, -0.35),)))
        agents.append(_spec("h0", AgentKind.HUMAN, "sfm",
                            (-0.35 + jit(0.1), -4.3 + jit(0.3)), (-5.0, 0.35),
                            pace * (1.0 + jit(0.05)),
                            waypoints=((-0.35, 0.35),)))
        max_duration = 18.0

    elif name == "parallel_traffic":
        agents.append(_spec("robot", AgentKind.ROBOT, robot_policy,
                            (-5.0 + jit(), 0.0 + jit(0.1)), (5.5, 0.0), speed(1.0)))
        lanes = (-2.2, -1.6, -1.0, 1.0, 1.6, 2.2)
        for k, lane in enumerate(lanes):
            x0 = -5.5 + jit(1.5)
            y0 = lane + jit(0.15)
            agents.append(_spec(f"h{k}", AgentKind.HUMAN, "sfm",
                                (x0, y0), (x0 + 11.0, lane), speed(1.0)))
        max_duration = 16.0

    elif name == "perpendicular_traffic":
        agents.append(_spec("robot", AgentKind.ROBOT, robot_policy,
                            (-5.0 + jit(), 0.0 + jit(0.1)), (5.5, 0.0), speed(1.0)))
        xs = (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)
        for k, x in enumerate(xs):
            x0 = x + jit(0.3)
            y0 = -3.0 - 1.1 * k + jit(0.4)  # staggered column, sequential crossings
            agents.append(_spec(f"h{k}", AgentKind.HUMAN, "sfm",
                                (x0, y0), (x0, 7.0), speed(1.0)))
        max_duration = 24.0

    elif name == "random_crossing":
        agents.append(_spec("robot", AgentKind.ROBOT, robot_policy,
                            (-4.0 + jit(), jit()), (4.0, 0.0), speed(1.0)))
        for k in range(3):
            angle = (2 * k + 1) * math.pi / 3 + uniform(-0.5, 0.5)
            r0 = 5.0 + uniform(0.0, 1.8)  # staggered arrivals at the center
            start = (r0 * math.cos(angle), r0 * math.sin(angle))
            end_angle = angle + math.pi + uniform(-0.6, 0.6)
            end = (5.0 * math.cos(end_angle), 5.0 * math.sin(end_angle))
            agents.append(_spec(f"h{k}", AgentKind.HUMAN, "sfm",
                                (start[0] + jit(), start[1] + jit()), end, speed(1.0)))
        max_duration = 26.0

    return SimConfig(
        dt=0.05,
        max_duration=max_duration,
        scene=scene,
        agents=tuple(agents),
        episode_id=f"{name}_{variation_seed}",
        metadata={"scenario": name, "robot_policy": robot_policy, "seed": str(variation_seed)},
    )
