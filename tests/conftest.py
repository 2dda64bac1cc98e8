"""Shared builders for hand-constructed and fuzzed test episodes and for edited JSON
documents, and a reader of the values ``compute_all`` reports."""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import replace

import numpy as np

from socnav.core import (
    AgentKind,
    AgentRecord,
    Episode,
    Goal,
    ObstacleMap,
    differences,
    motion_headings,
)
from socnav.metrics import compute_all


def make_agent(agent_id, points, dt=0.1, t0=0.0, kind=AgentKind.HUMAN, radius=0.3,
               goal=None, velocities=None, headings=None, times=None):
    """Build an agent from a list of (x, y) points sampled at dt. Velocities left out
    are central differences, one-sided at the ends or zero for a single sample, and
    none is stored; headings left out are the direction of motion (0 for one sample)."""
    xy = np.array(points, dtype=float).reshape(-1, 2)
    t = np.array(times, dtype=float) if times is not None else t0 + np.arange(len(xy)) * dt
    n = len(t)
    if velocities is None:
        vx, vy = differences(t, xy.T, np.array([0, n]))
    else:
        vx, vy = np.array(velocities, dtype=float).reshape(-1, 2).T
    if headings is None:
        headings = motion_headings(vx, vy, 0) if n >= 2 else np.zeros(n)
    return AgentRecord(id=agent_id, kind=kind, radius=radius, t=t, x=xy[:, 0], y=xy[:, 1],
                       heading=np.array(headings, dtype=float), vx=vx, vy=vy,
                       has_vel=np.full(n, velocities is not None), goal=goal)


def line_points(start, end, n):
    xs = np.linspace(start[0], end[0], n)
    ys = np.linspace(start[1], end[1], n)
    return list(zip(xs, ys))


def make_episode(agents, robot_id="robot", obstacles=None, episode_id="ep", labels=(),
                 metadata=None):
    return Episode(
        episode_id=episode_id,
        robot_under_test=robot_id,
        agents=tuple(agents),
        obstacles=obstacles if obstacles is not None else ObstacleMap(),
        labels=tuple(labels),
        metadata=metadata or {},
    )


def straight_robot(n=11, dt=0.1, speed=1.0, goal_xy=None, tolerance=0.2, radius=0.3):
    """Robot moving along +x at constant speed, optionally with a goal."""
    points = [(i * dt * speed, 0.0) for i in range(n)]
    goal = None
    if goal_xy is not None:
        goal = Goal(*goal_xy, tolerance)
    return make_agent("robot", points, dt=dt, kind=AgentKind.ROBOT,
                      radius=radius, goal=goal)


def random_walk_agent(rng, agent_id, n=50, dt=0.1, kind=AgentKind.HUMAN,
                      radius=0.3, box=5.0, speed_scale=1.0, goal=None, t0=0.0):
    """Seeded random-walk agent with bounded step sizes."""
    start = rng.uniform(-box, box, size=2)
    steps = rng.normal(0.0, speed_scale * dt, size=(n - 1, 2))
    points = np.vstack([start, start + np.cumsum(steps, axis=0)])
    return make_agent(agent_id, [tuple(p) for p in points], dt=dt, t0=t0,
                      kind=kind, radius=radius, goal=goal)


def rigid_transform(episode: Episode, angle: float, tx: float, ty: float) -> Episode:
    """Rotate by angle about the origin, then translate by (tx, ty)."""
    c, s = math.cos(angle), math.sin(angle)

    def rot_point(x, y):
        return c * x - s * y + tx, s * x + c * y + ty

    def rot_segment(seg):
        return rot_point(*seg[:2]) + rot_point(*seg[2:])

    def rot_agent(a: AgentRecord) -> AgentRecord:
        goal = None
        if a.goal is not None:
            goal = Goal(*rot_point(a.goal.x, a.goal.y), a.goal.tolerance)
        return replace(a, x=c * a.x - s * a.y + tx, y=s * a.x + c * a.y + ty,
                       heading=np.arctan2(np.sin(a.heading + angle), np.cos(a.heading + angle)),
                       vx=c * a.vx - s * a.vy, vy=s * a.vx + c * a.vy, goal=goal)

    obstacles = ObstacleMap(
        segments=tuple(map(rot_segment, episode.obstacles.segments)),
        dynamic=tuple((t, tuple(map(rot_segment, segs)))
                      for t, segs in episode.obstacles.dynamic))
    return Episode(episode_id=episode.episode_id, robot_under_test=episode.robot_under_test,
                   agents=tuple(rot_agent(a) for a in episode.agents),
                   obstacles=obstacles, labels=episode.labels, metadata=episode.metadata)


def scale_time(episode: Episode, k: float) -> Episode:
    """Stretch all timestamps by k; velocities shrink by 1/k accordingly."""

    def scale_agent(a: AgentRecord) -> AgentRecord:
        return replace(a, t=a.t * k, vx=a.vx / k, vy=a.vy / k)

    obstacles = ObstacleMap(
        segments=episode.obstacles.segments,
        dynamic=tuple((t * k, segs) for t, segs in episode.obstacles.dynamic))
    return Episode(episode_id=episode.episode_id, robot_under_test=episode.robot_under_test,
                   agents=tuple(scale_agent(a) for a in episode.agents),
                   obstacles=obstacles, labels=episode.labels, metadata=episode.metadata)


def metric(episode, keys, params=None, dt=None):
    """``compute_all``'s value of the taskwise key ``keys``; a tuple of values for a tuple of keys."""
    taskwise = compute_all(episode, params, dt).taskwise
    if isinstance(keys, str):
        return taskwise[keys].value
    return tuple(taskwise[key].value for key in keys)


def fuzz_episode(seed, n_humans=3, n_steps=40, dt=0.1, with_obstacles=True,
                 with_goal=True, box=4.0):
    """Seeded random but always-valid episode for property and oracle tests."""
    rng = np.random.default_rng(seed)
    goal = None
    if with_goal:
        goal = Goal(float(rng.uniform(-box, box)), float(rng.uniform(-box, box)),
                    float(rng.uniform(0.1, 0.5)))
    robot = random_walk_agent(rng, "robot", n=n_steps, dt=dt, kind=AgentKind.ROBOT,
                              radius=float(rng.uniform(0.2, 0.4)), box=box,
                              speed_scale=rng.uniform(0.5, 2.0), goal=goal)
    agents = [robot]
    for i in range(n_humans):
        t0 = float(rng.uniform(0.0, 0.3 * n_steps * dt))
        agents.append(random_walk_agent(
            rng, f"h{i}", n=int(rng.integers(5, n_steps)), dt=dt,
            radius=float(rng.uniform(0.2, 0.4)), box=box,
            speed_scale=rng.uniform(0.5, 2.0), t0=t0))
    obstacles = ObstacleMap()
    if with_obstacles:
        segs = []
        for _ in range(int(rng.integers(1, 4))):
            a = rng.uniform(-box, box, size=2)
            b = a + rng.uniform(-2.0, 2.0, size=2)
            if np.allclose(a, b):
                b = a + np.array([0.5, 0.0])
            segs.append(tuple(map(float, (*a, *b))))
        obstacles = ObstacleMap(segments=tuple(segs))
    return make_episode(agents, obstacles=obstacles, episode_id=f"fuzz-{seed}")


DELETE = object()


def json_pointers(node, pointer=()):
    """The pointer of every node in a decoded JSON document, as key tuples; () first."""
    yield pointer
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from json_pointers(child, (*pointer, key))


def edited(doc, pointer: tuple, value) -> bytes:
    """The JSON bytes of ``doc`` with the node at ``pointer`` replaced, or deleted
    for ``DELETE``; ``doc`` itself is left as it is: only the containers on the
    pointer's path are copied."""
    if not pointer:
        return json.dumps(value).encode()
    doc = node = copy.copy(doc)
    for key in pointer[:-1]:
        node[key] = node = copy.copy(node[key])
    if value is DELETE:
        del node[pointer[-1]]
    else:
        node[pointer[-1]] = value
    return json.dumps(doc).encode()


def crowd_document(seed: int) -> bytes:
    """A seeded crowd episode as episode-file bytes, for the crowd digest.

    The robot crosses a plaza along +x with a goal. Around it walk 12 to 16
    humans: a stream along its path (with it on odd seeds, against it on
    even ones), a stream across it, a frontal walker, a slow walker the robot
    overtakes, a fast one that overtakes the robot and one standing human. A
    second robot (a non-human other agent) crosses too. Stream members enter
    after the robot starts or leave before it ends. Agents sample at their
    own rates, and some carry no ``theta`` or no ``vx``/``vy``. There are
    static walls and two dynamic obstacle sets.
    """
    rng = random.Random(f"crowd/{seed}")
    duration = 16.0

    def walker(start, end, speed, t0=0.0, t1=duration, dt=0.1, sway=0.0,
               theta=True, vel=True):
        (x0, y0), (x1, y1) = start, end
        length = math.hypot(x1 - x0, y1 - y0)
        ux, uy = ((x1 - x0) / length, (y1 - y0) / length) if length else (0.0, 0.0)
        phase = rng.uniform(0.0, 6.28)
        states = []
        for k in range(int(round((t1 - t0) / dt)) + 1):
            t = round(t0 + k * dt, 4)
            s = min(speed * (t - t0), length)
            wobble = sway * math.sin(2.0 * t + phase)
            state = {"t": t, "x": round(x0 + s * ux - wobble * uy, 4),
                     "y": round(y0 + s * uy + wobble * ux, 4)}
            moving = s < length
            if theta:
                state["theta"] = round(math.atan2(uy, ux), 4)
            if vel:
                state["vx"] = round(speed * ux if moving else 0.0, 4)
                state["vy"] = round(speed * uy if moving else 0.0, 4)
            states.append(state)
        return states

    def j(lo, hi):
        return rng.uniform(lo, hi)

    speed = j(0.9, 1.1)
    agents = [{"id": "robot", "kind": "robot", "radius": 0.3,
               "goal": {"x": 8.0, "y": 0.0, "tolerance": 0.3},
               "states": walker((-8.0, 0.0), (8.0, 0.0), speed, sway=0.02)}]
    humans = []
    flow = 1 if seed % 2 else -1  # with the robot, or against it
    for k in range(rng.randint(4, 6)):  # the parallel stream
        lane = (1 if k % 2 else -1) * (1.2 + 0.6 * (k // 2)) + j(-0.1, 0.1)
        x0 = -9.5 + j(-1.0, 1.0)
        t0 = round(j(0.5, 2.0), 1) if k % 3 == 2 else 0.0
        t1 = round(duration - j(1.0, 3.0), 1) if k % 3 == 1 else duration
        humans.append(walker((flow * x0, lane), (flow * (x0 + 22.0), lane), j(0.85, 1.2), t0, t1,
                             dt=0.1 if k % 2 else 0.2, sway=0.03, theta=k % 4 != 1,
                             vel=k % 3 != 0))
    count = rng.randint(4, 6)
    for k in range(count):  # the perpendicular stream
        x0 = -1.0 + 6.0 * k / (count - 1) + j(-0.2, 0.2)
        y0 = -7.0 - 0.3 * k if k % 2 else -5.0  # behind the south wall, or inside it
        t0 = round(j(0.0, 2.0) + (0.0 if k % 2 else 2.0), 1)
        humans.append(walker((x0, y0), (x0, 9.0), j(0.9, 1.2), t0,
                             sway=0.03, theta=k % 2 == 0, vel=k != 1))
    humans.append(walker((9.0, 0.4), (-9.0, 0.4), j(0.9, 1.1), sway=0.02))  # frontal
    humans.append(walker((-5.0, -0.35), (9.0, -0.35), j(0.4, 0.5), dt=0.25,
                         theta=False))  # overtaken by the robot
    humans.append(walker((-12.0, 0.35), (9.0, 0.35), j(1.5, 1.7), sway=0.02))  # overtakes it
    spot = (j(-6.0, 6.0), j(4.0, 6.0))
    humans.append(walker(spot, spot, 0.0, dt=0.5, vel=False))  # standing
    for k, states in enumerate(humans):
        agents.append({"id": f"h{k}", "kind": "human", "radius": round(j(0.25, 0.35), 3),
                       "states": states})
    agents.append({"id": "bot2", "kind": "robot", "radius": 0.35,
                   "goal": {"x": -6.0, "y": 6.0, "tolerance": 0.3},
                   "states": walker((6.0, -6.0), (-6.0, 6.0), 0.8, t0=1.0, t1=14.0)})
    wall = round(j(6.5, 7.5), 2)
    doc = {
        "format_version": "1.0", "episode_id": f"crowd_{seed}", "robot_under_test": "robot",
        "agents": agents,
        "obstacles": {"segments": [[-10.0, wall, -2.0, wall], [2.0, wall, 10.0, wall],
                                   [-10.0, -wall, 10.0, -wall], [10.0, -wall, 10.0, wall]],
                      "dynamic": [{"t": 3.0, "segments": [[-3.0, -2.5, -3.0, -1.5]]},
                                  {"t": 9.0, "segments": [[4.0, 1.5, 4.0, 2.5],
                                                          [5.0, -2.0, 6.0, -2.0]]}]},
        "labels": [], "metadata": {"source": "crowd"},
    }
    return json.dumps(doc, sort_keys=True).encode()
