"""Shared builders for hand-constructed and fuzzed test episodes and for edited JSON
documents, and a reader of the values ``compute_all`` reports."""

from __future__ import annotations

import copy
import json
from dataclasses import replace

import numpy as np

from socnav.core import (
    AgentKind,
    AgentRecord,
    Episode,
    Goal,
    ObstacleMap,
    motion_headings,
)
from socnav.metrics import compute_all


def make_agent(agent_id, points, dt=0.1, t0=0.0, kind=AgentKind.HUMAN, radius=0.3,
               goal=None, velocities=None, headings=None, times=None):
    """Build an agent from a list of (x, y) points sampled at dt."""
    xy = np.array(points, dtype=float).reshape(-1, 2)
    t = np.array(times, dtype=float) if times is not None else t0 + np.arange(len(xy)) * dt
    vel = np.array(velocities, dtype=float).reshape(-1, 2) if velocities is not None else None
    record = AgentRecord(id=agent_id, kind=kind, radius=radius, t=t, x=xy[:, 0], y=xy[:, 1],
                         heading=headings,
                         vx=None if vel is None else vel[:, 0],
                         vy=None if vel is None else vel[:, 1], goal=goal)
    if headings is None and len(t) >= 2:
        record = replace(record, heading=motion_headings(record))
    return record


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
    import math

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
    for ``DELETE``; ``doc`` itself is left as it is."""
    if not pointer:
        return json.dumps(value).encode()
    doc = copy.deepcopy(doc)
    node = doc
    for key in pointer[:-1]:
        node = node[key]
    if value is DELETE:
        del node[pointer[-1]]
    else:
        node[pointer[-1]] = value
    return json.dumps(doc).encode()
