"""Episode data model: agents, goals, obstacles, and kinematic derivations.

Everything here is value-semantic and immutable after construction, so
episodes can be shared freely across parallel workers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvariantError, OutOfRange, SingleStateAgent
from .geometry import wrap_angle

# Sanity cap on consecutive-state speed, used to reject corrupt trajectories.
DEFAULT_V_CAP = 10.0

# Default body radius applied to point-trajectory datasets.
DEFAULT_HUMAN_RADIUS = 0.3


@dataclass(frozen=True)
class Vec2:
    """2D vector in meters (or m/s when used as a velocity)."""

    x: float
    y: float

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


class AgentKind(enum.Enum):
    ROBOT = "robot"
    HUMAN = "human"


@dataclass(frozen=True)
class Goal:
    position: Vec2
    tolerance: float


@dataclass(frozen=True)
class AgentState:
    """One timestamped sample: pose plus optional velocity.

    ``heading`` is stored separately from the velocity direction because
    datasets may lack it; parsers synthesize it from motion when absent.
    """

    t: float
    position: Vec2
    heading: float = 0.0
    velocity: Optional[Vec2] = None


@dataclass(frozen=True)
class AgentRecord:
    id: str
    kind: AgentKind
    radius: float
    states: tuple[AgentState, ...]
    goal: Optional[Goal] = None

    @property
    def t_start(self) -> float:
        return self.states[0].t

    @property
    def t_end(self) -> float:
        return self.states[-1].t

    @cached_property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @cached_property
    def positions(self) -> np.ndarray:
        """(N, 2) array of sampled positions."""
        return np.array([(s.position.x, s.position.y) for s in self.states])

    @cached_property
    def headings(self) -> np.ndarray:
        return np.array([s.heading for s in self.states])

    @cached_property
    def velocities(self) -> np.ndarray:
        """(N, 2) array of velocities, derived by finite differences if absent.

        Stored velocities take precedence sample by sample, matching what
        derive_velocities would put on the states.
        """
        given = [s.velocity for s in self.states]
        if all(v is not None for v in given):
            return np.array([(v.x, v.y) for v in given])
        if len(self.states) < 2:
            raise SingleStateAgent(f"agent {self.id!r} has a single state and no velocity")
        fd = finite_difference_velocities(self.times, self.positions)
        for i, v in enumerate(given):
            if v is not None:
                fd[i] = (v.x, v.y)
        return fd


@dataclass(frozen=True)
class ObstacleMap:
    """Static line segments plus optional timestamped dynamic segment sets.

    Metrics evaluate against the static set united with the dynamic set
    whose timestamp is nearest at-or-before the query time.
    """

    segments: tuple[tuple[Vec2, Vec2], ...] = ()
    dynamic: tuple[tuple[float, tuple[tuple[Vec2, Vec2], ...]], ...] = ()

    @cached_property
    def static_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(M, 2) endpoint arrays for the static segments."""
        if not self.segments:
            empty = np.zeros((0, 2))
            return empty, empty
        a = np.array([(s[0].x, s[0].y) for s in self.segments])
        b = np.array([(s[1].x, s[1].y) for s in self.segments])
        return a, b

    def active_segments(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays of all segments active at time t."""
        a, b = self.static_arrays
        if not self.dynamic:
            return a, b
        active = None
        for stamp, segs in self.dynamic:
            if stamp <= t:
                active = segs
            else:
                break
        if not active:
            return a, b
        da = np.array([(s[0].x, s[0].y) for s in active])
        db = np.array([(s[1].x, s[1].y) for s in active])
        return np.vstack([a, da]), np.vstack([b, db])

    @property
    def empty(self) -> bool:
        return not self.segments and not any(segs for _, segs in self.dynamic)


@dataclass(frozen=True)
class EpisodeLabel:
    """A scenario annotation carried inside an episode file."""

    scenario: str
    t_start: float
    t_end: float


@dataclass(frozen=True)
class Episode:
    episode_id: str
    robot_under_test: str
    agents: tuple[AgentRecord, ...]
    obstacles: ObstacleMap = ObstacleMap()
    labels: tuple[EpisodeLabel, ...] = ()
    metadata: dict[str, str] = field(default_factory=dict)

    @cached_property
    def robot(self) -> AgentRecord:
        for agent in self.agents:
            if agent.id == self.robot_under_test:
                return agent
        raise InvariantError("/robot_under_test", f"no agent with id {self.robot_under_test!r}")

    def agent(self, agent_id: str) -> AgentRecord:
        for a in self.agents:
            if a.id == agent_id:
                return a
        raise KeyError(agent_id)

    @property
    def humans(self) -> tuple[AgentRecord, ...]:
        return tuple(a for a in self.agents if a.kind is AgentKind.HUMAN)

    @property
    def others(self) -> tuple[AgentRecord, ...]:
        """All agents except the robot under test."""
        return tuple(a for a in self.agents if a.id != self.robot_under_test)


# The MetricParams fields that must be positive finite numbers.
FLOAT_PARAMS = ("space_threshold", "intimate_radius", "personal_radius", "timeout",
                "fp_distance_eps", "fp_window", "stall_speed", "stall_min_duration")


@dataclass(frozen=True)
class MetricParams:
    """Thresholds and parameters required by the metric suite.

    Proxemic radii follow the conventional interpersonal distances
    (intimate 0.45 m, personal 1.2 m); the 0.5 m space threshold is the
    personal-space-compliance convention. The remaining defaults are
    artifact choices, reported alongside every metric value.
    """

    space_threshold: float = 0.5
    intimate_radius: float = 0.45
    personal_radius: float = 1.2
    collision_terminate_count: Optional[int] = None
    timeout: float = 120.0
    fp_distance_eps: float = 0.1
    fp_window: float = 10.0
    stall_speed: float = 0.05
    stall_min_duration: float = 1.0
    cooperative_agent_ids: Optional[frozenset[str]] = None

    def __post_init__(self):
        for name in FLOAT_PARAMS:
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and value > 0 and math.isfinite(value)):
                raise InvariantError(f"/params/{name}", "must be a positive finite number")
        if self.collision_terminate_count is not None and self.collision_terminate_count < 1:
            raise InvariantError("/params/collision_terminate_count", "must be >= 1 or null")


def finite_difference_velocities(t: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Central differences at interior samples, one-sided at the endpoints."""
    vel = np.empty_like(xy)
    vel[0] = (xy[1] - xy[0]) / (t[1] - t[0])
    vel[-1] = (xy[-1] - xy[-2]) / (t[-1] - t[-2])
    if len(t) > 2:
        vel[1:-1] = (xy[2:] - xy[:-2]) / (t[2:] - t[:-2])[:, None]
    return vel


def derive_velocities(agent: AgentRecord) -> AgentRecord:
    """Fill missing velocities by finite differences.

    States that already carry a velocity are left untouched, which makes
    the operation idempotent.
    """
    n = len(agent.states)
    if n < 2:
        raise SingleStateAgent(f"agent {agent.id!r} has {n} state(s); need >= 2")
    if all(s.velocity is not None for s in agent.states):
        return agent

    vel = finite_difference_velocities(agent.times, agent.positions)
    states = tuple(
        s if s.velocity is not None else replace(s, velocity=Vec2(float(vel[i, 0]), float(vel[i, 1])))
        for i, s in enumerate(agent.states)
    )
    return replace(agent, states=states)


def synthesize_headings(agent: AgentRecord) -> AgentRecord:
    """Set headings from the direction of motion.

    Stationary states carry the previous heading forward; an initially
    stationary agent defaults to heading 0.
    """
    if len(agent.states) < 2:
        return agent
    vel = agent.velocities
    headings = []
    prev = 0.0
    for v in vel:
        speed = math.hypot(v[0], v[1])
        if speed > 1e-9:
            prev = math.atan2(v[1], v[0])
        headings.append(prev)
    states = tuple(AgentState(s.t, s.position, wrap_angle(h), s.velocity)
                   for s, h in zip(agent.states, headings))
    return replace(agent, states=states)


def interpolate_state(agent: AgentRecord, t: float) -> AgentState:
    """Linear interpolation of position and velocity at time t.

    Heading is interpolated along the shorter arc. Velocity is interpolated
    only when both bracketing samples carry one.
    """
    times = agent.times
    if t < times[0] - 1e-9 or t > times[-1] + 1e-9:
        raise OutOfRange(f"t={t} outside span [{times[0]}, {times[-1]}] of agent {agent.id!r}")
    t = min(max(t, float(times[0])), float(times[-1]))

    idx = int(np.searchsorted(times, t, side="right")) - 1
    idx = max(0, min(idx, len(times) - 2)) if len(times) > 1 else 0
    s0 = agent.states[idx]
    if len(agent.states) == 1 or t == s0.t:
        return s0
    s1 = agent.states[idx + 1]
    if t == s1.t:
        return s1

    frac = (t - s0.t) / (s1.t - s0.t)
    pos = Vec2(s0.position.x + frac * (s1.position.x - s0.position.x),
               s0.position.y + frac * (s1.position.y - s0.position.y))
    heading = wrap_angle(s0.heading + frac * wrap_angle(s1.heading - s0.heading))
    vel = None
    if s0.velocity is not None and s1.velocity is not None:
        vel = Vec2(s0.velocity.x + frac * (s1.velocity.x - s0.velocity.x),
                   s0.velocity.y + frac * (s1.velocity.y - s0.velocity.y))
    return AgentState(t=t, position=pos, heading=heading, velocity=vel)


def common_timeline(episode: Episode, dt: float) -> np.ndarray:
    """Uniform grid over the robot-under-test time span.

    Start inclusive; if the grid does not land on the end of the span, the
    exact end time is appended so the span is always fully covered.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise InvariantError("/dt", f"must be a positive finite number, got {dt}")
    robot = episode.robot
    t0, t1 = robot.t_start, robot.t_end
    span = t1 - t0
    n = int(math.floor(span / dt + 1e-9))
    timeline = t0 + dt * np.arange(n + 1)
    timeline = np.minimum(timeline, t1)
    if t1 - timeline[-1] > 1e-9 * max(1.0, abs(t1)):
        timeline = np.append(timeline, t1)
    return timeline


def median_sample_interval(agent: AgentRecord) -> float:
    """Median spacing of an agent's raw timestamps, the default metric dt."""
    if len(agent.states) < 2:
        raise SingleStateAgent(f"agent {agent.id!r} has a single state")
    return float(np.median(np.diff(agent.times)))


def default_dt(episode: Episode) -> float:
    """The robot's median sampling interval, or 1.0 for a single-state robot."""
    return median_sample_interval(episode.robot) if len(episode.robot.states) >= 2 else 1.0


def event_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal contiguous True runs as (start, end) index pairs, end exclusive."""
    if not mask.any():
        return []
    edges = np.diff(np.concatenate([[0], mask.astype(np.int8), [0]]))
    return list(zip(np.flatnonzero(edges == 1).tolist(),
                    np.flatnonzero(edges == -1).tolist()))


class SampledAgent:
    """One agent resampled onto a timeline, the view metrics and classifiers share.

    Position and velocity are interpolated linearly and held at the ends. A
    single-state agent keeps its stored velocity, or gets zero without one.
    ``active`` marks the steps inside the agent's own time span.
    """

    def __init__(self, agent: AgentRecord, timeline: np.ndarray):
        self.agent = agent
        self.timeline = timeline
        t = agent.times
        xy = agent.positions
        self.pos = np.column_stack([np.interp(timeline, t, xy[:, 0]),
                                    np.interp(timeline, t, xy[:, 1])])
        if len(agent.states) >= 2 or agent.states[0].velocity is not None:
            v = agent.velocities
            self.vel = np.column_stack([np.interp(timeline, t, v[:, 0]),
                                        np.interp(timeline, t, v[:, 1])])
        else:
            self.vel = np.zeros_like(self.pos)
        self.active = (timeline >= t[0] - 1e-9) & (timeline <= t[-1] + 1e-9)

    @cached_property
    def speed(self) -> np.ndarray:
        return np.linalg.norm(self.vel, axis=1)

    @cached_property
    def heading(self) -> np.ndarray:
        """Direction of the velocity while moving, else the interpolated pose heading."""
        pose = wrap_angle(np.interp(self.timeline, self.agent.times, np.unwrap(self.agent.headings)))
        return np.where(self.speed > 1e-6, np.arctan2(self.vel[:, 1], self.vel[:, 0]), pose)

    @cached_property
    def en_route(self) -> np.ndarray:
        # An agent that has reached its goal is done with its errand; the
        # residual braking creep after arrival must not read as an approach.
        goal = self.agent.goal
        if goal is None:
            return self.active
        inside = np.linalg.norm(self.pos - goal.position.as_array(), axis=1) <= goal.tolerance
        return self.active & ~(np.cumsum(inside) > 0)


# --- Validation ------------------------------------------------------------

def check_episode(episode: Episode, v_cap: float = DEFAULT_V_CAP) -> list[tuple[str, str]]:
    """Check every data-model invariant; returns (path, message) violations."""
    issues: list[tuple[str, str]] = []
    isfinite, hypot = math.isfinite, math.hypot
    heading_limit = math.pi + 1e-9

    ids = [a.id for a in episode.agents]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        issues.append(("/agents", f"duplicate agent ids: {dupes}"))

    robot = None
    for a in episode.agents:
        if a.id == episode.robot_under_test:
            robot = a
    if robot is None:
        issues.append(("/robot_under_test", f"does not resolve to an agent: {episode.robot_under_test!r}"))
    elif robot.kind is not AgentKind.ROBOT:
        issues.append(("/robot_under_test", f"agent {robot.id!r} is not of kind robot"))

    for i, agent in enumerate(episode.agents):
        base = f"/agents/{i}"
        if not (agent.radius > 0 and math.isfinite(agent.radius)):
            issues.append((f"{base}/radius", f"must be > 0, got {agent.radius}"))
        if not agent.states:
            issues.append((f"{base}/states", "must be non-empty"))
            continue
        if agent.goal is not None:
            if not (agent.goal.tolerance > 0 and math.isfinite(agent.goal.tolerance)):
                issues.append((f"{base}/goal/tolerance", f"must be > 0, got {agent.goal.tolerance}"))
            if not agent.goal.position.is_finite():
                issues.append((f"{base}/goal", "position must be finite"))
        # Per-sample loop on plain floats; paths are only formatted on a violation.
        prev_t = prev_x = prev_y = None
        for j, s in enumerate(agent.states):
            t, heading, vel = s.t, s.heading, s.velocity
            x, y = s.position.x, s.position.y
            if not isfinite(t):
                issues.append((f"{base}/states/{j}/t", "must be finite"))
                continue
            if not (isfinite(x) and isfinite(y)):
                issues.append((f"{base}/states/{j}", "position must be finite"))
                continue
            if not isfinite(heading):
                issues.append((f"{base}/states/{j}/theta", "must be finite"))
            elif abs(heading) > heading_limit:
                issues.append((f"{base}/states/{j}/theta", f"must lie in (-pi, pi], got {heading}"))
            if vel is not None and not (isfinite(vel.x) and isfinite(vel.y)):
                issues.append((f"{base}/states/{j}/vx", "velocity must be finite"))
            if prev_t is not None:
                if t <= prev_t:
                    issues.append((f"{base}/states/{j}/t",
                                   f"timestamps must be strictly increasing ({prev_t} -> {t})"))
                else:
                    speed = hypot(x - prev_x, y - prev_y) / (t - prev_t)
                    if speed > v_cap:
                        issues.append((f"{base}/states/{j}",
                                       f"implied speed {speed:.2f} m/s exceeds cap {v_cap} m/s"))
            prev_t, prev_x, prev_y = t, x, y

        if robot is not None and agent.states and robot.states:
            if agent.t_start > robot.t_end or agent.t_end < robot.t_start:
                issues.append((f"{base}/states", "time span does not overlap the robot's"))

    for i, (a, b) in enumerate(episode.obstacles.segments):
        if not (a.is_finite() and b.is_finite()):
            issues.append((f"/obstacles/segments/{i}", "coordinates must be finite"))
        elif a == b:
            issues.append((f"/obstacles/segments/{i}", "segment endpoints must be distinct"))
    prev_stamp = None
    for k, (stamp, segs) in enumerate(episode.obstacles.dynamic):
        if not math.isfinite(stamp):
            issues.append((f"/obstacles/dynamic/{k}/t", "must be finite"))
        elif prev_stamp is not None and stamp < prev_stamp:
            issues.append((f"/obstacles/dynamic/{k}/t", "dynamic sets must be time-ordered"))
        else:
            prev_stamp = stamp
        for i, (a, b) in enumerate(segs):
            if not (a.is_finite() and b.is_finite()):
                issues.append((f"/obstacles/dynamic/{k}/segments/{i}", "coordinates must be finite"))
            elif a == b:
                issues.append((f"/obstacles/dynamic/{k}/segments/{i}", "segment endpoints must be distinct"))

    for i, label in enumerate(episode.labels):
        if not label.t_start < label.t_end:
            issues.append((f"/labels/{i}", f"t_start must be < t_end ({label.t_start} >= {label.t_end})"))

    return issues


def validate_episode(episode: Episode, v_cap: float = DEFAULT_V_CAP) -> None:
    """Raise InvariantError naming the first violated field, if any."""
    issues = check_episode(episode, v_cap=v_cap)
    if issues:
        raise InvariantError(issues[0][0], issues[0][1])
