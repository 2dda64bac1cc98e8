"""Episode data model: agents, goals, obstacles, and kinematic derivations.

Everything here is value-semantic and immutable after construction. An
agent's samples are stored as float64 columns; per-sample objects
(``AgentState``) are views built on demand.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter
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

    A view built on demand from an agent's columns (``AgentRecord.states``,
    ``interpolate_state``); ``velocity`` is None where none was stored.
    """

    t: float
    position: Vec2
    heading: float = 0.0
    velocity: Optional[Vec2] = None


class AgentStates(Sequence):
    """The samples of an agent as AgentState views, each built when indexed."""

    def __init__(self, agent: AgentRecord):
        self._agent = agent

    def __len__(self) -> int:
        return len(self._agent.t)

    def __getitem__(self, j: int) -> AgentState:
        a = self._agent
        j = range(len(a.t))[j]
        vel = Vec2(float(a.vx[j]), float(a.vy[j])) if a.has_vel[j] else None
        return AgentState(float(a.t[j]), Vec2(float(a.x[j]), float(a.y[j])),
                          float(a.heading[j]), vel)


_COLUMNS = ("t", "x", "y", "heading", "vx", "vy", "has_vel")


@dataclass(frozen=True, eq=False)
class AgentRecord:
    """One agent's trajectory as float64 columns, one entry per sample.

    ``has_vel`` marks the samples that carry a stored velocity (all of them
    when ``vx``/``vy`` are given without a mask, none when they are omitted).
    Stored velocity wins; elsewhere ``vx``/``vy`` hold central differences,
    one-sided at the endpoints, or zero for a single sample. ``positions``
    and ``velocities`` are the same columns as (N, 2) arrays. Headings
    default to 0.
    """

    id: str
    kind: AgentKind
    radius: float
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    heading: Optional[np.ndarray] = None
    vx: Optional[np.ndarray] = None
    vy: Optional[np.ndarray] = None
    has_vel: Optional[np.ndarray] = None
    goal: Optional[Goal] = None
    positions: np.ndarray = field(init=False, repr=False)
    velocities: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        n = len(t)
        given = self.vx is not None
        has_vel = np.full(n, given) if self.has_vel is None else np.asarray(self.has_vel, bool)
        # (N, 2) views of (2, N) arrays, so that each column is contiguous.
        positions = np.array((self.x, self.y), dtype=float).reshape(2, n).T
        vel = np.array((self.vx, self.vy), dtype=float).reshape(2, n).T if given else np.zeros((n, 2))
        if not has_vel.all():
            with np.errstate(all="ignore"):  # columns that fail their checks come here too
                derived = finite_difference_velocities(t, positions) if n >= 2 else 0.0
            vel = np.where(has_vel[:, None], vel, derived)
        heading = np.zeros(n) if self.heading is None else np.asarray(self.heading, dtype=float)
        for name, value in (("t", t), ("x", positions[:, 0]), ("y", positions[:, 1]),
                            ("heading", heading), ("vx", vel[:, 0]), ("vy", vel[:, 1]),
                            ("has_vel", has_vel), ("positions", positions), ("velocities", vel)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, AgentRecord):
            return NotImplemented
        return ((self.id, self.kind, self.radius, self.goal)
                == (other.id, other.kind, other.radius, other.goal)
                and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in _COLUMNS))

    @property
    def states(self) -> AgentStates:
        return AgentStates(self)

    @property
    def t_start(self) -> float:
        return float(self.t[0])

    @property
    def t_end(self) -> float:
        return float(self.t[-1])


@dataclass(frozen=True)
class ObstacleMap:
    """Static line segments plus optional timestamped dynamic segment sets.

    At time t the static segments and the dynamic set with the latest stamp
    at or before t are active; ``set_index`` is the one place that rule is
    written. It needs finite, time-ordered stamps (``obstacle_issues``).
    """

    segments: tuple[tuple[Vec2, Vec2], ...] = ()
    dynamic: tuple[tuple[float, tuple[tuple[Vec2, Vec2], ...]], ...] = ()

    @cached_property
    def segment_sets(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(M, 2) endpoint arrays of every set that can be active: index 0 holds
        the static segments alone, index k those plus the k-th dynamic set."""
        sets = [self.segments] + [self.segments + segs for _, segs in self.dynamic]
        return tuple((np.array([(a.x, a.y) for a, _ in s], dtype=float).reshape(-1, 2),
                      np.array([(b.x, b.y) for _, b in s], dtype=float).reshape(-1, 2))
                     for s in sets)

    def set_index(self, t):
        """The number of dynamic stamps at or before t: an index into ``segment_sets``.

        An array of times gives an int array. A scalar goes through
        ``bisect_right``: the simulator asks every step, and a scalar
        ``np.searchsorted`` costs microseconds where this costs a tenth of one.
        """
        if isinstance(t, np.ndarray):
            return np.searchsorted([stamp for stamp, _ in self.dynamic], t, side="right")
        return bisect_right(self.dynamic, t, key=itemgetter(0))

    @property
    def static_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(M, 2) endpoint arrays for the static segments."""
        return self.segment_sets[0]

    def active_segments(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays of all segments active at time t."""
        return self.segment_sets[self.set_index(t)]


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


def _param_echo(params: MetricParams, name: str):
    """A parameter as outputs echo it: cooperative ids as a sorted list, or null if none."""
    value = getattr(params, name)
    if name == "cooperative_agent_ids":
        return sorted(value) if value else None
    return value


def finite_difference_velocities(t: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Central differences at interior samples, one-sided at the endpoints."""
    vel = np.empty_like(xy)
    vel[0] = (xy[1] - xy[0]) / (t[1] - t[0])
    vel[-1] = (xy[-1] - xy[-2]) / (t[-1] - t[-2])
    if len(t) > 2:
        vel[1:-1] = (xy[2:] - xy[:-2]) / (t[2:] - t[:-2])[:, None]
    return vel


def derive_velocities(agent: AgentRecord) -> AgentRecord:
    """Mark every velocity as stored, keeping the derived values; idempotent."""
    n = len(agent.t)
    if n < 2:
        raise SingleStateAgent(f"agent {agent.id!r} has {n} state(s); need >= 2")
    if agent.has_vel.all():
        return agent
    return replace(agent, has_vel=np.ones(n, dtype=bool))


def motion_headings(agent: AgentRecord) -> np.ndarray:
    """Headings from the direction of motion, one per sample.

    Stationary samples carry the previous heading forward; an initially
    stationary agent gets heading 0. ``math.hypot``/``math.atan2`` keep the
    bits of the per-sample rule (numpy's differ in the last place).
    """
    vx, vy = agent.vx.tolist(), agent.vy.tolist()
    moving = np.array(list(map(math.hypot, vx, vy))) > 1e-9
    angles = np.array(list(map(math.atan2, vy, vx)))
    last = np.maximum.accumulate(np.where(moving, np.arange(len(vx)), -1))
    return wrap_angle(np.where(last >= 0, angles[last], 0.0))


def interpolate_state(agent: AgentRecord, t: float) -> AgentState:
    """Linear interpolation of position and velocity at time t.

    Heading is interpolated along the shorter arc. Velocity is interpolated
    only when both bracketing samples carry one.
    """
    times = agent.t
    if t < times[0] - 1e-9 or t > times[-1] + 1e-9:
        raise OutOfRange(f"t={t} outside span [{times[0]}, {times[-1]}] of agent {agent.id!r}")
    t = min(max(t, float(times[0])), float(times[-1]))

    idx = int(np.searchsorted(times, t, side="right")) - 1
    idx = max(0, min(idx, len(times) - 2)) if len(times) > 1 else 0
    states = agent.states
    s0 = states[idx]
    if len(times) == 1 or t == s0.t:
        return s0
    s1 = states[idx + 1]
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
    if len(agent.t) < 2:
        raise SingleStateAgent(f"agent {agent.id!r} has a single state")
    return float(np.median(np.diff(agent.t)))


def default_dt(episode: Episode) -> float:
    """The robot's median sampling interval, or 1.0 for a single-state robot."""
    return median_sample_interval(episode.robot) if len(episode.robot.t) >= 2 else 1.0


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
        t = agent.t
        self.pos = np.column_stack([np.interp(timeline, t, agent.x),
                                    np.interp(timeline, t, agent.y)])
        self.vel = np.column_stack([np.interp(timeline, t, agent.vx),
                                    np.interp(timeline, t, agent.vy)])
        self.active = (timeline >= t[0] - 1e-9) & (timeline <= t[-1] + 1e-9)

    @cached_property
    def speed(self) -> np.ndarray:
        return np.linalg.norm(self.vel, axis=1)

    @cached_property
    def heading(self) -> np.ndarray:
        """Direction of the velocity while moving, else the interpolated pose heading."""
        pose = wrap_angle(np.interp(self.timeline, self.agent.t, np.unwrap(self.agent.heading)))
        return np.where(self.speed > 1e-6, np.arctan2(self.vel[:, 1], self.vel[:, 0]), pose)

    @cached_property
    def goal_distance(self) -> np.ndarray:
        """Center-to-goal distance at each step; only for an agent with a goal."""
        return np.linalg.norm(self.pos - self.agent.goal.position.as_array(), axis=1)

    @cached_property
    def en_route(self) -> np.ndarray:
        # An agent that has reached its goal is done with its errand; the
        # residual braking creep after arrival must not read as an approach.
        goal = self.agent.goal
        if goal is None:
            return self.active
        inside = self.goal_distance <= goal.tolerance
        return self.active & ~(np.cumsum(inside) > 0)


# --- Validation ------------------------------------------------------------

def _sample_issues(base: str, agent: AgentRecord, v_cap: float) -> list[tuple[str, str]]:
    """Per-sample violations of one agent, checked a column at a time.

    A sample with a non-finite time or position gets that one issue and is
    skipped; the time and speed checks compare each sample with the last
    one that was not. Messages are formatted only for violations, and
    sorted by sample index into the order a per-sample scan reports them.
    """
    t, x, y, heading = agent.t, agent.x, agent.y, agent.heading
    finite_t = np.isfinite(t)
    good = finite_t & np.isfinite(x) & np.isfinite(y)
    bad_heading = good & ~(np.abs(heading) <= math.pi + 1e-9)  # also catches nan and inf
    bad_vel = good & agent.has_vel & ~np.isfinite(agent.velocities).all(axis=1)
    found = []  # (sample index, rank within the sample, path, message)

    def add(mask, rank, suffix, message):
        for j in np.flatnonzero(mask).tolist():
            found.append((j, rank, f"{base}/states/{j}{suffix}", message(j)))

    if not good.all() or bad_heading.any() or bad_vel.any():
        add(~finite_t, 0, "/t", lambda j: "must be finite")
        add(finite_t & ~good, 0, "", lambda j: "position must be finite")
        finite_heading = np.isfinite(heading)
        add(bad_heading & ~finite_heading, 1, "/theta", lambda j: "must be finite")
        add(bad_heading & finite_heading, 1, "/theta",
            lambda j: f"must lie in (-pi, pi], got {float(heading[j])}")
        add(bad_vel, 2, "/vx", lambda j: "velocity must be finite")

    kept = np.flatnonzero(good)
    if len(kept) < len(t):
        t, x, y = t[kept], x[kept], y[kept]
    with np.errstate(all="ignore"):
        dt, dx, dy = np.diff(t), np.diff(x), np.diff(y)
        forward = dt > 0
        step = np.flatnonzero(forward)
        if len(step) < len(dt):
            for k in np.flatnonzero(~forward).tolist():
                j = int(kept[k + 1])
                found.append((j, 3, f"{base}/states/{j}/t", "timestamps must be strictly "
                              f"increasing ({float(t[k])} -> {float(t[k + 1])})"))
            dt, dx, dy = dt[step], dx[step], dy[step]
        # np.hypot may differ from math.hypot in the last place, far inside
        # this margin: it only picks the candidates, math.hypot decides.
        near = np.flatnonzero(np.hypot(dx, dy) / dt > v_cap * (1 - 1e-9))
    for k in near.tolist():
        speed = math.hypot(dx[k], dy[k]) / float(dt[k])
        if speed > v_cap:
            j = int(kept[step[k] + 1])
            shown = f"{speed:.2f}" if speed < 1e6 else f"{speed:.3e}"  # not 309 digits at 1e308
            found.append((j, 3, f"{base}/states/{j}",
                          f"implied speed {shown} m/s exceeds cap {v_cap} m/s"))
    found.sort()
    return [(path, message) for _, _, path, message in found]


def obstacle_issues(obstacles: ObstacleMap) -> list[tuple[str, str]]:
    """(path, message) violations: segment ends finite and distinct, dynamic
    stamps finite and time-ordered (``ObstacleMap.set_index`` relies on it)."""
    def segment_issues(base, segs):
        found = []
        for i, (a, b) in enumerate(segs):
            if not (a.is_finite() and b.is_finite()):
                found.append((f"{base}/segments/{i}", "coordinates must be finite"))
            elif a == b:
                found.append((f"{base}/segments/{i}", "segment endpoints must be distinct"))
        return found

    issues = segment_issues("/obstacles", obstacles.segments)
    latest = -math.inf
    for k, (stamp, segs) in enumerate(obstacles.dynamic):
        if not math.isfinite(stamp):
            issues.append((f"/obstacles/dynamic/{k}/t", "must be finite"))
        elif stamp < latest:
            issues.append((f"/obstacles/dynamic/{k}/t", "dynamic sets must be time-ordered"))
        else:
            latest = stamp
        issues.extend(segment_issues(f"/obstacles/dynamic/{k}", segs))
    return issues


def check_episode(episode: Episode, v_cap: float = DEFAULT_V_CAP) -> list[tuple[str, str]]:
    """Check every data-model invariant; returns (path, message) violations."""
    issues: list[tuple[str, str]] = []

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
        if not len(agent.t):
            issues.append((f"{base}/states", "must be non-empty"))
            continue
        if agent.goal is not None:
            if not (agent.goal.tolerance > 0 and math.isfinite(agent.goal.tolerance)):
                issues.append((f"{base}/goal/tolerance", f"must be > 0, got {agent.goal.tolerance}"))
            if not agent.goal.position.is_finite():
                issues.append((f"{base}/goal", "position must be finite"))
        issues.extend(_sample_issues(base, agent, v_cap))

        if robot is not None and len(robot.t):
            if agent.t_start > robot.t_end or agent.t_end < robot.t_start:
                issues.append((f"{base}/states", "time span does not overlap the robot's"))

    issues.extend(obstacle_issues(episode.obstacles))

    for i, label in enumerate(episode.labels):
        if not label.t_start < label.t_end:
            issues.append((f"/labels/{i}", f"t_start must be < t_end ({label.t_start} >= {label.t_end})"))

    return issues


def validate_episode(episode: Episode, v_cap: float = DEFAULT_V_CAP) -> None:
    """Raise InvariantError naming the first violated field, if any."""
    issues = check_episode(episode, v_cap=v_cap)
    if issues:
        raise InvariantError(issues[0][0], issues[0][1])
