"""Episode data model: agents, goals, obstacles, and kinematic derivations.

Everything here is value-semantic and immutable after construction. An
agent's samples are float64 columns, every one given; a decoded or simulated
episode's are read-only. ``Episode.columns`` lays every agent's end to end
once, for the checks; the resampled view is one block, robot first. Points
are held as the file writes them: a goal is ``(x, y, tolerance)`` and a wall
segment the float tuple ``(x1, y1, x2, y2)``.
"""

from __future__ import annotations

import enum
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import cached_property
from operator import itemgetter
from typing import Optional

import numpy as np

from .errors import InvariantError
from .geometry import wrap_angle

# Sanity cap on consecutive-state speed, used to reject corrupt trajectories.
V_CAP = 10.0

# Default body radius applied to point-trajectory datasets.
DEFAULT_HUMAN_RADIUS = 0.3

# Most steps a metric timeline may take: 28 h at 10 Hz, 8 MB a column.
MAX_TIMELINE_STEPS = 10**6


def positive_finite(value, path: str) -> None:
    """The one rule for a setting that must be a positive finite number: an int
    or a float (np.float64 is one), not a bool, above 0 that a float can hold."""
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max):
        raise InvariantError(path, f"must be a positive finite number, got {value}")


class AgentKind(enum.Enum):
    ROBOT = "robot"
    HUMAN = "human"


@dataclass(frozen=True)
class Goal:
    x: float
    y: float
    tolerance: float


_COLUMNS = ("t", "x", "y", "heading", "vx", "vy", "has_vel")


@dataclass(frozen=True, eq=False)
class AgentRecord:
    """One agent's trajectory as float64 columns, one entry per sample.

    Every column is given and kept as given, not copied: a decoded or simulated
    episode's are read-only. ``vx``/``vy`` are every sample's velocity, and
    ``has_vel`` marks those the file stores. ``positions`` is x and y as an
    (N, 2) array, built on each access.
    """

    id: str
    kind: AgentKind
    radius: float
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    heading: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    has_vel: np.ndarray
    goal: Optional[Goal] = None

    positions = property(lambda self: np.array((self.x, self.y)).T)

    def __eq__(self, other):
        if not isinstance(other, AgentRecord):
            return NotImplemented
        return ((self.id, self.kind, self.radius, self.goal)
                == (other.id, other.kind, other.radius, other.goal)
                and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in _COLUMNS))

    @property
    def states(self) -> list[dict]:
        """The samples as the episode file's state objects: t, x, y and theta,
        plus vx/vy where a velocity is stored. Built on each access."""
        states = [{"t": t, "x": x, "y": y, "theta": h} for t, x, y, h
                  in zip(self.t.tolist(), self.x.tolist(), self.y.tolist(), self.heading.tolist())]
        vx, vy = self.vx.tolist(), self.vy.tolist()
        for j in np.flatnonzero(self.has_vel).tolist():
            states[j]["vx"] = vx[j]
            states[j]["vy"] = vy[j]
        return states

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

    segments: tuple[tuple[float, float, float, float], ...] = ()
    dynamic: tuple[tuple[float, tuple[tuple[float, float, float, float], ...]], ...] = ()

    @cached_property
    def segment_sets(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(M, 2) endpoint arrays of every set that can be active: index 0 holds
        the static segments alone, index k those plus the k-th dynamic set."""
        sets = [self.segments] + [self.segments + segs for _, segs in self.dynamic]
        arrays = [np.array(s, dtype=float).reshape(-1, 4) for s in sets]
        return tuple((a[:, :2], a[:, 2:]) for a in arrays)

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
    def others(self) -> tuple[AgentRecord, ...]:
        """All agents except the robot under test."""
        return tuple(a for a in self.agents if a.id != self.robot_under_test)

    @cached_property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The ``_COLUMNS`` of every agent laid end to end in file order, then their
        ``(offsets, owner)`` (``agent_rows``): nine read-only arrays, built on first use."""
        empty = (np.empty(0),) * 6 + (np.empty(0, bool),)  # the dtypes of no agents
        block = (*(np.concatenate([e, *(getattr(a, c) for a in self.agents)])
                   for c, e in zip(_COLUMNS, empty)),
                 *agent_rows([len(a.t) for a in self.agents]))
        for column in block:
            column.flags.writeable = False
        return block

    def resampled(self, dt: Optional[float] = None) -> tuple:
        """(dt, timeline, robot, others, pairs) on ``common_timeline``: one view of the
        robot and then the other agents in file order, cut into the robot's row, the
        others' block and the robot against each; dt defaults to the robot's median
        interval (1.0 for a single state). Built once per dt, kept in ``__dict__`` like
        ``robot``, and never written by metrics or classifiers."""
        views = self.__dict__.setdefault("_resampled", {})
        key = (type(dt), dt)  # 1 and 1.0 are one key, but are echoed differently
        if key not in views:
            if dt is None:
                dt = median_sample_interval(self.robot)
            view = SampledAgents((self.robot, *self.others), common_timeline(self, dt))
            robot, others = view[0], view[1:]
            views[key] = (dt, view.timeline, robot, others, RobotPairs(robot, others))
        return views[key]


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
        for f in fields(self):
            if f.type == "float":
                positive_finite(getattr(self, f.name), f"/params/{f.name}")
        count = self.collision_terminate_count
        if count is not None and (isinstance(count, bool) or count < 1):
            raise InvariantError("/params/collision_terminate_count", "must be >= 1 or null")
        if self.cooperative_agent_ids == frozenset():  # an empty set is no cooperative set
            object.__setattr__(self, "cooperative_agent_ids", None)


def _param_echo(params: MetricParams, name: str):
    """A parameter as outputs echo it: cooperative ids as a sorted list, or null if none."""
    value = getattr(params, name)
    if name == "cooperative_agent_ids" and value is not None:
        return sorted(value)
    return value


def agent_rows(lengths) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, owner) of agents of these lengths laid end to end: agent i holds rows
    ``offsets[i]`` to ``offsets[i + 1] - 1``, and row k belongs to agent ``owner[k]``."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    return offsets, np.repeat(np.arange(len(lengths)), offsets[1:] - offsets[:-1])


def differences(t: np.ndarray, columns: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The (K, N) rates of change over times t of (K, N) columns of agents laid end to
    end at ``offsets``: central, one-sided at an agent's ends, zero for a single sample."""
    starts, ends = offsets[:-1], offsets[1:] - 1
    two = ends > starts  # agents of two samples or more
    lo = np.concatenate((starts[two], ends[two] - 1))
    rates = np.empty_like(columns)
    with np.errstate(all="ignore"):  # columns that fail their checks come here too
        rates[:, 1:-1] = (columns[:, 2:] - columns[:, :-2]) / (t[2:] - t[:-2])
        rates[:, np.concatenate((starts[two], ends[two]))] = (
            (columns[:, lo + 1] - columns[:, lo]) / (t[lo + 1] - t[lo]))
    rates[:, starts[ends == starts]] = 0.0
    return rates


def motion_headings(vx: np.ndarray, vy: np.ndarray, first) -> np.ndarray:
    """Headings from the direction of motion (vx, vy): a stationary sample carries
    forward the last moving one's at or after ``first``, its agent's first index,
    else 0. ``math.hypot``/``math.atan2`` keep the bits of the per-sample rule
    (numpy's differ in the last place)."""
    vx, vy = vx.tolist(), vy.tolist()
    moving = np.array(list(map(math.hypot, vx, vy))) > 1e-9
    angles = np.array(list(map(math.atan2, vy, vx)))
    last = np.maximum.accumulate(np.where(moving, np.arange(len(vx)), -1))
    return wrap_angle(np.where(last >= first, angles[last], 0.0))


def _too_many_steps(span: float, dt: float) -> str:
    """Why a grid of ``dt`` over ``span`` has too many steps (inf too), or "" if it has not."""
    return (f"{dt} asks for {span / dt:.3e} timeline steps over the robot's {span} s; "
            f"at most {MAX_TIMELINE_STEPS} are allowed" if span / dt > MAX_TIMELINE_STEPS else "")


def common_timeline(episode: Episode, dt: float) -> np.ndarray:
    """Uniform grid over the robot-under-test time span.

    Start inclusive; if the grid does not land on the end of the span, the
    exact end time is appended so the span is always fully covered. A dt
    that asks for more than ``MAX_TIMELINE_STEPS`` steps fails at ``/dt``
    before the grid is allocated. A dt below the float spacing of the times
    cannot give a strictly increasing grid, and fails at ``/dt`` too.
    """
    positive_finite(dt, "/dt")
    robot = episode.robot
    t0, t1 = robot.t_start, robot.t_end
    span = t1 - t0
    if too_many := _too_many_steps(span, dt):
        raise InvariantError("/dt", too_many)
    n = int(math.floor(span / dt + 1e-9))
    timeline = t0 + dt * np.arange(n + 1)
    timeline = np.minimum(timeline, t1)
    if t1 - timeline[-1] > 1e-9 * max(1.0, abs(t1)):
        timeline = np.append(timeline, t1)
    if not (np.diff(timeline) > 0).all():
        raise InvariantError("/dt", f"{dt} gives repeated times near t = {t1}: "
                             "the timeline must strictly increase")
    return timeline


def median(values) -> np.float64:
    """``np.median`` of a non-empty 1-D array, bit for bit, as a float64.

    ``np.median`` imports ``numpy.ma`` on its first call (15-20 ms a
    process) to check for NaN; a sort and the middle value need no more.
    """
    s = np.sort(np.asarray(values, dtype=np.float64))
    if np.isnan(s[-1]):  # the sort puts NaN last
        return s[-1]
    m = len(s) // 2
    # np.median takes np.mean of the middle one or two, a sum that starts
    # from 0.0: a -0.0 median comes out as 0.0.
    return 0.0 + s[m] if len(s) % 2 else (0.0 + s[m - 1] + s[m]) / 2


def median_sample_interval(agent: AgentRecord) -> float:
    """Median spacing of an agent's raw timestamps, 1.0 for a single state: of the
    robot, the default metric dt."""
    return float(median(np.diff(agent.t))) if len(agent.t) > 1 else 1.0


def event_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal contiguous True runs as (start, end) index pairs, end exclusive."""
    if not mask.any():
        return []
    edges = np.diff(np.concatenate([[0], mask.astype(np.int8), [0]]))
    return list(zip(np.flatnonzero(edges == 1).tolist(),
                    np.flatnonzero(edges == -1).tolist()))


def windows(timeline: np.ndarray, mask: np.ndarray, min_duration: float,
            bridge: float = 0.0) -> list[tuple[int, int, int]]:
    """(row, s, e) for each run of steps s to e-1 of a row of the (A, T) ``mask`` that
    lasts at least ``min_duration`` seconds, once the runs of a row apart by at most
    ``bridge`` seconds are merged (a pass's lane-change swerve breaks its mask for a
    moment); bridge 0 merges nothing, even where a fine ``dt`` repeats a time. The rows
    are laid end to end, a False step after each, for one ``event_runs``: no run or
    bridge crosses a row's end."""
    width = mask.shape[1] + 1
    runs = event_runs(np.concatenate([mask, np.zeros((len(mask), 1), bool)], axis=1).ravel())
    merged = []
    for start, end in runs:
        i, s = divmod(start, width)
        e = end - i * width
        if (merged and merged[-1][0] == i and bridge > 0
                and timeline[s] - timeline[merged[-1][2] - 1] <= bridge):
            merged[-1] = (i, merged[-1][1], e)
        else:
            merged.append((i, s, e))
    return [(i, s, e) for i, s, e in merged if timeline[e - 1] - timeline[s] >= min_duration]


class SampledAgents:
    """Agents on a timeline, the view metrics and classifiers share (``Episode.resampled``).

    A row per agent in order: ``pos`` and ``vel`` (A, T, 2), ``radius`` (A,) and the
    rest (A, T). ``view[rows]`` is the view of some rows, each row's arrays as they
    are: a slice gives a block, an int one agent's (T, 2) and (T,) arrays with
    ``agents`` its record. Position, velocity and pose heading are interpolated
    linearly, an agent at a time on its own raw times, and held at the ends; a
    single-state agent keeps its stored velocity, or gets zero. ``active`` marks the
    steps inside each agent's own time span, ``goal_distance`` is NaN without a goal,
    and ``heading`` is the direction of the velocity while moving, else the pose.
    """

    def __init__(self, agents, timeline: np.ndarray):
        self.agents, self.timeline = tuple(agents), timeline
        lengths = [len(a.t) for a in self.agents]
        headings = np.zeros((len(lengths), max(lengths, default=0)))
        for i, a in enumerate(self.agents):
            headings[i, :lengths[i]] = a.heading
        headings = np.unwrap(headings, axis=1)  # the zeros after a row's end change none of it
        block = np.empty((2, len(lengths), len(timeline), 2))  # positions, velocities
        pose = np.empty(block.shape[1:3])
        for i, (a, n) in enumerate(zip(self.agents, lengths)):
            for k, column in enumerate((a.x, a.y, a.vx, a.vy)):
                block[k // 2, i, :, k % 2] = np.interp(timeline, a.t, column)
            pose[i] = np.interp(timeline, a.t, headings[i, :n])
        self.pos, self.vel = block
        starts, ends = (np.array([a.t[j] for a in self.agents])[:, None] for j in (0, -1))
        self.active = (timeline >= starts - 1e-9) & (timeline <= ends + 1e-9)
        goals = np.array([(a.goal.x, a.goal.y, a.goal.tolerance) if a.goal else (np.nan,) * 3
                          for a in self.agents]).reshape(-1, 1, 3)
        self.goal_distance = np.linalg.norm(self.pos - goals[..., :2], axis=-1)
        # An agent that has reached its goal is done with its errand; the
        # residual braking creep after arrival must not read as an approach.
        self.en_route = self.active & ~(np.cumsum(self.goal_distance <= goals[..., 2], axis=-1) > 0)
        self.speed = np.linalg.norm(self.vel, axis=-1)
        self.heading = np.where(self.speed > 1e-6, np.arctan2(self.vel[..., 1], self.vel[..., 0]),
                                wrap_angle(pose))
        self.radius = np.array([a.radius for a in self.agents])

    def __getitem__(self, rows) -> SampledAgents:
        view = object.__new__(type(self))
        view.__dict__ = {name: value if name == "timeline" else value[rows]
                         for name, value in vars(self).items()}
        return view


class RobotPairs:
    """The robot against each other agent of a view, a row per agent as in ``others``:
    what metrics and classifiers read of each relation. ``human`` marks the rows of
    humans, the only ones a classifier reads; fields of headings wait for first use."""

    def __init__(self, robot: SampledAgents, others: SampledAgents):
        self.robot, self.others = robot, others
        self.human = np.array([a.kind is AgentKind.HUMAN for a in others.agents], dtype=bool)
        self.dp = others.pos - robot.pos  # (A, T, 2) offset of each agent from the robot
        self.dist = np.linalg.norm(self.dp, axis=-1)
        self.en_route = robot.en_route & others.en_route
        self.slower = np.minimum(robot.speed, others.speed)

    def participating(self, speed_min: float) -> np.ndarray:
        """Steps where a human and the robot are both en route, at ``speed_min`` or faster."""
        return self.human[:, None] & self.en_route & (self.slower >= speed_min)

    @cached_property
    def turn(self) -> np.ndarray:
        return self.robot.heading - self.others.heading  # unwrapped

    @cached_property
    def relative(self) -> np.ndarray:
        return np.abs(wrap_angle(self.turn))  # the angle between the headings, in [0, pi]

    @cached_property
    def travel(self) -> np.ndarray:
        """The robot's direction of travel, which crowd flows are compared with: of its
        net displacement over +-1.5 s, so swerves do not turn it, or its heading
        where that is under 1e-6 m."""
        t, pos, steps = self.robot.timeline, self.robot.pos, np.arange(len(self.robot.pos))
        half = max(1, round(1.5 / (float(t[1] - t[0]) if len(t) > 1 else 1.0)))
        disp = pos[np.minimum(steps + half, len(t) - 1)] - pos[np.maximum(steps - half, 0)]
        return np.where(np.linalg.norm(disp, axis=1) > 1e-6,
                        np.arctan2(disp[:, 1], disp[:, 0]), self.robot.heading)


# --- Validation ------------------------------------------------------------

def _sample_issues(episode: Episode) -> list[list[tuple[str, str]]]:
    """Per-sample violations of each agent (at ``/agents/<i>``), checked a column
    at a time on ``Episode.columns``. A sample with a non-finite time
    or position gets that one issue and is skipped; the time and speed checks
    compare each sample with the last one of its agent that was not. Messages
    are formatted only for violations, and sorted by sample index into the
    order a per-sample scan of each agent reports them."""
    out = [[] for _ in episode.agents]
    t, x, y, heading, vx, vy, has_vel, offsets, owner = episode.columns
    finite_t = np.isfinite(t)
    good = finite_t & np.isfinite(x) & np.isfinite(y)
    bad_heading = good & ~(np.abs(heading) <= math.pi + 1e-9)  # also catches nan and inf
    bad_vel = good & has_vel & ~(np.isfinite(vx) & np.isfinite(vy))
    found = []  # (agent, sample index, rank within the sample, path, message)

    def add(k, rank, suffix, message):
        i, j = int(owner[k]), k - int(offsets[owner[k]])
        found.append((i, j, rank, f"/agents/{i}/states/{j}{suffix}", message))

    if not good.all() or bad_heading.any() or bad_vel.any():
        finite_heading = np.isfinite(heading)
        for mask, rank, suffix, message in (
                (~finite_t, 0, "/t", "must be finite"),
                (finite_t & ~good, 0, "", "position must be finite"),
                (bad_heading & ~finite_heading, 1, "/theta", "must be finite"),
                (bad_vel, 2, "/vx", "velocity must be finite")):
            for k in np.flatnonzero(mask).tolist():
                add(k, rank, suffix, message)
        for k in np.flatnonzero(bad_heading & finite_heading).tolist():
            add(k, 1, "/theta", f"must lie in (-pi, pi], got {float(heading[k])}")

    kept = np.flatnonzero(good)
    t, x, y, agent = t[kept], x[kept], y[kept], owner[kept]
    with np.errstate(all="ignore"):
        dt, dx, dy = t[1:] - t[:-1], x[1:] - x[:-1], y[1:] - y[:-1]
        within = agent[1:] == agent[:-1]  # no step crosses from one agent to the next
        forward = dt > 0
        # np.hypot may differ from math.hypot in the last place, far inside
        # this margin: it only picks the candidates, math.hypot decides.
        near = within & forward & (np.hypot(dx, dy) / dt > V_CAP * (1 - 1e-9))
    for k in np.flatnonzero(within & ~forward).tolist():
        add(int(kept[k + 1]), 3, "/t", "timestamps must be strictly increasing "
            f"({float(t[k])} -> {float(t[k + 1])})")
    for k in np.flatnonzero(near).tolist():
        speed = math.hypot(dx[k], dy[k]) / float(dt[k])
        if speed > V_CAP:
            shown = f"{speed:.2f}" if speed < 1e6 else f"{speed:.3e}"  # not 309 digits at 1e308
            add(int(kept[k + 1]), 3, "", f"implied speed {shown} m/s exceeds cap {V_CAP} m/s")
    for i, _, _, path, message in sorted(found):
        out[i].append((path, message))
    return out


def obstacle_issues(obstacles: ObstacleMap) -> list[tuple[str, str]]:
    """(path, message) violations: segment ends finite and distinct, dynamic
    stamps finite and time-ordered (``ObstacleMap.set_index`` relies on it)."""
    def segment_issues(base, segs):
        found = []
        for i, seg in enumerate(segs):
            if not all(map(math.isfinite, seg)):
                found.append((f"{base}/segments/{i}", "coordinates must be finite"))
            elif seg[:2] == seg[2:]:
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


def check_episode(episode: Episode) -> list[tuple[str, str]]:
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

    for i, (agent, samples) in enumerate(zip(episode.agents, _sample_issues(episode))):
        base = f"/agents/{i}"
        if not (agent.radius > 0 and math.isfinite(agent.radius)):
            issues.append((f"{base}/radius", f"must be > 0, got {agent.radius}"))
        if not len(agent.t):
            issues.append((f"{base}/states", "must be non-empty"))
            continue
        if agent.goal is not None:
            if not (agent.goal.tolerance > 0 and math.isfinite(agent.goal.tolerance)):
                issues.append((f"{base}/goal/tolerance", f"must be > 0, got {agent.goal.tolerance}"))
            if not (math.isfinite(agent.goal.x) and math.isfinite(agent.goal.y)):
                issues.append((f"{base}/goal", "position must be finite"))
        issues.extend(samples)
        if agent is robot and not samples and (too_many := _too_many_steps(
                agent.t_end - agent.t_start, median_sample_interval(agent))):
            issues.append((f"{base}/states", f"the default dt {too_many}"))

        if robot is not None and len(robot.t):
            if agent.t_start > robot.t_end or agent.t_end < robot.t_start:
                issues.append((f"{base}/states", "time span does not overlap the robot's"))

    issues.extend(obstacle_issues(episode.obstacles))

    for i, label in enumerate(episode.labels):
        infinite = [key for key in ("t_start", "t_end") if not math.isfinite(getattr(label, key))]
        issues.extend((f"/labels/{i}/{key}", "must be finite") for key in infinite)
        if not infinite and not label.t_start < label.t_end:
            issues.append((f"/labels/{i}", f"t_start must be < t_end ({label.t_start} >= {label.t_end})"))

    return issues
