"""The hand-crafted metric suite, stepwise and taskwise, with taxonomy codes.

``compute_all(episode, params=None, dt=None)`` is the one entry: it gives
every metric of the table below, null where the episode cannot define it.
Steps are the samples of ``episode.resampled(dt)``, built once per dt and
shared with the classifiers; dt defaults to the robot's median raw sampling
interval.
All distances between agents are center-to-center unless a body radius is
explicitly involved (collisions, clearing distance).

Degenerate results are explicit: minima over empty sets are +inf and
undefined averages are None, never silent zeros.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import _param_echo, Episode, MetricParams, event_runs
from .errors import InvariantError
from .geometry import first_collision_time, point_segment_distance

CODE_PATTERN = re.compile(r"^[NSA][HLQS][ST]$")


@dataclass(frozen=True)
class StepSeries:
    """A per-timestep score: parallel (timeline, values) arrays."""

    name: str
    unit: str
    timeline: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.timeline) != len(self.values):
            raise InvariantError(f"/stepwise/{self.name}", "timeline and values lengths differ")
        if any(b <= a for a, b in zip(self.timeline, self.timeline[1:])):
            raise InvariantError(f"/stepwise/{self.name}", "timeline must be strictly increasing")


@dataclass(frozen=True)
class MetricValue:
    name: str
    value: bool | int | float | None
    unit: str
    code: str
    params_used: dict = field(default_factory=dict)

    def __post_init__(self):
        if not CODE_PATTERN.match(self.code):
            raise InvariantError(f"/metrics/{self.name}/code", f"invalid taxonomy code {self.code!r}")


@dataclass(frozen=True)
class MetricReport:
    episode_id: str
    params: MetricParams
    dt: float
    taskwise: dict[str, MetricValue]
    stepwise: Optional[dict[str, StepSeries]] = None


# --- Sampled view of an episode ---------------------------------------------

class _Frames:
    """Everything the metric suite needs, on the episode's resampled view."""

    def __init__(self, episode: Episode, params: Optional[MetricParams], dt: Optional[float]):
        self.episode = episode
        self.params = params if params is not None else MetricParams()
        self.dt, self.timeline, self.robot, self.others, self.pairs = episode.resampled(dt)
        self.t0 = float(self.timeline[0])

    @cached_property
    def distances(self) -> np.ndarray:
        """(M, N) center-to-center distance of each other agent; inf where inactive."""
        return np.where(self.others.active, self.pairs.dist, np.inf)

    @cached_property
    def nearest_human(self) -> np.ndarray:
        """(N,) distance to the nearest active human; inf where there is none."""
        return self.distances[self.pairs.human].min(axis=0, initial=np.inf)

    @cached_property
    def obstacle_distances(self) -> np.ndarray:
        """(N,) center-to-nearest-segment distance; inf where no segment is active."""
        obstacles = self.episode.obstacles
        out = np.full(len(self.timeline), np.inf)
        groups = obstacles.set_index(self.timeline)
        for g in sorted(set(groups.tolist())):  # np.unique would import numpy.ma
            a, b = obstacles.segment_sets[g]
            if len(a):
                steps = groups == g
                out[steps] = point_segment_distance(self.robot.pos[steps], a, b).min(axis=1)
        return out

    @cached_property
    def collision_events(self) -> tuple[list[float], list[tuple[float, bool]]]:
        """Wall and agent collision events: (wall start times, [(start time, is_human)]).

        An event is a maximal contiguous run of timeline steps where an
        overlap holds: per non-robot agent for agent events, against the
        union of active wall segments for wall events.
        """
        r = self.episode.robot.radius
        wall_starts = [float(self.timeline[s]) for s, _ in event_runs(self.obstacle_distances < r)]
        overlap = self.distances < r + self.others.radius[:, None]
        agent_events = [(float(self.timeline[s]), bool(self.pairs.human[i]))
                        for i in np.flatnonzero(overlap.any(axis=1)).tolist()
                        for s, _ in event_runs(overlap[i])]
        return wall_starts, agent_events

    @cached_property
    def termination_time(self) -> Optional[float]:
        """Start time of the k-th collision event when termination is configured."""
        k = self.params.collision_terminate_count
        if k is None:
            return None
        wall_starts, agent_events = self.collision_events
        starts = sorted(wall_starts + [t for t, _ in agent_events])
        return starts[k - 1] if len(starts) >= k else None

    @cached_property
    def reach_time(self) -> Optional[float]:
        """Time of the robot's first step inside goal tolerance, before any termination."""
        inside = self.robot.goal_distance <= self.episode.robot.goal.tolerance
        if self.termination_time is not None:
            inside &= self.timeline < self.termination_time
        hits = np.flatnonzero(inside)
        return float(self.timeline[hits[0]]) if len(hits) else None

    @cached_property
    def clearance(self) -> np.ndarray:
        """(N,) body-to-obstacle clearance, clipped at 0; inf where no segment is active."""
        return np.clip(self.obstacle_distances - self.episode.robot.radius, 0.0, None)

    @cached_property
    def accel(self) -> np.ndarray:
        """d(speed)/dt at the interior steps, by central differences."""
        t, y = self.timeline, self.robot.speed
        return (y[2:] - y[:-2]) / (t[2:] - t[:-2])

    @cached_property
    def jerk(self) -> np.ndarray:
        """d²(speed)/dt² at the interior steps, by the three-point second difference."""
        t, y = self.timeline, self.robot.speed
        h0 = t[1:-1] - t[:-2]
        h1 = t[2:] - t[1:-1]
        return 2.0 * (y[:-2] / (h0 * (h0 + h1)) - y[1:-1] / (h0 * h1) + y[2:] / (h1 * (h0 + h1)))


# --- Taskwise kernels ----------------------------------------------------------

def _success(frames: _Frames) -> bool:
    """S: whether the robot reaches its goal in time (and before termination)."""
    reach = frames.reach_time
    return reach is not None and (reach - frames.t0) <= frames.params.timeout + 1e-9


def _collisions(frames: _Frames) -> tuple[int, int, int, int]:
    """(C, WC, AC, HC): total, wall, agent and human collision event counts."""
    wall_starts, agent_events = frames.collision_events
    wc = len(wall_starts)
    ac = len(agent_events)
    hc = sum(1 for _, is_human in agent_events if is_human)
    return wc + ac, wc, ac, hc


def _timeout(frames: _Frames) -> bool:
    """TO: failed, and the robot span ran into the time threshold."""
    robot = frames.episode.robot
    succeeded = robot.goal is not None and _success(frames)
    span = robot.t_end - robot.t_start
    return (not succeeded) and span >= frames.params.timeout - 1e-9


def _failure_to_progress(frames: _Frames) -> int:
    """FP: count of disjoint windows with no progress toward the goal."""
    d = frames.robot.goal_distance
    t = frames.timeline
    eps = frames.params.fp_distance_eps
    window = frames.params.fp_window
    count = 0
    i = 0
    for j in range(1, len(t)):
        if d[j] < d[i] - eps:
            i = j  # progress: restart the candidate window here
        elif t[j] - t[i] >= window - 1e-9:
            count += 1
            i = j  # counted: next window starts afresh
    return count


def _stalled_time(frames: _Frames) -> float:
    """ST: total time in sub-threshold-speed runs of at least the minimum length."""
    below = frames.robot.speed < frames.params.stall_speed
    total = 0.0
    for s, e in event_runs(below):
        duration = float(frames.timeline[e - 1] - frames.timeline[s])
        if duration >= frames.params.stall_min_duration - 1e-9:
            total += duration
    return total


def _time_to_goal(frames: _Frames) -> Optional[float]:
    """T: first-success time minus episode start; None when not successful."""
    if not _success(frames):
        return None
    return frames.reach_time - frames.t0


def _path_length(frames: _Frames) -> float:
    """PL: sum of consecutive displacements of the raw robot positions."""
    xy = frames.episode.robot.positions
    if len(xy) < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(xy, axis=0), axis=1).sum())


def _spl(frames: _Frames) -> float:
    """SPL: success weighted by straight-line over max(straight-line, path)."""
    robot = frames.episode.robot
    if not _success(frames):
        return 0.0
    start = robot.positions[0]
    straight = float(np.linalg.norm(start - (robot.goal.x, robot.goal.y)))
    if straight == 0.0:
        # Degenerate start-on-goal case: the ratio would report 0 for a
        # success, but SPL = 0 must mean failure.
        return 1.0
    return straight / max(straight, _path_length(frames))


def _features(values: np.ndarray) -> tuple[float, float, float]:
    return float(values.min()), float(values.mean()), float(values.max())


def _velocity_features(frames: _Frames) -> tuple[float, float, float]:
    """(V_min, V_avg, V_max) of the scalar speed over the timeline."""
    return _features(frames.robot.speed)


def _acceleration_features(frames: _Frames) -> tuple[float, float, float]:
    """(A_min, A_avg, A_max) of d(speed)/dt at interior timeline points."""
    return _features(frames.accel)


def _jerk_features(frames: _Frames) -> tuple[float, float, float]:
    """(J_min, J_avg, J_max) of the second derivative of the scalar speed."""
    return _features(frames.jerk)


def _clearing_distance_features(frames: _Frames) -> tuple[float, Optional[float]]:
    """(CD_min, CD_avg): body-to-obstacle clearance; (+inf, None) without obstacles."""
    clearance = frames.clearance[np.isfinite(frames.clearance)]
    if not clearance.size:
        return math.inf, None
    return float(clearance.min()), float(clearance.mean())


def _space_compliance(frames: _Frames) -> float:
    """SC: fraction of steps keeping at least ``params.space_threshold`` to every human.

    The reading rewards compliance (1.0 is best), and reports echo
    ``complement: false``; the violation ratio is 1 - SC. At the default
    0.5 m threshold this is the usual personal-space-compliance number.
    Distances are center-to-center to suit point-trajectory datasets.
    """
    return float(np.mean(frames.nearest_human >= frames.params.space_threshold))


def _min_distance_to_human(frames: _Frames) -> float:
    """DH_min: minimum center-to-center distance to any human; +inf if none."""
    return float(frames.nearest_human.min())


def _min_time_to_collision(frames: _Frames) -> float:
    """TTC: minimum constant-velocity time to contact with any human."""
    others = frames.others
    rows = frames.pairs.human & others.active.any(axis=1)
    tau = first_collision_time(frames.pairs.dp[rows], others.vel[rows] - frames.robot.vel,
                               frames.episode.robot.radius + others.radius[rows, None])
    return float(tau[others.active[rows]].min(initial=math.inf))


def _aggregated_time(frames: _Frames) -> Optional[float]:
    """AT: latest first goal-reach time across the cooperative set; None
    without one or if any member never reaches its goal."""
    ids = frames.params.cooperative_agent_ids
    if ids is None:
        return None
    latest = 0.0
    for agent_id in sorted(ids):
        try:
            agent = frames.episode.agent(agent_id)
        except KeyError:
            return None
        if agent.goal is None:
            return None
        d = np.linalg.norm(agent.positions - (agent.goal.x, agent.goal.y), axis=1)
        hits = np.flatnonzero(d <= agent.goal.tolerance)
        if len(hits) == 0:
            return None
        latest = max(latest, float(agent.t[hits[0]]) - frames.t0)
    return latest


# --- The metric table ------------------------------------------------------------

class _Row(NamedTuple):
    """One metric family. It is undefined without a robot goal (``needs_goal``), below
    ``min_states`` robot states, or for a derivative ``stencil`` below 3 timeline steps."""

    keys: tuple[str, ...]
    unit: str
    code: str
    fn: Callable[[_Frames], object]
    params: tuple[str, ...] = ()  # the MetricParams fields echoed in params_used
    fixed: tuple[tuple[str, object], ...] = ()  # constant echoes: SC's one reading
    needs_goal: bool = False
    min_states: int = 0
    stencil: bool = False

    def values(self, frames: _Frames) -> tuple:
        out = self.fn(frames)
        return (out,) if len(self.keys) == 1 else out


_SUCCESS_PARAMS = ("timeout", "collision_terminate_count")

# In reporting order. Navigation metrics are NHT, quality/social ones SHT.
_ROWS = (
    _Row(("S",), "bool", "NHT", _success, _SUCCESS_PARAMS, needs_goal=True),
    _Row(("C", "WC", "AC", "HC"), "collisions", "NHT", _collisions,
         ("collision_terminate_count",)),
    _Row(("TO",), "bool", "NHT", _timeout, ("timeout",)),
    _Row(("FP",), "failures", "NHT", _failure_to_progress, ("fp_distance_eps", "fp_window"),
         needs_goal=True),
    _Row(("ST",), "s", "NHT", _stalled_time, ("stall_speed", "stall_min_duration")),
    _Row(("T",), "s", "NHT", _time_to_goal, _SUCCESS_PARAMS, needs_goal=True),
    _Row(("PL",), "m", "NHT", _path_length),
    _Row(("SPL",), "1", "NHT", _spl, _SUCCESS_PARAMS, needs_goal=True),
    _Row(("V_min", "V_avg", "V_max"), "m/s", "SHT", _velocity_features, min_states=2),
    _Row(("A_min", "A_avg", "A_max"), "m/s^2", "SHT", _acceleration_features, min_states=3,
         stencil=True),
    _Row(("J_min", "J_avg", "J_max"), "m/s^3", "SHT", _jerk_features, min_states=4,
         stencil=True),
    _Row(("CD_min", "CD_avg"), "m", "SHT", _clearing_distance_features),
    _Row(("SC",), "1", "SHT", _space_compliance, ("space_threshold",),
         fixed=(("complement", False),)),
    _Row(("DH_min",), "m", "SHT", _min_distance_to_human),
    _Row(("TTC",), "s", "SHT", _min_time_to_collision),
    _Row(("AT",), "s", "SHT", _aggregated_time, ("cooperative_agent_ids",)),
)
_ROW_OF = {key: row for row in _ROWS for key in row.keys}

TASKWISE_KEYS = tuple(_ROW_OF)
UNITS = {key: row.unit for key, row in _ROW_OF.items()}


def taxonomy_code(name: str) -> str:
    return _ROW_OF[name].code if name in _ROW_OF else "NHT"


def _defined(row: _Row, episode: Episode, steps: int) -> bool:
    """Whether ``row`` has a value on ``episode`` over a timeline of ``steps`` steps."""
    robot = episode.robot
    return (not (row.needs_goal and robot.goal is None) and len(robot.t) >= row.min_states
            and not (row.stencil and steps < 3))


# --- Report assembly ----------------------------------------------------------

def compute_all(episode: Episode, params: Optional[MetricParams] = None,
                dt: Optional[float] = None, include_stepwise: bool = False) -> MetricReport:
    """Compute the full taskwise suite (and optional stepwise series).

    Goal-dependent metrics are None when the robot has no goal; derivative
    features are None when the trajectory is too short for their stencil.
    """
    frames = _Frames(episode, params, dt)
    p = frames.params
    steps = len(frames.timeline)
    taskwise = {}
    for row in _ROWS:
        defined = _defined(row, episode, steps)
        values = row.values(frames) if defined else (None,) * len(row.keys)
        used = {name: _param_echo(p, name) for name in row.params}
        used.update(row.fixed)
        for key, value in zip(row.keys, values):
            taskwise[key] = MetricValue(name=key, value=value, unit=row.unit, code=row.code,
                                        params_used=used)
    stepwise = _stepwise_series(frames) if include_stepwise else None
    return MetricReport(episode_id=episode.episode_id, params=p, dt=frames.dt,
                        taskwise=taskwise, stepwise=stepwise)


STEPWISE_UNITS = {"speed": "m/s", "acceleration": "m/s^2", "jerk": "m/s^3",
                  "distance_to_goal": "m", "distance_to_nearest_human": "m",
                  "clearing_distance": "m"}


def _stepwise_series(frames: _Frames) -> dict[str, StepSeries]:
    t = frames.timeline
    series = [("speed", t, frames.robot.speed)]
    if _defined(_ROW_OF["A_min"], frames.episode, len(t)):
        series.append(("acceleration", t[1:-1], frames.accel))
    if _defined(_ROW_OF["J_min"], frames.episode, len(t)):
        series.append(("jerk", t[1:-1], frames.jerk))
    if frames.episode.robot.goal is not None:
        series.append(("distance_to_goal", t, frames.robot.goal_distance))
    for name, values in (("distance_to_nearest_human", frames.nearest_human),
                         ("clearing_distance", frames.clearance)):
        defined = np.isfinite(values)
        if defined.any():
            series.append((name, t[defined], values[defined]))
    return {name: StepSeries(name, STEPWISE_UNITS[name], tuple(map(float, times)),
                             tuple(map(float, values)))
            for name, times, values in series}
