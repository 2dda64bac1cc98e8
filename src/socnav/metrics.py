"""The hand-crafted metric suite, stepwise and taskwise, with taxonomy codes.

Every public operation takes ``(episode, params=None, dt=None)``; steps are
the samples of ``common_timeline(episode, dt)``, with dt defaulting to the
robot's median raw sampling interval. All distance computations between
agents are center-to-center unless a body radius is explicitly involved
(collisions, clearing distance).

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

from .core import (
    _param_echo,
    AgentKind,
    Episode,
    MetricParams,
    SampledAgent,
    common_timeline,
    default_dt,
    event_runs,
)
from .errors import InvariantError, MissingGoal, TooFewStates
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
    """Everything the metric suite needs, computed once per episode."""

    def __init__(self, episode: Episode, params: MetricParams, dt: float):
        self.episode = episode
        self.params = params
        self.dt = dt
        self.timeline = common_timeline(episode, dt)
        self.t0 = float(self.timeline[0])
        self.robot = SampledAgent(episode.robot, self.timeline)
        self.tracks = [SampledAgent(a, self.timeline) for a in episode.others]

    @cached_property
    def distances(self) -> np.ndarray:
        """(N, M) center-to-center distances to each track; inf where inactive."""
        if not self.tracks:
            return np.full((len(self.timeline), 0), np.inf)
        d = np.stack([np.linalg.norm(tr.pos - self.robot.pos, axis=1) for tr in self.tracks], axis=1)
        act = np.stack([tr.active for tr in self.tracks], axis=1)
        return np.where(act, d, np.inf)

    @cached_property
    def nearest_human(self) -> np.ndarray:
        """(N,) distance to the nearest active human; inf where there is none."""
        humans = [tr.agent.kind is AgentKind.HUMAN for tr in self.tracks]
        return self.distances[:, humans].min(axis=1, initial=np.inf)

    @cached_property
    def obstacle_distances(self) -> np.ndarray:
        """(N,) center-to-nearest-segment distance; inf where no segment is active."""
        obstacles = self.episode.obstacles
        out = np.full(len(self.timeline), np.inf)
        groups = obstacles.set_index(self.timeline)
        for g in np.unique(groups).tolist():
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
        agent_events = []
        for i, tr in enumerate(self.tracks):
            for s, _ in event_runs(self.distances[:, i] < r + tr.agent.radius):
                agent_events.append((float(self.timeline[s]), tr.agent.kind is AgentKind.HUMAN))
        return wall_starts, agent_events

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


def _resolve(episode: Episode, params: Optional[MetricParams], dt: Optional[float]) -> _Frames:
    return _Frames(episode, params if params is not None else MetricParams(),
                   dt if dt is not None else default_dt(episode))


# --- Collision events --------------------------------------------------------

def _termination_time(frames: _Frames) -> Optional[float]:
    """Start time of the k-th collision event when termination is configured."""
    k = frames.params.collision_terminate_count
    if k is None:
        return None
    wall_starts, agent_events = frames.collision_events
    starts = sorted(wall_starts + [t for t, _ in agent_events])
    if len(starts) < k:
        return None
    return starts[k - 1]


def _first_reach_time(frames: _Frames) -> Optional[float]:
    """Time of the first step inside goal tolerance, before any termination."""
    inside = frames.robot.goal_distance <= frames.episode.robot.goal.tolerance
    t_term = _termination_time(frames)
    if t_term is not None:
        inside &= frames.timeline < t_term
    hits = np.flatnonzero(inside)
    if len(hits) == 0:
        return None
    return float(frames.timeline[hits[0]])


# --- Taskwise kernels ----------------------------------------------------------
# One per row of the metric table below; ``_public`` gives each kernel's
# name, docstring and return annotation to its public function.

def _success(frames: _Frames) -> bool:
    """S: whether the robot reaches its goal in time (and before termination)."""
    reach = _first_reach_time(frames)
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
    return _first_reach_time(frames) - frames.t0


def path_length(episode: Episode, params: Optional[MetricParams] = None,
                dt: Optional[float] = None) -> float:
    """PL: sum of consecutive displacements of the raw robot positions."""
    xy = episode.robot.positions
    if len(xy) < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(xy, axis=0), axis=1).sum())


def _spl(frames: _Frames) -> float:
    """SPL: success weighted by straight-line over max(straight-line, path)."""
    robot = frames.episode.robot
    if not _success(frames):
        return 0.0
    start = robot.positions[0]
    straight = float(np.linalg.norm(start - robot.goal.position.as_array()))
    if straight == 0.0:
        # Degenerate start-on-goal case: the ratio would report 0 for a
        # success, but SPL = 0 must mean failure.
        return 1.0
    return straight / max(straight, path_length(frames.episode))


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


def space_compliance(episode: Episode, params: Optional[MetricParams] = None,
                     dt: Optional[float] = None, threshold: Optional[float] = None,
                     complement: bool = False) -> float:
    """SC: fraction of steps keeping at least the threshold distance to humans.

    The default reading rewards compliance (1.0 is best); pass
    ``complement=True`` for the violation-ratio reading. At the default
    0.5 m threshold this is the usual personal-space-compliance number.
    Distances are center-to-center to suit point-trajectory datasets.
    """
    frames = _resolve(episode, params, dt)
    return _space_compliance(frames, threshold=threshold, complement=complement)


def _space_compliance(frames: _Frames, threshold: Optional[float] = None,
                      complement: bool = False) -> float:
    if threshold is None:
        threshold = frames.params.space_threshold
    compliant = float(np.mean(frames.nearest_human >= threshold))
    return 1.0 - compliant if complement else compliant


def _min_distance_to_human(frames: _Frames) -> float:
    """DH_min: minimum center-to-center distance to any human; +inf if none."""
    return float(frames.nearest_human.min())


def _min_time_to_collision(frames: _Frames) -> float:
    """TTC: minimum constant-velocity time to contact with any human."""
    r = frames.episode.robot.radius
    best = math.inf
    for tr in frames.tracks:
        if tr.agent.kind is not AgentKind.HUMAN or not tr.active.any():
            continue
        dp = tr.pos - frames.robot.pos
        dv = tr.vel - frames.robot.vel
        tau = first_collision_time(dp, dv, r + tr.agent.radius)
        tau = tau[tr.active]
        if tau.size:
            best = min(best, float(tau.min()))
    return best


def _aggregated_time(frames: _Frames) -> Optional[float]:
    """AT: latest first goal-reach time across the cooperative set; None if
    the set is empty/absent or any member never reaches its goal."""
    ids = frames.params.cooperative_agent_ids
    if not ids:
        return None
    latest = 0.0
    for agent_id in sorted(ids):
        try:
            agent = frames.episode.agent(agent_id)
        except KeyError:
            return None
        if agent.goal is None:
            return None
        d = np.linalg.norm(agent.positions - agent.goal.position.as_array(), axis=1)
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
    fixed: tuple[tuple[str, object], ...] = ()  # constant echoes: SC's default reading
    needs_goal: bool = False
    min_states: int = 0
    stencil: str = ""

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
    _Row(("PL",), "m", "NHT", lambda frames: path_length(frames.episode)),
    _Row(("SPL",), "1", "NHT", _spl, _SUCCESS_PARAMS, needs_goal=True),
    _Row(("V_min", "V_avg", "V_max"), "m/s", "SHT", _velocity_features, min_states=2),
    _Row(("A_min", "A_avg", "A_max"), "m/s^2", "SHT", _acceleration_features, min_states=3,
         stencil="central difference"),
    _Row(("J_min", "J_avg", "J_max"), "m/s^3", "SHT", _jerk_features, min_states=4,
         stencil="second difference"),
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
    return _ROW_OF[name].code if name in _ROW_OF else "SHT"


def _undefined(row: _Row, episode: Episode, steps: Optional[int] = None) -> Optional[Exception]:
    """The error saying why ``row`` has no value, or None; the stencil check
    needs the timeline length ``steps`` and is skipped without it."""
    robot = episode.robot
    if row.needs_goal and robot.goal is None:
        return MissingGoal(f"robot {robot.id!r} has no goal")
    if len(robot.t) < row.min_states:
        what = row.fn.__name__[1:].replace("_", " ")
        return TooFewStates(f"{what} need >= {row.min_states} states")
    if row.stencil and steps is not None and steps < 3:
        return TooFewStates(f"timeline too short for a {row.stencil}")
    return None


def _public(fn: Callable[[_Frames], object]) -> Callable:
    """The public operation of the kernel ``fn``: it raises where ``compute_all`` gives null."""
    row = next(r for r in _ROWS if r.fn is fn)

    def metric(episode: Episode, params: Optional[MetricParams] = None,
               dt: Optional[float] = None):
        error = _undefined(row, episode)
        if error is None:
            frames = _resolve(episode, params, dt)
            error = _undefined(row, episode, len(frames.timeline))
        if error is not None:
            raise error
        return fn(frames)

    metric.__name__ = metric.__qualname__ = fn.__name__[1:]
    metric.__doc__ = fn.__doc__
    metric.__annotations__ = {**metric.__annotations__, "return": fn.__annotations__["return"]}
    return metric


success = _public(_success)
collisions = _public(_collisions)
timeout = _public(_timeout)
failure_to_progress = _public(_failure_to_progress)
stalled_time = _public(_stalled_time)
time_to_goal = _public(_time_to_goal)
spl = _public(_spl)
velocity_features = _public(_velocity_features)
acceleration_features = _public(_acceleration_features)
jerk_features = _public(_jerk_features)
clearing_distance_features = _public(_clearing_distance_features)
min_distance_to_human = _public(_min_distance_to_human)
min_time_to_collision = _public(_min_time_to_collision)
aggregated_time = _public(_aggregated_time)


# --- Report assembly ----------------------------------------------------------

def compute_all(episode: Episode, params: Optional[MetricParams] = None,
                dt: Optional[float] = None, include_stepwise: bool = False) -> MetricReport:
    """Compute the full taskwise suite (and optional stepwise series).

    Goal-dependent metrics are None when the robot has no goal; derivative
    features are None when the trajectory is too short for their stencil.
    """
    frames = _resolve(episode, params, dt)
    p = frames.params
    steps = len(frames.timeline)
    taskwise = {}
    for row in _ROWS:
        defined = _undefined(row, episode, steps) is None
        values = row.values(frames) if defined else (None,) * len(row.keys)
        used = {name: _param_echo(p, name) for name in row.params}
        used.update(row.fixed)
        for key, value in zip(row.keys, values):
            taskwise[key] = MetricValue(name=key, value=value, unit=row.unit, code=row.code,
                                        params_used=used)
    stepwise = _stepwise_series(frames) if include_stepwise else None
    return MetricReport(episode_id=episode.episode_id, params=p, dt=frames.dt,
                        taskwise=taskwise, stepwise=stepwise)


def _stepwise_series(frames: _Frames) -> dict[str, StepSeries]:
    t = frames.timeline
    series = [("speed", "m/s", t, frames.robot.speed)]
    if _undefined(_ROW_OF["A_min"], frames.episode, len(t)) is None:
        series.append(("acceleration", "m/s^2", t[1:-1], frames.accel))
    if _undefined(_ROW_OF["J_min"], frames.episode, len(t)) is None:
        series.append(("jerk", "m/s^3", t[1:-1], frames.jerk))
    if frames.episode.robot.goal is not None:
        series.append(("distance_to_goal", "m", t, frames.robot.goal_distance))
    for name, values in (("distance_to_nearest_human", frames.nearest_human),
                         ("clearing_distance", frames.clearance)):
        defined = np.isfinite(values)
        if defined.any():
            series.append((name, "m", t[defined], values[defined]))
    return {name: StepSeries(name, unit, tuple(map(float, times)), tuple(map(float, values)))
            for name, unit, times, values in series}
