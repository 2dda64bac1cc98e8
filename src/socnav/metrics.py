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
from typing import Optional

import numpy as np

from .core import (
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

# Taskwise key set, in reporting order. The first tranche are traditional
# navigation metrics (code NHT), the second quality/social ones (code SHT).
TASKWISE_KEYS = (
    "S", "C", "WC", "AC", "HC", "TO", "FP", "ST", "T", "PL", "SPL",
    "V_min", "V_avg", "V_max", "A_min", "A_avg", "A_max",
    "J_min", "J_avg", "J_max", "CD_min", "CD_avg",
    "SC", "DH_min", "TTC", "AT",
)

_NHT = {"S", "C", "WC", "AC", "HC", "TO", "FP", "ST", "T", "PL", "SPL"}

UNITS = {
    "S": "bool", "C": "collisions", "WC": "collisions", "AC": "collisions",
    "HC": "collisions", "TO": "bool", "FP": "failures", "ST": "s", "T": "s",
    "PL": "m", "SPL": "1",
    "V_min": "m/s", "V_avg": "m/s", "V_max": "m/s",
    "A_min": "m/s^2", "A_avg": "m/s^2", "A_max": "m/s^2",
    "J_min": "m/s^3", "J_avg": "m/s^3", "J_max": "m/s^3",
    "CD_min": "m", "CD_avg": "m", "SC": "1", "DH_min": "m", "TTC": "s", "AT": "s",
}


def taxonomy_code(name: str) -> str:
    return "NHT" if name in _NHT else "SHT"


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
    goal = frames.episode.robot.goal
    if goal is None:
        raise MissingGoal(f"robot {frames.episode.robot.id!r} has no goal")
    inside = frames.robot.goal_distance <= goal.tolerance
    t_term = _termination_time(frames)
    if t_term is not None:
        inside &= frames.timeline < t_term
    hits = np.flatnonzero(inside)
    if len(hits) == 0:
        return None
    return float(frames.timeline[hits[0]])


# --- Taskwise operations ------------------------------------------------------

def success(episode: Episode, params: Optional[MetricParams] = None,
            dt: Optional[float] = None) -> bool:
    """S: whether the robot reaches its goal in time (and before termination)."""
    frames = _resolve(episode, params, dt)
    return _success(frames)


def _success(frames: _Frames) -> bool:
    reach = _first_reach_time(frames)
    return reach is not None and (reach - frames.t0) <= frames.params.timeout + 1e-9


def collisions(episode: Episode, params: Optional[MetricParams] = None,
               dt: Optional[float] = None) -> tuple[int, int, int, int]:
    """(C, WC, AC, HC): total, wall, agent and human collision event counts."""
    frames = _resolve(episode, params, dt)
    return _collisions(frames)


def _collisions(frames: _Frames) -> tuple[int, int, int, int]:
    wall_starts, agent_events = frames.collision_events
    wc = len(wall_starts)
    ac = len(agent_events)
    hc = sum(1 for _, is_human in agent_events if is_human)
    return wc + ac, wc, ac, hc


def timeout(episode: Episode, params: Optional[MetricParams] = None,
            dt: Optional[float] = None) -> bool:
    """TO: failed, and the robot span ran into the time threshold."""
    frames = _resolve(episode, params, dt)
    return _timeout(frames)


def _timeout(frames: _Frames) -> bool:
    robot = frames.episode.robot
    if robot.goal is None:
        succeeded = False
    else:
        succeeded = _success(frames)
    span = robot.t_end - robot.t_start
    return (not succeeded) and span >= frames.params.timeout - 1e-9


def failure_to_progress(episode: Episode, params: Optional[MetricParams] = None,
                        dt: Optional[float] = None) -> int:
    """FP: count of disjoint windows with no progress toward the goal."""
    frames = _resolve(episode, params, dt)
    return _failure_to_progress(frames)


def _failure_to_progress(frames: _Frames) -> int:
    if frames.episode.robot.goal is None:
        raise MissingGoal(f"robot {frames.episode.robot.id!r} has no goal")
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


def stalled_time(episode: Episode, params: Optional[MetricParams] = None,
                 dt: Optional[float] = None) -> float:
    """ST: total time in sub-threshold-speed runs of at least the minimum length."""
    frames = _resolve(episode, params, dt)
    return _stalled_time(frames)


def _stalled_time(frames: _Frames) -> float:
    below = frames.robot.speed < frames.params.stall_speed
    total = 0.0
    for s, e in event_runs(below):
        duration = float(frames.timeline[e - 1] - frames.timeline[s])
        if duration >= frames.params.stall_min_duration - 1e-9:
            total += duration
    return total


def time_to_goal(episode: Episode, params: Optional[MetricParams] = None,
                 dt: Optional[float] = None) -> Optional[float]:
    """T: first-success time minus episode start; None when not successful."""
    frames = _resolve(episode, params, dt)
    return _time_to_goal(frames)


def _time_to_goal(frames: _Frames) -> Optional[float]:
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


def spl(episode: Episode, params: Optional[MetricParams] = None,
        dt: Optional[float] = None) -> float:
    """SPL: success weighted by straight-line over max(straight-line, path)."""
    frames = _resolve(episode, params, dt)
    return _spl(frames)


def _spl(frames: _Frames) -> float:
    robot = frames.episode.robot
    if robot.goal is None:
        raise MissingGoal(f"robot {robot.id!r} has no goal")
    if not _success(frames):
        return 0.0
    start = robot.positions[0]
    straight = float(np.linalg.norm(start - robot.goal.position.as_array()))
    if straight == 0.0:
        # Degenerate start-on-goal case: the ratio would report 0 for a
        # success, but SPL = 0 must mean failure.
        return 1.0
    return straight / max(straight, path_length(frames.episode))


def _central_first_derivative(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (y[2:] - y[:-2]) / (t[2:] - t[:-2])


def _central_second_derivative(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    h0 = t[1:-1] - t[:-2]
    h1 = t[2:] - t[1:-1]
    return 2.0 * (y[:-2] / (h0 * (h0 + h1)) - y[1:-1] / (h0 * h1) + y[2:] / (h1 * (h0 + h1)))


def _features(values: np.ndarray) -> tuple[float, float, float]:
    return float(values.min()), float(values.mean()), float(values.max())


def velocity_features(episode: Episode, params: Optional[MetricParams] = None,
                      dt: Optional[float] = None) -> tuple[float, float, float]:
    """(V_min, V_avg, V_max) of the scalar speed over the timeline."""
    if len(episode.robot.t) < 2:
        raise TooFewStates("velocity features need >= 2 states")
    frames = _resolve(episode, params, dt)
    return _features(frames.robot.speed)


def acceleration_features(episode: Episode, params: Optional[MetricParams] = None,
                          dt: Optional[float] = None) -> tuple[float, float, float]:
    """(A_min, A_avg, A_max) of d(speed)/dt at interior timeline points."""
    if len(episode.robot.t) < 3:
        raise TooFewStates("acceleration features need >= 3 states")
    frames = _resolve(episode, params, dt)
    if len(frames.timeline) < 3:
        raise TooFewStates("timeline too short for a central difference")
    return _features(_central_first_derivative(frames.timeline, frames.robot.speed))


def jerk_features(episode: Episode, params: Optional[MetricParams] = None,
                  dt: Optional[float] = None) -> tuple[float, float, float]:
    """(J_min, J_avg, J_max) of the second derivative of the scalar speed."""
    if len(episode.robot.t) < 4:
        raise TooFewStates("jerk features need >= 4 states")
    frames = _resolve(episode, params, dt)
    if len(frames.timeline) < 3:
        raise TooFewStates("timeline too short for a second difference")
    return _features(_central_second_derivative(frames.timeline, frames.robot.speed))


def clearing_distance_features(episode: Episode, params: Optional[MetricParams] = None,
                               dt: Optional[float] = None) -> tuple[float, Optional[float]]:
    """(CD_min, CD_avg): body-to-obstacle clearance; (+inf, None) without obstacles."""
    frames = _resolve(episode, params, dt)
    return _clearing_distance(frames)


def _clearing_distance(frames: _Frames) -> tuple[float, Optional[float]]:
    d = frames.obstacle_distances
    defined = np.isfinite(d)
    if not defined.any():
        return math.inf, None
    clearance = np.clip(d[defined] - frames.episode.robot.radius, 0.0, None)
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


def min_distance_to_human(episode: Episode, params: Optional[MetricParams] = None,
                          dt: Optional[float] = None) -> float:
    """DH_min: minimum center-to-center distance to any human; +inf if none."""
    frames = _resolve(episode, params, dt)
    return _min_distance_to_human(frames)


def _min_distance_to_human(frames: _Frames) -> float:
    return float(frames.nearest_human.min())


def min_time_to_collision(episode: Episode, params: Optional[MetricParams] = None,
                          dt: Optional[float] = None) -> float:
    """TTC: minimum constant-velocity time to contact with any human."""
    frames = _resolve(episode, params, dt)
    return _min_time_to_collision(frames)


def _min_time_to_collision(frames: _Frames) -> float:
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


def aggregated_time(episode: Episode, params: Optional[MetricParams] = None,
                    dt: Optional[float] = None) -> Optional[float]:
    """AT: latest first goal-reach time across the cooperative set; None if
    the set is empty/absent or any member never reaches its goal."""
    frames = _resolve(episode, params, dt)
    return _aggregated_time(frames)


def _aggregated_time(frames: _Frames) -> Optional[float]:
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


# --- Report assembly ----------------------------------------------------------

def _metric(name: str, value, params_used: Optional[dict] = None) -> MetricValue:
    return MetricValue(name=name, value=value, unit=UNITS[name],
                       code=taxonomy_code(name), params_used=params_used or {})


def compute_all(episode: Episode, params: Optional[MetricParams] = None,
                dt: Optional[float] = None, include_stepwise: bool = False) -> MetricReport:
    """Compute the full taskwise suite (and optional stepwise series).

    Goal-dependent metrics are None when the robot has no goal; derivative
    features are None when the trajectory is too short for their stencil.
    """
    frames = _resolve(episode, params, dt)
    p = frames.params
    has_goal = episode.robot.goal is not None

    c, wc, ac, hc = _collisions(frames)
    term_params = {"collision_terminate_count": p.collision_terminate_count}
    values = {
        "C": _metric("C", c, term_params),
        "WC": _metric("WC", wc, term_params),
        "AC": _metric("AC", ac, term_params),
        "HC": _metric("HC", hc, term_params),
        "TO": _metric("TO", _timeout(frames), {"timeout": p.timeout}),
        "ST": _metric("ST", _stalled_time(frames),
                      {"stall_speed": p.stall_speed, "stall_min_duration": p.stall_min_duration}),
        "PL": _metric("PL", path_length(episode)),
        "SC": _metric("SC", _space_compliance(frames),
                      {"space_threshold": p.space_threshold, "complement": False}),
        "DH_min": _metric("DH_min", _min_distance_to_human(frames)),
        "TTC": _metric("TTC", _min_time_to_collision(frames)),
        "AT": _metric("AT", _aggregated_time(frames),
                      {"cooperative_agent_ids": sorted(p.cooperative_agent_ids)
                       if p.cooperative_agent_ids else None}),
    }

    success_params = {"timeout": p.timeout,
                      "collision_terminate_count": p.collision_terminate_count}
    if has_goal:
        values["S"] = _metric("S", _success(frames), success_params)
        values["T"] = _metric("T", _time_to_goal(frames), success_params)
        values["SPL"] = _metric("SPL", _spl(frames), success_params)
        values["FP"] = _metric("FP", _failure_to_progress(frames),
                               {"fp_distance_eps": p.fp_distance_eps, "fp_window": p.fp_window})
    else:
        values["S"] = _metric("S", None, success_params)
        values["T"] = _metric("T", None, success_params)
        values["SPL"] = _metric("SPL", None, success_params)
        values["FP"] = _metric("FP", None,
                               {"fp_distance_eps": p.fp_distance_eps, "fp_window": p.fp_window})

    n_states = len(episode.robot.t)
    n_steps = len(frames.timeline)
    v = _features(frames.robot.speed) if n_states >= 2 else (None, None, None)
    a = (_central_first_derivative(frames.timeline, frames.robot.speed)
         if n_states >= 3 and n_steps >= 3 else None)
    j = (_central_second_derivative(frames.timeline, frames.robot.speed)
         if n_states >= 4 and n_steps >= 3 else None)
    for prefix, triple in (("V", v),
                           ("A", _features(a) if a is not None else (None, None, None)),
                           ("J", _features(j) if j is not None else (None, None, None))):
        for suffix, val in zip(("min", "avg", "max"), triple):
            name = f"{prefix}_{suffix}"
            values[name] = _metric(name, val)

    cd_min, cd_avg = _clearing_distance(frames)
    values["CD_min"] = _metric("CD_min", cd_min)
    values["CD_avg"] = _metric("CD_avg", cd_avg)

    stepwise = _stepwise_series(frames, a, j) if include_stepwise else None
    ordered = {key: values[key] for key in TASKWISE_KEYS}
    return MetricReport(episode_id=episode.episode_id, params=p, dt=frames.dt,
                        taskwise=ordered, stepwise=stepwise)


def _stepwise_series(frames: _Frames, accel: Optional[np.ndarray],
                     jerk: Optional[np.ndarray]) -> dict[str, StepSeries]:
    t = frames.timeline
    out = {"speed": StepSeries("speed", "m/s", tuple(map(float, t)),
                               tuple(map(float, frames.robot.speed)))}
    if accel is not None:
        out["acceleration"] = StepSeries("acceleration", "m/s^2",
                                         tuple(map(float, t[1:-1])), tuple(map(float, accel)))
    if jerk is not None:
        out["jerk"] = StepSeries("jerk", "m/s^3",
                                 tuple(map(float, t[1:-1])), tuple(map(float, jerk)))
    if frames.episode.robot.goal is not None:
        out["distance_to_goal"] = StepSeries("distance_to_goal", "m", tuple(map(float, t)),
                                             tuple(map(float, frames.robot.goal_distance)))
    nearest = frames.nearest_human
    defined = np.isfinite(nearest)
    if defined.any():
        out["distance_to_nearest_human"] = StepSeries(
            "distance_to_nearest_human", "m",
            tuple(map(float, t[defined])), tuple(map(float, nearest[defined])))
    od = frames.obstacle_distances
    defined = np.isfinite(od)
    if defined.any():
        clearance = np.clip(od[defined] - frames.episode.robot.radius, 0.0, None)
        out["clearing_distance"] = StepSeries(
            "clearing_distance", "m",
            tuple(map(float, t[defined])), tuple(map(float, clearance)))
    return out
