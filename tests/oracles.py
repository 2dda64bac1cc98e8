"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's vectorized code paths: plain loops,
scalar math, and their own geometry, so a bug would have to appear twice
to go unnoticed. ``interpolate_state`` and ``derive_velocities`` are the
per-sample forms the simulator's replay and the metrics were first written
against; ``interpolate_state`` returns its own ``State`` record. The
library itself reads columns. ``reference_serialize_episode`` writes an
episode from one whole-document dict, where the library writes one agent
at a time. ``sampled_agent_oracle`` resamples one agent alone, where the
library resamples all the others as one block.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple, Optional

from socnav.core import AgentKind, common_timeline
from socnav.geometry import wrap_angle


def derive_velocities(agent):
    """Mark every velocity as stored, keeping the derived values; idempotent."""
    import numpy as np

    n = len(agent.t)
    if n < 2:
        raise ValueError(f"agent {agent.id!r} has {n} state(s); need >= 2")
    if agent.has_vel.all():
        return agent
    return replace(agent, has_vel=np.ones(n, dtype=bool))


class Point(NamedTuple):
    x: float
    y: float


class State(NamedTuple):
    """One timestamped sample: pose plus a velocity, None where none is stored."""

    t: float
    position: Point
    heading: float
    velocity: Optional[Point]


def _sample(agent, j):
    """The j-th sample of an agent's columns as a State."""
    vel = Point(float(agent.vx[j]), float(agent.vy[j])) if agent.has_vel[j] else None
    return State(float(agent.t[j]), Point(float(agent.x[j]), float(agent.y[j])),
                 float(agent.heading[j]), vel)


def interpolate_state(agent, t):
    """Linear interpolation of an agent's State at time t.

    Heading is interpolated along the shorter arc. Velocity is interpolated
    only when both bracketing samples carry one. A sample's own state comes
    back at its exact stamp.
    """
    import numpy as np

    times = agent.t
    if t < times[0] - 1e-9 or t > times[-1] + 1e-9:
        raise ValueError(f"t={t} outside span [{times[0]}, {times[-1]}] of agent {agent.id!r}")
    t = min(max(t, float(times[0])), float(times[-1]))

    idx = int(np.searchsorted(times, t, side="right")) - 1
    idx = max(0, min(idx, len(times) - 2)) if len(times) > 1 else 0
    s0 = _sample(agent, idx)
    if len(times) == 1 or t == s0.t:
        return s0
    s1 = _sample(agent, idx + 1)
    if t == s1.t:
        return s1

    frac = (t - s0.t) / (s1.t - s0.t)
    pos = Point(s0.position.x + frac * (s1.position.x - s0.position.x),
                s0.position.y + frac * (s1.position.y - s0.position.y))
    heading = wrap_angle(s0.heading + frac * wrap_angle(s1.heading - s0.heading))
    vel = None
    if s0.velocity is not None and s1.velocity is not None:
        vel = Point(s0.velocity.x + frac * (s1.velocity.x - s0.velocity.x),
                    s0.velocity.y + frac * (s1.velocity.y - s0.velocity.y))
    return State(t, pos, heading, vel)


def scalar_point_segment_distance(px, py, ax, ay, bx, by):
    dx, dy = bx - ax, by - ay
    len2 = dx * dx + dy * dy
    if len2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / len2
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def segments_intersect(p1, p2, q1, q2, eps: float = 1e-12) -> bool:
    """True if segment [p1, p2] properly or collinearly intersects [q1, q2]."""
    import numpy as np

    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    r = p2 - p1
    s = q2 - q1
    denom = r[0] * s[1] - r[1] * s[0]
    qp = q1 - p1
    if abs(denom) < eps:
        # Parallel: intersect only if collinear and overlapping.
        if abs(qp[0] * r[1] - qp[1] * r[0]) > eps:
            return False
        rr = float(r @ r)
        if rr < eps:
            return float(np.linalg.norm(qp)) < eps
        t0 = float(qp @ r) / rr
        t1 = t0 + float(s @ r) / rr
        return max(min(t0, t1), 0.0) <= min(max(t0, t1), 1.0)
    t = (qp[0] * s[1] - qp[1] * s[0]) / denom
    u = (qp[0] * r[1] - qp[1] * r[0]) / denom
    return 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0


def segment_blocked(p1, p2, seg_a, seg_b) -> bool:
    """True if the sightline p1->p2 crosses any of the segments in (seg_a, seg_b)."""
    for a, b in zip(seg_a, seg_b):
        if segments_intersect(p1, p2, a, b):
            return True
    return False


def active_segments_oracle(obstacles, t):
    """(set index, seg_a, seg_b) of the obstacles active at t, by a stamp loop.

    The leading dynamic stamps at or before t are counted and the last of
    them picks the set, which is stacked under the static segments.
    """
    import numpy as np

    def ends(segs, e):
        return np.array([s[2 * e:2 * e + 2] for s in segs], dtype=float).reshape(-1, 2)

    index, active = 0, ()
    for stamp, segs in obstacles.dynamic:
        if not stamp <= t:
            break
        index, active = index + 1, segs
    return (index, np.vstack([ends(obstacles.segments, 0), ends(active, 0)]),
            np.vstack([ends(obstacles.segments, 1), ends(active, 1)]))


def collision_counts_oracle(episode, params=None, dt=0.1):
    """(C, WC, AC, HC) by per-step overlap scanning plus interval merging."""
    timeline = common_timeline(episode, dt)
    robot = derive_velocities(episode.robot) if len(episode.robot.t) >= 2 else episode.robot
    r_r = episode.robot.radius

    # Per-step overlap booleans.
    wall_overlap = []
    agent_overlap = {a.id: [] for a in episode.others}
    for t in timeline:
        rs = interpolate_state(robot, float(t))
        _, seg_a, seg_b = active_segments_oracle(episode.obstacles, float(t))
        hit_wall = False
        for (ax, ay), (bx, by) in zip(seg_a, seg_b):
            if scalar_point_segment_distance(rs.position.x, rs.position.y,
                                             ax, ay, bx, by) < r_r:
                hit_wall = True
                break
        wall_overlap.append(hit_wall)
        for agent in episode.others:
            if t < agent.t_start - 1e-9 or t > agent.t_end + 1e-9:
                agent_overlap[agent.id].append(False)
                continue
            s = interpolate_state(agent, float(t))
            d = math.hypot(s.position.x - rs.position.x, s.position.y - rs.position.y)
            agent_overlap[agent.id].append(d < r_r + agent.radius)

    def merge(booleans):
        events = 0
        previous = False
        for b in booleans:
            if b and not previous:
                events += 1
            previous = b
        return events

    wc = merge(wall_overlap)
    ac = hc = 0
    humans = {a.id for a in episode.agents if a.kind is AgentKind.HUMAN}
    for agent_id, booleans in agent_overlap.items():
        n = merge(booleans)
        ac += n
        if agent_id in humans:
            hc += n
    return wc + ac, wc, ac, hc


def ttc_forward_stepping(px, py, vx, vy, qx, qy, ux, uy, radius_sum,
                         step=1e-3, horizon=120.0):
    """First overlap time under constant velocities, by explicit stepping.

    Returns math.inf if no contact occurs within the horizon.
    """
    import numpy as np

    taus = np.arange(0.0, horizon, step)
    dx = (qx - px) + taus * (ux - vx)
    dy = (qy - py) + taus * (uy - vy)
    hit = np.flatnonzero(dx * dx + dy * dy <= radius_sum * radius_sum)
    if len(hit) == 0:
        return math.inf
    return float(taus[hit[0]])


def failure_to_progress_oracle(timeline, distances, eps, window):
    """Windowed scan: from each candidate start, look for a full stagnant window."""
    count = 0
    i = 0
    n = len(timeline)
    while i < n - 1:
        advanced = False
        for j in range(i + 1, n):
            window_min = min(distances[i:j + 1])
            if window_min < distances[i] - eps:
                i = j
                advanced = True
                break
            if timeline[j] - timeline[i] >= window - 1e-9:
                count += 1
                i = j
                advanced = True
                break
        if not advanced:
            break
    return count


def stalled_time_oracle(timeline, speeds, stall_speed, min_duration):
    """Run-length scan over the stalled mask."""
    total = 0.0
    start = None
    for k, s in enumerate(speeds):
        if s < stall_speed:
            if start is None:
                start = k
        else:
            if start is not None:
                duration = timeline[k - 1] - timeline[start]
                if duration >= min_duration - 1e-9:
                    total += duration
                start = None
    if start is not None:
        duration = timeline[len(speeds) - 1] - timeline[start]
        if duration >= min_duration - 1e-9:
            total += duration
    return total


class WelfordStats:
    """Streaming mean/std/min/max, independent of numpy reductions."""

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.values = []

    def add(self, x):
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)
        self.min = min(self.min, x)
        self.max = max(self.max, x)
        self.values.append(x)

    @property
    def std(self):
        if self.n < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.n - 1))

    @property
    def median(self):
        ordered = sorted(self.values)
        n = len(ordered)
        mid = n // 2
        if n % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])


class SimState(NamedTuple):
    """One row of a simulation: arrays over the n agents of a config."""

    t: float
    pos: np.ndarray           # (n, 2)
    vel: np.ndarray           # (n, 2)
    heading: np.ndarray       # (n,)
    waypoint_idx: np.ndarray  # (n,) int
    reached: np.ndarray       # (n,) bool, sticky goal-reached flags


def reference_step(state, config):
    """One simulator step with per-agent numpy 2-vectors and (n, n) pairwise arrays.

    The social-force step as first written: an independent formulation of
    the same forces and policies that `socnav.simulator.run` evaluates on
    plain floats, one step at a time. From a `SimState` it returns the next.
    """
    import numpy as np

    from socnav.simulator import (_OBSTACLE_RANGE, _OBSTACLE_STRENGTH, _RELAXATION_TIME,
                                  _REPULSION_RANGE, _REPULSION_STRENGTH, _STOP_LOOKAHEAD,
                                  _V_MAX, _WAYPOINT_TOLERANCE)

    def current_target(spec, waypoint_idx):
        if waypoint_idx < len(spec.waypoints):
            return np.array(spec.waypoints[waypoint_idx])
        if spec.goal is not None:
            return np.array([spec.goal.x, spec.goal.y])
        return None

    def nearest_on_segment(point, a, b):
        d = b - a
        len2 = float(d @ d)
        if len2 == 0.0:
            return a
        t = float(np.clip((point - a) @ d / len2, 0.0, 1.0))
        return a + t * d

    dt = config.dt
    pos = state.pos
    new_vel = np.zeros_like(state.vel)
    new_heading = state.heading.copy()
    waypoint_idx = state.waypoint_idx.copy()

    _, seg_a, seg_b = active_segments_oracle(config.scene, state.t)
    radii = np.array([a.radius for a in config.agents])

    for i, spec in enumerate(config.agents):
        while waypoint_idx[i] < len(spec.waypoints):
            w = spec.waypoints[waypoint_idx[i]]
            if np.linalg.norm(pos[i] - w) <= _WAYPOINT_TOLERANCE:
                waypoint_idx[i] += 1
            else:
                break

    diff = pos[:, None, :] - pos[None, :, :]          # (n, n, 2), i - j
    dist = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(dist, np.inf)
    safe = np.maximum(dist, 1e-6)

    for i, spec in enumerate(config.agents):
        if spec.policy == "replay":
            t_next = min(state.t + dt, spec.replay.t_end)
            t_next = max(t_next, spec.replay.t_start)
            s = interpolate_state(spec.replay, t_next)
            new_vel[i] = ((s.position.x - pos[i, 0]) / dt, (s.position.y - pos[i, 1]) / dt)
            continue

        target = current_target(spec, int(waypoint_idx[i]))
        at_goal = False
        if spec.goal is not None:
            at_goal = (np.linalg.norm(pos[i] - (spec.goal.x, spec.goal.y))
                       <= spec.goal.tolerance)

        if spec.policy == "straight_line_stop":
            if target is None or at_goal:
                continue
            to_target = target - pos[i]
            d = np.linalg.norm(to_target)
            if d < 1e-9:
                continue
            e = to_target / d
            new_heading[i] = math.atan2(e[1], e[0])
            forward_agent = np.einsum("jd,d->j", -diff[i], e) > 0.0
            close_agent = dist[i] <= radii[i] + radii + _STOP_LOOKAHEAD
            blocked = bool(np.any(forward_agent & close_agent))
            if not blocked and len(seg_a):
                for a, b in zip(seg_a, seg_b):
                    q = nearest_on_segment(pos[i], a, b)
                    gap = np.linalg.norm(q - pos[i])
                    if gap <= radii[i] + _STOP_LOOKAHEAD and (q - pos[i]) @ e > 0.0:
                        blocked = True
                        break
            if not blocked:
                speed = min(spec.desired_speed, d / dt, _V_MAX)
                new_vel[i] = e * speed
            continue

        force = np.zeros(2)
        if target is not None and not (at_goal and waypoint_idx[i] >= len(spec.waypoints)):
            to_target = target - pos[i]
            d = np.linalg.norm(to_target)
            if d > 1e-9:
                force += (spec.desired_speed * to_target / d - state.vel[i]) / _RELAXATION_TIME
            else:
                force += -state.vel[i] / _RELAXATION_TIME
        else:
            force += -state.vel[i] / _RELAXATION_TIME

        gaps = dist[i] - (radii[i] + radii)
        weights = _REPULSION_STRENGTH * np.exp(-gaps / _REPULSION_RANGE)
        weights[i] = 0.0
        force += np.einsum("j,jd->d", weights, diff[i] / safe[i][:, None])

        for a, b in zip(seg_a, seg_b):
            q = nearest_on_segment(pos[i], a, b)
            away = pos[i] - q
            gap = np.linalg.norm(away)
            if gap < 1e-6:
                continue
            force += (_OBSTACLE_STRENGTH * math.exp(-(gap - radii[i]) / _OBSTACLE_RANGE)
                      * away / gap)

        v = state.vel[i] + force * dt
        speed = np.linalg.norm(v)
        if speed > _V_MAX:
            v = v / speed * _V_MAX
        new_vel[i] = v

    new_pos = pos + new_vel * dt
    speeds = np.linalg.norm(new_vel, axis=1)
    moving = speeds > 1e-9
    new_heading[moving] = np.arctan2(new_vel[moving, 1], new_vel[moving, 0])
    new_heading = wrap_angle(new_heading)  # arctan2 may return exactly -pi

    reached = state.reached.copy()
    for i, spec in enumerate(config.agents):
        if spec.goal is not None and not reached[i]:
            if np.linalg.norm(new_pos[i] - (spec.goal.x, spec.goal.y)) <= spec.goal.tolerance:
                reached[i] = True

    return SimState(t=state.t + dt, pos=new_pos, vel=new_vel, heading=new_heading,
                    waypoint_idx=waypoint_idx, reached=reached)


def sampled_agent_oracle(agent, timeline) -> dict:
    """One agent alone on a timeline, as the per-agent view computed it before the
    view became a block: ``pos``, ``vel``, ``active``, ``speed``, ``heading``,
    ``en_route`` and, with a goal, ``goal_distance`` by name. The block's rows must
    equal these bit for bit."""
    import numpy as np

    t = agent.t
    pos = np.column_stack([np.interp(timeline, t, agent.x), np.interp(timeline, t, agent.y)])
    vel = np.column_stack([np.interp(timeline, t, agent.vx), np.interp(timeline, t, agent.vy)])
    active = (timeline >= t[0] - 1e-9) & (timeline <= t[-1] + 1e-9)
    speed = np.linalg.norm(vel, axis=1)
    pose = wrap_angle(np.interp(timeline, t, np.unwrap(agent.heading)))
    heading = np.where(speed > 1e-6, np.arctan2(vel[:, 1], vel[:, 0]), pose)
    view = {"pos": pos, "vel": vel, "active": active, "speed": speed, "heading": heading,
            "en_route": active}
    if agent.goal is not None:
        view["goal_distance"] = np.linalg.norm(pos - (agent.goal.x, agent.goal.y), axis=1)
        view["en_route"] = active & ~(np.cumsum(view["goal_distance"] <= agent.goal.tolerance) > 0)
    return view


def smoothed_heading_oracle(sampled: dict, timeline) -> np.ndarray:
    """Direction of net displacement over +-1.5 s of a ``sampled_agent_oracle`` view,
    its heading where that displacement is under 1e-6 m."""
    import numpy as np

    n = len(timeline)
    half = max(1, round(1.5 / (float(timeline[1] - timeline[0]) if n > 1 else 1.0)))
    pos = sampled["pos"]
    disp = pos[np.minimum(np.arange(n) + half, n - 1)] - pos[np.maximum(np.arange(n) - half, 0)]
    return np.where(np.linalg.norm(disp, axis=1) > 1e-6, np.arctan2(disp[:, 1], disp[:, 0]),
                    sampled["heading"])


def event_runs_oracle(mask):
    """Maximal True runs as (start, end) index pairs, end exclusive, by a plain scan."""
    runs = []
    start = None
    for k, value in enumerate(mask):
        if value and start is None:
            start = k
        elif not value and start is not None:
            runs.append((start, k))
            start = None
    if start is not None:
        runs.append((start, len(mask)))
    return runs


# --- Per-sample forms of the columnar rules ---------------------------------------
# The velocity rule, heading synthesis and episode checks as they were first
# written: one state object of ``AgentRecord.states`` at a time, on Python floats.

def finite_differences_oracle(times, positions):
    """(N, 2) central differences of positions, one-sided at the two ends: a
    sample at a time, on numpy floats (a zero time step gives inf or nan)."""
    import numpy as np

    n = len(times)
    out = np.empty((n, 2))
    for j in range(n):
        lo, hi = max(j - 1, 0), min(j + 1, n - 1)
        dt = times[hi] - times[lo]
        out[j] = ((positions[hi][0] - positions[lo][0]) / dt,
                  (positions[hi][1] - positions[lo][1]) / dt)
    return out


def velocities_oracle(agent):
    """(N, 2) velocities: stored where given, else finite differences."""
    import numpy as np

    states = agent.states
    given = [(s["vx"], s["vy"]) if "vx" in s else None for s in states]
    if all(v is not None for v in given):
        return np.array(given).reshape(-1, 2)
    times = np.array([s["t"] for s in states])
    positions = np.array([(s["x"], s["y"]) for s in states])
    fd = finite_differences_oracle(times, positions)
    for i, v in enumerate(given):
        if v is not None:
            fd[i] = v
    return fd


def synthesize_headings_oracle(agent):
    """Headings from the direction of motion; a stationary sample keeps the last one."""
    headings = []
    prev = 0.0
    for v in velocities_oracle(agent):
        speed = math.hypot(v[0], v[1])
        if speed > 1e-9:
            prev = math.atan2(v[1], v[0])
        headings.append(wrap_angle(prev))
    return headings


def sample_issues_oracle(base, agent, v_cap):
    """check_episode's per-sample loop for one agent: (path, message) violations."""
    issues = []
    isfinite, hypot = math.isfinite, math.hypot
    heading_limit = math.pi + 1e-9
    prev_t = prev_x = prev_y = None
    for j, s in enumerate(agent.states):
        t, x, y, heading = s["t"], s["x"], s["y"], s["theta"]
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
        if "vx" in s and not (isfinite(s["vx"]) and isfinite(s["vy"])):
            issues.append((f"{base}/states/{j}/vx", "velocity must be finite"))
        if prev_t is not None:
            if t <= prev_t:
                issues.append((f"{base}/states/{j}/t",
                               f"timestamps must be strictly increasing ({prev_t} -> {t})"))
            else:
                speed = hypot(x - prev_x, y - prev_y) / (t - prev_t)
                if speed > v_cap:
                    shown = f"{speed:.2f}" if speed < 1e6 else f"{speed:.3e}"
                    issues.append((f"{base}/states/{j}",
                                   f"implied speed {shown} m/s exceeds cap {v_cap} m/s"))
        prev_t, prev_x, prev_y = t, x, y
    return issues


def velocity_warnings_oracle(episode, rel_tol=0.2, abs_floor=0.1):
    """ingest's velocity-consistency warnings, one interior state at a time: (path, message)."""
    import numpy as np

    out = []
    for i, agent in enumerate(episode.agents):
        states = agent.states
        if len(states) < 3 or not any("vx" in s for s in states):
            continue
        times = np.array([s["t"] for s in states])
        positions = np.array([(s["x"], s["y"]) for s in states])
        fd = finite_differences_oracle(times, positions)
        for j in range(1, len(states) - 1):
            s = states[j]
            if "vx" not in s:
                continue
            dev = math.hypot(s["vx"] - fd[j, 0], s["vy"] - fd[j, 1])
            scale = max(math.hypot(*fd[j]), math.hypot(s["vx"], s["vy"]))
            if dev > abs_floor and dev > rel_tol * scale:
                shown = f"{dev:.3f}" if dev < 1e6 else f"{dev:.3e}"
                out.append((f"/agents/{i}/states/{j}/vx",
                            f"stored velocity deviates from finite difference by {shown} m/s (>20%)"))
                break
    return out


# --- Whole-document episode writer ------------------------------------------------

def reference_serialize_episode(episode) -> bytes:
    """The canonical episode bytes from one dict of the whole document and one
    ``json.dumps`` with the canonical settings."""
    import json

    agents = []
    for a in episode.agents:
        entry = {"id": a.id, "kind": a.kind.value, "radius": float(a.radius),
                 "states": a.states}
        if a.goal is not None:
            entry["goal"] = {"x": float(a.goal.x), "y": float(a.goal.y),
                             "tolerance": float(a.goal.tolerance)}
        agents.append(entry)
    obstacles = {"segments": [list(map(float, s)) for s in episode.obstacles.segments]}
    if episode.obstacles.dynamic:
        obstacles["dynamic"] = [{"t": float(stamp), "segments": [list(map(float, s)) for s in segs]}
                                for stamp, segs in episode.obstacles.dynamic]
    document = {
        "format_version": "1.0",
        "episode_id": episode.episode_id,
        "robot_under_test": episode.robot_under_test,
        "agents": agents,
        "obstacles": obstacles,
        "labels": [{"scenario": l.scenario, "t_start": float(l.t_start), "t_end": float(l.t_end)}
                   for l in episode.labels],
        "metadata": dict(episode.metadata),
    }
    return (json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False)
            + "\n").encode("utf-8")
