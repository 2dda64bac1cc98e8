"""Episode interchange parsing, canonical serialization, and TSV import.

Reports, summaries, scenario cards and params files are decoded with the
same ``load_json`` and path-carrying field readers as episodes.

The JSON field names used here are this toolkit's normative definition of
the interchange format (see README). Unknown fields are preserved under
the metadata key ``x-unknown`` so future extensions survive round trips.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import repeat
from operator import contains, itemgetter

import numpy as np

from .core import (
    DEFAULT_HUMAN_RADIUS,
    DEFAULT_V_CAP,
    AgentKind,
    AgentRecord,
    Episode,
    EpisodeLabel,
    Goal,
    ObstacleMap,
    Vec2,
    check_episode,
    finite_difference_velocities,
    motion_headings,
    validate_episode,
)
from .errors import InvariantError, MalformedDocument, MalformedRow, NoRobot, SchemaError
from .geometry import wrap_angle

FORMAT_VERSION = "1.0"

_EPISODE_KEYS = {"format_version", "episode_id", "robot_under_test", "agents",
                 "obstacles", "labels", "metadata"}
_AGENT_KEYS = {"id", "kind", "radius", "goal", "states"}
_STATE_KEYS = ("t", "x", "y", "theta", "vx", "vy")  # in decoding order
_GOAL_KEYS = {"x", "y", "tolerance"}
_OBSTACLE_KEYS = {"segments", "dynamic"}
_LABEL_KEYS = {"scenario", "t_start", "t_end"}


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" | "warning"
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.path}: {self.message}"


class _Issues:
    """Collects issues during a walk; can short-circuit for strict parsing."""

    def __init__(self, strict: bool):
        self.strict = strict
        self.items: list[ValidationIssue] = []

    def error(self, path: str, message: str, kind=SchemaError):
        if self.strict:
            raise kind(path, message)
        self.items.append(ValidationIssue("error", path, message))

    def warning(self, path: str, message: str):
        self.items.append(ValidationIssue("warning", path, message))

    @property
    def has_errors(self) -> bool:
        return any(i.severity == "error" for i in self.items)


def _text(document: bytes | str) -> str:
    if isinstance(document, str):
        return document
    try:
        return document.decode("utf-8")
    except UnicodeDecodeError as e:
        raise MalformedDocument(f"not valid UTF-8: {e}") from e


def load_json(document: bytes | str):
    """The one JSON decode step for every format socnav reads; raises MalformedDocument."""
    text = _text(document)
    try:
        return json.loads(text)
    except ValueError as e:  # also an integer literal past the int-conversion limit
        raise MalformedDocument(f"not valid JSON: {e}") from e


# Path-carrying field readers. Each reads ``obj[key]`` and reports a problem
# at ``path/key`` through ``issues``; a strict sink raises SchemaError there,
# a collecting one records it and the reader returns ``default``.

def _number(obj, key, path, issues, required=True, default=None):
    # The JSON decoder yields exactly float or int for numbers; bool is not int here.
    value = obj.get(key)
    if type(value) is float:
        return value
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            issues.error(f"{path}/{key}", "number out of range")
            return default
    if key not in obj:
        if required:
            issues.error(f"{path}/{key}", "missing required field")
        return default
    issues.error(f"{path}/{key}", f"expected a number, got {type(value).__name__}")
    return default


def _finite(obj, key, path, issues, required=True, default=None, nullable=False):
    """A finite number as written: an int stays an int, so echoed values keep their bytes."""
    if nullable and key in obj and obj[key] is None:
        return None
    number = _number(obj, key, path, issues, required)
    if number is None:
        return default
    if not math.isfinite(number):
        issues.error(f"{path}/{key}", "expected a finite number")
        return default
    return obj[key]


def _integer(obj, key, path, issues, required=True, default=None):
    """An integral number, 5 or 5.0, as an int."""
    number = _number(obj, key, path, issues, required)
    if number is None:
        return default
    if not number.is_integer():
        issues.error(f"{path}/{key}", "expected an integer")
        return default
    return int(obj[key])


def _typed(obj, key, path, issues, kind, noun, required, default):
    if key not in obj:
        if required:
            issues.error(f"{path}/{key}", "missing required field")
        return default
    value = obj[key]
    if not isinstance(value, kind):
        issues.error(f"{path}/{key}", f"expected {noun}, got {type(value).__name__}")
        return default
    return value


def _string(obj, key, path, issues, required=True, default=None):
    return _typed(obj, key, path, issues, str, "a string", required, default)


def _object(obj, key, path, issues, required=True, default=None):
    return _typed(obj, key, path, issues, dict, "an object", required, default)


def _array(obj, key, path, issues, item=None, required=True, default=None):
    """An array; with ``item``, a list of its elements read by index (``path/key/3``)."""
    value = _typed(obj, key, path, issues, list, "an array", required, default)
    if item is None or value is None:
        return value
    if item is _finite and set(map(type, value)) <= {float} and math.isfinite(sum(value)):
        return value  # what reading each element returns, without a call per element
    elements = dict(enumerate(value))
    return [item(elements, i, f"{path}/{key}", issues) for i in elements]


def _collect_unknown(obj: dict, known: set, path: str, unknown: dict):
    for key in obj:
        if key not in known:
            unknown[f"{path}/{key}" if path else f"/{key}"] = obj[key]


class _Absent:
    """Stands for a field a state omits, so a column's types tell it from any JSON value."""


_ABSENT = _Absent()
_OPTIONAL = {"theta", "vx", "vy"}


def _column(states, key, optional):
    """One field of every state: (float64 column, presence), or None if a
    value needs a diagnostic.

    Presence is a bool list, or True when every state has the field; an
    omitted optional field reads 0.0. The column is type-checked as a
    whole, as ``_array`` does.
    """
    try:
        values = list(map(itemgetter(key), states))
    except KeyError:
        if not optional:
            return None
        if not any(map(contains, states, repeat(key))):
            return np.zeros(len(states)), [False] * len(states)
        values = [s.get(key, _ABSENT) for s in states]
    kinds = set(map(type, values))
    present = True
    if _Absent in kinds:
        present = [v is not _ABSENT for v in values]
        values = [v if p else 0.0 for v, p in zip(values, present)]
        kinds.discard(_Absent)
    if not kinds <= {float, int}:
        return None
    if int in kinds:
        try:
            values = [float(v) for v in values]
        except OverflowError:
            return None
    return np.array(values, dtype=float), present


def _state_columns(states):
    """(t, x, y, theta, has_theta, vx, vy, has_vel, has_unknown) of a states
    array, or None if some state needs a diagnostic (``_state_diagnostics``)."""
    if set(map(type, states)) - {dict}:
        return None
    columns = [_column(states, key, key in _OPTIONAL) for key in _STATE_KEYS]
    if any(c is None for c in columns):
        return None
    (t, _), (x, _), (y, _), (theta, has_theta), (vx, has_vx), (vy, has_vy) = columns
    if has_vx != has_vy:
        return None
    n = len(states)
    known = sum(n if present is True else sum(present) for _, present in columns)
    has_vel = np.ones(n, dtype=bool) & has_vx
    return t, x, y, theta, has_theta, vx, vy, has_vel, sum(map(len, states)) != known


def _state_diagnostics(states, path, issues) -> list[dict] | None:
    """Report what is wrong with each state, in field order.

    Returns the states with every reported theta or vx/vy dropped, or None
    at the first state without a readable time and position.
    """
    readable = []
    for j, raw in enumerate(states):
        spath = f"{path}/{j}"
        if not isinstance(raw, dict):
            issues.error(spath, f"expected an object, got {type(raw).__name__}")
            return None
        pose = [_number(raw, key, spath, issues) for key in ("t", "x", "y")]
        state = dict(raw)
        if _number(raw, "theta", spath, issues, required=False) is None:
            state.pop("theta", None)
        has_vx, has_vy = "vx" in raw, "vy" in raw
        velocity_ok = has_vx == has_vy
        if not velocity_ok:
            issues.error(f"{spath}/{'vy' if has_vx else 'vx'}", "vx and vy must be given together")
        elif has_vx:
            velocity_ok = None not in [_number(raw, key, spath, issues) for key in ("vx", "vy")]
        if not velocity_ok:
            state.pop("vx", None)
            state.pop("vy", None)
        if None in pose:
            return None
        readable.append(state)
    return readable


def _parse_agent(raw, path, issues, unknown) -> AgentRecord | None:
    if not isinstance(raw, dict):
        issues.error(path, f"expected an object, got {type(raw).__name__}")
        return None
    _collect_unknown(raw, _AGENT_KEYS, path, unknown)
    agent_id = _string(raw, "id", path, issues)
    kind_raw = _string(raw, "kind", path, issues)
    kind = None
    if kind_raw is not None:
        if kind_raw not in ("robot", "human"):
            issues.error(f"{path}/kind", f'expected "robot" or "human", got {kind_raw!r}')
        else:
            kind = AgentKind(kind_raw)

    if "radius" in raw:
        radius = _number(raw, "radius", path, issues)
    else:
        radius = DEFAULT_HUMAN_RADIUS
        issues.warning(f"{path}/radius", f"missing; default {DEFAULT_HUMAN_RADIUS} m applied")

    goal = None
    graw = _object(raw, "goal", path, issues, required=False)
    if graw is not None:
        _collect_unknown(graw, _GOAL_KEYS, f"{path}/goal", unknown)
        gx = _number(graw, "x", f"{path}/goal", issues)
        gy = _number(graw, "y", f"{path}/goal", issues)
        gtol = _number(graw, "tolerance", f"{path}/goal", issues)
        if gx is not None and gy is not None and gtol is not None:
            goal = Goal(position=Vec2(gx, gy), tolerance=gtol)

    states_raw = raw.get("states")
    if not isinstance(states_raw, list):
        issues.error(f"{path}/states", "missing or not an array")
        return None
    columns = _state_columns(states_raw)
    if columns is None:
        # A bad value in theta, vx or vy is reported and read as omitted.
        readable = _state_diagnostics(states_raw, f"{path}/states", issues)
        if readable is None:
            return None
        columns = _state_columns(readable)
    t, x, y, theta, has_theta, vx, vy, has_vel, has_unknown = columns
    if has_unknown:
        for j, sraw in enumerate(states_raw):
            _collect_unknown(sraw, _STATE_KEYS, f"{path}/states/{j}", unknown)

    if agent_id is None or kind is None or radius is None:
        return None
    heading = wrap_angle(theta)
    record = AgentRecord(id=agent_id, kind=kind, radius=radius, t=t, x=x, y=y,
                         heading=heading, vx=vx, vy=vy, has_vel=has_vel, goal=goal)
    if (has_theta is not True and len(t) >= 2
            and bool(np.all(record.t[1:] > record.t[:-1]))):
        synthesized = np.where(has_theta, heading, motion_headings(record))
        record = replace(record, heading=synthesized)
    return record


def _segment(obj, key, path, issues):
    """``obj[key]`` as a segment ``[x1, y1, x2, y2]``, or None after reporting it."""
    raw = obj[key]
    if (not isinstance(raw, list) or len(raw) != 4
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw)):
        issues.error(f"{path}/{key}", "expected [x1, y1, x2, y2]")
        return None
    try:
        return (Vec2(float(raw[0]), float(raw[1])), Vec2(float(raw[2]), float(raw[3])))
    except OverflowError:
        issues.error(f"{path}/{key}", "number out of range")
        return None


def _segments(obj, path, issues) -> tuple[tuple, list[int]]:
    """The readable entries of ``obj["segments"]``, static or of one dynamic set,
    and the index of each in the file."""
    raw = _array(obj, "segments", path, issues, item=_segment, required=False, default=[])
    kept = [i for i, seg in enumerate(raw) if seg is not None]
    return tuple(raw[i] for i in kept), kept


def _parse_obstacles(raw, issues, unknown) -> tuple[ObstacleMap, dict[str, str]]:
    """The map, dynamic sets sorted by stamp (NaN last), and the file path of
    each model path that ``check_episode`` can report under ``/obstacles``."""
    if not isinstance(raw, dict):
        if raw is not None:
            issues.error("/obstacles", f"expected an object, got {type(raw).__name__}")
        return ObstacleMap(), {}
    _collect_unknown(raw, _OBSTACLE_KEYS, "/obstacles", unknown)
    segments, kept = _segments(raw, "/obstacles", issues)
    in_file = {f"/obstacles/segments/{i}": f"/obstacles/segments/{j}" for i, j in enumerate(kept)}
    dynamic = []
    dynamic_raw = (_array(raw, "dynamic", "/obstacles", issues, default=[])
                   if raw.get("dynamic") is not None else [])
    for k, draw in enumerate(dynamic_raw):
        if not isinstance(draw, dict):
            issues.error(f"/obstacles/dynamic/{k}", "expected an object")
            continue
        stamp = _number(draw, "t", f"/obstacles/dynamic/{k}", issues)
        dsegs, kept = _segments(draw, f"/obstacles/dynamic/{k}", issues)
        if stamp is not None:
            dynamic.append((stamp, dsegs, k, kept))
    dynamic.sort(key=lambda d: (math.isnan(d[0]), d[0]))
    for m, (_, _, k, kept) in enumerate(dynamic):
        model, file = f"/obstacles/dynamic/{m}", f"/obstacles/dynamic/{k}"
        in_file[f"{model}/t"] = f"{file}/t"
        in_file.update((f"{model}/segments/{i}", f"{file}/segments/{j}")
                       for i, j in enumerate(kept))
    return ObstacleMap(segments=segments, dynamic=tuple(d[:2] for d in dynamic)), in_file


def _build_episode(doc, issues: _Issues, v_cap: float = DEFAULT_V_CAP) -> Episode | None:
    """Decode and check an episode; each broken model invariant is an InvariantError."""
    if not isinstance(doc, dict):
        issues.error("", f"document root must be an object, got {type(doc).__name__}")
        return None
    unknown: dict = {}
    _collect_unknown(doc, _EPISODE_KEYS, "", unknown)

    version = _string(doc, "format_version", "", issues)
    if version is not None and version != FORMAT_VERSION:
        issues.warning("/format_version", f"expected {FORMAT_VERSION!r}, got {version!r}")
    episode_id = _string(doc, "episode_id", "", issues)
    robot_id = _string(doc, "robot_under_test", "", issues)

    # Every part is decoded even after a broken one, so validate reports it all.
    agents_raw = doc.get("agents")
    broken = not isinstance(agents_raw, list)
    if broken:
        issues.error("/agents", "missing or not an array")
    agents = []
    for i, araw in enumerate(agents_raw if not broken else []):
        agent = _parse_agent(araw, f"/agents/{i}", issues, unknown)
        if agent is None:
            broken = True
        else:
            agents.append(agent)

    obstacles, in_file = _parse_obstacles(doc.get("obstacles"), issues, unknown)

    labels = []
    for i, lraw in enumerate(_array(doc, "labels", "", issues, required=False, default=[])):
        if not isinstance(lraw, dict):
            issues.error(f"/labels/{i}", "expected an object")
            continue
        _collect_unknown(lraw, _LABEL_KEYS, f"/labels/{i}", unknown)
        scenario = _string(lraw, "scenario", f"/labels/{i}", issues)
        t0 = _number(lraw, "t_start", f"/labels/{i}", issues)
        t1 = _number(lraw, "t_end", f"/labels/{i}", issues)
        if scenario is not None and t0 is not None and t1 is not None:
            labels.append(EpisodeLabel(scenario=scenario, t_start=t0, t_end=t1))

    metadata: dict[str, str] = {}
    for key, value in _object(doc, "metadata", "", issues, required=False, default={}).items():
        if not isinstance(value, str):
            issues.error(f"/metadata/{key}", "metadata values must be strings")
        else:
            metadata[key] = value
    if unknown:
        metadata["x-unknown"] = json.dumps(unknown, sort_keys=True, separators=(",", ":"))

    if broken or episode_id is None or robot_id is None:
        return None
    episode = Episode(episode_id=episode_id, robot_under_test=robot_id,
                      agents=tuple(agents), obstacles=obstacles,
                      labels=tuple(labels), metadata=metadata)
    for path, message in check_episode(episode, v_cap=v_cap):
        # Name an obstacle set or segment by its place in the file.
        issues.error(in_file.get(path, path), message, kind=InvariantError)
    return episode


def parse_episode(document: bytes | str, v_cap: float = DEFAULT_V_CAP) -> Episode:
    """Parse and fully validate an interchange document.

    Raises MalformedDocument, SchemaError (with a JSON-pointer path), or
    InvariantError (model invariant broken, e.g. non-monotonic timestamps).
    """
    episode = _build_episode(load_json(document), _Issues(strict=True), v_cap=v_cap)
    if episode is None:
        raise SchemaError("", "document could not be interpreted")
    return episode


def validate(document: bytes | str, v_cap: float = DEFAULT_V_CAP) -> list[ValidationIssue]:
    """Report all problems in a document without raising.

    The result contains error-severity issues exactly when parse_episode
    would raise; warnings flag recoverable oddities (defaults applied,
    inconsistent velocity fields).
    """
    try:
        doc = load_json(document)
    except MalformedDocument as e:
        return [ValidationIssue("error", "", str(e))]
    issues = _Issues(strict=False)
    episode = _build_episode(doc, issues, v_cap=v_cap)
    if episode is not None and not issues.has_errors:
        issues.items.extend(_velocity_consistency_warnings(episode))
    return issues.items


def _velocity_consistency_warnings(episode: Episode,
                                   rel_tol: float = 0.2,
                                   abs_floor: float = 0.1) -> list[ValidationIssue]:
    """Warn where a stored velocity disagrees with finite differences by >20%.

    Only interior states are checked: the one-sided endpoint differences
    are first-order and legitimately disagree with instantaneous
    velocities whenever the agent is accelerating.
    """
    out = []
    for i, agent in enumerate(episode.agents):
        inner = np.flatnonzero(agent.has_vel[1:-1]) + 1
        if not inner.size:
            continue
        fd = finite_difference_velocities(agent.t, agent.positions)[inner]
        vx, vy = agent.vx[inner], agent.vy[inner]
        with np.errstate(all="ignore"):
            ex, ey = vx - fd[:, 0], vy - fd[:, 1]
            # np.hypot may differ from math.hypot in the last place, far inside
            # this margin: it only picks the candidates, math.hypot decides.
            dev = np.hypot(ex, ey)
            scale = np.maximum(np.hypot(fd[:, 0], fd[:, 1]), np.hypot(vx, vy))
            near = (dev > abs_floor * (1 - 1e-9)) & (dev > rel_tol * scale * (1 - 1e-9))
        for k in np.flatnonzero(near).tolist():
            dev = math.hypot(ex[k], ey[k])
            scale = max(math.hypot(fd[k, 0], fd[k, 1]), math.hypot(vx[k], vy[k]))
            if dev > abs_floor and dev > rel_tol * scale:
                shown = f"{dev:.3f}" if dev < 1e6 else f"{dev:.3e}"  # not 200 digits at 1e200
                out.append(ValidationIssue(
                    "warning", f"/agents/{i}/states/{inner[k]}/vx",
                    f"stored velocity deviates from finite difference by {shown} m/s (>20%)"))
                break  # one warning per agent is enough
    return out


# --- Serialization ----------------------------------------------------------

def canonical_json_bytes(obj) -> bytes:
    """Canonical form: sorted keys, shortest float repr, newline-terminated."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
            + "\n").encode("utf-8")


def _states_to_json(a: AgentRecord) -> list[dict]:
    """The agent's columns zipped into per-state objects; vx/vy only where stored."""
    states = [{"t": t, "x": x, "y": y, "theta": h}
              for t, x, y, h in zip(a.t.tolist(), a.x.tolist(), a.y.tolist(), a.heading.tolist())]
    vx, vy = a.vx.tolist(), a.vy.tolist()
    for j in np.flatnonzero(a.has_vel).tolist():
        states[j]["vx"] = vx[j]
        states[j]["vy"] = vy[j]
    return states


def _segment_to_json(seg: tuple[Vec2, Vec2]) -> list[float]:
    a, b = seg
    return [float(a.x), float(a.y), float(b.x), float(b.y)]


def episode_to_jsonable(episode: Episode) -> dict:
    agents = []
    for a in episode.agents:
        entry = {"id": a.id, "kind": a.kind.value, "radius": float(a.radius),
                 "states": _states_to_json(a)}
        if a.goal is not None:
            entry["goal"] = {"x": float(a.goal.position.x), "y": float(a.goal.position.y),
                             "tolerance": float(a.goal.tolerance)}
        agents.append(entry)
    obstacles: dict = {"segments": [_segment_to_json(s) for s in episode.obstacles.segments]}
    if episode.obstacles.dynamic:
        obstacles["dynamic"] = [
            {"t": float(stamp), "segments": [_segment_to_json(s) for s in segs]}
            for stamp, segs in episode.obstacles.dynamic
        ]
    return {
        "format_version": FORMAT_VERSION,
        "episode_id": episode.episode_id,
        "robot_under_test": episode.robot_under_test,
        "agents": agents,
        "obstacles": obstacles,
        "labels": [{"scenario": l.scenario, "t_start": float(l.t_start), "t_end": float(l.t_end)}
                   for l in episode.labels],
        "metadata": dict(episode.metadata),
    }


def serialize_episode(episode: Episode) -> bytes:
    """Canonical, byte-deterministic serialization of an episode."""
    return canonical_json_bytes(episode_to_jsonable(episode))


# --- TSV import -------------------------------------------------------------

def import_tsv(rows: str | bytes, frame_rate: float, robot_id: str | None = None,
               radius: float = DEFAULT_HUMAN_RADIUS,
               episode_id: str = "tsv-import") -> Episode:
    """Import a bird's-eye-view trajectory table.

    Row format: ``frame_id<TAB>agent_id<TAB>x<TAB>y``; lines starting with
    '#' are ignored. Timestamps are frame_id / frame_rate. All agents are
    humans except ``robot_id``; when no robot id is given the first agent
    id (sorted) is promoted to robot under test. Agents whose time span
    does not overlap the robot's are dropped (the episode is robot-centric).
    The result is checked as a parsed episode would be: InvariantError
    names the first violation, so no import yields a file validate rejects.
    Bytes that are not UTF-8 raise MalformedDocument.
    """
    if not (math.isfinite(frame_rate) and frame_rate > 0):
        raise InvariantError("/frame_rate", f"must be a positive finite number, got {frame_rate}")
    rows = _text(rows)

    samples: dict[str, dict[float, tuple[float, float]]] = {}
    for idx, line in enumerate(rows.splitlines()):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 4:
            raise MalformedRow(idx, f"expected 4 fields, got {len(parts)}")
        try:
            frame = float(parts[0])
            x = float(parts[2])
            y = float(parts[3])
        except ValueError as e:
            raise MalformedRow(idx, str(e)) from e
        if not all(math.isfinite(v) for v in (frame, x, y)):
            raise MalformedRow(idx, "non-finite value")
        agent_id = parts[1]
        per_agent = samples.setdefault(agent_id, {})
        if frame in per_agent:
            raise MalformedRow(idx, f"duplicate (frame, agent) pair ({parts[0]}, {agent_id})")
        per_agent[frame] = (x, y)

    if not samples:
        raise MalformedRow(0, "no data rows")
    if robot_id is not None and robot_id not in samples:
        raise NoRobot(f"agent {robot_id!r} not present in the data")
    effective_robot = robot_id if robot_id is not None else sorted(samples)[0]

    records = []
    for agent_id in sorted(samples):
        frames = sorted(samples[agent_id])
        xy = np.array([samples[agent_id][f] for f in frames])
        kind = AgentKind.ROBOT if agent_id == effective_robot else AgentKind.HUMAN
        record = AgentRecord(id=agent_id, kind=kind, radius=radius,
                             t=np.array(frames) / frame_rate, x=xy[:, 0], y=xy[:, 1])
        if len(frames) >= 2:
            record = replace(record, heading=motion_headings(record))
        records.append(record)

    robot = next(r for r in records if r.id == effective_robot)
    kept = tuple(r for r in records
                 if r.t_start <= robot.t_end and r.t_end >= robot.t_start)
    episode = Episode(
        episode_id=episode_id,
        robot_under_test=effective_robot,
        agents=kept,
        metadata={"source": "tsv", "frame_rate": repr(float(frame_rate))},
    )
    validate_episode(episode)
    return episode
