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
from dataclasses import dataclass

from .core import (
    DEFAULT_HUMAN_RADIUS,
    DEFAULT_V_CAP,
    AgentKind,
    AgentRecord,
    AgentState,
    Episode,
    EpisodeLabel,
    Goal,
    ObstacleMap,
    Vec2,
    check_episode,
    finite_difference_velocities,
    synthesize_headings,
)
from .errors import InvariantError, MalformedDocument, MalformedRow, NoRobot, SchemaError
from .geometry import wrap_angle

FORMAT_VERSION = "1.0"

_EPISODE_KEYS = {"format_version", "episode_id", "robot_under_test", "agents",
                 "obstacles", "labels", "metadata"}
_AGENT_KEYS = {"id", "kind", "radius", "goal", "states"}
_STATE_KEYS = {"t", "x", "y", "theta", "vx", "vy"}
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


def _parse_state(raw, path, issues) -> tuple[AgentState, bool] | None:
    if not isinstance(raw, dict):
        issues.error(path, f"expected an object, got {type(raw).__name__}")
        return None
    t = _number(raw, "t", path, issues)
    x = _number(raw, "x", path, issues)
    y = _number(raw, "y", path, issues)
    theta = _number(raw, "theta", path, issues, required=False)
    has_vx, has_vy = "vx" in raw, "vy" in raw
    if has_vx != has_vy:
        issues.error(f"{path}/{'vy' if has_vx else 'vx'}", "vx and vy must be given together")
    vel = None
    if has_vx and has_vy:
        vx = _number(raw, "vx", path, issues)
        vy = _number(raw, "vy", path, issues)
        if vx is not None and vy is not None:
            vel = Vec2(vx, vy)
    if t is None or x is None or y is None:
        return None
    heading = wrap_angle(theta) if theta is not None else 0.0
    return AgentState(t, Vec2(x, y), heading, vel), theta is not None


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
    states = []
    any_theta_missing = False
    for j, sraw in enumerate(states_raw):
        parsed = _parse_state(sraw, f"{path}/states/{j}", issues)
        if parsed is None:
            return None
        state, had_theta = parsed
        _collect_unknown(sraw, _STATE_KEYS, f"{path}/states/{j}", unknown)
        any_theta_missing |= not had_theta
        states.append((state, had_theta))

    if agent_id is None or kind is None or radius is None:
        return None
    record = AgentRecord(id=agent_id, kind=kind, radius=radius,
                         states=tuple(s for s, _ in states), goal=goal)
    monotonic = all(a[0].t < b[0].t for a, b in zip(states, states[1:]))
    if any_theta_missing and len(record.states) >= 2 and monotonic:
        synthesized = synthesize_headings(record)
        merged = tuple(
            orig if had_theta else synth
            for (orig, had_theta), synth in zip(states, synthesized.states)
        )
        record = AgentRecord(id=agent_id, kind=kind, radius=radius, states=merged, goal=goal)
    return record


def _parse_segment(raw, path, issues):
    if (not isinstance(raw, list) or len(raw) != 4
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw)):
        issues.error(path, "expected [x1, y1, x2, y2]")
        return None
    try:
        return (Vec2(float(raw[0]), float(raw[1])), Vec2(float(raw[2]), float(raw[3])))
    except OverflowError:
        issues.error(path, "number out of range")
        return None


def _parse_obstacles(raw, issues, unknown) -> ObstacleMap:
    if raw is None:
        return ObstacleMap()
    if not isinstance(raw, dict):
        issues.error("/obstacles", f"expected an object, got {type(raw).__name__}")
        return ObstacleMap()
    _collect_unknown(raw, _OBSTACLE_KEYS, "/obstacles", unknown)
    segments = []
    for i, sraw in enumerate(_array(raw, "segments", "/obstacles", issues, required=False,
                                    default=[])):
        seg = _parse_segment(sraw, f"/obstacles/segments/{i}", issues)
        if seg is not None:
            segments.append(seg)
    dynamic = []
    dynamic_raw = (_array(raw, "dynamic", "/obstacles", issues, default=[])
                   if raw.get("dynamic") is not None else [])
    for k, draw in enumerate(dynamic_raw):
        if not isinstance(draw, dict):
            issues.error(f"/obstacles/dynamic/{k}", "expected an object")
            continue
        stamp = _number(draw, "t", f"/obstacles/dynamic/{k}", issues)
        dsegs = []
        for i, sraw in enumerate(_array(draw, "segments", f"/obstacles/dynamic/{k}", issues,
                                        required=False, default=[])):
            seg = _parse_segment(sraw, f"/obstacles/dynamic/{k}/segments/{i}", issues)
            if seg is not None:
                dsegs.append(seg)
        if stamp is not None:
            dynamic.append((stamp, tuple(dsegs)))
    dynamic.sort(key=lambda d: d[0])
    return ObstacleMap(segments=tuple(segments), dynamic=tuple(dynamic))


def _build_episode(doc, issues: _Issues) -> Episode | None:
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

    agents_raw = doc.get("agents")
    if not isinstance(agents_raw, list):
        issues.error("/agents", "missing or not an array")
        return None
    agents = []
    broken = False
    for i, araw in enumerate(agents_raw):
        agent = _parse_agent(araw, f"/agents/{i}", issues, unknown)
        if agent is None:
            broken = True
            continue
        agents.append(agent)
    if broken:
        return None

    obstacles = _parse_obstacles(doc.get("obstacles"), issues, unknown)

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

    if episode_id is None or robot_id is None:
        return None
    return Episode(episode_id=episode_id, robot_under_test=robot_id,
                   agents=tuple(agents), obstacles=obstacles,
                   labels=tuple(labels), metadata=metadata)


def parse_episode(document: bytes | str, v_cap: float = DEFAULT_V_CAP) -> Episode:
    """Parse and fully validate an interchange document.

    Raises MalformedDocument, SchemaError (with a JSON-pointer path), or
    InvariantError (model invariant broken, e.g. non-monotonic timestamps).
    """
    doc = load_json(document)
    issues = _Issues(strict=True)
    episode = _build_episode(doc, issues)
    if episode is None:
        raise SchemaError("", "document could not be interpreted")
    violations = check_episode(episode, v_cap=v_cap)
    if violations:
        raise InvariantError(violations[0][0], violations[0][1])
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
    episode = _build_episode(doc, issues)
    if episode is not None:
        for path, message in check_episode(episode, v_cap=v_cap):
            issues.items.append(ValidationIssue("error", path, message))
        if not issues.has_errors:
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
        if len(agent.states) < 3 or not any(s.velocity is not None for s in agent.states):
            continue
        fd = finite_difference_velocities(agent.times, agent.positions)
        for j in range(1, len(agent.states) - 1):
            s = agent.states[j]
            if s.velocity is None:
                continue
            dev = math.hypot(s.velocity.x - fd[j, 0], s.velocity.y - fd[j, 1])
            scale = max(math.hypot(*fd[j]), s.velocity.norm())
            if dev > abs_floor and dev > rel_tol * scale:
                out.append(ValidationIssue(
                    "warning", f"/agents/{i}/states/{j}/vx",
                    f"stored velocity deviates from finite difference by {dev:.3f} m/s (>20%)"))
                break  # one warning per agent is enough
    return out


# --- Serialization ----------------------------------------------------------

def canonical_json_bytes(obj) -> bytes:
    """Canonical form: sorted keys, shortest float repr, newline-terminated."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
            + "\n").encode("utf-8")


def _state_to_json(s: AgentState) -> dict:
    out = {"t": float(s.t), "x": float(s.position.x), "y": float(s.position.y),
           "theta": float(s.heading)}
    if s.velocity is not None:
        out["vx"] = float(s.velocity.x)
        out["vy"] = float(s.velocity.y)
    return out


def _segment_to_json(seg: tuple[Vec2, Vec2]) -> list[float]:
    a, b = seg
    return [float(a.x), float(a.y), float(b.x), float(b.y)]


def episode_to_jsonable(episode: Episode) -> dict:
    agents = []
    for a in episode.agents:
        entry = {"id": a.id, "kind": a.kind.value, "radius": float(a.radius),
                 "states": [_state_to_json(s) for s in a.states]}
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
        states = tuple(
            AgentState(t=f / frame_rate, position=Vec2(*samples[agent_id][f]))
            for f in frames
        )
        kind = AgentKind.ROBOT if agent_id == effective_robot else AgentKind.HUMAN
        record = AgentRecord(id=agent_id, kind=kind, radius=radius, states=states)
        if len(record.states) >= 2:
            record = synthesize_headings(record)
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
    violations = check_episode(episode)
    if violations:
        raise InvariantError(violations[0][0], violations[0][1])
    return episode
