"""Episode interchange parsing, canonical serialization, and TSV import.

Reports, summaries, scenario cards and params files are decoded with the
same ``load_json`` and path-carrying field readers as episodes. A card,
a params object and a summary are read by ``read_dataclass``: each field
at ``path/<name>``, by the reader its annotation names (``str``, ``int``,
``float``, ``tuple[T, ...]``, ``frozenset[T]`` or a nested dataclass). A
field with a default may be absent; an ``Optional`` field may be null.
An episode's states, all agents' laid end to end at agent offsets, are read,
derived and checked as one block, a field at a time (``_column``): a column of
plain numbers converts whole, and only one that is not has its entries read by
``_number``, so every number obeys one rule; issues keep a per-agent walk's order.
Each obstacle segment, dynamic stamp and label is checked where it is read, at its
index in the file; those issues follow ``check_episode``'s agent issues.
``import_tsv`` only translates: it writes the table as an episode document
and builds the episode with the same decoder, so an import obeys every
rule ``validate`` applies. ``serialize_episode`` writes the canonical bytes
one agent at a time, each piece with the settings of ``canonical_json_bytes``.
An episode is read by one collecting walk, kept for the last document only:
``parse_episode`` raises its first error and ``validate`` reports them all, so
loading and checking the same bytes or str, in either order, decodes them once.
A ``bytearray`` is read as its bytes.

The JSON field names used here are this toolkit's normative definition of
the interchange format (see README). Unknown fields are preserved under
the metadata key ``x-unknown`` so future extensions survive round trips.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache, lru_cache, partial
from itertools import chain, repeat
from operator import contains, itemgetter

import numpy as np

from .core import (
    DEFAULT_HUMAN_RADIUS,
    AgentKind,
    AgentRecord,
    Episode,
    EpisodeLabel,
    Goal,
    ObstacleMap,
    agent_rows,
    check_episode,
    differences,
    motion_headings,
    positive_finite,
    segment_issues,
)
from .errors import InvariantError, MalformedDocument, MalformedRow, NoRobot, SchemaError
from .geometry import wrap_angle

FORMAT_VERSION = "1.0"

_EPISODE_KEYS = {"format_version", "episode_id", "robot_under_test", "agents",
                 "obstacles", "labels", "metadata"}
_AGENT_KEYS = {"id", "kind", "radius", "goal", "states"}
_STATE_KEYS = ("t", "x", "y", "theta", "vx", "vy")  # in decoding order
_GOAL_KEYS = ("x", "y", "tolerance")  # in decoding order
_OBSTACLE_KEYS = {"segments", "dynamic"}
_LABEL_KEYS = {"scenario", "t_start", "t_end"}


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" | "warning"
    path: str
    message: str

    def __str__(self) -> str:
        where = f"{self.path}: " if self.path else ""  # the document root
        return f"{self.severity}: {where}{self.message}"


class _Issues:
    """Collects issues during a walk and the first error's (kind, path, message);
    a strict sink raises that error instead, for readers that build as they walk."""

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.items: list[ValidationIssue] = []
        self.first_error = None

    def error(self, path: str, message: str, kind=SchemaError):
        if self.strict:
            raise kind(path, message)
        self.first_error = self.first_error or (kind, path, message)
        self.items.append(ValidationIssue("error", path, message))

    def warning(self, path: str, message: str):
        self.items.append(ValidationIssue("warning", path, message))

    def raise_first(self):
        if self.first_error:
            kind, path, message = self.first_error
            raise kind(path, message)


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
    except (ValueError, RecursionError) as e:  # past the int-digit or nesting limit too
        raise MalformedDocument(f"not valid JSON: {e}") from e


# Path-carrying field readers. Each reads ``obj[key]`` and reports a problem
# at ``path/key`` through ``issues``; a strict sink raises SchemaError there,
# a collecting one records it and the reader returns ``default`` or None.

def _number(obj, key, path, issues, required=True):
    # The JSON decoder yields exactly float or int for numbers; bool is not int here.
    value = obj.get(key)
    if type(value) is float:
        return value
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            issues.error(f"{path}/{key}", "number out of range")
    elif key not in obj:
        if required:
            issues.error(f"{path}/{key}", "missing required field")
    else:
        issues.error(f"{path}/{key}", f"expected a number, got {type(value).__name__}")
    return None


def _finite(obj, key, path, issues):
    """A finite number as written: an int stays an int, so echoed values keep their bytes."""
    number = _number(obj, key, path, issues)
    if number is None:
        return None
    if not math.isfinite(number):
        issues.error(f"{path}/{key}", "expected a finite number")
        return None
    return obj[key]


def _integer(obj, key, path, issues):
    """An integral number, 5 or 5.0, as an int."""
    number = _number(obj, key, path, issues)
    if number is None:
        return None
    if not number.is_integer():
        issues.error(f"{path}/{key}", "expected an integer")
        return None
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


_READERS = {str: _string, int: _integer, float: _finite}


def _field_reader(hint):
    """The reader of one annotation; None for a type only ``given`` supplies (a dict)."""
    origin = typing.get_origin(hint)
    if origin in (tuple, frozenset):
        item = _READERS[typing.get_args(hint)[0]]
        return lambda obj, key, path, issues: origin(_array(obj, key, path, issues, item=item))
    if is_dataclass(hint):
        return lambda obj, key, path, issues: read_dataclass(
            hint, _object(obj, key, path, issues), f"{path}/{key}", issues)
    return _READERS.get(hint)


@cache
def _fields_of(cls) -> tuple:
    """(name, reader, default, nullable) per field of ``cls``, from its resolved annotations."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in fields(cls):
        args = typing.get_args(hints[f.name])
        nullable = type(None) in args  # Optional[T] is Union[T, None]
        out.append((f.name, _field_reader(args[0] if nullable else hints[f.name]),
                    f.default, nullable))
    return tuple(out)


def read_dataclass(cls, obj: dict, path: str, issues, **given):
    """A dataclass read from ``obj`` under the rule above; ``given`` fields are taken
    as they are. ``issues`` must be a strict sink: the first problem raises."""
    for name, read, default, nullable in _fields_of(cls):
        if name in given:
            continue
        if name not in obj and default is not MISSING:
            given[name] = default
        elif nullable and name in obj and obj[name] is None:
            given[name] = None
        else:
            given[name] = read(obj, name, path, issues)
    return cls(**given)


def _collect_unknown(obj: dict, known: set, path: str, unknown: dict):
    for key in obj:
        if key not in known:
            unknown[f"{path}/{key}" if path else f"/{key}"] = obj[key]


_OPTIONAL = {"theta", "vx", "vy"}


def _entries(states, key, optional):
    """Every state's ``key``, 0.0 where omitted, and its presence: True if all states
    have it, False (no values) if an optional key is in none, else a bool list."""
    try:
        return list(map(itemgetter(key), states)), True
    except KeyError:
        present = list(map(contains, states, repeat(key)))
    if optional and not any(present):
        return None, False
    return list(map(dict.get, states, repeat(key), repeat(0.0))), present


def _places(lists) -> list[tuple[int, str]]:
    """The agent and the path of each state of ``lists`` laid end to end."""
    return [(i, f"/agents/{i}/states/{j}") for i, own in enumerate(lists) for j in range(len(own))]


def _column(states, key, lists, walks, values, present):
    """One field of the block's states from its ``_entries``: (float64 column, presence).
    Entries are read by ``_number`` into their agent's walk only if the column is not all
    plain numbers; an omitted or unreadable optional entry reads 0.0 and counts as absent."""
    optional = key in _OPTIONAL
    if present is False:
        return np.zeros(len(states)), [False] * len(states)
    kinds = set(map(type, values))
    if kinds <= {float, int} and (present is True or optional):
        try:
            return np.fromiter(values, float, len(values)), present  # float() of each
        except OverflowError:
            pass
    numbers = [_number(s, key, path, walks[i], required=not optional)
               for s, (i, path) in zip(states, _places(lists))]
    present = [v is not None for v in numbers]
    return np.array([v if p else 0.0 for v, p in zip(numbers, present)]), present


def _state_columns(lists, unknown) -> list[tuple[_Issues, dict | None]]:
    """Every agent's states array (or None) laid end to end and decoded as one block:
    per agent, the issues a walk of its states finds, by field (t, x, y, theta, vx/vy
    pairing, vx, vy) then by state, and its ``AgentRecord`` columns as read-only slices
    of the block, or None if a state is not an object (each such state is then its only
    issue) or a t/x/y entry cannot be read. An unpaired vx or vy counts as neither."""
    walks = [_Issues() for _ in lists]
    readable = [isinstance(own, list) for own in lists]
    lists = [own if ok else [] for own, ok in zip(lists, readable)]
    states = list(chain.from_iterable(lists))
    try:
        keys = sum(map(dict.__len__, states))  # TypeError: a state is not an object
    except TypeError:
        for raw, (i, path) in zip(states, _places(lists)):
            if type(raw) is not dict:
                walks[i].error(path, f"expected an object, got {type(raw).__name__}")
                readable[i] = False
        lists = [own if ok else [] for own, ok in zip(lists, readable)]
        states = list(chain.from_iterable(lists))
        keys = sum(map(len, states))
    offsets, owner = agent_rows(list(map(len, lists)))

    entries = [_entries(states, key, key in _OPTIONAL) for key in _STATE_KEYS]
    columns = [_column(states, key, lists, walks, *e) for key, e in zip(_STATE_KEYS[:4], entries)]
    velocity = states
    if entries[4][1] != entries[5][1]:  # presence is True, False or a mixed list
        velocity = [s if ("vx" in s) == ("vy" in s) else {} for s in states]
        for raw, kept, (i, path) in zip(states, velocity, _places(lists)):
            if kept is not raw:
                walks[i].error(f"{path}/{'vy' if 'vx' in raw else 'vx'}",
                               "vx and vy must be given together")
        entries[4:] = [_entries(velocity, key, True) for key in ("vx", "vy")]
    columns += [_column(velocity, key, lists, walks, *e)
                for key, e in zip(_STATE_KEYS[4:], entries[4:])]
    for _, present in columns[:3]:
        if present is not True:
            for p, (i, _) in zip(present, _places(lists)):
                readable[i] = readable[i] and p
    if keys != sum(len(states) if p is True else sum(p) for _, p in columns):
        for raw, (_, path) in zip(states, _places(lists)):  # a key beyond the six
            _collect_unknown(raw, _STATE_KEYS, path, unknown)

    (t, _), (x, _), (y, _), (theta, has_theta), (vx, has_vx), (vy, has_vy) = columns
    has_theta = np.ones(len(t), dtype=bool) & has_theta
    has_vel = np.ones(len(t), dtype=bool) & has_vx & has_vy
    if not has_vel.all():
        vx, vy = np.where(has_vel, (vx, vy), differences(t, np.array((x, y)), offsets))
    heading = wrap_angle(theta)
    if not has_theta.all():
        # Headings are synthesized for the agents with a sample lacking theta,
        # two samples or more, and strictly increasing times.
        stalled = owner[1:][(owner[1:] == owner[:-1]) & ~(t[1:] > t[:-1])]
        synthesize = ((np.bincount(owner[~has_theta], minlength=len(lists)) > 0)
                      & (np.bincount(stalled, minlength=len(lists)) == 0) & (np.diff(offsets) >= 2))
        rows = np.flatnonzero(synthesize[owner])
        motion = motion_headings(vx[rows], vy[rows], np.searchsorted(rows, offsets[owner[rows]]))
        heading[rows] = np.where(has_theta[rows], heading[rows], motion)
    block = {"t": t, "x": x, "y": y, "heading": heading, "vx": vx, "vy": vy, "has_vel": has_vel}
    for column in block.values():
        column.flags.writeable = False  # a parsed episode is shared: see parse_episode
    ends = offsets.tolist()
    return [(walk, {name: column[start:end] for name, column in block.items()} if ok else None)
            for walk, ok, start, end in zip(walks, readable, ends, ends[1:])]


def _parse_agent(raw, path, issues, unknown, walk, columns) -> dict | None:
    """The ``AgentRecord`` fields of ``raw`` and its states' ``walk`` and ``columns``, or None."""
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
        gx, gy, gtol = (_number(graw, key, f"{path}/goal", issues) for key in _GOAL_KEYS)
        if None not in (gx, gy, gtol):
            goal = Goal(gx, gy, gtol)

    if not isinstance(raw.get("states"), list):
        issues.error(f"{path}/states", "missing or not an array")
        return None
    for issue in walk.items:
        issues.error(issue.path, issue.message)
    if columns is None or agent_id is None or kind is None or radius is None:
        return None
    return dict(id=agent_id, kind=kind, radius=radius, goal=goal, **columns)


def _segment(obj, key, path, issues):
    """``obj[key]`` as a segment ``[x1, y1, x2, y2]``, or None after reporting it."""
    raw = obj[key]
    if type(raw) is not list or len(raw) != 4 or not set(map(type, raw)) <= {float, int}:
        issues.error(f"{path}/{key}", "expected [x1, y1, x2, y2]")
        return None
    try:
        return tuple(map(float, raw))
    except OverflowError:
        issues.error(f"{path}/{key}", "number out of range")
        return None


def _segments(obj, path, issues, checks) -> tuple:
    """The readable entries of ``obj["segments"]``, static or of one dynamic set;
    their ends are checked into ``checks``, each at its index in the file."""
    raw = _array(obj, "segments", path, issues, item=_segment, required=False, default=[])
    checks += segment_issues(path, raw)
    return tuple(filter(None, raw))


def _parse_obstacles(raw, issues, unknown, checks) -> ObstacleMap:
    """The map, its dynamic sets sorted by stamp. A set whose stamp cannot be read is
    dropped unchecked; a non-finite stamp is an issue, so that map is never read."""
    if not isinstance(raw, dict):
        if raw is not None:
            issues.error("/obstacles", f"expected an object, got {type(raw).__name__}")
        return ObstacleMap()
    _collect_unknown(raw, _OBSTACLE_KEYS, "/obstacles", unknown)
    segments = _segments(raw, "/obstacles", issues, checks)
    dynamic = []
    dynamic_raw = (_array(raw, "dynamic", "/obstacles", issues, default=[])
                   if raw.get("dynamic") is not None else [])
    for k, draw in enumerate(dynamic_raw):
        path = f"/obstacles/dynamic/{k}"
        if not isinstance(draw, dict):
            issues.error(path, "expected an object")
            continue
        stamp = _number(draw, "t", path, issues)
        if stamp is not None and not math.isfinite(stamp):
            checks.append((f"{path}/t", "must be finite"))
        segs = _segments(draw, path, issues, [] if stamp is None else checks)
        if stamp is not None:
            dynamic.append((stamp, segs))
    return ObstacleMap(segments=segments, dynamic=tuple(sorted(dynamic, key=itemgetter(0))))


def _build_episode(doc, issues: _Issues) -> Episode | None:
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
        agents_raw = []
    states = _state_columns([raw.get("states") if isinstance(raw, dict) else None
                             for raw in agents_raw], unknown)
    agents = []
    for i, (araw, (walk, columns)) in enumerate(zip(agents_raw, states)):
        agent = _parse_agent(araw, f"/agents/{i}", issues, unknown, walk, columns)
        if agent is None:
            broken = True
        else:
            agents.append(agent)

    checks = []  # the model rules of obstacles and labels, broken where they are read
    obstacles = _parse_obstacles(doc.get("obstacles"), issues, unknown, checks)

    labels = []
    for i, lraw in enumerate(_array(doc, "labels", "", issues, required=False, default=[])):
        if not isinstance(lraw, dict):
            issues.error(f"/labels/{i}", "expected an object")
            continue
        _collect_unknown(lraw, _LABEL_KEYS, f"/labels/{i}", unknown)
        scenario = _string(lraw, "scenario", f"/labels/{i}", issues)
        t0, t1 = (_number(lraw, key, f"/labels/{i}", issues) for key in ("t_start", "t_end"))
        if None not in (scenario, t0, t1):
            infinite = [key for key, v in (("t_start", t0), ("t_end", t1)) if not math.isfinite(v)]
            checks += [(f"/labels/{i}/{key}", "must be finite") for key in infinite]
            if not infinite and not t0 < t1:
                checks.append((f"/labels/{i}", f"t_start must be < t_end ({t0} >= {t1})"))
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
                      agents=tuple(AgentRecord(**agent) for agent in agents), obstacles=obstacles,
                      labels=tuple(labels), metadata=metadata)
    for path, message in check_episode(episode) + checks:
        issues.error(path, message, kind=InvariantError)
    return episode


@lru_cache(maxsize=1)
def _decode(document: bytes | str) -> tuple[Episode | None, _Issues]:
    """The episode (None if it cannot be built) and the issues of one collecting
    walk of the last document; MalformedDocument raises and is not kept."""
    issues = _Issues()
    return _build_episode(load_json(document), issues), issues


def parse_episode(document: bytes | str) -> Episode:
    """Parse and fully validate an interchange document.

    Raises MalformedDocument, SchemaError (with a JSON-pointer path), or
    InvariantError (model invariant broken, e.g. non-monotonic timestamps):
    the first error ``validate`` reports. Parsing the same document twice
    in a row returns the same Episode object: its columns are read-only.
    """
    episode, issues = _decode(bytes(document) if type(document) is bytearray else document)
    issues.raise_first()
    return episode


def validate(document: bytes | str) -> list[ValidationIssue]:
    """Report all problems in a document without raising.

    The result contains error-severity issues exactly when parse_episode
    would raise; warnings flag recoverable oddities (defaults applied,
    inconsistent velocity fields).
    """
    try:
        episode, issues = _decode(bytes(document) if type(document) is bytearray else document)
    except MalformedDocument as e:
        return [ValidationIssue("error", "", str(e))]
    return issues.items + ([] if issues.first_error else _velocity_consistency_warnings(episode))


def _velocity_consistency_warnings(episode: Episode) -> list[ValidationIssue]:
    """Warn where a stored velocity disagrees with finite differences by more
    than 0.1 m/s and by more than 20% of the larger of the two speeds, at the
    first such interior state of each agent, on ``Episode.columns``. The
    one-sided endpoint differences are first-order and legitimately disagree
    with instantaneous velocities whenever the agent is accelerating."""
    t, x, y, _, vx, vy, has_vel, offsets, owner = episode.columns
    j = np.arange(len(t)) - offsets[owner]  # the index of each state in its agent
    inner = np.flatnonzero(has_vel & (j > 0) & (j < np.diff(offsets)[owner] - 1))
    if not inner.size:
        return []
    vx, vy = vx[inner], vy[inner]
    fx, fy = differences(t, np.array((x, y)), offsets)[:, inner]  # central at an interior state
    with np.errstate(all="ignore"):
        ex, ey = vx - fx, vy - fy
        # np.hypot may differ from math.hypot in the last place, far inside
        # this margin: it only picks the candidates, math.hypot decides.
        dev = np.hypot(ex, ey)
        scale = np.maximum(np.hypot(fx, fy), np.hypot(vx, vy))
        near = (dev > 0.1 * (1 - 1e-9)) & (dev > 0.2 * scale * (1 - 1e-9))
    found = {}  # the first warning of each agent
    candidates = np.flatnonzero(near)
    for k, i in zip(candidates.tolist(), owner[inner[candidates]].tolist()):
        if i in found:
            continue
        dev = math.hypot(ex[k], ey[k])
        scale = max(math.hypot(fx[k], fy[k]), math.hypot(vx[k], vy[k]))
        if dev > 0.1 and dev > 0.2 * scale:
            shown = f"{dev:.3f}" if dev < 1e6 else f"{dev:.3e}"  # not 200 digits at 1e200
            found[i] = ValidationIssue(
                "warning", f"/agents/{i}/states/{j[inner[k]]}/vx",
                f"stored velocity deviates from finite difference by {shown} m/s (>20%)")
    return list(found.values())


# --- Serialization ----------------------------------------------------------

_dumps = partial(json.dumps, sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json_bytes(obj) -> bytes:
    """Canonical form: sorted keys, shortest float repr, newline-terminated."""
    return (_dumps(obj) + "\n").encode("utf-8")


def serialize_episode(episode: Episode) -> bytes:
    """Canonical, byte-deterministic serialization of an episode.

    The bytes are ``canonical_json_bytes`` of the whole document, written one
    agent at a time: "agents" is the document's first key and "states" an
    agent's last, so only one agent's state objects and text are alive at once.
    """
    out = bytearray(b'{"agents":[')
    for i, a in enumerate(episode.agents):
        entry = {"id": a.id, "kind": a.kind.value, "radius": float(a.radius)}
        if a.goal is not None:
            entry["goal"] = {"x": float(a.goal.x), "y": float(a.goal.y),
                             "tolerance": float(a.goal.tolerance)}
        out += (f'{"," if i else ""}{_dumps(entry)[:-1]},'
                f'"states":{_dumps(a.states)}}}').encode("utf-8")
    obstacles: dict = {"segments": [list(map(float, s)) for s in episode.obstacles.segments]}
    if episode.obstacles.dynamic:
        obstacles["dynamic"] = [
            {"t": float(stamp), "segments": [list(map(float, s)) for s in segs]}
            for stamp, segs in episode.obstacles.dynamic
        ]
    rest = _dumps({
        "format_version": FORMAT_VERSION,
        "episode_id": episode.episode_id,
        "robot_under_test": episode.robot_under_test,
        "obstacles": obstacles,
        "labels": [{"scenario": l.scenario, "t_start": float(l.t_start), "t_end": float(l.t_end)}
                   for l in episode.labels],
        "metadata": dict(episode.metadata),
    })
    out += f"],{rest[1:]}\n".encode("utf-8")
    return bytes(out)


# --- TSV import -------------------------------------------------------------

def import_tsv(rows: str | bytes, frame_rate: float, robot_id: str | None = None) -> Episode:
    """Import a bird's-eye-view trajectory table.

    Row format: ``frame_id<TAB>agent_id<TAB>x<TAB>y``; lines starting with
    '#' are ignored. Timestamps are frame_id / frame_rate. All agents are
    humans except ``robot_id``; when no robot id is given the first agent
    id (sorted) is promoted to robot under test. Agents whose time span
    does not overlap the robot's are dropped (the episode is robot-centric).
    Every agent gets ``DEFAULT_HUMAN_RADIUS``; the episode id is "tsv-import".
    The rows become an episode document, which the episode decoder reads as
    it reads a file: headings and velocities are derived there, and every
    rule ``validate`` applies holds, the first broken one raising
    InvariantError. Bytes that are not UTF-8 raise MalformedDocument.
    """
    positive_finite(frame_rate, "/frame_rate")
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

    rate = float(frame_rate)  # an np.float64 rate would give np.float64 times, not JSON numbers
    states = {agent_id: [{"t": frame / rate, "x": x, "y": y}
                         for frame, (x, y) in sorted(samples[agent_id].items())]
              for agent_id in sorted(samples)}
    robot = states[effective_robot]
    doc = {
        "format_version": FORMAT_VERSION,
        "episode_id": "tsv-import",
        "robot_under_test": effective_robot,
        "agents": [{"id": agent_id, "kind": "robot" if agent_id == effective_robot else "human",
                    "radius": DEFAULT_HUMAN_RADIUS, "states": s}
                   for agent_id, s in states.items()
                   if s[0]["t"] <= robot[-1]["t"] and s[-1]["t"] >= robot[0]["t"]],
        "metadata": {"source": "tsv", "frame_rate": repr(rate)},
    }
    issues = _Issues()
    episode = _build_episode(doc, issues)
    issues.raise_first()
    return episode
