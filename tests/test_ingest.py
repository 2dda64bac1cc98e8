import copy
import hashlib
import json
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socnav.core import (AgentKind, AgentRecord, Episode, EpisodeLabel, Goal, ObstacleMap,
                         check_episode)
from socnav.errors import (
    InvariantError,
    MalformedDocument,
    MalformedRow,
    NoRobot,
    SchemaError,
    SocnavError,
)
from socnav import ingest
from socnav.ingest import (
    import_tsv,
    parse_episode,
    serialize_episode,
    validate,
)
from socnav.simulator import SCENARIO_NAMES, generate_scenario, run

from conftest import DELETE, crowd_document, edited, fuzz_episode, json_pointers
from oracles import reference_serialize_episode

MINIMAL = {
    "format_version": "1.0",
    "episode_id": "mini",
    "robot_under_test": "r1",
    "agents": [
        {
            "id": "r1",
            "kind": "robot",
            "radius": 0.3,
            "goal": {"x": 5.0, "y": 0.0, "tolerance": 0.2},
            "states": [
                {"t": 0.0, "x": 0.0, "y": 0.0},
                {"t": 1.0, "x": 1.0, "y": 0.0},
            ],
        }
    ],
    "obstacles": {"segments": []},
}


def doc(overrides=None, **kwargs):
    d = json.loads(json.dumps(MINIMAL))
    d.update(overrides or {})
    d.update(kwargs)
    return json.dumps(d).encode()


class TestParse:
    def test_minimal_document(self):
        ep = parse_episode(doc())
        assert len(ep.agents) == 1
        assert ep.robot.kind is AgentKind.ROBOT
        assert ep.robot.goal.tolerance == 0.2

    def test_heading_synthesized_from_motion(self):
        ep = parse_episode(doc())
        assert ep.robot.states[0]["theta"] == pytest.approx(0.0)  # moving along +x

    def test_non_monotonic_timestamps(self):
        d = json.loads(json.dumps(MINIMAL))
        d["agents"][0]["states"].append({"t": 1.0, "x": 2.0, "y": 0.0})
        with pytest.raises(InvariantError) as err:
            parse_episode(json.dumps(d).encode())
        assert err.value.path == "/agents/0/states/2/t"

    def test_bad_utf8(self):
        with pytest.raises(MalformedDocument):
            parse_episode(b"\xff\xfe{}")

    def test_bad_json(self):
        with pytest.raises(MalformedDocument):
            parse_episode(b"{not json")

    def test_missing_field_path(self):
        d = json.loads(json.dumps(MINIMAL))
        del d["agents"][0]["states"][0]["x"]
        with pytest.raises(SchemaError) as err:
            parse_episode(json.dumps(d).encode())
        assert err.value.path == "/agents/0/states/0/x"

    def test_vx_without_vy(self):
        d = json.loads(json.dumps(MINIMAL))
        d["agents"][0]["states"][0]["vx"] = 1.0
        with pytest.raises(SchemaError, match="together"):
            parse_episode(json.dumps(d).encode())

    def test_unknown_fields_preserved(self):
        d = json.loads(json.dumps(MINIMAL))
        d["custom_top"] = {"a": 1}
        d["agents"][0]["custom_agent"] = "x"
        ep = parse_episode(json.dumps(d).encode())
        unknown = json.loads(ep.metadata["x-unknown"])
        assert unknown["/custom_top"] == {"a": 1}
        assert unknown["/agents/0/custom_agent"] == "x"
        # survives a round trip
        again = parse_episode(serialize_episode(ep))
        assert again == ep


class TestSerialize:
    def test_deterministic(self):
        ep = parse_episode(doc())
        assert serialize_episode(ep) == serialize_episode(ep)

    def test_newline_terminated_sorted(self):
        raw = serialize_episode(parse_episode(doc()))
        assert raw.endswith(b"\n")
        parsed = json.loads(raw)
        assert list(parsed) == sorted(parsed)

    def test_empty_obstacles_present(self):
        raw = serialize_episode(parse_episode(doc())).decode()
        assert '"obstacles":{"segments":[]}' in raw

    def test_round_trip_identity(self):
        first = parse_episode(doc())
        again = parse_episode(serialize_episode(first))
        assert again == first

    def test_dynamic_obstacles_round_trip(self):
        ep = fuzz_episode(3)
        dyn = ((0.5, ((0, 0, 1, 0),)), (1.5, ()))
        ep2 = type(ep)(episode_id=ep.episode_id, robot_under_test=ep.robot_under_test,
                       agents=ep.agents,
                       obstacles=ObstacleMap(segments=ep.obstacles.segments, dynamic=dyn),
                       labels=ep.labels, metadata=ep.metadata)
        assert parse_episode(serialize_episode(ep2)) == ep2

    def test_states_are_the_files_state_lists(self):
        """``AgentRecord.states`` is each agent's ``states`` array as the file holds it."""
        for path in sorted((Path(__file__).parent / "golden").glob("*/canonical.json")):
            raw = path.read_bytes()
            assert ([a.states for a in parse_episode(raw).agents]
                    == [a["states"] for a in json.loads(raw)["agents"]]), path.parent.name
        for name in SCENARIO_NAMES:
            for policy in ("sfm", "straight_line_stop"):
                ep = run(generate_scenario(name, 3, robot_policy=policy))
                written = json.loads(serialize_episode(ep))["agents"]
                for agent, entry in zip(ep.agents, written, strict=True):
                    assert agent.states == entry["states"]
                    assert len(agent.states) == len(agent.t)

    def test_points_are_the_files_numbers(self):
        """A goal is the file's (x, y, tolerance) and a segment its [x1, y1, x2, y2], as
        float tuples; dynamic sets come in the decoder's stamp order."""
        for path in sorted((Path(__file__).parent / "golden").glob("*/canonical.json")):
            raw = path.read_bytes()
            episode, doc = parse_episode(raw), json.loads(raw)
            static = tuple(map(tuple, doc["obstacles"]["segments"]))
            dynamic = tuple((d["t"], tuple(map(tuple, d["segments"])))
                            for d in sorted(doc["obstacles"].get("dynamic", []),
                                            key=lambda d: d["t"]))
            assert (episode.obstacles.segments, episode.obstacles.dynamic) == (static, dynamic)
            segments = episode.obstacles.segments + tuple(
                seg for _, segs in episode.obstacles.dynamic for seg in segs)
            assert {type(v) for seg in segments for v in seg} <= {float}, path.parent.name
            assert ([None if a.goal is None else (a.goal.x, a.goal.y, a.goal.tolerance)
                     for a in episode.agents]
                    == [tuple(a["goal"][k] for k in ("x", "y", "tolerance")) if "goal" in a
                        else None for a in doc["agents"]]), path.parent.name


_float = st.floats(allow_nan=False, allow_infinity=False)
_name = st.text(max_size=4)  # any code point, so non-ASCII too
_segments = st.lists(st.tuples(_float, _float, _float, _float), max_size=3).map(tuple)


@st.composite
def _agents(draw):
    n = draw(st.integers(1, 5))
    column = st.lists(_float, min_size=n, max_size=n).map(np.array)
    return AgentRecord(
        id=draw(_name), kind=draw(st.sampled_from(AgentKind)), radius=draw(_float),
        t=draw(column), x=draw(column), y=draw(column), heading=draw(column),
        vx=draw(column), vy=draw(column),  # stored only where has_vel is set
        has_vel=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
        goal=draw(st.none() | st.builds(Goal, _float, _float, _float)))


_episodes = st.builds(
    Episode, episode_id=_name, robot_under_test=_name,
    agents=st.lists(_agents(), max_size=8).map(tuple),
    obstacles=st.builds(ObstacleMap, segments=_segments,
                        dynamic=st.lists(st.tuples(_float, _segments), max_size=3).map(tuple)),
    labels=st.lists(st.builds(EpisodeLabel, _name, _float, _float), max_size=3).map(tuple),
    metadata=st.dictionaries(_name, _name, max_size=3))


class TestSerializeOneAgentAtATime:
    """``serialize_episode`` writes an agent at a time the bytes that one
    ``json.dumps`` of the whole document gives."""

    @settings(max_examples=200, deadline=None)
    @given(_episodes)
    def test_same_bytes_as_the_whole_document_writer(self, episode):
        assert serialize_episode(episode) == reference_serialize_episode(episode)

    def test_same_bytes_on_goldens_and_scenario_episodes(self):
        goldens = [parse_episode(p.read_bytes())
                   for p in sorted((Path(__file__).parent / "golden").glob("*/canonical.json"))]
        simulated = [run(generate_scenario(name, 3, robot_policy=policy))
                     for name in SCENARIO_NAMES for policy in ("sfm", "straight_line_stop")]
        assert len(goldens) == 5 and len(simulated) == 16
        for episode in goldens + simulated:
            assert serialize_episode(episode) == reference_serialize_episode(episode)

    def test_nan_state_raises_the_same_error(self):
        ep = fuzz_episode(3)
        x = ep.agents[1].x.copy()
        x[2] = np.nan
        ep = replace(ep, agents=(ep.agents[0], replace(ep.agents[1], x=x), *ep.agents[2:]))
        with pytest.raises(ValueError) as ours:
            serialize_episode(ep)
        with pytest.raises(ValueError) as reference:
            reference_serialize_episode(ep)
        assert str(ours.value) == str(reference.value)

    @pytest.mark.parametrize("name", ["parallel_traffic", "perpendicular_traffic"])
    def test_transient_memory_below_five_times_the_file(self, name):
        """The whole-document writer peaks at about ten times its output."""
        episode = run(generate_scenario(name, 3))
        tracemalloc.start()
        try:
            data = serialize_episode(episode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * len(data), (peak, len(data))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_fuzz(seed):
    ep = fuzz_episode(seed)
    raw = serialize_episode(ep)
    first = parse_episode(raw)
    again = parse_episode(serialize_episode(first))
    assert again == first
    assert serialize_episode(first) == serialize_episode(again)


_STATE_FIELDS = ("t", "x", "y", "theta", "vx", "vy")
_DROP = object()
_CORRUPTIONS = {"missing": _DROP, "null": None, "string": "1", "true": True,
                "int": int, "huge": 1e308}


def _full_states():
    """MINIMAL with every state field present, all with integral values."""
    d = json.loads(json.dumps(MINIMAL))
    for s in d["agents"][0]["states"]:
        s.update(theta=0.0, vx=1.0, vy=0.0)
    return d


def _corrupted_documents():
    """Single-field corruptions of one state, plus a few whole-document cases."""
    cases = {"clean": doc(), "bad-json": b"{bad",
             "no-robot": doc({"robot_under_test": "nobody"})}
    d = json.loads(json.dumps(MINIMAL))
    d["agents"][0]["states"][1]["t"] = 0.0
    cases["repeated-t"] = json.dumps(d).encode()
    d = json.loads(json.dumps(MINIMAL))
    d["agents"][0]["states"][0]["vx"] = 1.0
    cases["vx-without-vy"] = json.dumps(d).encode()
    for field in _STATE_FIELDS:
        for name, value in _CORRUPTIONS.items():
            for j in (0, 1):
                d = _full_states()
                state = d["agents"][0]["states"][j]
                if value is _DROP:
                    del state[field]
                else:
                    state[field] = value(state[field]) if value is int else value
                cases[f"{field}-{name}-state{j}"] = json.dumps(d).encode()
    d = _full_states()
    d["agents"][0]["states"][1]["x"] = 10 ** 400  # too large for a float
    cases["x-401-digits-state1"] = json.dumps(d).encode()
    d = _full_states()
    d["obstacles"] = {"segments": [[0, 0, 10 ** 400, 1]]}
    cases["segment-401-digits"] = json.dumps(d).encode()
    return cases


_CORRUPTED_IDS, _CORRUPTED = zip(*_corrupted_documents().items())

_GOLDEN = {name: json.loads((Path(__file__).parent / "golden" / name / "episode.json").read_text())
           for name in ("dynamic_obstacles", "headings_omitted", "int_numbers",
                        "theta_wrapped", "velocities_omitted")}
_BAD_STATE_VALUES = {"null": None, "bool": False, "string": "1.0", "array": [], "object": {},
                     "401-digits": 10 ** 400, "deleted": _DROP, "not-an-object": "state"}


def _edited_state(name, field, kind):
    """A valid golden episode with one state edited, and the one error line it
    must give (None for a valid edit). The edited state is the middle one of the
    first agent whose middle state has ``field``."""
    d = copy.deepcopy(_GOLDEN[name])
    i, agent = next((i, a) for i, a in enumerate(d["agents"])
                    if field in a["states"][len(a["states"]) // 2])
    j = len(agent["states"]) // 2
    path, value = f"/agents/{i}/states/{j}/{field}", _BAD_STATE_VALUES[kind]
    if kind == "not-an-object":
        agent["states"][j] = value
        line = f"/agents/{i}/states/{j}: expected an object, got str"
    elif value is _DROP:
        del agent["states"][j][field]
        line = (None if field == "theta" else f"{path}: vx and vy must be given together"
                if field in ("vx", "vy") else f"{path}: missing required field")
    else:
        agent["states"][j][field] = value
        line = f"{path}: " + ("number out of range" if kind == "401-digits"
                              else f"expected a number, got {type(value).__name__}")
    return json.dumps(d).encode(), line


_STATE_EDITS = [(name, field, kind) for name, d in _GOLDEN.items() for field in _STATE_FIELDS
                if any(field in a["states"][len(a["states"]) // 2] for a in d["agents"])
                for kind in _BAD_STATE_VALUES if kind != "not-an-object" or field == "t"]


class TestValidate:
    def test_valid_minimal_is_clean(self):
        assert validate(doc()) == []

    @pytest.mark.parametrize("agents", ["broken", "not-an-array"])
    def test_reports_every_part_after_a_broken_agent(self, agents):
        d = json.loads(json.dumps(MINIMAL))
        if agents == "broken":
            d["agents"][0]["states"][0]["x"] = "a"
        else:
            d["agents"] = {}
        d["obstacles"] = {"segments": [[0, 0, 1]]}
        d["labels"] = [{"scenario": 3, "t_start": 0, "t_end": 1}]
        d["metadata"] = {"k": 1}
        document = json.dumps(d).encode()
        first = "/agents/0/states/0/x" if agents == "broken" else "/agents"
        assert [i.path for i in validate(document) if i.severity == "error"] == [
            first, "/obstacles/segments/0", "/labels/0/scenario", "/metadata/k"]
        with pytest.raises(SchemaError) as err:
            parse_episode(document)
        assert err.value.path == first

    def test_bad_theta_or_velocity_reported_and_read_as_omitted(self):
        # The agent still decodes, so the model checks run on it too.
        d = json.loads(json.dumps(MINIMAL))
        d["agents"][0]["states"][0]["theta"] = "north"
        d["agents"][0]["states"][1].update(vx=True, vy=0.0, t=0.0)
        assert [(i.path, i.message) for i in validate(json.dumps(d).encode())] == [
            ("/agents/0/states/0/theta", "expected a number, got str"),
            ("/agents/0/states/1/vx", "expected a number, got bool"),
            ("/agents/0/states/1/t", "timestamps must be strictly increasing (0.0 -> 0.0)")]

    @pytest.mark.parametrize("name, field, kind", _STATE_EDITS,
                             ids=["-".join(case) for case in _STATE_EDITS])
    def test_one_bad_state_field_one_line(self, name, field, kind):
        document, line = _edited_state(name, field, kind)
        errors = [f"{i.path}: {i.message}" for i in validate(document) if i.severity == "error"]
        if line is None:
            assert errors == [] and parse_episode(document)
            return
        assert errors == [line]
        with pytest.raises(SchemaError) as err:
            parse_episode(document)
        assert str(err.value) == line

    def test_every_state_fault_reported_by_field_then_state(self):
        d = copy.deepcopy(_GOLDEN["dynamic_obstacles"])
        states = d["agents"][0]["states"]
        states[0]["y"] = []
        states[1]["vx"] = None
        states[2]["theta"] = True
        states[3].update(x="a", t="b")
        del states[4]["vy"]
        del states[5]["t"]
        d["agents"][1]["states"][7] = 7
        d["agents"][1]["states"][9] = None
        d["agents"][1]["states"][8]["x"] = "hidden by the states that are not objects"
        document = json.dumps(d).encode()
        expected = ["/agents/0/states/3/t: expected a number, got str",
                    "/agents/0/states/5/t: missing required field",
                    "/agents/0/states/3/x: expected a number, got str",
                    "/agents/0/states/0/y: expected a number, got list",
                    "/agents/0/states/2/theta: expected a number, got bool",
                    "/agents/0/states/4/vy: vx and vy must be given together",
                    "/agents/0/states/1/vx: expected a number, got NoneType",
                    "/agents/1/states/7: expected an object, got int",
                    "/agents/1/states/9: expected an object, got NoneType"]
        assert [f"{i.path}: {i.message}" for i in validate(document)] == expected
        with pytest.raises(SchemaError) as err:
            parse_episode(document)
        assert str(err.value) == expected[0]

    def test_negative_radius(self):
        d = json.loads(json.dumps(MINIMAL))
        d["agents"][0]["radius"] = -1
        issues = validate(json.dumps(d).encode())
        errors = [i for i in issues if i.severity == "error"]
        assert len(errors) == 1
        assert errors[0].path == "/agents/0/radius"

    def test_missing_radius_warns(self):
        d = json.loads(json.dumps(MINIMAL))
        del d["agents"][0]["radius"]
        issues = validate(json.dumps(d).encode())
        assert [i.severity for i in issues] == ["warning"]
        ep = parse_episode(json.dumps(d).encode())
        assert ep.robot.radius == 0.3

    def test_displaced_velocity_warns(self):
        d = json.loads(json.dumps(MINIMAL))
        # constant-speed line: finite differences give (1, 0); store 1.5x that
        d["agents"][0]["states"] = [
            {"t": float(k), "x": float(k), "y": 0.0, "vx": 1.5, "vy": 0.0}
            for k in range(4)
        ]
        issues = validate(json.dumps(d).encode())
        assert any(i.severity == "warning" and "deviates" in i.message for i in issues)
        assert not any(i.severity == "error" for i in issues)

    def test_velocity_check_overflow_is_quiet(self):
        # Each step is 9 m/s, but the central difference overflows: x2 - x0 is inf.
        d = json.loads(json.dumps(MINIMAL))
        d["agents"][0]["states"] = [{"t": t, "x": x, "y": 0.0, "vx": 9.0, "vy": 0.0}
                                    for t, x in ((0.0, -0.9e308), (1e307, 0.0), (2e307, 0.9e308))]
        document = json.dumps(d).encode()
        ingest._decode.cache_clear()
        assert validate(document) == []  # decodes the document itself
        assert parse_episode(document).robot.x.tolist() == [-0.9e308, 0.0, 0.9e308]
        assert validate(document) == []  # answered from the same decode

    @pytest.mark.parametrize("obstacles, expected", [
        # Set 0 (t = 2) sorts after set 1 (t = 1).
        ({"segments": [], "dynamic": [{"t": 2, "segments": [[0, 0, 0, 0]]},
                                      {"t": 1, "segments": []}]},
         [("/obstacles/dynamic/0/segments/0", "segment endpoints must be distinct")]),
        # Non-finite stamps in an unsorted file: issues come in file order.
        ({"segments": [], "dynamic": [
            {"t": 2, "segments": []}, {"t": float("nan"), "segments": []},
            {"t": 1, "segments": [[1, 1, 1, 1]]}, {"t": -float("inf"), "segments": []}]},
         [("/obstacles/dynamic/1/t", "must be finite"),
          ("/obstacles/dynamic/2/segments/0", "segment endpoints must be distinct"),
          ("/obstacles/dynamic/3/t", "must be finite")]),
        # A set that cannot be read does not shift the index of the next.
        ({"segments": [], "dynamic": [5, {"t": 1, "segments": [[1, 1, 1, 1]]}]},
         [("/obstacles/dynamic/0", "expected an object"),
          ("/obstacles/dynamic/1/segments/0", "segment endpoints must be distinct")]),
        # Nor does a segment that cannot be read shift the index of the next one,
        # static or dynamic.
        ({"segments": [[0, 0, 1], [2, 2, 2, 2]]},
         [("/obstacles/segments/0", "expected [x1, y1, x2, y2]"),
          ("/obstacles/segments/1", "segment endpoints must be distinct")]),
        ({"segments": [], "dynamic": [{"t": 1, "segments": [[0, "a", 1, 1], [3, 3, 3, 3]]}]},
         [("/obstacles/dynamic/0/segments/0", "expected [x1, y1, x2, y2]"),
          ("/obstacles/dynamic/0/segments/1", "segment endpoints must be distinct")]),
    ])
    def test_dynamic_set_named_by_its_index_in_the_file(self, obstacles, expected):
        document = doc(obstacles=obstacles)
        assert [(i.path, i.message) for i in validate(document)] == expected
        with pytest.raises(SocnavError) as err:
            parse_episode(document)
        assert err.value.path == expected[0][0]

    @pytest.mark.parametrize("raw", _CORRUPTED, ids=_CORRUPTED_IDS)
    def test_errors_iff_parse_fails(self, raw):
        errors = [i for i in validate(raw) if i.severity == "error"]
        try:
            parse_episode(raw)
        except SocnavError as e:
            assert errors
            assert getattr(e, "path", "") == errors[0].path
        else:
            assert not errors

    @pytest.mark.parametrize("field", _STATE_FIELDS)
    @pytest.mark.parametrize("j", [0, 1])
    def test_int_values_parse_like_floats(self, field, j):
        twin = _full_states()
        as_int = _full_states()
        as_int["agents"][0]["states"][j][field] = int(twin["agents"][0]["states"][j][field])
        raw_int, raw_float = json.dumps(as_int).encode(), json.dumps(twin).encode()
        from_int, from_float = parse_episode(raw_int), parse_episode(raw_float)
        assert from_int == from_float
        assert serialize_episode(from_int) == serialize_episode(from_float)
        assert validate(raw_int) == validate(raw_float)


def _outcome(fn, document):
    """What ``fn`` gives: validate's issue list, parse_episode's episode, or the
    type, path and message of what it raised."""
    try:
        return fn(document)
    except SocnavError as e:
        return type(e), getattr(e, "path", None), str(e)


def _fresh(fn, document):
    ingest._decode.cache_clear()
    return _outcome(fn, document)


# Call orders: "v"/"p" validate/parse the document under test, "V"/"P" a second
# one, given as a str.
_ORDERS = ("v", "p", "vp", "pv", "vv", "pp", "vpvp", "pvpv", "vVp", "pPv", "vPp", "pVv", "vVpP")
_SECOND = json.dumps(_GOLDEN["headings_omitted"])


def _check_call_orders(document):
    """``validate`` and ``parse_episode`` give what they give fresh in every call
    order, and for a ``bytearray`` what they give for its bytes."""
    fresh = {(doc, fn): _fresh(fn, doc) for doc in (document, _SECOND)
             for fn in (validate, parse_episode)}
    for order in _ORDERS:
        ingest._decode.cache_clear()
        for step in order:
            doc = document if step.islower() else _SECOND
            fn = validate if step in "vV" else parse_episode
            assert _outcome(fn, doc) == fresh[doc, fn], (order, step)
    for fn in (parse_episode, validate):
        ingest._decode.cache_clear()
        assert _outcome(fn, bytearray(document)) == fresh[document, fn]


_GOLDEN_DOCUMENTS = {f"golden-{p.parent.name}": p.read_bytes()
                     for p in sorted((Path(__file__).parent / "golden").glob("*/episode.json"))}
_ORDER_INPUTS = {**_GOLDEN_DOCUMENTS, **dict(zip(_CORRUPTED_IDS, _CORRUPTED))}
# Agents that differ in carrying theta and vx/vy, a second robot, late entries
# and dynamic obstacles, in one document.
_CROWD_DOCUMENTS = {f"crowd-{seed}": crowd_document(seed) for seed in (0, 1)}
_NODE_VALUES = [DELETE, None, True, "x", 10 ** 400, -1.0, 1e308, 0, [], {}]


def _node_edits():
    """Each golden and crowd episode, a valid one cut to the first four states of
    each agent, with each node replaced or deleted twice, by the values of
    ``_NODE_VALUES`` in turn. The bytes are ``edited``'s: an edit inside one agent
    dumps that agent alone and joins it with the text of the rest, as
    ``json.dumps`` writes the whole document."""
    for name, document in {**_GOLDEN_DOCUMENTS, **_CROWD_DOCUMENTS}.items():
        d = json.loads(document)
        for agent in d["agents"] if "invalid" not in name else ():
            agent["states"] = agent["states"][:4]
        pointers = list(json_pointers(d))[1:]
        texts = {f"{json.dumps(key)}: ": json.dumps(value) for key, value in d.items()}
        agents = [json.dumps(a) for a in d["agents"]] if type(d.get("agents")) is list else []
        for k in range(2 * len(pointers)):
            pointer, value = pointers[k // 2], _NODE_VALUES[k % len(_NODE_VALUES)]
            if pointer[0] != "agents" or len(pointer) < 3 or not agents:
                yield edited(d, pointer, value)
                continue
            i = pointer[1]
            one = edited(d["agents"][i], pointer[2:], value).decode()
            texts['"agents": '] = f"[{', '.join(agents[:i] + [one] + agents[i + 1:])}]"
            yield f"{{{', '.join(key + text for key, text in texts.items())}}}".encode()


# sha256 over, for each golden, each _CORRUPTED document, each crowd document and
# each _node_edits document: parse_episode's outcome (the type, path and message of
# what it raised, or the sha256 of the episode's canonical bytes) and validate's
# lines. Any change to what the episode decoder accepts, refuses or reports shows here.
DECODE_SHA256 = "222590a99f946f2059a4c4f9d5851f327086d70c1dfad6f11f86d31f4ae79eab"


def test_decoder_outcomes_pinned():
    digest = hashlib.sha256()
    invalid = 0
    for document in (*_ORDER_INPUTS.values(), *_CROWD_DOCUMENTS.values(), *_node_edits()):
        outcome = _outcome(parse_episode, document)
        if isinstance(outcome, Episode):
            outcome = hashlib.sha256(serialize_episode(outcome)).hexdigest()
        else:
            invalid += 1
            outcome = f"{outcome[0].__name__} {outcome[1]!r} {outcome[2]}"
        digest.update(f"{outcome}\n".encode())
        digest.update("".join(f"{issue}\n" for issue in validate(document)).encode())
        digest.update(b"--\n")
    assert invalid >= 1500
    assert digest.hexdigest() == DECODE_SHA256


@st.composite
def _order_documents(draw):
    """An arbitrary episode's bytes (mostly invalid), or a valid fuzzed one's with
    at most one node replaced or deleted."""
    if draw(st.booleans()):
        return serialize_episode(draw(_episodes))
    d = json.loads(serialize_episode(fuzz_episode(draw(st.integers(0, 10_000)), n_steps=6)))
    pointer = draw(st.sampled_from(list(json_pointers(d))))
    value = draw(st.sampled_from(_NODE_VALUES))
    return edited(d, pointer, value) if pointer else json.dumps(d).encode()


class TestCallOrder:
    """``validate`` and ``parse_episode`` share one decode of the last document
    (``ingest._decode``); no call order may show it."""

    @pytest.mark.parametrize("document", _ORDER_INPUTS.values(), ids=_ORDER_INPUTS.keys())
    def test_goldens_and_corrupted(self, document):
        _check_call_orders(document)

    @settings(max_examples=100, deadline=None)
    @given(_order_documents())
    def test_fuzzed(self, document):
        _check_call_orders(document)


def _count_decodes(monkeypatch) -> list:
    """A list that gains an entry at each episode walk from here on, the memo cleared."""
    walks = []
    build = ingest._build_episode
    monkeypatch.setattr(ingest, "_build_episode",
                        lambda doc, issues: walks.append(doc) or build(doc, issues))
    ingest._decode.cache_clear()
    return walks


class TestOneDecode:
    """A document is walked once, whichever of ``parse_episode`` and ``validate``
    reads it first, and a ``bytearray`` is read as its bytes."""

    @pytest.mark.parametrize("name", ["int_numbers", "invalid_model"])
    @pytest.mark.parametrize("as_type", [bytes, str])
    @pytest.mark.parametrize("first, then", [(parse_episode, validate),
                                             (validate, parse_episode)])
    def test_either_order(self, monkeypatch, name, as_type, first, then):
        document = _GOLDEN_DOCUMENTS[f"golden-{name}"]
        document = document if as_type is bytes else document.decode()
        walks = _count_decodes(monkeypatch)
        _outcome(first, document)
        _outcome(then, document)
        assert len(walks) == 1

    def test_validate_after_parse_reports_velocity_warnings(self):
        document = _GOLDEN_DOCUMENTS["golden-int_numbers"]
        fresh = _fresh(validate, document)
        assert sum("deviates" in issue.message for issue in fresh) == 6
        ingest._decode.cache_clear()
        parse_episode(document)
        assert validate(document) == fresh

    @pytest.mark.parametrize("name", ["int_numbers", "invalid_model"])
    def test_bytearray_reads_as_its_bytes(self, monkeypatch, name):
        document = _GOLDEN_DOCUMENTS[f"golden-{name}"]
        fresh = {fn: _fresh(fn, document) for fn in (parse_episode, validate)}
        walks = _count_decodes(monkeypatch)
        for fn in (parse_episode, validate):
            assert _outcome(fn, bytearray(document)) == fresh[fn]
            assert _outcome(fn, document) == fresh[fn]
        assert len(walks) == 1


class TestOneBlock:
    """An episode's agents are decoded as one block: each record is built once, and
    the block is read-only, so a caller cannot change what a later parse returns."""

    def test_each_agent_built_once(self, monkeypatch):
        built = []
        post_init = AgentRecord.__post_init__
        monkeypatch.setattr(AgentRecord, "__post_init__",
                            lambda self: built.append(self.id) or post_init(self))
        ingest._decode.cache_clear()
        episode = parse_episode(crowd_document(0))
        assert len(episode.agents) >= 12
        assert built == [a.id for a in episode.agents]

    def test_write_to_a_parsed_episode_raises(self):
        document = crowd_document(0)
        ingest._decode.cache_clear()
        episode = parse_episode(document)
        for agent in episode.agents:
            for name in ("t", "x", "y", "heading", "vx", "vy", "has_vel"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(agent, name)[0] = 99.0
            agent.positions[0] = agent.velocities[0] = 99.0  # a fresh array on each access
        again = parse_episode(document)
        ingest._decode.cache_clear()
        assert again == parse_episode(document)
        assert again is not parse_episode(document)

    def test_arrays_passed_to_a_record_keep_their_flags(self):
        x = np.zeros(3)
        record = AgentRecord(id="a", kind=AgentKind.HUMAN, radius=0.3, t=np.arange(3.0), x=x, y=x)
        record.x[0] = 1.0  # the caller's own array, as given
        assert x.flags.writeable and x[0] == 1.0


class TestImportTsv:
    def test_two_rows(self):
        ep = import_tsv("0\ta\t0.0\t0.0\n10\ta\t1.0\t0.0\n", frame_rate=10.0)
        agent = ep.agents[0]
        assert [s["t"] for s in agent.states] == [0.0, 1.0]
        assert ep.robot_under_test == "a"
        assert agent.kind is AgentKind.ROBOT  # promoted in absence of robot_id

    def test_duplicate_frame_agent(self):
        with pytest.raises(MalformedRow):
            import_tsv("0\ta\t0\t0\n0\ta\t1\t1\n", frame_rate=10.0)

    def test_counts_from_synthetic_generator(self):
        rows = ["# synthetic"]
        for agent in ("a", "b", "c"):
            for frame in range(100):
                rows.append(f"{frame}\t{agent}\t{frame * 0.1:.3f}\t{hash(agent) % 7}")
        ep = import_tsv("\n".join(rows), frame_rate=25.0, robot_id="b")
        assert len(ep.agents) == 3
        assert all(len(a.t) == 100 for a in ep.agents)
        assert ep.robot.id == "b"
        assert sum(a.kind is AgentKind.HUMAN for a in ep.agents) == 2

    def test_row_order_invariance(self):
        rows = [f"{f}\t{a}\t{f * 0.05}\t{0.1 * ord(a)}" for a in "ab" for f in range(20)]
        fwd = import_tsv("\n".join(rows), frame_rate=10.0, robot_id="a")
        rev = import_tsv("\n".join(reversed(rows)), frame_rate=10.0, robot_id="a")
        assert fwd == rev

    def test_missing_robot(self):
        with pytest.raises(NoRobot):
            import_tsv("0\ta\t0\t0\n1\ta\t0.1\t0\n", frame_rate=10.0, robot_id="zz")

    def test_malformed_row_reports_index(self):
        with pytest.raises(MalformedRow) as err:
            import_tsv("0\ta\t0\t0\nbroken line\n", frame_rate=10.0)
        assert err.value.row == 1

    @pytest.mark.parametrize("text, row, message", [
        ("# a comment and nothing else\n", 0, "no data rows"),
        ("0\ta\tnan\t0\n", 0, "non-finite value"),
        ("0\ta\t0\t0\n1\ta\tx\t0\n", 1, "could not convert string to float: 'x'"),
    ], ids=["comment-only", "nan", "not-a-number"])
    def test_bad_rows_one_diagnostic(self, text, row, message):
        with pytest.raises(MalformedRow) as err:
            import_tsv(text, frame_rate=10.0)
        assert str(err.value) == f"row {row}: {message}"

    def test_default_radius(self):
        ep = import_tsv("0\ta\t0\t0\n1\ta\t0.1\t0\n", frame_rate=10.0)
        assert ep.agents[0].radius == 0.3

    def test_import_validates(self):
        ep = import_tsv("0\ta\t0\t0\n5\ta\t0.2\t0.1\n3\tb\t1\t1\n8\tb\t1.2\t0.9\n",
                        frame_rate=10.0, robot_id="a")
        assert check_episode(ep) == []

    def test_equal_times_named_at_t(self):
        # Distinct frames that divide to one time: the repeated time is the
        # fault, not a heading the table never had.
        with pytest.raises(InvariantError) as err:
            import_tsv("1e-320\ta\t0\t0\n2e-320\ta\t0\t1\n", frame_rate=1e6)
        assert str(err.value) == ("/agents/0/states/1/t: "
                                  "timestamps must be strictly increasing (0.0 -> 0.0)")


_frame = (st.integers(-3, 40) | st.floats(-3, 40)
          | st.sampled_from([1e308, 1.7e308, 1e300, 1e-320, 5e-324]))
_coordinate = (st.floats(-1, 1) | st.sampled_from([1e308, -1e308, 5e-324, -0.0])
               | st.floats())
_frame_rate = (st.floats(0.01, 100)
               | st.sampled_from([0.1, 1e6, 1e-300, 5e-324, 1e300, 1.7e308]))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_frame, st.sampled_from("abc"), _coordinate, _coordinate),
                     max_size=12),
       frame_rate=_frame_rate, robot_id=st.none() | st.sampled_from(["a", "b", "zz"]))
@example(rows=[(0, "a", 0.0, 0.0), (1e308, "a", 0.0, 1.0)], frame_rate=0.1, robot_id=None)
def test_import_fails_cleanly_or_writes_a_valid_file(rows, frame_rate, robot_id):
    text = "".join(f"{frame!r}\t{agent}\t{x!r}\t{y!r}\n" for frame, agent, x, y in rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            episode = import_tsv(text, frame_rate=frame_rate, robot_id=robot_id)
        except (MalformedRow, NoRobot, InvariantError):
            return
        raw = serialize_episode(episode)
        assert not [i for i in validate(raw) if i.severity == "error"]
        assert parse_episode(raw) == episode


def test_root_error_reads_without_its_empty_path():
    """The document root's pointer is "": the text leaves it out, ``.path`` keeps it."""
    (issue,) = validate(b"[]")
    assert issue.path == "" and str(issue) == "error: document root must be an object, got list"
    with pytest.raises(SchemaError) as e:
        parse_episode(b"[]")
    assert e.value.path == "" and str(e.value) == "document root must be an object, got list"
    assert str(InvariantError("/dt", "must be positive")) == "/dt: must be positive"
    assert str(ingest.ValidationIssue("warning", "/a", "m")) == "warning: /a: m"
