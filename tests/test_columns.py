"""Columnar decoding and checks against their per-sample forms in ``oracles``.

Each generated episode is decoded leniently (as ``validate`` does), so it
may break any invariant; the column code must then report exactly the
per-sample scan's (path, message) list and produce its headings and
velocities bit for bit. The examples pin inputs where numpy's hypot or
arctan2 differ from ``math``'s in the last place.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socnav.core import V_CAP, _sample_issues, motion_headings
from socnav.geometry import wrap_angle
from socnav.ingest import _build_episode, _Issues, _velocity_consistency_warnings

from oracles import (
    sample_issues_oracle,
    synthesize_headings_oracle,
    velocities_oracle,
    velocity_warnings_oracle,
)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
COORD = st.floats(-1.0, 1.0)


def _ulps(value: float, k: int) -> float:
    for _ in range(abs(k)):
        value = math.nextafter(value, math.copysign(math.inf, k))
    return value


@st.composite
def agent_states(draw):
    """States with repeats, reversals, steps at the speed cap and bad values."""
    t, x, y = draw(st.floats(-10.0, 10.0)), draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))
    states = []
    for j in range(draw(st.integers(1, 7))):
        if j:
            move = draw(st.sampled_from(["walk", "cap", "repeat", "back"]))
            dt = draw(st.sampled_from([0.05, 0.1, 0.25, 1.0]))
            if move == "cap":  # V_CAP give or take an ulp of x
                angle = draw(st.floats(0.0, 2 * math.pi))
                x = _ulps(x + V_CAP * dt * math.cos(angle), draw(st.integers(-1, 1)))
                y = y + V_CAP * dt * math.sin(angle)
            else:
                x, y = x + draw(COORD), y + draw(COORD)
            t += {"walk": dt, "cap": dt, "repeat": 0.0, "back": -dt}[move]
        state = {"t": t, "x": x, "y": y}
        bad = draw(st.sampled_from([None, None, None, "t", "x", "theta", "vx"]))
        if bad is not None:
            state[bad] = draw(NON_FINITE)
        if bad != "theta" and draw(st.booleans()):
            state["theta"] = draw(st.floats(-4.0, 4.0))
        if bad == "vx" or draw(st.booleans()):
            state.setdefault("vx", draw(st.floats(-3.0, 3.0)))
            state["vy"] = draw(st.floats(-3.0, 3.0))
        states.append(state)
    return states


@st.composite
def episodes(draw):
    agents = [{"id": f"a{i}", "kind": "robot" if i == 0 else "human", "radius": 0.3,
               "states": draw(agent_states())}
              for i in range(draw(st.integers(1, 3)))]
    return {"format_version": "1.0", "episode_id": "e", "robot_under_test": "a0",
            "agents": agents}


def _doc(*agents):
    return {"format_version": "1.0", "episode_id": "e", "robot_under_test": "a0",
            "agents": [{"id": f"a{i}", "kind": "robot" if i == 0 else "human",
                        "radius": 0.3, "states": states} for i, states in enumerate(agents)]}


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


# math.hypot puts this step at 10.000000000000002 m/s, over the cap; np.hypot at 10.0.
CAP_EXAMPLE = _doc([{"t": 0.0, "x": 0.0, "y": 0.0},
                    {"t": 1.0, "x": 5.203634245536181, "y": 8.539449082855587}])
# The finite difference at state 1 is zero, so the deviation is |v|: 0.10000000000000002
# m/s by math.hypot (a warning), 0.1 by np.hypot (none).
WARNING_EXAMPLE = _doc([{"t": 0.0, "x": 0.0, "y": 0.0, "vx": 0.0, "vy": 0.0},
                        {"t": 1.0, "x": 5.0, "y": 0.0,
                         "vx": 0.015689897145633038, "vy": 0.09876146580301175},
                        {"t": 2.0, "x": 0.0, "y": 0.0, "vx": 0.0, "vy": 0.0}])
# Speeds from 1e6 m/s up print in exponent form, not as 309 digits.
HUGE_SPEED_EXAMPLE = _doc([{"t": 0.0, "x": 0.0, "y": 0.0}, {"t": 1.0, "x": 2.5e6, "y": 0.0},
                           {"t": 2.0, "x": 1e308, "y": 0.0}])
# np.arctan2(0.34, -0.6) differs from math.atan2 in the last place.
HEADING_EXAMPLE = _doc([{"t": 0.0, "x": 0.0, "y": 0.0, "vx": -0.6, "vy": 0.34},
                        {"t": 1.0, "x": -0.6, "y": 0.34, "vx": -0.6, "vy": 0.34}])
# The second velocity is 1e-09 m/s by math.hypot (stationary: the heading stays
# pi/2) and 1.0000000000000003e-09 by np.hypot (moving).
STATIONARY_EXAMPLE = _doc([{"t": 0.0, "x": 0.0, "y": 0.0, "vx": 0.0, "vy": 1.0},
                           {"t": 1.0, "x": 0.0, "y": 1.0,
                            "vx": 3.4576417511786237e-10, "vy": 9.383214455638667e-10}])


@settings(max_examples=300, deadline=None)
@given(episodes(), st.booleans())
@example(CAP_EXAMPLE, False)
@example(WARNING_EXAMPLE, False)
@example(HEADING_EXAMPLE, False)
@example(STATIONARY_EXAMPLE, False)
@example(HUGE_SPEED_EXAMPLE, False)
def test_columns_match_per_sample_oracles(doc, raw_headings):
    episode = _build_episode(doc, _Issues())
    assert episode is not None
    with np.errstate(all="ignore"):
        for i, (raw, agent) in enumerate(zip(doc["agents"], episode.agents)):
            states = raw["states"]
            n = len(states)
            if n >= 2:
                assert _bits(agent.velocities) == _bits(velocities_oracle(agent))
                synthesized = synthesize_headings_oracle(agent)
                assert _bits(motion_headings(agent)) == _bits(synthesized)
            # Decoding: a given theta wrapped, a missing one synthesized when
            # the timestamps increase, else 0.
            times = [s["t"] for s in states]
            synthesize = n >= 2 and all(a < b for a, b in zip(times, times[1:]))
            want = [wrap_angle(s["theta"]) if "theta" in s
                    else synthesized[j] if synthesize else 0.0
                    for j, s in enumerate(states)]
            assert _bits(agent.heading) == _bits(want)
            if raw_headings:  # unwrapped headings, to reach the range check
                agent = replace(agent, heading=[s.get("theta", 0.0) for s in states])
            base = f"/agents/{i}"
            assert (_sample_issues(base, agent)
                    == sample_issues_oracle(base, agent, V_CAP))
        warnings = [(w.path, w.message) for w in _velocity_consistency_warnings(episode)]
        assert warnings == velocity_warnings_oracle(episode)


def test_examples_reach_the_rules_they_pin():
    """The examples above sit on the decisions they pin (by math.hypot)."""
    cap = _build_episode(CAP_EXAMPLE, _Issues())
    assert [m for _, m in _sample_issues("/a", cap.agents[0])] == [
        "implied speed 10.00 m/s exceeds cap 10.0 m/s"]
    warned = _build_episode(WARNING_EXAMPLE, _Issues())
    assert [w.path for w in _velocity_consistency_warnings(warned)] == ["/agents/0/states/1/vx"]
    still = _build_episode(STATIONARY_EXAMPLE, _Issues())
    assert motion_headings(still.agents[0]).tolist() == [math.pi / 2, math.pi / 2]
    huge = _build_episode(HUGE_SPEED_EXAMPLE, _Issues())
    assert [m for _, m in _sample_issues("/a", huge.agents[0])] == [
        "implied speed 2.500e+06 m/s exceeds cap 10.0 m/s",
        "implied speed 1.000e+308 m/s exceeds cap 10.0 m/s"]
