"""``sightlines_blocked`` against a per-step loop of the scalar segment test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socnav.geometry import sightlines_blocked

from oracles import segment_blocked


def _blocked(p1, p2, seg_a, seg_b):
    """The kernel's answer, after checking it equals the oracle's step by step."""
    p1, p2, seg_a, seg_b = (np.array(v, dtype=float).reshape(-1, 2) for v in (p1, p2, seg_a, seg_b))
    got = sightlines_blocked(p1, p2, seg_a, seg_b)
    assert got.dtype == bool and got.shape == (len(p1),)
    assert got.tolist() == [segment_blocked(p, q, seg_a, seg_b) for p, q in zip(p1, p2)]
    return got.tolist()


# Half-unit grid values make parallel, collinear and touching pairs common and
# keep every product exact, so the kernel's sums and the oracle's dot products
# agree bit for bit; free floats cover the generic crossings.
_coord = st.one_of(st.integers(-6, 6).map(lambda i: i / 2),
                   st.floats(-5.0, 5.0, allow_nan=False, allow_subnormal=False))
_point = st.tuples(_coord, _coord)
_segments = st.lists(st.tuples(_point, _point), max_size=5)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_point, _point), min_size=1, max_size=6), _segments)
def test_matches_per_step_oracle(sightlines, segments):
    p1, p2 = zip(*sightlines)
    seg_a, seg_b = zip(*segments) if segments else ((), ())
    _blocked(p1, p2, seg_a, seg_b)


@pytest.mark.parametrize("p1, p2, a, b, expected", [
    # Parallel to the segment: collinear overlapping (axis-aligned, oblique,
    # segment reversed), collinear disjoint, touching at an endpoint, offset.
    ((0, 0), (4, 0), (1, 0), (2, 0), True),
    ((0, 0), (2, 2), (1, 1), (3, 3), True),
    ((0, 0), (4, 0), (3, 0), (-1, 0), True),
    ((0, 0), (1, 0), (2, 0), (3, 0), False),
    ((0, 0), (1, 0), (1, 0), (2, 0), True),
    ((0, 0), (1, 0), (2, 0), (1, 0), True),
    ((0, 0), (1, 0), (0, 1), (1, 1), False),
    # An endpoint exactly on a segment, from either side.
    ((0, 0), (1, 0), (1, -1), (1, 1), True),
    ((1, 0), (2, 0), (1, -1), (1, 1), True),
    ((0, 0), (2, 0), (1, 0), (1, 1), True),
    ((0, 0), (2, 0), (1, 1e-9), (1, 1), False),
    # A zero-length sightline: blocked only on the segment's start.
    ((1, 0), (1, 0), (1, 0), (2, 0), True),
    ((1.5, 0), (1.5, 0), (1, 0), (2, 0), False),
    ((1, 1), (1, 1), (1, 0), (2, 0), False),
])
def test_pinned_cases(p1, p2, a, b, expected):
    assert _blocked([p1], [p2], [a], [b]) == [expected]


@pytest.mark.parametrize("denom", [1e-12 * (1 - 1e-6), 1e-12, 1e-12 * (1 + 1e-6)])
def test_denominator_either_side_of_eps(denom):
    # The segment's start sits 5e-13 off the sightline's line, inside the
    # collinearity eps: the parallel branch calls it blocked, while the
    # crossing formula puts the meeting point before the segment's start.
    got = _blocked([(0, 0)], [(1, 0)], [(0.5, 5e-13)], [(1.5, 5e-13 + denom)])
    assert got == [denom < 1e-12]


def test_one_step_many_segments():
    rng = np.random.default_rng(7)
    seg_a = rng.uniform(-5, 5, (200, 2))
    seg_b = seg_a + rng.uniform(-1, 1, (200, 2))
    for p2 in [(4.0, 3.0), (0.1, 0.1), (-5.0, 5.0)]:
        _blocked([(0.0, 0.0)], [p2], seg_a, seg_b)
    assert _blocked([(-6, 0)], [(6, 0)], np.vstack([seg_a, [(0, -1)]]),
                    np.vstack([seg_b, [(0, 1)]])) == [True]


def test_no_segments_and_no_steps():
    assert _blocked([(0, 0), (1, 1)], [(1, 1), (2, 2)], [], []) == [False, False]
    assert sightlines_blocked(np.empty((0, 2)), np.empty((0, 2)),
                              [(0, 0)], [(1, 1)]).shape == (0,)
