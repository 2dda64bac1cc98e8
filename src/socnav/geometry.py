"""2D geometry primitives shared by metrics, classifiers and the simulator.

All functions are vectorized over numpy arrays; points are (..., 2) arrays.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_angle(theta):
    """Wrap angles to the half-open interval (-pi, pi].

    In-range values pass through bit-exact (a mod round trip would
    perturb their low bits). A built-in float takes a scalar path with no
    numpy call: Python's float ``%`` follows the same fmod-and-sign rule as
    ``np.mod``, so both paths give the same bits.
    """
    if type(theta) is float:
        if -math.pi < theta <= math.pi:
            return theta
        wrapped = theta % TWO_PI
        return wrapped - TWO_PI if wrapped > math.pi else wrapped
    theta = np.asarray(theta, dtype=float)
    inside = (theta > -np.pi) & (theta <= np.pi)
    wrapped = theta
    if not inside.all():
        with np.errstate(invalid="ignore"):  # inf wraps to nan, as with float %
            wrapped = np.mod(theta, TWO_PI)
        wrapped = np.where(wrapped > np.pi, wrapped - TWO_PI, wrapped)
        wrapped = np.where(inside, theta, wrapped)
    if wrapped.ndim == 0:
        return float(wrapped)
    return wrapped


def point_segment_distance(points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray) -> np.ndarray:
    """Distance from each point to each segment.

    points: (N, 2); seg_a, seg_b: (M, 2). Returns (N, M).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    seg_a = np.atleast_2d(np.asarray(seg_a, dtype=float))
    seg_b = np.atleast_2d(np.asarray(seg_b, dtype=float))

    d = seg_b - seg_a                              # (M, 2)
    len2 = np.einsum("md,md->m", d, d)             # (M,)
    len2 = np.where(len2 > 0.0, len2, 1.0)         # guard degenerate segments
    rel = points[:, None, :] - seg_a[None, :, :]   # (N, M, 2)
    t = np.einsum("nmd,md->nm", rel, d) / len2     # (N, M)
    t = np.clip(t, 0.0, 1.0)
    closest = seg_a[None, :, :] + t[:, :, None] * d[None, :, :]
    return np.linalg.norm(points[:, None, :] - closest, axis=2)


def segments_intersect(p1, p2, q1, q2, eps: float = 1e-12) -> bool:
    """True if segment [p1, p2] properly or collinearly intersects [q1, q2]."""
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


def segment_blocked(p1: np.ndarray, p2: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray) -> bool:
    """True if the sightline p1->p2 crosses any of the segments in (seg_a, seg_b)."""
    for a, b in zip(seg_a, seg_b):
        if segments_intersect(p1, p2, a, b):
            return True
    return False


def first_collision_time(dp: np.ndarray, dv: np.ndarray, radius_sum) -> np.ndarray:
    """Earliest tau >= 0 with |dp + tau*dv| = radius_sum under constant velocities.

    dp, dv: (..., 2) relative position/velocity; radius_sum broadcastable.
    Returns tau per entry, +inf where no future contact exists, 0 where
    already overlapping.
    """
    dp = np.asarray(dp, dtype=float)
    dv = np.asarray(dv, dtype=float)
    r = np.broadcast_to(np.asarray(radius_sum, dtype=float), dp.shape[:-1])

    a = np.einsum("...d,...d->...", dv, dv)
    b = 2.0 * np.einsum("...d,...d->...", dp, dv)
    c = np.einsum("...d,...d->...", dp, dp) - r * r

    tau = np.full(dp.shape[:-1], np.inf)
    overlapping = c < 0.0
    tau[overlapping] = 0.0

    disc = b * b - 4.0 * a * c
    moving = a > 0.0
    solvable = moving & (disc >= 0.0) & ~overlapping
    if np.any(solvable):
        sq = np.sqrt(disc[solvable])
        t_lo = (-b[solvable] - sq) / (2.0 * a[solvable])
        t_hi = (-b[solvable] + sq) / (2.0 * a[solvable])
        # First boundary crossing at or after now: smallest non-negative root.
        first = np.where(t_lo >= 0.0, t_lo, np.where(t_hi >= 0.0, t_hi, np.inf))
        tau[solvable] = first
    return tau
