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


def sightlines_blocked(p1, p2, seg_a, seg_b) -> np.ndarray:
    """For each k, True if the sightline p1[k] -> p2[k] crosses any segment.

    p1, p2: (K, 2); seg_a, seg_b: (M, 2). Returns (K,) bool. Touching counts
    as crossing. A sightline parallel to a segment (|r x s| < eps) crosses it
    only if collinear within eps and overlapping; a zero-length one only if
    it lies within eps of the segment's start.
    """
    eps = 1e-12
    p1 = np.asarray(p1, dtype=float)[:, None, :]
    seg_a = np.asarray(seg_a, dtype=float).reshape(-1, 2)
    r = np.asarray(p2, dtype=float)[:, None, :] - p1   # (K, 1, 2)
    s = np.asarray(seg_b, dtype=float).reshape(-1, 2) - seg_a
    qp = seg_a - p1                                    # (K, M, 2)
    rx, ry, sx, sy, qx, qy = r[..., 0], r[..., 1], s[:, 0], s[:, 1], qp[..., 0], qp[..., 1]
    # np.where keeps one branch per pair; the other may divide by zero.
    with np.errstate(all="ignore"):
        denom = rx * sy - ry * sx
        qp_x_r = qx * ry - qy * rx
        t = (qx * sy - qy * sx) / denom
        u = qp_x_r / denom
        rr = rx * rx + ry * ry
        t0 = (qx * rx + qy * ry) / rr
        t1 = t0 + (sx * rx + sy * ry) / rr
        overlap = np.where(rr < eps, np.sqrt(qx * qx + qy * qy) < eps,
                           np.maximum(np.minimum(t0, t1), 0.0)
                           <= np.minimum(np.maximum(t0, t1), 1.0))
    crossing = np.where(np.abs(denom) < eps, (np.abs(qp_x_r) <= eps) & overlap,
                        (0.0 <= t) & (t <= 1.0) & (0.0 <= u) & (u <= 1.0))
    return crossing.any(axis=1)


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
