"""Closed-form pinhole projection under one-axis camera motion.

Conventions
-----------
Camera coordinates: x right, y down, z forward; a point is visible only
while its depth (z in the moved camera frame) is positive.  The camera
motion is a single scalar ``alpha``: a translation of the camera by
``alpha`` meters along one axis, or a rotation by ``alpha`` radians about
one axis.  With rotation matrix R(alpha) and translation t(alpha), a world
point P maps to the pixel position

    [u, v, 1]^T = (1 / depth) * K_intr * R^{-1} (P - t)
    depth       = third component of R^{-1} (P - t)

``u`` runs along image columns, ``v`` along rows; the rasterizer puts a
continuous position into the cell ``(row, col) = (floor(v), floor(u))``.

In the camera frame, every axis either subtracts ``alpha`` from one
coordinate (the translations) or turns one coordinate plane by ``alpha``
(the rotations).  One table, ``_MOTION``, states which for each axis, and
every rate reads it: the projection, its exact derivative, the minimum
depth, the one-frame slack and each coordinate's speed (largest |rate|)
and sign over a symmetric motion range ``[-b, +b]``; a point's larger
speed is its Lipschitz constant.  Speeds are taken analytically (the range
ends, plus the interior peaks of RZ's sinusoids), never by grid sampling,
so they are sound upper bounds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, NonPositiveDepth, ShapeMismatch, check_count,
                     check_integer, check_real)


# Depths at or below this are treated as "on or behind the image plane";
# real scene depths are many orders of magnitude larger.
DEPTH_EPS = 1e-12


class Axis(enum.Enum):
    """One-axis camera motions: translations in meters, rotations in radians."""

    TX = "tx"
    TY = "ty"
    TZ = "tz"
    RX = "rx"
    RY = "ry"
    RZ = "rz"

    @property
    def is_rotation(self) -> bool:
        return self in (Axis.RX, Axis.RY, Axis.RZ)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus the pixel grid they rasterize onto."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        size = (self.width, self.height)
        for side in size:
            check_integer(side, lambda s: True, f"grid size must be integers, got {size}")
        if self.width < 1 or self.height < 1:
            raise ConfigError("grid size must be positive")
        # so one pose's z-buffer and image arrays stay within tens of MiB
        if int(self.width) * int(self.height) > 1 << 20:  # no int64 wrap-around
            raise ConfigError(f"grid of {self.width} x {self.height} pixels exceeds "
                              "2^20 = 1,048,576 pixels")
        for f in (self.fx, self.fy):
            check_real(f, lambda v: 0 < v < math.inf,
                       "focal lengths must be positive and finite")
        for c, side in ((self.cx, self.width), (self.cy, self.height)):
            check_real(c, lambda v: 0 <= v < side, "principal point must lie inside the grid")


@dataclass(frozen=True)
class MotionSpec:
    """A motion axis together with its symmetric radius b, so S = [-b, +b]."""

    axis: Axis
    radius_b: float

    def __post_init__(self):
        check_real(self.radius_b, lambda b: 0 < b < math.inf,
                   "motion radius must be positive and finite")
        check_real(self.radius_b, lambda b: 2 * b < math.inf,  # linspace(-b, b) spans 2b
                   f"motion radius {self.radius_b} has no finite range width 2b")

    def uniform_poses(self, count, what: str, least: int = 1) -> np.ndarray:
        """``np.linspace(-b, b, count)``, every uniform pose list's one rule,
        once ``check_count`` admits ``count``; ``what`` names it in the error."""
        check_count(count, least, what)
        return np.linspace(-self.radius_b, self.radius_b, count)


@dataclass(frozen=True)
class MotionValue:
    """A concrete pose inside a motion range."""

    spec: MotionSpec
    value: float

    def __post_init__(self):
        b = self.spec.radius_b
        check_real(self.value, lambda v: abs(v) <= b,
                   f"motion value {self.value} outside [-{b}, {b}]")


# Each axis's camera-frame motion.  An int names the coordinate that loses
# alpha; a pair (p, q) names the plane that turns to (p cos + q sin,
# q cos - p sin).  Coordinate 2 is always the depth.
_MOTION = {Axis.TX: 0, Axis.TY: 1, Axis.TZ: 2,
           Axis.RZ: (0, 1), Axis.RX: (1, 2), Axis.RY: (2, 0)}


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ShapeMismatch(f"points must have shape (N, 3), got {pts.shape}")
    return pts


def _moved(pts, axis: Axis, a):
    """``[x, y, depth]`` of the (N, 3) points in the camera frame at pose
    ``a``; a coordinate the motion leaves alone is the points' own column,
    not broadcast against ``a``."""
    c = [pts[:, 0], pts[:, 1], pts[:, 2]]
    move = _MOTION[axis]
    if isinstance(move, int):
        c[move] = c[move] - a
    else:
        p, q = move
        cos, sin = np.cos(a), np.sin(a)
        c[p], c[q] = c[p] * cos + c[q] * sin, c[q] * cos - c[p] * sin
    return c


def project_points(points, axis: Axis, value, cam: CameraModel):
    """Project an (N, 3) array of points.

    ``value`` is the motion scalar: a single pose for all points, an (N,)
    array giving each point its own pose, or a (T, 1) column of T poses
    that broadcasts against the points.  Returns ``(uv, depth)`` with
    ``depth`` of the broadcast shape ((N,) or (T, N)) and ``uv`` of that
    shape plus a trailing axis of 2 for (u, v).  Entries with non-positive
    depth carry the raw depth value so callers can mask them; uv entries
    for such points are not meaningful.
    """
    pts = _as_points(points)
    a = np.asarray(value, dtype=np.float64)
    x, y, depth = _moved(pts, axis, a)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # off the grid
        uv = np.stack(np.broadcast_arrays(cam.fx * x / depth + cam.cx,
                                          cam.fy * y / depth + cam.cy), axis=-1)
    if np.may_share_memory(depth, pts):  # the points' own z: a fresh array
        depth = depth + np.zeros_like(a)
    return uv, depth


def projection_derivative_points(points, axis: Axis, value, cam: CameraModel):
    """Exact d(u, v)/d(alpha) for an (N, 3) array of points.

    ``value`` is a single pose, an (N,) array or a (T, 1) column, and the
    result has the shape of ``project_points``'s ``uv``.
    """
    pts = _as_points(points)
    a = np.asarray(value, dtype=np.float64)
    c = _moved(pts, axis, a)
    move, dc = _MOTION[axis], [0.0, 0.0, 0.0]  # d/d(alpha) of each coordinate
    if isinstance(move, int):
        dc[move] = -1.0
    else:
        p, q = move
        dc[p], dc[q] = c[q], -c[p]
    x, y, depth = c
    du = cam.fx * (dc[0] * depth - x * dc[2]) / depth**2
    dv = cam.fy * (dc[1] * depth - y * dc[2]) / depth**2
    return np.stack(np.broadcast_arrays(du, dv, a)[:2], axis=-1)


def _sinusoid_range(a_cos, b_sin, half: float):
    """(min, max) over theta in [-half, half] of a_cos*cos(theta) + b_sin*sin(theta),
    which is amp*cos(theta - phi) with amp = hypot(a, b), phi = atan2(b, a): the
    max is amp when some phi + 2k*pi lies in the window, the min is -amp when some
    phi + pi + 2k*pi does, and otherwise each is the matching window end."""
    a_cos = np.asarray(a_cos, dtype=np.float64)
    b_sin = np.asarray(b_sin, dtype=np.float64)
    amp = np.hypot(a_cos, b_sin)
    phi = np.arctan2(b_sin, a_cos)

    def inside(theta):  # the nearest theta + 2k*pi lies in the window
        return np.abs(theta - 2.0 * np.pi * np.round(theta / (2.0 * np.pi))) <= half

    cb, sb = math.cos(half), math.sin(half)
    ends = (a_cos * cb + b_sin * sb, a_cos * cb - b_sin * sb)
    return (np.where(inside(phi + np.pi), -amp, np.minimum(*ends)),
            np.where(inside(phi), amp, np.maximum(*ends)))


def min_depth_over_range(points, spec: MotionSpec, cam: CameraModel):
    """Per-point minimum depth over the whole motion range [-b, +b]."""
    pts = _as_points(points)
    move = _MOTION[spec.axis]
    if isinstance(move, int) or 2 not in move:  # z - alpha or z: least at +b
        return np.array(_moved(pts, spec.axis, spec.radius_b)[2])
    p, q = move  # the depth is z cos + w sin: w = q when p is the depth, else -p
    return _sinusoid_range(pts[:, 2], pts[:, q] if p == 2 else -pts[:, p],
                           spec.radius_b)[0]


def _in_front(points, spec: MotionSpec, cam: CameraModel, message: str):
    """The (N, 3) points, or NonPositiveDepth(message) if a depth reaches zero."""
    pts = _as_points(points)
    if np.any(min_depth_over_range(pts, spec, cam) <= DEPTH_EPS):
        raise NonPositiveDepth(message)
    return pts


def coordinate_rates(points, spec: MotionSpec, cam: CameraModel):
    """``(speed, sign)``, each (N, 2) over u and v, of points that stay in
    front of the camera over [-b, +b]: ``speed`` is a coordinate's largest
    |d/dalpha| there, ``sign`` +1 or -1 where its rate keeps that sign
    throughout and 0 otherwise.

    Off RZ both come from the rates at -b and +b.  TX and TY rates are
    constant; TZ's, f x / depth^2 and f y / depth^2, grow toward +b.  On RX
    and RY, with theta the pose shifted by the point's angle in the turning
    plane and rho its radius there, the turning coordinate's rate is
    +-f / cos^2(theta), of one sign, and the fixed coordinate r's is
    f r sin(theta) / (rho cos^2(theta)), monotone in theta; both magnitudes
    grow away from theta = 0, and a positive depth keeps theta inside
    (-pi/2, pi/2).  RZ keeps the depth z, and each rate is a sinusoid whose
    peak may lie inside the range (``_sinusoid_range``); its zeros lie pi
    apart, so one sign at both ends holds throughout only when 2b < pi.
    """
    pts = _as_points(points)
    b = spec.radius_b
    ends = projection_derivative_points(pts, spec.axis, np.array([[-b], [b]]), cam)
    sign = np.all(ends > 0, axis=0) * 1 - np.all(ends < 0, axis=0)
    # elementwise over the two range ends: exact, and cheaper than a reduction
    speed = np.maximum(np.abs(ends[0]), np.abs(ends[1]))
    if spec.axis is Axis.RZ:
        x, y, z = pts.T
        m_u, m_v = (np.max(np.abs(_sinusoid_range(*w, b)), axis=0) for w in ((y, -x), (x, y)))
        speed = np.stack([cam.fx * m_u, cam.fy * m_v], axis=-1) / z[:, None]
        sign *= 2 * b < math.pi
    return speed, sign


def lipschitz_constants(points, spec: MotionSpec, cam: CameraModel):
    """Per-point Lipschitz constants of the pixel position over [-b, +b]: the
    largest ``max(|du/dalpha|, |dv/dalpha|)``, a point's larger speed."""
    pts = _in_front(points, spec, cam, "point depth reaches zero inside the motion "
                    "range; the sample is not certifiable at this radius")
    return np.maximum(*coordinate_rates(pts, spec, cam)[0].T)  # elementwise: no reduction


def delta_constant(spec: MotionSpec, cam: CameraModel, one_frame_points, delta_px: float) -> float:
    """Slack added to the one-frame Lipschitz bound by delta-convexity.

    A point absent from the one-frame cloud projects within ``delta_px``
    pixels of some one-frame point and sits behind it; its Lipschitz
    constant then exceeds the one-frame maximum by at most this constant.
    Translations along x/y contribute nothing; the other axes maximize a
    closed-form expression over the one-frame points and the range
    endpoints.
    """
    check_real(delta_px, lambda d: 0 < d < math.inf,
               "convexity delta must be positive and finite (pixels)")
    pts = _in_front(one_frame_points, spec, cam,
                    "one-frame point behind the camera inside the range")
    b, axis = spec.radius_b, spec.axis
    if axis in (Axis.TX, Axis.TY):
        return 0.0
    if axis is Axis.TZ:
        return float(delta_px * np.max(1.0 / (pts[:, 2] - b)))
    if axis is Axis.RZ:
        return float(max(cam.fx / cam.fy, cam.fy / cam.fx) * delta_px)
    # RX / RY: the plane (p, q) turns the depth and image coordinate t; r is
    # fixed.  RY is RX with fixed coordinate y, turning coordinate -x and fx, fy
    # swapped; its curvature term takes min(fx, fy), conservative over both
    (p, q), f, best = _MOTION[axis], (cam.fx, cam.fy), 0.0
    r, t = 3 - p - q, p + q - 2
    curve = cam.fy if axis is Axis.RX else min(cam.fx, cam.fy)
    for theta in (-b, b):
        moved = _moved(pts, axis, theta)
        num = np.abs(moved[t])
        t1 = (delta_px / f[t]) * (f[r] * np.abs(pts[:, r]) + f[t] * num) / moved[2]
        t2 = 2.0 * delta_px * num / moved[2]
        best = max(best, float(np.max(np.maximum(t1, t2))))
    return delta_px * delta_px / curve + best  # inf, not OverflowError, past 1e154
