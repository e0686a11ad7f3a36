"""Z-buffered point-splat rasterization of colored point clouds.

A cloud point lands in the pixel cell ``(row, col) = (floor(v), floor(u))``
of its continuous projection; among all points mapping to the same cell
with positive depth, the nearest one paints the cell.  Exact depth ties
break toward the smallest point index so rendering is fully deterministic.
Cells no point reaches take a configurable background color (default
mid-gray), keeping every image inside [0, 1].

Points are pure one-pixel splats: no footprint, no interpolation, no
anti-aliasing.  File formats: ``PWSI1`` for images (binary) and ``PWSPC1``
for point clouds (ASCII), documented in ``save_image`` / ``save_cloud``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError, ShapeMismatch
from .geometry import (
    Axis,
    CameraModel,
    DEPTH_EPS,
    MotionSpec,
    MotionValue,
    project_points,
)

DEFAULT_BACKGROUND = 0.5


@dataclass
class ColoredPointCloud:
    """3D points with per-point K-channel colors in [0, 1]."""

    points: np.ndarray  # (N, 3) float64
    colors: np.ndarray  # (N, K) float64

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        self.colors = np.ascontiguousarray(self.colors, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ShapeMismatch("points must have shape (N, 3)")
        if self.colors.ndim != 2 or len(self.colors) != len(self.points):
            raise ShapeMismatch("colors must have shape (N, K) matching points")
        if self.colors.shape[1] < 1:
            raise ShapeMismatch("clouds need at least one color channel")
        if len(self.points) == 0:
            raise ShapeMismatch("clouds must be nonempty")
        if np.any(self.colors < 0) or np.any(self.colors > 1):
            raise ValueError("color entries must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def channels(self) -> int:
        return int(self.colors.shape[1])

    def subset(self, indices) -> "ColoredPointCloud":
        return ColoredPointCloud(self.points[indices], self.colors[indices])


def zbuffer_winners(
    cloud: ColoredPointCloud, axis: Axis, value: float, cam: CameraModel
) -> np.ndarray:
    """Flat (H*W,) array of winning point indices per pixel, -1 where empty."""
    uv, depth = project_points(cloud.points, axis, value, cam)
    visible = depth > DEPTH_EPS
    cols = np.floor(uv[:, 0]).astype(np.int64)
    rows = np.floor(uv[:, 1]).astype(np.int64)
    ok = (
        visible
        & (cols >= 0)
        & (cols < cam.width)
        & (rows >= 0)
        & (rows < cam.height)
    )
    winners = np.full(cam.height * cam.width, -1, dtype=np.int64)
    if not np.any(ok):
        return winners
    idx = np.nonzero(ok)[0]
    flat = rows[idx] * cam.width + cols[idx]
    # sort by (pixel, depth, index); lexsort keys go least significant first
    order = np.lexsort((idx, depth[idx], flat))
    flat_sorted = flat[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = flat_sorted[1:] != flat_sorted[:-1]
    winners[flat_sorted[first]] = idx[order][first]
    return winners


def render(
    cloud: ColoredPointCloud,
    motion: MotionValue,
    cam: CameraModel,
    background=DEFAULT_BACKGROUND,
) -> np.ndarray:
    """Render the cloud at one pose into a (K, H, W) float image in [0, 1]."""
    winners = zbuffer_winners(cloud, motion.spec.axis, motion.value, cam)
    return _paint(cloud, winners, cam, background)


def _paint(cloud, winners, cam, background) -> np.ndarray:
    k = cloud.channels
    bg = np.broadcast_to(np.asarray(background, dtype=np.float64).reshape(-1), (k,))
    image = np.empty((k, cam.height * cam.width), dtype=np.float64)
    image[:] = bg[:, None]
    covered = winners >= 0
    image[:, covered] = cloud.colors[winners[covered]].T
    return image.reshape(k, cam.height, cam.width)


def render_sweep(
    cloud: ColoredPointCloud,
    spec: MotionSpec,
    cam: CameraModel,
    values,
    background=DEFAULT_BACKGROUND,
):
    """Render one image per motion value; values must lie inside [-b, +b]."""
    out = []
    for value in values:
        out.append(render(cloud, MotionValue(spec, float(value)), cam, background))
    return out


def adjacent_frame_error(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(1/2 * sum of squared per-pixel differences) between two frames."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"frame shapes differ: {a.shape} vs {b.shape}")
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.sqrt(0.5 * np.sum(diff * diff)))


# ---------------------------------------------------------------------------
# File formats


def save_image(path, image: np.ndarray) -> None:
    """Write a (K, H, W) image as PWSI1.

    Layout: the ASCII magic ``PWSI1``, three little-endian uint32 fields
    K, H, W, then K*H*W little-endian float32 values in (channel, row,
    column) order.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise ShapeMismatch("images must have shape (K, H, W)")
    k, h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(b"PWSI1")
        fh.write(struct.pack("<III", k, h, w))
        fh.write(image.astype("<f4").tobytes(order="C"))


def load_image(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic != b"PWSI1":
            raise FileFormatError(f"not a PWSI1 file: magic {magic!r}")
        header = fh.read(12)
        if len(header) != 12:
            raise FileFormatError(f"truncated PWSI1 header: {len(header)} of 12 bytes")
        k, h, w = struct.unpack("<III", header)
        size = 4 * k * h * w
        body = fh.read(size)
    if len(body) != size:
        raise FileFormatError(f"truncated PWSI1 body: {len(body)} of {size} bytes")
    return np.frombuffer(body, dtype="<f4").reshape(k, h, w).astype(np.float64)


def save_cloud(path, cloud: ColoredPointCloud) -> None:
    """Write a cloud as PWSPC1: header ``PWSPC1 <count> <K>`` then one
    ``x y z c1 .. cK`` line per point."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"PWSPC1 {len(cloud)} {cloud.channels}\n")
        rows = np.hstack([cloud.points, cloud.colors])
        for row in rows:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def load_cloud(path) -> ColoredPointCloud:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "PWSPC1":
            raise ValueError("not a PWSPC1 file")
        count, k = int(header[1]), int(header[2])
        data = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    if data.shape != (count, 3 + k):
        raise ValueError(
            f"PWSPC1 body has shape {data.shape}, expected ({count}, {3 + k})"
        )
    return ColoredPointCloud(data[:, :3], data[:, 3:])
