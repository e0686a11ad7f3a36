"""Z-buffered point-splat rasterization of colored point clouds.

A cloud point lands in the pixel cell ``(row, col) = (floor(v), floor(u))``
of its continuous projection.  Among all points mapping to the same cell
with positive depth, the nearest one paints the cell; exact depth ties
break toward the smallest point index, so rendering is fully
deterministic.  Cells no point reaches take one background value in
[0, 1] on every channel (default mid-gray), so every image stays in [0, 1].

One kernel, ``_zbuffer``, applies this rule to many poses at once: it
projects the cloud at every pose in one broadcast, places each point
with ``_cells`` (off the grid in a ring of cells around it, behind the
camera in one more cell), and picks each cell's winner with two
unbuffered minimum passes, first over depths, then over the indices of
the points at the winning depth.  There is no sort and no rounding, so
the winners are those of ordering each cell's points by (depth, index).
``zbuffer_blocks`` feeds long pose sequences through the kernel in blocks
of bounded size.

A sweep (``sweep_images``, and the ownership sweep behind every spacing
bound) goes through ``zbuffer_changes``, which yields the winners of
pose 0 and of the later poses where a winner may change; every other
pose repeats the winners of the pose before it; ``sweep_images`` keeps
the distinct images of the yielded poses, each painted by one gather
from the point colors with the background as one more color.  Under TX,
TY and TZ with sorted poses those are the poses where some point changes
cell (124-234 of 2,001 on the 64 px wild-certify scenes at TZ 20 mm): a
point's cell is monotone in the pose, so splitting the pose brackets of
the points that move finds them all.  The kernel never runs: the
points keep one (depth, index) order, so at pose 0 and at each change
pose every cell's winner is picked by it from the least rank of the
points that never move, kept once per sweep, and the ranks of the movers
in it: the minimum runs over the movers only.  Under RX, RY and RZ with
sorted poses, one rule bounds how far the pose may move from each pose
z-buffered before a point can reach a cell border (only the one ahead of
a coordinate that moves one way) or pass its cell's winner, and the sweep
skips to the first pose beyond (10-20 of 2,001 on the seed-0 demo scenes
at RY 0.026 rad, where 3-6 poses change a winner; 30-66 at RZ 0.05 rad).
Unsorted pose lists z-buffer every pose, and so do lists that fit one
block of ``zbuffer_blocks``, in one kernel call.

Points are pure one-pixel splats: no footprint, no interpolation, no
anti-aliasing.  File formats: ``PWSI1`` for images (binary) and ``PWSPC1``
for point clouds (ASCII), documented in ``save_image`` / ``save_cloud``.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import EmptyFrame, FileFormatError, InvalidCloud, ShapeMismatch, check_real
from .geometry import (
    Axis,
    CameraModel,
    DEPTH_EPS,
    MotionSpec,
    MotionValue,
    _MOTION,
    coordinate_rates,
    min_depth_over_range,
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
        # NaN passes the [0, 1] test below, and a non-finite point has no pixel
        if not (np.all(np.isfinite(self.points)) and np.all(np.isfinite(self.colors))):
            raise InvalidCloud("points and colors must be finite")
        if np.any(self.colors < 0) or np.any(self.colors > 1):
            raise InvalidCloud("color entries must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def channels(self) -> int:
        return int(self.colors.shape[1])

    def subset(self, indices) -> "ColoredPointCloud":
        return ColoredPointCloud(self.points[indices], self.colors[indices])


# Upper bound on poses x max(points, pixels) in one kernel call: large
# enough to spread numpy's per-call cost over many poses, small enough that
# the block's temporaries stay far below the program's peak memory.
_BLOCK_ENTRIES = 1 << 14


def _block_size(entries: int) -> int:
    """Poses per block when each pose costs ``entries`` entries: at most
    ``_BLOCK_ENTRIES`` entries in all, at least one pose."""
    return max(1, _BLOCK_ENTRIES // entries)


def _cells(uv, depth, cam: CameraModel) -> np.ndarray:
    """(T, N) cell of each point on the grid padded by one ring of cells:
    ``(row + 1) * (W + 2) + col + 1``, where col = floor(u) and row =
    floor(v), each clamped to one step beyond the grid (NaN to -1), or
    ``(H + 2) * (W + 2)``, one more cell, for a point behind the camera."""
    col = np.fmin(np.fmax(np.floor(uv[..., 0]), -1), cam.width) + 1
    row = np.fmin(np.fmax(np.floor(uv[..., 1]), -1), cam.height) + 1
    ring = cam.width + 2
    cell = np.where(depth > DEPTH_EPS, row * ring + col, (cam.height + 2) * ring)
    return cell.astype(np.int64)


@functools.lru_cache(maxsize=16)
def _grid(height: int, width: int):
    """The number of ``_cells`` cells of an H x W camera, and the cell of
    each of its H*W pixels in row-major order, read-only."""
    padded = (height + 2) * (width + 2)
    pixels = np.arange(padded).reshape(height + 2, -1)[1:-1, 1:-1].ravel()
    pixels.setflags(write=False)
    return padded + 1, pixels


def _zbuffer(cloud: ColoredPointCloud, axis: Axis, values, cam: CameraModel):
    """The z-buffer kernel with the projection it rests on: ``(uv, depth,
    cell, winners)`` for the T poses in ``values``, where ``cell`` (T, N) is
    each point's ``_cells`` cell and ``winners`` (T, H*W) each pixel's
    winning point index, -1 where empty."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    poses, n = len(values), len(cloud)
    size, pixels = _grid(cam.height, cam.width)
    uv, depth = project_points(cloud.points, axis, values, cam)
    cell = _cells(uv, depth, cam)
    # pose t owns slots t*size .. t*size + size - 1
    slot = (cell + np.arange(poses)[:, None] * size).ravel()
    flat = depth.ravel()
    nearest = np.full(poses * size, np.inf)
    np.minimum.at(nearest, slot, flat)
    front = np.flatnonzero(flat == nearest[slot])
    winners = np.full(poses * size, n, dtype=np.int64)
    np.minimum.at(winners, slot[front], front % n)
    winners = winners.reshape(poses, size)[:, pixels]
    winners[winners == n] = -1
    return uv, depth, cell, winners


def zbuffer_blocks(cloud: ColoredPointCloud, axis: Axis, values, cam: CameraModel):
    """Yield the (T, H*W) winners of consecutive blocks of ``values``, each
    of at most ``_BLOCK_ENTRIES`` poses x max(points, pixels) entries (at
    least one pose): each pixel's winning point index, -1 where empty."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    size = _block_size(max(len(cloud), cam.height * cam.width))
    for start in range(0, len(values), size):
        yield _zbuffer(cloud, axis, values[start : start + size], cam)[3]


def _traced_changes(cloud: ColoredPointCloud, axis: Axis, values, cam: CameraModel):
    """``zbuffer_changes`` for a sorted TX, TY or TZ sweep, or None where
    the rule does not apply and every pose is z-buffered: under TZ, two
    distinct z closer than the rounding of z - a.

    Depth, u and v are each a chain of correctly rounded operations
    monotone in the pose, so each term of a point's ``_cells`` cell (behind
    the camera or not, its clamped row and column) is a monotone step
    function of it: a point in one cell at two poses stays in it at every
    pose between.  TX and TY depths are the points' z; the TZ depth
    fl(z - a) keeps the order of two distinct z further apart than
    2^-52 max|z - a|.  So ordering the points by (z, index) gives the
    kernel's (depth, index) order at every pose, and each cell's winner is
    its point of least rank in that order.

    Only the movers, whose cell differs between the first and the last
    pose, change cell.  Each round cuts every mover's bracket of poses, at
    first (0, T - 1), into isqrt(T - 1) + 1 steps, in batches of at most
    ``_BLOCK_ENTRIES`` entries, and keeps the steps whose ends differ in
    cell until each is one pose wide.  At TZ 20 mm, 154-321 of the 5,832
    points of a wild-certify scene move.

    The points that never move keep one least rank per cell.  Then, at
    pose 0 and in order at each change pose, once that pose's changed
    points move to their new cells, each cell's winner is the lesser of
    that rank and the least rank of the movers in it, picked with one
    unbuffered minimum over the movers.  No pose is z-buffered.
    """
    points = cloud.points
    n, (size, pixels) = len(points), _grid(cam.height, cam.width)
    order = np.lexsort((np.arange(n), points[:, 2]))
    if axis is Axis.TZ:
        z = points[order, 2]
        gaps = z[1:] - z[:-1]  # 0 between equal z
        # 2^-51: one more bit covers the rounding of the gaps and the bound
        reach = 2.0**-51 * (np.max(np.abs(points[:, 2])) + np.max(np.abs(values)))
        if np.any((gaps > 0) & (gaps <= reach)):
            return None
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)  # each point's rank in that order
    owner = np.concatenate([order, [-1]])  # the point of each rank; rank n: none
    last, steps = len(values) - 1, math.isqrt(len(values) - 1) + 1
    take = _block_size(steps + 1)  # brackets per batch

    def place(idx, poses):  # each point's cell at its own pose
        return _cells(*project_points(points[idx], axis, values[poses], cam), cam)

    def trace(movers, to):  # (pose, point, cell) of every change of the movers
        batches, found = [], []

        def push(idx, lo, hi, to):  # point idx changes cell in (lo, hi], to `to`
            one = hi - lo == 1  # one pose wide: the change is at hi
            found.append((hi[one], idx[one], to[one]))
            wide = ~one
            idx, lo, hi = idx[wide], lo[wide], hi[wide]
            batches.extend((idx[at : at + take], lo[at : at + take], hi[at : at + take])
                           for at in range(0, len(idx), take))
        push(movers, np.zeros_like(movers), np.full_like(movers, last), to)
        while batches:
            idx, lo, hi = batches.pop()
            cut = lo[:, None] + (hi - lo)[:, None] * np.arange(steps + 1) // steps
            ends = place(np.repeat(idx, steps + 1), cut.ravel()).reshape(cut.shape)
            b, j = np.nonzero(ends[:, 1:] != ends[:, :-1])
            push(idx[b], cut[b, j], cut[b, j + 1], ends[b, j + 1])
        return (np.concatenate(part) for part in zip(*found))

    def sweep():
        cell, end = (place(slice(None), at) for at in (0, last))
        moving = cell != end
        movers = np.flatnonzero(moving)
        pose, moved, to = trace(movers, end[movers])
        fixed = np.full(size, n)  # each cell's least rank of the points that never move
        np.minimum.at(fixed, cell[~moving], rank[~moving])
        track, moving_rank = cell[movers], rank[movers]  # the movers' cells and ranks
        by_pose = np.argsort(pose)
        slot = np.searchsorted(movers, moved[by_pose])  # each change's place in movers
        to, (poses, starts) = to[by_pose], np.unique(pose[by_pose], return_index=True)
        starts = [0, *starts.tolist()]  # pose 0 first, with no change
        for at, a, b in zip([0, *poses.tolist()], starts, [*starts[1:], len(to)]):
            track[slot[a:b]] = to[a:b]  # each mover's cell at pose at
            least = fixed.copy()
            np.minimum.at(least, track, moving_rank)
            yield at, owner[least[pixels]]

    return sweep()


# Rounding pad of the horizon rule, relative to the magnitudes involved:
# 2^9 units of rounding (2^-53).  With A = |x| + |y| + |z|, D the depth, f
# the focal length and c the principal point, project_points computes a
# rotation's depth to within 8 units of A, and its u (likewise v) to
# within 16 units of A (f + |u - c|) / D + |u| + c: one cos and one sin,
# which numpy keeps within a few ulp, then at most six correctly rounded
# operations (a turned coordinate p cos + q sin, then f x / D + c).  The
# pads below take 2^9 units of magnitudes that bound these errors at both
# poses compared and the rounding of the horizon arithmetic, several times
# over.
_PAD = 2.0**-44


def _horizon_changes(cloud: ColoredPointCloud, axis: Axis, values, cam: CameraModel):
    """``zbuffer_changes`` for a sorted rotation sweep, or None where the
    rule does not apply and every pose is z-buffered: some depth comes
    within DEPTH_EPS plus the pad of zero on [-b, b], b = max(|values[0]|,
    |values[-1]|).

    One rule serves RX, RY and RZ.  Each coordinate u, v of each point
    moves at most at its speed, its largest |rate| on [-b, b], and a
    coordinate whose rate keeps one sign there is monotone (both from
    ``coordinate_rates``).  Such a coordinate moves only toward the border
    ahead of it, and can reach the border behind it only from within the
    pad, which covers rounding; any other coordinate moves both ways.

    The last pose k z-buffered sets a horizon H, the smallest of
    * each coordinate's distance to the borders it can reach, less the
      pad, over its speed, where a border is an integer at which its
      ``_cells`` column or row changes: H <= 0 while a coordinate lies
      within the pad of either border; a speed of 0 means a coordinate
      that never moves;
    * for each point in a cell another point wins, its depth gap to the
      winner, less the pad, over the rate at which the two depths drift
      apart; a rate of 0 means bit-identical depths, whose order never
      changes.
    No point changes cell and no winner loses its place while the pose
    moves less than H, so every pose j with values[j] - values[k] < H
    repeats pose k's winners, and the next pose z-buffered is the first
    beyond.  Right after a crossing, a point sits just past the border it
    left, which bounds it no more.  Where H keeps falling short of the
    next pose, the poses ahead are z-buffered in blocks that double up to
    ``zbuffer_blocks``' size, so dense sweeps cost little more than
    z-buffering every pose.  On the seed-0 demo scenes that z-buffers
    10-20 of 2,001 poses under RY and 22-56 under RX at 0.026 rad, and
    30-66 under RZ at 0.05 rad.
    """
    b = max(abs(values[0]), abs(values[-1]))
    if not 0 < b < math.inf:
        return None
    spec = MotionSpec(axis, b)
    points = cloud.points
    extent = np.sum(np.abs(points), axis=1)
    floor = min_depth_over_range(points, spec, cam)
    if np.any(floor <= DEPTH_EPS + _PAD * extent):
        return None
    # (2, N) rows of u and v from here on; a rate may overflow, quietly
    with np.errstate(over="ignore", invalid="ignore"):
        speed, sign = (rates.T for rates in coordinate_rates(points, spec, cam))
        # a NaN speed, from a rate that overflowed, gives a NaN reach
        slowness = np.divide(1.0, speed, out=np.ones_like(speed), where=speed != 0)
    still = np.where(speed == 0, np.inf, 0.0)  # no border bounds a still coordinate
    # inf on the border a coordinate moves away from: below a rising one,
    # above a falling one, and both of a still one
    behind_below, behind_above = (np.where(sign == way, np.inf, 0.0) + still for way in (1, -1))
    edge = np.array([[cam.width], [cam.height]], dtype=np.float64)
    pad_px = _PAD * (1 + extent / floor)
    span_px = max(cam.fx, cam.fy) + cam.width + cam.height
    # the depth turns in the plane (p, q) of _MOTION or stays at z, so two
    # points' depths drift apart at most at hypot(dp, dq), or never
    pair = sorted(_MOTION[axis]) if 2 in _MOTION[axis] else None
    index, (size, pixels) = np.arange(len(points)), _grid(cam.height, cam.width)
    most = _block_size(max(len(points), cam.height * cam.width))

    def horizon(uv, depth, cell, winners):
        coord = uv.T
        # the borders below and above each coordinate: floor(coord)
        # clamped to [-1, size] changes at each integer of [0, size], so
        # off the grid both are the grid's edge
        low = np.floor(coord)
        below = np.abs(coord - np.minimum(np.maximum(low, 0.0), edge))
        above = np.abs(np.minimum(np.maximum(low + 1, 0.0), edge) - coord)
        pad = pad_px * (span_px + np.abs(coord[0]) + np.abs(coord[1]))
        near = np.minimum(below, above) + still
        front = np.minimum(below + behind_below, above + behind_above)
        # NaN, from a coordinate that overflowed, fails near > pad and stays
        reach = ((np.where(near > pad, front, near) - pad) * slowness).min()
        if pair is not None:
            owner = np.full(size, -1)  # the ring and behind the camera: none
            owner[pixels] = winners
            owner = owner[cell]
            rival = np.flatnonzero((owner >= 0) & (owner != index))
            won = owner[rival]
            gap = depth[rival] - depth[won] - _PAD * (extent[rival] + extent[won])
            drift = np.hypot(*(points[rival][:, pair] - points[won][:, pair]).T)
            reach = np.minimum(reach, np.divide(
                gap, drift, out=np.full(len(rival), np.inf), where=drift > 0
            ).min(initial=np.inf))
        return reach

    def sweep():
        k, ahead = 0, 1
        while k < len(values):
            uv, depth, cell, winners = _zbuffer(cloud, axis, values[k : k + ahead], cam)
            yield from zip(range(k, k + len(winners)), winners)
            k += len(winners) - 1
            with np.errstate(over="ignore", invalid="ignore"):  # an infinite reach is sound
                reach = horizon(uv[-1], depth[-1], cell[-1], winners[-1])
            # NaN, from a coordinate that overflowed, keeps the next pose
            skip = 0 if np.isnan(reach) else int(
                np.searchsorted(values[k + 1 :] - values[k], reach))
            ahead = 1 if skip >= ahead else min(2 * ahead, most)
            k += 1 + skip

    return sweep()


def zbuffer_changes(cloud: ColoredPointCloud, axis: Axis, values, cam: CameraModel):
    """Iterator of ``(index, winners)`` for pose 0 of ``values`` and each later
    pose whose winners may differ from the pose before; every pose not
    yielded has the winners of the last one yielded before it.

    Sorted sweeps of more than one kernel block (see ``zbuffer_blocks``)
    skip poses: translations by ``_traced_changes``, rotations by
    ``_horizon_changes``.  Every other list z-buffers every pose, a list
    that fits one block in one kernel call.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    one_block = _block_size(max(len(cloud), cam.height * cam.width))
    if len(values) > one_block and np.all(values[1:] >= values[:-1]):
        rule = _horizon_changes if axis.is_rotation else _traced_changes
        if (changes := rule(cloud, axis, values, cam)) is not None:
            return changes
    blocks = zbuffer_blocks(cloud, axis, values, cam)
    return enumerate(winners for block in blocks for winners in block)


def zbuffer_winners(
    cloud: ColoredPointCloud, axis: Axis, value: float, cam: CameraModel
) -> np.ndarray:
    """Flat (H*W,) array of winning point indices per pixel, -1 where empty."""
    return _zbuffer(cloud, axis, [value], cam)[3][0]


def extract_one_frame(cloud: ColoredPointCloud, cam: CameraModel) -> ColoredPointCloud:
    """Points recoverable from a single depth frame at the reference pose.

    Keeps, per covered pixel, the z-buffer winner; the result is a subset
    of the input with at most one point per pixel.
    """
    winners = zbuffer_winners(cloud, Axis.TX, 0.0, cam)
    idx = np.unique(winners[winners >= 0])
    if idx.size == 0:
        raise EmptyFrame("reference render covers no pixel")
    return cloud.subset(idx)


def render(cloud: ColoredPointCloud, motion: MotionValue, cam: CameraModel) -> np.ndarray:
    """Render the cloud at one pose into a (K, H, W) float image in [0, 1]."""
    return render_sweep(cloud, motion.spec, cam, [motion.value])[0]


def sweep_images(
    cloud: ColoredPointCloud,
    spec: MotionSpec,
    cam: CameraModel,
    values,
    background=DEFAULT_BACKGROUND,
):
    """``(images, index)``: the distinct read-only (K, H, W) images the
    poses in ``values`` render, in order of first appearance, and
    ``index[i]``, the image pose ``i`` renders.  The first value outside [-b, +b], NaN
    included, raises ``MotionValue``'s ``ConfigError``, and so does a
    ``background`` that is not one real number in [0, 1]."""
    check_real(background, lambda g: 0.0 <= g <= 1.0,
               f"background must be a real number in [0, 1], got {background!r}")
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    outside = np.flatnonzero(~(np.abs(values) <= spec.radius_b))  # NaN fails too
    if outside.size:
        MotionValue(spec, float(values[outside[0]]))  # raises
    # each point's colors, then the background's in the last column: winner -1
    palette = np.concatenate([cloud.colors.T, np.full((cloud.channels, 1), background,
                                                      dtype=np.float64)], axis=1)
    seen, starts, changes = {}, [], []  # seen: each distinct image's number, by bytes
    for pose, winners in zbuffer_changes(cloud, spec.axis, values, cam):
        image = np.take(palette, winners, axis=1)
        changes.append(seen.setdefault(image.tobytes(), len(seen)))
        starts.append(pose)
    images = [np.frombuffer(key).reshape(-1, cam.height, cam.width) for key in seen]
    at = np.searchsorted(starts, np.arange(len(values)), side="right") - 1
    return images, np.array(changes, dtype=np.int64)[at]


def render_sweep(
    cloud: ColoredPointCloud,
    spec: MotionSpec,
    cam: CameraModel,
    values,
    background=DEFAULT_BACKGROUND,
):
    """Render one image per motion value, each its own array: the per-pose
    expansion of ``sweep_images``; values must lie inside [-b, +b]."""
    images, index = sweep_images(cloud, spec, cam, values, background)
    return [images[i].copy() for i in index]


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
        body = fh.read()  # all the file holds, whatever size the header claims
    if len(body) != 4 * k * h * w:
        raise FileFormatError(f"PWSI1 body of {len(body)} bytes, header says {4 * k * h * w}")
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
        try:  # undecodable text, a bad header or a non-numeric body
            header = fh.readline().split()
            if len(header) != 3 or header[0] != "PWSPC1":
                raise ValueError(f"header {' '.join(header[:3])!r}")
            count, k = int(header[1]), int(header[2])
            body = fh.read()
            if not body.endswith("\n"):  # save_cloud ends every line
                raise ValueError("body cut short: no final newline")
            data = np.loadtxt(body.splitlines(), dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise FileFormatError(f"not a PWSPC1 file: {exc}") from exc
    if data.shape != (count, 3 + k):
        raise FileFormatError(
            f"PWSPC1 body has shape {data.shape}, expected ({count}, {3 + k})"
        )
    return ColoredPointCloud(data[:, :3], data[:, 3:])
