"""Consistent camera-motion intervals and partition-spacing bounds.

Rendering a fixed cloud while one motion coordinate sweeps its range makes
every pixel a piecewise-constant function of the pose: a pixel keeps one
point's color exactly while that point keeps winning the z-buffer there.
The maximal pose runs where ownership is constant are the *consistent
intervals*; the narrowest one at a pixel bounds how far two neighboring
partition poses may sit apart before a pixel could take a value not seen
at either pose.

Three spacing bounds are computed from a discretized sweep at a caller
chosen resolution.  Ownership changes only at the poses the rasterizer's
``zbuffer_changes`` yields, so the runs are those of a z-buffer at every
pose.  Under translations those are pose 0 and the poses where some
point changes cell (124-234 of 2001 on the 64 px wild-certify scenes at
TZ 20 mm); the z-buffer kernel never runs: each of those poses picks
every cell's winner by one (z, index) rank rule, whose minimum runs over
the points that move only.  Under rotations they are pose 0 and each
pose at the horizon of the last one (10-20 of 2001 on the seed-0 demo
scenes at RY 0.026 rad).  The sweep records each pixel change as (pose,
pixel, previous owner); one stable sort by pixel then gives each run its
start, the pose of the change before at that pixel.  The bounds differ
only in the width they give each run:

* exact    - the interval widths themselves,
* lipschitz - projection span across each interval divided by the point's
  Lipschitz constant (never larger than the exact width),
* one-frame - the Lipschitz form evaluated on a single-frame cloud with a
  convexity slack ``delta``, usable when the full cloud is unknown.

One core, ``_spacing``, turns run widths into a spacing: each pixel keeps
its narrowest run, the per-pixel minima aggregate by a lower quantile (1.0
keeps the strict minimum), and the result is shrunk by one sweep step to
absorb the discretization of the interval endpoints.  ``plan_partition``
picks a method's bound and builds the uniform partition from it.

No bound needs monotone projection drift: a point's Lipschitz constant
``L`` is its largest rate over the whole range, so its Lipschitz width
``span / L`` never exceeds the run, even where the drift backtracks.  The
one-frame width trims the span and raises the rate, so it is smaller still.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateInterval, DomainError, InvalidDelta,
                     NegativeMargin, check_integer, check_real)
from .geometry import (
    CameraModel,
    DEPTH_EPS,
    MotionSpec,
    lipschitz_constants,
    delta_constant,
    project_points,
)
from .rasterizer import (ColoredPointCloud, DEFAULT_BACKGROUND, extract_one_frame,
                         zbuffer_changes)

DEFAULT_RESOLUTION = 2001
DEFAULT_QUANTILE = 0.995


class CertMethod(str, enum.Enum):
    EXACT = "exact"
    LIPSCHITZ = "lipschitz"
    ONE_FRAME = "one-frame"


@dataclass(frozen=True)
class ConsistentInterval:
    """One maximal pose run where a single point owns a pixel."""

    point_index: int
    pixel: tuple  # (row, col)
    lo: float
    hi: float


@dataclass(frozen=True)
class DeltaConvexity:
    """Pixel-space slack of a one-frame cloud: every absent point projects
    within ``delta`` pixels of some one-frame point that occludes it."""

    delta: float

    def __post_init__(self):
        check_real(self.delta, lambda d: 0 < d < math.inf,
                   "convexity delta must be positive and finite")


@dataclass(frozen=True)
class IntervalConfig:
    """How partition spacing is derived from the scene."""

    resolution: int = DEFAULT_RESOLUTION
    quantile: float = DEFAULT_QUANTILE
    convexity: DeltaConvexity = None
    background = DEFAULT_BACKGROUND  # not a field: certification always renders on it

    def __post_init__(self):
        if not (self.convexity is None or isinstance(self.convexity, DeltaConvexity)):
            raise ConfigError("convexity must be a DeltaConvexity or None, "
                              f"got {self.convexity!r}")


@dataclass
class _SweepRuns:
    """Raw run arrays from a discretized ownership sweep."""

    point_index: np.ndarray  # (M,)
    pixel_flat: np.ndarray  # (M,)
    lo: np.ndarray  # (M,)
    hi: np.ndarray  # (M,)
    step: float


def _sweep_runs(
    cloud: ColoredPointCloud, spec: MotionSpec, cam: CameraModel, resolution: int
) -> _SweepRuns:
    check_integer(resolution, lambda r: r >= 2,
                  f"analysis resolution must be at least 2, got {resolution}")
    check_integer(resolution, lambda r: r <= 1 << 24,  # poses within 128 MiB
                  f"analysis resolution must be at most 2^24, got {resolution}")
    values = np.linspace(-spec.radius_b, spec.radius_b, resolution)
    step = float(values[1] - values[0])
    npix = cam.height * cam.width

    # runs change only at the poses zbuffer_changes yields; each change at
    # pose t ends the run of its pixel's previous owner at pose t - 1
    frames = zbuffer_changes(cloud, spec.axis, values, cam)
    _, prev = next(frames)
    poses, pixel_parts, owner_parts = [], [], []
    # an all-empty frame after the last pose closes every open run
    closing = (resolution, np.full(npix, -1, dtype=np.int64))
    for t, cur in itertools.chain(frames, [closing]):
        changed = np.flatnonzero(cur != prev)
        poses.append(t)
        pixel_parts.append(changed)
        owner_parts.append(prev[changed])
        prev = cur

    pose = np.repeat(poses, [len(part) for part in pixel_parts])
    pixel = np.concatenate(pixel_parts)
    owner = np.concatenate(owner_parts)
    # in pixel order, each change's run starts at the pixel's change before, or at pose 0
    by_pixel = np.argsort(pixel, kind="stable")
    start = np.zeros(len(pose), dtype=np.int64)
    in_order = pixel[by_pixel]
    same = in_order[1:] == in_order[:-1]
    start[by_pixel[1:][same]] = pose[by_pixel[:-1][same]]
    ended = owner >= 0
    pixel_flat, point_index = pixel[ended], owner[ended]
    lo, hi = values[start[ended]], values[pose[ended] - 1]
    return _SweepRuns(point_index, pixel_flat, lo, hi, step)


def consistent_intervals(
    cloud: ColoredPointCloud,
    spec: MotionSpec,
    cam: CameraModel,
    resolution: int = DEFAULT_RESOLUTION,
):
    """All consistent intervals of a scene, as a list.

    Each interval's endpoints are the first and last sweep poses of its
    run, so the result is a discretized estimate: true interval borders
    lie within one sweep step outside the reported ones.
    """
    runs = _sweep_runs(cloud, spec, cam, resolution)
    out = []
    for i in range(len(runs.pixel_flat)):
        flat = int(runs.pixel_flat[i])
        out.append(
            ConsistentInterval(
                point_index=int(runs.point_index[i]),
                pixel=(flat // cam.width, flat % cam.width),
                lo=float(runs.lo[i]),
                hi=float(runs.hi[i]),
            )
        )
    return out


def _governing_min(pixel_flat, widths, quantile):
    """Lower ``1 - quantile`` quantile of the per-pixel minimum widths, and
    the run that sets it: the pixel is the first (in flat order) whose
    minimum equals the quantile, and the run is the first at that pixel
    to reach the minimum.  Returns (value, run_index)."""
    order = np.lexsort((np.arange(len(widths)), widths, pixel_flat))
    pixels = pixel_flat[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = pixels[1:] != pixels[:-1]
    runs = order[first]
    value = float(np.quantile(widths[runs], 1.0 - quantile, method="lower"))
    return value, int(runs[np.nonzero(widths[runs] == value)[0][0]])


def _spacing(cloud, spec, cam, resolution, quantile, run_widths):
    """The rule all three bounds share: sweep, take each pixel's narrowest
    run width, the lower quantile over pixels, and one sweep step less.

    ``run_widths(runs)`` returns ``(widths, rate)``: the width of every
    run, in pose units when ``rate`` is None, else as a pixel margin that
    must be positive and becomes a pose width when divided by ``rate``.
    """
    check_real(quantile, lambda q: 0.0 < q <= 1.0,
               f"quantile must lie in (0, 1], got {quantile}")
    runs = _sweep_runs(cloud, spec, cam, resolution)
    if len(runs.pixel_flat) == 0:
        raise DegenerateInterval("no pixel is ever covered over the motion range")
    with np.errstate(over="ignore", invalid="ignore"):  # NaN is refused below
        widths, rate = run_widths(runs)
    if np.isnan(widths).any() or (rate is not None and math.isnan(rate)):
        raise DomainError("a run width is NaN: a point's projection rate overflows, "
                          "or is 0 on a run it owns")
    picked, _ = _governing_min(runs.pixel_flat, widths, quantile)
    if rate is not None:
        if picked <= 0:
            raise NegativeMargin(
                f"projection span minus 2*delta is {picked:.3g} px at the "
                "governing pixel; delta is too large for this scene"
            )
        picked /= rate
    result = picked - runs.step
    if result <= runs.step:
        raise DegenerateInterval(
            f"governing run width {picked:.3g} not above two sweep steps "
            f"{2 * runs.step:.3g}; raise the resolution or relax the quantile"
        )
    return result


def _spans(cloud, spec, cam, runs):
    """Max-norm pixel distance each run's point travels across its run."""
    pts = cloud.points[runs.point_index]
    uv_lo, _ = project_points(pts, spec.axis, runs.lo, cam)
    uv_hi, _ = project_points(pts, spec.axis, runs.hi, cam)
    travel = np.abs(uv_hi - uv_lo)
    return np.maximum(travel[:, 0], travel[:, 1])


def exact_delta(
    cloud: ColoredPointCloud,
    spec: MotionSpec,
    cam: CameraModel,
    resolution: int = DEFAULT_RESOLUTION,
    quantile: float = DEFAULT_QUANTILE,
) -> float:
    """Partition spacing from the interval widths themselves."""
    return _spacing(cloud, spec, cam, resolution, quantile,
                    lambda runs: (runs.hi - runs.lo, None))


def lipschitz_delta(
    cloud: ColoredPointCloud,
    spec: MotionSpec,
    cam: CameraModel,
    resolution: int = DEFAULT_RESOLUTION,
    quantile: float = DEFAULT_QUANTILE,
) -> float:
    """Partition spacing from projection spans over Lipschitz constants."""

    def widths(runs):
        lip = lipschitz_constants(cloud.points, spec, cam)
        return _spans(cloud, spec, cam, runs) / lip[runs.point_index], None

    return _spacing(cloud, spec, cam, resolution, quantile, widths)


def one_frame_delta(
    one_frame: ColoredPointCloud,
    spec: MotionSpec,
    cam: CameraModel,
    resolution: int = DEFAULT_RESOLUTION,
    convexity: DeltaConvexity = None,
    quantile: float = DEFAULT_QUANTILE,
) -> float:
    """Partition spacing from a one-frame cloud under delta-convexity.

    Absent points are covered by inflating the worst one-frame Lipschitz
    constant with the closed-form convexity slack and trimming each span
    by two deltas, so the bound never exceeds the full cloud's exact one.
    """
    if not isinstance(convexity, DeltaConvexity):
        raise ConfigError("one-frame certification requires a convexity delta")

    def margins(runs):
        lip = lipschitz_constants(one_frame.points, spec, cam)
        c_delta = delta_constant(spec, cam, one_frame.points, convexity.delta)
        span = _spans(one_frame, spec, cam, runs)
        return span - 2.0 * convexity.delta, float(np.max(lip)) + c_delta

    return _spacing(one_frame, spec, cam, resolution, quantile, margins)


def check_delta_convexity(
    full_cloud: ColoredPointCloud,
    one_frame: ColoredPointCloud,
    convexity: DeltaConvexity,
    spec: MotionSpec,
    cam: CameraModel,
    samples: int = 200,
) -> bool:
    """Sample poses and verify the delta-convexity property.

    For every full-cloud point absent from the one-frame cloud and every
    sampled pose, some one-frame point must project within ``delta`` pixels
    (max norm) at a depth no greater than the absent point's.  Returns
    False at the first counterexample.
    """
    check_integer(samples, lambda s: s >= 1,
                  f"samples must be a positive integer, got {samples!r}")
    from scipy.spatial import cKDTree  # here: it slows the start of every command
    of_keys = {p.tobytes() for p in one_frame.points}
    hidden_mask = np.array(
        [p.tobytes() not in of_keys for p in full_cloud.points], dtype=bool
    )
    if not np.any(hidden_mask):
        return True
    hidden = full_cloud.points[hidden_mask]
    poses = np.linspace(-spec.radius_b, spec.radius_b, samples)
    for pose in poses:
        uv_h, d_h = project_points(hidden, spec.axis, float(pose), cam)
        uv_f, d_f = project_points(one_frame.points, spec.axis, float(pose), cam)
        if np.any(d_h <= DEPTH_EPS) or np.any(d_f <= DEPTH_EPS):
            return False
        tree = cKDTree(uv_f)
        neighborhoods = tree.query_ball_point(uv_h, r=convexity.delta, p=np.inf)
        for i, neigh in enumerate(neighborhoods):
            if not neigh:
                return False
            if d_f[neigh].min() > d_h[i]:
                return False
    return True


@dataclass(frozen=True)
class PartitionPlan:
    """Uniform pose partition covering the motion range."""

    spec: MotionSpec
    delta_alpha: float
    method: CertMethod
    quantile: float
    values: np.ndarray

    @property
    def count(self) -> int:
        return len(self.values)

    def to_json(self) -> dict:
        return {
            "axis": self.spec.axis.value,
            "radius_b": self.spec.radius_b,
            "delta_alpha": self.delta_alpha,
            "n": self.count,
            "method": self.method.value,
            "quantile": self.quantile,
            "values_digest": hashlib.sha256(
                np.ascontiguousarray(self.values).tobytes()
            ).hexdigest(),
        }


def build_partition(
    delta_alpha: float,
    spec: MotionSpec,
    method: CertMethod = CertMethod.EXACT,
    quantile: float = DEFAULT_QUANTILE,
) -> PartitionPlan:
    """Uniform partition with spacing at most ``delta_alpha``."""
    b = spec.radius_b
    check_real(delta_alpha, lambda d: True,
               f"spacing must be a real number, got {delta_alpha!r}")
    if not (0.0 < delta_alpha <= 2.0 * b) or not math.isfinite(delta_alpha):
        raise InvalidDelta(
            f"spacing must lie in (0, {2 * b:.6g}], got {delta_alpha:.6g}"
        )
    n = int(math.ceil(2.0 * b / delta_alpha)) + 1
    values = np.linspace(-b, b, n)
    return PartitionPlan(
        spec=spec,
        delta_alpha=float(delta_alpha),
        method=method,
        quantile=quantile,
        values=values,
    )


def plan_partition(
    cloud: ColoredPointCloud,
    spec: MotionSpec,
    cam: CameraModel,
    method: CertMethod,
    cfg: IntervalConfig,
) -> PartitionPlan:
    """The partition ``method`` (a ``CertMethod`` or its value) admits for
    ``cloud``, the scene the camera images; the one-frame bound sees only
    the points recoverable from the reference render (``extract_one_frame``),
    as a real camera would."""
    try:
        method = CertMethod(method)
    except ValueError:
        raise ConfigError(f"unknown method {method!r}") from None
    res, q = cfg.resolution, cfg.quantile
    if method is CertMethod.EXACT:
        delta = exact_delta(cloud, spec, cam, res, q)
    elif method is CertMethod.LIPSCHITZ:
        delta = lipschitz_delta(cloud, spec, cam, res, q)
    else:
        delta = one_frame_delta(extract_one_frame(cloud, cam), spec, cam, res,
                                cfg.convexity, q)
    return build_partition(delta, spec, method, q)
