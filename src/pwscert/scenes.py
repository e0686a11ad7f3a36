"""Synthetic labeled scenes standing in for captured indoor data.

Each scene is a colored point sampling of one parametric surface, textured
so that classes differ in simple intensity statistics a small classifier
can learn.

Both placement modes put one front point in each of up to ``point_count``
grid cells (half as many when layered):

* random: a uniform offset in each cell's middle band (``OFFSET_BAND``).
  Cheap and generic, but pixel-ownership runs can then start or end
  arbitrarily close to the motion-range endpoints, which drives the
  strict (quantile 1.0) partition bound toward zero.
* hardened (``harden_for`` given): no cell near the principal point, and
  drift-aware offsets, so that each point never leaves its cell or crosses
  exactly one cell border well inside the given motion ranges.  A small
  designated fraction crosses (``crosser_period``); everything else stays
  put: the strict bound is a healthy fraction of the range by design.

``layered`` drops a hidden back copy of each non-crossing point along its
exact viewing ray.  Ray-aligned copies project identically under pure
rotations and drift only a few hundredths of a pixel under small
translations, while always staying strictly behind their front partner,
so the scene satisfies the occlusion-convexity prior with a tiny pixel
slack.  Back copies keep the front color: when a crossing point vacates a
cell the change comes from the entering texture, not from an artificial
dark layer.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigError, FileFormatError, InvalidRange, MissingFile, check_integer,
                     check_real)
from .geometry import Axis, CameraModel, DEPTH_EPS, project_points
from .rasterizer import ColoredPointCloud, load_cloud, save_cloud, zbuffer_winners

OFFSET_BAND = (0.18, 0.82)
_SAFE_MARGIN = 0.08
_SWEEP_PROBES = 9
# hardened placement: cells this close to the principal point (max norm,
# pixels) stay empty, and crossers need this much drift under every range
_EXCLUDE_CENTER_PX = 1.5
_MIN_CROSS_SPAN = 0.12


class ShapeClass(enum.Enum):
    PLANE_BILLBOARD = 0
    SPHERE_CAP = 1
    BOX_FACE = 2
    STRIPED_WALL = 3


@dataclass
class Scene:
    cloud: ColoredPointCloud
    label: int
    name: str


def _texture(shape: ShapeClass, u, v, cam: CameraModel, channels: int):
    """Per-class color field over continuous pixel coordinates."""
    w = cam.width
    if shape is ShapeClass.PLANE_BILLBOARD:
        base = 0.82 + 0.08 * (u / w - 0.5)
    elif shape is ShapeClass.SPHERE_CAP:
        r = np.hypot(u - cam.cx, v - cam.cy)
        base = 0.60 + 0.05 * np.cos(2.0 * np.pi * r / 9.0)
    elif shape is ShapeClass.BOX_FACE:
        base = 0.38 + 0.05 * np.sign((u - cam.cx) * (v - cam.cy))
    else:  # striped wall
        base = 0.14 + 0.10 * (np.floor(u / 3.0) % 2)
    colors = np.empty((len(u), channels))
    for k in range(channels):
        colors[:, k] = base * (1.0 - 0.04 * k)
    return np.clip(colors, 0.02, 0.98)


def _surface_depth(shape: ShapeClass, u, v, cam: CameraModel, z0: float, lo: float):
    if shape is ShapeClass.SPHERE_CAP:
        r = np.hypot(u - cam.cx, v - cam.cy)
        rmax = float(np.hypot(cam.cx, cam.cy)) + 1.0
        bulge = min(0.12 * z0, max(z0 - lo, 0.0))
        return z0 - bulge * (1.0 - (r / rmax) ** 2)
    if shape is ShapeClass.BOX_FACE:
        return np.where(u >= cam.cx, z0, z0 * 1.02)
    return np.full(len(u), z0)


def _back_project(u, v, z, cam: CameraModel) -> np.ndarray:
    x = (u - cam.cx) * z / cam.fx
    y = (v - cam.cy) * z / cam.fy
    return np.stack([x, y, z], axis=1)


def coverage_fraction(cloud: ColoredPointCloud, cam: CameraModel) -> float:
    """Fraction of grid pixels covered at the reference pose."""
    winners = zbuffer_winners(cloud, Axis.TX, 0.0, cam)
    return float(np.count_nonzero(winners >= 0)) / winners.size


def _drift_spans(points, specs, cam):
    """Per-spec, per-point projected drift relative to the reference pose.

    Returns ``(lo, hi)``, each of shape (specs, points, 2): the lowest and
    highest (u, v) offsets reached over each motion range, relative to the
    pose-zero projection, so ``lo <= 0 <= hi``.
    """
    uv0, _ = project_points(points, Axis.TX, 0.0, cam)
    lo, hi = [], []
    for spec in specs:
        poses = np.linspace(-spec.radius_b, spec.radius_b, _SWEEP_PROBES)
        uv, depth = project_points(points, spec.axis, poses[:, None], cam)
        if np.any(depth <= DEPTH_EPS):
            raise InvalidRange("scene depth too shallow for the requested motion range")
        drift = uv - uv0
        lo.append(np.minimum(drift.min(axis=0), 0.0))
        hi.append(np.maximum(drift.max(axis=0), 0.0))
    return np.array(lo), np.array(hi)


def _place_safe(cell, lo_off, hi_off, rng):
    """Sub-cell offset keeping [off+lo_off, off+hi_off] inside the cell."""
    lo = _SAFE_MARGIN - lo_off
    hi = 1.0 - _SAFE_MARGIN - hi_off
    if lo > hi:
        return None
    return cell + lo + rng.uniform(0.0, 1.0) * (hi - lo)


def _crossing_offset(per_spec_u, side, candidates, min_leftover=0.0):
    """Sub-cell offset putting one cell border inside the drift spans.

    ``candidates`` yields (anchor range index, ``t``) pairs, tried in
    order; the first accepted offset is returned, or None.  The border is
    placed at displacement ``t`` times the anchor range's drift reach on
    the chosen side, so that range's crossing pose sits at roughly
    fraction ``t`` of the half-range.  A candidate is accepted only if
    every range either crosses comfortably inside its reach (with at
    least ``min_leftover`` pixels of drift left beyond the border, keeping
    the truncated run's projection span healthy) or does not reach the
    border at all.  Borders grazing a reach endpoint would truncate an
    ownership run to almost nothing and are rejected.
    """
    reaches = [max(hi, 0.0) if side > 0 else max(-lo, 0.0) for lo, hi in per_spec_u]
    opposite = max(
        (max(-lo, 0.0) if side > 0 else max(hi, 0.0)) for lo, hi in per_spec_u
    )
    for anchor_idx, t in candidates:
        d = t * reaches[anchor_idx]
        if not 0.02 <= d <= 0.9:
            continue
        # a range whose reach stops short of the border (d / reach >= 1.15)
        # never crosses; any other must not graze it (d / reach > 0.88)
        # and must keep min_leftover of drift beyond it
        if any(reach >= 1e-12 and d / reach < 1.15
               and (d / reach > 0.88 or reach - d < min_leftover) for reach in reaches):
            continue
        off = 1.0 - d if side > 0 else d
        # the opposite-side reach must stay inside the cell
        room = off if side > 0 else 1.0 - off
        if 0.02 < off < 0.98 and opposite <= room - _SAFE_MARGIN:
            return off
    return None


def generate_scene(
    shape_class: ShapeClass,
    point_count: int,
    depth_range,
    color_seed: int,
    cam: CameraModel,
    channels: int = 3,
    layered: bool = False,
    layer_gap: float = 0.4,
    harden_for=None,
    crosser_period: int = 0,
    cross_plan=((0, 0.5),),
    min_cross_ux: float = 0.0,
    min_cross_leftover: float = 0.0,
    margin_frac: float = 0.08,
    min_coverage: float = 0.5,
) -> Scene:
    """Deterministically sample one labeled scene.

    ``point_count`` caps the cell budget (halved when layered, never below 100).
    ``harden_for`` is an iterable of MotionSpec whose drift sets the point
    offsets (see module docstring); ``cross_plan`` entries are (range
    index, pose fraction) pairs cycled over the designated crossing points.
    """
    check_integer(point_count, lambda n: True,
                  f"point_count must be an integer, got {point_count!r}")
    check_integer(color_seed, lambda c: c >= 0,
                  f"color_seed must be a non-negative integer, got {color_seed!r}")
    check_integer(channels, lambda k: k >= 1,
                  f"channels must be a positive integer, got {channels!r}")
    for end in depth_range[:2]:
        check_real(end, lambda d: True, f"depth range ends must be real numbers, got {end!r}")
    lo, hi = float(depth_range[0]), float(depth_range[1])
    if point_count < 100:
        raise InvalidRange(f"need at least 100 points, got {point_count}")
    if not (0.0 < lo < hi <= 10.0):
        raise InvalidRange(
            f"depth range ({lo}, {hi}) must satisfy 0 < lo < hi <= 10 m"
        )
    rng = np.random.default_rng((int(color_seed), shape_class.value))
    z0 = float(rng.uniform(lo + 0.45 * (hi - lo), lo + 0.9 * (hi - lo)))

    mx = max(1, int(round(cam.width * margin_frac)))
    my = max(1, int(round(cam.height * margin_frac)))
    cols_avail = np.arange(mx, cam.width - mx)
    rows_avail = np.arange(my, cam.height - my)

    budget = point_count // 2 if layered else point_count
    # hardened scenes leave the cells near the principal point empty: radial
    # motions barely move projections there, and one-frame bounds need every
    # owning point's span to clear twice the convexity slack
    rows, cols = _grid_cells(rows_avail, cols_avail, cam, budget, rng,
                             0.0 if harden_for is None else _EXCLUDE_CENTER_PX)
    if harden_for is not None:
        u, v, crosser = _hardened_placement(
            shape_class, tuple(harden_for), cam, rng, rows, cols, cols_avail,
            z0, lo, crosser_period, tuple(cross_plan), min_cross_ux,
            min_cross_leftover,
        )
    else:
        band_lo, band_hi = OFFSET_BAND
        u = cols + rng.uniform(band_lo, band_hi, len(cols))
        v = rows + rng.uniform(band_lo, band_hi, len(rows))
        crosser = np.zeros(len(u), dtype=bool)

    z = _surface_depth(shape_class, u, v, cam, z0, lo)
    # crossing points sit slightly in front of the surface: any cell they
    # enter has a contest whose winner is fixed over the whole range, so
    # ownership switches exactly once, at the designed crossing pose
    z = np.where(crosser, z * 0.975, z)
    points = _back_project(u, v, z, cam)
    colors = _texture(shape_class, u, v, cam, channels)

    if layered:
        keep = ~crosser
        scale = (z[keep] + layer_gap) / z[keep]
        back = points[keep] * scale[:, None]
        points = np.vstack([points, back])
        colors = np.vstack([colors, colors[keep]])

    cloud = ColoredPointCloud(points, colors)
    cover = coverage_fraction(cloud, cam)
    if cover < min_coverage:
        raise InvalidRange(
            f"scene covers {cover:.0%} of the grid, below {min_coverage:.0%}; "
            "increase point_count or shrink the margin"
        )
    return Scene(
        cloud=cloud,
        label=shape_class.value,
        name=f"{shape_class.name.lower()}_{color_seed}",
    )


def _grid_cells(rows_avail, cols_avail, cam, budget, rng, exclude_px=0.0):
    """Row and column (as floats) of the grid cells at least ``exclude_px``
    (max norm, pixels) from the principal point, subsampled in grid order
    to ``max(budget, 100)`` cells when there are more."""
    cells = np.stack(
        np.meshgrid(rows_avail, cols_avail, indexing="ij"), axis=-1
    ).reshape(-1, 2)
    centers = cells + 0.5
    dist = np.maximum(np.abs(centers[:, 1] - cam.cx), np.abs(centers[:, 0] - cam.cy))
    cells = cells[dist >= exclude_px]
    budget = max(budget, 100)
    if len(cells) > budget:
        cells = cells[np.sort(rng.choice(len(cells), size=budget, replace=False))]
    return cells[:, 0].astype(np.float64), cells[:, 1].astype(np.float64)


def _hardened_placement(
    shape, specs, cam, rng, rows, cols, cols_avail, z0, lo,
    crosser_period, cross_plan, min_cross_ux, min_leftover,
):
    """One point per cell, offsets chosen from projected drift spans."""
    # provisional center placement to measure drift
    u = cols + 0.5
    v = rows + 0.5
    z = _surface_depth(shape, u, v, cam, z0, lo)
    lo_uv, hi_uv = _drift_spans(_back_project(u, v, z, cam), specs, cam)
    au, av = lo_uv.min(axis=0).T
    bu, bv = hi_uv.max(axis=0).T

    region_cols = set(int(c) for c in cols_avail)
    # pick crossing candidates up front, spread over the eligible cells;
    # only points with healthy drift under every range may cross, since
    # the crossing splits each span and one-frame margins need the pieces
    # to stay above twice the convexity slack
    span_floor = (hi_uv - lo_uv).max(axis=2).min(axis=0)
    eligible = np.nonzero(
        (bu - au > 0.02)
        & (span_floor >= _MIN_CROSS_SPAN)
        & (np.abs(cols + 0.5 - cam.cx) >= min_cross_ux)
    )[0]
    designated = {}
    if crosser_period > 0 and eligible.size:
        want = min(len(u) // crosser_period, eligible.size)
        if want:
            picked = np.sort(rng.choice(eligible, size=want, replace=False))
            # keep crossers pairwise non-adjacent so they never contest
            # each other, and cycle the crossing plan so every motion
            # range gets its own population of short ownership runs
            taken = set()
            spaced = []
            for idx in picked:
                cell = (int(rows[idx]), int(cols[idx]))
                if any(
                    (cell[0] + dr, cell[1] + dc) in taken
                    for dr in (-1, 0, 1)
                    for dc in (-1, 0, 1)
                ):
                    continue
                taken.add(cell)
                spaced.append(int(idx))
            designated = {
                idx: cross_plan[k % len(cross_plan)]
                for k, idx in enumerate(spaced)
            }

    # crossings for points too fast to stay in a cell, mid-range first
    fallback = [(anchor, t) for t in (0.5, 0.45, 0.55, 0.4, 0.6, 0.35, 0.65, 0.3, 0.7)
                for anchor in range(len(specs))]
    crosser = np.zeros(len(u), dtype=bool)
    for i in range(len(u)):
        v_new = _place_safe(rows[i], av[i], bv[i], rng)
        if v_new is None:
            raise InvalidRange(
                "vertical drift exceeds one pixel; shrink the motion radius"
            )
        v[i] = v_new

        per_spec_u = list(zip(lo_uv[:, i, 0], hi_uv[:, i, 0]))
        off = None
        if i in designated:
            # cross toward the principal point: for radial motions that
            # puts the truncated ownership run at the slow end of the
            # range, where the Lipschitz bound is genuinely conservative
            side = -1 if cols[i] + 0.5 > cam.cx else 1
            if int(cols[i]) + side in region_cols:
                plan = _plan_candidates(*designated[i], len(specs))
                off = _crossing_offset(per_spec_u, side, plan, min_leftover)
        if off is None:
            u_new = _place_safe(cols[i], au[i], bu[i], rng)
            if u_new is not None:
                u[i] = u_new
                continue
            # too fast to fit inside one cell: must cross somewhere
            side = 1 if bu[i] >= -au[i] else -1
            off = _crossing_offset(per_spec_u, side, fallback, min_leftover)
            if off is None:
                raise InvalidRange(
                    "horizontal drift exceeds one pixel; shrink the radius"
                )
        u[i] = cols[i] + off
        crosser[i] = True
    return u, v, crosser


def _plan_candidates(anchor_idx, t0, n_specs):
    """Crossing candidates: the planned anchor first with nearby pose
    fractions, then the other ranges as fallbacks."""
    for dt in (0.0, -0.05, 0.03, -0.1, 0.06):
        yield anchor_idx, t0 + dt
    for other in range(n_specs):
        if other == anchor_idx:
            continue
        for dt in (0.0, -0.05, 0.03):
            yield other, t0 + dt


# ---------------------------------------------------------------------------
# Corpus directory layout: scenes/<name>.pwspc, labels.json, camera.json


def _unsafe(name: str) -> bool:
    """Whether a scene name would leave its directory or name no file."""
    return name in ("", ".", "..") or any(c in name for c in "/\\\0")


def save_corpus(root, scenes, cam: CameraModel) -> None:
    root = Path(root)
    (root / "scenes").mkdir(parents=True, exist_ok=True)
    labels = {}
    for scene in scenes:
        if _unsafe(scene.name):
            raise ConfigError(f"scene name {scene.name!r} is not a plain file name")
        if scene.name in labels:
            raise ConfigError(f"duplicate scene name {scene.name}")
        labels[scene.name] = scene.label
        save_cloud(root / "scenes" / f"{scene.name}.pwspc", scene.cloud)
    (root / "labels.json").write_text(
        json.dumps(labels, sort_keys=True, indent=2), encoding="utf-8"
    )
    (root / "camera.json").write_text(
        json.dumps(asdict(cam), sort_keys=True, indent=2), encoding="utf-8"
    )


def load_corpus(root):
    """Scenes and camera of a ``save_corpus`` directory."""
    root = Path(root)
    try:
        return _read_corpus(root)
    except FileNotFoundError as exc:
        raise MissingFile(f"corpus {root} has no {exc.filename}") from exc


def _read_corpus(root):
    try:  # non-JSON text, unknown or missing fields, an invalid camera
        labels = json.loads((root / "labels.json").read_text(encoding="utf-8"))
        if not isinstance(labels, dict):
            raise TypeError("labels.json must map scene names to labels")
        for name, label in labels.items():
            check_integer(label, lambda v: v >= 0, f"scene {name!r} has label {label!r}, "
                          "not an integer of at least 0")
        if not labels:
            raise ValueError("labels.json names no scene")
        if unsafe := [name for name in labels if _unsafe(name)]:
            raise ValueError(f"scene name {unsafe[0]!r} is not a plain file name")
        cam = CameraModel(**json.loads((root / "camera.json").read_text(encoding="utf-8")))
    except (ValueError, TypeError) as exc:
        raise FileFormatError(f"bad corpus metadata in {root}: {exc}") from exc
    scenes = []
    for name in sorted(labels):
        cloud = load_cloud(root / "scenes" / f"{name}.pwspc")
        scenes.append(Scene(cloud=cloud, label=labels[name], name=name))
    return scenes, cam
