"""Correctness checks on the program's outputs, computed apart from it.

Every check takes reports in their JSON form (as ``pws certify`` writes
them, or ``CertificationReport.to_json()``) and raises ``CheckFailed`` on
the first property that does not hold.  Frames are re-rendered here with
this file's own projection and z-buffer, radii are recomputed with
``scipy.stats.norm.ppf`` and confidence bounds with ``scipy.stats.beta``,
so a fault in the program's geometry, rasterizer or smoothing code cannot
hide behind itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import beta, norm

# Depth at or below which a point counts as behind the camera.
_MIN_DEPTH = 1e-12
_REL_TOL = 1e-9


class CheckFailed(AssertionError):
    """An output of the program violates a property it must have."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Inputs and an independent renderer


class Camera:
    """Pinhole intrinsics read straight from a corpus ``camera.json``."""

    def __init__(self, fx, fy, cx, cy, width, height):
        self.fx, self.fy, self.cx, self.cy = float(fx), float(fy), float(cx), float(cy)
        self.width, self.height = int(width), int(height)

    @classmethod
    def load(cls, corpus: Path) -> "Camera":
        return cls(**json.loads((Path(corpus) / "camera.json").read_text()))


def load_cloud(path: Path):
    """(points, colors) from a PWSPC1 text file."""
    with open(path, encoding="utf-8") as fh:
        magic, count, channels = fh.readline().split()
        data = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    require(magic == "PWSPC1" and data.shape == (int(count), 3 + int(channels)),
            f"{path}: malformed point cloud")
    return data[:, :3], data[:, 3:]


def _camera_transform(axis: str, a: float):
    """R^T and t of a camera moved by ``a`` along or about one axis."""
    c, s = math.cos(a), math.sin(a)
    rot = {
        "rx": [[1, 0, 0], [0, c, -s], [0, s, c]],
        "ry": [[c, 0, s], [0, 1, 0], [-s, 0, c]],
        "rz": [[c, -s, 0], [s, c, 0], [0, 0, 1]],
    }.get(axis, np.eye(3))
    t = np.zeros(3)
    if axis[0] == "t":
        t["xyz".index(axis[1])] = a
    return np.asarray(rot, dtype=np.float64).T, t


def winners_at(points, cam: Camera, axis: str, a: float) -> np.ndarray:
    """Index of the nearest point in each pixel cell (-1 where empty).

    Ties in depth go to the smaller point index.
    """
    rt, t = _camera_transform(axis, a)
    rel = points - t
    # elementwise sums, not a matrix product, so no fused multiply-add
    q = [rt[i, 0] * rel[:, 0] + rt[i, 1] * rel[:, 1] + rt[i, 2] * rel[:, 2]
         for i in range(3)]
    depth = q[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = cam.fx * q[0] / depth + cam.cx
        v = cam.fy * q[1] / depth + cam.cy
    ok = (depth > _MIN_DEPTH) & np.isfinite(u) & np.isfinite(v)
    ok &= (u >= 0) & (u < cam.width) & (v >= 0) & (v < cam.height)
    idx = np.nonzero(ok)[0]
    cell = np.floor(v[idx]).astype(np.int64) * cam.width + np.floor(u[idx]).astype(np.int64)
    npix = cam.width * cam.height
    nearest = np.full(npix, np.inf)
    np.minimum.at(nearest, cell, depth[idx])
    front = depth[idx] == nearest[cell]
    owner = np.full(npix, len(points), dtype=np.int64)
    np.minimum.at(owner, cell[front], idx[front])
    owner[owner == len(points)] = -1
    return owner


def paint(colors, owner, cam: Camera, background: float) -> np.ndarray:
    image = np.full((colors.shape[1], owner.size), float(background))
    hit = owner >= 0
    image[:, hit] = colors[owner[hit]].T
    return image.reshape(colors.shape[1], cam.height, cam.width)


def frame_error(a, b) -> float:
    return math.sqrt(0.5 * float(np.sum((a - b) ** 2)))


# ---------------------------------------------------------------------------
# Certification reports


def check_partition(rep: dict) -> np.ndarray:
    """The partition covers [-b, b] with spacing at most delta_alpha."""
    alphas = np.array([p["alpha"] for p in rep["per_partition"]], dtype=np.float64)
    b, delta = rep["radius_b"], rep["delta_alpha"]
    require(len(alphas) == rep["n_partitions"] >= 2,
            f"{len(alphas)} partition poses for n_partitions={rep['n_partitions']}")
    require(abs(alphas[0] + b) <= _REL_TOL * b and abs(alphas[-1] - b) <= _REL_TOL * b,
            f"partition spans [{alphas[0]}, {alphas[-1]}], not [-{b}, {b}]")
    gaps = np.diff(alphas)
    require(np.all(gaps > 0), "partition poses are not increasing")
    require(float(gaps.max()) <= delta * (1 + _REL_TOL),
            f"partition gap {gaps.max():.6g} exceeds delta_alpha {delta:.6g}")
    return alphas


def radius_from(p_a_lower: float, sigma: float) -> float:
    return 0.5 * sigma * (norm.ppf(p_a_lower) - norm.ppf(1.0 - p_a_lower))


def check_radii_and_verdict(rep: dict) -> None:
    """Recompute every radius, min_radius and the verdict from p_a_lower."""
    sigma = rep["sigma"]
    radii = []
    for p in rep["per_partition"]:
        pa = p["p_a_lower"]
        require(abs(p["p_b_upper"] - (1.0 - pa)) <= 1e-12, "p_b_upper != 1 - p_a_lower")
        if pa <= 0.5:
            require(p["abstained"] and p["radius"] == 0.0,
                    f"p_a_lower {pa} <= 0.5 but the frame did not abstain")
            continue
        require(not p["abstained"], f"frame abstained at p_a_lower {pa}")
        r = radius_from(pa, sigma)
        require(math.isclose(p["radius"], r, rel_tol=1e-7, abs_tol=1e-9),
                f"frame radius {p['radius']} != {r} from p_a_lower {pa}")
        radii.append(r)
    min_radius = min(radii, default=0.0)
    require(math.isclose(rep["min_radius"], min_radius, rel_tol=1e-7, abs_tol=1e-9),
            f"min_radius {rep['min_radius']} != {min_radius} recomputed")
    labels = {p["top_label"] for p in rep["per_partition"]}
    if len(radii) < len(rep["per_partition"]) or len(labels) != 1:
        verdict = "abstain"
    elif rep["max_adjacent_error"] < min_radius:
        verdict = "certified"
    else:
        verdict = "not_certified"
    require(rep["verdict"] == verdict, f"verdict {rep['verdict']} != {verdict} re-derived")
    if verdict != "abstain":
        require(rep["top_label"] == labels.pop(), "top_label differs from the frames' label")


def render_partition(rep: dict, points, colors, cam: Camera):
    """Own renders at the report's partition poses, checked for coverage."""
    alphas = check_partition(rep)
    owners = [winners_at(points, cam, rep["axis"], float(a)) for a in alphas]
    frames = [paint(colors, o, cam, rep["background"]) for o in owners]
    return alphas, owners, frames


def check_adjacent_error(rep: dict, frames) -> None:
    err = max(frame_error(a, b) for a, b in zip(frames, frames[1:]))
    require(math.isclose(rep["max_adjacent_error"], err, rel_tol=1e-9, abs_tol=1e-12),
            f"max_adjacent_error {rep['max_adjacent_error']} != {err} re-rendered")


def check_certification(rep: dict, points, colors, cam: Camera):
    """Partition, adjacent error, radii and verdict of one report."""
    alphas, owners, frames = render_partition(rep, points, colors, cam)
    check_adjacent_error(rep, frames)
    check_radii_and_verdict(rep)
    return alphas, owners, frames


def window_violation_share(rep, points, colors, cam, alphas, owners, frames, samples=1):
    """Largest share of covered pixels that, at a pose sampled inside a
    partition window, match neither of the window's endpoint frames."""
    worst = 0.0
    for i in range(len(alphas) - 1):
        for k in range(1, samples + 1):
            a = alphas[i] + (alphas[i + 1] - alphas[i]) * k / (samples + 1)
            mid = winners_at(points, cam, rep["axis"], float(a))
            frame = paint(colors, mid, cam, rep["background"])
            same = (np.all(frame == frames[i], axis=0)
                    | np.all(frame == frames[i + 1], axis=0)).ravel()
            covered = (owners[i] >= 0) | (owners[i + 1] >= 0) | (mid >= 0)
            worst = max(worst, np.count_nonzero(~same & covered) / max(covered.sum(), 1))
    return float(worst)


def check_windows(rep, points, colors, cam, alphas, owners, frames, samples=1) -> None:
    """At most a (1 - quantile) share of covered pixels breaks the window rule."""
    share = window_violation_share(rep, points, colors, cam, alphas, owners, frames, samples)
    allowed = 1.0 - rep["quantile"]
    require(share <= allowed + 1e-12,
            f"{share:.4%} of covered pixels leave the window's endpoint values "
            f"(allowed {allowed:.4%})")


def check_method_order(spacings: dict) -> None:
    """lipschitz and one-frame spacings never exceed the exact spacing."""
    exact = spacings["exact"]
    for method in ("lipschitz", "one-frame"):
        require(spacings[method] <= exact * (1 + _REL_TOL),
                f"{method} spacing {spacings[method]:.6g} > exact {exact:.6g}")


# ---------------------------------------------------------------------------
# Attack and black-box checks


def check_attack(cert: dict, attack: dict, poses: int) -> None:
    """A certified scene never changes label under the attack sweep."""
    require(attack["poses_tested"] == poses, f"attack tested {attack['poses_tested']} poses")
    require(attack["empirically_robust"] and attack["first_failure_pose"] is None,
            f"certified scene changed label at pose {attack['first_failure_pose']}")
    require(attack["reference_label"] == cert["top_label"],
            f"attack reference label {attack['reference_label']} != certified "
            f"label {cert['top_label']}")


def cp_lower(k: int, n: int, alpha: float) -> float:
    if k == 0:
        return 0.0
    if k == n:
        return alpha ** (1.0 / n)
    return float(beta.ppf(alpha, k, n - k + 1))


def logit_estimate(frame, weights, bias, pool, sigma, n, alpha, rng):
    """Top label and Clopper-Pearson lower bound of a linear softmax model
    under pixel noise, sampled through its exact logit pushforward."""
    k, h, w = frame.shape
    # feature f of pixel (channel, row, col): its pool x pool block, in
    # (channel, block row, block col) order
    ch, row, col = np.indices(frame.shape).reshape(3, -1)
    feature = (ch * (h // pool) + row // pool) * (w // pool) + col // pool
    pooling = np.zeros((weights.shape[0], frame.size))
    pooling[feature, np.arange(frame.size)] = 1.0 / (pool * pool)
    feats = pooling @ frame.ravel()
    a = weights.T @ pooling
    cov = sigma ** 2 * (a @ a.T)
    vals, vecs = np.linalg.eigh(cov)
    factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    logits = feats @ weights + bias + rng.standard_normal((n, len(bias))) @ factor.T
    counts = np.bincount(np.argmax(logits, axis=1), minlength=len(bias))
    top = int(np.argmax(counts))
    return top, cp_lower(int(counts[top]), n, alpha)


def check_blackbox(rep: dict, frames, weights, bias, pool, seed) -> None:
    """The pixel-path estimate of every frame matches an independent
    logit-path estimate within a binomial tolerance."""
    n, alpha, sigma = rep["n_samples"], rep["confidence_alpha"], rep["sigma"]
    rng = np.random.default_rng(seed)
    for i, (p, frame) in enumerate(zip(rep["per_partition"], frames)):
        top, pa = logit_estimate(frame, weights, bias, pool, sigma, n, alpha, rng)
        mean = 0.5 * (pa + p["p_a_lower"])
        tol = 6.0 * math.sqrt(2.0 * mean * (1.0 - mean) / n) + 3.0 / n
        # within the tolerance of a tie, either label may come out on top
        require(p["top_label"] == top or pa <= 0.5 + tol,
                f"frame {i}: pixel path says label {p['top_label']}, logit path {top}")
        require(abs(p["p_a_lower"] - pa) <= tol,
                f"frame {i}: p_a_lower {p['p_a_lower']:.5f} vs logit path {pa:.5f}")
