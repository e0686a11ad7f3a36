import math

import numpy as np
import pytest

from pwscert import (
    Axis,
    CameraModel,
    ColoredPointCloud,
    MotionSpec,
    builtin_train,
    render,
)
from pwscert.demo import build_demo_scene, demo_camera, demo_specs
from pwscert.errors import NonPositiveDepth
from pwscert.geometry import DEPTH_EPS, MotionValue, _sinusoid_range, project_points
from pwscert.scenes import ShapeClass
from pwscert.smoothing import _cached_block


def random_visible_points(rng, n, z_lo=1.2, z_hi=3.0, spread=0.9):
    """Points comfortably inside the frustum with depth margins for all axes."""
    z = rng.uniform(z_lo, z_hi, n)
    x = rng.uniform(-spread, spread, n) * z * 0.45
    y = rng.uniform(-spread, spread, n) * z * 0.45
    return np.column_stack([x, y, z])


def motion_rotation_translation(axis, value):
    """Rotation vector and translation vector of a one-axis motion."""
    rot = np.zeros(3)
    t = np.zeros(3)
    idx = {"x": 0, "y": 1, "z": 2}[axis.value[1]]
    if axis.is_rotation:
        rot[idx] = value
    else:
        t[idx] = value
    return rot, t


def rotation_matrix(rotvec) -> np.ndarray:
    """Rodrigues rotation matrix for an axis-angle vector."""
    rotvec = np.asarray(rotvec, dtype=np.float64)
    theta = float(np.linalg.norm(rotvec))
    if theta == 0.0:
        return np.eye(3)
    k = rotvec / theta
    kx = np.array(
        [[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]], dtype=np.float64
    )
    return np.eye(3) + math.sin(theta) * kx + (1.0 - math.cos(theta)) * (kx @ kx)


def project_general(point, rotvec, translation, cam):
    """General-pose projection used to cross-validate the closed forms.

    Computes [u, v, 1] = (1/depth) * K * R^{-1} (P - t) with R from the
    full Rodrigues formula, for arbitrary rotation vector and translation.
    """
    p = np.asarray(point, dtype=np.float64).reshape(3)
    t = np.asarray(translation, dtype=np.float64).reshape(3)
    rot = rotation_matrix(rotvec)
    q = rot.T @ (p - t)
    depth = float(q[2])
    if depth <= DEPTH_EPS:
        raise NonPositiveDepth(f"depth {depth:.6g} in general projection")
    u = cam.fx * q[0] / depth + cam.cx
    v = cam.fy * q[1] / depth + cam.cy
    return (u, v), depth


def closed_form_projection(points, axis, value, cam):
    """Reference ``project_points``: one closed form per axis, with the same
    floating operations in the same order, so equal bit for bit."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    a = np.asarray(value, dtype=np.float64)
    zero = np.zeros_like(a)
    c, s = np.cos(a), np.sin(a)
    if axis is Axis.TX:
        depth, un, vn = z + zero, cam.fx * (x - a), cam.fy * y + zero
    elif axis is Axis.TY:
        depth, un, vn = z + zero, cam.fx * x + zero, cam.fy * (y - a)
    elif axis is Axis.TZ:
        depth, un, vn = z - a, cam.fx * x + zero, cam.fy * y + zero
    elif axis is Axis.RZ:
        depth, un, vn = z + zero, cam.fx * (x * c + y * s), cam.fy * (y * c - x * s)
    elif axis is Axis.RX:
        depth, un, vn = z * c - y * s, cam.fx * x + zero, cam.fy * (y * c + z * s)
    else:  # RY
        depth, un, vn = x * s + z * c, cam.fx * (x * c - z * s), cam.fy * y + zero
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = np.stack([un / depth + cam.cx, vn / depth + cam.cy], axis=-1)
    return uv, depth


def closed_form_derivative(points, axis, value, cam):
    """Reference ``projection_derivative_points``: d(u, v)/d(alpha) in one
    closed form per axis, for a single pose or an (N,) array of poses."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    a = np.asarray(value, dtype=np.float64)
    zero = np.zeros_like(z) + np.zeros_like(a)
    c, s = np.cos(a), np.sin(a)
    if axis is Axis.TX:
        du, dv = -cam.fx / z + zero, zero
    elif axis is Axis.TY:
        du, dv = zero, -cam.fy / z + zero
    elif axis is Axis.TZ:
        du, dv = cam.fx * x / (z - a) ** 2, cam.fy * y / (z - a) ** 2
    elif axis is Axis.RZ:
        du, dv = cam.fx * (y * c - x * s) / z, -cam.fy * (x * c + y * s) / z
    elif axis is Axis.RX:
        depth = z * c - y * s
        du = cam.fx * x * (y * c + z * s) / depth**2
        dv = cam.fy * (y**2 + z**2) / depth**2
    else:  # RY
        depth = x * s + z * c
        du = -cam.fx * (x**2 + z**2) / depth**2
        dv = -cam.fy * y * (x * c - z * s) / depth**2
    return np.stack([du, dv], axis=1)


def closed_form_lipschitz(points, spec, cam):
    """Reference ``lipschitz_constants``: each axis's largest rate over
    [-b, +b] in closed form.  TX and TY rates are constant, TZ rates peak at
    +b, RX and RY rates at a range end, and RZ rates are sinusoids whose
    peak may lie inside the range."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    axis, b = spec.axis, spec.radius_b
    if axis is Axis.TX:
        return cam.fx / z
    if axis is Axis.TY:
        return cam.fy / z
    if axis is Axis.TZ:
        return np.maximum(cam.fx * np.abs(x), cam.fy * np.abs(y)) / (z - b) ** 2
    if axis is Axis.RZ:
        m_u = np.max(np.abs(_sinusoid_range(y, -x, b)), axis=0)
        m_v = np.max(np.abs(_sinusoid_range(x, y, b)), axis=0)
        return np.maximum(cam.fx * m_u, cam.fy * m_v) / z
    best = np.zeros(len(pts))
    for a in (-b, b):
        c, s = math.cos(a), math.sin(a)
        if axis is Axis.RX:  # y turns with the depth, x is fixed
            depth = z * c - y * s
            rates = (cam.fx * np.abs(x * (y * c + z * s)), cam.fy * (y**2 + z**2))
        else:  # RY: x turns with the depth, y is fixed
            depth = x * s + z * c
            rates = (cam.fx * (x**2 + z**2), cam.fy * np.abs(y * (x * c - z * s)))
        best = np.maximum(best, np.maximum(*rates) / depth**2)
    return best


def drift_spans_loop(points, specs, cam, probes=9):
    """Reference drift spans: one projection per probe pose, folded into
    running per-point minima and maxima of the u and v offsets from the
    pose-zero projection.  One (au, bu, av, bv) tuple per spec."""
    uv0, _ = project_points(points, Axis.TX, 0.0, cam)
    spans = []
    for spec in specs:
        au, bu, av, bv = (np.zeros(len(points)) for _ in range(4))
        for alpha in np.linspace(-spec.radius_b, spec.radius_b, probes):
            uv, depth = project_points(points, spec.axis, float(alpha), cam)
            assert np.all(depth > 0)
            du = uv[:, 0] - uv0[:, 0]
            dv = uv[:, 1] - uv0[:, 1]
            au, bu = np.minimum(au, du), np.maximum(bu, du)
            av, bv = np.minimum(av, dv), np.maximum(bv, dv)
        spans.append((au, bu, av, bv))
    return spans


def lexsort_winners(cloud, axis, value, cam):
    """Reference z-buffer: sort the visible hits by (pixel, depth, index)
    and keep the first hit of each pixel."""
    uv, depth = project_points(cloud.points, axis, value, cam)
    cols = np.floor(uv[:, 0]).astype(np.int64)
    rows = np.floor(uv[:, 1]).astype(np.int64)
    ok = (
        (depth > DEPTH_EPS)
        & (cols >= 0)
        & (cols < cam.width)
        & (rows >= 0)
        & (rows < cam.height)
    )
    winners = np.full(cam.height * cam.width, -1, dtype=np.int64)
    idx = np.nonzero(ok)[0]
    flat = rows[idx] * cam.width + cols[idx]
    order = np.lexsort((idx, depth[idx], flat))
    flat_sorted = flat[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = flat_sorted[1:] != flat_sorted[:-1]
    winners[flat_sorted[first]] = idx[order][first]
    return winners


def oracle_sweep_runs(cloud, spec, cam, resolution):
    """Per-pose reference sweep: (point, pixel, lo, hi) of every ownership
    run, closed runs in sweep order, then the runs open at the last pose."""
    values = np.linspace(-spec.radius_b, spec.radius_b, resolution)
    prev = lexsort_winners(cloud, spec.axis, float(values[0]), cam)
    start = np.zeros(len(prev), dtype=np.int64)
    runs = []
    for t in range(1, resolution):
        cur = lexsort_winners(cloud, spec.axis, float(values[t]), cam)
        for px in np.nonzero(cur != prev)[0]:
            if prev[px] >= 0:
                runs.append((prev[px], px, values[start[px]], values[t - 1]))
            start[px] = t
        prev = cur
    for px in np.nonzero(prev >= 0)[0]:
        runs.append((prev[px], px, values[start[px]], values[-1]))
    return runs


def dense_logit_map(clf):
    """Reference pixel-to-logit matrix of a LinearSoftmaxClassifier: the
    weights times a dense (features x pixels) mean-pooling matrix."""
    k, h, w = clf.image_shape
    f = clf.downsample
    pool = np.zeros((clf.weights.shape[0], k * h * w))
    cell = np.arange(k * h * w).reshape(k, h, w)
    feat = 0
    for ki in range(k):
        for r in range(0, h, f):
            for c in range(0, w, f):
                pool[feat, cell[ki, r : r + f, c : c + f].ravel()] = 1.0 / (f * f)
                feat += 1
    return clf.weights.T @ pool, clf.bias.copy()


def axis_radius(axis):
    """Motion radii keeping random test points visible over the range."""
    return 0.25 if not axis.is_rotation else 0.12


@pytest.fixture(autouse=True)
def cold_noise_cache():
    """Each test starts with no noise block cached, so generator counts do
    not depend on the tests run before it."""
    _cached_block.cache_clear()


@pytest.fixture(scope="session")
def cam():
    return CameraModel(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)


@pytest.fixture(scope="session")
def small_cam():
    return CameraModel(fx=16.0, fy=16.0, cx=8.0, cy=8.0, width=16, height=16)


@pytest.fixture(scope="session")
def trap_cam():
    """A 16 px grid whose principal point sits mid-cell, so a point at the
    extreme of a rotation's sinusoidal coordinate is not on a border."""
    return CameraModel(fx=16.0, fy=14.0, cx=7.5, cy=7.5, width=16, height=16)


@pytest.fixture(scope="session")
def demo_cam():
    return demo_camera()


@pytest.fixture(scope="session")
def demo_corpus():
    scenes = [
        build_demo_scene(cls, seed) for cls in ShapeClass for seed in range(2)
    ]
    return scenes, demo_camera()


@pytest.fixture(scope="session")
def demo_classifier(demo_corpus):
    scenes, cam = demo_corpus
    spec = demo_specs()[0]
    dataset = [
        (render(s.cloud, MotionValue(spec, 0.0), cam), s.label) for s in scenes
    ]
    return builtin_train(dataset, noise_sigma=0.5, augment_count=6, seed=11)


@pytest.fixture
def two_point_cloud():
    """Two points sharing a pixel: the nearer wins."""
    return ColoredPointCloud(
        points=np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]]),
        colors=np.array([[0.9], [0.1]]),
    )


def sweep_traps(cam):
    """Translation sweeps built to trip a z-buffer that skips poses: a list
    of (name, cloud, spec, resolution), each sampled at
    ``np.linspace(-b, b, resolution)``.

    Every scene but the last adds a far backdrop of 120 points that barely
    moves, so the fast movers stay a small share of the cloud.
    """
    rng = np.random.default_rng(41)
    z = rng.uniform(40.0, 50.0, 120)
    backdrop = np.column_stack([
        (rng.uniform(0, cam.width, 120) - cam.cx) * z / cam.fx,
        (rng.uniform(0, cam.height, 120) - cam.cy) * z / cam.fy,
        z,
    ])

    def scene(near):
        points = np.vstack([near, backdrop])
        colors = np.linspace(0.05, 0.95, len(points))[rng.permutation(len(points))]
        return ColoredPointCloud(points, colors[:, None])

    traps = []
    # TX: a point 5 cm away crosses the whole grid (32 px) within 21 of 401
    # poses, about sqrt(T), entering and leaving it off the grid
    values = np.linspace(-1.0, 1.0, 401)
    mid = 0.5 * (values[105] + values[126])
    traps.append(("crosses the grid in 21 poses",
                  scene([[mid, 0.0, 0.05], [mid + 0.01, 0.02, 0.05]]),
                  MotionSpec(Axis.TX, 1.0), 401))
    # TZ: depths that pass through (0, DEPTH_EPS] inside the range, on the
    # principal ray (at pose 200, where nothing else changes cell) and just
    # off it (at pose 150), with a far point behind them
    values = np.linspace(-0.3, 0.3, 301)
    a = values[200]
    near = [[0.0, 0.0, a + 0.5 * DEPTH_EPS], [0.0, 0.0, a + 2 * DEPTH_EPS],
            [1e-3, 0.0, values[150] + 0.5 * DEPTH_EPS], [0.0, 0.0, 10.0]]
    traps.append(("depth crosses DEPTH_EPS", scene(near), MotionSpec(Axis.TZ, 0.3), 301))
    # TX and TZ: points at one exact depth meet in shared cells, where the
    # smaller index wins the tie
    xs = np.linspace(-0.3, 0.3, 12) * 0.7
    near = np.column_stack([xs, np.full(12, 0.01), np.ones(12)])
    traps.append(("equal depths tie on index", scene(near), MotionSpec(Axis.TZ, 0.3), 301))
    traps.append(("equal depths under TX", scene(near), MotionSpec(Axis.TX, 0.05), 301))
    # TZ: a point at depth 10 whose column changes only at pose ``col_at``
    # and whose row changes only at pose ``row_at`` (never if None): u and v
    # reach a border halfway between that pose and the one before, and move
    # less than 0.4 px over the sweep
    values = np.linspace(-0.3, 0.3, 301)

    def crossing(col_at, row_at=None):
        def on(offset, focal, pose):  # the x or y that puts u or v offset px from c
            return offset * (10.0 - 0.5 * (values[pose - 1] + values[pose])) / focal
        col = math.floor(cam.cx) + 5 - cam.cx
        row = 0.0 if row_at is None else on(math.floor(cam.cy) + 4 - cam.cy, cam.fy, row_at)
        return scene([[on(col, cam.fx, col_at), row, 10.0]])

    traps.append(("one change, at pose 1", crossing(1), MotionSpec(Axis.TZ, 0.3), 301))
    traps.append(("one change, at the last pose", crossing(300), MotionSpec(Axis.TZ, 0.3), 301))
    traps.append(("changes at two adjacent poses", crossing(150, 151),
                  MotionSpec(Axis.TZ, 0.3), 301))
    # TZ: two depths one ulp apart round to one value at pose -2, so the
    # owner changes with no point changing cell
    z1 = 3.0
    z0 = float(np.nextafter(z1, 4.0))
    traps.append(("depths inside the rounding bound",
                  ColoredPointCloud([[0.0, 0.0, z0], [0.0, 0.0, z1]], [[0.2], [0.8]]),
                  MotionSpec(Axis.TZ, 2.0), 401))
    return traps


def _nudged(point, coord, holds, steps=10_000):
    """``point`` with ``point[coord]`` moved the fewest ulps, up or down,
    that make ``holds(point)`` true."""
    up, down = list(point), list(point)
    for _ in range(steps):
        for trial, way in ((up, np.inf), (down, -np.inf)):
            if holds(trial):
                return trial
            trial[coord] = float(np.nextafter(trial[coord], way))
    raise AssertionError(f"no value of coordinate {coord} within {steps} ulps")


def rotation_traps(cam):
    """Rotation sweeps built to trip a z-buffer that skips poses: a list of
    (name, cloud, spec, resolution), each sampled at
    ``np.linspace(-b, b, resolution)`` with 301 poses and b = 0.3 rad, but
    for the last trap, at b = 1e-6 rad.

    Built for a camera whose principal point sits mid-cell (``trap_cam``):
    where a sinusoidal coordinate peaks, the other one is at the principal
    point.
    """
    resolution = 301
    values = np.linspace(-0.3, 0.3, resolution)
    step = float(values[1] - values[0])
    # a peak this far past a border stays beyond it for |a - peak| < 1.5 steps
    poke = 1.0 + (1.5 * step) ** 2 / 2

    def cloud(points):
        return ColoredPointCloud(points, np.linspace(0.1, 0.9, len(points))[:, None])

    def ry_pair(swap, z=2.0, shift_px=0.1):
        """Under RY, a point on the principal ray and one ``shift_px``
        pixels to its right, sharing its cell near pose ``swap``, whose
        depths cross between poses ``swap`` and ``swap + 1``."""
        a = values[swap] + 0.3 * step
        beta = shift_px / cam.fx
        rho = z * math.cos(a) / math.cos(beta - a)
        return [[0.0, 0.0, z], [rho * math.sin(beta), 0.0, rho * math.cos(beta)]]

    traps = []
    # RZ: v = fy rho cos(a - peak) / z pokes past a row border for the 3
    # poses around pose 120, and comes back
    peak = values[120]
    rho = (math.floor(cam.cy) + 4 - cam.cy) * poke / cam.fy
    traps.append(("RZ v crosses a border and returns",
                  cloud([[-rho * math.sin(peak), rho * math.cos(peak), 1.0]]),
                  MotionSpec(Axis.RZ, 0.3), resolution))
    # RX: u = cx + fx x / depth dips below a column border for the 3 poses
    # around pose 180, where the depth peaks, and comes back
    peak = values[180]
    x = (math.floor(cam.cx) + 3 - cam.cx) * (2.0 - poke) / cam.fx
    traps.append(("RX u crosses a border and returns",
                  cloud([[x, -math.sin(peak), math.cos(peak)]]),
                  MotionSpec(Axis.RX, 0.3), resolution))
    traps.append(("RY depth swap in a shared cell", cloud(ry_pair(150)),
                  MotionSpec(Axis.RY, 0.3), resolution))
    # RY: points 0 and 1 share x and z, so their depths are equal at every
    # pose and point 0 wins their cell until point 2 passes in front
    (x0, _, z0), (x2, _, z2) = ry_pair(160)
    traps.append(("RY bit-identical (x, z) tie on index",
                  cloud([[x0, 0.002, z0], [x0, 0.001, z0], [x2, 0.0, z2]]),
                  MotionSpec(Axis.RY, 0.3), resolution))
    # RY: two depths one ulp apart round to one value at some poses, where
    # the farther point 0 wins on index, and stay apart at others
    z1 = 3.0
    traps.append(("RY depths one ulp apart",
                  cloud([[0.0, 0.0, float(np.nextafter(z1, 4.0))], [0.0, 0.0, z1]]),
                  MotionSpec(Axis.RY, 0.3), resolution))

    # RY: u is exactly a column border at pose 100
    def u_at(point, pose):
        uv, _ = project_points(np.array([point]), Axis.RY, values[pose], cam)
        return uv[0, 0]

    border = math.floor(cam.cx) + 3
    guess = [2.0 * math.tan(values[100] + math.atan((border - cam.cx) / cam.fx)),
             0.0, 2.0]
    on_border = _nudged(guess, 0, lambda p: u_at(p, 100) == border)
    traps.append(("RY point on a border at a sweep pose",
                  cloud([on_border, [0.0, 0.0, 3.0]]), MotionSpec(Axis.RY, 0.3),
                  resolution))

    # RX: a point whose depth z cos a - y sin a passes through (0, DEPTH_EPS]
    # at pose 200, next to the returning point of the RX trap above
    def depth_at(point, pose):
        return project_points(np.array([point]), Axis.RX, values[pose], cam)[1][0]

    a = values[200]
    guess = [0.0, math.cos(a) / math.sin(a), 1.0]
    grazing = _nudged(guess, 1, lambda p: 0 < depth_at(p, 200) <= DEPTH_EPS)
    traps.append(("RX depth passes through (0, DEPTH_EPS]",
                  cloud([traps[1][1].points[0], grazing]),
                  MotionSpec(Axis.RX, 0.3), resolution))

    # RY over b = 1e-6 rad: the depth peaks just before -b, so the fixed
    # coordinate v = cy + fy y / depth rises at every pose, but near pose 0
    # by less than the rounding of the depth.  The first radius whose
    # rounded depth rises after pose 0 gets the y that puts v on a row
    # border at pose 0; rounding then carries v back below that border
    tiny = 1e-6
    near = np.linspace(-tiny, tiny, resolution)

    def rounded_ry(point):
        return project_points(np.array([point]), Axis.RY, near[:, None], cam)

    border = math.floor(cam.cy) + 2
    for rho in np.linspace(1.2, 1.9, 701):
        x, z = rho * math.sin(-1.01 * tiny), rho * math.cos(-1.01 * tiny)
        depth = rounded_ry([x, 0.0, z])[1][:, 0]
        if np.any(depth[1:] > depth[0]):
            break
    else:
        raise AssertionError("no radius whose rounded depth rises after pose 0")

    def dips(point):
        v = rounded_ry(point)[0][:, 0, 1]
        return v[0] >= border > np.min(v[1:])

    dipping = _nudged([x, (border - cam.cy) * rho / cam.fy, z], 1, dips)
    traps.append(("RY rising v rounds back below its border", cloud([dipping]),
                  MotionSpec(Axis.RY, tiny), resolution))
    return traps
