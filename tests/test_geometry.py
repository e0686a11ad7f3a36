import math

import numpy as np
import pytest

from pwscert import (
    Axis,
    CameraModel,
    ColoredPointCloud,
    ConfigError,
    MotionSpec,
    NonPositiveDepth,
    ShapeMismatch,
    delta_constant,
    lipschitz_constants,
    project_points,
)
from pwscert.geometry import (
    MotionValue,
    _sinusoid_range,
    projection_derivative_points,
    min_depth_over_range,
)
from pwscert.rasterizer import render_sweep

from conftest import (
    axis_radius,
    closed_form_derivative,
    closed_form_lipschitz,
    closed_form_projection,
    motion_rotation_translation,
    project_general,
    random_visible_points,
)

ALL_AXES = list(Axis)
# focal lengths apart and off powers of two, so that every rounding shows
ODD_CAM = CameraModel(fx=61.7, fy=53.3, cx=31.5, cy=30.25, width=64, height=64)


class TestProject:
    def test_identity_on_axis_point(self, cam):
        uv, depth = project_points((0, 0, 2), Axis.TZ, 0.0, cam)
        assert tuple(uv[0]) == (50.0, 50.0)
        assert depth[0] == 2.0

    def test_tz_closed_form(self, cam):
        # u = fx*X/(Z-tz) + cx = 100*0.1/1 + 50
        uv, depth = project_points((0.1, 0, 2), Axis.TZ, 1.0, cam)
        assert uv[0, 0] == pytest.approx(60.0, abs=1e-12)
        assert uv[0, 1] == pytest.approx(50.0, abs=1e-12)
        assert depth[0] == pytest.approx(1.0, abs=1e-15)

    def test_all_axes_agree_at_zero(self, cam):
        p = (0.3, -0.2, 2.5)
        results = [project_points(p, axis, 0.0, cam) for axis in ALL_AXES]
        for uv, depth in results[1:]:
            assert uv[0, 0] == results[0][0][0, 0]
            assert uv[0, 1] == results[0][0][0, 1]
            assert depth[0] == results[0][1][0]

    def test_matches_general_rodrigues_projection(self, cam):
        rng = np.random.default_rng(7)
        for axis in ALL_AXES:
            b = axis_radius(axis)
            for _ in range(40):
                p = random_visible_points(rng, 1)[0]
                a = rng.uniform(-b, b)
                uv, depth = project_points(p, axis, a, cam)
                rot, t = motion_rotation_translation(axis, a)
                (u2, v2), depth2 = project_general(p, rot, t, cam)
                assert uv[0, 0] == pytest.approx(u2, abs=1e-9)
                assert uv[0, 1] == pytest.approx(v2, abs=1e-9)
                assert depth[0] == pytest.approx(depth2, abs=1e-12)

    def test_per_point_pose_vector(self, cam):
        rng = np.random.default_rng(3)
        pts = random_visible_points(rng, 50)
        alphas = rng.uniform(-0.1, 0.1, 50)
        uv_vec, d_vec = project_points(pts, Axis.RX, alphas, cam)
        for i in range(50):
            uv_i, d_i = project_points(pts[i], Axis.RX, float(alphas[i]), cam)
            np.testing.assert_allclose(uv_vec[i], uv_i[0], rtol=0, atol=1e-12)
            assert d_vec[i] == pytest.approx(float(d_i[0]), abs=1e-15)

    @pytest.mark.parametrize("axis", ALL_AXES)
    def test_bit_identical_to_closed_forms(self, axis):
        rng = np.random.default_rng(17)
        b = axis_radius(axis)
        pts = random_visible_points(rng, 60)
        pts[:5, 2] *= -1.0  # behind the camera: the raw depth is kept
        for value in (rng.uniform(-b, b), rng.uniform(-b, b, 60),
                      rng.uniform(-b, b, (7, 1))):
            uv, depth = project_points(pts, axis, value, ODD_CAM)
            want_uv, want_depth = closed_form_projection(pts, axis, value, ODD_CAM)
            assert uv.shape == want_uv.shape and depth.shape == want_depth.shape
            assert uv.tobytes() == want_uv.tobytes()
            assert depth.tobytes() == want_depth.tobytes()


class TestDerivative:
    @pytest.mark.parametrize("axis", ALL_AXES)
    def test_matches_closed_forms(self, axis):
        rng = np.random.default_rng(19)
        b = axis_radius(axis)
        pts = random_visible_points(rng, 60)
        for value in (rng.uniform(-b, b), rng.uniform(-b, b, 60)):
            got = projection_derivative_points(pts, axis, value, ODD_CAM)
            want = closed_form_derivative(pts, axis, value, ODD_CAM)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("axis", ALL_AXES)
    def test_pose_column_stacks_the_pose_calls(self, axis):
        rng = np.random.default_rng(23)
        b = axis_radius(axis)
        pts = random_visible_points(rng, 50)
        poses = np.concatenate([[-b, 0.0, b], rng.uniform(-b, b, 5)])
        got = projection_derivative_points(pts, axis, poses[:, None], ODD_CAM)
        want = np.stack([projection_derivative_points(pts, axis, a, ODD_CAM)
                         for a in poses])
        assert got.shape == want.shape == (len(poses), 50, 2)
        assert got.tobytes() == want.tobytes()

    def test_tz_on_axis(self, cam):
        du, dv = projection_derivative_points((0.1, 0, 2), Axis.TZ, 0.0, cam)[0]
        assert du == pytest.approx(2.5, abs=1e-12)  # fx*X/Z^2
        assert dv == pytest.approx(0.0, abs=1e-15)

    def test_tx_never_moves_v(self, cam):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_visible_points(rng, 1)[0]
            a = rng.uniform(-0.2, 0.2)
            _, dv = projection_derivative_points(p, Axis.TX, a, cam)[0]
            assert dv == 0.0

    @pytest.mark.parametrize("axis", ALL_AXES)
    def test_matches_central_finite_difference(self, cam, axis):
        rng = np.random.default_rng(42)
        b = axis_radius(axis)
        h = 1e-6
        pts = random_visible_points(rng, 200)
        alphas = rng.uniform(-b + 2 * h, b - 2 * h, 200)
        analytic = projection_derivative_points(pts, axis, alphas, cam)
        uv_plus, _ = project_points(pts, axis, alphas + h, cam)
        uv_minus, _ = project_points(pts, axis, alphas - h, cam)
        fd = (uv_plus - uv_minus) / (2 * h)
        scale = np.maximum(np.abs(analytic), 1.0)
        assert np.max(np.abs(analytic - fd) / scale) < 1e-5


class TestLipschitz:
    def test_tz_closed_form(self, cam):
        # max(fx|X|, fy|Y|) / (Z-b)^2 = 100*0.1 / 1.5^2
        val = lipschitz_constants((0.1, 0, 2), MotionSpec(Axis.TZ, 0.5), cam)[0]
        assert val == pytest.approx(100 * 0.1 / 1.5**2, rel=1e-12)

    def test_tx_is_fx_over_z(self, cam):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_visible_points(rng, 1)[0]
            val = lipschitz_constants(p, MotionSpec(Axis.TX, 0.5), cam)[0]
            assert val == pytest.approx(cam.fx / p[2], rel=1e-12)

    def test_ty_is_fy_over_z(self, cam):
        p = (0.4, -0.3, 2.0)
        val = lipschitz_constants(p, MotionSpec(Axis.TY, 0.7), cam)[0]
        assert val == pytest.approx(cam.fy / 2.0, rel=1e-12)

    @pytest.mark.parametrize("axis", ALL_AXES)
    def test_equals_closed_form_rates(self, axis):
        # fx != fy, at the usual radii and, for rotations, at +-0.8 rad too
        pts = random_visible_points(np.random.default_rng(17), 200)
        for b in [axis_radius(axis)] + ([0.8] if axis.is_rotation else []):
            spec = MotionSpec(axis, b)
            np.testing.assert_allclose(lipschitz_constants(pts, spec, ODD_CAM),
                                       closed_form_lipschitz(pts, spec, ODD_CAM),
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("axis", ALL_AXES)
    def test_dominates_sampled_derivatives(self, cam, axis):
        rng = np.random.default_rng(9)
        b = axis_radius(axis)
        spec = MotionSpec(axis, b)
        pts = random_visible_points(rng, 40)
        lip = lipschitz_constants(pts, spec, cam)
        for a in np.linspace(-b, b, 1000):
            duv = projection_derivative_points(pts, axis, float(a), cam)
            assert np.all(np.abs(duv).max(axis=1) <= lip * (1 + 1e-12))

    @pytest.mark.parametrize("axis", ALL_AXES)
    def test_bounds_projection_differences(self, cam, axis):
        rng = np.random.default_rng(11)
        b = axis_radius(axis)
        spec = MotionSpec(axis, b)
        pts = random_visible_points(rng, 30)
        lip = lipschitz_constants(pts, spec, cam)
        for _ in range(200):
            a1, a2 = rng.uniform(-b, b, 2)
            uv1, _ = project_points(pts, axis, a1, cam)
            uv2, _ = project_points(pts, axis, a2, cam)
            gap = np.max(np.abs(uv1 - uv2), axis=1)
            assert np.all(gap <= lip * abs(a1 - a2) + 1e-9)

    def test_point_leaving_view_raises(self, cam):
        with pytest.raises(NonPositiveDepth):
            lipschitz_constants((0, 0, 0.3), MotionSpec(Axis.TZ, 0.5), cam)
        with pytest.raises(NonPositiveDepth):
            lipschitz_constants((0, 0, 1.0), MotionSpec(Axis.RY, 1.8), cam)

    def test_rz_interior_peak_is_caught(self, cam):
        # the sinusoid |Y cos a - X sin a| peaks inside a wide range; a
        # max over endpoints alone would undershoot sqrt(X^2+Y^2)
        p = (0.5, 0.5, 2.0)
        spec = MotionSpec(Axis.RZ, 1.5)
        val = lipschitz_constants(p, spec, cam)[0]
        amp = math.hypot(0.5, 0.5)
        assert val == pytest.approx(cam.fx * amp / 2.0, rel=1e-12)

    def test_min_depth_over_range_conservative(self, cam):
        rng = np.random.default_rng(13)
        for axis in ALL_AXES:
            b = axis_radius(axis)
            pts = random_visible_points(rng, 25)
            dmin = min_depth_over_range(pts, MotionSpec(axis, b), cam)
            for a in np.linspace(-b, b, 400):
                _, d = project_points(pts, axis, float(a), cam)
                assert np.all(d >= dmin - 1e-12)


class TestSinusoidRange:
    @pytest.mark.parametrize("half", [0.01, 0.5, 1.6, 2.5, 3.1])
    def test_brackets_and_attains_sampled_extremes(self, half):
        rng = np.random.default_rng(int(half * 100))
        a = np.r_[rng.normal(0, 1, 300), 0.0, 1.0, -1.0, 0.0]
        b = np.r_[rng.normal(0, 1, 300), 1.0, 0.0, 0.0, -2.0]
        theta = np.linspace(-half, half, 20001)
        wave = a[:, None] * np.cos(theta) + b[:, None] * np.sin(theta)
        lo, hi = _sinusoid_range(a, b, half)
        # the sampled extremes miss the true ones by at most amp * step^2 / 8
        slack = np.hypot(a, b) * (theta[1] - theta[0]) ** 2 / 8 + 1e-12
        assert np.all(lo <= wave.min(axis=1) + 1e-12)
        assert np.all(hi >= wave.max(axis=1) - 1e-12)
        assert np.all(lo >= wave.min(axis=1) - slack)
        assert np.all(hi <= wave.max(axis=1) + slack)


class TestDeltaConstant:
    def test_translations_are_zero(self, cam):
        pts = [(0.3, 0.1, 2.0), (-0.4, 0.2, 2.5)]
        for axis in (Axis.TX, Axis.TY):
            assert delta_constant(MotionSpec(axis, 0.4), cam, pts, 2.0) == 0.0

    def test_rz_closed_form(self):
        cam = CameraModel(fx=120, fy=100, cx=50, cy=50, width=100, height=100)
        val = delta_constant(MotionSpec(Axis.RZ, 0.01), cam, [(0.1, 0.1, 2.0)], 2.0)
        assert val == pytest.approx(1.2 * 2.0, rel=1e-12)

    def test_tz_maximizes_over_cloud(self, cam):
        pts = [(0.1, 0.0, 2.0), (0.0, 0.1, 1.5)]
        val = delta_constant(MotionSpec(Axis.TZ, 0.5), cam, pts, 0.5)
        assert val == pytest.approx(0.5 / (1.5 - 0.5), rel=1e-12)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf, "2", True])
    def test_delta_must_be_positive_and_finite(self, cam, delta):
        for axis in (Axis.TX, Axis.RY):
            with pytest.raises(ConfigError, match="convexity delta must be positive"):
                delta_constant(MotionSpec(axis, 0.1), cam, [(0.1, 0.1, 2.0)], delta)

    def test_lipschitz_relaxation_bounds_hidden_points(self):
        # hidden back layer of a layered scene: every hidden point's own
        # Lipschitz constant is covered by the one-frame max plus the slack
        from pwscert import check_delta_convexity
        from pwscert.demo import build_probe_scene, demo_specs, probe_camera
        from pwscert.intervals import DeltaConvexity
        from pwscert.rasterizer import extract_one_frame

        cam = probe_camera()
        scene = build_probe_scene(0, Axis.TZ)
        one_frame = extract_one_frame(scene.cloud, cam)
        of_keys = {p.tobytes() for p in one_frame.points}
        hidden = np.array(
            [p for p in scene.cloud.points if p.tobytes() not in of_keys]
        )
        assert len(hidden) >= 500
        delta = 0.05
        for spec in demo_specs():
            assert check_delta_convexity(
                scene.cloud, one_frame, DeltaConvexity(delta), spec, cam, samples=50
            )
            l_hidden = lipschitz_constants(hidden, spec, cam)
            l_front = lipschitz_constants(one_frame.points, spec, cam)
            c = delta_constant(spec, cam, one_frame.points, delta)
            assert np.all(l_hidden <= l_front.max() + c + 1e-9)


class TestValidation:
    def test_camera_rejects_bad_intrinsics(self):
        with pytest.raises(ValueError):
            CameraModel(fx=-1, fy=1, cx=0, cy=0, width=4, height=4)
        with pytest.raises(ValueError):
            CameraModel(fx=1, fy=1, cx=9, cy=0, width=4, height=4)
        for fx in ("7.5", True):
            with pytest.raises(ConfigError, match="focal lengths must be positive"):
                CameraModel(fx=fx, fy=7.5, cx=0.5, cy=0.5, width=4, height=4)
        with pytest.raises(ConfigError, match="principal point"):
            CameraModel(fx=7.5, fy=7.5, cx="0.5", cy=0.5, width=4, height=4)

    @pytest.mark.parametrize("width, height", [(24.5, 24), (24, 24.0), (True, 24),
                                               ("24", 24)])
    def test_camera_rejects_non_integer_grid(self, width, height):
        with pytest.raises(ConfigError, match="grid size must be integers"):
            CameraModel(fx=7.5, fy=7.5, cx=0.5, cy=0.5, width=width, height=height)
        CameraModel(fx=7.5, fy=7.5, cx=0.5, cy=0.5, width=np.int64(24), height=24)

    @pytest.mark.parametrize("width, height", [(1025, 1024), (1, 2**70), (2**70, 2**70),
                                               (np.int64(2**62), np.int64(4))])
    def test_camera_rejects_a_grid_past_2_20_pixels(self, width, height):
        # rasterizer._grid would end in numpy's "Maximum allowed size exceeded"
        with pytest.raises(ConfigError, match=r"pixels exceeds 2\^20 = 1,048,576 pixels"):
            CameraModel(fx=7.5, fy=7.5, cx=0.5, cy=0.5, width=width, height=height)
        assert CameraModel(fx=7.5, fy=7.5, cx=0.5, cy=0.5, width=1024, height=1024)

    def test_motion_value_respects_radius(self):
        spec = MotionSpec(Axis.TX, 0.1)
        with pytest.raises(ValueError):
            MotionValue(spec, 0.2)

    def test_nan_pose_rejected(self):
        spec = MotionSpec(Axis.TX, 0.1)
        with pytest.raises(ConfigError, match="outside"):
            MotionValue(spec, math.nan)
        cloud = ColoredPointCloud([[0.0, 0.0, 1.0]], [[0.7]])
        cam = CameraModel(fx=4.0, fy=4.0, cx=2.0, cy=2.0, width=4, height=4)
        with pytest.raises(ConfigError):
            render_sweep(cloud, spec, cam, [0.0, math.nan])

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            MotionSpec(Axis.TX, 0.0)
        for radius in ("0.1", True):
            with pytest.raises(ConfigError, match="motion radius must be positive"):
                MotionSpec(Axis.TX, radius)
        with pytest.raises(ConfigError, match="outside"):
            MotionValue(MotionSpec(Axis.TX, 0.1), "0.05")

    @pytest.mark.parametrize("points", [[(1.0, 2.0)], np.zeros((2, 3, 1)), [[]]])
    def test_points_of_wrong_shape_raise_shape_mismatch(self, cam, points):
        spec = MotionSpec(Axis.RY, 0.1)
        with pytest.raises(ShapeMismatch, match=r"points must have shape \(N, 3\)"):
            project_points(points, spec.axis, 0.0, cam)
        with pytest.raises(ShapeMismatch):
            lipschitz_constants(points, spec, cam)
        with pytest.raises(ShapeMismatch):
            delta_constant(spec, cam, points, 2.0)
