import math
import warnings

import numpy as np
import pytest

from pwscert import (
    Axis,
    CameraModel,
    ColoredPointCloud,
    ConfigError,
    DegenerateInterval,
    DomainError,
    IntervalConfig,
    InvalidDelta,
    MotionSpec,
    NegativeMargin,
    build_partition,
    check_delta_convexity,
    consistent_intervals,
    exact_delta,
    extract_one_frame,
    generate_scene,
    lipschitz_delta,
    one_frame_delta,
    plan_partition,
    render,
)
from pwscert.demo import (
    DEMO_CONVEXITY_DELTA,
    build_demo_scene,
    demo_specs,
)
from pwscert.geometry import DEPTH_EPS, MotionValue, project_points
from pwscert.geometry import delta_constant, lipschitz_constants
from pwscert.intervals import CertMethod, DeltaConvexity, _spans, _sweep_runs
from pwscert.scenes import ShapeClass

from conftest import (axis_radius, oracle_sweep_runs,
                      random_visible_points, sweep_traps)


def single_point_scene(cam):
    """One point under TX whose projection spans three pixel cells in
    near-equal thirds of the range.

    The drift reach is 1.49 px per side: borders at half-pixel distance
    from the start are crossed at poses within 0.7% of the third points,
    while the range endpoints stay strictly inside the outer cells (an
    exactly 3.0 px span would graze a border at a range endpoint).
    """
    b = 0.03
    u0 = 40.5
    z = cam.fx * b / 1.49
    x = (u0 - cam.cx) * z / cam.fx
    cloud = ColoredPointCloud(np.array([[x, 0.0, z]]), np.array([[0.9]]))
    return cloud, MotionSpec(Axis.TX, b)


class TestSweepRuns:
    def test_matches_per_pose_oracle(self, small_cam, demo_cam):
        rng = np.random.default_rng(31)
        random_cloud = ColoredPointCloud(
            random_visible_points(rng, 300), rng.uniform(0, 1, (300, 1))
        )
        demo_cloud = build_demo_scene(ShapeClass.SPHERE_CAP, 0).cloud
        cases = [(random_cloud, MotionSpec(axis, axis_radius(axis)), small_cam)
                 for axis in Axis]
        cases += [(demo_cloud, spec, demo_cam) for spec in demo_specs()]
        for cloud, spec, cam in cases:
            runs = _sweep_runs(cloud, spec, cam, 301)
            got = list(zip(runs.point_index, runs.pixel_flat, runs.lo, runs.hi))
            assert got and got == oracle_sweep_runs(cloud, spec, cam, 301)

    def test_traps_match_per_pose_oracle(self, small_cam):
        for name, cloud, spec, resolution in sweep_traps(small_cam):
            runs = _sweep_runs(cloud, spec, small_cam, resolution)
            got = list(zip(runs.point_index, runs.pixel_flat, runs.lo, runs.hi))
            want = oracle_sweep_runs(cloud, spec, small_cam, resolution)
            assert got and got == want, name


def oracle_governing_min(pixel_flat, widths, quantile):
    """Per-pixel minimum by a plain loop (the first run wins a tie), the
    lower quantile over pixels, and the run that sets it: the first pixel
    in flat order whose minimum equals the quantile."""
    best = {}
    for i, (px, w) in enumerate(zip(pixel_flat.tolist(), widths.tolist())):
        if px not in best or w < widths[best[px]]:
            best[px] = i
    pixels = sorted(best)
    minima = sorted(widths[best[px]] for px in pixels)
    value = minima[math.floor((len(minima) - 1) * (1.0 - quantile))]
    return value, next(best[px] for px in pixels if widths[best[px]] == value)


def tied_row_scene(cam):
    """Two points one pixel apart in a row, moving one pixel per sweep
    step under TX: every pixel they pass holds two one-sample runs, so
    all runs have width 0 and the minima tie within and across pixels."""
    z = 1.0
    b = 5.0 * z / cam.fx  # five pixels of drift each way
    xs = (np.array([2.5, 3.5]) - cam.cx) * z / cam.fx
    y = (8.5 - cam.cy) * z / cam.fy
    points = np.column_stack([xs, np.full(2, y), np.full(2, z)])
    cloud = ColoredPointCloud(points, np.array([[0.2], [0.8]]))
    return cloud, MotionSpec(Axis.TX, b), 11


def exact_widths(runs):
    return runs.hi - runs.lo, None


class TestSpacingCore:
    def _check(self, cloud, spec, cam, resolution, quantile):
        from pwscert import intervals

        runs = _sweep_runs(cloud, spec, cam, resolution)
        widths = runs.hi - runs.lo
        value, gov = oracle_governing_min(runs.pixel_flat, widths, quantile)
        assert intervals._governing_min(runs.pixel_flat, widths, quantile) == (
            value, gov)
        if value - runs.step > runs.step:
            result = intervals._spacing(cloud, spec, cam, resolution, quantile,
                                        exact_widths)
            assert result == value - runs.step
        else:
            with pytest.raises(DegenerateInterval):
                intervals._spacing(cloud, spec, cam, resolution, quantile,
                                   exact_widths)
        return runs, widths

    @pytest.mark.parametrize("quantile", [1.0, 0.995])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_oracle_on_random_scenes(self, seed, quantile):
        cam = CameraModel(fx=32.0, fy=32.0, cx=16.0, cy=16.0, width=32, height=32)
        scene = generate_scene(list(ShapeClass)[seed], 1500, (1.6, 2.4), seed,
                               cam, channels=1, layered=True)
        self._check(scene.cloud, MotionSpec(Axis.TZ, 0.02), cam, 401, quantile)

    @pytest.mark.parametrize("quantile", [1.0, 0.995])
    def test_first_run_wins_tied_minima(self, small_cam, quantile):
        cloud, spec, resolution = tied_row_scene(small_cam)
        runs, widths = self._check(cloud, spec, small_cam, resolution, quantile)
        assert np.all(widths == 0.0)
        pixels, counts = np.unique(runs.pixel_flat, return_counts=True)
        assert len(pixels) > 1 and np.any(counts > 1)


class TestConsistentIntervals:
    def test_single_point_intervals_cover_range(self, cam):
        cloud, spec = single_point_scene(cam)
        ivals = consistent_intervals(cloud, spec, cam, resolution=1201)
        assert len(ivals) == 3
        assert all(iv.point_index == 0 for iv in ivals)
        total = sum(iv.hi - iv.lo for iv in ivals)
        # runs abut at sweep steps, so the union loses one step per border
        step = 2 * spec.radius_b / 1200
        assert total == pytest.approx(2 * spec.radius_b, abs=3 * step)
        widths = sorted(iv.hi - iv.lo for iv in ivals)
        assert widths[0] == pytest.approx(2 * spec.radius_b / 3, rel=0.02)

    def test_occluded_point_owns_nothing(self, cam, two_point_cloud):
        spec = MotionSpec(Axis.TZ, 0.2)
        ivals = consistent_intervals(two_point_cloud, spec, cam, resolution=301)
        assert {iv.point_index for iv in ivals} == {1}

    def test_refinement_moves_endpoints_less_than_coarse_step(self, cam):
        cloud, spec = single_point_scene(cam)
        coarse = consistent_intervals(cloud, spec, cam, resolution=1001)
        fine = consistent_intervals(cloud, spec, cam, resolution=2001)
        step = 2 * spec.radius_b / 1000
        coarse_by_pixel = {iv.pixel: iv for iv in coarse}
        assert len(fine) == len(coarse)
        for iv in fine:
            ref = coarse_by_pixel[iv.pixel]
            assert abs(iv.lo - ref.lo) <= step + 1e-15
            assert abs(iv.hi - ref.hi) <= step + 1e-15


class TestExactDelta:
    def test_three_cell_construction(self, cam):
        cloud, spec = single_point_scene(cam)
        res = 1501
        step = 2 * spec.radius_b / (res - 1)
        delta = exact_delta(cloud, spec, cam, resolution=res, quantile=1.0)
        third = 2 * spec.radius_b / 3
        assert third * 0.98 - 3 * step <= delta < third

    @pytest.mark.parametrize("quantile", [0.0, 1.5, math.nan, "1", True])
    def test_bad_quantile_rejected_before_sweep(self, cam, monkeypatch, quantile):
        from pwscert import intervals

        cloud, spec = single_point_scene(cam)
        monkeypatch.setattr(intervals, "_sweep_runs", None)  # a sweep would fail
        with pytest.raises(ConfigError, match="quantile must lie in"):
            exact_delta(cloud, spec, cam, 101, quantile)

    def test_quantile_monotone(self, demo_cam):
        scene = build_demo_scene(ShapeClass.STRIPED_WALL, 0)
        spec = demo_specs()[0]
        strict = exact_delta(scene.cloud, spec, demo_cam, 1201, quantile=1.0)
        lax = exact_delta(scene.cloud, spec, demo_cam, 1201, quantile=0.995)
        assert strict <= lax

    @pytest.mark.parametrize("resolution", [1, 2001.0, "2001", True])
    def test_bad_resolution_rejected(self, cam, resolution):
        cloud, spec = single_point_scene(cam)
        with pytest.raises(ConfigError, match="analysis resolution must be at least 2"):
            exact_delta(cloud, spec, cam, resolution, quantile=1.0)

    def test_degenerate_resolution_raises(self, cam):
        cloud, spec = single_point_scene(cam)
        with pytest.raises(DegenerateInterval):
            exact_delta(cloud, spec, cam, resolution=3, quantile=1.0)

    def test_cloud_never_on_the_grid_raises(self, cam):
        # far to the right of the view at every pose of the range
        cloud = ColoredPointCloud([[10.0, 0.0, 1.0]], [[0.5]])
        with pytest.raises(DegenerateInterval, match="no pixel is ever covered"):
            exact_delta(cloud, MotionSpec(Axis.TX, 0.1), cam, 101, quantile=1.0)

    def test_refinement_stability(self, demo_cam):
        scene = build_demo_scene(ShapeClass.SPHERE_CAP, 1)
        spec = demo_specs()[0]
        d1 = exact_delta(scene.cloud, spec, demo_cam, 1001, quantile=1.0)
        d2 = exact_delta(scene.cloud, spec, demo_cam, 2001, quantile=1.0)
        coarse_step = 2 * spec.radius_b / 1000
        assert abs(d1 - d2) <= coarse_step + 1e-15

    def test_fully_covered_property(self, demo_cam):
        # any pose inside a spacing-wide window renders each pixel at one
        # of the window's endpoint values (dense re-render oracle)
        scene = build_demo_scene(ShapeClass.BOX_FACE, 0)
        spec = demo_specs()[0]
        delta = exact_delta(scene.cloud, spec, demo_cam, 2001, quantile=1.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = rng.uniform(-spec.radius_b, spec.radius_b - delta)
            frac = rng.uniform(0, 1)
            imgs = [
                render(scene.cloud, MotionValue(spec, a), demo_cam)
                for a in (u, u + frac * delta, u + delta)
            ]
            mid_matches = (imgs[1] == imgs[0]) | (imgs[1] == imgs[2])
            assert np.all(mid_matches)


class TestLipschitzDelta:
    def test_never_exceeds_exact(self, demo_cam):
        for cls in (ShapeClass.PLANE_BILLBOARD, ShapeClass.SPHERE_CAP):
            scene = build_demo_scene(cls, 0)
            for spec in demo_specs():
                de = exact_delta(scene.cloud, spec, demo_cam, 1201, quantile=1.0)
                dl = lipschitz_delta(scene.cloud, spec, demo_cam, 1201, quantile=1.0)
                assert 0 < dl <= de

    def test_constant_rate_axis_matches_exact(self, cam):
        # TX derivative is constant, so span / L equals the interval width
        cloud, spec = single_point_scene(cam)
        de = exact_delta(cloud, spec, cam, 1501, quantile=1.0)
        dl = lipschitz_delta(cloud, spec, cam, 1501, quantile=1.0)
        assert dl == pytest.approx(de, rel=1e-9)

    @pytest.mark.parametrize("case", [a.value for a in Axis] + ["rz-backtrack"])
    def test_run_widths_never_exceed_runs(self, cam, case):
        # a run's Lipschitz width is at most the run, and its one-frame
        # width at most the Lipschitz width, whether or not the drift is
        # monotone: the RZ case's diagonal point drifts out and back
        if case == "rz-backtrack":
            cloud = ColoredPointCloud(np.array([[0.02, 0.02, 2.0]]), np.array([[0.5]]))
            spec = MotionSpec(Axis.RZ, 1.2)
        else:
            axis = Axis(case)
            pts = random_visible_points(np.random.default_rng(5), 300)
            cloud = ColoredPointCloud(pts, np.full((300, 1), 0.5))
            spec = MotionSpec(axis, axis_radius(axis))
        runs = _sweep_runs(cloud, spec, cam, 801)
        assert len(runs.lo) > 0
        span = _spans(cloud, spec, cam, runs)
        lip = lipschitz_constants(cloud.points, spec, cam)
        lip_width = span / lip[runs.point_index]
        delta = 0.05
        rate = lip.max() + delta_constant(spec, cam, cloud.points, delta)
        one_frame_width = (span - 2 * delta) / rate
        assert np.all(lip_width <= (runs.hi - runs.lo) * (1 + 1e-12))
        assert np.all(one_frame_width <= lip_width * (1 + 1e-12))

    @pytest.mark.parametrize("axis", list(Axis))
    def test_overflowing_rate_is_a_domain_error(self, trap_cam, axis):
        # the far point's rate overflows to NaN, so its runs' widths are NaN
        # and no pixel minimum equalled the NaN quantile: a bare IndexError,
        # after numpy's overflow warnings, which must not escape either
        cloud = ColoredPointCloud([[1e159, 0.0, 1e160], [0.0, 0.0, 2.0]], [[0.2], [0.7]])
        spec = MotionSpec(axis, axis_radius(axis))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exact_delta(cloud, spec, trap_cam) > 0
            with pytest.raises(DomainError, match="a run width is NaN"):
                lipschitz_delta(cloud, spec, trap_cam)
            if axis in (Axis.RX, Axis.RY):  # the one-frame rate is NaN too
                with pytest.raises(DomainError, match="a run width is NaN"):
                    one_frame_delta(cloud, spec, trap_cam, convexity=DeltaConvexity(0.01))


class TestOneFrameDelta:
    def test_never_exceeds_exact_on_convex_scenes(self, demo_cam):
        scene = build_demo_scene(ShapeClass.STRIPED_WALL, 1)
        one_frame = extract_one_frame(scene.cloud, demo_cam)
        conv = DeltaConvexity(DEMO_CONVEXITY_DELTA)
        for spec in demo_specs():
            assert check_delta_convexity(
                scene.cloud, one_frame, conv, spec, demo_cam, samples=60
            )
            de = exact_delta(scene.cloud, spec, demo_cam, 1201, quantile=1.0)
            do = one_frame_delta(
                one_frame, spec, demo_cam, 1201, conv, quantile=1.0
            )
            assert 0 < do <= de

    def test_vanishing_slack_recovers_lipschitz_on_single_point(self, cam):
        cloud, spec = single_point_scene(cam)
        dl = lipschitz_delta(cloud, spec, cam, 1501, quantile=1.0)
        do = one_frame_delta(
            cloud, spec, cam, 1501, DeltaConvexity(1e-9), quantile=1.0
        )
        assert do <= dl
        assert do == pytest.approx(dl, rel=1e-5)

    def test_tx_margin_form(self, cam):
        # C_delta is zero for TX, so the bound is (span - 2*delta) / max L
        cloud, spec = single_point_scene(cam)
        res, delta_px = 1501, 0.2
        step = 2 * spec.radius_b / (res - 1)
        do = one_frame_delta(
            cloud, spec, cam, res, DeltaConvexity(delta_px), quantile=1.0
        )
        lip = cam.fx / float(cloud.points[0, 2])
        ivals = consistent_intervals(cloud, spec, cam, res)
        spans = [lip * (iv.hi - iv.lo) for iv in ivals]  # constant rate
        expect = (min(spans) - 2 * delta_px) / lip - step
        assert do == pytest.approx(expect, rel=1e-6)

    def test_oversized_slack_raises(self, cam):
        cloud, spec = single_point_scene(cam)
        with pytest.raises(NegativeMargin):
            one_frame_delta(cloud, spec, cam, 1501, DeltaConvexity(5.0), 1.0)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf, "0.1", True])
    def test_convexity_delta_must_be_positive_and_finite(self, delta):
        with pytest.raises(ConfigError, match="convexity delta must be positive and finite"):
            DeltaConvexity(delta)

    def test_requires_convexity_prior(self, cam):
        cloud, spec = single_point_scene(cam)
        with pytest.raises(ConfigError, match="requires a convexity delta"):
            one_frame_delta(cloud, spec, cam, 1501, None, 1.0)

    def test_bare_float_convexity_rejected(self, cam):
        # the CLI's --delta is a float: passed on bare, it must fail here,
        # not where the delta is read
        cloud, spec = single_point_scene(cam)
        with pytest.raises(ConfigError, match="requires a convexity delta"):
            one_frame_delta(cloud, spec, cam, 1501, 0.015, 1.0)

    @pytest.mark.parametrize("convexity", [0.015, "0.015", 1])
    def test_interval_config_rejects_bare_delta(self, convexity):
        # a bare float must fail here, not in certify's report after its work
        with pytest.raises(ConfigError, match="must be a DeltaConvexity or None"):
            IntervalConfig(convexity=convexity)


class TestCheckDeltaConvexity:
    def test_identical_clouds_vacuously_true(self, cam, two_point_cloud):
        spec = MotionSpec(Axis.TZ, 0.2)
        assert check_delta_convexity(
            two_point_cloud, two_point_cloud, DeltaConvexity(0.1), spec, cam, 20
        )

    def test_layered_scene_true(self, demo_cam):
        scene = build_demo_scene(ShapeClass.PLANE_BILLBOARD, 1)
        one_frame = extract_one_frame(scene.cloud, demo_cam)
        for spec in demo_specs():
            assert check_delta_convexity(
                scene.cloud,
                one_frame,
                DeltaConvexity(DEMO_CONVEXITY_DELTA),
                spec,
                demo_cam,
                samples=60,
            )

    def test_front_runner_breaks_convexity(self, cam):
        # the hidden point stays within delta of its one-frame neighbor at
        # every sampled pose, so only the depths decide: in front of the
        # neighbor it breaks the occlusion requirement, behind it it holds
        spec, delta, samples = MotionSpec(Axis.TX, 0.05), 2.0, 20
        poses = np.linspace(-spec.radius_b, spec.radius_b, samples)[:, None]
        front = ColoredPointCloud(np.array([[0.0, 0.0, 2.0]]), np.array([[0.9]]))
        for depth, holds in ((1.9, False), (2.1, True)):
            hidden = np.array([[0.0004, 0.0, depth]])
            full = ColoredPointCloud(np.vstack([front.points, hidden]),
                                     np.array([[0.9], [0.1]]))
            uv_f, _ = project_points(front.points, spec.axis, poses, cam)
            uv_h, _ = project_points(hidden, spec.axis, poses, cam)
            assert np.abs(uv_h - uv_f).max() <= delta
            assert check_delta_convexity(
                full, front, DeltaConvexity(delta), spec, cam, samples
            ) is holds

    def test_hidden_point_nearer_than_every_neighbor_fails(self, cam):
        # delta reaches the one-frame point at every pose, but it is deeper
        front = ColoredPointCloud(np.array([[0.0, 0.0, 2.0]]), np.array([[0.9]]))
        full = ColoredPointCloud(
            np.array([[0.0, 0.0, 2.0], [0.0004, 0.0, 1.0]]),
            np.array([[0.9], [0.1]]),
        )
        spec = MotionSpec(Axis.TX, 0.05)
        assert not check_delta_convexity(
            full, front, DeltaConvexity(100.0), spec, cam, 20
        )

    def test_isolated_hidden_point_fails(self, cam):
        front = ColoredPointCloud(np.array([[0.0, 0.0, 2.0]]), np.array([[0.9]]))
        full = ColoredPointCloud(
            np.array([[0.0, 0.0, 2.0], [0.5, 0.5, 3.0]]),
            np.array([[0.9], [0.1]]),
        )
        spec = MotionSpec(Axis.TX, 0.05)
        assert not check_delta_convexity(
            full, front, DeltaConvexity(0.5), spec, cam, 20
        )


    @pytest.mark.parametrize("samples", [2.7, "abc", 0, True])
    def test_samples_must_be_positive_integer(self, cam, two_point_cloud, samples):
        spec = MotionSpec(Axis.TZ, 0.2)
        with pytest.raises(ConfigError, match="samples must be a positive integer"):
            check_delta_convexity(two_point_cloud, two_point_cloud, DeltaConvexity(0.1),
                                  spec, cam, samples)

    def test_depth_at_floor_counts_as_behind_camera(self, cam):
        # both points sit on the optical axis, where RZ keeps their pixel and
        # depth: DEPTH_EPS / 2 at every probe pose, at or below the floor
        # under which the rasterizer draws nothing
        front = ColoredPointCloud(np.array([[0.0, 0.0, DEPTH_EPS / 4]]), np.array([[0.9]]))
        full = ColoredPointCloud(np.array([[0.0, 0.0, DEPTH_EPS / 4],
                                           [0.0, 0.0, DEPTH_EPS / 2]]),
                                 np.array([[0.9], [0.1]]))
        assert not check_delta_convexity(full, front, DeltaConvexity(0.5),
                                         MotionSpec(Axis.RZ, 0.1), cam, 3)


class TestBuildPartition:
    def test_three_values(self):
        plan = build_partition(1.0, MotionSpec(Axis.TX, 1.0))
        np.testing.assert_allclose(plan.values, [-1.0, 0.0, 1.0])
        assert plan.count == 3

    def test_endpoints_only(self):
        plan = build_partition(2.0, MotionSpec(Axis.TX, 1.0))
        assert plan.count == 2
        np.testing.assert_allclose(plan.values, [-1.0, 1.0])

    def test_spacing_never_exceeds_request(self):
        rng = np.random.default_rng(17)
        spec = MotionSpec(Axis.RY, 0.02)
        for _ in range(200):
            delta = rng.uniform(1e-5, 0.04)
            plan = build_partition(delta, spec)
            assert np.diff(plan.values).max() <= delta + 1e-15
            assert plan.values[0] == -spec.radius_b
            assert plan.values[-1] == spec.radius_b

    def test_paper_scale_partition_count(self):
        # a 10mm range at millimeter-scale spacing lands in the
        # thousands-of-frames regime
        spec = MotionSpec(Axis.TZ, 0.01)
        plan = build_partition(2 * 0.01 / 3500, spec)
        assert 3000 <= plan.count <= 4000

    def test_invalid_spacing(self):
        spec = MotionSpec(Axis.TX, 1.0)
        for bad in (0.0, -1.0, 2.5, float("nan")):
            with pytest.raises(InvalidDelta):
                build_partition(bad, spec)

    @pytest.mark.parametrize("bad", ["0.1", True, None])
    def test_non_number_spacing_raises_config_error(self, bad):
        with pytest.raises(ConfigError, match="spacing must be a real number") as err:
            build_partition(bad, MotionSpec(Axis.TX, 1.0))
        assert err.value.kind == "config_error"

    def test_json_payload(self):
        plan = build_partition(0.5, MotionSpec(Axis.RX, 1.0), CertMethod.LIPSCHITZ)
        payload = plan.to_json()
        assert payload["axis"] == "rx"
        assert payload["n"] == plan.count
        assert payload["method"] == "lipschitz"
        assert len(payload["values_digest"]) == 64
        again = build_partition(0.5, MotionSpec(Axis.RX, 1.0), CertMethod.LIPSCHITZ)
        assert again.to_json() == plan.to_json()


class TestPlanPartition:
    @pytest.mark.parametrize("method", list(CertMethod))
    def test_equals_bound_then_build_partition(self, demo_cam, method):
        scene = build_demo_scene(ShapeClass.SPHERE_CAP, 0)
        spec = demo_specs()[1]
        cfg = IntervalConfig(resolution=1201, quantile=1.0,
                             convexity=DeltaConvexity(DEMO_CONVEXITY_DELTA))
        plan = plan_partition(scene.cloud, spec, demo_cam, method, cfg)
        if method is CertMethod.EXACT:
            delta = exact_delta(scene.cloud, spec, demo_cam, 1201, 1.0)
        elif method is CertMethod.LIPSCHITZ:
            delta = lipschitz_delta(scene.cloud, spec, demo_cam, 1201, 1.0)
        else:
            delta = one_frame_delta(extract_one_frame(scene.cloud, demo_cam), spec,
                                    demo_cam, 1201, cfg.convexity, 1.0)
        expect = build_partition(delta, spec, method, 1.0)
        assert plan.delta_alpha == delta
        assert plan.to_json() == expect.to_json()
        np.testing.assert_array_equal(plan.values, expect.values)

    @pytest.mark.parametrize("method", list(CertMethod))
    @pytest.mark.parametrize("field, value, message", [
        ("resolution", 2001.0, "analysis resolution must be at least 2"),
        ("quantile", "1", "quantile must lie in"),
    ])
    def test_non_number_config_raises_config_error(self, demo_cam, method, field,
                                                   value, message):
        scene = build_demo_scene(ShapeClass.SPHERE_CAP, 0)
        cfg = IntervalConfig(convexity=DeltaConvexity(DEMO_CONVEXITY_DELTA),
                             **{field: value})
        with pytest.raises(ConfigError, match=message):
            plan_partition(scene.cloud, demo_specs()[1], demo_cam, method, cfg)

    @pytest.mark.parametrize("method", list(CertMethod))
    def test_method_by_value_plans_as_its_member(self, demo_cam, method):
        scene = build_demo_scene(ShapeClass.SPHERE_CAP, 0)
        cfg = IntervalConfig(resolution=1201, quantile=1.0,
                             convexity=DeltaConvexity(DEMO_CONVEXITY_DELTA))
        by_member = plan_partition(scene.cloud, demo_specs()[1], demo_cam, method, cfg)
        by_value = plan_partition(scene.cloud, demo_specs()[1], demo_cam, method.value,
                                  cfg)
        assert by_value.method is method
        assert by_value.to_json() == by_member.to_json()
        assert by_value.values.tobytes() == by_member.values.tobytes()

    @pytest.mark.parametrize("bad", ["bogus", "EXACT", None])
    def test_unknown_method_raises_config_error(self, demo_cam, bad):
        scene = build_demo_scene(ShapeClass.SPHERE_CAP, 0)
        with pytest.raises(ConfigError, match="unknown method") as err:
            plan_partition(scene.cloud, demo_specs()[1], demo_cam, bad, IntervalConfig())
        assert err.value.kind == "config_error"
