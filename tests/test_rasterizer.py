import itertools
import math
import struct
import tracemalloc

import numpy as np
import pytest

from pwscert import (
    Axis,
    ColoredPointCloud,
    FileFormatError,
    InvalidCloud,
    MotionSpec,
    ShapeMismatch,
    adjacent_frame_error,
    load_cloud,
    load_image,
    render,
    render_sweep,
    save_cloud,
    save_image,
)
from pwscert import rasterizer
from pwscert.errors import ConfigError
from pwscert.demo import build_demo_scene, demo_specs
from pwscert.geometry import (CameraModel, DEPTH_EPS, MotionValue, project_points,
                              projection_derivative_points)
from pwscert.intervals import _sweep_runs
from pwscert.rasterizer import (
    _BLOCK_ENTRIES,
    _cells,
    _horizon_changes,
    _traced_changes,
    sweep_images,
    zbuffer_blocks,
    zbuffer_changes,
    zbuffer_winners,
)
from pwscert.scenes import ShapeClass, generate_scene

from conftest import (axis_radius, lexsort_winners, oracle_sweep_runs,
                      random_visible_points, rotation_traps, sweep_traps)

TX1 = MotionSpec(Axis.TX, 1.0)


def change_poses(cloud, axis, values, cam):
    """The poses ``zbuffer_changes`` yields: those whose winners may differ
    from the pose before."""
    return [index for index, _ in zbuffer_changes(cloud, axis, values, cam)]


def winners_batch(cloud, axis, values, cam):
    """(T, H*W) winners of the T poses in ``values``, block by block."""
    return np.concatenate(list(zbuffer_blocks(cloud, axis, values, cam)))


def cells_at(points, axis, values, cam):
    """(T, N) ``_cells`` cell of each point at each pose in ``values``."""
    return _cells(*project_points(points, axis, np.reshape(values, (-1, 1)), cam), cam)


def at_rest(spec=TX1):
    return MotionValue(spec, 0.0)


class TestRender:
    def test_nearer_point_wins(self, cam, two_point_cloud):
        img = render(two_point_cloud, at_rest(), cam)
        assert img[0, 50, 50] == 0.1

    def test_empty_region_takes_background(self, cam, two_point_cloud):
        img = render_sweep(two_point_cloud, TX1, cam, [0.0], background=0.25)[0]
        assert img[0, 0, 0] == 0.25
        assert np.count_nonzero(img != 0.25) == 1

    @pytest.mark.parametrize("background", [2.0, -0.1, math.nan, "0.5", True, [0.5]])
    def test_background_outside_unit_range_rejected(self, cam, two_point_cloud,
                                                    background):
        # one real number in [0, 1]: every image stays inside [0, 1]
        with pytest.raises(ConfigError):
            render_sweep(two_point_cloud, TX1, cam, [0.0], background)

    def test_integer_position_lands_in_its_cell(self, cam):
        # projection (50.0, 50.0) exactly: floor puts it in pixel (50, 50)
        cloud = ColoredPointCloud(np.array([[0.0, 0.0, 2.0]]), np.array([[1.0]]))
        img = render(cloud, at_rest(), cam)
        assert img[0, 50, 50] == 1.0

    def test_pixel_convention_row_is_v(self, cam):
        # a point below the axis (Y>0) moves to a larger row, same column
        cloud = ColoredPointCloud(np.array([[0.0, 0.04, 2.0]]), np.array([[1.0]]))
        img = render(cloud, at_rest(), cam)
        assert img[0, 52, 50] == 1.0  # v = 100*0.04/2 + 50 = 52

    def test_behind_camera_skipped(self, cam):
        cloud = ColoredPointCloud(
            np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -1.0]]),
            np.array([[0.9], [0.2]]),
        )
        img = render(cloud, at_rest(), cam)
        assert img[0, 50, 50] == 0.9

    def test_depth_tie_breaks_by_lowest_index(self, cam):
        cloud = ColoredPointCloud(
            np.array([[0.0, 0.0, 2.0], [0.001, 0.001, 2.0]]),
            np.array([[0.3], [0.7]]),
        )
        img = render(cloud, at_rest(), cam)
        assert img[0, 50, 50] == 0.3

    def test_deterministic(self, cam):
        rng = np.random.default_rng(0)
        cloud = ColoredPointCloud(
            random_visible_points(rng, 500), rng.uniform(0, 1, (500, 3))
        )
        m = MotionValue(MotionSpec(Axis.RY, 0.05), 0.021)
        a = render(cloud, m, cam)
        b = render(cloud, m, cam)
        assert a.tobytes() == b.tobytes()

    def test_occlusion_exhaustive_recheck(self, small_cam):
        rng = np.random.default_rng(4)
        n = 800
        cloud = ColoredPointCloud(
            random_visible_points(rng, n, z_lo=1.0, z_hi=4.0),
            rng.uniform(0, 1, (n, 1)),
        )
        m = MotionValue(MotionSpec(Axis.RX, 0.1), 0.04)
        winners = zbuffer_winners(cloud, m.spec.axis, m.value, small_cam)
        from pwscert.geometry import project_points

        uv, depth = project_points(cloud.points, m.spec.axis, m.value, small_cam)
        for flat, w in enumerate(winners):
            r, c = divmod(flat, small_cam.width)
            best, best_d = -1, math.inf
            for i in range(n):
                if depth[i] <= 0:
                    continue
                if math.floor(uv[i, 1]) == r and math.floor(uv[i, 0]) == c:
                    if depth[i] < best_d:
                        best, best_d = i, depth[i]
            assert w == best

    def test_all_axes_identical_at_origin(self, cam):
        rng = np.random.default_rng(8)
        cloud = ColoredPointCloud(
            random_visible_points(rng, 300), rng.uniform(0, 1, (300, 2))
        )
        ref = render(cloud, MotionValue(MotionSpec(Axis.TX, 0.5), 0.0), cam)
        for axis in Axis:
            img = render(cloud, MotionValue(MotionSpec(axis, 0.5), 0.0), cam)
            assert img.tobytes() == ref.tobytes()


def awkward_cloud(rng, n):
    """Random cloud with exact depth ties, points behind the camera and
    points off the grid."""
    pts = random_visible_points(rng, n)
    pts[: n // 8] = pts[n // 8 : 2 * (n // 8)]  # duplicates: ties on every axis
    pts[2 * (n // 8) : 3 * (n // 8), 2] = pts[3 * (n // 8), 2]  # one shared depth
    pts[3 * (n // 8) : 4 * (n // 8), 2] *= -1.0  # behind the camera
    pts[4 * (n // 8) : 5 * (n // 8), 0] += 3.0  # right of the grid
    perm = rng.permutation(n)  # ties must not follow index order
    return ColoredPointCloud(pts[perm], rng.uniform(0, 1, (n, 2)))


class TestBatchedZBuffer:
    def test_matches_lexsort_on_all_axes(self, small_cam):
        rng = np.random.default_rng(21)
        cloud = awkward_cloud(rng, 600)
        for axis in Axis:
            b = axis_radius(axis)
            values = np.concatenate([[0.0, -b, b], rng.uniform(-b, b, 9)])
            got = winners_batch(cloud, axis, values, small_cam)
            assert got.shape == (len(values), small_cam.height * small_cam.width)
            for row, value in zip(got, values):
                oracle = lexsort_winners(cloud, axis, float(value), small_cam)
                np.testing.assert_array_equal(row, oracle)
                np.testing.assert_array_equal(
                    zbuffer_winners(cloud, axis, float(value), small_cam), oracle
                )

    def test_block_boundaries(self, small_cam):
        rng = np.random.default_rng(22)
        cloud = awkward_cloud(rng, 400)
        block = _BLOCK_ENTRIES // max(len(cloud), small_cam.height * small_cam.width)
        assert block > 2
        for axis in (Axis.TZ, Axis.RY):
            b = axis_radius(axis)
            for count in (1, block - 1, block, block + 1):
                values = np.linspace(-b, b, count)
                blocks = list(zbuffer_blocks(cloud, axis, values, small_cam))
                assert [len(blk) for blk in blocks[:-1]] == [block] * (len(blocks) - 1)
                rows = np.concatenate(blocks)
                assert len(rows) == count
                for row, value in zip(rows, values):
                    oracle = lexsort_winners(cloud, axis, float(value), small_cam)
                    np.testing.assert_array_equal(row, oracle)

    def test_cloud_beyond_block_budget_takes_one_pose_per_block(self, small_cam):
        rng = np.random.default_rng(23)
        cloud = awkward_cloud(rng, _BLOCK_ENTRIES + 5)
        values = [-0.1, 0.0, 0.07]
        blocks = list(zbuffer_blocks(cloud, Axis.RX, values, small_cam))
        assert [len(blk) for blk in blocks] == [1, 1, 1]
        for blk, value in zip(blocks, values):
            oracle = lexsort_winners(cloud, Axis.RX, value, small_cam)
            np.testing.assert_array_equal(blk[0], oracle)


class TestCells:
    # small_cam: 16 x 16 pixels, f = 16, c = 8, so u = 8 x / z + 8 at z = 2
    POINTS = {"on the grid": ([0.0, 0.0, 2.0], (9, 9)),
              "left": ([-2.0, 0.0, 2.0], (9, 0)),
              "right, on the border u = W": ([1.0, 0.0, 2.0], (9, 17)),
              "far right": ([1e300, 0.0, 2.0], (9, 17)),
              "above": ([0.0, -2.0, 2.0], (0, 9)),
              "below": ([0.0, 2.0, 2.0], (17, 9)),
              "behind the camera": ([0.0, 0.0, -2.0], None)}

    def test_cells_match_the_kernel(self, small_cam):
        ring = small_cam.width + 2
        behind = (small_cam.height + 2) * ring
        for name, (point, padded) in self.POINTS.items():
            cloud = ColoredPointCloud([point], [[0.7]])
            uv, depth, cell, winners = rasterizer._zbuffer(cloud, Axis.TX, [0.0], small_cam)
            want = behind if padded is None else padded[0] * ring + padded[1]
            assert cell.tolist() == [[want]] == _cells(uv, depth, small_cam).tolist(), name
            on_grid = name == "on the grid"
            assert winners[0, 8 * small_cam.width + 8] == (0 if on_grid else -1), name
            assert np.count_nonzero(winners >= 0) == on_grid, name

    def test_grid_is_built_once_and_read_only(self):
        size, pixels = rasterizer._grid(2, 3)
        # a 4 x 5 padded grid and one cell behind the camera
        assert size == 21 and pixels.tolist() == [6, 7, 8, 11, 12, 13]
        assert rasterizer._grid(2, 3)[1] is pixels
        with pytest.raises(ValueError, match="read-only"):
            pixels[0] = 0

    def test_nan_pose_reaches_no_pixel(self, small_cam):
        cloud = ColoredPointCloud([p for p, _ in self.POINTS.values()],
                                  np.full((len(self.POINTS), 1), 0.7))
        ring = small_cam.width + 2
        behind = (small_cam.height + 2) * ring
        for axis in Axis:
            with np.errstate(invalid="ignore"):  # NaN depths under TZ
                uv, depth, cell, winners = rasterizer._zbuffer(cloud, axis, [math.nan],
                                                               small_cam)
            np.testing.assert_array_equal(cell, _cells(uv, depth, small_cam))
            assert np.all(winners == -1), axis
            # NaN coordinates clamp to the ring; a NaN depth is behind the camera
            assert set(cell.ravel()) <= {behind, *range(ring), *range(0, behind, ring)}

    def test_horizon_ignores_rivals_off_the_grid(self, small_cam):
        # points 1 and 2 share a ring cell left of the grid and swap depth
        # order at a = 0.002; no pixel shows either, so the swap must not
        # cut the horizon short, and pose 0 is the only pose z-buffered
        cloud = ColoredPointCloud(
            [[0.125, 0.125, 4.0], [-1.0, 0.03125, 1.0], [-1.05, 0.03125, 1.0001]],
            [[0.2], [0.5], [0.9]])
        spec = MotionSpec(Axis.RY, 0.005)
        values = np.linspace(-spec.radius_b, spec.radius_b, 201)
        cells = cells_at(cloud.points, Axis.RY, values, small_cam)
        assert np.all(cells[:, 1:] == cells[0, 1]) and cells[0, 1] % 18 == 0
        assert change_poses(cloud, Axis.RY, values, small_cam) == [0]
        np.testing.assert_array_equal(
            per_pose(zbuffer_changes(cloud, Axis.RY, values, small_cam), len(values)),
            winners_batch(cloud, Axis.RY, values, small_cam))


class TestRenderSweep:
    def test_single_value_equals_render(self, cam, two_point_cloud):
        spec = MotionSpec(Axis.TZ, 0.2)
        frames = render_sweep(two_point_cloud, spec, cam, [0.0])
        direct = render(two_point_cloud, MotionValue(spec, 0.0), cam)
        assert frames[0].tobytes() == direct.tobytes()

    def test_on_axis_point_invariant_under_rz(self, cam):
        cloud = ColoredPointCloud(np.array([[0.0, 0.0, 2.0]]), np.array([[0.8]]))
        spec = MotionSpec(Axis.RZ, 0.3)
        frames = render_sweep(cloud, spec, cam, [-0.3, 0.0, 0.3])
        assert frames[0].tobytes() == frames[1].tobytes() == frames[2].tobytes()

    def test_sweep_stays_in_range(self, cam):
        rng = np.random.default_rng(2)
        cloud = ColoredPointCloud(
            random_visible_points(rng, 400), rng.uniform(0, 1, (400, 3))
        )
        spec = MotionSpec(Axis.TY, 0.15)
        frames = render_sweep(cloud, spec, cam, np.linspace(-0.15, 0.15, 11))
        for a, b in zip(frames, frames[1:]):
            err = adjacent_frame_error(a, b)
            assert math.isfinite(err)
        for f in frames:
            assert f.min() >= 0.0 and f.max() <= 1.0

    def test_equals_per_pose_render(self, small_cam):
        rng = np.random.default_rng(24)
        cloud = awkward_cloud(rng, 500)
        for axis in Axis:
            spec = MotionSpec(axis, axis_radius(axis) / 16)
            ramp = np.linspace(-spec.radius_b, spec.radius_b, 70)  # > one block
            lists = {"sorted": ramp, "unsorted": rng.permutation(ramp),
                     "repeated": np.repeat(ramp[::3], 3)}
            for kind, values in lists.items():
                frames = render_sweep(cloud, spec, small_cam, values, background=0.3)
                assert len(frames) == len(values)
                for frame, value in zip(frames, values):
                    direct = render_sweep(cloud, spec, small_cam, [value], 0.3)[0]
                    assert frame.tobytes() == direct.tobytes(), (axis, kind, value)
                # owners change inside the range, but not at every pose
                distinct = {f.tobytes() for f in frames}
                assert 1 < len(distinct) < len(values), (axis, kind)
            if not axis.is_rotation:  # sorted translation sweeps skip poses
                assert len(change_poses(cloud, axis, ramp, small_cam)) < len(ramp)

    def test_repeated_frames_are_separate_arrays(self, cam):
        # one near point moves 10 px by pose 3; 15 far points stay in their
        # cells, so the sweep skips poses 1, 2 and 4
        far = [[10.0 * k + 5.0, 0.0, 1000.0] for k in range(15)]
        cloud = ColoredPointCloud([[0.005, 0.0, 1.0]] + far, np.full((16, 1), 0.9))
        values = [0.0, 0.0, 0.0, 0.1, 0.1]
        assert change_poses(cloud, Axis.TX, values, cam) == [0, 3]
        frames = render_sweep(cloud, TX1, cam, values)
        assert frames[0].tobytes() != frames[3].tobytes()
        for a, b in itertools.combinations(frames, 2):
            assert not np.shares_memory(a, b)

    def test_value_outside_range_rejected(self, cam, two_point_cloud):
        with pytest.raises(ValueError):
            render_sweep(two_point_cloud, MotionSpec(Axis.TZ, 0.2), cam, [0.0, 0.3])


class TestSweepImages:
    def test_index_expands_to_per_pose_render(self, small_cam):
        rng = np.random.default_rng(25)
        cloud = awkward_cloud(rng, 500)
        for axis in Axis:
            spec = MotionSpec(axis, axis_radius(axis) / 16)
            ramp = np.linspace(-spec.radius_b, spec.radius_b, 70)  # > one block
            lists = {"sorted": ramp, "unsorted": rng.choice(ramp, 60),
                     "one": ramp[40:41], "empty": ramp[:0]}
            assert len(set(lists["unsorted"])) < 60  # repeats
            for kind, values in lists.items():
                images, index = sweep_images(cloud, spec, small_cam, values,
                                             background=0.3)
                assert len(index) == len(values)
                # pairwise distinct, and numbered in order of first appearance
                assert len({image.tobytes() for image in images}) == len(images)
                assert not any(image.flags.writeable for image in images)
                first = [index.tolist().index(k) for k in range(len(images))]
                assert first == sorted(first) and set(index) == set(range(len(images)))
                for i, value in zip(index, values):
                    direct = render_sweep(cloud, spec, small_cam, [value], 0.3)[0]
                    assert images[i].tobytes() == direct.tobytes(), (axis, kind)
            if not axis.is_rotation:  # sorted translation sweeps skip poses
                assert len(sweep_images(cloud, spec, small_cam, ramp)[0]) < len(ramp)

    def test_render_sweep_frames_are_independent(self, cam):
        far = [[10.0 * k + 5.0, 0.0, 1000.0] for k in range(15)]
        cloud = ColoredPointCloud([[0.005, 0.0, 1.0]] + far, np.full((16, 1), 0.9))
        values = [0.0, 0.0, 0.0, 0.1, 0.1]
        frames = render_sweep(cloud, TX1, cam, values)
        for j in range(len(frames)):
            before = [f.copy() for f in frames]
            frames[j][:] = -1.0
            for k, (frame, kept) in enumerate(zip(frames, before)):
                if k != j:
                    np.testing.assert_array_equal(frame, kept)
            frames[j][:] = before[j]

    @pytest.mark.parametrize("values, first_bad", [
        ([0.0, 0.3, -0.25, np.nan], 0.3),
        ([0.1, np.nan, 0.3], np.nan),
        ([-0.2000001], -0.2000001),
    ])
    def test_first_value_outside_range_named(self, cam, two_point_cloud, values,
                                             first_bad):
        spec = MotionSpec(Axis.TZ, 0.2)
        with pytest.raises(ConfigError) as want:
            MotionValue(spec, first_bad)
        for fn in (sweep_images, render_sweep):
            with pytest.raises(ConfigError) as got:
                fn(two_point_cloud, spec, cam, values)
            assert str(got.value) == str(want.value)


def per_pose(changes, count):
    """Winners of every pose from ``zbuffer_changes`` output: each pose
    takes the winners of the last change at or before it."""
    rows, last = [], None
    changes = dict(changes)
    for t in range(count):
        last = changes.get(t, last)
        rows.append(last)
    return np.array(rows)


def rule_changes(cloud, axis, values, cam):
    """The pose-skipping rule's ``zbuffer_changes`` output for a sorted
    list of one pose or more, even one that ``zbuffer_changes`` z-buffers
    in one kernel block, or None where the rule falls back."""
    values = np.asarray(values, dtype=np.float64)
    assert len(values) >= 1 and np.all(values[1:] >= values[:-1])
    rule = _horizon_changes if axis.is_rotation else _traced_changes
    return rule(cloud, axis, values, cam)


@pytest.fixture
def kernel_poses(monkeypatch):
    """The poses of each ``_zbuffer`` call made while the test runs: every
    z-buffered pose, in or out of a block, goes through the kernel."""
    kernel, poses = rasterizer._zbuffer, []

    def counting(cloud, axis, values, cam):
        poses.append(np.size(values))
        return kernel(cloud, axis, values, cam)

    monkeypatch.setattr(rasterizer, "_zbuffer", counting)
    return poses


# One lane per case of the movers-only re-pick, each point given by its
# pixel (u, v) at the first pose of np.linspace(-0.3, 0.3, 301) and its z,
# on the 16 px small_cam: under TX (and TY, with u and v swapped) every point
# moves 9.6 / z px toward smaller u, under TZ its offset from the principal
# point grows by (z + 0.3) / (z - 0.3).  F: fixed, M: mover, W: the winner
# that leaves, S: the point that stays.
REPICK_LANES = {
    "lateral": {"F1": (5.9, 2.5, 15), "M1": (6.15, 2.5, 30),
                "F2": (5.7, 4.5, 20), "M2": (6.4, 4.5, 12),
                "W3": (5.3, 6.5, 12), "S3": (5.9, 6.5, 20),
                "W4": (5.3, 9.5, 12),
                "M5a": (10.3, 11.5, 12), "M5b": (10.3, 12.5, 12),
                "M6": (4.5, 14.5, 1.0)},
    "radial": {"F1": (13.5, 2.5, 15), "M1": (12.95, 2.5, 30),
               "F2": (13.5, 4.5, 20), "M2": (12.85, 4.5, 12),
               "W3": (13.85, 6.5, 12), "S3": (13.3, 6.5, 20),
               "W4": (13.85, 10.5, 12),
               "M5a": (13.85, 11.5, 12), "M5b": (13.85, 12.5, 12),
               "M6": (12.5, 8.0, 1.0)},
}


def repick_scene(axis, cam):
    """The ``REPICK_LANES`` cloud of a translation axis, and each name's index."""
    lanes = REPICK_LANES["radial" if axis is Axis.TZ else "lateral"]
    first = -0.3
    points = []
    for u, v, z in lanes.values():
        if axis is Axis.TY:
            u, v = v, u
        depth = z - first if axis is Axis.TZ else z
        points.append([(u - cam.cx) * depth / cam.fx + (first if axis is Axis.TX else 0.0),
                       (v - cam.cy) * depth / cam.fy + (first if axis is Axis.TY else 0.0), z])
    colors = np.linspace(0.1, 0.9, len(points))[:, None]
    return ColoredPointCloud(points, colors), {name: i for i, name in enumerate(lanes)}


class TestChangePoses:
    def test_traps_match_per_pose_kernel(self, small_cam):
        for name, cloud, spec, resolution in sweep_traps(small_cam):
            values = np.linspace(-spec.radius_b, spec.radius_b, resolution)
            want = np.concatenate(list(zbuffer_blocks(cloud, spec.axis, values,
                                                      small_cam)))
            got = per_pose(zbuffer_changes(cloud, spec.axis, values, small_cam),
                           resolution)
            np.testing.assert_array_equal(got, want, err_msg=name)
            changed = np.flatnonzero(np.any(want[1:] != want[:-1], axis=1)) + 1
            assert changed.size, name  # owners do change inside the range

    @pytest.mark.parametrize("axis", [Axis.TX, Axis.TY, Axis.TZ])
    def test_repick_cases_match_per_pose_kernel(self, small_cam, axis):
        cloud, at = repick_scene(axis, small_cam)
        values = np.linspace(-0.3, 0.3, 301)
        want = winners_batch(cloud, axis, values, small_cam)
        changes = dict(zbuffer_changes(cloud, axis, values, small_cam))
        assert len(changes) < 20  # traced, not z-buffered pose by pose
        np.testing.assert_array_equal(per_pose(changes.items(), len(values)), want)
        cells = cells_at(cloud.points, axis, values, small_cam)
        ring = small_cam.width + 2

        def change(name):  # the one pose the point changes cell, and its pixels
            i = at[name]
            (t,) = np.flatnonzero(cells[1:, i] != cells[:-1, i]) + 1
            row, col = np.divmod(cells[t - 1 : t + 1, i], ring)
            return t, (row - 1) * small_cam.width + col - 1

        for fixed in ("F1", "F2", "S3"):
            assert np.all(cells[:, at[fixed]] == cells[0, at[fixed]]), fixed
        # a mover enters a cell whose fixed winner is nearer (lower rank) ...
        t, (_, into) = change("M1")
        assert want[t - 1, into] == want[t, into] == at["F1"]
        # ... and one whose fixed winner is farther
        t, (_, into) = change("M2")
        assert want[t - 1, into] == at["F2"] and want[t, into] == at["M2"]
        # the winner leaves a cell where another point stays, and one where none does
        t, (left, _) = change("W3")
        assert want[t - 1, left] == at["W3"] and want[t, left] == at["S3"]
        t, (left, _) = change("W4")
        assert want[t - 1, left] == at["W4"] and want[t, left] == -1
        # two movers change cell at one pose
        assert change("M5a")[0] == change("M5b")[0]
        # a mover crosses several cells into the ring, in front of the camera
        path = cells[:, at["M6"]]
        row, col = np.divmod(path[-1], ring)
        assert len(set(path.tolist())) >= 4 and path[-1] < (small_cam.height + 2) * ring
        assert not (1 <= row <= small_cam.height and 1 <= col <= small_cam.width)

    @pytest.mark.parametrize("name, poses", [("one change, at pose 1", [1]),
                                             ("one change, at the last pose", [300]),
                                             ("changes at two adjacent poses", [150, 151])])
    def test_bracket_traps_are_what_they_say(self, small_cam, name, poses):
        cloud, spec, resolution = next(trap[1:] for trap in sweep_traps(small_cam)
                                       if trap[0] == name)
        values = np.linspace(-spec.radius_b, spec.radius_b, resolution)
        cells = cells_at(cloud.points[:1], spec.axis, values, small_cam)[:, 0]
        assert (np.flatnonzero(cells[1:] != cells[:-1]) + 1).tolist() == poses
        # the near point, index 0, owns a pixel at every pose
        assert np.all(np.any(winners_batch(cloud, spec.axis, values, small_cam) == 0, axis=1))

    def test_traps_skip_poses(self, small_cam):
        traps = sweep_traps(small_cam)[:-1]  # the last forces every pose
        for name, cloud, spec, resolution in traps:
            values = np.linspace(-spec.radius_b, spec.radius_b, resolution)
            assert len(change_poses(cloud, spec.axis, values, small_cam)) < resolution / 2, name

    def test_grid_crossing_inside_one_coarse_window(self, small_cam):
        name, cloud, spec, resolution = sweep_traps(small_cam)[0]
        values = np.linspace(-spec.radius_b, spec.radius_b, resolution)
        window = math.isqrt(resolution - 1) + 1
        lo, hi = 5 * window, 6 * window
        cells = cells_at(cloud.points[:1], spec.axis, values[lo : hi + 1], small_cam)[:, 0]
        cols = cells % (small_cam.width + 2) - 1
        # off the grid on both sides at the window's ends, and on it between
        assert {cols[0], cols[-1]} == {-1, small_cam.width}
        owners = per_pose(zbuffer_changes(cloud, spec.axis, values, small_cam),
                          resolution)
        shown = np.flatnonzero(np.any(owners == 0, axis=1))
        assert shown.size and lo < shown.min() and shown.max() < hi

    def test_depth_eps_crossing(self, small_cam):
        name, cloud, spec, resolution = sweep_traps(small_cam)[1]
        values = np.linspace(-spec.radius_b, spec.radius_b, resolution)
        centre = int(small_cam.cy) * small_cam.width + int(small_cam.cx)
        owners = per_pose(zbuffer_changes(cloud, spec.axis, values, small_cam),
                          resolution)[:, centre]
        # point 0 goes behind the camera at pose 200 with depth still above 0
        assert owners[199] == 0 and owners[200] == 1 and owners[201] == 3
        assert 0 < cloud.points[0, 2] - values[200] <= DEPTH_EPS

    def test_rounding_bound_forces_every_pose(self, small_cam):
        name, cloud, spec, resolution = sweep_traps(small_cam)[-1]
        values = np.linspace(-spec.radius_b, spec.radius_b, resolution)
        cells = cells_at(cloud.points, spec.axis, values, small_cam)
        centre = int(small_cam.cy) * small_cam.width + int(small_cam.cx)
        owners = winners_batch(cloud, spec.axis, values, small_cam)[:, centre]
        # no point changes cell, yet the owner does: where the two depths
        # round to one value, the smaller index wins the tie
        assert np.all(cells == cells[0])
        assert owners[0] == 0 and 1 in owners
        np.testing.assert_array_equal(
            change_poses(cloud, spec.axis, values, small_cam), np.arange(resolution))

    def test_short_and_irregular_lists(self, small_cam):
        rng = np.random.default_rng(25)
        traced = 0
        for name, cloud, spec, resolution in sweep_traps(small_cam):
            b = spec.radius_b
            lists = [[-b, b], [-b, 0.0, b], [b, -b, 0.0], [0.0, 0.0, b],
                     np.sort(rng.uniform(-b, b, 40))]
            for values in lists:
                want = np.concatenate(list(zbuffer_blocks(cloud, spec.axis, values,
                                                          small_cam)))
                got = per_pose(zbuffer_changes(cloud, spec.axis, values, small_cam),
                               len(values))
                np.testing.assert_array_equal(got, want, err_msg=f"{name} {values}")
                # the short sorted lists fit one block here, so run the tracer
                # on them too: on a larger cloud or camera it takes them
                if np.all(np.diff(values) >= 0):
                    changes = rule_changes(cloud, spec.axis, values, small_cam)
                    if changes is not None:
                        traced += 1
                        np.testing.assert_array_equal(per_pose(changes, len(values)), want,
                                                      err_msg=f"{name} {values}")
        assert traced >= 20, traced

    def test_rules_on_lists_of_one_to_three_poses(self, small_cam):
        # zbuffer_changes sends such lists to the rules on a cloud or camera
        # beyond one kernel block; here they fit one, so run the rules directly
        ruled = 0
        for seed in range(40):
            rng = np.random.default_rng(700 + seed)
            cloud = ColoredPointCloud(random_visible_points(rng, 300),
                                      rng.uniform(0, 1, (300, 1)))
            for axis in Axis:
                b = axis_radius(axis)
                for count in (1, 2, 3):
                    values = np.sort(rng.uniform(-b, b, count))
                    changes = rule_changes(cloud, axis, values, small_cam)
                    if changes is not None:
                        ruled += 1
                        np.testing.assert_array_equal(
                            per_pose(changes, count), winners_batch(cloud, axis, values, small_cam),
                            err_msg=f"seed {seed} {axis} {values}")
        assert ruled == 40 * 6 * 3, ruled

    @pytest.mark.parametrize("axis", [Axis.TX, Axis.TY, Axis.TZ])
    def test_translation_sweep_with_no_mover_yields_pose_0_only(self, small_cam, axis):
        # four points at pixel centres, each within 0.1 px of it at every pose;
        # the first two share a cell
        points = [[(u + 0.5 - small_cam.cx) * z / small_cam.fx,
                   (v + 0.5 - small_cam.cy) * z / small_cam.fy, z]
                  for u, v, z in [(3, 4, 2.0), (3, 4, 1.5), (10, 12, 2.5), (7, 1, 3.0)]]
        cloud = ColoredPointCloud(points, np.full((4, 1), 0.5))
        values = np.linspace(-0.002, 0.002, _BLOCK_ENTRIES // 256 + 1)  # two blocks
        cells = cells_at(cloud.points, axis, values, small_cam)
        assert np.all(cells == cells[0])
        ((pose, winners),) = zbuffer_changes(cloud, axis, values, small_cam)
        assert pose == 0
        np.testing.assert_array_equal(winners, zbuffer_winners(cloud, axis, values[0], small_cam))

    def test_random_translation_clouds(self, small_cam):
        traced = 0
        for seed in range(30):
            rng = np.random.default_rng(100 + seed)
            cloud = awkward_cloud(rng, int(rng.integers(8, 300)))
            axis = (Axis.TX, Axis.TY, Axis.TZ)[seed % 3]
            b = float(rng.choice([0.01, 0.05, 0.25]))
            values = np.sort(rng.uniform(-b, b, int(rng.integers(3, 200))))
            if seed % 2:
                values = np.repeat(values, 2)
            want = np.concatenate(list(zbuffer_blocks(cloud, axis, values, small_cam)))
            got = per_pose(zbuffer_changes(cloud, axis, values, small_cam), len(values))
            np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}")
            # lists that fit one block z-buffer every pose: run the tracer too
            changes = rule_changes(cloud, axis, values, small_cam)
            if changes is not None:
                traced += 1
                np.testing.assert_array_equal(per_pose(changes, len(values)), want,
                                              err_msg=f"seed {seed}")
        assert traced >= 28, traced

    def test_rotation_traps_are_what_they_say(self, trap_cam):
        traps = {name: (cloud, spec, res)
                 for name, cloud, spec, res in rotation_traps(trap_cam)}

        def project(name):
            cloud, spec, res = traps[name]
            values = np.linspace(-spec.radius_b, spec.radius_b, res)
            uv, depth = project_points(cloud.points, spec.axis, values[:, None], trap_cam)
            cells = _cells(uv, depth, trap_cam)
            owners = winners_batch(cloud, spec.axis, values, trap_cam)
            return uv, depth, cells, owners

        uv, _, _, _ = project("RZ v crosses a border and returns")
        rows = np.floor(uv[117:124, 0, 1])
        assert rows[0] == rows[1] == rows[-1] and set(rows[2:5]) == {rows[0] + 1}
        uv, _, _, _ = project("RX u crosses a border and returns")
        cols = np.floor(uv[177:184, 0, 0])
        assert cols[0] == cols[1] == cols[-1] and set(cols[2:5]) == {cols[0] - 1}
        for name, swap in (("RY depth swap in a shared cell", 150),
                           ("RY bit-identical (x, z) tie on index", 160)):
            _, depth, cells, owners = project(name)
            before, after = np.argmin(depth[swap : swap + 2], axis=1)
            assert before != after  # the nearest point changes, in one cell
            assert len({*cells[swap : swap + 2, [before, after]].ravel()}) == 1
            assert set(owners[swap]) != set(owners[swap + 1])
        _, depth, cells, owners = project("RY bit-identical (x, z) tie on index")
        assert np.array_equal(depth[:, 0], depth[:, 1])
        assert np.array_equal(cells[:, 0], cells[:, 1]) and 1 not in owners
        _, depth, _, _ = project("RY depths one ulp apart")
        tied = depth[:, 0] == depth[:, 1]
        assert tied.any() and not tied.all()
        uv, _, _, _ = project("RY point on a border at a sweep pose")
        assert uv[100, 0, 0] == math.floor(trap_cam.cx) + 3
        name = "RX depth passes through (0, DEPTH_EPS]"
        _, depth, _, _ = project(name)
        cloud, spec, res = traps[name]
        assert 0 < depth[200, 1] <= DEPTH_EPS
        assert _horizon_changes(cloud, spec.axis, np.linspace(-0.3, 0.3, res),
                                trap_cam) is None
        name = "RY rising v rounds back below its border"
        uv, _, cells, _ = project(name)
        cloud, spec, _ = traps[name]
        ends = projection_derivative_points(
            cloud.points, spec.axis, np.array([[-spec.radius_b], [spec.radius_b]]), trap_cam)
        assert np.all(ends[:, 0, 1] > 0)  # v is monotone, rising
        rows = np.floor(uv[:, 0, 1])
        assert uv[0, 0, 1] == math.floor(trap_cam.cy) + 2 and np.any(rows[1:] < rows[0])
        assert len(set(cells[:, 0])) == 2  # only v's row changes

    def test_rotation_traps_match_per_pose_kernel(self, trap_cam):
        for name, cloud, spec, resolution in rotation_traps(trap_cam):
            values = np.linspace(-spec.radius_b, spec.radius_b, resolution)
            for axis in (Axis.RX, Axis.RY, Axis.RZ):
                want = np.concatenate(list(zbuffer_blocks(cloud, axis, values, trap_cam)))
                changes = list(zbuffer_changes(cloud, axis, values, trap_cam))
                got = per_pose(changes, resolution)
                np.testing.assert_array_equal(got, want, err_msg=f"{name} {axis}")
                if axis is spec.axis:
                    assert np.any(want[1:] != want[:-1]), name
                if name.startswith("RY depth swap") and axis is Axis.RY:
                    assert len(changes) < resolution  # some poses are skipped
                # b = 0: no horizon, so every pose is z-buffered
                zeros = np.zeros(3)
                assert _horizon_changes(cloud, axis, zeros, trap_cam) is None
                np.testing.assert_array_equal(
                    per_pose(zbuffer_changes(cloud, axis, zeros, trap_cam), 3),
                    winners_batch(cloud, axis, zeros, trap_cam), err_msg=f"{name} {axis}")

    def test_rotation_traps_sweep_runs_match_oracle(self, trap_cam):
        for name, cloud, spec, resolution in rotation_traps(trap_cam):
            runs = _sweep_runs(cloud, spec, trap_cam, resolution)
            got = list(zip(runs.point_index, runs.pixel_flat, runs.lo, runs.hi))
            assert got == oracle_sweep_runs(cloud, spec, trap_cam, resolution), name

    def test_overflowing_rates_bound_no_skip(self, trap_cam):
        # the far point's rates at +-b overflow to NaN, which must bound
        # nothing: the sweep z-buffers pose by pose, not past its moves
        cloud = ColoredPointCloud([[1e159, 0.0, 1e160], [0.0, 0.0, 2.0]], [[0.2], [0.7]])
        values = np.linspace(-0.3, 0.3, 301)
        with np.errstate(over="ignore", invalid="ignore"):
            want = winners_batch(cloud, Axis.RY, values, trap_cam)
            got = per_pose(zbuffer_changes(cloud, Axis.RY, values, trap_cam), len(values))
        assert np.any(want[1:] != want[:-1])
        np.testing.assert_array_equal(got, want)

    def test_random_rotation_clouds(self, small_cam):
        skipped = 0
        for seed in range(30):
            rng = np.random.default_rng(300 + seed)
            n = int(rng.integers(8, 300))
            pts = random_visible_points(rng, n)
            pts[: n // 8] = pts[n // 8 : 2 * (n // 8)]  # duplicates: ties on every axis
            group = slice(2 * (n // 8), 3 * (n // 8))
            pts[group, 1:] = pts[3 * (n // 8), 1:]  # one (y, z): RX depth ties
            group = slice(3 * (n // 8), 4 * (n // 8))
            pts[group, ::2] = pts[4 * (n // 8), ::2]  # one (x, z): RY depth ties
            pts[4 * (n // 8) : 5 * (n // 8), 0] += 3.0  # right of the grid
            if seed % 5 == 0:
                pts[-1, 2] *= -1.0  # behind the camera: every pose
            cloud = ColoredPointCloud(pts[rng.permutation(n)], rng.uniform(0, 1, (n, 2)))
            axis = (Axis.RX, Axis.RY, Axis.RZ)[seed % 3]
            b = float(rng.choice([0.01, 0.05, 0.12]))
            values = np.sort(rng.uniform(-b, b, int(rng.integers(3, 200))))
            if seed % 4 == 1:
                values = np.repeat(values, 2)
            elif seed % 4 == 2:
                values = rng.permutation(values)
            want = np.concatenate(list(zbuffer_blocks(cloud, axis, values, small_cam)))
            changes = list(zbuffer_changes(cloud, axis, values, small_cam))
            np.testing.assert_array_equal(per_pose(changes, len(values)), want,
                                          err_msg=f"seed {seed}")
            # lists that fit one block z-buffer every pose: run the horizon rule too
            if seed % 4 != 2 and (changes := rule_changes(cloud, axis, values,
                                                          small_cam)) is not None:
                changes = list(changes)
                np.testing.assert_array_equal(per_pose(changes, len(values)), want,
                                              err_msg=f"seed {seed}")
                skipped += len(changes) < len(values)
        assert skipped >= 8  # the horizon rule, not only its fall-backs

    def test_demo_ry_sweeps_zbuffer_few_poses(self, demo_cam, kernel_poses):
        spec = demo_specs()[1]
        assert spec == MotionSpec(Axis.RY, 0.026)
        for shape in ShapeClass:
            cloud = build_demo_scene(shape, 0).cloud  # its build runs the kernel too
            kernel_poses.clear()
            _sweep_runs(cloud, spec, demo_cam, 2001)
            assert 0 < sum(kernel_poses) <= 24, (shape, sum(kernel_poses))  # not all 2,001

    def test_translation_sweeps_never_zbuffer(self, demo_cam, kernel_poses):
        spec = demo_specs()[0]
        assert spec == MotionSpec(Axis.TZ, 0.036)
        sweeps = [(build_demo_scene(shape, 0).cloud, spec, demo_cam)
                  for shape in ShapeClass]
        # the wild-certify profile: 64 px, layered, 12,000 points asked for
        wild_cam = CameraModel(fx=64.0, fy=64.0, cx=32.0, cy=32.0, width=64, height=64)
        wild = generate_scene(ShapeClass.BOX_FACE, 12000, (1.6, 2.4), 0, wild_cam,
                              channels=1, layered=True).cloud
        # a random cloud in which some point changes cell at nearly every pose
        dense_cam = CameraModel(fx=32.0, fy=32.0, cx=16.0, cy=16.0, width=32, height=32)
        rng = np.random.default_rng(31)
        dense = ColoredPointCloud(random_visible_points(rng, 2000), rng.uniform(0, 1, (2000, 1)))
        checked = [(wild, MotionSpec(Axis.TZ, 0.020), wild_cam, (100, 500)),
                   (dense, MotionSpec(Axis.TY, 0.25), dense_cam, (1500, 2001))]
        sweeps += [sweep[:3] for sweep in checked]
        for cloud, spec, cam in sweeps:
            kernel_poses.clear()
            _sweep_runs(cloud, spec, cam, 2001)
            assert sum(kernel_poses) == 0, (len(cloud), sum(kernel_poses))
        # the winners are the kernel's at every pose
        for cloud, spec, cam, (fewest, most) in checked:
            values = np.linspace(-spec.radius_b, spec.radius_b, 2001)
            changes = dict(zbuffer_changes(cloud, spec.axis, values, cam))
            assert fewest < len(changes) < most, len(changes)  # wild: 234, dense: 2000
            blocks, winners = zbuffer_blocks(cloud, spec.axis, values, cam), None
            for pose, want in enumerate(row for block in blocks for row in block):
                winners = changes.get(pose, winners)
                np.testing.assert_array_equal(winners, want, err_msg=str(pose))

    @pytest.mark.parametrize("axis, radius", [(Axis.TY, 0.25), (Axis.TZ, 0.8)])
    def test_dense_sweep_memory_stays_bounded(self, axis, radius):
        # 676 points, 2,000 asked for, of which 676 (TY) and 673 (TZ) change
        # cell; 1,285 and 1,788 of the 2,001 poses change a winner.  A
        # (poses, movers) cell track of all the change poses at once peaked
        # at 22.0 (TY) and 30.0 MB (TZ)
        cam = CameraModel(fx=32.0, fy=32.0, cx=16.0, cy=16.0, width=32, height=32)
        cloud = generate_scene(ShapeClass.PLANE_BILLBOARD, 2000, (1.6, 2.4), 0, cam,
                               channels=1).cloud
        tracemalloc.start()
        try:
            _sweep_runs(cloud, MotionSpec(axis, radius), cam, 2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_translation_projections_stay_within_the_block_bound(self, small_cam,
                                                                  monkeypatch):
        project, sizes = rasterizer.project_points, []

        def counting(points, axis, value, cam):
            uv, depth = project(points, axis, value, cam)
            sizes.append(depth.size)
            return uv, depth

        monkeypatch.setattr(rasterizer, "project_points", counting)
        # the dense TY cloud above, in which some point changes cell at nearly every pose
        dense_cam = CameraModel(fx=32.0, fy=32.0, cx=16.0, cy=16.0, width=32, height=32)
        rng = np.random.default_rng(31)
        dense = ColoredPointCloud(random_visible_points(rng, 2000), rng.uniform(0, 1, (2000, 1)))
        # a cloud beyond the budget in which every point changes cell
        n = _BLOCK_ENTRIES + 5
        wide = ColoredPointCloud(random_visible_points(rng, n), rng.uniform(0, 1, (n, 1)))
        ends = cells_at(wide.points, Axis.TX, [-0.1, 0.1], small_cam)
        assert np.all(ends[0] != ends[1])
        for cloud, spec, cam, poses in [(dense, MotionSpec(Axis.TY, 0.25), dense_cam, 2001),
                                        (wide, MotionSpec(Axis.TX, 0.1), small_cam, 12)]:
            values = np.linspace(-spec.radius_b, spec.radius_b, poses)
            sizes.clear()
            got = per_pose(zbuffer_changes(cloud, spec.axis, values, cam), poses)
            assert sum(sizes) > 2 * len(cloud)  # brackets were traced
            assert max(sizes) <= max(_BLOCK_ENTRIES, len(cloud)), (len(cloud), max(sizes))
            np.testing.assert_array_equal(got, winners_batch(cloud, spec.axis, values, cam))


class TestAdjacentFrameError:
    def test_identical_frames(self):
        img = np.full((3, 4, 4), 0.5)
        assert adjacent_frame_error(img, img) == 0.0

    def test_single_pixel_formula(self):
        a = np.zeros((1, 1, 1))
        b = np.ones((1, 1, 1))
        assert adjacent_frame_error(a, b) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_matches_fsum_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 1, (3, 17, 13))
        b = rng.uniform(0, 1, (3, 17, 13))
        # independent accumulation: exact summation in reversed order
        sq = [(x - y) ** 2 for x, y in zip(a.ravel()[::-1], b.ravel()[::-1])]
        oracle = math.sqrt(0.5 * math.fsum(sq))
        assert adjacent_frame_error(a, b) == pytest.approx(oracle, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            adjacent_frame_error(np.zeros((1, 2, 2)), np.zeros((1, 3, 2)))


class TestFileFormats:
    def test_image_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        img = rng.uniform(0, 1, (3, 6, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "frame.pwsi"
        save_image(path, img)
        raw = path.read_bytes()
        assert raw[:5] == b"PWSI1"
        k, h, w = np.frombuffer(raw[5:17], dtype="<u4")
        assert (k, h, w) == (3, 6, 5)
        back = load_image(path)
        np.testing.assert_array_equal(back, img)

    def test_image_layout_is_channel_row_column(self, tmp_path):
        img = np.arange(12, dtype=np.float64).reshape(2, 3, 2) / 12.0
        path = tmp_path / "f.pwsi"
        save_image(path, img)
        raw = np.frombuffer(path.read_bytes()[17:], dtype="<f4")
        np.testing.assert_allclose(raw, img.ravel(order="C"), rtol=1e-7)

    def test_cloud_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        cloud = ColoredPointCloud(
            random_visible_points(rng, 40), rng.uniform(0, 1, (40, 2))
        )
        path = tmp_path / "scene.pwspc"
        save_cloud(path, cloud)
        first = path.read_text().splitlines()[0]
        assert first == "PWSPC1 40 2"
        back = load_cloud(path)
        np.testing.assert_array_equal(back.points, cloud.points)
        np.testing.assert_array_equal(back.colors, cloud.colors)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.pwsi"
        path.write_bytes(b"NOPE!" + b"\0" * 16)
        with pytest.raises(ValueError):
            load_image(path)

    @pytest.mark.parametrize("text", [
        "PLY 1 1\n0 0 1 0.5\n",
        "PWSPC1 one 1\n0 0 1 0.5\n",
        "PWSPC1 2 1\n0 0 1 0.5\n",
        "PWSPC1 1 1\n0 0 1\n",
        "PWSPC1 1 1\n0 zero 1 0.5\n",
        "",
    ])
    def test_bad_cloud_file_rejected(self, tmp_path, text):
        path = tmp_path / "bad.pwspc"
        path.write_text(text)
        with pytest.raises(FileFormatError):
            load_cloud(path)

    def test_truncated_image_rejected_at_every_offset(self, tmp_path):
        path = tmp_path / "full.pwsi"
        save_image(path, np.full((2, 2, 3), 0.25))
        raw = path.read_bytes()
        cut = tmp_path / "cut.pwsi"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            with pytest.raises(FileFormatError):
                load_image(cut)

    @pytest.mark.parametrize("dims, body", [
        ((2**32 - 1,) * 3, 48),  # 4 * K * H * W overflows an index
        ((1, 1000, 1000), 48),
        ((2, 2, 3), 52),  # four bytes past the body
    ])
    def test_image_header_that_misstates_the_body_rejected(self, tmp_path, dims, body):
        path = tmp_path / "bad.pwsi"
        path.write_bytes(b"PWSI1" + struct.pack("<III", *dims) + bytes(body))
        with pytest.raises(FileFormatError, match="header says"):
            load_image(path)

    def test_two_dimensional_image_not_saved(self, tmp_path):
        with pytest.raises(ShapeMismatch):
            save_image(tmp_path / "flat.pwsi", np.zeros((4, 4)))

    def test_truncated_cloud_rejected_at_every_offset(self, tmp_path):
        path = tmp_path / "full.pwspc"
        save_cloud(path, ColoredPointCloud(np.array([[0.0, 0.0, 1.0]]),
                                           np.array([[0.123456]])))
        raw = path.read_bytes()
        cut = tmp_path / "cut.pwspc"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            with pytest.raises(FileFormatError):
                load_cloud(cut)


class TestCloudValidation:
    def test_color_range_enforced(self):
        with pytest.raises(ValueError):
            ColoredPointCloud(np.zeros((2, 3)), np.array([[1.2], [0.0]]))

    @pytest.mark.parametrize("points, colors", [
        ([[math.nan, 0, 1], [0, 0, math.inf]], [[math.nan], [0.5]]),
        ([[0, 0, 1], [0, -math.inf, 1]], [[0.2], [0.5]]),
        ([[0, 0, 1], [0, 0, 2]], [[0.2], [math.nan]]),
    ])
    def test_non_finite_rejected(self, points, colors):
        with pytest.raises(InvalidCloud):
            ColoredPointCloud(np.array(points), np.array(colors))

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ColoredPointCloud(np.zeros((2, 3)), np.zeros((3, 1)))

    @pytest.mark.parametrize("points, colors", [((2, 2), (2, 1)), ((2, 3), (2, 0))])
    def test_points_without_z_or_colors_rejected(self, points, colors):
        with pytest.raises(ShapeMismatch):
            ColoredPointCloud(np.zeros(points), np.zeros(colors))

    def test_empty_cloud_rejected(self):
        with pytest.raises(ShapeMismatch):
            ColoredPointCloud(np.zeros((0, 3)), np.zeros((0, 1)))
