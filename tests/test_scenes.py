import dataclasses
import json
import os

import numpy as np
import pytest

from pwscert import (
    Axis,
    CameraModel,
    ColoredPointCloud,
    ConfigError,
    EmptyFrame,
    FileFormatError,
    InvalidRange,
    MotionSpec,
    NonPositiveDepth,
    coverage_fraction,
    extract_one_frame,
    generate_scene,
    lipschitz_constants,
    load_corpus,
    render,
    save_corpus,
)
from pwscert.demo import build_demo_scene
from pwscert.geometry import DEPTH_EPS, MotionValue, project_points
from pwscert.scenes import _SWEEP_PROBES, ShapeClass, _drift_spans

from conftest import axis_radius, drift_spans_loop, random_visible_points


class TestGenerateScene:
    def test_same_seed_identical(self, demo_cam):
        a = generate_scene(ShapeClass.SPHERE_CAP, 800, (1.5, 2.5), 7, demo_cam,
                           channels=2)
        b = generate_scene(ShapeClass.SPHERE_CAP, 800, (1.5, 2.5), 7, demo_cam,
                           channels=2)
        assert a.cloud.points.tobytes() == b.cloud.points.tobytes()
        assert a.cloud.colors.tobytes() == b.cloud.colors.tobytes()
        assert a.label == b.label == ShapeClass.SPHERE_CAP.value

    def test_seed_changes_cloud(self, demo_cam):
        a = generate_scene(ShapeClass.SPHERE_CAP, 800, (1.5, 2.5), 7, demo_cam)
        b = generate_scene(ShapeClass.SPHERE_CAP, 800, (1.5, 2.5), 8, demo_cam)
        assert a.cloud.points.tobytes() != b.cloud.points.tobytes()

    def test_coverage_threshold(self, demo_cam):
        scene = generate_scene(ShapeClass.STRIPED_WALL, 2000, (1.5, 2.5), 1,
                               demo_cam)
        assert coverage_fraction(scene.cloud, demo_cam) >= 0.5

    def test_classes_distinguishable_by_intensity(self, demo_cam):
        means = []
        for cls in ShapeClass:
            scene = generate_scene(cls, 800, (1.5, 2.5), 3, demo_cam, channels=1)
            means.append(float(scene.cloud.colors.mean()))
        gaps = np.diff(sorted(means))
        assert np.all(gaps > 0.08)

    def test_too_few_points(self, demo_cam):
        with pytest.raises(InvalidRange):
            generate_scene(ShapeClass.BOX_FACE, 50, (1.5, 2.5), 0, demo_cam)

    @pytest.mark.parametrize("field, value", [
        ("point_count", 500.0), ("point_count", "500"), ("point_count", True),
        ("color_seed", 1.5), ("color_seed", "1"), ("color_seed", True), ("color_seed", -1),
        ("channels", 1.0), ("channels", True), ("channels", 0),
        ("depth_range", ("1.5", 2.5)), ("depth_range", (1.5, None)),
        ("depth_range", (True, 2.5)),
    ])
    def test_bad_numbers_rejected(self, demo_cam, field, value):
        args = dict(point_count=500, depth_range=(1.5, 2.5), color_seed=0, channels=1)
        with pytest.raises(ConfigError, match=field.split("_")[0]):
            generate_scene(ShapeClass.BOX_FACE, cam=demo_cam, **{**args, field: value})

    @pytest.mark.parametrize("channels", [17, 2**70])
    def test_channels_past_16_are_refused(self, demo_cam, channels):
        # 2^70 ended in numpy's bare ValueError from the colors
        with pytest.raises(ConfigError, match=f"channels must be an integer from 1 to 16, "
                                              f"got {channels}"):
            generate_scene(ShapeClass.BOX_FACE, 500, (1.5, 2.5), 0, demo_cam, channels=channels)
        assert generate_scene(ShapeClass.BOX_FACE, 500, (1.5, 2.5), 0, demo_cam,
                              channels=16).cloud.channels == 16

    def test_numpy_numbers_accepted(self, demo_cam):
        a = generate_scene(ShapeClass.BOX_FACE, np.int64(800), np.array([1.5, 2.5]),
                           np.uint8(3), demo_cam, channels=np.int32(1))
        b = generate_scene(ShapeClass.BOX_FACE, 800, (1.5, 2.5), 3, demo_cam, channels=1)
        assert a.name == b.name == "box_face_3"
        np.testing.assert_array_equal(a.cloud.points, b.cloud.points)

    def test_bad_depth_band(self, demo_cam):
        with pytest.raises(InvalidRange):
            generate_scene(ShapeClass.BOX_FACE, 500, (2.5, 1.5), 0, demo_cam)
        with pytest.raises(InvalidRange):
            generate_scene(ShapeClass.BOX_FACE, 500, (1.0, 12.0), 0, demo_cam)

    def test_shallow_scene_fails_downstream(self, demo_cam):
        # generation succeeds at (0.1, 0.2) but a forward range reaching
        # the scene depth puts points behind the camera
        scene = generate_scene(ShapeClass.PLANE_BILLBOARD, 700, (0.1, 0.2), 0,
                               demo_cam)
        with pytest.raises(NonPositiveDepth):
            lipschitz_constants(
                scene.cloud.points, MotionSpec(Axis.TZ, 0.19), demo_cam
            )

    def test_layered_scene_has_hidden_copies(self, demo_cam):
        plain = generate_scene(ShapeClass.BOX_FACE, 900, (1.5, 2.5), 2, demo_cam,
                               layered=False)
        layered = generate_scene(ShapeClass.BOX_FACE, 900, (1.5, 2.5), 2,
                                 demo_cam, layered=True)
        assert len(layered.cloud) > len(extract_one_frame(layered.cloud, demo_cam))
        assert coverage_fraction(plain.cloud, demo_cam) >= 0.5

    def test_layered_random_scene_subsamples_grid_cells(self):
        # 64 px with an 8 % margin leaves 54 x 54 = 2,916 cells; a layered
        # scene of 5,000 points has a budget of 2,500 of them
        cam = CameraModel(fx=64.0, fy=64.0, cx=32.0, cy=32.0, width=64, height=64)
        scenes = [generate_scene(ShapeClass.SPHERE_CAP, 5000, (1.6, 2.4), 3, cam,
                                 channels=1, layered=True) for _ in range(2)]
        np.testing.assert_array_equal(scenes[0].cloud.points, scenes[1].cloud.points)
        np.testing.assert_array_equal(scenes[0].cloud.colors, scenes[1].cloud.colors)
        cloud = scenes[0].cloud
        assert len(cloud) == 5000  # 2,500 front points and their back copies
        assert len(extract_one_frame(cloud, cam)) == 2500


class TestDriftSpans:
    @pytest.mark.parametrize("axis", list(Axis))
    def test_matches_per_probe_loop(self, cam, axis):
        pts = random_visible_points(np.random.default_rng(17), 300)
        specs = (MotionSpec(axis, axis_radius(axis)), MotionSpec(Axis.TZ, 0.1))
        lo, hi = _drift_spans(pts, specs, cam)
        assert lo.shape == hi.shape == (2, 300, 2)
        for k, (au, bu, av, bv) in enumerate(drift_spans_loop(pts, specs, cam,
                                                              _SWEEP_PROBES)):
            np.testing.assert_array_equal(lo[k], np.column_stack([au, av]))
            np.testing.assert_array_equal(hi[k], np.column_stack([bu, bv]))

    def test_point_behind_camera_rejected(self, cam):
        with pytest.raises(InvalidRange, match="too shallow"):
            _drift_spans(np.array([[0.0, 0.0, 0.1]]), (MotionSpec(Axis.TZ, 0.2),), cam)

    def test_point_at_depth_floor_rejected(self, cam):
        # depth DEPTH_EPS / 2 at the last probe pose, where the rasterizer
        # puts the point behind the camera
        pts = np.array([[0.0, 0.0, 0.2 + DEPTH_EPS / 2]])
        _, depth = project_points(pts, Axis.TZ, 0.2, cam)
        assert 0 < depth[0] <= DEPTH_EPS
        with pytest.raises(InvalidRange, match="too shallow"):
            _drift_spans(pts, (MotionSpec(Axis.TZ, 0.2),), cam)


class TestExtractOneFrame:
    def test_single_point(self, cam):
        cloud = ColoredPointCloud(np.array([[0.0, 0.0, 2.0]]), np.array([[0.4]]))
        out = extract_one_frame(cloud, cam)
        assert len(out) == 1
        np.testing.assert_array_equal(out.points, cloud.points)

    def test_occluded_pair_keeps_front(self, cam, two_point_cloud):
        out = extract_one_frame(two_point_cloud, cam)
        assert len(out) == 1
        assert out.points[0, 2] == 1.0

    def test_off_screen_cloud_raises(self, cam):
        cloud = ColoredPointCloud(np.array([[50.0, 0.0, 2.0]]), np.array([[0.4]]))
        with pytest.raises(EmptyFrame):
            extract_one_frame(cloud, cam)

    def test_subset_and_rerender_identity(self, demo_cam):
        scene = build_demo_scene(ShapeClass.SPHERE_CAP, 1)
        one_frame = extract_one_frame(scene.cloud, demo_cam)
        assert len(one_frame) <= demo_cam.width * demo_cam.height
        full_keys = {p.tobytes() for p in scene.cloud.points}
        assert all(p.tobytes() in full_keys for p in one_frame.points)
        m = MotionValue(MotionSpec(Axis.TX, 1.0), 0.0)
        ref = render(scene.cloud, m, demo_cam)
        sub = render(one_frame, m, demo_cam)
        np.testing.assert_array_equal(ref, sub)


class TestCorpusIO:
    def test_roundtrip(self, tmp_path, demo_cam):
        scenes = [
            generate_scene(cls, 700, (1.5, 2.5), 5, demo_cam, channels=2)
            for cls in (ShapeClass.PLANE_BILLBOARD, ShapeClass.BOX_FACE)
        ]
        save_corpus(tmp_path / "corpus", scenes, demo_cam)
        assert (tmp_path / "corpus" / "labels.json").exists()
        assert (tmp_path / "corpus" / "camera.json").exists()
        back, cam2 = load_corpus(tmp_path / "corpus")
        assert cam2 == demo_cam
        assert [s.name for s in back] == sorted(s.name for s in scenes)
        by_name = {s.name: s for s in scenes}
        for scene in back:
            orig = by_name[scene.name]
            assert scene.label == orig.label
            np.testing.assert_array_equal(scene.cloud.points, orig.cloud.points)

    def test_metadata_is_renamed_into_place(self, tmp_path, demo_cam, monkeypatch):
        # written in place, a metadata file could be left cut short
        scene = generate_scene(ShapeClass.BOX_FACE, 700, (1.5, 2.5), 5, demo_cam)
        replace, renamed = os.replace, []

        def recording(src, dst):
            renamed.append(os.path.basename(dst))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", recording)
        save_corpus(tmp_path / "c", [scene], demo_cam)
        assert sorted(renamed) == ["camera.json", "labels.json"]
        assert (tmp_path / "c" / "labels.json").read_text() == json.dumps(
            {scene.name: scene.label}, sort_keys=True, indent=2) + "\n"
        assert json.loads((tmp_path / "c" / "camera.json").read_text()) == dataclasses.asdict(demo_cam)
        assert not list((tmp_path / "c").glob("*.tmp"))

    def test_duplicate_names_rejected(self, tmp_path, demo_cam):
        scene = generate_scene(ShapeClass.BOX_FACE, 700, (1.5, 2.5), 5, demo_cam)
        with pytest.raises(ValueError, match="duplicate scene name") as err:
            save_corpus(tmp_path / "c", [scene, scene], demo_cam)
        assert err.value.kind == "config_error"

    @pytest.mark.parametrize("name", ["../escaped", "a\0b", "", ".", "..", "a/b", "a\\b"])
    def test_scene_name_outside_its_directory_not_saved(self, tmp_path, demo_cam, name):
        scene = generate_scene(ShapeClass.BOX_FACE, 700, (1.5, 2.5), 5, demo_cam)
        with pytest.raises(ConfigError, match="not a plain file name"):
            save_corpus(tmp_path / "c", [dataclasses.replace(scene, name=name)], demo_cam)
        assert not (tmp_path / "c" / "escaped.pwspc").exists()

    @pytest.mark.parametrize("name", ["../escaped", "a\0b", "", ".", "..", "a/b", "a\\b"])
    def test_scene_name_outside_its_directory_not_loaded(self, tmp_path, demo_cam, name):
        scene = generate_scene(ShapeClass.BOX_FACE, 700, (1.5, 2.5), 5, demo_cam)
        save_corpus(tmp_path / "c", [scene], demo_cam)
        # the cloud "../escaped" names, so that only the name check can fail
        (tmp_path / "c" / "scenes" / f"{scene.name}.pwspc").rename(tmp_path / "c" / "escaped.pwspc")
        (tmp_path / "c" / "labels.json").write_text(json.dumps({name: 0}))
        with pytest.raises(FileFormatError, match="not a plain file name"):
            load_corpus(tmp_path / "c")

    @pytest.mark.parametrize("name, text", [
        ("camera.json", '{"fx": 0, "fy": 7.5, "cx": 12, "cy": 12, "width": 24, "height": 24}'),
        ("camera.json", '{"fx": NaN, "fy": 7.5, "cx": 12, "cy": 12, "width": 24, "height": 24}'),
        ("camera.json", '{"fx": 7.5, "lens": 1}'),
        ("camera.json", "[7.5]"),
        ("camera.json", '{"fx": 7.5, "fy": 7.5, "cx": 12, "cy": 12, "width": 24.5, "height": 24}'),
        ("camera.json", '{"fx": 7.5, "fy": 7.5, "cx": 12, "cy": 12, "width": 24, "height": 24.0}'),
        ("camera.json", "{"),
        ("labels.json", '["a", "b"]'),
        ("labels.json", '{"a": "first"}'),
        ("labels.json", "{}"),
    ])
    def test_bad_metadata_rejected(self, tmp_path, demo_cam, name, text):
        scene = generate_scene(ShapeClass.BOX_FACE, 700, (1.5, 2.5), 5, demo_cam)
        save_corpus(tmp_path / "c", [scene], demo_cam)
        (tmp_path / "c" / name).write_text(text)
        with pytest.raises(FileFormatError):
            load_corpus(tmp_path / "c")

    @pytest.mark.parametrize("label", [1.7, 1.0, True, False, "2", -1, None, [1]])
    def test_label_that_is_no_json_integer_of_at_least_0_rejected(self, tmp_path, demo_cam,
                                                                  label):
        scene = generate_scene(ShapeClass.BOX_FACE, 700, (1.5, 2.5), 5, demo_cam)
        save_corpus(tmp_path / "c", [scene], demo_cam)
        (tmp_path / "c" / "labels.json").write_text(json.dumps({scene.name: label}))
        with pytest.raises(FileFormatError, match="not an integer of at least 0"):
            load_corpus(tmp_path / "c")
