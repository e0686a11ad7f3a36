"""The benchmark's checks accept the program's real outputs and reject
tampered ones.

    python3 -m pytest perfbench/test_checks.py -q
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pwscert as pc  # noqa: E402
from pwscert.demo import build_demo_scene, demo_camera, demo_specs  # noqa: E402

import checks  # noqa: E402

N = 1000


@pytest.fixture(scope="module")
def setting():
    cam = demo_camera()
    scenes = [build_demo_scene(cls, 0) for cls in pc.ShapeClass]
    reference = pc.MotionValue(demo_specs()[0], 0.0)
    clf = pc.builtin_train([(pc.render(s.cloud, reference, cam), s.label) for s in scenes],
                           noise_sigma=0.5, seed=0)
    scene = scenes[1]
    own_cam = checks.Camera(cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height)
    return cam, own_cam, scene, clf


def certify(setting, **smoothing):
    cam, _, scene, clf = setting
    cfg = pc.SmoothingConfig(sigma=0.5, n_samples=N, seed=3, **smoothing)
    return pc.certify(scene.cloud, demo_specs()[0], cam, clf, cfg, pc.CertMethod.EXACT,
                      pc.IntervalConfig(resolution=2001, quantile=1.0)).to_json()


@pytest.fixture(scope="module")
def report(setting):
    return certify(setting)


def run_check(setting, rep):
    _, own_cam, scene, _ = setting
    return checks.check_certification(rep, scene.cloud.points, scene.cloud.colors, own_cam)


def tampered(rep, edit):
    rep = copy.deepcopy(rep)
    edit(rep)
    return rep


def test_renderer_matches_program(setting):
    cam, own_cam, scene, _ = setting
    for spec in demo_specs():
        for a in np.linspace(-spec.radius_b, spec.radius_b, 7):
            mine = checks.paint(scene.cloud.colors,
                                checks.winners_at(scene.cloud.points, own_cam,
                                                  spec.axis.value, float(a)),
                                own_cam, 0.5)
            theirs = pc.render(scene.cloud, pc.MotionValue(spec, float(a)), cam)
            assert np.array_equal(mine, theirs)


def test_real_report_passes(setting, report):
    _, own_cam, scene, _ = setting
    alphas, owners, frames = run_check(setting, report)
    checks.check_windows(report, scene.cloud.points, scene.cloud.colors, own_cam,
                         alphas, owners, frames, samples=3)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda r: r.update(min_radius=r["min_radius"] * 1.01), id="min_radius"),
    pytest.param(lambda r: r["per_partition"][2].update(radius=r["per_partition"][2]["radius"] + 0.1),
                 id="frame_radius"),
    pytest.param(lambda r: r.update(delta_alpha=r["delta_alpha"] * 0.9), id="shrunken_spacing"),
    pytest.param(lambda r: r.update(per_partition=r["per_partition"][:-1],
                                    n_partitions=r["n_partitions"] - 1), id="uncovered_range"),
    pytest.param(lambda r: r.update(max_adjacent_error=r["max_adjacent_error"] * 0.9),
                 id="adjacent_error"),
    pytest.param(lambda r: r.update(verdict="not_certified"), id="verdict"),
    pytest.param(lambda r: r["per_partition"][0].update(p_a_lower=0.4), id="abstain_missed"),
])
def test_tampered_report_rejected(setting, report, edit):
    with pytest.raises(checks.CheckFailed):
        run_check(setting, tampered(report, edit))


def test_method_order_rejects_wider_bound():
    checks.check_method_order({"exact": 0.01, "lipschitz": 0.009, "one-frame": 0.004})
    with pytest.raises(checks.CheckFailed):
        checks.check_method_order({"exact": 0.01, "lipschitz": 0.011, "one-frame": 0.004})


def test_attack_check_rejects_flipped_label(report):
    attack = {"poses_tested": 1000, "first_failure_pose": None, "empirically_robust": True,
              "reference_label": report["top_label"]}
    checks.check_attack(report, attack, 1000)
    with pytest.raises(checks.CheckFailed):
        checks.check_attack(report, dict(attack, reference_label=report["top_label"] + 1), 1000)
    with pytest.raises(checks.CheckFailed):
        checks.check_attack(report, dict(attack, empirically_robust=False,
                                          first_failure_pose=0.01), 1000)


def test_blackbox_check_rejects_shifted_bound(setting):
    _, _, _, clf = setting
    rep = certify(setting, force_pixel_noise=True)
    _, _, frames = run_check(setting, rep)
    checks.check_blackbox(rep, frames, clf.weights, clf.bias, clf.downsample, seed=0)
    # at n = 1000 and p near 0.8 the binomial tolerance is about 0.11
    for edit in (lambda r: r["per_partition"][3].update(p_a_lower=r["per_partition"][3]["p_a_lower"] - 0.25),
                 lambda r: r["per_partition"][3].update(top_label=(r["top_label"] + 1) % 4)):
        with pytest.raises(checks.CheckFailed):
            checks.check_blackbox(tampered(rep, edit), frames, clf.weights, clf.bias,
                                  clf.downsample, seed=0)


def test_window_check_rejects_coarse_partition():
    cam = pc.CameraModel(fx=32.0, fy=32.0, cx=16.0, cy=16.0, width=32, height=32)
    cloud = pc.generate_scene(pc.ShapeClass.STRIPED_WALL, 3000, (1.6, 2.4), 0, cam,
                              channels=1, layered=True).cloud
    own_cam = checks.Camera(cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height)
    rep = {"axis": "tz", "background": 0.5, "quantile": 0.995}
    alphas = np.linspace(-0.2, 0.2, 3)
    owners = [checks.winners_at(cloud.points, own_cam, "tz", float(a)) for a in alphas]
    frames = [checks.paint(cloud.colors, o, own_cam, 0.5) for o in owners]
    with pytest.raises(checks.CheckFailed):
        checks.check_windows(rep, cloud.points, cloud.colors, own_cam, alphas, owners, frames)
