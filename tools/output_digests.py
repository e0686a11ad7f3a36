"""Digests of every CLI output file, of the ownership sweeps, of the
projection and of the geometry bounds.

Run it once per checkout, each time with that checkout's ``src`` on the
path, and diff the two listings; a change that must leave the program's
outputs alone leaves them equal:

    PYTHONPATH=src python tools/output_digests.py WORKDIR > digests.txt

The CLI part runs, inside the empty directory WORKDIR: a 4 x 2 demo
corpus and its model; certify with all three methods on TZ 36 mm and
RY 0.026 rad (quantile 1.0, delta 0.015 px) plus ``partition --json-out``
for each; ``project`` on TZ 36 mm and on RY 0.026 rad; attacks of 300, 1
and 2 poses (one pose renders only the pose-0 reference, two poses miss
it); a 32 px random-profile corpus certified at quantile 0.995 and 1.0; a
one-frame run at delta 0.3 px in which every scene fails; and ``report``.
Every file is listed with its SHA-256; JSON files are hashed with their
``timing`` entries dropped, and each command's exit status, stdout and
stderr are kept as files too.
Every CLI run takes the logit-space tally, so the library part hashes,
the same way, certify reports (TZ and RY) and a 300-pose attack on two of
the demo scenes with ``force_pixel_noise`` at 2,000 draws.  Those runs
tally at most 4,000 draws, inside the first noise block, so it also
hashes the logit-path ``smoothed_estimates`` of four demo frames, one per
class, at 20,000 draws, three blocks, with the demo model, with one
whose logits all tie at the first frame, so that its counts split
between the labels, and with a random full-rank logit map tied the same
way.  Every trained model's logit covariance is singular, so only that
last line shows a change to how the logit path factors a covariance that
Cholesky would accept.

The sweep part hashes, bit for bit, the ``_sweep_runs`` arrays (2,001
poses) and the ``render_sweep`` frames (2,001 sorted poses, plus a sorted
list of 300 random poses with repeats and the same list shuffled) of the
8 demo scenes on all six axes (36 mm, 0.026 rad), and of 20 seeded random
24-392-point clouds on RX, RY and RZ at radii 0.01-0.2 rad, with
duplicates, one shared depth, pairs that swap depth order inside the
range and points off the grid, every fifth with a point behind the camera.
The same clouds are swept on RZ once more at radii between pi/2 and pi,
where an RZ rate of one sign at both range ends may change sign inside
the range, so the horizon must let each coordinate move both ways.
Together with ``pws project --axis ry`` above, they cover every path of
``zbuffer_changes`` under rotation.  Under translation, it hashes 20 more
seeded random clouds on TX, TY and TZ at radii 0.01-0.25 m, with
duplicates, one shared depth, points off the grid and a point whose TZ
depth passes DEPTH_EPS, every fifth with two depths inside the 2^-51
guard that makes a TZ sweep z-buffer every pose; one 64 px layered
random-profile scene (the wild-certify profile) at TZ 20 mm; and one 32 px
non-layered random scene of 2,000 asked points, 676 placed, at TY 0.25 m
and TZ 0.8 m, where nearly every point changes cell and most poses change
a winner.  Each of these sweeps too runs on the three pose lists.

The scene part hashes, bit for bit, the points and colors of one 800-point
non-layered random scene on the demo camera (seed 3), the one placement no
other part builds: the CLI's random profile and the wild scene are layered.

The geometry part hashes, bit for bit, ``min_depth_over_range``,
``lipschitz_constants`` and ``delta_constant`` (or the exception each
raises) on 1,500 seeded random 400-point clouds for all six axes, with
fx != fy, radii 0.001-0.3 and delta 0.01, 0.5 and 2 px, plus the RZ rate
and RX/RY depth floor at radii up to 2 rad.

The projection part hashes, bit for bit, the ``uv`` and ``depth`` arrays
``project_points`` returns on 200 seeded random 300-point clouds for all
six axes, with fx != fy, some points behind the camera and poses in
[-0.3, 0.3], at each pose shape: one pose, one pose per point and a
column of 16 poses.  It draws from a generator of its own, so the other
parts' inputs do not depend on it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import pwscert as pc
from pwscert.demo import build_demo_scene, demo_camera, demo_specs
from pwscert.geometry import delta_constant, min_depth_over_range
from pwscert.intervals import _sweep_runs

DEMO_RUNS = [(axis, radius, method)
             for axis, radius in (("tz", "36mm"), ("ry", "0.026rad"))
             for method in ("exact", "lipschitz", "one-frame")]


def _pws(workdir: Path, log: str, *args) -> None:
    # the commands run the pwscert this script imported, whatever the cwd
    env = {**os.environ, "PYTHONPATH": str(Path(pc.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "pwscert.cli", *args], cwd=workdir,
                          capture_output=True, text=True, env=env)
    (workdir / "logs").mkdir(exist_ok=True)
    (workdir / "logs" / f"{log}.txt").write_text(
        f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}")


def run_cli(workdir: Path) -> None:
    _pws(workdir, "gen-demo", "gen-scenes", "--out", "demo", "--classes", "4",
         "--per-class", "2", "--seed", "0")
    _pws(workdir, "train-demo", "train", "--corpus", "demo", "--out", "demo.pws")
    for axis, radius, method in DEMO_RUNS:
        spacing = ["--axis", axis, "--radius", radius, "--method", method,
                   "--quantile", "1.0"]
        if method == "one-frame":
            spacing += ["--delta", "0.015"]
        name = f"{axis}-{method}"
        _pws(workdir, f"certify-{name}", "certify", "--corpus", "demo",
             "--model", "demo.pws", "--n-samples", "4000", "--out", f"runs/{name}",
             *spacing)
        _pws(workdir, f"partition-{name}", "partition", "--corpus", "demo",
             "--json-out", f"partitions/{name}.json", *spacing)
    _pws(workdir, "project", "project", "--corpus", "demo", "--axis", "tz",
         "--radius", "36mm", "--quantile", "1.0", "--out", "frames")
    _pws(workdir, "project-ry", "project", "--corpus", "demo", "--axis", "ry",
         "--radius", "0.026rad", "--quantile", "1.0", "--out", "frames-ry")
    _pws(workdir, "attack", "attack", "--corpus", "demo", "--model", "demo.pws",
         "--axis", "tz", "--radius", "36mm", "--poses", "300", "--n-samples", "4000",
         "--out", "attack")
    for poses in ("1", "2"):
        _pws(workdir, f"attack-{poses}", "attack", "--corpus", "demo", "--model",
             "demo.pws", "--axis", "tz", "--radius", "36mm", "--poses", poses,
             "--n-samples", "4000", "--out", f"attack-{poses}")
    _pws(workdir, "gen-wild", "gen-scenes", "--out", "wild", "--profile", "random",
         "--classes", "2", "--per-class", "2", "--points", "1500", "--grid", "32")
    _pws(workdir, "train-wild", "train", "--corpus", "wild", "--out", "wild.pws")
    for q in ("0.995", "1.0"):
        _pws(workdir, f"certify-wild-{q}", "certify", "--corpus", "wild",
             "--model", "wild.pws", "--axis", "tz", "--radius", "20mm",
             "--quantile", q, "--n-samples", "2000", "--out", f"runs/wild-{q}")
    _pws(workdir, "certify-failing", "certify", "--corpus", "demo", "--model",
         "demo.pws", "--axis", "tz", "--radius", "36mm", "--method", "one-frame",
         "--delta", "0.3", "--quantile", "1.0", "--out", "runs/failing")
    _pws(workdir, "report", "report", "--runs", "runs", "--out", "table.csv")


def library_digests(workdir: Path):
    """Library runs on the pixel-space tally, which no CLI run takes: certify
    on TZ 36 mm and RY 0.026 rad (quantile 1.0) and a 300-pose attack on TZ,
    on two scenes of the demo corpus with its model, at 2,000 draws; then
    logit-path estimates past the first noise block, the last of them with
    a random full-rank logit map."""
    scenes, cam = pc.load_corpus(workdir / "demo")
    clf = pc.load_model(workdir / "demo.pws")
    cfg = pc.SmoothingConfig(sigma=0.5, n_samples=2000, confidence_alpha=0.001,
                             seed=0, force_pixel_noise=True)
    icfg = pc.IntervalConfig(quantile=1.0)
    for scene in scenes[:2]:
        for spec in demo_specs():
            report = pc.certify(scene.cloud, spec, cam, clf, cfg, interval_cfg=icfg)
            yield f"library certify {scene.name} {spec.axis.value}", report.to_json()
        attack = pc.empirical_attack(scene.cloud, demo_specs()[0], cam, clf, cfg,
                                     poses=300)
        yield f"library attack {scene.name} tz", attack.to_json()
    frames = [pc.render(scene.cloud, pc.MotionValue(demo_specs()[0], 0.0), cam)
              for scene in scenes[::2]]  # one scene per class

    def tied(weights):
        untied = pc.LinearSoftmaxClassifier(weights, np.zeros(weights.shape[1]),
                                            clf.image_shape, clf.downsample)
        a_mat, _ = untied.logit_map()
        return pc.LinearSoftmaxClassifier(weights, -(a_mat @ frames[0].reshape(-1)),
                                          clf.image_shape, clf.downsample)

    full_rank = np.random.default_rng(20261022).standard_normal(clf.weights.shape)
    cfg = pc.SmoothingConfig(sigma=0.5, n_samples=20000, confidence_alpha=0.001, seed=0)
    for name, model in (("demo", clf), ("tied", tied(clf.weights)),
                        ("full-rank", tied(full_rank))):
        estimates = pc.smoothed_estimates(model, frames, cfg)
        yield f"library estimates {name} logit", [
            {**vars(est), "counts": est.counts.tolist()} for est in estimates]


def _drop_timing(obj):
    if isinstance(obj, dict):
        return {k: _drop_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [_drop_timing(v) for v in obj]
    return obj


def _json_digest(obj) -> str:
    data = json.dumps(_drop_timing(obj), sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def file_digests(workdir: Path):
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        if path.suffix == ".json":
            digest = _json_digest(json.loads(path.read_bytes()))
        else:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        yield f"{path.relative_to(workdir)} {digest}"


def _outcome(fn):
    try:
        return np.asarray(fn(), dtype=np.float64).tobytes()
    except pc.PwsError as err:
        return f"{type(err).__name__}: {err}".encode()


def geometry_digests():
    rng = np.random.default_rng(20261018)
    hashes = {}

    def feed(key, fn):
        hashes.setdefault(key, hashlib.sha256()).update(_outcome(fn))

    for index in range(1500):
        fx, fy = rng.uniform(5, 80, 2)
        cam = pc.CameraModel(fx=fx, fy=fy, cx=12.0, cy=12.0, width=24, height=24)
        pts = rng.uniform(-1, 1, (400, 3)) * rng.uniform(0.05, 2.0)
        pts[:, 2] = rng.uniform(0.3, 3.0, 400)
        if index % 5 == 0:  # some points near or behind the camera
            pts[:, 2] -= rng.uniform(0.0, 1.0)
        for axis in pc.Axis:
            spec = pc.MotionSpec(axis, float(rng.uniform(0.001, 0.3)))
            feed(("min_depth", axis), lambda: min_depth_over_range(pts, spec, cam))
            feed(("lipschitz", axis), lambda: pc.lipschitz_constants(pts, spec, cam))
            for delta in (0.01, 0.5, 2.0):
                feed(("delta_constant", axis),
                     lambda: delta_constant(spec, cam, pts, delta))
    for _ in range(2000):  # wide windows: the sinusoid extremes
        cam = pc.CameraModel(fx=30.0, fy=20.0, cx=12.0, cy=12.0, width=24, height=24)
        pts = rng.normal(0, 1, (500, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 0.01
        radius = float(rng.uniform(0.01, 2.0))
        feed("rz_rate", lambda: pc.lipschitz_constants(
            pts, pc.MotionSpec(pc.Axis.RZ, radius), cam))
        for axis in (pc.Axis.RX, pc.Axis.RY):
            feed(("floor", axis), lambda: min_depth_over_range(
                pts, pc.MotionSpec(axis, radius), cam))
    for key, digest in hashes.items():
        name = key if isinstance(key, str) else f"{key[0]} {key[1].value}"
        yield f"geometry {name} {digest.hexdigest()}"


def projection_digests():
    rng = np.random.default_rng(20261021)
    hashes = {}
    for _ in range(200):
        fx, fy = rng.uniform(5, 80, 2)
        cam = pc.CameraModel(fx=fx, fy=fy, cx=11.5, cy=12.25, width=24, height=24)
        pts = rng.uniform(-1, 1, (300, 3)) * rng.uniform(0.05, 2.0)
        pts[:, 2] = rng.uniform(-0.5, 3.0, 300)
        for axis in pc.Axis:
            for shape, value in (("pose", rng.uniform(-0.3, 0.3)),
                                 ("per-point", rng.uniform(-0.3, 0.3, 300)),
                                 ("column", rng.uniform(-0.3, 0.3, (16, 1)))):
                uv, depth = pc.project_points(pts, axis, value, cam)
                digest = hashes.setdefault((axis, shape), hashlib.sha256())
                for array in (uv, depth):
                    digest.update(repr(array.shape).encode() + array.tobytes())
    for (axis, shape), digest in hashes.items():
        yield f"project_points {axis.value} {shape} {digest.hexdigest()}"


def sweep_digests():
    hashes = {}

    def feed(key, cloud, spec, cam, lists):
        digest = hashes.setdefault(key, hashlib.sha256())
        runs = _sweep_runs(cloud, spec, cam, 2001)
        for array in (runs.point_index, runs.pixel_flat, runs.lo, runs.hi):
            digest.update(array.tobytes())
        for poses in lists:
            for frame in pc.render_sweep(cloud, spec, cam, poses):
                digest.update(frame.tobytes())

    def pose_lists(rng, b):
        ramp = np.linspace(-b, b, 2001)
        ragged = np.repeat(np.sort(rng.uniform(-b, b, 100)), 3)
        return ramp, ragged, rng.permutation(ragged)

    rng = np.random.default_rng(20261019)
    wide_rng = np.random.default_rng(20261022)  # leaves rng's draws as they were
    cam = demo_camera()
    for shape in pc.ShapeClass:
        for seed in (0, 1):
            cloud = build_demo_scene(shape, seed).cloud
            for axis in pc.Axis:
                b = 0.026 if axis.is_rotation else 0.036
                feed(("demo", axis), cloud, pc.MotionSpec(axis, b), cam,
                     pose_lists(rng, b))
    cam = pc.CameraModel(fx=20.0, fy=16.0, cx=8.0, cy=8.0, width=16, height=16)
    for index in range(20):
        n = 8 * int(rng.integers(3, 50))
        pts = rng.uniform(-0.4, 0.4, (n, 3))
        pts[:, 2] = rng.uniform(1.0, 3.0, n)
        eighth = n // 8
        pts[:eighth] = pts[eighth : 2 * eighth]  # duplicates
        # partners 0.01 m aside in x or y, whose depth order flips in range
        aside = np.zeros((2 * eighth, 3))
        aside[:eighth, 0] = aside[eighth:, 1] = 0.01
        aside[:, 2] = rng.uniform(-0.002, 0.002, 2 * eighth)
        pts[2 * eighth : 4 * eighth] = pts[4 * eighth : 6 * eighth] + aside
        pts[6 * eighth : 7 * eighth, 2] = pts[0, 2]  # one shared depth
        pts[7 * eighth :, 0] += 2.0  # off the grid
        if index % 5 == 0:
            pts[-1, 2] = -1.0  # behind the camera
        cloud = pc.ColoredPointCloud(pts, rng.uniform(0, 1, (n, 3)))
        b = float(rng.uniform(0.01, 0.2))
        for axis in (pc.Axis.RX, pc.Axis.RY, pc.Axis.RZ):
            feed(("random", axis), cloud, pc.MotionSpec(axis, b), cam,
                 pose_lists(rng, b))
        wide = float(wide_rng.uniform(np.pi / 2, np.pi))
        feed(("wide", pc.Axis.RZ), cloud, pc.MotionSpec(pc.Axis.RZ, wide), cam,
             pose_lists(wide_rng, wide))
    rng = np.random.default_rng(20261020)
    for index in range(20):
        n = 8 * int(rng.integers(3, 50))
        pts = rng.uniform(-0.4, 0.4, (n, 3))
        pts[:, 2] = rng.uniform(1.0, 3.0, n)
        b = float(rng.uniform(0.01, 0.25))
        eighth = n // 8
        pts[:eighth] = pts[eighth : 2 * eighth]  # duplicates
        pts[2 * eighth : 3 * eighth, 2] = pts[0, 2]  # one shared depth
        pts[3 * eighth : 4 * eighth, 0] += 2.0  # off the grid
        pts[-1, 2] = 0.5 * b  # under TZ its depth passes DEPTH_EPS
        if index % 5 == 0:  # two depths inside the 2^-51 guard: every TZ pose
            pts[-2, 2] = np.nextafter(pts[-3, 2], np.inf)
        cloud = pc.ColoredPointCloud(pts, rng.uniform(0, 1, (n, 3)))
        for axis in (pc.Axis.TX, pc.Axis.TY, pc.Axis.TZ):
            feed(("random", axis), cloud, pc.MotionSpec(axis, b), cam,
                 pose_lists(rng, b))
    cam = pc.CameraModel(fx=64.0, fy=64.0, cx=32.0, cy=32.0, width=64, height=64)
    wild = pc.generate_scene(pc.ShapeClass.SPHERE_CAP, 12000, (1.6, 2.4), 0, cam,
                             channels=1, layered=True)
    feed(("wild", pc.Axis.TZ), wild.cloud, pc.MotionSpec(pc.Axis.TZ, 0.020), cam,
         pose_lists(rng, 0.020))
    cam = pc.CameraModel(fx=32.0, fy=32.0, cx=16.0, cy=16.0, width=32, height=32)
    dense = pc.generate_scene(pc.ShapeClass.PLANE_BILLBOARD, 2000, (1.6, 2.4), 0, cam,
                              channels=1)
    for axis, b in ((pc.Axis.TY, 0.25), (pc.Axis.TZ, 0.8)):
        feed(("dense", axis), dense.cloud, pc.MotionSpec(axis, b), cam, pose_lists(rng, b))
    for (kind, axis), digest in hashes.items():
        yield f"sweep {kind} {axis.value} {digest.hexdigest()}"


def scene_digests():
    cloud = pc.generate_scene(pc.ShapeClass.SPHERE_CAP, 800, (1.5, 2.5), 3,
                              demo_camera()).cloud
    digest = hashlib.sha256(cloud.points.tobytes() + cloud.colors.tobytes())
    yield f"scene random {digest.hexdigest()}"


def main(argv) -> None:
    workdir = Path(argv[1])
    workdir.mkdir(parents=True, exist_ok=False)
    run_cli(workdir)
    library = [f"{name} {_json_digest(payload)}"
               for name, payload in library_digests(workdir)]
    for line in [*file_digests(workdir), *library, *sweep_digests(),
                 *scene_digests(), *geometry_digests(), *projection_digests()]:
        print(line)


if __name__ == "__main__":
    main(sys.argv)
