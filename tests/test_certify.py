import dataclasses
import importlib
import multiprocessing.process
import os
import threading

import numpy as np
import pytest

from pwscert import (
    Axis,
    BaseClassifier,
    CameraModel,
    ColoredPointCloud,
    ConfigError,
    IntervalConfig,
    LinearSoftmaxClassifier,
    MotionSpec,
    MotionValue,
    ShapeClass,
    SmoothingConfig,
    Verdict,
    adjacent_frame_error,
    certified_accuracy,
    certify,
    empirical_attack,
    generate_scene,
    render,
)
from pwscert.demo import build_probe_scene, demo_specs, probe_camera, probe_spec
from pwscert.intervals import CertMethod, DeltaConvexity, plan_partition
from pwscert.rasterizer import render_sweep, sweep_images
from pwscert import smoothing as smoothing_module
from pwscert.smoothing import (STREAM_ATTACK, STREAM_FRAME, smoothed_estimate,
                               smoothed_estimates, stream_id)


# the package exports the function ``certify`` under the module's name
certify_module = importlib.import_module("pwscert.certify")


class ConfidentClassifier(BaseClassifier):
    def __init__(self, label=1, labels=3):
        self._label, self._labels = label, labels

    @property
    def label_count(self):
        return self._labels

    def predict_batch(self, images):
        s = np.zeros((len(images), self._labels))
        s[:, self._label] = 1.0
        return s


class PixelSignClassifier(BaseClassifier):
    """Two labels by whether one decisive pixel is bright."""

    def __init__(self, row, col):
        self.row, self.col = row, col

    @property
    def label_count(self):
        return 2

    def predict_batch(self, images):
        hot = (images[:, 0, self.row, self.col] > 0.5).astype(float)
        return np.column_stack([1 - hot, hot])


class CountingClassifier(PixelSignClassifier):
    """PixelSignClassifier that counts the images it scores, from any thread."""

    def __init__(self, row, col):
        super().__init__(row, col)
        self.images = 0
        self._lock = threading.Lock()

    def predict_batch(self, images):
        with self._lock:
            self.images += len(images)
        return super().predict_batch(images)


def first_indices(frames):
    """Index of the first identical frame, for every frame."""
    first = {}
    return [first.setdefault(f.tobytes(), i) for i, f in enumerate(frames)]


def static_scene(cam):
    """One centered point whose projection never leaves its cell."""
    cloud = ColoredPointCloud(np.array([[0.0052, 0.0, 2.0]]), np.array([[0.9]]))
    return cloud, MotionSpec(Axis.TX, 0.004)  # drift = 0.2 px per side


def flip_scene(cam):
    """A nearer dark point takes over the bright point's pixel mid-range."""
    bright = [0.0052, 0.0, 2.0]  # pixel (50, 50) at rest
    dark = [0.0238, 0.0, 1.9]  # one cell to the right, slightly nearer
    cloud = ColoredPointCloud(
        np.array([bright, dark]), np.array([[1.0], [0.0]])
    )
    return cloud, MotionSpec(Axis.TX, 0.03)


SMOOTH = SmoothingConfig(sigma=0.5, n_samples=1000, confidence_alpha=0.01, seed=2)
IVCFG = IntervalConfig(resolution=801, quantile=1.0)


class TestCertify:
    def test_static_scene_certified_with_zero_error(self, cam):
        cloud, spec = static_scene(cam)
        report = certify(cloud, spec, cam, ConfidentClassifier(), SMOOTH,
                         CertMethod.EXACT, IVCFG)
        assert report.verdict is Verdict.CERTIFIED
        assert report.max_adjacent_error == 0.0
        assert report.min_radius > 0
        assert report.top_label == 1
        assert report.margin == report.min_radius

    def test_coin_classifier_abstains(self, cam):
        class Coin(BaseClassifier):
            label_count = 2

            def predict_batch(self, images):
                flat = images.reshape(len(images), -1)
                hot = (flat.sum(axis=1) % 2 > 1).astype(float)  # noise parity
                return np.column_stack([1 - hot, hot])

        cloud, spec = static_scene(cam)
        cfg = SmoothingConfig(sigma=0.5, n_samples=400, confidence_alpha=0.01,
                              seed=3, force_pixel_noise=True)
        report = certify(cloud, spec, cam, Coin(), cfg, CertMethod.EXACT, IVCFG)
        assert report.verdict is Verdict.ABSTAIN

    def test_label_flip_not_certified_or_abstain(self, cam):
        cloud, spec = flip_scene(cam)
        report = certify(cloud, spec, cam, PixelSignClassifier(50, 50),
                         SmoothingConfig(sigma=0.02, n_samples=500,
                                         confidence_alpha=0.01, seed=4,
                                         force_pixel_noise=True),
                         CertMethod.EXACT, IVCFG)
        # frames disagree on the top label once the dark point takes over
        assert report.verdict is Verdict.ABSTAIN
        assert report.top_label == -1

    def test_report_verdict_recomputable(self, demo_corpus, demo_classifier):
        scenes, cam = demo_corpus
        spec = demo_specs()[0]
        report = certify(scenes[0].cloud, spec, cam, demo_classifier,
                         SmoothingConfig(sigma=0.5, n_samples=2000,
                                         confidence_alpha=0.001, seed=5),
                         CertMethod.EXACT,
                         IntervalConfig(resolution=1201, quantile=1.0))
        labels = {p.top_label for p in report.per_partition}
        abstained = any(p.abstained for p in report.per_partition)
        expected = (
            Verdict.ABSTAIN
            if abstained or len(labels) != 1
            else (
                Verdict.CERTIFIED
                if report.max_adjacent_error < report.min_radius
                else Verdict.NOT_CERTIFIED
            )
        )
        assert report.verdict is expected
        assert report.n_partitions == len(report.per_partition)
        assert report.aggregate_alpha == pytest.approx(
            report.n_partitions * report.confidence_alpha
        )

    def test_method_by_value_reports_as_its_member(self, cam):
        cloud, spec = static_scene(cam)
        reports = [certify(cloud, spec, cam, ConfidentClassifier(), SMOOTH, method,
                           IVCFG).to_json()
                   for method in (CertMethod.LIPSCHITZ, "lipschitz")]
        for report in reports:
            report.pop("timing")
        assert reports[0] == reports[1]
        assert reports[1]["method"] == "lipschitz"

    def test_one_frame_method_requires_delta(self, demo_corpus, demo_classifier):
        scenes, cam = demo_corpus
        spec = demo_specs()[0]
        with pytest.raises(ConfigError):
            certify(scenes[0].cloud, spec, cam, demo_classifier, SMOOTH,
                    CertMethod.ONE_FRAME,
                    IntervalConfig(resolution=801, quantile=1.0))

    def test_one_frame_method_runs_from_scene_extraction(
        self, demo_corpus, demo_classifier
    ):
        from pwscert.demo import DEMO_CONVEXITY_DELTA

        scenes, cam = demo_corpus
        spec = demo_specs()[0]
        report = certify(
            scenes[2].cloud, spec, cam, demo_classifier,
            SmoothingConfig(sigma=0.5, n_samples=1500, confidence_alpha=0.01,
                            seed=6),
            CertMethod.ONE_FRAME,
            IntervalConfig(resolution=1201, quantile=1.0,
                           convexity=DeltaConvexity(DEMO_CONVEXITY_DELTA)),
        )
        assert report.method is CertMethod.ONE_FRAME
        assert report.convexity_delta == DEMO_CONVEXITY_DELTA
        assert report.n_partitions > 0

    @pytest.mark.parametrize("method", [CertMethod.EXACT, CertMethod.LIPSCHITZ])
    def test_delta_recorded_only_where_the_bound_reads_it(self, cam, method):
        cloud, spec = static_scene(cam)
        cfg = dataclasses.replace(IVCFG, convexity=DeltaConvexity(0.1))
        report = certify(cloud, spec, cam, ConfidentClassifier(), SMOOTH, method, cfg)
        assert report.method is method
        assert report.convexity_delta is None
        assert report.to_json()["convexity_delta"] is None

    def test_json_schema(self, cam):
        cloud, spec = static_scene(cam)
        report = certify(cloud, spec, cam, ConfidentClassifier(), SMOOTH,
                         CertMethod.EXACT, IVCFG)
        payload = report.to_json()
        assert payload["pws_report_version"] == 8
        assert payload["verdict"] == "certified"
        assert payload["n_distinct_frames"] == 1  # the point never leaves its cell
        assert "noise_clamped" not in payload
        assert "frames_rendered" not in payload
        assert "wall_time_s" in payload["timing"]
        assert len(payload["per_partition"]) == payload["n_partitions"]
        assert payload["extra"]["classifier"]["type"] == "ConfidentClassifier"

    def test_payloads_equal_asdict(self, cam):
        cloud, spec = flip_scene(cam)
        clf = PixelSignClassifier(50, 50)
        report = certify(cloud, spec, cam, clf, SMOOTH, CertMethod.EXACT, IVCFG)
        payload = report.to_json()
        want = dataclasses.asdict(report)
        want.update(pws_report_version=8, verdict=report.verdict.value,
                    method=report.method.value,
                    timing={"wall_time_s": want.pop("wall_time_s")})
        assert payload == want
        assert len(payload["per_partition"]) > 1
        # the payload is a copy: editing it leaves the report alone
        payload["per_partition"][0]["radius"] = -1.0
        payload["extra"]["classifier"] = None
        assert report.to_json() == want
        attack = empirical_attack(cloud, spec, cam, clf, SMOOTH, poses=8)
        assert attack.to_json() == dataclasses.asdict(attack)

    def test_parallel_matches_serial(self, cam, monkeypatch):
        # several distinct frames, so the pooled run really fans out, and a
        # noise level at which every tally depends on its stream
        cloud, spec = flip_scene(cam)
        cfg = SmoothingConfig(sigma=0.5, n_samples=600, confidence_alpha=0.01,
                              seed=8, force_pixel_noise=True)
        monkeypatch.setenv("PWS_THREADS", "1")
        serial = certify(cloud, spec, cam, PixelSignClassifier(50, 50), cfg,
                         CertMethod.EXACT, IVCFG)
        monkeypatch.setenv("PWS_THREADS", "2")
        parallel = certify(cloud, spec, cam, PixelSignClassifier(50, 50), cfg,
                           CertMethod.EXACT, IVCFG)
        a, b = serial.to_json(), parallel.to_json()
        a.pop("timing"), b.pop("timing")
        assert a == b

    def test_logit_path_demo_reports_match_across_threads(
        self, demo_corpus, demo_classifier, monkeypatch
    ):
        scenes, cam = demo_corpus
        cfg = SmoothingConfig(sigma=0.5, n_samples=2000, confidence_alpha=0.01, seed=3)
        reports = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("PWS_THREADS", threads)
            reports[threads] = []
            for scene, spec in zip(scenes[:2], demo_specs()):
                payload = certify(scene.cloud, spec, cam, demo_classifier, cfg,
                                  CertMethod.EXACT, IVCFG).to_json()
                payload.pop("timing")
                reports[threads].append(payload)
        distinct = {p["p_a_lower"] for r in reports["2"] for p in r["per_partition"]}
        assert len(distinct) > 2  # several distinct frames, all on one stream
        assert reports["1"] == reports["2"]


class TestSharedTallies:
    """Repeated frames reuse the tally of their first occurrence, and every
    distinct frame of a call is tallied on the call's one stream."""

    CFG = SmoothingConfig(sigma=0.02, n_samples=400, confidence_alpha=0.01,
                          seed=4, force_pixel_noise=True)

    def test_static_scene_tallies_once(self, cam):
        cloud, spec = static_scene(cam)
        clf = CountingClassifier(50, 50)
        report = certify(cloud, spec, cam, clf, self.CFG, CertMethod.EXACT, IVCFG)
        assert report.n_partitions > 1
        assert clf.images == self.CFG.n_samples

    def test_attack_tallies_each_distinct_frame_once(self, cam, monkeypatch):
        started = []
        start, fork = multiprocessing.process.BaseProcess.start, os.fork
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            lambda proc: started.append(proc) or start(proc))
        monkeypatch.setattr(os, "fork", lambda: started.append("fork") or fork())
        monkeypatch.setenv("PWS_THREADS", "2")
        cloud, spec = flip_scene(cam)
        frames = render_sweep(cloud, spec, cam,
                              np.linspace(-spec.radius_b, spec.radius_b, 40))
        reference = render(cloud, MotionValue(spec, 0.0), cam)
        # the pose-0 reference is one of the sweep's images, tallied once
        assert reference.tobytes() in {f.tobytes() for f in frames}
        distinct = len(set(first_indices([reference, *frames])))
        assert 1 < distinct < 40
        clf = CountingClassifier(50, 50)
        empirical_attack(cloud, spec, cam, clf, self.CFG, poses=40)
        assert clf.images == distinct * self.CFG.n_samples
        assert started == []  # every tally ran in this process

    def test_reference_off_the_sweep_costs_one_tally(self, cam):
        cloud, spec = flip_scene(cam)
        frames = render_sweep(cloud, spec, cam, [-spec.radius_b, spec.radius_b])
        reference = render(cloud, MotionValue(spec, 0.0), cam)
        assert reference.tobytes() not in {f.tobytes() for f in frames}
        distinct = len(set(first_indices(frames)))
        clf = CountingClassifier(50, 50)
        empirical_attack(cloud, spec, cam, clf, self.CFG, poses=2)
        assert clf.images == (distinct + 1) * self.CFG.n_samples

    def test_reference_image_never_fails(self, cam):
        # the decisive pixel sits exactly on the classifier's threshold at
        # every pose, so each tally's top label is a coin flip of its draws
        cloud, spec = static_scene(cam)
        cloud = ColoredPointCloud(cloud.points, np.array([[0.5]]))
        reference = render(cloud, MotionValue(spec, 0.0), cam)
        labels = set()
        for seed in range(12):
            cfg = dataclasses.replace(self.CFG, seed=seed)
            report = empirical_attack(cloud, spec, cam, PixelSignClassifier(50, 50),
                                      cfg, poses=9)
            labels.add(report.reference_label)
            if report.first_failure_pose is not None:
                failing = render(cloud, MotionValue(spec, report.first_failure_pose), cam)
                assert not np.array_equal(failing, reference), seed
        assert labels == {0, 1}  # the reference label really is a tie

    @staticmethod
    def fields(estimate):
        return {
            "top_label": estimate.top_label,
            "p_a_lower": estimate.p_a_lower,
            "p_b_upper": estimate.p_b_upper,
            "radius": estimate.radius,
            "abstained": estimate.abstained,
        }

    def check_report(self, report, frames, clf, cfg):
        """Every entry equals a one-image tally of its frame on the call's
        stream, field for field."""
        owners = first_indices(frames)
        assert report.n_distinct_frames == len(set(owners))
        stream = stream_id(STREAM_FRAME, 0)
        for i, (owner, entry) in enumerate(zip(owners, report.per_partition)):
            got = entry.to_json()
            got.pop("alpha")
            est = smoothed_estimate(clf, frames[owner], cfg, stream=stream)
            assert got == self.fields(est), i

    def test_repeats_equal_first_occurrence(self, cam, monkeypatch):
        cloud, spec = flip_scene(cam)
        clf = PixelSignClassifier(50, 50)
        for threads in ("1", "2"):
            monkeypatch.setenv("PWS_THREADS", threads)
            report = certify(cloud, spec, cam, clf, self.CFG, CertMethod.EXACT, IVCFG)
            frames = render_sweep(cloud, spec, cam,
                                  [p.alpha for p in report.per_partition])
            assert 1 < report.n_distinct_frames < len(frames)
            self.check_report(report, frames, clf, self.CFG)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_logit_path_frames_equal_one_image_tallies(
        self, demo_corpus, demo_classifier, monkeypatch, threads
    ):
        monkeypatch.setenv("PWS_THREADS", threads)
        scenes, cam = demo_corpus
        cfg = SmoothingConfig(sigma=0.5, n_samples=2000, confidence_alpha=0.01, seed=3)
        spec = demo_specs()[1]  # RY: several distinct frames
        report = certify(scenes[0].cloud, spec, cam, demo_classifier, cfg,
                         CertMethod.EXACT, IVCFG)
        frames = render_sweep(scenes[0].cloud, spec, cam,
                              [p.alpha for p in report.per_partition])
        assert report.n_distinct_frames > 2
        self.check_report(report, frames, demo_classifier, cfg)

    @pytest.mark.parametrize("pixel", [False, True])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_attack_frames_equal_one_image_tallies(
        self, demo_corpus, demo_classifier, monkeypatch, pixel, threads
    ):
        monkeypatch.setenv("PWS_THREADS", threads)
        calls = []
        run_tasks = certify_module._run_tasks

        def recording(images, *args):
            results = run_tasks(images, *args)
            calls.append((images, results))
            return results

        monkeypatch.setattr(certify_module, "_run_tasks", recording)
        scenes, cam = demo_corpus
        cfg = SmoothingConfig(sigma=0.5, n_samples=400, confidence_alpha=0.01, seed=6,
                              force_pixel_noise=pixel)
        spec = demo_specs()[1]  # RY: several distinct frames
        empirical_attack(scenes[1].cloud, spec, cam, demo_classifier, cfg, poses=30)
        [(images, results)] = calls
        assert len(images) > 2
        for image, got in zip(images, results):
            want = smoothed_estimate(demo_classifier, image, cfg,
                                     stream=stream_id(STREAM_ATTACK, 0))
            assert self.fields(got) == self.fields(want)
            np.testing.assert_array_equal(got.counts, want.counts)

    def test_logit_path_draws_noise_once(self, demo_corpus, demo_classifier,
                                         monkeypatch):
        generators = []
        make = smoothing_module.noise_generator
        monkeypatch.setattr(smoothing_module, "noise_generator",
                            lambda *key: generators.append(key) or make(*key))
        scenes, cam = demo_corpus
        cfg = SmoothingConfig(sigma=0.5, n_samples=2000, confidence_alpha=0.01, seed=3)
        report = certify(scenes[0].cloud, demo_specs()[1], cam, demo_classifier, cfg,
                         CertMethod.EXACT, IVCFG)
        assert report.n_distinct_frames >= 3
        assert generators == [(cfg.seed, stream_id(STREAM_FRAME, 0), 0)]  # block 0 only


def wild_scene():
    """One 64 px random-profile scene, as ``pws gen-scenes --profile random
    --grid 64 --points 12000 --depth 1.6:2.4 --channels 1`` writes it, with a
    seeded linear model over its frames."""
    cam = CameraModel(fx=64.0, fy=64.0, cx=32.0, cy=32.0, width=64, height=64)
    scene = generate_scene(ShapeClass.PLANE_BILLBOARD, 12000, (1.6, 2.4), 0, cam,
                           channels=1, layered=True)
    rng = np.random.default_rng(8)
    clf = LinearSoftmaxClassifier(rng.normal(0, 4, (256, 4)), rng.normal(0, 0.1, 4),
                                  (1, 64, 64))
    return scene.cloud, cam, clf


class TestSweepOracle:
    """``certify`` on each sweep image once gives the report of the per-pose
    frames: the oracle below is certify's loop over every partition frame."""

    @staticmethod
    def oracle(cloud, spec, cam, clf, cfg, values):
        frames = render_sweep(cloud, spec, cam, values)
        owners = first_indices(frames)
        distinct = sorted(set(owners))
        tallies = dict(zip(distinct, smoothed_estimates(
            clf, [frames[i] for i in distinct], cfg, stream_id(STREAM_FRAME, 0))))
        max_err = 0.0
        for a, b in zip(frames, frames[1:]):
            max_err = max(max_err, adjacent_frame_error(a, b))
        per_partition = [{"alpha": float(v), **TestSharedTallies.fields(tallies[o])}
                         for v, o in zip(values, owners)]
        return max_err, len(distinct), per_partition

    def check(self, cloud, spec, cam, clf, cfg, icfg):
        report = certify(cloud, spec, cam, clf, cfg, CertMethod.EXACT, icfg)
        values = plan_partition(cloud, spec, cam, CertMethod.EXACT, icfg).values
        max_err, n_distinct, per_partition = self.oracle(cloud, spec, cam, clf, cfg,
                                                         values)
        assert 1 < n_distinct < len(values)
        assert report.n_distinct_frames == n_distinct
        assert report.max_adjacent_error == max_err  # bit for bit
        assert [p.to_json() for p in report.per_partition] == per_partition

    @pytest.mark.parametrize("pixel", [False, True])
    @pytest.mark.parametrize("axis", ["tz", "ry"])
    def test_demo_scene(self, demo_corpus, demo_classifier, axis, pixel):
        scenes, cam = demo_corpus
        spec = {s.axis.value: s for s in demo_specs()}[axis]
        cfg = SmoothingConfig(sigma=0.5, n_samples=400, confidence_alpha=0.01, seed=9,
                              force_pixel_noise=pixel)
        self.check(scenes[2].cloud, spec, cam, demo_classifier, cfg,
                   IntervalConfig(quantile=1.0))

    def test_wild_scene(self):
        cloud, cam, clf = wild_scene()
        cfg = SmoothingConfig(sigma=0.5, n_samples=1000, confidence_alpha=0.01, seed=9)
        self.check(cloud, MotionSpec(Axis.TZ, 0.020), cam, clf, cfg,
                   IntervalConfig(quantile=0.995))

    @staticmethod
    def attack_oracle(cloud, spec, cam, clf, cfg, poses):
        """The attack report from per-pose frames, every distinct image of
        the reference and the frames tallied on the call's stream."""
        values = np.linspace(-spec.radius_b, spec.radius_b, poses)
        frames = [render(cloud, MotionValue(spec, 0.0), cam),
                  *render_sweep(cloud, spec, cam, values)]
        owners = first_indices(frames)
        distinct = sorted(set(owners))
        labels = dict(zip(distinct, (e.top_label for e in smoothed_estimates(
            clf, [frames[i] for i in distinct], cfg, stream_id(STREAM_ATTACK, 0)))))
        reference = labels[0]
        failure = next((float(v) for v, o in zip(values, owners[1:])
                        if labels[o] != reference), None)
        return {"poses_tested": poses, "first_failure_pose": failure,
                "empirically_robust": failure is None, "reference_label": reference}

    def test_attack_reports(self, cam, demo_corpus, demo_classifier):
        cloud, spec = flip_scene(cam)
        cfg, flip = TestSharedTallies.CFG, PixelSignClassifier(50, 50)
        want = self.attack_oracle(cloud, spec, cam, flip, cfg, 40)
        assert want["first_failure_pose"] is not None
        assert empirical_attack(cloud, spec, cam, flip, cfg, 40).to_json() == want
        scenes, demo_cam = demo_corpus
        cfg = SmoothingConfig(sigma=0.5, n_samples=400, confidence_alpha=0.01, seed=9)
        ry = demo_specs()[1]
        for scene in scenes[:4]:
            want = self.attack_oracle(scene.cloud, ry, demo_cam, demo_classifier, cfg, 30)
            got = empirical_attack(scene.cloud, ry, demo_cam, demo_classifier, cfg, 30)
            assert got.to_json() == want, scene.name


    @pytest.mark.parametrize("poses", [2, 4, 10])
    def test_attack_with_pose_0_off_the_linspace(self, cam, demo_corpus, demo_classifier,
                                                 poses):
        # an even pose count leaves pose 0 out of the linspace poses
        values = np.linspace(-1.0, 1.0, poses)
        assert 0.0 not in values
        cloud, spec = flip_scene(cam)
        cfg, flip = TestSharedTallies.CFG, PixelSignClassifier(50, 50)
        want = self.attack_oracle(cloud, spec, cam, flip, cfg, poses)
        assert empirical_attack(cloud, spec, cam, flip, cfg, poses).to_json() == want
        scenes, demo_cam = demo_corpus
        cfg = SmoothingConfig(sigma=0.5, n_samples=400, confidence_alpha=0.01, seed=9)
        for spec in demo_specs():
            want = self.attack_oracle(scenes[3].cloud, spec, demo_cam, demo_classifier,
                                      cfg, poses)
            got = empirical_attack(scenes[3].cloud, spec, demo_cam, demo_classifier, cfg,
                                   poses)
            assert got.to_json() == want, spec


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a pixel's background gap "
                   "between two owners has no run, so the window error misses it")
@pytest.mark.parametrize("method", [CertMethod.EXACT, CertMethod.LIPSCHITZ])
def test_in_window_frames_within_window_error(method):
    # certify's bound: every frame inside a partition window lies within the
    # largest adjacent error of the window's nearer end frame
    cam, spec = probe_camera(), probe_spec(Axis.TX)
    cloud = build_probe_scene(1, Axis.TX).cloud
    plan = plan_partition(cloud, spec, cam, method, IntervalConfig(quantile=1.0))
    assert (plan.count, round(plan.delta_alpha, 6)) == (10, 0.004522)
    ends, end_index = sweep_images(cloud, spec, cam, plan.values)
    bound = max(adjacent_frame_error(ends[a], ends[b])
                for a, b in zip(end_index, end_index[1:]))
    poses = np.linspace(-spec.radius_b, spec.radius_b, 200_001)
    images, index = sweep_images(cloud, spec, cam, poses)
    window = np.searchsorted(plan.values, poses, side="right").clip(1, plan.count - 1) - 1
    worst = max(min(np.linalg.norm(images[i] - ends[end_index[w + k]]) for k in (0, 1))
                for i, w in np.unique(np.column_stack([index, window]), axis=0))
    assert worst <= bound


class TestEmpiricalAttack:
    @pytest.mark.parametrize("poses", [0, -3, 2.5, 1.0, True, "10"])
    def test_pose_count_must_be_a_positive_integer(self, cam, poses):
        cloud, spec = static_scene(cam)
        with pytest.raises(ConfigError, match="need at least one pose, got") as err:
            empirical_attack(cloud, spec, cam, ConfidentClassifier(), SMOOTH, poses)
        assert err.value.kind == "config_error"

    def test_single_pose_trivially_robust(self, cam):
        cloud, spec = static_scene(cam)
        report = empirical_attack(cloud, spec, cam, ConfidentClassifier(), SMOOTH,
                                  poses=1)
        assert report.empirically_robust
        assert report.poses_tested == 1
        assert report.first_failure_pose is None

    def test_adversarial_flip_found(self, cam):
        cloud, spec = flip_scene(cam)
        report = empirical_attack(
            cloud, spec, cam, PixelSignClassifier(50, 50),
            SmoothingConfig(sigma=0.02, n_samples=400, confidence_alpha=0.01,
                            seed=4, force_pixel_noise=True),
            poses=40,
        )
        assert not report.empirically_robust
        assert report.first_failure_pose is not None
        assert abs(report.first_failure_pose) <= spec.radius_b

    def test_attack_parallel_matches_serial(self, cam, monkeypatch):
        cloud, spec = flip_scene(cam)
        cfg = SmoothingConfig(sigma=0.02, n_samples=400, confidence_alpha=0.01,
                              seed=4, force_pixel_noise=True)
        monkeypatch.setenv("PWS_THREADS", "1")
        serial = empirical_attack(cloud, spec, cam, PixelSignClassifier(50, 50),
                                  cfg, poses=16)
        monkeypatch.setenv("PWS_THREADS", "2")
        parallel = empirical_attack(cloud, spec, cam, PixelSignClassifier(50, 50),
                                    cfg, poses=16)
        assert serial.to_json() == parallel.to_json()

    def test_certified_scene_survives(self, demo_corpus, demo_classifier):
        scenes, cam = demo_corpus
        spec = demo_specs()[1]
        smoothing = SmoothingConfig(sigma=0.5, n_samples=2000,
                                    confidence_alpha=0.001, seed=5)
        report = certify(scenes[4].cloud, spec, cam, demo_classifier, smoothing,
                         CertMethod.EXACT,
                         IntervalConfig(resolution=1201, quantile=1.0))
        assert report.verdict is Verdict.CERTIFIED
        attack = empirical_attack(scenes[4].cloud, spec, cam, demo_classifier,
                                  smoothing, poses=60)
        assert attack.empirically_robust
        assert attack.reference_label == report.top_label


class TestMetrics:
    def test_certified_accuracy_hand_count(self, cam):
        cloud, spec = static_scene(cam)
        good = certify(cloud, spec, cam, ConfidentClassifier(label=1), SMOOTH,
                       CertMethod.EXACT, IVCFG)
        pairs = [(good, 1), (good, 1), (good, 0)]  # last has the wrong label
        assert certified_accuracy(pairs) == pytest.approx(2 / 3)

    def test_certified_accuracy_counts_failed_scene(self, cam):
        cloud, spec = static_scene(cam)
        good = certify(cloud, spec, cam, ConfidentClassifier(label=1), SMOOTH,
                       CertMethod.EXACT, IVCFG)
        # a None report stands for a scene whose certification raised
        assert certified_accuracy([(good, 1), (None, 1)]) == 0.5
        assert certified_accuracy([(None, 0)]) == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus") as err:
            certified_accuracy([])
        assert err.value.kind == "config_error"
