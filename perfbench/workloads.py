"""The benchmark's four seeded workloads.

Each workload has a set-up (write a corpus and train a model with ``pws``,
then load both), a pass (the per-scene pipeline over the whole corpus,
one certification at a time), correctness checks on the pass's outputs,
and a replay that calls each layer's public functions on the same inputs
under spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pwscert as pc
from pwscert.certify import STREAM_ATTACK_REFERENCE
from pwscert import cli as pws_cli
from pwscert.demo import DEMO_CONVEXITY_DELTA, build_demo_scene, demo_specs
from pwscert.rasterizer import zbuffer_winners
from pwscert.smoothing import STREAM_ATTACK, STREAM_FRAME, stream_id

import checks
from spans import NullTracer

SIGMA = 0.5
N_SAMPLES = 10000
ALPHA = 0.001
RESOLUTION = 2001
ATTACK_POSES = 1000
ATTACK_SAMPLES = 4 * N_SAMPLES
# the two demo motion ranges (pwscert.demo.demo_specs) as ``pws`` options
DEMO_AXES = (("tz", "36mm"), ("ry", "0.026rad"))
METHODS = ("exact", "lipschitz", "one-frame")
WILD_QUANTILE = 0.995
WILD_GRID = 64
WILD_POINTS = 12000
WILD_DEPTH = (1.6, 2.4)
PROBE_POSES = 8
NULL = NullTracer()

_COMMAND_CALLS = {"load_corpus": "cli.load_corpus", "certify": "cli.certify",
                  "empirical_attack": "cli.attack"}


class ProgramError(RuntimeError):
    """A ``pws`` command ended with a non-zero status."""


def pws(tracer, *args) -> None:
    """Run one ``pws`` command in this process, keeping its output."""
    with tracer.span("cli.command"), contextlib.redirect_stdout(io.StringIO()):
        try:
            pws_cli.main.main(args=[str(a) for a in args], prog_name="pws",
                          standalone_mode=False)
        except SystemExit as exc:
            if exc.code:
                raise ProgramError(f"pws {args[0]} exited with status {exc.code}") from exc


@contextlib.contextmanager
def command_spans(tracer):
    """Time the corpus loads, certifications and attacks that ``pws``
    commands make, inside the commands, so their own time shows."""
    saved = {name: getattr(pws_cli, name) for name in _COMMAND_CALLS}

    def timed(span_name, fn):
        def call(*args, **kwargs):
            with tracer.span(span_name):
                return fn(*args, **kwargs)
        return call

    for name, span_name in _COMMAND_CALLS.items():
        setattr(pws_cli, name, timed(span_name, saved[name]))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(pws_cli, name, fn)


def children_cpu() -> float:
    t = os.times()
    return t.children_user + t.children_system


@dataclass
class Env:
    root: Path
    seed: int
    corpus: Path
    model: Path
    scenes: list
    cam: pc.CameraModel
    clf: pc.LinearSoftmaxClassifier
    reports: list = field(default_factory=list)


@dataclass
class Outcome:
    """One certification of one scene, as the program reported it."""

    scene: str
    label: int
    report: dict = None
    error: str = None
    attack: dict = None


def smoothing_cfg(seed, n=N_SAMPLES):
    return pc.SmoothingConfig(sigma=SIGMA, n_samples=n, confidence_alpha=ALPHA, seed=seed)


def certify_args(env, axis, radius, method, quantile, out):
    extra = ["--delta", DEMO_CONVEXITY_DELTA] if method == "one-frame" else []
    return ["certify", "--corpus", env.corpus, "--model", env.model, "--axis", axis,
            "--radius", radius, "--sigma", SIGMA, "--n-samples", N_SAMPLES,
            "--alpha", ALPHA, "--method", method, "--resolution", RESOLUTION,
            "--quantile", quantile, "--seed", env.seed, "--out", out, *extra]


def read_runs(run_dirs, attacks=None):
    """Outcomes of ``pws certify`` (and ``pws attack``) from their reports."""
    outcomes = []
    for run_dir in run_dirs:
        summary = json.loads((run_dir / "summary.json").read_text())
        for name, sample in sorted(summary["samples"].items()):
            o = Outcome(name, sample["true_label"], error=sample.get("error"))
            if o.error is None:
                o.report = json.loads((run_dir / f"{name}.cert.json").read_text())
                hit = attacks / f"{name}.attack.json" if attacks else None
                if hit is not None and hit.exists():
                    o.attack = json.loads(hit.read_text())
            outcomes.append(o)
    return outcomes


# ---------------------------------------------------------------------------
# Set-up


# Each corpus is fixed (``gen-scenes`` seed 0): scene geometry sets the
# partition counts, and corpora drawn per seed spread frames per scene by
# about 12 % (demo) to 23 % (wild) between seeds, on top of the host's
# noise.  The benchmark seed reaches the model's training noise and every
# Monte-Carlo draw.
DEMO_CORPUS = ["--profile", "demo", "--classes", 4, "--per-class", 1]
WILD_CORPUS = ["--profile", "random", "--grid", WILD_GRID, "--points", WILD_POINTS,
               "--depth", ":".join(map(str, WILD_DEPTH)), "--classes", 4, "--per-class", 1]


def setup(root: Path, seed: int, corpus_args, tracer=NULL) -> Env:
    """Write the corpus, train the model, and load both."""
    corpus, model = root / "corpus", root / "model.pws"
    pws(tracer, "gen-scenes", "--out", corpus, *corpus_args)
    pws(tracer, "train", "--corpus", corpus, "--out", model, "--sigma", SIGMA,
        "--seed", seed)
    scenes, cam = pc.load_corpus(corpus)
    clf = pc.load_model(model)
    return Env(root, seed, corpus, model, scenes, cam, clf)


def replay_setup(env, tracer, profile):
    """Scene generation and training through the library, as the set-up's
    ``pws gen-scenes`` and ``pws train`` call them."""
    with tracer.span("scenes.generate"):
        if profile == "demo":
            scenes = [build_demo_scene(cls, 0) for cls in pc.ShapeClass]
        else:
            scenes = [pc.generate_scene(cls, WILD_POINTS, WILD_DEPTH, 0, env.cam,
                                        channels=1, layered=True)
                      for cls in pc.ShapeClass]
    reference = pc.MotionValue(pc.MotionSpec(pc.Axis.TX, 1.0), 0.0)
    dataset = [(pc.render(s.cloud, reference, env.cam), s.label) for s in scenes]
    with tracer.span("classifier.train"):
        pc.builtin_train(dataset, noise_sigma=SIGMA, augment_count=4, seed=env.seed)


# ---------------------------------------------------------------------------
# Replay of single certifications and attacks


class OpaqueClassifier(pc.BaseClassifier):
    """A model the smoothing code can only query, as any user network.

    It wraps the trained linear model, exposes no ``logit_map``, and
    counts the images it scores and the seconds it spends on them.
    """

    def __init__(self, inner):
        self._inner = inner
        self.images = 0
        self.seconds = 0.0

    @property
    def label_count(self) -> int:
        return self._inner.label_count

    def predict_batch(self, images):
        t0 = time.perf_counter()
        scores = self._inner.predict_batch(images)
        self.seconds += time.perf_counter() - t0
        self.images += len(images)
        return scores

    def predict(self, image):
        return self.predict_batch(np.asarray(image)[None])[0]


def _duration(record) -> float:
    return record["end"] - record["start"]


def _smooth(tracer, clf, image, cfg, stream, predict=False) -> float:
    path = "pixel" if clf.logit_map() is None else "logit"
    fn = pc.smoothed_prediction if predict else pc.smoothed_estimate
    images, seconds = getattr(clf, "images", 0), getattr(clf, "seconds", 0.0)
    with tracer.span("smoothing.predict" if predict else "smoothing.estimate") as rec:
        fn(clf, image, cfg, stream=stream)
    tracer.count("classifier.images", getattr(clf, "images", 0) - images)
    tracer.count("classifier.predict_batch_s", getattr(clf, "seconds", 0.0) - seconds)
    tracer.count("smoothing.evaluations")
    tracer.count("smoothing.draws", cfg.n_samples)
    tracer.count(f"smoothing.{path}_draws", cfg.n_samples)
    tracer.count(f"smoothing.{path}_s", _duration(rec))
    return _duration(rec)


def _count_frames(tracer, frames):
    tracer.count("rasterizer.frames", len(frames))
    tracer.count("rasterizer.distinct_frames", len({f.tobytes() for f in frames}))


def _bound(cloud, spec, cam, method, icfg):
    if method is pc.CertMethod.EXACT:
        return pc.exact_delta(cloud, spec, cam, icfg.resolution, icfg.quantile), cloud
    if method is pc.CertMethod.LIPSCHITZ:
        return pc.lipschitz_delta(cloud, spec, cam, icfg.resolution, icfg.quantile), cloud
    one_frame = pc.extract_one_frame(cloud, cam)
    delta = pc.one_frame_delta(one_frame, spec, cam, icfg.resolution,
                               icfg.convexity, icfg.quantile)
    return delta, one_frame


class Replayer:
    """Replays certifications and attacks layer by layer under spans."""

    def __init__(self, env, tracer):
        self.env = env
        self.tracer = tracer
        self._runs = {}

    def certify(self, scene, spec, method, icfg, clf, cfg):
        tr, cam = self.tracer, self.env.cam
        cpu0 = children_cpu()
        with tr.span("certify.call", scene.name) as call:
            pc.certify(scene.cloud, spec, cam, clf, cfg, method, icfg)
        tr.count("certify.child_cpu_s", children_cpu() - cpu0)
        layers = 0.0
        with tr.span("certify.replay", scene.name):
            with tr.span("geometry.project_points"):
                pc.project_points(scene.cloud.points, spec.axis, 0.0, cam)
            with tr.span("intervals.bound") as rec:
                delta, swept = _bound(scene.cloud, spec, cam, method, icfg)
            layers += _duration(rec)
            tr.count("intervals.bound_calls")
            tr.count("intervals.delta_fraction_sum", delta / (2.0 * spec.radius_b))
            plan = pc.build_partition(delta, spec, method, icfg.quantile)
            with tr.span("rasterizer.render") as rec:
                frames = pc.render_sweep(scene.cloud, spec, cam, plan.values, icfg.background)
            layers += _duration(rec)
            _count_frames(tr, frames)
            for value in plan.values:
                with tr.span("rasterizer.zbuffer_pass"):
                    zbuffer_winners(scene.cloud, spec.axis, float(value), cam)
            with tr.span("rasterizer.adjacent_error") as rec:
                for a, b in zip(frames, frames[1:]):
                    pc.adjacent_frame_error(a, b)
            layers += _duration(rec)
            for i, frame in enumerate(frames):
                layers += _smooth(tr, clf, frame, cfg, stream_id(STREAM_FRAME, i))
            key = (scene.name, spec.axis, method is pc.CertMethod.ONE_FRAME)
            if key not in self._runs:
                with tr.span("intervals.consistent_intervals"):
                    self._runs[key] = len(pc.consistent_intervals(swept, spec, cam, icfg.resolution))
            tr.count("intervals.runs", self._runs[key])
        tr.count("certify.overhead_s", _duration(call) - layers)

    def attack(self, scene, spec, clf, cfg, poses):
        tr, cam = self.tracer, self.env.cam
        cpu0 = children_cpu()
        with tr.span("certify.attack", scene.name) as call:
            pc.empirical_attack(scene.cloud, spec, cam, clf, cfg, poses)
        tr.count("certify.child_cpu_s", children_cpu() - cpu0)
        values = [0.0, *np.linspace(-spec.radius_b, spec.radius_b, poses)]
        with tr.span("certify.replay", scene.name):
            with tr.span("rasterizer.render") as rec:
                frames = [pc.render(scene.cloud, pc.MotionValue(spec, float(v)), cam)
                          for v in values]
            layers = _duration(rec)
            _count_frames(tr, frames)
            streams = [stream_id(STREAM_ATTACK_REFERENCE, 0)]
            streams += [stream_id(STREAM_ATTACK, i) for i in range(poses)]
            for frame, stream in zip(frames, streams):
                layers += _smooth(tr, clf, frame, cfg, stream, predict=True)
        tr.count("certify.overhead_s", _duration(call) - layers)

    # probes: one small call for each layer a workload's own pipeline skips

    def probe_smoothing(self, pixel=True, predict=True):
        scene, cam = self.env.scenes[0], self.env.cam
        frame = pc.render(scene.cloud, pc.MotionValue(pc.MotionSpec(pc.Axis.TZ, 0.02), 0.0), cam)
        cfg = smoothing_cfg(self.env.seed)
        if pixel:
            opaque = OpaqueClassifier(self.env.clf)
            _smooth(self.tracer, opaque, frame, cfg, stream_id(STREAM_FRAME, 0))
        else:
            _smooth(self.tracer, self.env.clf, frame, cfg, stream_id(STREAM_FRAME, 0))
        if predict:
            _smooth(self.tracer, self.env.clf, frame, cfg, stream_id(STREAM_ATTACK, 0),
                    predict=True)

    def probe_attack(self):
        spec = pc.MotionSpec(pc.Axis.TZ, 0.02)
        self.attack(self.env.scenes[0], spec, self.env.clf, smoothing_cfg(self.env.seed),
                    PROBE_POSES)


def demo_spec(axis):
    return {spec.axis.value: spec for spec in demo_specs()}[axis]


# ---------------------------------------------------------------------------
# demo-methods: every method on both demo axes, then ``pws report``


def methods_dirs(env):
    return [env.root / "runs" / f"{axis}-{m}" for axis, _ in DEMO_AXES for m in METHODS]


def run_methods(env, tracer=NULL):
    for axis, radius in DEMO_AXES:
        for method in METHODS:
            pws(tracer, *certify_args(env, axis, radius, method, 1.0,
                                      env.root / "runs" / f"{axis}-{method}"))
    pws(tracer, "report", "--runs", env.root / "runs", "--out", env.root / "table.csv")


def collect_methods(env):
    return read_runs(methods_dirs(env))


def check_methods(env, outcomes, clouds, cam):
    spacings = {}
    for o in outcomes:
        rep = o.report
        alphas, owners, frames = checks.check_certification(rep, *clouds[o.scene], cam)
        spacings.setdefault((o.scene, rep["axis"]), {})[rep["method"]] = rep["delta_alpha"]
        if rep["method"] == "exact":
            checks.check_windows(rep, *clouds[o.scene], cam, alphas, owners, frames, samples=3)
    for per_method in spacings.values():
        checks.check_method_order(per_method)


def replay_methods(env, rp):
    conv = pc.DeltaConvexity(DEMO_CONVEXITY_DELTA)
    for axis, _ in DEMO_AXES:
        for method in METHODS:
            icfg = pc.IntervalConfig(resolution=RESOLUTION, quantile=1.0, convexity=conv)
            for scene in env.scenes:
                rp.certify(scene, demo_spec(axis), pc.CertMethod(method), icfg, env.clf,
                           smoothing_cfg(env.seed))
    rp.probe_smoothing(pixel=True, predict=True)
    rp.probe_attack()


# ---------------------------------------------------------------------------
# demo-attack: exact certification, then an attack on every certified scene


def _attack_args(env, names):
    return ["attack", "--corpus", env.corpus, "--model", env.model, "--axis", "tz",
            "--radius", "36mm", "--sigma", SIGMA, "--poses", ATTACK_POSES,
            "--n-samples", ATTACK_SAMPLES, "--alpha", ALPHA, "--seed", env.seed,
            *[x for name in names for x in ("--scene", name)],
            "--out", env.root / "attacks"]


def _certified(run_dir):
    summary = json.loads((run_dir / "summary.json").read_text())
    return [name for name, s in sorted(summary["samples"].items())
            if s.get("verdict") == "certified"]


def run_attack(env, tracer=NULL):
    run_dir = env.root / "runs" / "tz-exact"
    pws(tracer, *certify_args(env, "tz", "36mm", "exact", 1.0, run_dir))
    certified = _certified(run_dir)
    if certified:
        pws(tracer, *_attack_args(env, certified))


def collect_attack(env):
    return read_runs([env.root / "runs" / "tz-exact"], env.root / "attacks")


def check_attack(env, outcomes, clouds, cam):
    for o in outcomes:
        checks.check_certification(o.report, *clouds[o.scene], cam)
        if o.report["verdict"] == "certified":
            checks.require(o.attack is not None, f"certified scene {o.scene} was not attacked")
            checks.check_attack(o.report, o.attack, ATTACK_POSES)


def replay_attack(env, rp):
    spec = demo_spec("tz")
    icfg = pc.IntervalConfig(resolution=RESOLUTION, quantile=1.0)
    for scene in env.scenes:
        rp.certify(scene, spec, pc.CertMethod.EXACT, icfg, env.clf, smoothing_cfg(env.seed))
    certified = set(_certified(env.root / "runs" / "tz-exact"))
    for scene in env.scenes:
        if scene.name in certified:
            rp.attack(scene, spec, env.clf, smoothing_cfg(env.seed, ATTACK_SAMPLES),
                      ATTACK_POSES)
    rp.probe_smoothing(pixel=True, predict=False)


# ---------------------------------------------------------------------------
# blackbox-certify: library certify with a model exposing no logit map


def run_blackbox(env, tracer=NULL):
    spec = demo_spec("tz")
    icfg = pc.IntervalConfig(resolution=RESOLUTION, quantile=1.0)
    clf = OpaqueClassifier(env.clf)
    env.reports = []
    for scene in env.scenes:
        with tracer.span("certify.call", scene.name):
            rep = pc.certify(scene.cloud, spec, env.cam, clf, smoothing_cfg(env.seed),
                             pc.CertMethod.EXACT, icfg)
        env.reports.append(Outcome(scene.name, scene.label, report=rep.to_json()))


def collect_blackbox(env):
    return list(env.reports)


def check_blackbox(env, outcomes, clouds, cam):
    clf = env.clf
    for o in outcomes:
        _, _, frames = checks.check_certification(o.report, *clouds[o.scene], cam)
        checks.check_blackbox(o.report, frames, clf.weights, clf.bias, clf.downsample,
                              seed=env.seed)


def replay_blackbox(env, rp):
    spec = demo_spec("tz")
    icfg = pc.IntervalConfig(resolution=RESOLUTION, quantile=1.0)
    opaque = OpaqueClassifier(env.clf)
    for scene in env.scenes:
        rp.certify(scene, spec, pc.CertMethod.EXACT, icfg, opaque, smoothing_cfg(env.seed))
    rp.probe_smoothing(pixel=False, predict=True)
    rp.probe_attack()
    first = env.scenes[0]
    pws(rp.tracer, *certify_args(env, "tz", "36mm", "exact", 1.0, env.root / "probe"),
        "--scene", first.name)


# ---------------------------------------------------------------------------
# wild-certify: random-profile 64 px scenes, exact at quantile 0.995


def run_wild(env, tracer=NULL):
    pws(tracer, *certify_args(env, "tz", "20mm", "exact", WILD_QUANTILE,
                              env.root / "runs" / "tz-exact"))


def collect_wild(env):
    return read_runs([env.root / "runs" / "tz-exact"])


def check_wild(env, outcomes, clouds, cam):
    for o in outcomes:
        rep = o.report
        alphas, owners, frames = checks.check_certification(rep, *clouds[o.scene], cam)
        checks.check_windows(rep, *clouds[o.scene], cam, alphas, owners, frames, samples=1)


def replay_wild(env, rp):
    spec = pc.MotionSpec(pc.Axis.TZ, 0.020)
    icfg = pc.IntervalConfig(resolution=RESOLUTION, quantile=WILD_QUANTILE)
    for scene in env.scenes:
        rp.certify(scene, spec, pc.CertMethod.EXACT, icfg, env.clf, smoothing_cfg(env.seed))
    rp.probe_smoothing(pixel=True, predict=True)
    rp.probe_attack()


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    corpus: list
    run: object
    collect: object
    check: object
    replay: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo-methods", "demo", DEMO_CORPUS, run_methods, collect_methods,
                 check_methods, replay_methods),
        Workload("demo-attack", "demo", DEMO_CORPUS, run_attack, collect_attack,
                 check_attack, replay_attack),
        Workload("blackbox-certify", "demo", DEMO_CORPUS, run_blackbox,
                 collect_blackbox, check_blackbox, replay_blackbox),
        Workload("wild-certify", "random", WILD_CORPUS, run_wild, collect_wild,
                 check_wild, replay_wild),
    )
}
