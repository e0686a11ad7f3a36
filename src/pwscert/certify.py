"""End-to-end certification of a classifier against one-axis camera motion.

The pipeline: bound the admissible partition spacing for the scene, render
the partition frames, estimate the smoothed classifier at every frame, and
compare the worst adjacent-frame projection error against the smallest
certified radius.  The verdict is *certified* exactly when all frames
agree on the top label, none abstains, and

    max adjacent frame error < min over frames of radius   (strictly).

Frames that disagree on the top label abstain the whole sample: the
premise of the guarantee fails, so nothing is proven either way.

Frames that render the same image share one Monte-Carlo estimate: the
smoothed classifier depends only on the image.  A sweep returns each
distinct image once (``sweep_images``), each is tallied once, every pose
takes its image's estimate, and adjacent errors are taken between
neighbouring poses that render different images.  ``certify_corpus`` and
``attack_corpus`` plan every scene, tally the distinct images of all of
them in one call on the stream ``stream_id(context, 0)``, and decide each
scene; ``certify`` and ``empirical_attack`` are their one-scene calls.
An image sees the same draws in any call, so no report depends on the
scenes tallied with it.  Each estimate still holds with its own
failure probability alpha, and a union bound needs no independence
between them, so the distinct estimates fail jointly with probability at
most ``n_partitions * alpha``; the report carries that figure as
``aggregate_alpha``, which over-approximates the bound whenever frames
repeat.

The tallies take their threads from the thread rule in ``smoothing``, as
library calls to ``smoothed_estimates`` do.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

import numpy as np

from .classifier import BaseClassifier
from .errors import ConfigError, PwsError
from .geometry import CameraModel, MotionSpec
from .intervals import CertMethod, IntervalConfig, plan_partition
from .rasterizer import (ColoredPointCloud, DEFAULT_BACKGROUND, adjacent_frame_error,
                         sweep_images)
from .smoothing import (STREAM_ATTACK, STREAM_FRAME, SmoothingConfig, smoothed_estimates,
                        stream_id)

# not drawn by the program: the benchmark's replay imports it to tally the
# attack's reference apart from the sweep
STREAM_ATTACK_REFERENCE = 3
REPORT_VERSION = 8


class Verdict(str, enum.Enum):
    CERTIFIED = "certified"
    NOT_CERTIFIED = "not_certified"
    ABSTAIN = "abstain"


@dataclass(frozen=True)
class PartitionEstimate:
    alpha: float
    top_label: int
    p_a_lower: float
    p_b_upper: float
    radius: float
    abstained: bool

    def to_json(self) -> dict:
        return dict(vars(self))


@dataclass
class CertificationReport:
    verdict: Verdict
    method: CertMethod
    axis: str
    radius_b: float
    sigma: float
    n_partitions: int
    n_distinct_frames: int  # distinct images among the partition frames
    delta_alpha: float
    max_adjacent_error: float
    min_radius: float
    margin: float
    top_label: int  # -1 when frames disagree
    per_partition: list
    quantile: float
    resolution: int
    background: float
    seed: int
    n_samples: int
    confidence_alpha: float
    aggregate_alpha: float
    convexity_delta: float = None
    timing: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        # the fields as ``dataclasses.asdict`` gives them, without its deep copy
        payload = dict(vars(self))
        payload.update(
            pws_report_version=REPORT_VERSION,
            verdict=self.verdict.value,
            method=self.method.value,
            per_partition=[p.to_json() for p in self.per_partition],
            extra=dict(self.extra),
            timing=dict(self.timing),
        )
        return payload


@dataclass
class AttackReport:
    poses_tested: int
    first_failure_pose: float  # None when robust
    empirically_robust: bool
    reference_label: int

    def to_json(self) -> dict:
        return dict(vars(self))


def _run_tasks(images, classifier, cfg, context):
    """Smoothed estimates of ``images``, in order, every image tallied
    against the draws of the one stream ``stream_id(context, 0)``."""
    return smoothed_estimates(classifier, images, cfg, stream_id(context, 0))


def _attempt(fn, *args):
    """``(fn(*args), seconds)``, returning a raised ``PwsError`` other than ``ConfigError``."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except ConfigError:
        raise
    except PwsError as err:
        result = err
    return result, time.perf_counter() - t0


def _corpus(clouds, plan_one, decide, classifier, cfg, context) -> list:
    """Per cloud, ``decide(estimates of its images, index, *rest, timing)``
    after ``plan_one(cloud) -> (images, index, *rest)``, or the ``PwsError``
    its plan or its tally raised.  The planned images are tallied in one
    ``_run_tasks`` call per image shape, one unless channel counts differ."""
    planned, shapes = [_attempt(plan_one, cloud) for cloud in clouds], {}
    for outcome, _ in planned:
        if not isinstance(outcome, PwsError):
            shapes.setdefault(outcome[0][0].shape, []).extend(outcome[0])
    tallies = {shape: _attempt(_run_tasks, images, classifier, cfg, context)
               for shape, images in shapes.items()}
    results = []
    for outcome, plan_s in planned:
        if not isinstance(outcome, PwsError):
            images, index, *rest = outcome
            outcome, tally_s = tallies[images[0].shape]
        if not isinstance(outcome, PwsError):  # a list in the order of its scenes
            t0, timing = time.perf_counter(), {"plan_s": plan_s, "tally_s": tally_s}
            outcome = decide([outcome.pop(0) for _ in images], index, *rest, timing)
            timing["wall_time_s"] = plan_s + tally_s + time.perf_counter() - t0
        results.append(outcome)
    return results


def _one(result):
    if isinstance(result, PwsError):
        raise result
    return result


def certify_corpus(clouds, spec: MotionSpec, cam: CameraModel, classifier: BaseClassifier,
                   smoothing_cfg: SmoothingConfig, method: CertMethod = CertMethod.EXACT,
                   interval_cfg: IntervalConfig = None) -> list:
    """``certify`` each of ``clouds``, their distinct frames tallied in one
    call: per cloud its report, or the ``PwsError`` it raised."""
    interval_cfg = interval_cfg or IntervalConfig()

    def plan_one(cloud):
        plan = plan_partition(cloud, spec, cam, method, interval_cfg)
        images, index = sweep_images(cloud, spec, cam, plan.values)
        # neighbours rendering one image differ by exactly 0.0: skip them
        pairs = {(a, b) for a, b in zip(index.tolist(), index[1:].tolist()) if a != b}
        max_err = max((adjacent_frame_error(images[a], images[b]) for a, b in pairs),
                      default=0.0)
        return images, index, plan, max_err

    def decide(by_image, index, plan, max_err, timing):
        per_partition = [PartitionEstimate(float(alpha), e.top_label, e.p_a_lower,
                                           e.p_b_upper, e.radius, e.abstained)
                         for alpha, e in zip(plan.values, (by_image[i] for i in index))]
        # every distinct image renders at some pose: decide over them once
        labels = {e.top_label for e in by_image}
        min_radius = min((e.radius for e in by_image if not e.abstained), default=0.0)
        top = labels.pop() if len(labels) == 1 else -1
        verdict = (Verdict.ABSTAIN if top < 0 or any(e.abstained for e in by_image) else
                   Verdict.CERTIFIED if max_err < min_radius else Verdict.NOT_CERTIFIED)
        return CertificationReport(
            verdict=verdict, method=plan.method, axis=spec.axis.value,
            radius_b=spec.radius_b, sigma=smoothing_cfg.sigma, n_partitions=plan.count,
            n_distinct_frames=len(by_image), delta_alpha=plan.delta_alpha,
            max_adjacent_error=max_err, min_radius=min_radius,
            margin=min_radius - max_err, top_label=top, per_partition=per_partition,
            quantile=interval_cfg.quantile, resolution=interval_cfg.resolution,
            background=DEFAULT_BACKGROUND, seed=smoothing_cfg.seed,
            n_samples=smoothing_cfg.n_samples, confidence_alpha=smoothing_cfg.confidence_alpha,
            aggregate_alpha=plan.count * smoothing_cfg.confidence_alpha,
            # only the one-frame bound reads a delta
            convexity_delta=(interval_cfg.convexity.delta
                             if plan.method is CertMethod.ONE_FRAME else None),
            timing=timing, extra={"classifier": classifier.describe()},
        )

    return _corpus(clouds, plan_one, decide, classifier, smoothing_cfg, STREAM_FRAME)


def certify(cloud: ColoredPointCloud, spec: MotionSpec, cam: CameraModel,
            classifier: BaseClassifier, smoothing_cfg: SmoothingConfig,
            method: CertMethod = CertMethod.EXACT,
            interval_cfg: IntervalConfig = None) -> CertificationReport:
    """Certify one scene; ``cloud`` is what the camera images.

    For the one-frame method the spacing bound consumes only the points
    recoverable from the reference render, while the frames themselves are
    still captured from the scene, mirroring a real camera.
    """
    return _one(certify_corpus([cloud], spec, cam, classifier, smoothing_cfg, method,
                               interval_cfg)[0])


def attack_corpus(clouds, spec: MotionSpec, cam: CameraModel, classifier: BaseClassifier,
                  smoothing_cfg: SmoothingConfig, poses: int = 100) -> list:
    """``empirical_attack`` on each of ``clouds``, their distinct frames
    tallied in one call: per cloud its report, or the ``PwsError`` it raised."""
    values = spec.uniform_poses(poses, "poses")
    if len(values) == 1:  # one pose probes pose 0
        values = [0.0]
    swept = np.union1d(values, [0.0])  # sorted, and holding every value once

    def decide(by_image, index, _timing):
        labels = [e.top_label for e in by_image]
        reference = labels[index[np.searchsorted(swept, 0.0)]]
        first_failure = next((float(value) for value, i in
                              zip(values, index[np.searchsorted(swept, values)])
                              if labels[i] != reference), None)
        return AttackReport(poses_tested=int(poses), first_failure_pose=first_failure,
                            empirically_robust=first_failure is None,
                            reference_label=int(reference))

    return _corpus(clouds, lambda cloud: sweep_images(cloud, spec, cam, swept), decide,
                   classifier, smoothing_cfg, STREAM_ATTACK)


def empirical_attack(cloud: ColoredPointCloud, spec: MotionSpec, cam: CameraModel,
                     classifier: BaseClassifier, smoothing_cfg: SmoothingConfig,
                     poses: int = 100) -> AttackReport:
    """Probe uniformly spaced poses for a smoothed-prediction label change
    from pose 0's.  Pose 0 is one of the sweep's poses, so a pose that
    renders the pose-0 image gets its label by construction."""
    return _one(attack_corpus([cloud], spec, cam, classifier, smoothing_cfg, poses)[0])


def certified_accuracy(results) -> float:
    """Fraction of (report, true_label) pairs certified with the right label;
    a None report (a scene whose certification failed) counts as not
    certified."""
    results = list(results)
    if not results:
        raise ConfigError("empty corpus")
    good = sum(
        report is not None and report.verdict is Verdict.CERTIFIED
        and report.top_label == int(label)
        for report, label in results
    )
    return good / len(results)
