"""Frozen demo corpora exercising the full certification pipeline.

The certification bounds are only informative on scenes whose pixel
ownership structure is controlled: every cell-border crossing must happen
well inside the motion range, crossings must be sparse enough that
adjacent partition frames differ mildly, and one-frame margins need each
ownership run's projection span to clear twice the convexity slack.  The
parameters here were tuned once against those constraints and are kept
fixed so every experiment and test sees the same corpora.

A deliberately wide field of view (fx well below the half-width) makes
the projection rate vary strongly across the motion range, which is what
separates the exact spacing from its Lipschitz relaxation; at telephoto
intrinsics the two coincide to within a percent and the frame-count
orderings would drown in rounding.
"""

from __future__ import annotations

from .geometry import Axis, CameraModel, MotionSpec
from .scenes import Scene, ShapeClass, generate_scene

DEMO_CONVEXITY_DELTA = 0.015  # pixels; verified against the layered gap

_COMMON = dict(
    point_count=2000,
    depth_range=(0.85, 1.1),
    channels=1,
    layered=True,
    layer_gap=0.025,
    min_cross_ux=6.0,
    min_cross_leftover=0.04,
    margin_frac=5 / 24,
    min_coverage=0.30,
)

# crossing-point density per variant: "trend" keeps adjacent-frame errors
# small enough to certify at sigma 0.5; "churn" pushes them between the
# sigma 0.25 and sigma 0.5 certified radii
_VARIANTS = {
    "trend": dict(crosser_period=16),
    # wider eligibility and a lax leftover floor: the churn corpus only
    # feeds exact-method certification, never one-frame bounds
    "churn": dict(crosser_period=4, min_cross_ux=3.0, min_cross_leftover=0.01),
}


def demo_camera() -> CameraModel:
    return CameraModel(fx=7.5, fy=7.5, cx=12.0, cy=12.0, width=24, height=24)


def demo_specs():
    """The two motion ranges the demo corpora are hardened for."""
    return (MotionSpec(Axis.TZ, 0.036), MotionSpec(Axis.RY, 0.026))


def build_demo_scene(
    shape: ShapeClass, seed: int, variant: str = "trend"
) -> Scene:
    cam = demo_camera()
    specs = demo_specs()
    params = dict(_COMMON, **_VARIANTS[variant])
    scene = generate_scene(
        shape,
        color_seed=seed,
        cam=cam,
        harden_for=specs,
        cross_plan=((0, 0.78), (1, 0.86)),
        **params,
    )
    scene.name = f"{scene.name}_{variant}"
    return scene


# A larger grid used by the partition-coverage probes: same construction,
# scaled intrinsics, one motion range per scene.
def probe_camera() -> CameraModel:
    return CameraModel(fx=20.0, fy=20.0, cx=32.0, cy=32.0, width=64, height=64)


def probe_spec(axis: Axis) -> MotionSpec:
    return {
        Axis.TZ: MotionSpec(Axis.TZ, 0.019),
        Axis.TX: MotionSpec(Axis.TX, 0.019),
    }[axis]


def build_probe_scene(seed: int, axis: Axis) -> Scene:
    cam = probe_camera()
    spec = probe_spec(axis)
    shape = list(ShapeClass)[seed % len(ShapeClass)]
    params = dict(_COMMON, point_count=4600, min_cross_ux=8.0, margin_frac=13 / 64)
    scene = generate_scene(
        shape,
        color_seed=seed,
        cam=cam,
        harden_for=(spec,),
        crosser_period=16,
        cross_plan=((0, 0.78),),
        **params,
    )
    scene.name = f"{scene.name}_{axis.value}_probe"
    return scene
