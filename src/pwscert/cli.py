"""Command-line front end for reproducible certification experiments.

Subcommands: gen-scenes, train, project, partition, certify, attack,
report.  Radii take unit suffixes (mm/m for translations, deg/rad for
rotations) and convert to SI at the boundary.  Module errors exit with
status 1 and a single ``kind: message`` line on stderr; configuration
errors exit with status 2.  The noise tallies take their threads from
the thread rule in ``smoothing``, as library calls do, and a bad thread
setting is a configuration error.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import math
import time
from pathlib import Path

import click
import numpy as np

from .certify import certified_accuracy, certify, empirical_attack
from .classifier import builtin_train, load_model, save_model
from .demo import build_demo_scene, demo_camera
from .errors import ConfigError, FileFormatError, PathError, PwsError
from .geometry import Axis, CameraModel, MotionSpec, MotionValue
from .intervals import (CertMethod, DEFAULT_QUANTILE, DEFAULT_RESOLUTION,
                        DeltaConvexity, IntervalConfig, plan_partition)
from .rasterizer import render, render_sweep, save_image
from .scenes import ShapeClass, generate_scene, load_corpus, save_corpus
from .smoothing import SmoothingConfig

_AXES = {a.value: a for a in Axis}


def parse_radius(text: str, axis: Axis) -> float:
    """'10mm' -> 0.01 m, '0.25deg' -> radians; unit must match the axis."""
    text = text.strip().lower()
    units = {"mm": 1e-3, "m": 1.0, "deg": math.pi / 180.0, "rad": 1.0}
    for suffix in ("mm", "rad", "deg", "m"):
        if text.endswith(suffix):
            try:
                value = float(text[: -len(suffix)])
            except ValueError as exc:
                raise ConfigError(f"bad radius {text!r}") from exc
            if axis.is_rotation != (suffix in ("deg", "rad")):
                raise ConfigError(
                    f"unit {suffix!r} does not fit axis {axis.value!r}"
                )
            return value * units[suffix]
    raise ConfigError(f"radius {text!r} needs a unit suffix (mm, m, deg, rad)")


def _spec_from(axis_name: str, radius_text: str) -> MotionSpec:
    axis = _AXES.get(axis_name.lower())
    if axis is None:
        raise ConfigError(f"unknown axis {axis_name!r}")
    return MotionSpec(axis, parse_radius(radius_text, axis))


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    try:
        os.replace(tmp, path)
    except OSError:  # a directory at ``path``, say: leave no temporary file
        tmp.unlink()
        raise


def _interval_config(resolution, quantile, delta_px):
    convexity = DeltaConvexity(delta_px) if delta_px is not None else None
    return IntervalConfig(resolution=resolution, quantile=quantile, convexity=convexity)


def _with_options(*options):
    """A decorator adding ``options`` to a command, in the order given."""

    def decorate(command):
        for option in reversed(options):
            command = option(command)
        return command

    return decorate


# the options that choose and tune the partition-spacing bound
_spacing_options = _with_options(
    click.option("--method", type=click.Choice([m.value for m in CertMethod]),
                 default="exact", show_default=True),
    click.option("--resolution", default=DEFAULT_RESOLUTION, show_default=True),
    click.option("--quantile", default=DEFAULT_QUANTILE, show_default=True),
    click.option("--delta", "delta_px", default=None, type=float,
                 help="convexity slack in pixels (one-frame only)"),
)

# the inputs, motion, smoothing and output of a certify or attack run
_run_options = _with_options(
    click.option("--corpus", required=True,
                 type=click.Path(exists=True, path_type=Path)),
    click.option("--model", required=True,
                 type=click.Path(exists=True, path_type=Path)),
    click.option("--axis", required=True),
    click.option("--radius", required=True),
    click.option("--sigma", default=0.5, show_default=True),
    click.option("--n-samples", default=10000, show_default=True),
    click.option("--alpha", default=0.001, show_default=True),
    click.option("--seed", default=0, show_default=True),
    click.option("--scene", "only", multiple=True, help="restrict to named scenes"),
    click.option("--out", required=True, type=click.Path(path_type=Path)),
)


def _select(scenes, names):
    """The scenes named in ``names``, or all of them when it is empty."""
    unknown = sorted(set(names) - {s.name for s in scenes})
    if unknown:
        raise ConfigError(f"scenes not in corpus: {', '.join(unknown)}")
    return [s for s in scenes if not names or s.name in names]


def _partition_plan(corpus, scene_name, axis, radius, method, resolution,
                    quantile, delta_px):
    """One corpus scene, its camera and its partition plan."""
    scenes, cam = load_corpus(corpus)
    scene = _select(scenes, [scene_name] if scene_name else [])[0]
    spec = _spec_from(axis, radius)
    cfg = _interval_config(resolution, quantile, delta_px)
    return scene, cam, plan_partition(scene.cloud, spec, cam, method, cfg)


def _run_setup(corpus, model, axis, radius, sigma, n_samples, alpha, seed, only,
               out):
    """The scenes (restricted to ``only`` when given), camera, model, motion
    and smoothing of a certify or attack run; creates ``out``."""
    scenes, cam = load_corpus(corpus)
    scenes = _select(scenes, only)
    clf = load_model(model)
    spec = _spec_from(axis, radius)
    smoothing = SmoothingConfig(
        sigma=sigma, n_samples=n_samples, confidence_alpha=alpha, seed=seed
    )
    out.mkdir(parents=True, exist_ok=True)
    return scenes, cam, clf, spec, smoothing


def _write_report(path: Path, report, scene) -> None:
    payload = report.to_json()
    payload.update(scene=scene.name, true_label=scene.label)
    _write_json(path, payload)


def _fail(err: PwsError):
    click.echo(f"{err.kind}: {err}", err=True)
    sys.exit(2 if isinstance(err, ConfigError) else 1)


class _Group(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PwsError as err:
            _fail(err)
        except OSError as err:  # an output path of the wrong kind, say
            _fail(PathError(str(err)))


@click.group(cls=_Group)
def main():
    """Certify image classifiers against one-axis camera motion."""


@main.command("gen-scenes")
@click.option("--out", required=True, type=click.Path(path_type=Path))
@click.option("--profile", type=click.Choice(["demo", "churn", "random"]),
              default="demo", show_default=True,
              help="demo/churn: frozen drift-aware corpora; random: free placement")
@click.option("--classes", default=4, show_default=True)
@click.option("--per-class", default=3, show_default=True)
@click.option("--points", default=3000, show_default=True, help="random profile only")
@click.option("--grid", default=32, show_default=True, help="random profile only")
@click.option("--channels", default=1, show_default=True, help="random profile only")
@click.option("--depth", default="1.6:2.4", show_default=True,
              help="LO:HI meters, random profile only")
@click.option("--focal", default=None, type=float, help="random profile only")
@click.option("--seed", default=0, show_default=True)
def cmd_gen_scenes(out, profile, classes, per_class, points, grid, channels, depth,
                   focal, seed):
    """Write a synthetic labeled corpus."""
    if not 2 <= classes <= len(ShapeClass):
        raise ConfigError(f"classes must be 2..{len(ShapeClass)}")
    if per_class < 1 or channels < 1:
        raise ConfigError(f"per-class and channels must be at least 1, got "
                          f"{per_class} and {channels}")
    if seed < 0:  # each scene's color seed is seed * 1000 + its index
        raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
    if profile in ("demo", "churn"):
        variant = "trend" if profile == "demo" else "churn"
        cam = demo_camera()

        def build(cls, color_seed):
            return build_demo_scene(cls, color_seed, variant)
    else:
        try:
            lo, hi = (float(part) for part in depth.split(":"))
        except ValueError as exc:
            raise ConfigError(f"bad depth range {depth!r}") from exc
        f = focal if focal is not None else grid * 1.0
        cam = CameraModel(
            fx=f, fy=f, cx=grid / 2, cy=grid / 2, width=grid, height=grid
        )

        def build(cls, color_seed):
            return generate_scene(cls, points, (lo, hi), color_seed, cam,
                                  channels=channels, layered=True)
    scenes = [build(cls, seed * 1000 + rep)
              for cls in list(ShapeClass)[:classes] for rep in range(per_class)]
    save_corpus(out, scenes, cam)
    click.echo(f"wrote {len(scenes)} scenes to {out}")


@main.command("train")
@click.option("--corpus", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--out", required=True, type=click.Path(path_type=Path))
@click.option("--sigma", default=0.5, show_default=True)
@click.option("--augment", default=4, show_default=True)
@click.option("--downsample", default=4, show_default=True)
@click.option("--seed", default=0, show_default=True)
def cmd_train(corpus, out, sigma, augment, downsample, seed):
    """Train the built-in classifier on reference renders of a corpus."""
    scenes, cam = load_corpus(corpus)
    dataset = [
        (render(s.cloud, MotionValue(MotionSpec(Axis.TX, 1.0), 0.0), cam), s.label)
        for s in scenes
    ]
    clf = builtin_train(dataset, noise_sigma=sigma, augment_count=augment,
                        seed=seed, downsample=downsample)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(out, clf)
    correct = sum(
        1 for (img, lab) in dataset if int(np.argmax(clf.predict(img))) == lab
    )
    click.echo(f"trained on {len(dataset)} scenes, clean accuracy "
               f"{correct / len(dataset):.3f}, model at {out}")


@main.command("partition")
@click.option("--corpus", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--scene", "scene_name", default=None, help="default: first scene")
@click.option("--axis", required=True)
@click.option("--radius", required=True)
@_spacing_options
@click.option("--json-out", default=None, type=click.Path(path_type=Path))
def cmd_partition(corpus, scene_name, axis, radius, json_out, **spacing):
    """Print the admissible spacing and partition size for one scene."""
    _, _, plan = _partition_plan(corpus, scene_name, axis, radius, **spacing)
    click.echo(f"delta_alpha={plan.delta_alpha:.8g} n={plan.count} "
               f"method={plan.method.value}")
    if json_out is not None:
        _write_json(json_out, plan.to_json())


@main.command("project")
@click.option("--corpus", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--scene", "scene_name", default=None)
@click.option("--axis", required=True)
@click.option("--radius", required=True)
@_spacing_options
@click.option("--out", required=True, type=click.Path(path_type=Path))
def cmd_project(corpus, scene_name, axis, radius, out, **spacing):
    """Render the partition frames of one scene to PWSI1 files."""
    scene, cam, plan = _partition_plan(corpus, scene_name, axis, radius, **spacing)
    out.mkdir(parents=True, exist_ok=True)
    frames = render_sweep(scene.cloud, plan.spec, cam, plan.values)
    for i, frame in enumerate(frames):
        save_image(out / f"{scene.name}_{i:05d}.pwsi", frame)
    _write_json(out / "partition.json", plan.to_json())
    click.echo(f"wrote {plan.count} frames to {out}")


@main.command("certify")
@_run_options
@_spacing_options
def cmd_certify(method, resolution, quantile, delta_px, **run):
    """Certify every corpus scene; write per-sample reports and a summary."""
    scenes, cam, clf, spec, smoothing = _run_setup(**run)
    cfg = _interval_config(resolution, quantile, delta_px)
    t0 = time.perf_counter()
    samples, results = {}, []
    for scene in scenes:
        try:
            report = certify(scene.cloud, spec, cam, clf, smoothing, method, cfg)
        except ConfigError:
            raise
        except PwsError as err:
            report = None
            samples[scene.name] = {
                "error": f"{err.kind}: {err}",
                "true_label": scene.label,
            }
        else:
            _write_report(run["out"] / f"{scene.name}.cert.json", report, scene)
            samples[scene.name] = {
                "verdict": report.verdict.value,
                "top_label": report.top_label,
                "true_label": scene.label,
                "n_partitions": report.n_partitions,
                "min_radius": report.min_radius,
                "max_adjacent_error": report.max_adjacent_error,
            }
        results.append((report, scene.label))
    summary = {
        "config": {
            "axis": spec.axis.value,
            "radius_b": spec.radius_b,
            "radius_text": run["radius"],
            "sigma": smoothing.sigma,
            "n_samples": smoothing.n_samples,
            "confidence_alpha": smoothing.confidence_alpha,
            "method": method,
            "resolution": resolution,
            "quantile": quantile,
            "convexity_delta": delta_px,
            "seed": smoothing.seed,
        },
        "samples": samples,
        "certified_accuracy": certified_accuracy(results),
        "timing": {"wall_time_s": time.perf_counter() - t0},
    }
    _write_json(run["out"] / "summary.json", summary)
    click.echo(
        f"certified accuracy {summary['certified_accuracy']:.3f} "
        f"over {len(samples)} scenes; reports in {run['out']}"
    )


@main.command("attack")
@_run_options
@click.option("--poses", default=100, show_default=True)
def cmd_attack(poses, **run):
    """Sweep poses looking for smoothed-prediction label changes."""
    scenes, cam, clf, spec, smoothing = _run_setup(**run)
    robust = 0
    for scene in scenes:
        report = empirical_attack(scene.cloud, spec, cam, clf, smoothing, poses)
        _write_report(run["out"] / f"{scene.name}.attack.json", report, scene)
        robust += int(report.empirically_robust)
    click.echo(f"{robust}/{len(scenes)} scenes empirically robust; "
               f"reports in {run['out']}")


@main.command("report")
@click.option("--runs", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--out", required=True, type=click.Path(path_type=Path))
def cmd_report(runs, out):
    """Aggregate certify summaries under a directory into one CSV."""
    rows = []
    for summary_path in sorted(Path(runs).rglob("summary.json")):
        try:  # cut short, not JSON, or missing a field the table needs
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
            cfg = summary["config"]
            samples = [s for s in summary["samples"].values() if "verdict" in s]
            if not samples:
                continue
            rows.append(
                {
                    "radius": cfg["radius_text"],
                    "axis": cfg["axis"],
                    "method": cfg["method"],
                    "sigma": cfg["sigma"],
                    "certified_accuracy": summary["certified_accuracy"],
                    "mean_N": float(np.mean([s["n_partitions"] for s in samples])),
                }
            )
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise FileFormatError(
                f"bad certify summary {summary_path}: {exc!r}") from exc
    if not rows:
        raise ConfigError(f"no certify summaries under {runs}")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    click.echo(f"wrote {len(rows)} rows to {out}")


if __name__ == "__main__":
    main()
