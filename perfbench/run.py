"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload demo-methods --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; the program is imported from
``./src``.  With ``--trace 0`` it sets up several times, then repeats
whole passes over the workload's corpus, one certification at a time,
until ``--seconds`` have gone by, and prints the end-to-end metrics,
their timings scaled to reference-host seconds (see ``calibrate.py``).
With ``--trace 1`` it sets up once, runs a pass untraced, traced and
untraced again, then replays the pass through each layer's public
functions under spans and prints the per-layer metrics.  Either way the outputs
are checked, and the last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, HostClock

OUT_DIR = ".perfbench_out"
SETUP_BATCH = 5


def verify(wl, env, outcomes):
    """Check every outcome; return (correct, failed operations)."""
    import checks

    cam = checks.Camera.load(env.corpus)
    clouds = {s.name: checks.load_cloud(env.corpus / "scenes" / f"{s.name}.pwspc")
              for s in env.scenes}
    failed = [o for o in outcomes if o.error is not None]
    for o in failed:
        print(f"failed: {o.scene}: {o.error}", file=sys.stderr)
    try:
        wl.check(env, [o for o in outcomes if o.error is None], clouds, cam)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return False, len(failed)
    return True, len(failed)


def operations(outcomes) -> int:
    return len(outcomes) + sum(o.attack is not None for o in outcomes)


def quality(outcomes):
    """Mean partition frames per certification, and certified accuracy."""
    frames = [o.report["n_partitions"] for o in outcomes if o.report]
    good = sum(o.report is not None and o.report["verdict"] == "certified"
               and o.report["top_label"] == o.label for o in outcomes)
    return statistics.fmean(frames), good / len(outcomes)


def end_to_end(wl, work: Path, seed: int, seconds: float):
    import workloads as W

    clock = HostClock()
    setups, raw_setups = [], []

    def set_up():
        clock.sample()
        mark = clock.mark() - 1
        env = W.setup(work / f"setup{len(setups)}", seed, wl.corpus)
        clock.sample()
        raw, _, scaled, _ = clock.scaled(mark)
        raw_setups.append(raw)
        setups.append(scaled)
        return env

    # set-ups are spread over the run, so their median samples the same
    # stretch of host load as the passes do
    env = [set_up() for _ in range(SETUP_BATCH)][0]
    passes, raw_passes, cpu = [], [], 0.0
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        clock.sample()
        mark = clock.mark() - 1
        # a sample on each side of every pool run splits the program's
        # one-thread stretches from its pooled ones
        with W.command_spans(clock), clock.around(sys.modules["pwscert.certify"], "_run_tasks"):
            wl.run(env, clock)
        clock.sample()
        raw, _, wall, pass_cpu = clock.scaled(mark)
        raw_passes.append(raw)
        passes.append(wall)
        cpu += pass_cpu
        for _ in range(SETUP_BATCH):
            set_up()
    factor = statistics.median(clock.kernel_times()) / REFERENCE_S
    print(f"host factor: {factor:.3f} (median of {len(clock.kernel_times())} kernel runs)")
    print(f"setups (host s): {' '.join(f'{t:.4f}' for t in raw_setups)}")
    print(f"passes (host s): {' '.join(f'{t:.3f}' for t in raw_passes)}")
    print(f"passes (ref. s): {' '.join(f'{t:.3f}' for t in passes)}")
    outcomes = wl.collect(env)
    correct, failed = verify(wl, env, outcomes)
    frames, accuracy = quality(outcomes)
    n = len(env.scenes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "scenes_per_s": (n / statistics.median(passes), "1/s"),
        "cpu_s": (cpu / (n * len(passes)), "s"),
        "frames_per_scene": (frames, "frames"),
        "certified_accuracy": (accuracy, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return correct, operations(outcomes) * len(passes), failed * len(passes), metrics


def per_layer(wl, work: Path, seed: int, spans_path: Path):
    import workloads as W
    from spans import Tracer

    setup_tr = Tracer()
    with setup_tr.span("setup"):
        env = W.setup(work / "setup", seed, wl.corpus, setup_tr)
        W.replay_setup(env, setup_tr, wl.profile)
    tr = Tracer()
    untraced = []
    passes = (False, True, False)
    for traced in passes:
        t0 = time.perf_counter()
        if traced:
            with tr.span("pass") as rec, W.command_spans(tr):
                wl.run(env, tr)
        else:
            wl.run(env)
            untraced.append(time.perf_counter() - t0)
    with tr.span("replay"), W.command_spans(tr):
        wl.replay(env, W.Replayer(env, tr))
    outcomes = wl.collect(env)
    correct, failed = verify(wl, env, outcomes)
    overhead = rec["end"] - rec["start"] - statistics.fmean(untraced)
    metrics = layer_metrics(tr, setup_tr, overhead)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"setup": {"spans": setup_tr.spans, "counts": setup_tr.counts},
                   "run": {"spans": tr.spans, "counts": tr.counts}}, fh)
    return correct, operations(outcomes) * len(passes), failed * len(passes), metrics


def layer_metrics(tr, setup_tr, overhead):
    c = tr.counts

    def total(name, within="replay"):
        return tr.total(name, within)

    def per_mdraw(path):
        draws = c[f"smoothing.{path}_draws"]
        return c[f"smoothing.{path}_s"] / (draws / 1e6) if draws else 0.0

    command = tr.total("cli.command")
    inside = sum(tr.total(n, "cli.command")
                 for n in ("cli.load_corpus", "cli.certify", "cli.attack"))
    return {
        "geometry.project_points_s": (tr.median("geometry.project_points", "replay"), "s"),
        "rasterizer.zbuffer_pass_s": (tr.median("rasterizer.zbuffer_pass", "replay"), "s"),
        "rasterizer.render_s": (total("rasterizer.render"), "s"),
        "rasterizer.adjacent_error_s": (total("rasterizer.adjacent_error"), "s"),
        "rasterizer.frames": (c["rasterizer.frames"], "count"),
        "rasterizer.distinct_frames": (c["rasterizer.distinct_frames"], "count"),
        "rasterizer.distinct_ratio": (
            c["rasterizer.distinct_frames"] / c["rasterizer.frames"], "fraction"),
        "intervals.bound_s": (total("intervals.bound"), "s"),
        "intervals.bound_calls": (c["intervals.bound_calls"], "count"),
        "intervals.runs": (c["intervals.runs"], "count"),
        "intervals.delta_fraction": (
            c["intervals.delta_fraction_sum"] / c["intervals.bound_calls"], "fraction"),
        "smoothing.estimate_s": (total("smoothing.estimate"), "s"),
        "smoothing.predict_s": (total("smoothing.predict"), "s"),
        "smoothing.evaluations": (c["smoothing.evaluations"], "count"),
        "smoothing.draws": (c["smoothing.draws"], "count"),
        "smoothing.logit_s_per_mdraw": (per_mdraw("logit"), "s/Mdraw"),
        "smoothing.pixel_s_per_mdraw": (per_mdraw("pixel"), "s/Mdraw"),
        "classifier.predict_batch_s": (c["classifier.predict_batch_s"], "s"),
        "classifier.images": (c["classifier.images"], "count"),
        "classifier.train_s": (setup_tr.total("classifier.train"), "s"),
        "certify.call_s": (total("certify.call"), "s"),
        "certify.attack_s": (total("certify.attack"), "s"),
        "certify.overhead_s": (c["certify.overhead_s"], "s"),
        "certify.child_cpu_s": (c["certify.child_cpu_s"], "s"),
        "scenes.generate_s": (setup_tr.total("scenes.generate"), "s"),
        "scenes.load_corpus_s": (tr.total("cli.load_corpus", "cli.command"), "s"),
        "cli.command_s": (command, "s"),
        "cli.self_s": (command - inside, "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def run_one(name, seed, seconds, trace, root: Path) -> dict:
    from workloads import WORKLOADS

    out = root / OUT_DIR
    work = out / f"{name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if trace:
            spans_path = out / f"{name}-seed{seed}.spans.json"
            result = per_layer(WORKLOADS[name], work, seed, spans_path)
        else:
            result = end_to_end(WORKLOADS[name], work, seed, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct, attempted, failed, metrics = result
    for key, (value, unit) in metrics.items():
        print(f"{name:16s} {key:28s} {value:14.6g} {unit}")
    return {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="demo-methods, demo-attack, blackbox-certify, "
                             "wild-certify, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pwscert" / "__init__.py").is_file():
        print("perfbench: no src/pwscert here; run from the root of a pwscert checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    print(f"fan-out: os.cpu_count()={os.cpu_count()} "
          f"PWS_THREADS={os.environ.get('PWS_THREADS', 'unset')}")
    for name in names:
        result = run_one(name, args.seed % 2**32, args.seconds, args.trace, root)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
