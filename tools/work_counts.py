"""Machine-independent work counts of one pass of benchmark workloads.

    PYTHONPATH=src python tools/work_counts.py demo-attack wild-certify blackbox-certify

For each named workload it sets the corpus and model up as the benchmark
does (``perfbench/workloads.py``, imported and left unchanged), empties the
noise block cache, runs one pass at seed 1, and prints one JSON line of
what that pass did.  Each line is a cold pass, whatever workloads ran
before it:

* ``images_rendered``: poses the render path takes from ``zbuffer_changes``,
  each rendered and hashed once;
* ``adjacent_errors``: ``adjacent_frame_error`` calls made by ``certify``;
* ``noise_generators``: noise blocks drawn, one generator (``noise_generator``)
  each: the blocks the cache did not hold;
* ``noise_blocks``: noise blocks requested (``_noise_block``), cached or
  not, on the logit and the pixel path alike; neither count depends on
  ``PWS_THREADS``;
* ``tallied_images``: images handed to ``smoothed_estimates``;
* ``scanned_logit_draws``: draws the logit path compares label by label,
  one per image and draw that ``_first_max_counts`` scans; the draws of
  an image that the bound step settles are not scanned.  A checkout
  without that counter prints null;
* ``projected_points``: the summed ``depth.size`` of every ``project_points``
  call made through ``pwscert.rasterizer``, by the z-buffer kernel and by
  the translation sweep's tracer alike: one per point and pose projected;
* ``zbuffer_calls``, ``zbuffered_poses``: calls of the z-buffer kernel
  (``rasterizer._zbuffer``) and the poses they z-buffer, from single
  renders, pose-by-pose blocks and rotation sweeps; translation sweeps
  call it on no pose.

The counts come from wrapping those functions, so they run against any
checkout whose ``src`` is on the path.
"""

from __future__ import annotations

import importlib
import json
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads as W  # noqa: E402
from pwscert import rasterizer, smoothing  # noqa: E402

# the package exports the function ``certify`` under the module's name
certify = importlib.import_module("pwscert.certify")

COUNTS = dict.fromkeys(["images_rendered", "adjacent_errors", "noise_generators",
                        "noise_blocks", "tallied_images", "scanned_logit_draws",
                        "projected_points", "zbuffer_calls", "zbuffered_poses"], 0)
LOCK = threading.Lock()  # pixel-path tally threads count concurrently
# the noise block cache; a checkout without one draws every block it asks for
CACHE = getattr(smoothing, "_cached_block", None)
# the logit path's per-draw scan of (labels, draws) sums
SCAN = getattr(smoothing, "_first_max_counts", None)


def count(module, name, key, amount=lambda args: 1):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        with LOCK:
            COUNTS[key] += amount(args)
        return fn(*args, **kwargs)

    setattr(module, name, counted)


def count_yields(module, name, key):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        for item in fn(*args, **kwargs):
            COUNTS[key] += 1
            yield item

    setattr(module, name, counted)


def main(names) -> None:
    count_yields(rasterizer, "zbuffer_changes", "images_rendered")
    count(certify, "adjacent_frame_error", "adjacent_errors")
    count(smoothing, "noise_generator", "noise_generators")
    count(smoothing, "_noise_block", "noise_blocks")
    for module in (smoothing, certify):  # certify holds its own reference
        count(module, "smoothed_estimates", "tallied_images", lambda args: len(args[1]))
    # depth has the broadcast shape of the points and the poses
    count(rasterizer, "project_points", "projected_points",
          lambda args: np.broadcast(args[0][:, 0], args[2]).size)
    count(rasterizer, "_zbuffer", "zbuffer_calls")
    count(rasterizer, "_zbuffer", "zbuffered_poses", lambda args: np.size(args[2]))
    if SCAN is not None:
        count(smoothing, "_first_max_counts", "scanned_logit_draws",
              lambda args: np.shape(args[0])[1])
    for name in names:
        workload = W.WORKLOADS[name]
        with tempfile.TemporaryDirectory() as tmp:
            env = W.setup(Path(tmp), 1, workload.corpus)
            COUNTS.update(dict.fromkeys(COUNTS, 0))  # the set-up renders too
            if CACHE is not None:
                CACHE.cache_clear()
            workload.run(env)
        if SCAN is None:
            COUNTS["scanned_logit_draws"] = None
        print(json.dumps({"workload": name, **COUNTS}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:] or list(W.WORKLOADS))
