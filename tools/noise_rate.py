"""Time one noise block of each tally path and print one JSON line.

    PYTHONPATH=src python tools/noise_rate.py [--repeat N]

It times ``smoothing._noise_block`` on the calling thread at two shapes of
the tally's block layout:

* ``pixel``: 113 draws of 576 values, a full block of the blackbox-certify
  workload (24 x 24 one-channel frames, on the pixel path);
* ``logit``: 8,192 draws of 4 values, a full block of a 4-label model on
  the logit path.

Each block is drawn ``N`` times (default 50), each time from a new
generator as a tally does, and the best time is kept.  The line gives,
per shape, the block's best time in ms and in s per million values, and
the best time to build one generator in µs.

It also times, as ``count_us``, how one image's draws of a full block are
counted for a 4-label model, best of ``N``: on the pixel path
``np.bincount(np.argmax(scores, axis=1))`` over 113 x 4 scores, on the
logit path ``smoothing._first_max_counts`` over the image's logits added
to the block's 4 x 8,192 label columns.  The figures depend on the
machine; no threshold is applied to them.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from pwscert.smoothing import (_BLOCK_DRAWS, _NOISE_ENTRIES, STREAM_FRAME, SmoothingConfig,
                               _first_max_counts, _noise_block, noise_generator, stream_id)

SHAPES = {"pixel": 576, "logit": 4}  # values per draw
LABELS = 4


def best(fn, repeat: int) -> float:
    times = []
    for i in range(repeat):
        start = time.perf_counter()
        fn(i)
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=50, help="timed draws per block")
    repeat = parser.parse_args().repeat
    if repeat < 1:
        parser.error(f"--repeat must be at least 1, got {repeat}")
    cfg = SmoothingConfig(sigma=0.5, seed=1)
    stream = stream_id(STREAM_FRAME, 0)
    line = {"repeat": repeat}
    for path, width in SHAPES.items():
        rows = max(1, min(_BLOCK_DRAWS, _NOISE_ENTRIES // width))
        # block i is a different block each time, so no draw is reused
        block_s = best(lambda i: _noise_block(cfg, stream, i, rows, width), repeat)
        # one image's count of the block: scores or logits of LABELS labels a draw
        draws = noise_generator(cfg.seed, stream).standard_normal((rows, LABELS))
        if path == "pixel":
            count = lambda i: np.bincount(np.argmax(draws, axis=1), minlength=LABELS)
        else:
            base, cols = draws[0], draws.T.copy()
            count = lambda i: _first_max_counts(base[:, None] + cols)
        line[path] = {"rows": rows, "width": width, "block_ms": block_s * 1e3,
                      "s_per_mvalue": block_s / (rows * width / 1e6),
                      "count_us": best(count, repeat) * 1e6}
    line["generator_us"] = best(lambda i: noise_generator(cfg.seed, stream, i), repeat) * 1e6
    print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
