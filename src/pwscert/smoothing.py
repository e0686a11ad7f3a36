"""Monte-Carlo estimation of the Gaussian-smoothed classifier.

The smoothed classifier scores an image by the probability that the base
classifier's argmax equals each label under additive pixel noise
``N(0, sigma^2 I)``.  From ``n`` noisy draws we take the top label's count,
bound its true probability from below with a one-sided Clopper-Pearson
interval, reduce the runner-up bound to ``1 - pA`` (two-class reduction),
and convert the gap into a certified L2 radius

    radius = sigma / 2 * (quantile(pA_lower) - quantile(pB_upper))
           = sigma * quantile(pA_lower),

bit for bit, with the antisymmetric normal quantile ``scipy.special.ndtri``.

Noised images are deliberately not clamped to [0, 1]; the radius formula
is exact only for unclipped additive noise and the classifiers accept
unbounded inputs.

Randomness is organized in named streams keyed by (seed, stream id).
``smoothed_estimates`` tallies several images against the same draws of
one stream: certification and attack sweeps tally all distinct frames of
a call on ``stream_id(context, 0)``, so one draw serves every frame, and
a one-image call (``smoothed_estimate``) sees exactly the draws its image
sees in a larger call.

Every tally draws one block layout.  Block ``b`` holds
``max(1, min(_BLOCK_DRAWS, _NOISE_ENTRIES // W))`` standard-normal draws
of ``W`` values, the last block taking the remainder, from its own SFC64
generator, seeded through ``SeedSequence`` by the one integer
``b << 128 | stream << 64 | seed`` (each 64 bits wide), so any thread can
draw any block.  The key is one packed integer because a list key is
padded with zero words: ``[2**32, 5, 0]`` and ``[0, 1, 5]`` seed the same
state.  SFC64 replaced Philox counter regions for speed alone: a
113 x 576 pixel block takes 0.66-0.72 ms against 0.98-1.04 ms
(``tools/noise_rate.py``, 2-vCPU host).
Each thread draws and scores every image against its share of the
blocks, and the shares' counts are summed: estimates depend on the seed,
the stream, ``W`` and ``n_samples`` only, never on the thread count.
On the pixel path ``W`` is the pixel count and a block times sigma is
pixel noise.

Every ``certify`` call of a run tallies on ``stream_id(STREAM_FRAME, 0)``
and every attack on ``stream_id(STREAM_ATTACK, 0)``, so calls share their
blocks.  The first ``_CACHED_PREFIX`` = 8 blocks of every stream, where a
block holds at most ``_NOISE_ENTRIES`` values, are drawn once per process
and kept in one cache keyed by (seed, stream, block, rows, ``W``); later
blocks are drawn afresh on every call.  The cache keeps at most 32 blocks
of at most 2^16 float64 values, 16 MiB whatever the image shape.  The
prefix is 8 because 8 logit blocks are 65,536 draws, past the CLI's
default 10,000 and the attack's 40,000, while a 24 px pixel stream keeps
only 904 of its 10,000 draws (4 MiB): caching every block of such a
stream took blackbox-certify's peak RSS from 110 to 154 MB.  Cached
blocks are read-only, so the pushes below work out of place, and a
block's values are its generator's whether it was cached or not: no
estimate depends on the cache.

The thread rule, for every caller alike (``certify``, ``empirical_attack``,
the ``pws`` commands and direct library calls): each ``smoothed_estimates``
call reads ``PWS_THREADS`` once, before it picks a path, so a value that is
not a positive integer raises ``ConfigError`` on either path; unset or
empty, it means the CPU count.  A pixel-path tally runs on that many
threads, at most one per block, and on the calling thread alone when that
is one; a logit-path tally always runs on the calling thread.

For classifiers exposing an affine pixel-to-logit map, the argmax under
pixel noise is sampled in logit space: the noise pushes forward to
``N(0, sigma^2 A A^T)`` over the logits, which is cheaper by the ratio of
pixel count to label count.  There ``W`` is the label count and a block
times ``V sqrt(max(lambda, 0))``, from an eigendecomposition of that
covariance, is logit noise: the built-in model's covariance is singular,
where Cholesky passes or fails by rounding alone.  The factor rows of two
labels with one row of (A, b) can differ by rounding, so such labels would
split draws that the pixel path gives to the first of them; they share
that label's noise column and base instead, and the covariance is
factored over the first occurrences of the distinct rows, in label order.
With that, both paths sample the same distribution of top labels, though
not the same draws.  Set ``SmoothingConfig.force_pixel_noise`` to bypass
the logit path.

Each draw counts for the first label holding its maximum score, the label
``np.argmax`` picks, so an exact tie goes to the lower label.  The pixel
path counts each score block with ``np.bincount(np.argmax(...))``.  The
logit path holds each pushed block as (labels, draws) label columns, one
transpose-copy of ``block @ factor.T``, and ``_first_max_counts`` marks
each column's maximum in ``base[:, None] + columns``: the sums are those
of ``base + noise`` and a maximum is exact, so the counts are argmax's,
and only exactly tied draws are counted again by argmax.  Per image and
block of ``min(8192, 2^16 // K)`` draws of K labels, argmax took 160-212,
183-249, 214-263, 163-209 and 61-70 µs at K = 2, 4, 10, 30 and 100, the
column counter 23-28, 39-49, 76-96, 122-164 and 118-148 µs (best of 200,
2-vCPU host): one counter serves every K, since the tree's models have
2-4 labels.  On a pixel block's 113 x 4 scores argmax takes 2.6-4.0 µs,
a column counter 5.2-8.6 µs.

Before that scan, a bound step (``_logit_counts``) settles whole images.
Once per block it takes each label column's least and greatest value,
``lo`` and ``hi``, for every image of the call.  Where the label ``top``
with the largest ``base + lo`` has that sum strictly above every other
label's ``base + hi``, ``top`` takes all of the block's draws, and only
the other images are scanned.  Rounding is monotone, so at every draw
``d`` and for every other label ``b``,
``fl(base_top + n_top,d) >= fl(base_top + lo_top) > fl(base_b + hi_b)
>= fl(base_b + n_b,d)``: no draw ties, and the counts are argmax's.  The
test stays strict, since an equal pair can be a tie that argmax gives to
a lower label.  A confident model's frames settle: on a seed-1
wild-certify pass all 372 (image, block) counts do, and ``_tally`` took
1.2-1.6 ms of a warm pass against 15-20 ms with every draw scanned
(quartiles of 30 passes, ``PWS_THREADS=1``, 2-vCPU host).  Frames that
split their draws, like the demo models' (p_A 0.81-0.97), settle nowhere
and pay the step's fixed cost alone, about 40 µs a block and call.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence
from scipy.special import betaincinv, ndtri

from .errors import (ConfigError, DomainError, NonFiniteScores, ShapeMismatch, check_integer,
                     check_real)
from .classifier import BaseClassifier

_WORD = (1 << 64) - 1

# stream-id contexts keep independent uses of one master seed apart
STREAM_FRAME = 1
STREAM_ATTACK = 2
STREAM_GENERIC = 0

# the most draws, and the most float64 entries, per noise block.  Both were
# measured: 16,384-draw logit blocks made demo-attack slower in 6 of 8
# alternating 8 s pairs (36.9 against 37.8 scenes/s), and 2^15-entry pixel
# blocks made an 8-image 24 px pixel-path tally 11-17 % slower.
_BLOCK_DRAWS = 8192
_NOISE_ENTRIES = 1 << 16
# the blocks of each stream that the module docstring's cache keeps
_CACHED_PREFIX = 8


def worker_count() -> int:
    """Pixel-path tally threads: ``PWS_THREADS``, else the CPU count."""
    env = os.environ.get("PWS_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"PWS_THREADS must be a positive integer, got {env!r}")
    return threads


def stream_id(context: int, index: int) -> int:
    """Compose a 64-bit stream id from a context tag and an index."""
    return ((context & 0xFFFF) << 48) | (index & 0xFFFFFFFFFFFF)


def noise_generator(seed: int, stream: int, block: int = 0) -> Generator:
    """SFC64 generator of block ``block`` of one evaluation stream, seeded
    by the packed integer key of the module docstring."""
    key = (block & _WORD) << 128 | (stream & _WORD) << 64 | (seed & _WORD)
    return Generator(SFC64(SeedSequence(key)))


@dataclass(frozen=True)
class SmoothingConfig:
    sigma: float
    n_samples: int = 10000
    confidence_alpha: float = 0.001
    seed: int = 0
    force_pixel_noise: bool = False

    def __post_init__(self):
        check_real(self.sigma, lambda s: 0 < s < math.inf,
                   f"sigma must be positive and finite, got {self.sigma}")
        # the logit path factors sigma**2 times the logit covariance
        check_real(self.sigma, lambda s: s <= math.sqrt(sys.float_info.max),
                   f"sigma must have a finite square, at most about 1.34e154, "
                   f"got {self.sigma}")
        check_integer(self.n_samples, lambda n: n >= 100,
                      f"n_samples must be an integer of at least 100, got {self.n_samples!r}")
        # one 64-bit key word: 2**64 or -1 would alias seeds 0 or 2**64 - 1
        check_integer(self.seed, lambda s: 0 <= s <= _WORD,
                      f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        check_real(self.confidence_alpha, lambda a: 0.0 < a < 1.0,
                   "confidence_alpha must lie in (0, 1)")


@dataclass(frozen=True)
class SmoothedEstimate:
    top_label: int
    p_a_lower: float
    p_b_upper: float
    counts: np.ndarray = field(repr=False)
    radius: float
    abstained: bool


def gaussian_quantile(p: float) -> float:
    """Inverse standard normal CDF, ``scipy.special.ndtri``."""
    if not 0.0 < p < 1.0 or not math.isfinite(p):
        raise DomainError(f"quantile undefined at p={p!r}")
    return float(ndtri(p))


def clopper_pearson_lower(successes: int, trials: int, alpha: float) -> float:
    """Exact one-sided lower confidence bound for a binomial proportion:
    the ``alpha`` quantile of Beta(k, n - k + 1), ``scipy.special.betaincinv``."""
    bad = f"bad binomial tally {successes}/{trials}"
    check_integer(trials, lambda n: n >= 1, bad)
    check_integer(successes, lambda k: 0 <= k <= trials, bad)
    check_real(alpha, lambda a: 0.0 < a < 1.0, f"alpha must lie in (0, 1), got {alpha!r}")
    if successes == 0:  # betaincinv's NaN
        return 0.0
    return float(betaincinv(successes, trials - successes + 1, alpha))


@functools.lru_cache(maxsize=32)
def _cached_block(seed, stream, block, rows, width) -> np.ndarray:
    """``_noise_block``'s draws, kept read-only for the whole process."""
    noise = noise_generator(seed, stream, block).standard_normal((rows, width))
    noise.setflags(write=False)
    return noise


def _noise_block(cfg, stream, block, rows, width) -> np.ndarray:
    """Block ``block`` of the draws: ``rows`` standard-normal rows of
    ``width`` values from the block's own generator, from the cache for
    the stream's first ``_CACHED_PREFIX`` blocks of at most
    ``_NOISE_ENTRIES`` values."""
    if block < _CACHED_PREFIX and rows * width <= _NOISE_ENTRIES:
        return _cached_block(cfg.seed, stream, block, rows, width)
    return noise_generator(cfg.seed, stream, block).standard_normal((rows, width))


def _first_max_counts(cols) -> np.ndarray:
    """``np.bincount(np.argmax(cols.T, axis=1), minlength=len(cols))`` for
    (labels, draws) label columns that hold no NaN: each draw goes to the
    first label holding its column's maximum, so a tie goes to the lower
    label.  A column's maximum is one of its values, so the draws whose
    maximum is unique make ``top`` one-hot; only when an exact tie leaves
    more set flags than draws are the tied draws counted again by argmax."""
    top = cols == cols.max(axis=0)
    counts = top.sum(axis=1)
    if counts.sum() != cols.shape[1]:
        tied = top.sum(axis=0) > 1
        counts -= top[:, tied].sum(axis=1)
        counts += np.bincount(np.argmax(cols[:, tied], axis=0), minlength=len(cols))
    return counts


def _logit_counts(bases, cols) -> np.ndarray:
    """``_first_max_counts(base[:, None] + cols)`` for every row of
    ``bases``, after the bound step of the module docstring: an image
    whose top label's least sum beats every other label's greatest sum
    takes all of the block's draws for that label, unscanned."""
    low, high = bases + cols.min(axis=1), bases + cols.max(axis=1)
    rows = np.arange(len(bases))
    top = np.argmax(low, axis=1)
    high[rows, top] = -np.inf
    # strict: an equal pair can be a tie that argmax gives to a lower label
    settled = low[rows, top] > high.max(axis=1)
    counts = np.zeros(low.shape, dtype=np.int64)
    counts[rows[settled], top[settled]] = cols.shape[1]
    for image in np.flatnonzero(~settled):
        counts[image] = _first_max_counts(bases[image, :, None] + cols)
    return counts


def _tally(bases, width, cfg, stream, threads, push, count, label_count) -> np.ndarray:
    """Label counts of every row of ``bases`` over every block of the draws
    of ``width`` values.  ``count(bases, push(block))`` counts every image's
    draws of one block, each for the first label holding its maximum score,
    as ``np.argmax`` picks, so a tie goes to the lower label.  ``push`` sets
    the layout ``count`` reads: (draws, pixels) noise on the pixel path,
    (labels, draws) label columns on the logit path."""
    rows = max(1, min(_BLOCK_DRAWS, _NOISE_ENTRIES // width))
    n_blocks = -(-cfg.n_samples // rows)

    def tally(first, step):
        counts = np.zeros((len(bases), label_count), dtype=np.int64)
        for block in range(first, n_blocks, step):
            counts += count(bases, push(_noise_block(
                cfg, stream, block, min(rows, cfg.n_samples - block * rows), width)))
        return counts

    threads = min(threads, n_blocks)
    if threads < 2:
        return tally(0, 1)
    # each thread draws and scores every threads-th block into counts of its own
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(tally, first, threads) for first in range(threads)]
        return sum(future.result() for future in futures)


def _estimate(counts: np.ndarray, cfg: SmoothingConfig) -> SmoothedEstimate:
    top = int(np.argmax(counts))
    p_a = clopper_pearson_lower(int(counts[top]), cfg.n_samples, cfg.confidence_alpha)
    p_b = 1.0 - p_a
    if p_a <= 0.5:
        return SmoothedEstimate(top, p_a, p_b, counts, 0.0, True)
    return SmoothedEstimate(top, p_a, p_b, counts, cfg.sigma * gaussian_quantile(p_a), False)


def smoothed_estimates(
    classifier: BaseClassifier,
    images,
    cfg: SmoothingConfig,
    stream: int = STREAM_GENERIC,
) -> list:
    """Estimate the smoothed prediction at each image, every image tallied
    against the same draws of ``stream``, on the threads of the module's
    thread rule.  A score block that is not one row of ``label_count``
    scores per draw, or images whose shape is not the classifier's
    ``image_shape`` or whose size is not the logit map's column count,
    raise ``ShapeMismatch``; non-finite scores, or a non-finite
    logit map or image logits, raise ``NonFiniteScores``.
    """
    threads = worker_count()
    images = np.asarray(images, dtype=np.float64)
    if not len(images):
        return []
    label_count = classifier.label_count
    keep = np.arange(label_count)  # the labels tallied; the others take no draw
    logit_map = None if cfg.force_pixel_noise else classifier.logit_map()
    if logit_map is None:
        bases = images.reshape(len(images), -1)
        width = bases.shape[1]
        push = lambda block: block * cfg.sigma  # out of place: cached blocks are read-only

        def count_one(base, noise):
            batch = (base + noise).reshape(-1, *images.shape[1:])
            scores = np.asarray(classifier.predict_batch(batch))
            if scores.shape != (len(batch), label_count):
                raise ShapeMismatch(f"scores of shape {scores.shape} for {len(batch)} "
                                    f"images of {label_count} labels")
            if not np.isfinite(scores).all():
                raise NonFiniteScores("the classifier returned non-finite scores")
            return np.bincount(np.argmax(scores, axis=1), minlength=label_count)

        count = lambda bases, noise: np.array([count_one(base, noise) for base in bases])
    else:
        a_mat, bias = logit_map
        classifier.check_images(images)  # predict_batch's check on the pixel path
        if images[0].size != a_mat.shape[1]:
            raise ShapeMismatch(f"images of {images[0].size} pixels for a logit map of "
                                f"{a_mat.shape[1]} pixels")
        # one product per image, the arithmetic of a one-image call
        bases = np.array([a_mat @ image.reshape(-1) + bias for image in images])
        if not (np.isfinite(a_mat).all() and np.isfinite(bases).all()):
            raise NonFiniteScores("the logit map or an image's logits are not finite")
        # labels with one row of (A, b) tie at every draw, and argmax gives
        # the tie to the first of them: they share its noise column and base
        # (+ 0.0 makes -0.0 and 0.0 one value)
        first = {}
        for label, row in enumerate(np.column_stack([a_mat, bias]) + 0.0):
            first.setdefault(row.tobytes(), label)
        keep = np.array(list(first.values()))
        a_mat, bases, width = a_mat[keep], bases[:, keep], label_count
        with np.errstate(over="ignore", invalid="ignore"):
            cov = (cfg.sigma**2) * (a_mat @ a_mat.T)
        if not np.isfinite(cov).all():
            raise ConfigError(f"sigma {cfg.sigma} overflows the logit noise covariance")
        vals, vecs = np.linalg.eigh(cov)
        # the kept labels' noise from their own columns of the draws
        factor = np.zeros((len(keep), label_count))
        factor[:, keep] = vecs * np.sqrt(np.clip(vals, 0.0, None))
        # (labels, draws) columns: one transpose-copy per block, then every
        # image adds its logits to the same sums base + noise would hold
        push = lambda block: (block @ factor.T).T.copy()
        count = _logit_counts
        # one thread: letting the thread rule apply here made demo-attack
        # slower in 6 of 6 alternating 8 s pairs (49.4 against 62.6 scenes/s)
        threads = 1
    counts = np.zeros((len(images), label_count), dtype=np.int64)
    counts[:, keep] = _tally(bases, width, cfg, stream, threads, push, count, len(keep))
    return [_estimate(c, cfg) for c in counts]


def smoothed_estimate(
    classifier: BaseClassifier,
    image: np.ndarray,
    cfg: SmoothingConfig,
    stream: int = STREAM_GENERIC,
) -> SmoothedEstimate:
    """Estimate the smoothed prediction at one image with confidence bounds."""
    return smoothed_estimates(classifier, [image], cfg, stream)[0]


def smoothed_prediction(
    classifier: BaseClassifier,
    image: np.ndarray,
    cfg: SmoothingConfig,
    stream: int = STREAM_GENERIC,
) -> int:
    """Top label of the Monte-Carlo tally; the draws of ``smoothed_estimate``."""
    return smoothed_estimate(classifier, image, cfg, stream).top_label
