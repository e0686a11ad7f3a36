import math
import sys
import threading
import warnings

import numpy as np
import pytest

from pwscert import (
    BaseClassifier,
    ConfigError,
    DomainError,
    LinearSoftmaxClassifier,
    ShapeMismatch,
    SmoothingConfig,
    clopper_pearson_lower,
    gaussian_quantile,
    smoothed_estimate,
    smoothed_estimates,
    smoothed_prediction,
)
from pwscert import smoothing
from pwscert.smoothing import (_CACHED_PREFIX, _NOISE_ENTRIES, STREAM_FRAME, _cached_block,
                               _estimate, _first_max_counts, _logit_counts, _noise_block,
                               noise_generator, stream_id)


class ConstantClassifier(BaseClassifier):
    """Always answers one label, whatever the input."""

    def __init__(self, label, labels=5):
        self._label = label
        self._labels = labels

    @property
    def label_count(self):
        return self._labels

    def predict_batch(self, images):
        scores = np.zeros((len(images), self._labels))
        scores[:, self._label] = 1.0
        return scores


class CoinClassifier(BaseClassifier):
    """Two labels decided by the sign of one noisy pixel."""

    @property
    def label_count(self):
        return 2

    def predict_batch(self, images):
        flat = images.reshape(len(images), -1)
        hot = (flat[:, 0] > 0).astype(float)
        return np.column_stack([1 - hot, hot])


def tied_classifier(shape, image, labels, seed, cls=LinearSoftmaxClassifier):
    """Random linear model whose logits all tie at ``image``, so the noise
    splits the tally between the labels and any change of draws shows."""
    k, h, w = shape
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((k * (h // 4) * (w // 4), labels))
    untied = cls(weights, np.zeros(labels), shape, 4)
    a_mat, _ = untied.logit_map()
    return cls(weights, -(a_mat @ image.reshape(-1)), shape, 4)


def block_draws(cfg, stream, rows, width):
    """The stream's standard-normal draws of ``width`` values, block ``b``
    of ``rows`` draws from numpy's SFC64 seeded by the packed integer
    ``b << 128 | stream << 64 | seed``."""
    word = (1 << 64) - 1
    blocks = []
    for b, start in enumerate(range(0, cfg.n_samples, rows)):
        key = b << 128 | (stream & word) << 64 | (cfg.seed & word)
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))
        blocks.append(rng.standard_normal((min(rows, cfg.n_samples - start), width)))
    return np.concatenate(blocks)


def block_oracle(clf, image, cfg, stream, rows):
    """Pixel-path counts of ``image`` in one batch of the block draws."""
    eps = cfg.sigma * block_draws(cfg, stream, rows, image.size)
    scores = clf.predict_batch((image.reshape(-1) + eps).reshape(-1, *image.shape))
    return np.bincount(np.argmax(scores, axis=1), minlength=clf.label_count)


def logit_block_oracle(clf, image, cfg, stream, rows):
    """Logit-path counts of ``image``: the block draws of one logit vector
    each, pushed through the factor ``V sqrt(max(lambda, 0))`` of the
    eigendecomposition of ``sigma^2 A A^T``."""
    a_mat, bias = clf.logit_map()
    vals, vecs = np.linalg.eigh((cfg.sigma**2) * (a_mat @ a_mat.T))
    factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    noise = block_draws(cfg, stream, rows, len(bias)) @ factor.T
    logits = a_mat @ image.reshape(-1) + bias + noise
    return np.bincount(np.argmax(logits, axis=1), minlength=clf.label_count)


def record_pools(monkeypatch):
    """The size of every thread pool the tally starts, appended as it starts."""
    from pwscert import smoothing

    pools = []

    class Recorder(smoothing.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(smoothing, "ThreadPoolExecutor", Recorder)
    return pools


class BatchRecorder(LinearSoftmaxClassifier):
    """LinearSoftmaxClassifier that records the size of every batch."""

    def __init__(self, *args):
        super().__init__(*args)
        self.batches = []

    def predict_batch(self, images):
        self.batches.append(len(images))
        return super().predict_batch(images)


class TestGaussianQuantile:
    def test_median(self):
        assert gaussian_quantile(0.5) == 0.0

    def test_known_value(self):
        # bisection on the mpmath normal CDF gives 1.9599639845400542
        assert gaussian_quantile(0.975) == pytest.approx(
            1.9599639845400542, abs=1e-9
        )

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for p in rng.uniform(1e-9, 1 - 1e-9, 200):
            assert gaussian_quantile(p) == pytest.approx(
                -gaussian_quantile(1 - p), abs=1e-12
            )

    def test_against_mpmath_bisection(self):
        import mpmath as mp

        mp.mp.dps = 30

        def oracle(p):
            lo, hi = mp.mpf(-15), mp.mpf(15)
            target = mp.mpf(p)
            for _ in range(120):
                mid = (lo + hi) / 2
                if 0.5 * mp.erfc(-mid / mp.sqrt(2)) < target:
                    lo = mid
                else:
                    hi = mid
            return float((lo + hi) / 2)

        rng = np.random.default_rng(5)
        probes = np.concatenate(
            [
                rng.uniform(1e-12, 1e-6, 20),
                rng.uniform(1e-6, 0.5, 60),
                rng.uniform(0.5, 1 - 1e-6, 60),
                1 - rng.uniform(1e-12, 1e-6, 20),
            ]
        )
        for p in probes:
            assert gaussian_quantile(float(p)) == pytest.approx(
                oracle(float(p)), abs=1e-9
            )

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.1, 1.1, float("nan")):
            with pytest.raises(DomainError):
                gaussian_quantile(bad)


class TestClopperPearson:
    def test_zero_successes(self):
        assert clopper_pearson_lower(0, 50, 0.05) == 0.0

    def test_all_successes_closed_form(self):
        # Beta(n, 1) quantile is alpha**(1/n); betaincinv returns its bits
        trials = [*range(1, 400), 1000, 2000, 4000, 9999, 10000, 40000, 123457]
        for alpha in (1e-9, 1e-6, 1e-4, 0.001, 0.01, 0.05, 0.5, 0.9):
            for n in trials:
                assert clopper_pearson_lower(n, n, alpha) == alpha ** (1 / n), (n, alpha)
        assert clopper_pearson_lower(100, 100, 0.001) == pytest.approx(
            0.9332543007969910, abs=1e-12)

    def test_middle_value_against_bisection(self):
        # mpmath regularized-incomplete-beta bisection: 0.72279975032908635
        assert clopper_pearson_lower(80, 100, 0.05) == pytest.approx(
            0.7227997503290864, abs=1e-10
        )

    def test_coverage(self):
        # the lower bound exceeds the true p in at most an alpha fraction
        # of experiments, up to binomial sampling slack
        from scipy.stats import binom

        rng = np.random.default_rng(123)
        alpha = 0.05
        experiments = 2000
        violations = 0
        for _ in range(experiments):
            p = rng.uniform(0.05, 0.95)
            n = int(rng.integers(50, 500))
            k = rng.binomial(n, p)
            if clopper_pearson_lower(k, n, alpha) > p:
                violations += 1
        assert violations <= binom.ppf(0.99, experiments, alpha)

    def test_bad_tally(self):
        for successes, trials in [(5, 4), (5, 3), (-1, 4), (0, 0)]:
            with pytest.raises(ValueError, match="bad binomial tally") as err:
                clopper_pearson_lower(successes, trials, 0.05)
            assert err.value.kind == "config_error"

    @pytest.mark.parametrize("successes, trials, alpha", [
        (5, 10, 2.0), (5, 10, "0.1"), (2.5, 10, 0.05), (True, 10, 0.05),
    ])
    def test_bad_numbers(self, successes, trials, alpha):
        with pytest.raises(ConfigError):
            clopper_pearson_lower(successes, trials, alpha)


class TestSmoothedEstimate:
    def test_constant_classifier_bounds(self):
        cfg = SmoothingConfig(sigma=0.5, n_samples=100, confidence_alpha=0.001, seed=1)
        est = smoothed_estimate(ConstantClassifier(3), np.zeros((1, 4, 4)), cfg)
        assert est.top_label == 3
        assert int(est.counts[3]) == 100
        assert est.p_a_lower == pytest.approx(0.001 ** (1 / 100), rel=1e-12)
        assert not est.abstained

    def test_radius_formula(self):
        # radius = sigma/2 * (q(pA) - q(pB)); for pA=.99, pB=.01, sigma=.5
        # the mpmath oracle gives 1.16317393702042055
        sigma = 0.5
        radius = 0.5 * sigma * (gaussian_quantile(0.99) - gaussian_quantile(0.01))
        assert radius == pytest.approx(1.1631739370204206, abs=1e-9)

    def test_even_split_abstains(self):
        cfg = SmoothingConfig(
            sigma=1.0, n_samples=2000, confidence_alpha=0.01, seed=7,
            force_pixel_noise=True,
        )
        est = smoothed_estimate(CoinClassifier(), np.zeros((1, 2, 2)), cfg)
        assert est.abstained
        assert est.radius == 0.0
        assert est.p_a_lower <= 0.5 + 0.05

    def test_reproducible_counts(self):
        cfg = SmoothingConfig(
            sigma=0.6, n_samples=500, confidence_alpha=0.01, seed=42,
            force_pixel_noise=True,
        )
        img = np.full((1, 3, 3), 0.2)
        a = smoothed_estimate(CoinClassifier(), img, cfg, stream=9)
        b = smoothed_estimate(CoinClassifier(), img, cfg, stream=9)
        np.testing.assert_array_equal(a.counts, b.counts)
        c = smoothed_estimate(CoinClassifier(), img, cfg, stream=10)
        assert not np.array_equal(a.counts, c.counts)

    def test_logit_blocks_match_one_batch_oracle(self):
        shape = (1, 8, 8)
        img = np.random.default_rng(3).uniform(0.0, 1.0, shape)
        clf = tied_classifier(shape, img, 3, seed=3)
        cfg = SmoothingConfig(sigma=0.6, n_samples=20000, confidence_alpha=0.01, seed=3)
        est = smoothed_estimate(clf, img, cfg, stream=7)
        rows = 8192  # _BLOCK_DRAWS: 3 blocks, of 8192, 8192 and 3616 draws
        want = logit_block_oracle(clf, img, cfg, 7, rows)
        np.testing.assert_array_equal(est.counts, want)
        assert np.count_nonzero(want) == 3 and want.max() < 0.6 * cfg.n_samples
        # the oracle sees the layout: half the rows per block moves the counts
        # (one row more moves 4 of the 20,000 draws, whose labels here balance)
        assert not np.array_equal(logit_block_oracle(clf, img, cfg, 7, rows // 2), want)

    @pytest.mark.parametrize("builtin", [False, True])
    def test_logit_counts_need_no_cholesky(self, builtin, demo_classifier, demo_corpus,
                                           monkeypatch):
        # the built-in model's weights sum to zero over the labels, so its
        # covariance is singular and Cholesky passes or fails by rounding:
        # the counts must come from one factor whatever Cholesky would do
        if builtin:
            from pwscert import render
            from pwscert.demo import demo_specs
            from pwscert.geometry import MotionValue

            scenes, cam = demo_corpus
            image = render(scenes[0].cloud, MotionValue(demo_specs()[0], 0.0), cam)
            weights = demo_classifier.weights
            assert np.abs(weights.sum(axis=1)).max() < 1e-12
            a_mat, _ = demo_classifier.logit_map()
            clf = LinearSoftmaxClassifier(weights, -(a_mat @ image.reshape(-1)),
                                          demo_classifier.image_shape,
                                          demo_classifier.downsample)
        else:  # a random full-rank logit map, which Cholesky accepts
            shape = (1, 8, 8)
            image = np.random.default_rng(16).uniform(0.0, 1.0, shape)
            clf = tied_classifier(shape, image, 3, seed=16)
        cfg = SmoothingConfig(sigma=0.5, n_samples=20000, confidence_alpha=0.01, seed=8)
        want = smoothed_estimate(clf, image, cfg).counts

        def refuse(matrix):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        np.testing.assert_array_equal(smoothed_estimate(clf, image, cfg).counts, want)
        assert np.count_nonzero(want) > 1

    @pytest.mark.parametrize("labels", [2, 3])
    def test_logit_ties_go_to_the_lower_label(self, labels):
        # labels 0 and 1 share one column and one bias; the column is zero, so
        # their rows of the covariance, and of its factor, are exact zeros and
        # the pair ties on every draw (the next test shares a random column).
        # With 3 labels, the third label's random column takes about half the
        # draws and leaves the pair the rest.
        rng = np.random.default_rng(21)
        weights = np.zeros((4, labels))  # an 8 x 8 image pooled by 4
        weights[:, 2:] = rng.standard_normal((4, labels - 2))
        clf = LinearSoftmaxClassifier(weights, np.full(labels, 0.25), (1, 8, 8), 4)
        img = np.zeros((1, 8, 8))
        cfg = SmoothingConfig(sigma=0.5, n_samples=10000, confidence_alpha=0.01, seed=9)
        counts = smoothed_estimate(clf, img, cfg, stream=7).counts
        np.testing.assert_array_equal(counts, logit_block_oracle(clf, img, cfg, 7, 8192))
        assert counts[1] == 0
        if labels == 2:
            assert counts[0] == cfg.n_samples
        else:
            assert 0.4 < counts[2] / cfg.n_samples < 0.6

    def test_equal_labels_share_one_noise_column(self):
        # labels 0 and 1 share a non-zero column and one bias, and label 2
        # ties them at the image: the pixel path gives every draw the pair
        # wins to label 0.  With the pair factored apart, its noise rows
        # differ by rounding, and label 1 took 4,241 of the 10,000 logit draws
        shape = (1, 8, 8)
        img = np.random.default_rng(23).uniform(0.0, 1.0, shape)
        weights = np.random.default_rng(24).standard_normal((4, 3))
        weights[:, 1] = weights[:, 0]
        a_mat, _ = LinearSoftmaxClassifier(weights, np.zeros(3), shape, 4).logit_map()
        clf = LinearSoftmaxClassifier(weights, -(a_mat @ img.reshape(-1)), shape, 4)
        cfg = SmoothingConfig(sigma=0.5, n_samples=10000, confidence_alpha=0.01, seed=0)
        logit = smoothed_estimate(clf, img, cfg).counts
        pixel = smoothed_estimate(clf, img, SmoothingConfig(
            sigma=0.5, n_samples=10000, confidence_alpha=0.01, seed=0,
            force_pixel_noise=True)).counts
        assert logit[1] == pixel[1] == 0
        # both paths sample one smoothed classifier, which splits about evenly:
        # five standard deviations of the difference of two binomial counts
        assert abs(int(logit[0]) - int(pixel[0])) < 5 * math.sqrt(2 * 10000 * 0.25)
        assert 0.4 < logit[0] / cfg.n_samples < 0.6

    def test_many_label_logit_blocks_match_one_batch_oracle(self):
        # 12 labels make 2^16 // 12 = 5461-draw blocks, so 12,000 draws are
        # two full blocks and a short one of 1,078; the map has full rank over
        # 16 pooled features and ties at the image, so the noise decides
        shape = (1, 16, 16)
        img = np.random.default_rng(22).uniform(0.0, 1.0, shape)
        clf = tied_classifier(shape, img, 12, seed=22)
        assert np.linalg.matrix_rank(clf.logit_map()[0]) == 12
        cfg = SmoothingConfig(sigma=0.5, n_samples=12000, confidence_alpha=0.01, seed=5)
        counts = smoothed_estimate(clf, img, cfg, stream=7).counts
        np.testing.assert_array_equal(counts, logit_block_oracle(clf, img, cfg, 7, 5461))
        assert np.count_nonzero(counts) == 12

    def test_pixel_blocks_match_one_batch_oracle(self):
        shape = (1, 64, 64)
        img = np.random.default_rng(6).uniform(0.0, 1.0, shape)
        clf = tied_classifier(shape, img, 3, seed=6, cls=BatchRecorder)
        cfg = SmoothingConfig(sigma=0.8, n_samples=500, confidence_alpha=0.01,
                              seed=2, force_pixel_noise=True)
        est = smoothed_estimate(clf, img, cfg, stream=7)
        rows = _NOISE_ENTRIES // img.size
        assert max(clf.batches) == rows < cfg.n_samples
        want = block_oracle(clf, img, cfg, 7, rows)
        np.testing.assert_array_equal(est.counts, want)
        assert want.max() < 0.6 * cfg.n_samples  # near a tie: the draws decide
        # the oracle sees the layout: one row more per block moves the counts
        assert not np.array_equal(block_oracle(clf, img, cfg, 7, rows + 1), want)

    def test_radius_scales_with_sigma(self, demo_classifier, demo_corpus):
        scenes, cam = demo_corpus
        from pwscert import render
        from pwscert.demo import demo_specs
        from pwscert.geometry import MotionValue

        img = render(scenes[0].cloud, MotionValue(demo_specs()[0], 0.0), cam)
        est1 = smoothed_estimate(
            demo_classifier, img,
            SmoothingConfig(sigma=0.25, n_samples=2000, confidence_alpha=0.01, seed=5),
        )
        est2 = smoothed_estimate(
            demo_classifier, img,
            SmoothingConfig(sigma=0.5, n_samples=2000, confidence_alpha=0.01, seed=5),
        )
        # the same tallies at doubled sigma give exactly doubled radius;
        # tallies differ slightly, so compare through the formula instead
        r1 = 0.25 * gaussian_quantile(est1.p_a_lower)
        r2 = 0.5 * gaussian_quantile(est2.p_a_lower)
        assert est1.radius == pytest.approx(r1, rel=1e-12)
        assert est2.radius == pytest.approx(r2, rel=1e-12)

    def test_radius_equals_two_class_form(self):
        # the tally's one quantile call gives the two-quantile radius bit for bit
        sigma = 0.37
        cfg = SmoothingConfig(sigma=sigma, n_samples=10000, confidence_alpha=0.001)
        for k in range(5100, 10001, 7):
            counts = np.array([10000 - k, k])
            est = _estimate(counts, cfg)
            p = est.p_a_lower
            if p <= 0.5:
                continue
            assert est.radius == 0.5 * sigma * (
                gaussian_quantile(p) - gaussian_quantile(1 - p)), k
        for p in np.random.default_rng(21).uniform(0.5, 1.0, 20000):
            assert sigma * gaussian_quantile(p) == 0.5 * sigma * (
                gaussian_quantile(p) - gaussian_quantile(1 - p)), p

    def test_radius_monotone_in_confidence(self):
        sigma = 0.4
        levels = np.linspace(0.51, 0.999, 40)
        radii = [
            0.5 * sigma * (gaussian_quantile(p) - gaussian_quantile(1 - p))
            for p in levels
        ]
        assert np.all(np.diff(radii) > 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SmoothingConfig(sigma=0.0, n_samples=1000)
        with pytest.raises(ValueError):
            SmoothingConfig(sigma=0.5, n_samples=10)
        with pytest.raises(ValueError):
            SmoothingConfig(sigma=0.5, n_samples=1000, confidence_alpha=1.5)
        for n_samples in [1e4, 1000.5, True]:
            with pytest.raises(ConfigError, match="n_samples must be an integer"):
                SmoothingConfig(sigma=0.5, n_samples=n_samples)
        for seed in [1.5, 2.0, True, "1"]:
            with pytest.raises(ConfigError, match="seed must be an integer"):
                SmoothingConfig(sigma=0.5, n_samples=100, seed=seed)
        for sigma in ["0.5", True]:
            with pytest.raises(ConfigError, match="sigma must be positive and finite"):
                SmoothingConfig(sigma=sigma, n_samples=100)
        for alpha in ["0.01", True]:
            with pytest.raises(ConfigError, match="confidence_alpha must lie in"):
                SmoothingConfig(sigma=0.5, n_samples=100, confidence_alpha=alpha)

    def test_sigma_without_a_finite_square_rejected(self):
        # the logit path squares sigma, where 1e160 raised a bare OverflowError
        top = math.sqrt(sys.float_info.max)
        for sigma in [1e160, math.nextafter(top, math.inf), 10**200]:
            with pytest.raises(ConfigError, match="sigma must have a finite square"):
                SmoothingConfig(sigma=sigma, n_samples=100)
        assert SmoothingConfig(sigma=top, n_samples=100).sigma == top

    def test_sigma_that_overflows_the_logit_covariance_rejected(self):
        # sigma^2 is finite, but sigma^2 A A^T is not: eigh would raise a bare
        # LinAlgError, after an overflow warning
        rng = np.random.default_rng(25)
        clf = LinearSoftmaxClassifier(10.0 * rng.standard_normal((4, 3)), np.zeros(3),
                                      (1, 8, 8), 4)
        img = np.zeros((1, 8, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="overflows the logit noise covariance"):
                smoothed_estimate(clf, img, SmoothingConfig(sigma=1e154, n_samples=100))
            assert smoothed_estimate(clf, img, SmoothingConfig(sigma=1e150, n_samples=100))

    def test_seed_outside_one_word_rejected(self):
        # one 64-bit key word: 2**64 and -1 would draw the noise of 0 and 2**64 - 1
        for seed in [1 << 64, -1]:
            with pytest.raises(ConfigError, match=r"seed must be an integer in \[0, 2"):
                SmoothingConfig(sigma=0.5, n_samples=100, seed=seed)
        top = (1 << 64) - 1
        assert SmoothingConfig(sigma=0.5, n_samples=100, seed=top).seed == top


class TestSharedDraws:
    """Every image of one call sees the draws a one-image call would."""

    @pytest.mark.parametrize("pixel", [False, True])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_each_image_equals_its_one_image_tally(self, pixel, workers, monkeypatch):
        from pwscert import smoothing

        rng = np.random.default_rng(11)
        shape = (1, 8, 8)
        clf = LinearSoftmaxClassifier(rng.standard_normal((4, 3)),
                                      rng.standard_normal(3), shape, 4)
        images = rng.uniform(0.0, 1.0, (5, *shape))
        cfg = SmoothingConfig(sigma=0.7, n_samples=3000, confidence_alpha=0.01,
                              seed=5, force_pixel_noise=pixel)
        monkeypatch.setattr(smoothing, "_BLOCK_DRAWS", 1000)  # 3 blocks on both paths
        monkeypatch.setenv("PWS_THREADS", str(workers))
        got = smoothed_estimates(clf, images, cfg, stream=4)
        assert len(got) == len(images)
        monkeypatch.setenv("PWS_THREADS", "1")
        for image, est in zip(images, got):
            want = smoothed_estimate(clf, image, cfg, stream=4)
            np.testing.assert_array_equal(est.counts, want.counts)
            assert (est.top_label, est.p_a_lower, est.radius, est.abstained) == (
                want.top_label, want.p_a_lower, want.radius, want.abstained)
        assert len({est.p_a_lower for est in got}) > 1

    def test_pixel_scorers_under_thread_switching(self, monkeypatch):
        from pwscert import smoothing

        # more scorer threads than cores, many small blocks, and a thread
        # switch every microsecond: a block scored twice, skipped or
        # overwritten while in use changes some image's counts
        rng = np.random.default_rng(12)
        shape = (1, 4, 4)
        clf = LinearSoftmaxClassifier(rng.standard_normal((1, 3)),
                                      rng.standard_normal(3), shape, 4)
        images = rng.uniform(0.0, 1.0, (9, *shape))
        cfg = SmoothingConfig(sigma=4.0, n_samples=2000, confidence_alpha=0.01,
                              seed=8, force_pixel_noise=True)
        monkeypatch.setattr(smoothing, "_NOISE_ENTRIES", 16 * 16)  # 16-draw blocks
        monkeypatch.setenv("PWS_THREADS", "1")
        want = [smoothed_estimate(clf, image, cfg, stream=2).counts for image in images]
        monkeypatch.setenv("PWS_THREADS", "6")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = smoothed_estimates(clf, images, cfg, stream=2)
        finally:
            sys.setswitchinterval(interval)
        for est, counts in zip(got, want):
            assert est.counts.sum() == cfg.n_samples
            np.testing.assert_array_equal(est.counts, counts)

    @pytest.mark.parametrize("path, n_samples, workers, n_blocks", [
        # 64 pixels: 2^16 // 64 = 1024 draws a block
        ("pixel", 2500, 2, 3),  # blocks of 1024, 1024 and 452 draws: the last is partial
        ("pixel", 700, 3, 1),  # fewer draws than one block's 1024 rows
        ("pixel", 3000, 7, 3),  # more workers than blocks
        # 3 labels: min(8192, 2^16 // 3) = 8192 draws a block
        ("logit", 20000, 2, 3),  # blocks of 8192, 8192 and 3616 draws
        ("logit", 700, 3, 1),
    ])
    def test_block_layout(self, path, n_samples, workers, n_blocks, monkeypatch):
        pixel = path == "pixel"
        shape = (1, 8, 8)
        images = np.random.default_rng(13).uniform(0.0, 1.0, (2, *shape))
        clf = tied_classifier(shape, images[0], 3, seed=13)
        cfg = SmoothingConfig(sigma=0.5, n_samples=n_samples, confidence_alpha=0.01,
                              seed=4, force_pixel_noise=pixel)
        pools, threads = record_pools(monkeypatch), set()

        def predict_batch(batch):
            threads.add(threading.get_ident())
            return LinearSoftmaxClassifier.predict_batch(clf, batch)

        monkeypatch.setattr(clf, "predict_batch", predict_batch)
        monkeypatch.setenv("PWS_THREADS", str(workers))
        got = smoothed_estimates(clf, images, cfg, stream=3)
        if pixel:
            assert pools == ([min(workers, n_blocks)] if n_blocks > 1 else [])
            assert len(threads) <= n_blocks
            oracle, rows = block_oracle, 1024
        else:  # the logit path scores on the calling thread, never predict_batch
            assert pools == [] and threads == set()
            oracle, rows = logit_block_oracle, 8192
        for image, est in zip(images, got):
            np.testing.assert_array_equal(est.counts, oracle(clf, image, cfg, 3, rows))
        assert np.count_nonzero(got[0].counts) > 1

    @pytest.mark.parametrize("path", ["pixel", "logit"])
    def test_counts_equal_for_every_thread_count(self, path, monkeypatch):
        from pwscert import smoothing

        pixel = path == "pixel"

        shape = (1, 8, 8)
        images = np.random.default_rng(14).uniform(0.0, 1.0, (3, *shape))
        clf = tied_classifier(shape, images[1], 3, seed=14)
        cfg = SmoothingConfig(sigma=0.5, n_samples=700, confidence_alpha=0.01,
                              seed=6, force_pixel_noise=pixel)
        # 22 blocks on both paths: 32 pixel draws of 64 values, 32 logit draws
        monkeypatch.setattr(smoothing, "_NOISE_ENTRIES", 64 * 32)
        monkeypatch.setattr(smoothing, "_BLOCK_DRAWS", 32)
        pools = record_pools(monkeypatch)
        monkeypatch.setenv("PWS_THREADS", "1")
        want = [est.counts for est in smoothed_estimates(clf, images, cfg, stream=5)]
        for workers in range(2, 6):
            monkeypatch.setenv("PWS_THREADS", str(workers))
            got = smoothed_estimates(clf, images, cfg, stream=5)
            for est, counts in zip(got, want):
                np.testing.assert_array_equal(est.counts, counts)
        assert pools == ([2, 3, 4, 5] if pixel else [])

    def test_one_image_call_takes_the_thread_rule(self, monkeypatch):
        shape = (1, 8, 8)  # 1024-draw blocks: 2500 draws make 3
        image = np.random.default_rng(15).uniform(0.0, 1.0, shape)
        clf = tied_classifier(shape, image, 3, seed=15)
        cfg = SmoothingConfig(sigma=0.5, n_samples=2500, confidence_alpha=0.01,
                              seed=7, force_pixel_noise=True)
        pools = record_pools(monkeypatch)
        monkeypatch.setenv("PWS_THREADS", "1")
        want = smoothed_estimate(clf, image, cfg, stream=6).counts
        assert pools == []
        monkeypatch.setenv("PWS_THREADS", "3")
        got = smoothed_estimate(clf, image, cfg, stream=6).counts
        assert pools == [3]
        np.testing.assert_array_equal(got, want)
        assert np.count_nonzero(want) > 1

    @pytest.mark.parametrize("pixel", [False, True])
    def test_bad_thread_count_rejected_on_either_path(self, pixel, monkeypatch):
        clf = LinearSoftmaxClassifier(np.ones((4, 3)), np.zeros(3), (1, 8, 8), 4)
        cfg = SmoothingConfig(sigma=0.5, n_samples=100, force_pixel_noise=pixel)
        for env in ["abc", "0", "-3"]:
            monkeypatch.setenv("PWS_THREADS", env)
            with pytest.raises(ConfigError, match="PWS_THREADS"):
                smoothed_estimate(clf, np.zeros((1, 8, 8)), cfg)

    @pytest.mark.parametrize("pixel", [False, True])
    def test_images_of_another_grid_rejected_on_either_path(self, pixel):
        # a model of 8 x 8 images, 64 logit map columns, given 12 x 12 images
        clf = LinearSoftmaxClassifier(np.ones((4, 3)), np.zeros(3), (1, 8, 8), 4)
        cfg = SmoothingConfig(sigma=0.5, n_samples=100, force_pixel_noise=pixel)
        with pytest.raises(ShapeMismatch):
            smoothed_estimates(clf, np.zeros((2, 1, 12, 12)), cfg)

    @pytest.mark.parametrize("pixel", [False, True])
    def test_images_of_as_many_pixels_on_another_grid_rejected(self, pixel):
        # 16 x 36 = 24 x 24 pixels: the logit map's column count matches
        clf = LinearSoftmaxClassifier(np.ones((36, 3)), np.zeros(3), (1, 24, 24), 4)
        cfg = SmoothingConfig(sigma=0.5, n_samples=100, force_pixel_noise=pixel)
        with pytest.raises(ShapeMismatch,
                           match=r"image shape \(1, 16, 36\) != trained \(1, 24, 24\)"):
            smoothed_estimates(clf, np.zeros((2, 1, 16, 36)), cfg)

    def test_empty_input(self):
        cfg = SmoothingConfig(sigma=0.5, n_samples=100)
        assert smoothed_estimates(ConstantClassifier(0), [], cfg) == []


class TestFirstMaxCounts:
    """The logit path's column counter against the argmax it replaces."""

    @pytest.mark.parametrize("labels", [1, 2, 3, 4, 10, 30, 100])
    @pytest.mark.parametrize("rows", [1, 2, 113, 1808, 8192])
    def test_equals_argmax_counts(self, labels, rows):
        rng = np.random.default_rng(labels * 10007 + rows)
        draws = rng.standard_normal((labels, rows))
        special = rng.choice([-np.inf, -1.0, -0.0, 0.0, np.inf], size=(labels, rows))
        signed_zeros = np.zeros((labels, rows))
        signed_zeros[::2] = -0.0
        cases = {
            "distinct": draws,
            "coarse": np.round(2 * draws) / 2,  # many exact ties
            "duplicated labels": draws[rng.integers(labels, size=labels)],
            "signed zeros and infinities": special,
            "mixed": np.where(rng.random((labels, rows)) < 0.3, special, draws),
            "every draw tied at -0.0 and 0.0": signed_zeros,
            "every draw tied at +inf": np.full((labels, rows), np.inf),
            "every draw tied at -inf": np.full((labels, rows), -np.inf),
        }
        for name, cols in cases.items():
            want = np.bincount(np.argmax(cols.T, axis=1), minlength=labels)
            got = _first_max_counts(cols)
            assert got.dtype.kind == "i", name
            np.testing.assert_array_equal(got, want, err_msg=name)


class TestLogitCounts:
    """The logit path's bound step, then its scan, against argmax."""

    @staticmethod
    def argmax_counts(bases, cols):
        return np.array([np.bincount(np.argmax((base[:, None] + cols).T, axis=1),
                                     minlength=len(cols)) for base in bases])

    @pytest.mark.parametrize("labels", [1, 2, 4, 10])
    @pytest.mark.parametrize("offset", [0.0, 1e16])
    def test_equals_argmax_counts(self, labels, offset, monkeypatch):
        # each label's noise spans about 7 over 2,000 draws: rows spread over
        # 300 mostly settle, rows spread over 3 never do; near 1e16 a sum
        # rounds to a multiple of 2, so draws tie there
        rng = np.random.default_rng(labels * 10 + (offset > 0))
        cols = rng.standard_normal((labels, 2000))
        spread = rng.choice([3.0, 300.0], size=(64, 1))
        bases = offset + spread * rng.random((64, labels))
        bases[:4] = offset  # every label equal: no settled top
        scanned = []
        scan = smoothing._first_max_counts
        monkeypatch.setattr(smoothing, "_first_max_counts",
                            lambda sums: scanned.append(1) or scan(sums))
        got = _logit_counts(bases, cols)
        assert got.dtype.kind == "i"
        np.testing.assert_array_equal(got, self.argmax_counts(bases, cols))
        if labels == 1:
            assert not scanned
        else:  # the batch mixes settled and scanned images
            assert 4 <= len(scanned) < len(bases) - 4

    @pytest.mark.parametrize("base, lower, upper", [
        (0.0, [-5.0, 2.0, -5.0], [3.0, 2.0, 4.0]),
        # 1e16 + 0.4 and 1e16 + 0.6 both round to 1e16: label 0 takes the tie
        (1e16, [-8.0, 0.4, -8.0], [4.0, 0.6, 6.0]),
    ])
    def test_bound_equal_to_a_lower_label_is_a_tie(self, base, lower, upper):
        # label 1's least sum equals label 0's greatest, at one draw, where
        # argmax gives the tie to label 0: the step must scan, not settle
        cols = np.array([lower, upper])
        bases = np.full((2, 2), base)
        bases[1, 1] += 1e3  # and a row that settles for label 1
        np.testing.assert_array_equal(_logit_counts(bases, cols), [[1, 2], [0, 3]])
        np.testing.assert_array_equal(self.argmax_counts(bases, cols), [[1, 2], [0, 3]])


class TestNoiseEquivalence:
    """Both sampling paths must reproduce the analytic smoothed probability."""

    def analytic_two_class(self, clf, image, sigma):
        a_mat, bias = clf.logit_map()
        logits = a_mat @ image.ravel() + bias
        w_gap = a_mat[1] - a_mat[0]
        gap = logits[1] - logits[0]
        # P(label 1) = Phi(gap / (sigma * ||w_gap||))
        return 0.5 * math.erfc(-gap / (sigma * np.linalg.norm(w_gap)) / math.sqrt(2))

    def test_paths_match_closed_form(self, demo_classifier, demo_corpus):
        scenes, cam = demo_corpus
        from pwscert import LinearSoftmaxClassifier, render
        from pwscert.demo import demo_specs
        from pwscert.geometry import MotionValue

        # restrict to two labels so the analytic form applies
        full = demo_classifier
        two = LinearSoftmaxClassifier(
            full.weights[:, :2], full.bias[:2], full.image_shape, full.downsample
        )
        img = render(scenes[0].cloud, MotionValue(demo_specs()[0], 0.0), cam)
        sigma = 2.0  # large noise keeps the probability away from 0/1
        p_true = self.analytic_two_class(two, img, sigma)
        assert 0.02 < p_true < 0.98

        n = 40000
        for forced in (False, True):
            cfg = SmoothingConfig(
                sigma=sigma, n_samples=n, confidence_alpha=0.01, seed=77,
                force_pixel_noise=forced,
            )
            est = smoothed_estimate(two, img, cfg)
            p_hat = est.counts[1] / n
            # 5-sigma binomial band around the analytic value
            band = 5 * math.sqrt(p_true * (1 - p_true) / n)
            assert abs(p_hat - p_true) < band, (forced, p_hat, p_true)

    def test_prediction_consistent_across_paths(self, demo_classifier, demo_corpus):
        scenes, cam = demo_corpus
        from pwscert import render
        from pwscert.demo import demo_specs
        from pwscert.geometry import MotionValue

        img = render(scenes[2].cloud, MotionValue(demo_specs()[0], 0.0), cam)
        fast = smoothed_prediction(
            demo_classifier, img,
            SmoothingConfig(sigma=0.5, n_samples=2000, confidence_alpha=0.01, seed=9),
        )
        slow = smoothed_prediction(
            demo_classifier, img,
            SmoothingConfig(sigma=0.5, n_samples=2000, confidence_alpha=0.01, seed=9,
                            force_pixel_noise=True),
        )
        assert fast == slow == scenes[2].label


class TestNoiseStreams:
    def test_stream_ids_disjoint(self):
        seen = set()
        for ctx in (0, 1, 2, 3):
            for idx in range(100):
                seen.add(stream_id(ctx, idx))
        assert len(seen) == 400

    def test_generator_is_stream_keyed(self):
        a = noise_generator(5, stream_id(STREAM_FRAME, 0)).random(8)
        b = noise_generator(5, stream_id(STREAM_FRAME, 0)).random(8)
        c = noise_generator(5, stream_id(STREAM_FRAME, 1)).random(8)
        d = noise_generator(6, stream_id(STREAM_FRAME, 0)).random(8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_key_words_do_not_alias(self):
        # a list key [seed, stream, block] is padded with zero words, so
        # SeedSequence([2**32, 5, 0]) and SeedSequence([0, 1, 5]) are one state
        a = noise_generator(2**32, 5, 0).random(8)
        b = noise_generator(0, 1, 5).random(8)
        assert not np.array_equal(a, b)


def record_generators(monkeypatch):
    """The key of every noise generator made, appended as it is made."""
    from pwscert import smoothing

    keys, make = [], smoothing.noise_generator
    monkeypatch.setattr(smoothing, "noise_generator",
                        lambda *key: keys.append(key) or make(*key))
    return keys


class TestNoiseCache:
    """Every stream's first blocks are drawn once per process, read-only,
    and the estimates do not depend on the cache."""

    @pytest.mark.parametrize("path", ["pixel", "logit"])
    @pytest.mark.parametrize("cold, warm", [(1, 2), (2, 1)])
    def test_warm_repeat_draws_nothing(self, path, cold, warm, monkeypatch):
        shape = (1, 8, 8)
        images = np.random.default_rng(16).uniform(0.0, 1.0, (2, *shape))
        clf = tied_classifier(shape, images[0], 3, seed=16)
        # 3 blocks on either path: 1024-draw pixel blocks, 8192-draw logit blocks
        cfg = SmoothingConfig(sigma=0.5, n_samples=2500 if path == "pixel" else 20000,
                              confidence_alpha=0.01, seed=9,
                              force_pixel_noise=path == "pixel")
        keys = record_generators(monkeypatch)
        monkeypatch.setenv("PWS_THREADS", str(cold))
        want = smoothed_estimates(clf, images, cfg, stream=7)
        assert sorted(keys) == [(9, 7, b) for b in range(3)]
        keys.clear()
        monkeypatch.setenv("PWS_THREADS", str(warm))
        got = smoothed_estimates(clf, images, cfg, stream=7)
        assert keys == []
        for est, ref in zip(got, want):
            np.testing.assert_array_equal(est.counts, ref.counts)
        assert np.count_nonzero(want[0].counts) > 1

    def test_concurrent_callers_share_the_cache(self, monkeypatch):
        from pwscert import smoothing

        # six cold callers on more threads than cores, with a thread switch
        # every microsecond: a block stored half drawn, or drawn under
        # another block's key, changes some image's counts
        rng = np.random.default_rng(17)
        shape = (1, 4, 4)
        clf = LinearSoftmaxClassifier(rng.standard_normal((1, 3)),
                                      rng.standard_normal(3), shape, 4)
        images = rng.uniform(0.0, 1.0, (3, *shape))
        cfg = SmoothingConfig(sigma=4.0, n_samples=400, confidence_alpha=0.01,
                              seed=8, force_pixel_noise=True)
        monkeypatch.setattr(smoothing, "_NOISE_ENTRIES", 16 * 16)  # 25 blocks of 16 draws
        monkeypatch.setenv("PWS_THREADS", "2")
        want = [est.counts for est in smoothed_estimates(clf, images, cfg, stream=2)]
        _cached_block.cache_clear()
        got = [None] * 6

        def call(i):
            got[i] = [est.counts for est in smoothed_estimates(clf, images, cfg, stream=2)]

        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(got))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for counts in got:
            for c, w in zip(counts, want):
                np.testing.assert_array_equal(c, w)
        assert _cached_block.cache_info().currsize == _CACHED_PREFIX

    def test_cached_block_is_read_only(self):
        cfg = SmoothingConfig(sigma=0.5, seed=2)
        block = _noise_block(cfg, 3, 0, 16, 4)
        assert _noise_block(cfg, 3, 0, 16, 4) is block
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 1.0
        np.testing.assert_array_equal(
            block, noise_generator(2, 3, 0).standard_normal((16, 4)))

    def test_only_the_prefix_of_small_blocks_is_cached(self, monkeypatch):
        cfg = SmoothingConfig(sigma=0.5, seed=2)
        past = _noise_block(cfg, 3, _CACHED_PREFIX, 16, 4)
        large = _noise_block(cfg, 3, 0, 1, _NOISE_ENTRIES + 1)
        assert past.flags.writeable and large.flags.writeable
        assert _cached_block.cache_info().currsize == 0
        _noise_block(cfg, 3, _CACHED_PREFIX - 1, 2, _NOISE_ENTRIES // 2)
        assert _cached_block.cache_info().currsize == 1
        # a 10-block pixel tally keeps its first 8 blocks, and 2^16 + 1
        # pixels make one-draw blocks too large to keep
        keys = record_generators(monkeypatch)
        for width, n_samples, drawn, cached in [(1024, 640, 10, _CACHED_PREFIX),
                                                (_NOISE_ENTRIES + 1, 100, 100, 0)]:
            _cached_block.cache_clear()
            keys.clear()
            smoothed_estimate(ConstantClassifier(1), np.zeros((1, 1, width)),
                              SmoothingConfig(sigma=0.5, n_samples=n_samples))
            info = _cached_block.cache_info()
            assert (info.currsize, info.misses, info.hits) == (cached, cached, 0)
            assert len(keys) == drawn
        # at most maxsize blocks of at most 2^16 float64 values: 16 MiB
        assert _cached_block.cache_info().maxsize * _NOISE_ENTRIES * 8 == 16 << 20
