import json

import numpy as np
import pytest

from pwscert import (
    BaseClassifier,
    CertMethod,
    ConfigError,
    DegenerateDataset,
    FileFormatError,
    IntervalConfig,
    LinearSoftmaxClassifier,
    NonFiniteScores,
    ShapeMismatch,
    SmoothingConfig,
    Verdict,
    builtin_train,
    certify,
    load_model,
    render,
    save_model,
    smoothed_estimate,
)
from pwscert.demo import demo_specs
from pwscert.geometry import MotionValue

from conftest import dense_logit_map


@pytest.fixture(scope="module")
def dataset(demo_corpus):
    scenes, cam = demo_corpus
    spec = demo_specs()[0]
    return [
        (render(s.cloud, MotionValue(spec, 0.0), cam), s.label) for s in scenes
    ]


class TestTraining:
    def test_separable_corpus_high_accuracy(self, dataset):
        clf = builtin_train(dataset, noise_sigma=0.5, augment_count=4, seed=3)
        correct = sum(
            int(np.argmax(clf.predict(img))) == lab for img, lab in dataset
        )
        assert correct / len(dataset) >= 0.95

    def test_no_augmentation_still_deterministic(self, dataset):
        a = builtin_train(dataset, noise_sigma=0.5, augment_count=0, seed=3)
        b = builtin_train(dataset, noise_sigma=0.5, augment_count=0, seed=3)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_seed_changes_model(self, dataset):
        a = builtin_train(dataset, noise_sigma=0.5, augment_count=4, seed=3)
        b = builtin_train(dataset, noise_sigma=0.5, augment_count=4, seed=4)
        assert not np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1.0, True])
    def test_seed_outside_one_word_rejected(self, dataset, seed):
        # one 64-bit word: -1 and 2**64 would train the models of 2**64 - 1 and 0
        with pytest.raises(ConfigError, match=r"seed must be an integer in \[0, 2"):
            builtin_train(dataset, noise_sigma=0.5, augment_count=1, seed=seed)

    def test_largest_seed_accepted(self, dataset):
        a = builtin_train(dataset, noise_sigma=0.5, augment_count=1, seed=(1 << 64) - 1)
        b = builtin_train(dataset, noise_sigma=0.5, augment_count=1, seed=0)
        assert not np.array_equal(a.weights, b.weights)

    def test_permutation_invariant(self, dataset):
        a = builtin_train(dataset, noise_sigma=0.5, augment_count=3, seed=9)
        shuffled = list(dataset)
        np.random.default_rng(0).shuffle(shuffled)
        b = builtin_train(shuffled, noise_sigma=0.5, augment_count=3, seed=9)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.bias, b.bias)

    @pytest.mark.parametrize("sigma, augment, message", [
        (np.nan, 4, "noise_sigma"), (np.inf, 4, "noise_sigma"), (-0.5, 4, "noise_sigma"),
        ("0.5", 4, "noise_sigma"), (0.5, -3, "augment_count"), (0.5, 2.0, "augment_count"),
    ])
    def test_noise_it_cannot_train_on_rejected(self, dataset, sigma, augment, message,
                                               monkeypatch):
        from pwscert import classifier

        def no_pool(*args):
            raise AssertionError("trained before the noise was checked")

        monkeypatch.setattr(classifier, "_pool", no_pool)
        with pytest.raises(ConfigError, match=message):
            builtin_train(dataset, noise_sigma=sigma, augment_count=augment)

    def test_empty_dataset_degenerate(self):
        with pytest.raises(DegenerateDataset, match="empty dataset"):
            builtin_train([])

    def test_single_label_degenerate(self, dataset):
        only = [(img, 0) for img, _ in dataset]
        with pytest.raises(DegenerateDataset):
            builtin_train(only, 0.5, 2, 0)

    def test_missing_label_degenerate(self, dataset):
        gappy = [(img, lab * 2) for img, lab in dataset]  # labels 0,2,4,6
        with pytest.raises(DegenerateDataset):
            builtin_train(gappy, 0.5, 2, 0)

    def test_mixed_shapes_rejected(self, dataset):
        bad = dataset + [(np.zeros((1, 4, 4)), 0)]
        with pytest.raises(ShapeMismatch):
            builtin_train(bad, 0.5, 0, 0)

    @pytest.mark.parametrize("downsample, error", [(2.0, ConfigError), (3, ShapeMismatch)])
    def test_bad_pooling_rejected_before_pooling(self, downsample, error, monkeypatch):
        from pwscert import classifier

        def no_pool(*args):
            raise AssertionError("pooled before the geometry was checked")

        monkeypatch.setattr(classifier, "_pool", no_pool)
        images = np.random.default_rng(16).uniform(0.0, 1.0, (4, 1, 8, 8))
        with pytest.raises(error, match="downsample"):
            builtin_train(list(zip(images, [0, 1, 0, 1])), downsample=downsample)


class TestPredict:
    def test_scores_normalized(self, demo_classifier, dataset):
        for img, _ in dataset[:4]:
            scores = demo_classifier.predict(img)
            assert scores.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(scores >= 0)

    def test_identical_inputs_identical_scores(self, demo_classifier, dataset):
        img = dataset[0][0]
        np.testing.assert_array_equal(
            demo_classifier.predict(img), demo_classifier.predict(img.copy())
        )

    def test_shape_mismatch(self, demo_classifier):
        with pytest.raises(ShapeMismatch):
            demo_classifier.predict(np.zeros((1, 5, 5)))

    @pytest.mark.parametrize("rows, shape, f", [
        (35, (1, 24, 24), 4), (37, (1, 24, 24), 4), (4, (1, 10, 8), 4),
        (4, (8, 8), 4),  # two sides
        (0, (0, 8, 8), 4),  # no channel
        (4, (1, -8, -8), 4),  # negative sides pool to 4 features
    ])
    def test_weights_that_do_not_pool_the_shape_rejected(self, rows, shape, f):
        with pytest.raises(ShapeMismatch):
            LinearSoftmaxClassifier(np.zeros((rows, 3)), np.zeros(3), shape, f)

    @pytest.mark.parametrize("downsample", [0, -1, 2.0, True])
    def test_bad_downsample_rejected(self, downsample):
        with pytest.raises(ConfigError, match="downsample"):
            LinearSoftmaxClassifier(np.zeros((4, 3)), np.zeros(3), (1, 8, 8), downsample)

    @pytest.mark.parametrize("weights, bias", [
        (np.zeros((4, 3)), np.zeros(2)),  # one bias short
        (np.zeros((4, 0)), np.zeros(0)),  # no label
        (np.zeros(4), np.zeros(1)),  # weights not a matrix
    ])
    def test_weights_and_bias_that_do_not_fit_rejected(self, weights, bias):
        with pytest.raises(ShapeMismatch):
            LinearSoftmaxClassifier(weights, bias, (1, 8, 8), 4)

    @pytest.mark.parametrize("weight, bias", [
        (np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0), (0.0, np.nan), (0.0, np.inf),
    ])
    def test_non_finite_weights_or_bias_rejected(self, weight, bias):
        weights = np.ones((4, 3))
        weights[2, 1] = weight
        with pytest.raises(ConfigError, match="finite"):
            LinearSoftmaxClassifier(weights, [0.0, bias, 0.0], (1, 8, 8), 4)

    def test_scores_equal_pooled_features_oracle(self, demo_classifier, dataset):
        # training scores the pooled features; prediction goes through the
        # logit map, which sums the same terms in another order
        from pwscert.classifier import _pool, _softmax

        rng = np.random.default_rng(15)
        images = np.stack([img for img, _ in dataset])
        images = images + 0.5 * rng.standard_normal(images.shape)
        feats = _pool(images, demo_classifier.downsample).reshape(len(images), -1)
        want = _softmax(feats @ demo_classifier.weights + demo_classifier.bias)
        np.testing.assert_allclose(demo_classifier.predict_batch(images), want,
                                   rtol=1e-12, atol=1e-15)

    def test_logit_map_matches_predict_argmax(self, demo_classifier, dataset):
        a_mat, bias = demo_classifier.logit_map()
        rng = np.random.default_rng(12)
        for img, _ in dataset:
            noisy = img + 0.4 * rng.standard_normal(img.shape)
            scores = demo_classifier.predict(noisy)
            logits = a_mat @ noisy.ravel() + bias
            assert int(np.argmax(scores)) == int(np.argmax(logits))

    @pytest.mark.parametrize("shape, f", [
        ((1, 24, 24), 4), ((1, 6, 9), 1), ((2, 9, 12), 3), ((3, 20, 10), 5),
        ((1, 64, 64), 4),
    ])
    def test_logit_map_equals_dense_pooling_oracle(self, shape, f):
        k, h, w = shape
        rng = np.random.default_rng(sum(shape) + f)
        weights = rng.standard_normal((k * (h // f) * (w // f), 3))
        clf = LinearSoftmaxClassifier(weights, rng.standard_normal(3), shape, f)
        a_mat, bias = clf.logit_map()
        want_a, want_bias = dense_logit_map(clf)
        assert a_mat.shape == want_a.shape
        assert a_mat.tobytes() == want_a.tobytes()
        assert bias.tobytes() == want_bias.tobytes()


class BatchOnly(BaseClassifier):
    """A model written to the contract alone: ``label_count`` and
    ``predict_batch``, here wrapping the built-in model, with no logit map."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def label_count(self):
        return self._inner.label_count

    def predict_batch(self, images):
        return self._inner.predict_batch(images)


class TestContract:
    def test_batch_only_model_certifies_on_the_pixel_path(self, demo_corpus,
                                                           demo_classifier):
        scenes, cam = demo_corpus
        args = (scenes[0].cloud, demo_specs()[0], cam)
        cfg = SmoothingConfig(sigma=0.5, n_samples=2000, confidence_alpha=0.001, seed=5)
        ivcfg = IntervalConfig(resolution=1201, quantile=1.0)
        model = BatchOnly(demo_classifier)
        assert model.logit_map() is None
        report = certify(*args, model, cfg, CertMethod.EXACT, ivcfg)
        assert report.verdict is Verdict.CERTIFIED
        assert report.top_label == scenes[0].label
        # the built-in model forced onto the pixel path tallies the same draws
        forced = certify(*args, demo_classifier,
                         SmoothingConfig(**{**vars(cfg), "force_pixel_noise": True}),
                         CertMethod.EXACT, ivcfg)
        assert report.per_partition == forced.per_partition

    def test_predict_is_the_one_image_batch(self, demo_classifier, dataset):
        model = BatchOnly(demo_classifier)
        for image, _ in dataset:
            one = model.predict(image)
            assert one.tobytes() == model.predict_batch(image[None])[0].tobytes()
            assert one.tobytes() == demo_classifier.predict(image).tobytes()

    @pytest.mark.parametrize("bad, error", [
        (lambda scores: np.full_like(scores, np.nan), NonFiniteScores),
        (lambda scores: np.where(scores > 0.5, np.inf, scores), NonFiniteScores),
        (lambda scores: scores[:, :-1], ShapeMismatch),
        (lambda scores: scores[:-1], ShapeMismatch),
        (lambda scores: scores[:, 0], ShapeMismatch),
    ], ids=["nan", "inf", "label-short", "row-short", "flat"])
    def test_bad_scores_never_certify(self, demo_corpus, demo_classifier, bad, error):
        # NaN scores would take np.argmax's first NaN, label 0, on every draw
        scenes, cam = demo_corpus
        model = BatchOnly(demo_classifier)
        model.predict_batch = lambda images: bad(demo_classifier.predict_batch(images))
        cfg = SmoothingConfig(sigma=0.5, n_samples=1000, confidence_alpha=0.001, seed=0)
        with pytest.raises(error):
            certify(scenes[0].cloud, demo_specs()[0], cam, model, cfg,
                    CertMethod.EXACT, IntervalConfig(resolution=1201, quantile=1.0))

    @pytest.mark.parametrize("where", ["map", "bias", "image"])
    def test_non_finite_logits_rejected(self, demo_classifier, dataset, where):
        a_mat, bias = (array.copy() for array in demo_classifier.logit_map())
        image = dataset[0][0].copy()
        {"map": a_mat, "bias": bias, "image": image}[where].flat[3] = np.nan
        model = BatchOnly(demo_classifier)
        model.logit_map = lambda: (a_mat, bias)
        cfg = SmoothingConfig(sigma=0.5, n_samples=1000, confidence_alpha=0.001, seed=0)
        with pytest.raises(NonFiniteScores):
            smoothed_estimate(model, image, cfg)

    @pytest.mark.parametrize("labels", [None, 2])
    def test_model_without_the_contract_fails_at_its_first_tally(self, labels):
        namespace = {} if labels is None else {"label_count": labels}
        model = type("Partial", (BaseClassifier,), namespace)()
        cfg = SmoothingConfig(sigma=0.5, n_samples=100, confidence_alpha=0.01)
        with pytest.raises(NotImplementedError):
            smoothed_estimate(model, np.zeros((1, 4, 4)), cfg)
        with pytest.raises(NotImplementedError):
            model.predict(np.zeros((1, 4, 4)))


class TestModelFile:
    def test_roundtrip(self, tmp_path, demo_classifier, dataset):
        path = tmp_path / "model.pws"
        save_model(path, demo_classifier)
        back = load_model(path)
        assert back.image_shape == demo_classifier.image_shape
        assert back.downsample == demo_classifier.downsample
        # weights survive the float32 block exactly once quantized
        np.testing.assert_array_equal(
            back.weights, demo_classifier.weights.astype("<f4").astype(np.float64)
        )
        for img, _ in dataset[:4]:
            assert int(np.argmax(back.predict(img))) == int(
                np.argmax(demo_classifier.predict(img))
            )

    def test_header_is_json_line(self, tmp_path, demo_classifier):
        path = tmp_path / "model.pws"
        save_model(path, demo_classifier)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["format"] == "pws-linear-1"
        assert header["labels"] == demo_classifier.label_count

    def test_truncated_model_rejected_at_every_offset(self, tmp_path):
        clf = LinearSoftmaxClassifier(
            np.arange(6.0).reshape(3, 2), [0.5, -0.5], (3, 4, 4), downsample=4
        )
        path = tmp_path / "full.pws"
        save_model(path, clf)
        raw = path.read_bytes()
        cut = tmp_path / "cut.pws"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            with pytest.raises(FileFormatError):
                load_model(cut)
        cut.write_bytes(raw + b"\0")
        with pytest.raises(FileFormatError):
            load_model(cut)

    @pytest.mark.parametrize("header", [
        b"not json",
        b"\xff\xfe",
        b"[1, 2]",
        b'{"format": "pws-linear-2"}',
        b'{"format": "pws-linear-1", "features": 3}',
        b'{"downsample": 4, "features": "x", "format": "pws-linear-1", '
        b'"image_shape": [3, 4, 4], "labels": 2}',
        b'{"downsample": 4, "features": 0, "format": "pws-linear-1", '
        b'"image_shape": [3, 4, 4], "labels": 2}',
        b'{"downsample": 4, "features": 3, "format": "pws-linear-1", '
        b'"image_shape": 7, "labels": 2}',
    ])
    def test_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.pws"
        path.write_bytes(header + b"\n" + b"\0" * 32)
        with pytest.raises(FileFormatError):
            load_model(path)

    @pytest.mark.parametrize("features, labels, shape, downsample", [
        (73, 2, [1, 24, 24], 4),  # a 36 x 4 body read as 73 x 2
        (36, 4, [1, 24, 26], 4),  # a width the downsample does not divide
        (36, 4, [1, 26, 24], 4),
        (36, 4, [1, -24, -24], 4),  # negative sides pool to 36 features
        (0, 148, [0, 24, 24], 4),
    ])
    def test_header_body_model_mismatch_rejected(self, tmp_path, features, labels,
                                                 shape, downsample):
        header = {"downsample": downsample, "features": features,
                  "format": "pws-linear-1", "image_shape": shape, "labels": labels}
        path = tmp_path / "bad.pws"
        # every header above describes 148 floats, the body of a 36 x 4 model
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\0" * 592)
        with pytest.raises(FileFormatError, match="bad model header fields"):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("offset", [0, 2, -1])  # weights first, the bias last
    def test_non_finite_body_rejected(self, tmp_path, demo_classifier, value, offset):
        path = tmp_path / "model.pws"
        save_model(path, demo_classifier)
        head, body = path.read_bytes().split(b"\n", 1)
        params = np.frombuffer(body, dtype="<f4").copy()
        params[offset] = value
        path.write_bytes(head + b"\n" + params.tobytes())
        with pytest.raises(FileFormatError, match="^model body .* not finite$"):
            load_model(path)

    @pytest.mark.parametrize("field, value", [
        ("image_shape", [1, 24.5, 24]), ("image_shape", [1.0, 24, 24]),
        ("image_shape", [1, True, 24]), ("downsample", 4.0), ("downsample", "4"),
        ("labels", "4"), ("labels", 4.0), ("labels", True), ("features", 36.0),
    ])
    def test_header_field_that_is_no_json_integer_rejected(self, tmp_path, field, value):
        header = {"downsample": 4, "features": 36, "format": "pws-linear-1",
                  "image_shape": [1, 24, 24], "labels": 4, field: value}
        path = tmp_path / "bad.pws"
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\0" * 592)
        with pytest.raises(FileFormatError, match="not an integer"):
            load_model(path)

    @pytest.mark.parametrize("downsample", [0, -1])
    def test_bad_downsample_in_header_rejected(self, tmp_path, downsample):
        header = {"downsample": downsample, "features": 36, "format": "pws-linear-1",
                  "image_shape": [1, 24, 24], "labels": 4}
        path = tmp_path / "bad.pws"
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\0" * 592)
        with pytest.raises(FileFormatError, match="bad model header fields"):
            load_model(path)
