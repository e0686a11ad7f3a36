"""Base classifiers scoring rendered images.

The pipeline only needs a deterministic map from an image to a normalized
score vector; anything honoring that contract can be certified.  Included
here:

* ``LinearSoftmaxClassifier`` - multinomial logistic regression on
  mean-pooled pixels, trainable in seconds on synthetic corpora.  Being
  linear, it scores through its exact pixel-to-logit matrix, which the
  smoothing module also uses to push Gaussian pixel noise forward in
  closed form.

A model, built in or external, implements ``label_count`` and
``predict_batch`` in process; ``predict`` is the one-image call.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from numpy.random import Generator, Philox

from .errors import (MAX_SIGMA, ConfigError, DegenerateDataset, FileFormatError,
                     ShapeMismatch, check_integer, check_real)

DEFAULT_DOWNSAMPLE = 4
MAX_AUGMENT = 1000  # noisy copies of each training example
_KEY_MASK = (1 << 128) - 1
_L2 = 1e-3  # ridge penalty on the weights


class BaseClassifier:
    """Deterministic image classifier interface; ``predict_batch`` and
    ``logit_map`` may be called from several threads at once."""

    image_shape = None  # the (K, H, W) of every image it takes; None: any

    def check_images(self, images: np.ndarray) -> None:
        """Raise ShapeMismatch unless each image of the (B, K, H, W) batch
        has ``image_shape``."""
        if self.image_shape is not None and images.shape[1:] != self.image_shape:
            raise ShapeMismatch(f"image shape {images.shape[1:]} != trained {self.image_shape}")

    @property
    def label_count(self) -> int:
        raise NotImplementedError

    def predict_batch(self, images: np.ndarray) -> np.ndarray:
        """(B, L) normalized scores for a (B, K, H, W) batch."""
        raise NotImplementedError

    def predict(self, image: np.ndarray) -> np.ndarray:
        """Normalized score vector of one (K, H, W) image."""
        return self.predict_batch(np.asarray(image, dtype=np.float64)[None])[0]

    def logit_map(self):
        """(A, b) with argmax scores == argmax (A @ image.ravel() + b).

        Returns None when the classifier is not an affine function of the
        pixels; the smoothing module then falls back to explicit
        pixel-space noise.
        """
        return None

    def describe(self) -> dict:
        """Small JSON-safe summary recorded inside certification reports."""
        return {"type": type(self).__name__}


def _pooling_geometry(image_shape, downsample):
    """``(shape, factor)`` of a pooling geometry that holds: an integer
    factor of at least 1 and a (K, H, W) shape of positive sides, H and W
    divisible by it."""
    shape, f = tuple(int(s) for s in image_shape), downsample
    check_integer(f, lambda v: v >= 1,
                  f"downsample factor must be an integer of at least 1, got {f!r}")
    if len(shape) != 3 or min(shape) < 1:
        raise ShapeMismatch(f"image shape {shape} is not three positive sides")
    if shape[1] % f or shape[2] % f:
        raise ShapeMismatch(f"grid {shape[1]}x{shape[2]} not divisible by downsample factor {f}")
    return shape, int(f)


def _pool(images: np.ndarray, factor: int) -> np.ndarray:
    """Mean-pool (B, K, H, W) over factor x factor spatial blocks; the
    geometry is one ``_pooling_geometry`` accepts."""
    b, k, h, w = images.shape
    return images.reshape(b, k, h // factor, factor, w // factor, factor).mean(
        axis=(3, 5)
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class LinearSoftmaxClassifier(BaseClassifier):
    """Softmax regression over mean-pooled pixels; the constructor checks
    the whole pooling geometry and that every weight and bias is finite."""

    def __init__(self, weights, bias, image_shape, downsample=DEFAULT_DOWNSAMPLE):
        self.weights = np.asarray(weights, dtype=np.float64)  # (F, L)
        self.bias = np.asarray(bias, dtype=np.float64)  # (L,)
        self.image_shape, self.downsample = _pooling_geometry(image_shape, downsample)
        (k, h, w), f = self.image_shape, self.downsample
        if (self.weights.ndim != 2 or len(self.weights) != k * (h // f) * (w // f)
                or self.bias.shape != self.weights.shape[1:] or not len(self.bias)):
            raise ShapeMismatch(f"weights {self.weights.shape} and bias {self.bias.shape} "
                                f"do not fit a {self.image_shape} image pooled by {f}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ConfigError("model weights and bias must be finite")
        # pixel (k, r, c) feeds feature (k, r // f, c // f) with weight 1/f^2
        feature = (
            (np.arange(k)[:, None, None] * (h // f) + np.arange(h)[:, None] // f)
            * (w // f)
            + np.arange(w) // f
        )
        a_mat = self.weights[feature.ravel()].T * (1.0 / (f * f))
        # row-major, as the dense pooling product was: BLAS then sums alike
        self._pixel_map = (np.ascontiguousarray(a_mat), self.bias.copy())

    @property
    def label_count(self) -> int:
        return int(self.weights.shape[1])

    def predict_batch(self, images: np.ndarray) -> np.ndarray:
        images = np.asarray(images, dtype=np.float64)
        self.check_images(images)
        a_mat, bias = self._pixel_map
        return _softmax(images.reshape(len(images), -1) @ a_mat.T + bias)

    def describe(self) -> dict:
        return {
            "type": "linear-softmax",
            "downsample": self.downsample,
            "features": int(self.weights.shape[0]),
            "labels": self.label_count,
        }

    def logit_map(self):
        return self._pixel_map


def _canonical_order(images, labels):
    """Stable content-based ordering making training permutation invariant."""
    digests = [
        hashlib.sha256(
            np.ascontiguousarray(img, dtype=np.float64).tobytes()
            + int(lab).to_bytes(8, "little", signed=True)
        ).digest()
        for img, lab in zip(images, labels)
    ]
    order = sorted(range(len(images)), key=lambda i: (labels[i], digests[i]))
    return order, digests


def builtin_train(
    dataset,
    noise_sigma: float = 0.5,
    augment_count: int = 4,
    seed: int = 0,
    downsample: int = DEFAULT_DOWNSAMPLE,
) -> LinearSoftmaxClassifier:
    """Train the built-in model on (image, label) pairs.

    Each example contributes ``augment_count`` additional copies with
    zero-mean Gaussian pixel noise at ``noise_sigma``.  All randomness is
    derived from the seed and the example content, so shuffling the input
    list does not change the model.
    """
    check_integer(seed, lambda s: 0 <= s < 1 << 64,
                  f"seed must be an integer in [0, 2**64), got {seed!r}")
    check_real(noise_sigma, lambda s: 0 <= s < np.inf,
               f"noise_sigma must be a finite real number >= 0, got {noise_sigma!r}")
    # the smoothing sigma's bound: past it a noisy copy can overflow
    check_real(noise_sigma, lambda s: s <= MAX_SIGMA,
               f"noise_sigma must have a finite square, at most about 1.34e154, "
               f"got {noise_sigma!r}")
    check_integer(augment_count, lambda c: c >= 0,
                  f"augment_count must be an integer >= 0, got {augment_count!r}")
    # every example's copies are held at once, as rows of the training matrix
    check_integer(augment_count, lambda c: c <= MAX_AUGMENT,
                  f"augment_count must be at most {MAX_AUGMENT}, got {augment_count!r}")
    if not dataset:
        raise DegenerateDataset("empty dataset")
    images = [np.asarray(img, dtype=np.float64) for img, _ in dataset]
    labels = [int(lab) for _, lab in dataset]
    shape = images[0].shape
    if any(img.shape != shape for img in images):
        raise ShapeMismatch("training images must share one shape")
    _pooling_geometry(shape, downsample)  # the constructor's check, before any work
    n_labels = max(labels) + 1
    present = set(labels)
    if n_labels < 2 or any(l not in present for l in range(n_labels)):
        raise DegenerateDataset(
            f"need every label in 0..{n_labels - 1} present, got {sorted(present)}"
        )

    order, digests = _canonical_order(images, labels)
    rows, row_labels = [], []
    for i in order:
        flat = images[i].ravel()
        rows.append(flat)
        row_labels.append(labels[i])
        base_key = int.from_bytes(digests[i][:16], "little") ^ int(seed)
        for copy in range(augment_count):
            rng = Generator(Philox(key=(base_key + copy + 1) & _KEY_MASK))
            rows.append(flat + noise_sigma * rng.standard_normal(flat.size))
            row_labels.append(labels[i])

    x = _pool(np.asarray(rows).reshape(len(rows), *shape), downsample)
    x = x.reshape(len(rows), -1)
    y = np.asarray(row_labels)
    n, f = x.shape
    onehot = np.zeros((n, n_labels))
    onehot[np.arange(n), y] = 1.0

    def objective(wb):
        w = wb[: f * n_labels].reshape(f, n_labels)
        b = wb[f * n_labels :]
        probs = _softmax(x @ w + b)
        loss = -np.sum(onehot * np.log(probs + 1e-300)) / n
        loss += 0.5 * _L2 * np.sum(w * w)
        grad_logits = (probs - onehot) / n
        gw = x.T @ grad_logits + _L2 * w
        gb = grad_logits.sum(axis=0)
        return loss, np.concatenate([gw.ravel(), gb])

    # imported here: scipy.optimize takes about half a second to import,
    # which every other command would pay
    from scipy.optimize import minimize

    start = np.zeros(f * n_labels + n_labels)
    res = minimize(objective, start, jac=True, method="L-BFGS-B",
                   options={"maxiter": 500, "ftol": 1e-12, "gtol": 1e-10})
    w = res.x[: f * n_labels].reshape(f, n_labels)
    b = res.x[f * n_labels :]
    return LinearSoftmaxClassifier(w, b, shape, downsample)


def save_model(path, clf: LinearSoftmaxClassifier) -> None:
    """Model file: one JSON header line, then float32 weights and bias."""
    header = {
        "format": "pws-linear-1",
        "image_shape": list(clf.image_shape),
        "labels": clf.label_count,
        "downsample": clf.downsample,
        "features": int(clf.weights.shape[0]),
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(clf.weights.astype("<f4").tobytes(order="C"))
        fh.write(clf.bias.astype("<f4").tobytes(order="C"))


def load_model(path) -> LinearSoftmaxClassifier:
    """Read a ``save_model`` file; FileFormatError if it is anything else."""
    with open(path, "rb") as fh:
        line = fh.readline()
        body = fh.read()
    try:  # undecodable or non-JSON header, missing or mistyped fields
        header = json.loads(line.decode("utf-8"))
        if not isinstance(header, dict) or header.get("format") != "pws-linear-1":
            raise ValueError("header is not pws-linear-1")
        f, labels = header["features"], header["labels"]
        shape, downsample = tuple(header["image_shape"]), header["downsample"]
        for value in (f, labels, *shape, downsample):
            check_integer(value, lambda _: True, f"header value {value!r} is not an integer")
    except (ValueError, KeyError, TypeError) as exc:
        raise FileFormatError(f"not a pws linear model file: {exc!r}") from exc
    if f < 1 or labels < 1:  # the body size below needs both
        raise FileFormatError(f"bad model header fields: {header}")
    size = 4 * (f * labels + labels)
    if len(body) != size:
        raise FileFormatError(f"model body has {len(body)} bytes, expected {size}")
    params = np.frombuffer(body, dtype="<f4").astype(np.float64)
    if not np.isfinite(params).all():
        raise FileFormatError("model body holds weights or bias that are not finite")
    try:  # the constructor checks the pooling geometry
        return LinearSoftmaxClassifier(params[: f * labels].reshape(f, labels),
                                       params[f * labels :], shape, downsample)
    except (ConfigError, ShapeMismatch) as exc:
        raise FileFormatError(f"bad model header fields: {header}: {exc}") from exc

