"""Certified robustness against one-axis camera motion via pixel-wise
Gaussian smoothing over uniformly partitioned projected frames."""

from .certify import (
    AttackReport,
    CertificationReport,
    Verdict,
    certified_accuracy,
    certify,
    empirical_attack,
)
from .classifier import (
    BaseClassifier,
    LinearSoftmaxClassifier,
    builtin_train,
    load_model,
    save_model,
)
from .errors import (
    ConfigError,
    DegenerateDataset,
    DegenerateInterval,
    DomainError,
    EmptyFrame,
    FileFormatError,
    InvalidCloud,
    InvalidDelta,
    InvalidRange,
    MissingFile,
    NegativeMargin,
    NonFiniteScores,
    NonPositiveDepth,
    PwsError,
    ShapeMismatch,
)
from .geometry import (
    Axis,
    CameraModel,
    MotionSpec,
    MotionValue,
    delta_constant,
    lipschitz_constants,
    project_points,
)
from .intervals import (
    CertMethod,
    ConsistentInterval,
    DeltaConvexity,
    IntervalConfig,
    PartitionPlan,
    build_partition,
    check_delta_convexity,
    consistent_intervals,
    exact_delta,
    lipschitz_delta,
    one_frame_delta,
    plan_partition,
)
from .rasterizer import (
    ColoredPointCloud,
    adjacent_frame_error,
    extract_one_frame,
    load_cloud,
    load_image,
    render,
    render_sweep,
    save_cloud,
    save_image,
)
from .scenes import (
    Scene,
    ShapeClass,
    coverage_fraction,
    generate_scene,
    load_corpus,
    save_corpus,
)
from .smoothing import (
    SmoothedEstimate,
    SmoothingConfig,
    clopper_pearson_lower,
    gaussian_quantile,
    smoothed_estimate,
    smoothed_estimates,
    smoothed_prediction,
)

__version__ = "0.1.0"
