import math
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from stlid import (
    DetectionConfig,
    DetectionState,
    FusionConfig,
    LidConfig,
    MonitoredPoint,
    MonitoringDataset,
    StLidField,
    benchmark,
    dbscan,
    dbscan_labels,
    fuse_all,
    iter_run,
    kmeans2,
    lof,
    lof_scores,
    mle_lid,
    update_detection,
)
from stlid import errors
from stlid.cli import RunSettings
from stlid.data import load_points
from stlid.errors import ConfigError, DataError, InsufficientNeighborsError
from stlid.metrics import method_result

from conftest import SMALL_SPEC, make_dataset

POINTS = np.random.default_rng(0).normal(size=(30, 2))

# every integer setting and argument, each as a call that checks the value
# ``v`` given for it; a passed state's integers are checked by _check_state
INTEGER_CHECKS = {
    "s": lambda v, ds, truth: LidConfig(s=v),
    "k": lambda v, ds, truth: FusionConfig(k=v),
    "n": lambda v, ds, truth: DetectionConfig(n=v),
    "dbscan_min_pts": lambda v, ds, truth: dbscan(POINTS, 1.0, v),
    "lof_k": lambda v, ds, truth: lof(POINTS, v),
    "parallel setting": lambda v, ds, truth: RunSettings(parallel=v),
    "iter_run parallel": lambda v, ds, truth: iter_run(ds, parallel=v),
    "max_backscan": lambda v, ds, truth: benchmark(ds, truth, methods=("kmeans",), max_backscan=v),
    **{
        f"spec {name}": lambda v, ds, truth, name=name: replace(SMALL_SPEC, **{name: v}).validate()
        for name in ("grid_nx", "grid_ny", "num_steps", "seed", "onset_step", "time_of_failure")
    },
    "lof_scores k": lambda v, ds, truth: lof_scores(POINTS, v),
    "dbscan_labels min_pts": lambda v, ds, truth: dbscan_labels(POINTS, 1.0, v),
}


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("name", list(INTEGER_CHECKS))
def test_an_integer_setting_refuses_a_non_integer(small_scenario, name, value):
    # 2.5 and True lie in most of these ranges; there they used to pass the
    # check and fail later with a bare TypeError, or not at all
    with pytest.raises(ConfigError, match="must be an integer"):
        INTEGER_CHECKS[name](value, *small_scenario)


def test_an_integer_setting_takes_a_numpy_integer():
    assert errors.require_int("k", np.int64(3), "[1, inf)") == 3
    LidConfig(s=np.int32(6))
    assert lof_scores(POINTS, np.int64(3)).tobytes() == lof_scores(POINTS, 3).tobytes()
    for value in (3.0, np.float64(3), np.bool_(True), "3", None):
        with pytest.raises(ConfigError, match="must be an integer"):
            errors.require_int("k", value)


# each run config type, a field, a value its constructor refuses and the message
RUN_CONFIGS = {
    "LidConfig": (LidConfig(), "s", 1, "neighborhood size s"),
    "FusionConfig": (FusionConfig(), "k", 0, "spatial neighborhood size k"),
    "DetectionConfig": (DetectionConfig(), "n", 0, "persistence length n"),
    "RunSettings": (RunSettings(), "parallel", 0, "parallel"),
}


@pytest.mark.parametrize("name", list(RUN_CONFIGS))
def test_a_run_config_is_frozen_and_checked_when_made(name):
    config, field, bad, message = RUN_CONFIGS[name]
    with pytest.raises(FrozenInstanceError):
        setattr(config, field, bad)
    with pytest.raises(ConfigError, match=message):
        replace(config, **{field: bad})


def _header_only_points(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("id,x,y\n")
    return load_points(path)


ONE_POINT = [MonitoredPoint(0, (0.0, 0.0))]
NINE_POINTS = make_dataset(np.random.default_rng(1).normal(size=(9, 4)))

# refusals no other test reaches: each a call given a scratch directory, the
# error it raises and the message
REFUSALS = {
    "points file with a header only": (_header_only_points, DataError, "p.csv: no points"),
    "1-D displacement": (
        lambda tmp: MonitoringDataset(ONE_POINT, np.zeros(3)),
        DataError, "displacement must be a 2-D matrix",
    ),
    "more rows than points": (
        lambda tmp: MonitoringDataset(ONE_POINT, np.zeros((2, 3))),
        DataError, "displacement has 2 rows but dataset has 1 points",
    ),
    "non-finite coordinate": (
        lambda tmp: MonitoringDataset([MonitoredPoint(0, (math.nan, 0.0))], np.zeros((1, 3))),
        DataError, "point coordinates must be finite 2-D positions",
    ),
    "fusion at the first step": (
        lambda tmp: fuse_all(NINE_POINTS, np.ones(9), NINE_POINTS.start_step),
        ConfigError, "fusion needs velocity; first valid step is 1",
    ),
    "LID of one distance": (
        lambda tmp: mle_lid([1.0]), InsufficientNeighborsError, "need at least 2 neighbor distances",
    ),
    "two-means of one value": (
        lambda tmp: kmeans2([1.0]), ConfigError, "two-means needs a 1-D array of at least 2 values",
    ),
    "st-LID outside [0, 1]": (
        lambda tmp: StLidField(0, [0.5, 1.5], [True, True]),
        ValueError, "st-LID values must lie in [0, 1]",
    ),
    "tracker of misaligned coordinates": (
        lambda tmp: update_detection(
            DetectionState(), StLidField(0, [0.5, 0.7], [True, True]), np.zeros((3, 2)),
            DetectionConfig(epsilon=1.0),
        ),
        ValueError, "coords and field must be aligned",
    ),
    "unknown method": (
        lambda tmp: method_result("svm", NINE_POINTS, 1), ConfigError, "unknown method 'svm'",
    ),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_each_refusal_raises_its_error_and_message(tmp_path, name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)
