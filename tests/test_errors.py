from dataclasses import replace

import numpy as np
import pytest

from stlid import (
    BaselineConfig,
    DetectionConfig,
    FusionConfig,
    LidConfig,
    benchmark,
    dbscan_labels,
    iter_run,
    lof_scores,
)
from stlid import errors
from stlid.cli import RunSettings
from stlid.errors import ConfigError

from conftest import SMALL_SPEC

POINTS = np.random.default_rng(0).normal(size=(30, 2))

# every integer setting and argument, each as a call that checks the value
# ``v`` given for it; a passed state's integers are checked by _check_state
INTEGER_CHECKS = {
    "s": lambda v, ds, truth: LidConfig(s=v).validate(),
    "k": lambda v, ds, truth: FusionConfig(k=v).validate(),
    "obs_k": lambda v, ds, truth: FusionConfig(obs_k=v).validate(),
    "n": lambda v, ds, truth: DetectionConfig(n=v).validate(),
    "dbscan_min_pts": lambda v, ds, truth: BaselineConfig(dbscan_min_pts=v).validate(),
    "lof_k": lambda v, ds, truth: BaselineConfig(lof_k=v).validate(),
    "parallel setting": lambda v, ds, truth: RunSettings(parallel=v).validate(),
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
    LidConfig(s=np.int32(6)).validate()
    assert lof_scores(POINTS, np.int64(3)).tobytes() == lof_scores(POINTS, 3).tobytes()
    for value in (3.0, np.float64(3), np.bool_(True), "3", None):
        with pytest.raises(ConfigError, match="must be an integer"):
            errors.require_int("k", value)
