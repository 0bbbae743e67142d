import numpy as np
import pytest

from stlid import CreepScenarioSpec, MonitoredPoint, MonitoringDataset, generate_creep_scenario


def make_dataset(displacement, coords=None, ids=None, interval=1.0, start_step=0):
    displacement = np.asarray(displacement, dtype=np.float64)
    n = displacement.shape[0]
    if coords is None:
        coords = [(float(i), 0.0) for i in range(n)]
    if ids is None:
        ids = list(range(n))
    points = [MonitoredPoint(i, (float(x), float(y))) for i, (x, y) in zip(ids, coords)]
    return MonitoringDataset(
        points=points,
        displacement=displacement,
        step_interval_minutes=interval,
        start_step=start_step,
    )


def overflowing_grid():
    """Displacements and coordinates of a 6 x 6 grid of finite series whose
    first 6 alternate +-1.5e308, so their velocities overflow float64."""
    disp = np.random.default_rng(4).normal(size=(36, 12))
    disp[:6] = 1.5e308 * (-1.0) ** np.arange(12)
    coords = [(float(i % 6), float(i // 6)) for i in range(36)]
    return disp, coords


@pytest.fixture
def grid_noise_dataset():
    """16x16 grid of noise series, enough steps for the full pipeline."""
    rng = np.random.default_rng(42)
    n = 256
    coords = [(float(i % 16), float(i // 16)) for i in range(n)]
    return make_dataset(rng.normal(0, 0.1, size=(n, 40)), coords=coords)


# a 500-point scenario with a detectable failure
SMALL_SPEC = CreepScenarioSpec(
    grid_nx=25,
    grid_ny=20,
    num_steps=800,
    noise_sd=0.08,
    region=(12.0, 9.0, 18.0, 15.0),
    time_of_failure=700,
    steady_rate=0.3,
    onset_step=500,
    accel_exponent=1.0,
    seed=2,
    rate_floor=0.5,
    bump_width=0.45,
    rate_jitter=0.06,
    slip_theta=0.0,
    step_interval_minutes=2.5,
)


@pytest.fixture(scope="session")
def small_scenario():
    """The SMALL_SPEC scenario, shared where possible."""
    return generate_creep_scenario(SMALL_SPEC)
