import tracemalloc

import numpy as np
import pytest

from stlid import CreepScenarioSpec, generate_creep_scenario
from stlid.errors import ConfigError


def base_spec(**kw):
    spec = CreepScenarioSpec(
        grid_nx=8,
        grid_ny=6,
        num_steps=1100,
        noise_sd=0.0,
        region=(2.0, 2.0, 4.0, 4.0),
        time_of_failure=1000,
        steady_rate=0.1,
        onset_step=500,
        accel_exponent=1.0,
        seed=5,
    )
    for k, v in kw.items():
        setattr(spec, k, v)
    return spec


def test_noise_free_no_region_is_constant():
    spec = base_spec(region=None, time_of_failure=None, onset_step=None, drift_max=0.0)
    ds, truth = generate_creep_scenario(spec)
    assert truth.regions == []
    assert np.all(ds.displacement == ds.displacement[:, :1])


def test_noise_free_drift_is_linear():
    spec = base_spec(region=None, time_of_failure=None, onset_step=None, drift_max=0.01)
    ds, _ = generate_creep_scenario(spec)
    second_diff = np.diff(ds.displacement, n=2, axis=1)
    assert np.allclose(second_diff, 0.0, atol=1e-12)


def test_inverse_velocity_law_ratio():
    # exponent 1, onset 500, failure 1000: the mean in-region velocity one
    # step before failure must dwarf the mean just after onset
    spec = base_spec(slip_theta=0.0, rate_jitter=0.0)
    ds, truth = generate_creep_scenario(spec)
    inside = truth.regions[0].contains(ds.coords)
    vel = np.diff(ds.displacement, axis=1)
    v_late = vel[inside, 999 - 1].mean()   # velocity at step 999
    v_early = vel[inside, 501 - 1].mean()  # velocity at step 501
    assert v_late / v_early >= 10.0
    # and the discrete ratio follows the closed-form law within 1%
    law = (1000 - 500 + 1) / (1000 - 999 + 1)
    assert v_late / v_early == pytest.approx(law / ((1000 - 500 + 1) / (1000 - 501 + 1)), rel=0.01)


def test_acceleration_through_failure_then_frozen():
    spec = base_spec(slip_theta=0.0, rate_jitter=0.0)
    ds, truth = generate_creep_scenario(spec)
    inside = truth.regions[0].contains(ds.coords)
    vel = np.diff(ds.displacement, axis=1)
    # velocity still at its peak at the failure step, zero afterwards
    assert vel[inside, 1000 - 1].min() > vel[inside, 999 - 1].max() / 3
    assert np.all(vel[inside, 1000:] == 0.0)


def test_determinism_bit_identical():
    a, _ = generate_creep_scenario(base_spec(noise_sd=0.2))
    b, _ = generate_creep_scenario(base_spec(noise_sd=0.2))
    assert np.array_equal(a.displacement, b.displacement)
    c, _ = generate_creep_scenario(base_spec(noise_sd=0.2, seed=6))
    assert not np.array_equal(a.displacement, c.displacement)


def test_noise_is_one_draw_in_c_order():
    # 600 points x 1100 steps span several noise blocks, the last one partial
    spec = base_spec(grid_nx=30, grid_ny=20, noise_sd=0.08, region=None,
                     time_of_failure=None, onset_step=None)
    ds, _ = generate_creep_scenario(spec)
    expected = np.random.default_rng(spec.seed).normal(0.0, 0.08, size=(600, 1100))
    assert ds.displacement.tobytes() == expected.tobytes()


def test_generation_holds_one_displacement_sized_array():
    spec = base_spec(grid_nx=25, grid_ny=20, num_steps=2000, noise_sd=0.08)
    tracemalloc.start()
    try:
        generate_creep_scenario(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 500 * 2000 * 8, peak


def test_inside_points_dominate_final_displacement():
    spec = base_spec(noise_sd=0.05, drift_max=0.002)
    ds, truth = generate_creep_scenario(spec)
    inside = truth.regions[0].contains(ds.coords)
    final = ds.displacement[:, -1]
    assert final[inside].min() > final[~inside].max()


def test_spec_validation():
    with pytest.raises(ConfigError, match="onset"):
        generate_creep_scenario(base_spec(onset_step=1000))
    with pytest.raises(ConfigError):
        generate_creep_scenario(base_spec(time_of_failure=2000))
    with pytest.raises(ConfigError, match="noise"):
        generate_creep_scenario(base_spec(noise_sd=-1.0))
    with pytest.raises(ConfigError, match="rectangle"):
        generate_creep_scenario(base_spec(region=(3.0, 2.0, 3.0, 4.0)))
    with pytest.raises(ConfigError):
        generate_creep_scenario(base_spec(steady_rate=0.0))
    spec = base_spec(region=(0.0, 0.0, 1.0, 1.0), onset_step=None)
    with pytest.raises(ConfigError, match="onset_step"):
        generate_creep_scenario(spec)


def test_rate_profile_peaks_at_centre():
    spec = base_spec(
        slip_theta=0.0, rate_jitter=0.0, noise_sd=0.0, bump_width=0.45,
        region=(1.0, 1.0, 5.0, 5.0),
    )
    ds, truth = generate_creep_scenario(spec)
    inside = truth.regions[0].contains(ds.coords)
    final = ds.displacement[:, -1]
    centre_mask = inside & (np.abs(ds.coords[:, 0] - 3.0) <= 1) & (
        np.abs(ds.coords[:, 1] - 3.0) <= 1
    )
    edge_mask = inside & ~centre_mask
    assert final[centre_mask].max() > final[edge_mask].max()


def test_step_interval_carried():
    ds, _ = generate_creep_scenario(base_spec(step_interval_minutes=6.0))
    assert ds.step_interval_minutes == 6.0
