"""Synthetic slope-failure scenarios with exact ground truth.

Points sit on a regular grid. Stable points show zero-mean measurement noise
plus an optional small per-point linear drift. Points inside the failure
rectangle follow the classic three stages of creep:

1. initial transient: an exponentially decaying surplus over the steady rate,
2. steady state: constant velocity,
3. tertiary acceleration: from ``onset_step`` the velocity grows by the
   inverse-velocity law ``v(t) = rate * ((tof - onset + 1) / (tof - t + 1))**exponent``
   through the time of failure, after which the region is frozen (collapsed),
   so the data at the failure step still carries the pre-collapse peak.

The per-point steady rate follows a radial profile peaking at the grid point
nearest the region centre, so the core of the failure moves fastest, as real
slides do; a small multiplicative jitter keeps rates distinct. On top of the
smooth law, each in-region point carries a bounded slow multiplicative
velocity modulation (stick-slip): an AR(1) process squashed through tanh, so
episodes of faster and slower slip last tens of steps while cumulative
displacement reflects the episode history rather than the instantaneous rate.
All randomness comes from one seeded generator; identical specs give
bit-identical datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FailureRegion, GroundTruth, MonitoredPoint, MonitoringDataset
from .errors import ConfigError, require, require_int


# the integer fields of a CreepScenarioSpec, then each number and its range;
# the failure steps are checked against each other
SPEC_INTS = ("grid_nx", "grid_ny", "num_steps", "seed", "onset_step", "time_of_failure")
SPEC_RANGES = {
    "grid_nx": "[1, inf)", "grid_ny": "[1, inf)", "num_steps": "[2, inf)", "seed": "[0, inf)",
    "noise_sd": "[0, inf)", "steady_rate": "(0, inf)", "accel_exponent": "(0, inf)",
    "spacing": "(0, inf)", "drift_max": "[0, inf)", "transient_amp": "[0, inf)",
    "transient_tau": "(0, inf)", "rate_floor": "(0, 1]", "bump_width": "(0, inf)",
    "rate_jitter": "[0, 1)", "slip_theta": "[0, inf)", "slip_rho": "[0, 1)",
    "step_interval_minutes": "(0, inf)",
}


@dataclass
class CreepScenarioSpec:
    """Parameters of a generated scenario; ``validate`` raises ConfigError
    unless each number lies in its ``SPEC_RANGES`` range, given here, and
    each ``SPEC_INTS`` field is an integer.

    - ``grid_nx`` x ``grid_ny`` points (each >= 1), ``spacing`` (0, inf)
      apart; ``num_steps`` >= 2; ``seed`` >= 0; ``step_interval_minutes``
      (0, inf); ``noise_sd`` [0, inf): the measurement noise; ``drift_max``
      [0, inf): the largest per-point linear drift per step.
    - ``region``: a finite (xmin, ymin, xmax, ymax) rectangle in coordinate
      space that holds a grid point (``generate_creep_scenario`` checks),
      with ``0 < onset_step < time_of_failure < num_steps``; or None for a
      noise-only scenario.
    - ``steady_rate`` (0, inf): the peak steady rate; ``rate_floor`` (0, 1]:
      the slowest in-region steady rate as a fraction of it; ``bump_width``
      (0, inf): the radial profile's sigma in coordinate units;
      ``rate_jitter`` [0, 1): the half-width of the per-point multiplicative
      rate perturbation; ``transient_amp`` [0, inf) and ``transient_tau``
      (0, inf): the initial surplus over the steady rate and its decay time
      in steps; ``accel_exponent`` (0, inf): the inverse-velocity exponent;
      ``slip_theta`` [0, inf) and ``slip_rho`` [0, 1): the stick-slip
      factor's log bound and AR(1) coefficient.
    """

    grid_nx: int
    grid_ny: int
    num_steps: int
    noise_sd: float = 0.1
    region: tuple[float, float, float, float] | None = None
    time_of_failure: int | None = None
    steady_rate: float = 0.05
    onset_step: int | None = None
    accel_exponent: float = 1.0
    seed: int = 0
    spacing: float = 1.0
    drift_max: float = 0.0
    transient_amp: float = 1.5
    transient_tau: float = 40.0
    rate_floor: float = 0.25
    bump_width: float = 1.0
    rate_jitter: float = 0.05
    slip_theta: float = 0.45
    slip_rho: float = 0.97
    step_interval_minutes: float = 2.5

    def validate(self) -> None:
        for name, interval in SPEC_RANGES.items():
            (require_int if name in SPEC_INTS else require)(name, getattr(self, name), interval)
        if self.region is not None:
            if self.time_of_failure is None or self.onset_step is None:
                raise ConfigError("a failure region needs onset_step and time_of_failure")
            require_int("onset_step", self.onset_step)
            require_int("time_of_failure", self.time_of_failure)
            box = require("region", np.array(self.region, dtype=np.float64))
            if box.shape != (4,) or not (box[2] > box[0] and box[3] > box[1]):
                raise ConfigError(f"failure region {self.region} must be a rectangle xmin < xmax, ymin < ymax")
            if not 0 < self.onset_step < self.time_of_failure < self.num_steps:
                raise ConfigError(
                    "need 0 < onset_step < time_of_failure < num_steps, got "
                    f"onset={self.onset_step} tof={self.time_of_failure} steps={self.num_steps}"
                )


def _grid_coords(spec: CreepScenarioSpec) -> np.ndarray:
    xs = np.arange(spec.grid_nx, dtype=np.float64) * spec.spacing
    ys = np.arange(spec.grid_ny, dtype=np.float64) * spec.spacing
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _region_rates(spec: CreepScenarioSpec, coords: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Steady rate per in-region point: radial profile, fastest at the core.

    The profile peaks at the exact rectangle centre; with a grid-cell-scale
    ``bump_width`` the handful of nearest grid points form the fast core of
    the failure while the rest of the region creeps near the floor rate.
    """
    xmin, ymin, xmax, ymax = spec.region
    cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
    d2 = (coords[inside, 0] - cx) ** 2 + (coords[inside, 1] - cy) ** 2
    profile = np.exp(-d2 / (2.0 * spec.bump_width**2))
    return spec.steady_rate * (spec.rate_floor + (1.0 - spec.rate_floor) * profile)


def _slip_modulation(rng, m: int, t: int, rho: float, theta: float) -> np.ndarray:
    """Bounded multiplicative stick-slip factor per (point, step).

    A stationary AR(1) latent process squashed through tanh keeps the factor
    inside [exp(-theta), exp(theta)], so slip episodes cannot upset the rate
    ordering imposed by the radial profile beyond that bounded ratio.
    """
    eps = rng.standard_normal((m, t))
    z = np.empty((m, t))
    z[:, 0] = eps[:, 0]
    innov = np.sqrt(1.0 - rho * rho)
    for c in range(1, t):
        z[:, c] = rho * z[:, c - 1] + innov * eps[:, c]
    return np.exp(theta * np.tanh(z))


def generate_creep_scenario(spec: CreepScenarioSpec) -> tuple[MonitoringDataset, GroundTruth]:
    """Generate (dataset, ground truth) for a scenario spec; deterministic per seed."""
    spec.validate()
    coords = _grid_coords(spec)
    n = coords.shape[0]
    t = spec.num_steps
    rng = np.random.default_rng(spec.seed)

    # fixed draw order keeps outputs reproducible: drift, rate jitter, noise
    drift = (
        rng.uniform(-spec.drift_max, spec.drift_max, size=n)
        if spec.drift_max > 0
        else np.zeros(n)
    )

    steps = np.arange(t, dtype=np.float64)
    base = drift[:, None] * steps[None, :]

    regions = []
    if spec.region is not None:
        regions.append(FailureRegion("failure", *spec.region, spec.time_of_failure))
        inside = regions[0].contains(coords)
        if not inside.any():
            raise ConfigError(f"failure region {spec.region} holds no grid point")
        rates = _region_rates(spec, coords, inside)
        if spec.rate_jitter > 0:
            rates = rates * rng.uniform(
                1.0 - spec.rate_jitter, 1.0 + spec.rate_jitter, size=rates.size
            )
        tof, onset = spec.time_of_failure, spec.onset_step
        shape = 1.0 + spec.transient_amp * np.exp(-steps / spec.transient_tau)
        accel = np.ones(t)
        ramp = slice(onset, tof + 1)
        accel[ramp] = (
            (tof - onset + 1.0) / (tof - steps[ramp] + 1.0)
        ) ** spec.accel_exponent
        accel[tof + 1 :] = 0.0  # collapsed: the region freezes after failure
        shape[tof + 1 :] = 0.0
        velocity = rates[:, None] * (shape * accel)[None, :]
        if spec.slip_theta > 0:
            velocity *= _slip_modulation(
                rng, rates.size, t, spec.slip_rho, spec.slip_theta
            )
        velocity[:, 0] = 0.0  # displacement datum at the first step
        base[inside] += np.cumsum(velocity, axis=1)

    if spec.noise_sd > 0:
        # about 1 MB of noise at a time: drawn in C order, the row blocks take
        # the same values from the generator as one (n, t) draw
        rows = max(1, 2**17 // t)
        for lo in range(0, n, rows):
            block = base[lo : lo + rows]
            block += rng.normal(0.0, spec.noise_sd, size=block.shape)

    displacement = base
    points = [MonitoredPoint(i, (coords[i, 0], coords[i, 1])) for i in range(n)]
    dataset = MonitoringDataset(
        points=points,
        displacement=displacement,
        step_interval_minutes=spec.step_interval_minutes,
        start_step=0,
    )
    return dataset, GroundTruth(regions)


def shipped_scenario_spec(seed: int = 2024) -> CreepScenarioSpec:
    """The bundled 2000-point, 2000-step single-failure scenario.

    A 50x40 grid with a 14x14 failure block (196 points); acceleration
    starts at step 1400 and the collapse lands at step 1900, leaving a quiet
    tail for the detector to disarm in.
    """
    return CreepScenarioSpec(
        grid_nx=50,
        grid_ny=40,
        num_steps=2000,
        noise_sd=0.08,
        region=(27.0, 19.0, 40.0, 32.0),
        time_of_failure=1900,
        steady_rate=0.3,
        onset_step=1400,
        accel_exponent=1.0,
        seed=seed,
        drift_max=0.002,
        rate_floor=0.5,
        bump_width=0.45,
        rate_jitter=0.06,
        slip_theta=0.0,
        step_interval_minutes=2.5,
    )


def noise_only_spec(seed: int = 77) -> CreepScenarioSpec:
    """Control twin of the shipped scenario: same grid and noise, no failure."""
    spec = shipped_scenario_spec(seed=seed)
    spec.region = None
    spec.time_of_failure = None
    spec.onset_step = None
    return spec
