"""Bayesian spatial fusion of s-LID fields.

Each point's previous-step s-LID values over its k nearest physical-space
neighbors are pooled into a Gamma prior: Gaussian-kernel weights (closer
neighbors count more) give a weighted mean and variance, which map to shape
``alpha_p = mu^2 / var`` and rate ``beta_p = mu / var``. The current step
contributes an observation in the same conjugate family from the query's
kinematic neighbor distances::

    alpha_o = k,   beta_o = sum(ln(d_k / d_i))  >= 0

so the posterior mean ``(alpha_p + alpha_o) / (beta_p + beta_o)`` is the fused
s-LID. Note beta_o equals the log-sum in the MLE estimator, so with a flat
prior the fused value reduces to the raw estimate; a confident prior from a
homogeneous neighborhood (tiny variance, huge beta_p) pins the posterior to
the neighborhood mean, which is what suppresses isolated noisy spikes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MonitoringDataset
from .errors import ConfigError, require
from .lid import S_LID_FIRST_COL, LidConfig, LidField, _log_sums, knn, s_lid_all

DEFAULT_K = 8


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate parameters. Priors have beta > 0; observations allow beta = 0
    (all neighbor distances equal carries shape information only)."""

    alpha: float
    beta: float

    def __post_init__(self):
        require("Gamma alpha", self.alpha, "(0, inf)", ValueError)
        require("Gamma beta", self.beta, "[0, inf)", ValueError)

    @property
    def mean(self) -> float:
        if self.beta == 0:
            raise ValueError("mean undefined for beta = 0")
        return self.alpha / self.beta


@dataclass
class FusionConfig:
    """Spatial pooling configuration.

    ``bandwidth`` is either the string "median" (per-query median distance to
    its k neighbors, adaptive and scale-free across site geometries) or a
    fixed positive kernel width. ``obs_k`` is the kinematic neighborhood of
    the observation; None uses the s-LID neighborhood size, making the
    observation exactly the estimator's evidence. ``weight_space`` selects
    physical-coordinate distances (default) or per-step kinematic distances
    for the kernel weights.
    """

    k: int = DEFAULT_K
    obs_k: int | None = None
    bandwidth: float | str = "median"
    variance_floor: float = 1e-6
    weight_space: str = "physical"

    def validate(self) -> None:
        require("spatial neighborhood size k", self.k, "[1, inf)")
        if self.obs_k is not None:
            require("observation neighborhood size obs_k", self.obs_k, "[1, inf)")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "median":
                raise ConfigError(f"bandwidth must be 'median' or a positive number, got {self.bandwidth!r}")
        else:
            require("fixed bandwidth", self.bandwidth, "(0, inf)")
        require("variance_floor", self.variance_floor, "(0, inf)")
        if self.weight_space not in ("physical", "kinematic"):
            raise ConfigError(f"weight_space must be 'physical' or 'kinematic', got {self.weight_space!r}")

    def effective_obs_k(self, lid_config) -> int:
        return lid_config.s if self.obs_k is None else self.obs_k


def gaussian_weights(query_coord, neighbor_coords, bandwidth: float) -> np.ndarray:
    """Normalized Gaussian-kernel weights from distances to the query.

    Positive, sum to one, monotone non-increasing in distance.
    """
    require("bandwidth", bandwidth, "(0, inf)")
    q = np.asarray(query_coord, dtype=np.float64)
    nb = np.atleast_2d(np.asarray(neighbor_coords, dtype=np.float64))
    if nb.shape[0] < 1:
        raise ConfigError("need at least one neighbor")
    d2 = ((nb - q) ** 2).sum(axis=1)
    return _weights_from_sq_distances(d2, bandwidth)


def _weights_from_sq_distances(d2: np.ndarray, bandwidth) -> np.ndarray:
    # factor out the smallest exponent so extreme distance/bandwidth ratios
    # cannot underflow every weight; a tiny floor keeps the rest positive
    z = d2 / (2.0 * np.asarray(bandwidth, dtype=np.float64) ** 2)
    z = z - z.min(axis=-1, keepdims=True)
    w = np.maximum(np.exp(-z), 1e-300)
    return w / w.sum(axis=-1, keepdims=True)


def prior_from_neighbors(
    neighbor_slids, weights, variance_floor: float = 1e-6
) -> GammaParams:
    """Gamma prior from the weighted mean and variance of neighbor s-LIDs.

    The variance is floored at ``variance_floor`` so identical neighbors give
    a sharply concentrated (but finite) prior at their common value.
    """
    s = np.asarray(neighbor_slids, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if s.shape != w.shape or s.ndim != 1:
        raise ValueError("neighbor s-LIDs and weights must be 1-D and aligned")
    require("neighbor s-LIDs", s, "(0, inf)", ValueError)
    mu = float(np.dot(w, s))
    var = float(np.dot(w, (s - mu) ** 2))
    var = max(var, variance_floor)
    return GammaParams(alpha=mu * mu / var, beta=mu / var)


def observation_params(distances) -> GammaParams:
    """Observation evidence from sorted, strictly positive kinematic distances."""
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 1 or d.size < 1:
        raise ValueError("need at least one neighbor distance")
    require("observation distances", d, "(0, inf)", ValueError)
    if np.any(np.diff(d) < 0):
        raise ValueError("distances must be sorted ascending")
    k = d.size
    beta = float(k * np.log(d[-1]) - np.log(d).sum())
    return GammaParams(alpha=float(k), beta=max(beta, 0.0))


def fused_slid(prior: GammaParams, obs: GammaParams) -> float:
    """Posterior-mean s-LID of the conjugate update."""
    denom = require("posterior rate", prior.beta + obs.beta, "(0, inf)", ValueError)
    return (prior.alpha + obs.alpha) / denom


def _kernel_weights(dist: np.ndarray, bandwidth) -> np.ndarray:
    """Weights over rows of neighbor distances; a "median" bandwidth is each
    row's median distance (floored so coincident neighbors stay defined)."""
    if bandwidth == "median":
        bw = np.maximum(np.median(dist, axis=1), 1e-12)[:, None]
    else:
        bw = float(bandwidth)
    return _weights_from_sq_distances(dist**2, bw)


def neighbor_weights(coords: np.ndarray, config: FusionConfig):
    """Each point's k spatial neighbors and the rule for their kernel weights.

    Returns ``(nbr_idx, weights_at)``; ``weights_at(samples, rows)`` gives the
    weights of the points in the slice ``rows`` given the step's (n, 2)
    kinematic samples. Physical-space weights do not depend on the step, so
    they are computed once here; kinematic-space weights are computed from
    the samples on each call. Either way every row is computed on its own,
    so any split of the rows gives the same bits.
    """
    nbr_dist, nbr_idx = knn(coords, config.k)
    if config.weight_space == "physical":
        fixed = _kernel_weights(nbr_dist, config.bandwidth)
        return nbr_idx, lambda samples, rows: fixed[rows]

    def kinematic(samples, rows):
        diff = samples[nbr_idx[rows]] - samples[rows, None, :]
        return _kernel_weights(np.sqrt((diff**2).sum(axis=2)), config.bandwidth)

    return nbr_idx, kinematic


def fuse_rows(
    prev_neighbor_slids: np.ndarray,
    weights: np.ndarray,
    obs_distances: np.ndarray,
    variance_floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized fusion for a block of points.

    ``prev_neighbor_slids`` and ``weights`` are (m, k); ``obs_distances`` is
    (m, k_obs) sorted ascending per row (zero entries are dropped from the
    observation). Returns (values, valid); rows whose observation collapses
    entirely to zero distance are invalid.
    """
    s = np.ascontiguousarray(prev_neighbor_slids, dtype=np.float64)
    w = np.ascontiguousarray(weights, dtype=np.float64)
    mu = (w * s).sum(axis=1)
    var = (w * (s - mu[:, None]) ** 2).sum(axis=1)
    var = np.maximum(var, variance_floor)
    alpha_p = mu * mu / var
    beta_p = mu / var

    count, beta_o = _log_sums(np.array(obs_distances, dtype=np.float64, order="C"))
    beta_o = np.maximum(beta_o, 0.0)

    valid = (mu > 0) & (count >= 1)
    denom = beta_p + beta_o
    values = np.full(s.shape[0], np.nan)
    np.divide(alpha_p + count, denom, out=values, where=valid & (denom > 0))
    valid &= np.isfinite(values)
    return values, valid


def fuse_all(
    dataset: MonitoringDataset,
    prev_slids: np.ndarray,
    step: int,
    config: FusionConfig | None = None,
    lid_config: LidConfig | None = None,
) -> LidField:
    """Fused s-LID field at ``step`` from the previous step's s-LID values.

    At the bootstrap step (the first step with a defined velocity) there is no
    previous field, so the raw s-LID field is returned unchanged.
    """
    config = config or FusionConfig()
    lid_config = lid_config or LidConfig()
    config.validate()
    lid_config.validate()
    c = dataset.column(step)
    if c == S_LID_FIRST_COL:
        return s_lid_all(dataset, step, lid_config)
    if c < S_LID_FIRST_COL:
        raise ConfigError(
            f"fusion needs velocity; first valid step is {dataset.start_step + S_LID_FIRST_COL}"
        )
    prev = np.asarray(prev_slids, dtype=np.float64)
    if prev.shape != (dataset.num_points,):
        raise ConfigError("prev_slids must hold one value per point")
    require("prev_slids", prev, "(0, inf)", ValueError)

    nbr_idx, weights_at = neighbor_weights(dataset.coords, config)
    samples = dataset.samples_at(step)
    obs, _ = knn(samples, config.effective_obs_k(lid_config))
    weights = weights_at(samples, slice(None))
    return LidField.filled(step, *fuse_rows(prev[nbr_idx], weights, obs, config.variance_floor))
