"""Comparison methods: two-means, DBSCAN, LOF, dynamic-quantile selection,
and the raw (unfused) s-LID score.

Every method reduces to a BaselineResult: a per-point failure likelihood in
[0, 1], the binary high-risk set, and a best-first ranking used for the
top-10 selection rule during lead-time evaluation. All methods are
deterministic; ties break toward the lowest point index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .data import BASELINE_SCORES_HEADER, MonitoringDataset, format_rows, replacing
from .errors import ConfigError, DegenerateInputError, require, require_int
from .lid import LidConfig, knn, s_lid_all


@dataclass
class BaselineResult:
    method: str
    step: int
    likelihood: np.ndarray
    high_risk: np.ndarray
    ranking: np.ndarray  # point indices, best candidate first
    edq_selection: list | None = None  # [(point_index, level), ...] for EDQ
    objective_trace: list = field(default_factory=list)  # kmeans convergence record


def _ranked(indices: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Sort indices by key ascending, ties toward the lower index."""
    order = np.lexsort((indices, key))
    return indices[order]


KMEANS_ITERATIONS = 100  # Lloyd iterations at most
KMEANS_TOL = 1e-9  # centroid movement that counts as converged


def kmeans2(values, step: int = 0) -> BaselineResult:
    """1-D two-means on displacement values, high risk = larger-centroid cluster.

    Seeds at the min and max values, then Lloyd iterations to convergence.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ConfigError("two-means needs a 1-D array of at least 2 values")
    if np.all(x == x[0]):
        raise DegenerateInputError("all displacement values identical; two-means undefined")
    lo, hi = float(x.min()), float(x.max())
    trace = []
    labels = None
    for _ in range(KMEANS_ITERATIONS):
        labels = (np.abs(x - hi) < np.abs(x - lo)).astype(int)  # ties go to lo
        trace.append(float(((x - np.where(labels == 1, hi, lo)) ** 2).sum()))
        new_lo = x[labels == 0].mean() if np.any(labels == 0) else lo
        new_hi = x[labels == 1].mean() if np.any(labels == 1) else hi
        if abs(new_lo - lo) < KMEANS_TOL and abs(new_hi - hi) < KMEANS_TOL:
            lo, hi = new_lo, new_hi
            break
        lo, hi = new_lo, new_hi
    high = labels == (1 if hi >= lo else 0)
    centroid = max(lo, hi)
    idx = np.flatnonzero(high)
    ranking = _ranked(idx, np.abs(x[idx] - centroid))
    return BaselineResult(
        method="kmeans",
        step=step,
        likelihood=high.astype(np.float64),
        high_risk=high,
        ranking=ranking,
        objective_trace=trace,
    )


def dbscan_labels(samples, eps: float, min_pts: int) -> np.ndarray:
    """Exact DBSCAN cluster labels (-1 = noise) over kinematic space.

    Neighborhoods are closed balls (<= eps, self included); a point is core
    when its neighborhood reaches min_pts. Clusters are numbered by their
    first core point, so labels are reproducible.
    """
    require("eps", eps, "(0, inf)")
    require_int("min_pts", min_pts, "[1, inf)")
    x = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n = x.shape[0]
    tree = cKDTree(x)
    neighborhoods = tree.query_ball_point(x, r=eps)
    core = np.array([len(nb) >= min_pts for nb in neighborhoods])

    labels = np.full(n, -1, dtype=int)
    cluster = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        # breadth-first expansion; only core points spread membership
        labels[i] = cluster
        queue = [i]
        while queue:
            p = queue.pop(0)
            if not core[p]:
                continue
            for q in neighborhoods[p]:
                if labels[q] == -1:
                    labels[q] = cluster
                    queue.append(q)
        cluster += 1
    return labels


def dbscan(samples, eps: float, min_pts: int = 4, step: int = 0) -> BaselineResult:
    """DBSCAN baseline: high risk = noise plus the cluster with the highest
    mean displacement."""
    x = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    labels = dbscan_labels(x, eps, min_pts)
    n_clusters = labels.max() + 1
    noise = labels == -1
    if n_clusters > 0:
        means = np.array([x[labels == c, 0].mean() for c in range(n_clusters)])
        risk_cluster = int(np.argmax(means))
        high = noise | (labels == risk_cluster)
        centroid = x[labels == risk_cluster].mean(axis=0)
    else:
        high = noise
        centroid = x.mean(axis=0)
    idx = np.flatnonzero(high)
    dist_to_centroid = np.sqrt(((x[idx] - centroid) ** 2).sum(axis=1))
    return BaselineResult(
        method="dbscan",
        step=step,
        likelihood=high.astype(np.float64),
        high_risk=high,
        ranking=_ranked(idx, dist_to_centroid),
    )


def lof_scores(samples, k: int) -> np.ndarray:
    """Standard local-outlier-factor scores over kinematic space.

    Uses the k-distance neighborhood convention: every point within the
    k-distance belongs to the neighborhood, so duplicates are handled by
    letting neighborhoods grow past k. Groups of more than k coincident
    points get infinite local reachability density; their LOF is 1 among
    themselves, as in the reference formulation.
    """
    x = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n = x.shape[0]
    require_int("k", k, "[1, inf)")
    if n <= k:
        raise ConfigError(f"LOF with k={k} needs more than k points, got {n}")
    tree = cKDTree(x)
    kdist = knn(x, k, tree=tree)[0][:, k - 1]
    # each ball, widened past its own rounding, is cut back to the points
    # within the k-distance by the distances a dense matrix would hold
    neighbors, reach = [], []
    for i, ball in enumerate(tree.query_ball_point(x, r=kdist * (1 + 1e-9), return_sorted=True)):
        nb = np.array(ball)
        d = np.sqrt(((x[nb] - x[i]) ** 2).sum(axis=1))
        keep = (d <= kdist[i]) & (nb != i)
        neighbors.append(nb[keep])
        reach.append(np.maximum(kdist[nb[keep]], d[keep]).sum())
    lrd = np.array([len(nb) / rs if rs > 0 else np.inf for nb, rs in zip(neighbors, reach)])
    # a coincident group's ratio of infinities is taken as 1
    return np.array([1.0 if np.isinf(lrd[i]) else (lrd[nb] / lrd[i]).mean()
                     for i, nb in enumerate(neighbors)])


def lof(samples, k: int = 20, cutoff: float = 1.5, step: int = 0) -> BaselineResult:
    """LOF baseline: likelihood = rank-normalized score, high risk = score >= cutoff."""
    require("cutoff", cutoff)
    x = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    scores = lof_scores(x, k)
    n = len(scores)
    order = np.lexsort((np.arange(n), scores))  # ascending score, ties by index
    likelihood = np.empty(n)
    likelihood[order] = np.arange(1, n + 1) / n
    high = scores >= cutoff
    return BaselineResult(
        method="lof",
        step=step,
        likelihood=likelihood,
        high_risk=high,
        ranking=_ranked(np.arange(n), -scores),
    )


def edq_objectives(series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive/negative deviation mass of every candidate series.

    For candidate c, P[c] sums max(y - x_c, 0) and N[c] sums max(x_c - y, 0)
    over all series y and steps, so the level-q objective is q*P + (1-q)*N.
    """
    y = np.asarray(series, dtype=np.float64)
    n = y.shape[0]
    pos = np.empty(n)
    neg = np.empty(n)
    for c in range(n):
        r = y - y[c]
        pos[c] = np.maximum(r, 0.0).sum()
        neg[c] = np.maximum(-r, 0.0).sum()
    return pos, neg


DEFAULT_EDQ_LEVELS = tuple(np.round(np.arange(0.5, 1.0, 0.05), 2))


def edq_select(
    dataset: MonitoringDataset,
    quantile_levels=DEFAULT_EDQ_LEVELS,
    end_step: int | None = None,
) -> BaselineResult:
    """Pick, per quantile level, the observed series minimizing the asymmetric
    deviation from all series; exhaustive over every point as candidate.

    ``end_step`` restricts the evaluation to the series prefix through that
    step. O(points^2 * steps): tractable at desk scale, expensive at field scale.
    """
    levels = [float(q) for q in quantile_levels]
    if not levels:
        raise ConfigError("quantile selection needs at least one level")
    require("quantile levels", np.array(levels), "[0, 1]")
    if dataset.num_points < 2:
        raise ConfigError("quantile selection needs at least 2 series")
    last = dataset.last_step if end_step is None else end_step
    cols = dataset.column(last) + 1
    pos, neg = edq_objectives(dataset.displacement[:, :cols])

    selection = []
    for q in levels:
        obj = q * pos + (1.0 - q) * neg
        winner = int(np.flatnonzero(obj == obj.min())[0])
        selection.append((winner, q))

    n = dataset.num_points
    likelihood = np.zeros(n)
    for winner, q in selection:
        likelihood[winner] = max(likelihood[winner], q)
    high = likelihood >= 0.5
    seen, ranking = set(), []
    for winner, _ in sorted(selection, key=lambda wq: -wq[1]):
        if winner not in seen:
            seen.add(winner)
            ranking.append(winner)
    return BaselineResult(
        method="edq",
        step=last,
        likelihood=likelihood,
        high_risk=high,
        ranking=np.asarray(ranking, dtype=int),
        edq_selection=selection,
    )


def write_baseline_scores_csv(path, results, dataset: MonitoringDataset) -> None:
    """Per-point scores of comparison methods in the ``BASELINE_SCORES_HEADER``
    format: the detector's dump layout (step and point id first) with a method column."""
    with replacing(path) as fh:
        fh.write(",".join(BASELINE_SCORES_HEADER) + "\n")
        for res in results:
            fh.write(format_rows(res.step, dataset.ids, res.method, res.likelihood, res.high_risk))


def slid_result(values, step: int) -> BaselineResult:
    """Raw s-LID baseline from one step's s-LID field: min-max rescaled
    scores, high risk = rescaled score >= 0.5."""
    v = np.asarray(values, dtype=np.float64)
    span = v.max() - v.min()
    if span == 0:
        raise DegenerateInputError("all s-LID values equal; min-max rescale undefined")
    norm = (v - v.min()) / span
    high = norm >= 0.5
    idx = np.flatnonzero(high)
    return BaselineResult(
        method="slid",
        step=step,
        likelihood=norm,
        high_risk=high,
        ranking=_ranked(idx, -norm[idx]),
    )


def raw_slid_baseline(
    dataset: MonitoringDataset, step: int, config: LidConfig | None = None
) -> BaselineResult:
    """Raw s-LID baseline over the s-LID field at ``step``."""
    return slid_result(s_lid_all(dataset, step, config).values, step)
