import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from stlid import (
    LidConfig,
    dbscan,
    dbscan_labels,
    edq_select,
    kmeans2,
    lof,
    lof_scores,
    raw_slid_baseline,
    s_lid_all,
)
from stlid import baselines
from stlid.baselines import BaselineResult, edq_objectives
from stlid.errors import ConfigError, DegenerateInputError

from conftest import make_dataset


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------


def reference_dbscan(x, eps, min_pts):
    """Textbook quadratic DBSCAN: seed-set expansion over a distance matrix."""
    n = len(x)
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    labels = [None] * n
    cluster = -1
    for i in range(n):
        if labels[i] is not None:
            continue
        nb = [j for j in range(n) if d[i, j] <= eps]
        if len(nb) < min_pts:
            labels[i] = -1
            continue
        cluster += 1
        labels[i] = cluster
        seeds = list(nb)
        while seeds:
            q = seeds.pop()
            if labels[q] == -1:
                labels[q] = cluster
            if labels[q] is not None:
                continue
            labels[q] = cluster
            qnb = [j for j in range(n) if d[q, j] <= eps]
            if len(qnb) >= min_pts:
                seeds.extend(qnb)
    return np.array(labels)


def reference_lof(x, k):
    """Plain-loop LOF with the k-distance neighborhood convention."""
    n = len(x)
    d = [[math.dist(x[i], x[j]) for j in range(n)] for i in range(n)]
    kdist = []
    neighbors = []
    for i in range(n):
        others = sorted(d[i][j] for j in range(n) if j != i)
        kd = others[k - 1]
        kdist.append(kd)
        neighbors.append([j for j in range(n) if j != i and d[i][j] <= kd])
    lrd = []
    for i in range(n):
        reach = math.fsum(max(kdist[j], d[i][j]) for j in neighbors[i])
        lrd.append(len(neighbors[i]) / reach if reach > 0 else math.inf)
    scores = []
    for i in range(n):
        if math.isinf(lrd[i]):
            scores.append(1.0)
        else:
            scores.append(math.fsum(lrd[j] for j in neighbors[i]) / (len(neighbors[i]) * lrd[i]))
    return np.array(scores)


def dense_lof(x, k):
    """LOF over the full n x n distance matrix: the formula ``lof_scores``
    must equal bit for bit, value for value and in the same summation order."""
    n = len(x)
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    kdist = np.sort(d, axis=1)[:, k - 1]
    neighbors = [np.flatnonzero(d[i] <= kdist[i]) for i in range(n)]
    lrd = np.array([
        len(nb) / rs if (rs := np.maximum(kdist[nb], d[i, nb]).sum()) > 0 else np.inf
        for i, nb in enumerate(neighbors)
    ])
    scores = np.empty(n)
    for i, nb in enumerate(neighbors):
        scores[i] = 1.0 if np.isinf(lrd[i]) else (lrd[nb] / lrd[i]).mean()
    return scores


def labels_match_up_to_renaming(a, b):
    if not np.array_equal(a == -1, b == -1):
        return False
    mapping = {}
    reverse = {}
    for x, y in zip(a, b):
        if x == -1:
            continue
        if mapping.setdefault(x, y) != y or reverse.setdefault(y, x) != x:
            return False
    return True


# ---------------------------------------------------------------------------
# two-means
# ---------------------------------------------------------------------------


def test_kmeans_separated_values():
    res = kmeans2([0.0, 0.0, 0.0, 10.0, 10.0])
    assert res.high_risk.tolist() == [False, False, False, True, True]
    assert res.likelihood.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]


def test_kmeans_identical_values_degenerate():
    with pytest.raises(DegenerateInputError):
        kmeans2([1.0, 1.0, 1.0, 1.0])


def test_kmeans_label_depends_on_value_not_order():
    rng = np.random.default_rng(0)
    v = np.concatenate([rng.normal(0, 0.5, 20), rng.normal(10, 0.5, 15)])
    base = kmeans2(v)
    perm = rng.permutation(len(v))
    permuted = kmeans2(v[perm])
    assert np.array_equal(permuted.high_risk, base.high_risk[perm])


def test_kmeans_objective_non_increasing():
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.normal(0, 1, size=50) + rng.choice([0, 6], size=50)
        trace = kmeans2(v).objective_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_kmeans_ranking_is_distance_to_high_centroid():
    res = kmeans2([0.0, 9.0, 10.0, 11.0, 0.5])
    assert res.ranking.tolist() == [2, 1, 3] or res.ranking.tolist() == [2, 3, 1]
    assert res.ranking[0] == 2  # exactly at the centroid


# ---------------------------------------------------------------------------
# DBSCAN
# ---------------------------------------------------------------------------


def test_dbscan_two_blobs():
    rng = np.random.default_rng(2)
    blob1 = rng.normal(0, 0.1, size=(20, 2))
    blob2 = rng.normal(8, 0.1, size=(20, 2))
    x = np.vstack([blob1, blob2])
    labels = dbscan_labels(x, eps=0.5, min_pts=4)
    assert set(labels) == {0, 1}
    assert (labels == -1).sum() == 0


def test_dbscan_far_singleton_is_noise():
    rng = np.random.default_rng(3)
    x = np.vstack([rng.normal(0, 0.1, size=(15, 2)), [[50.0, 50.0]]])
    labels = dbscan_labels(x, eps=0.5, min_pts=4)
    assert labels[-1] == -1


def test_dbscan_high_risk_rule():
    rng = np.random.default_rng(4)
    low = rng.normal((0, 0), 0.1, size=(12, 2))
    high = rng.normal((9, 0), 0.1, size=(12, 2))  # higher displacement
    noise_pt = np.array([[4.0, 30.0]])
    x = np.vstack([low, high, noise_pt])
    res = dbscan(x, eps=0.5, min_pts=4)
    assert res.high_risk[-1]  # noise
    assert res.high_risk[12:24].all()  # top-displacement cluster
    assert not res.high_risk[:12].any()


def test_dbscan_all_noise_ranks_every_point_by_distance_to_the_mean():
    # no point has min_pts neighbours within eps: no cluster, so every point
    # is high risk, ranked by distance to the mean of all, ties toward the
    # lower index. Before the shift the mean is (0.5, 0), and the distances
    # are 3.5, 2.5, sqrt(16.25), sqrt(16.25), 0.5 and 2.5
    x = np.array([[-3.0, 0.0], [3.0, 0.0], [0.0, 4.0], [0.0, -4.0], [0.0, 0.0], [3.0, 0.0]])
    x += (1.0, 2.0)
    assert (dbscan_labels(x, eps=0.5, min_pts=3) == -1).all()
    res = dbscan(x, eps=0.5, min_pts=3, step=7)
    assert res.step == 7 and res.high_risk.all()
    assert res.likelihood.tolist() == [1.0] * 6
    assert res.ranking.tolist() == [4, 1, 5, 0, 2, 3]


def test_dbscan_matches_reference_randomized():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(10, 60))
        x = rng.normal(0, 1, size=(n, 2)) * rng.choice([0.3, 1.0])
        eps = float(rng.uniform(0.2, 1.0))
        min_pts = int(rng.integers(2, 6))
        mine = dbscan_labels(x, eps, min_pts)
        ref = reference_dbscan(x, eps, min_pts)
        assert labels_match_up_to_renaming(mine, ref)


def test_dbscan_validation():
    with pytest.raises(ConfigError):
        dbscan_labels(np.zeros((3, 2)), eps=-1.0, min_pts=2)
    with pytest.raises(ConfigError):
        dbscan_labels(np.zeros((3, 2)), eps=1.0, min_pts=0)
    # a NaN radius holds no neighbour, so it used to label every point noise
    for eps in (math.nan, math.inf, 0.0):
        with pytest.raises(ConfigError, match="eps"):
            dbscan_labels(np.zeros((3, 2)), eps=eps, min_pts=2)


def test_lof_validation():
    # a NaN cutoff compares false with every score, so it used to flag no point
    x = np.random.default_rng(0).normal(size=(30, 2))
    for cutoff in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="cutoff"):
            lof(x, 5, cutoff)


# ---------------------------------------------------------------------------
# LOF
# ---------------------------------------------------------------------------


def test_lof_uniform_grid_interior_near_one():
    xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
    x = np.column_stack([xs.ravel(), ys.ravel()])
    scores = lof_scores(x, k=8)
    interior = (
        (x[:, 0] >= 3) & (x[:, 0] <= 6) & (x[:, 1] >= 3) & (x[:, 1] <= 6)
    )
    assert np.all(scores[interior] >= 0.9)
    assert np.all(scores[interior] <= 1.1)


def test_lof_far_outlier_dominates():
    rng = np.random.default_rng(6)
    x = np.vstack([rng.normal(0, 0.3, size=(19, 2)), [[15.0, 0.0]]])
    scores = lof_scores(x, k=5)
    assert scores[-1] > 2 * np.median(scores)


def test_lof_matches_reference_randomized():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(8, 50))
        k = int(rng.integers(2, min(8, n - 1)))
        x = rng.normal(0, 2, size=(n, 2))
        assert np.allclose(lof_scores(x, k), reference_lof(x, k), atol=1e-9)


def test_lof_duplicate_group_convention():
    # a group of more than k coincident points has infinite local density;
    # within the group the score is 1, and finite-density points that count
    # the group among their neighbors are infinitely outlying relative to it
    x = np.array([[0.0, 0.0]] * 5 + [[3.0, 0.0], [3.1, 0.0], [2.9, 0.0]])
    scores = lof_scores(x, k=3)
    assert not np.any(np.isnan(scores))
    assert np.allclose(scores[:5], 1.0)
    assert np.all(np.isinf(scores[5:]))


def _lof_case(name, small_scenario):
    rng = np.random.default_rng(12)
    if name == "random":
        return rng.normal(0, 2, size=(200, 2))
    if name == "grid":  # every interior point ties at its k-distance
        return np.stack(np.meshgrid(np.arange(12.0), np.arange(10.0)), axis=-1).reshape(-1, 2)
    if name == "duplicated":
        return np.repeat(rng.normal(size=(60, 2)), 3, axis=0)
    if name == "coincident":  # a group larger than every k
        return np.vstack([rng.normal(size=(150, 2)), np.full((25, 2), 0.5)])
    dataset = small_scenario[0]  # quantised kinematic samples: many ties
    return np.round(dataset.samples_at(dataset.start_step + 650), 1)


@pytest.mark.parametrize("k", [1, 3, 8, 20])
@pytest.mark.parametrize("case", ["random", "grid", "duplicated", "coincident", "quantised"])
def test_lof_equals_the_dense_formula_bitwise(small_scenario, monkeypatch, case, k):
    x = _lof_case(case, small_scenario)
    assert lof_scores(x, k).tobytes() == dense_lof(x, k).tobytes()
    got = lof(x, k, step=7)
    monkeypatch.setattr(baselines, "lof_scores", dense_lof)
    want = lof(x, k, step=7)
    for f in dataclasses.fields(BaselineResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def test_lof_holds_no_n_by_n_array():
    n = 1500
    x = np.random.default_rng(13).normal(size=(n, 2))
    tracemalloc.start()
    try:
        lof_scores(x, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4, peak


def test_lof_config_guard():
    with pytest.raises(ConfigError):
        lof_scores(np.zeros((4, 2)), k=4)
    with pytest.raises(ConfigError):
        lof_scores(np.zeros((4, 2)), k=0)


def test_lof_result_likelihood_and_ranking():
    rng = np.random.default_rng(8)
    x = np.vstack([rng.normal(0, 0.3, size=(19, 2)), [[15.0, 0.0]]])
    res = lof(x, k=5, cutoff=1.5)
    assert res.likelihood[-1] == 1.0  # rank-normalized top score
    assert res.ranking[0] == 19
    assert res.high_risk[-1]
    assert set(np.round(np.sort(res.likelihood), 6)) == set(
        np.round(np.arange(1, 21) / 20.0, 6)
    )


# ---------------------------------------------------------------------------
# dynamic-quantile selection
# ---------------------------------------------------------------------------


def reference_edq(series, q):
    n, t = series.shape
    best, best_obj = None, None
    for c in range(n):
        obj = math.fsum(
            q * max(series[j, s] - series[c, s], 0.0)
            + (1 - q) * max(series[c, s] - series[j, s], 0.0)
            for j in range(n)
            for s in range(t)
        )
        if best_obj is None or obj < best_obj:
            best, best_obj = c, obj
    return best


def test_edq_constant_series_median_and_envelope():
    ds = make_dataset(np.array([[1.0] * 6, [2.0] * 6, [3.0] * 6]))
    res_mid = edq_select(ds, [0.5])
    assert res_mid.edq_selection == [(1, 0.5)]
    res_hi = edq_select(ds, [0.99])
    assert res_hi.edq_selection == [(2, 0.99)]


def test_edq_rejects_single_series():
    ds = make_dataset(np.array([[1.0, 2.0]]))
    with pytest.raises(ConfigError):
        edq_select(ds, [0.5])


def test_edq_shift_invariance():
    rng = np.random.default_rng(9)
    series = rng.normal(0, 1, size=(12, 30))
    ds = make_dataset(series)
    shifted = make_dataset(series + 57.3)
    levels = (0.5, 0.7, 0.9)
    assert edq_select(ds, levels).edq_selection == edq_select(shifted, levels).edq_selection


def test_edq_matches_exhaustive_reference():
    rng = np.random.default_rng(10)
    series = rng.normal(0, 1, size=(20, 15)).cumsum(axis=1)
    ds = make_dataset(series)
    for q in (0.5, 0.65, 0.8, 0.95):
        got = edq_select(ds, [q]).edq_selection[0][0]
        assert got == reference_edq(series, q)


def test_edq_objectives_decomposition():
    rng = np.random.default_rng(11)
    series = rng.normal(size=(8, 10))
    pos, neg = edq_objectives(series)
    q = 0.73
    for c in range(8):
        direct = math.fsum(
            q * max(series[j, s] - series[c, s], 0.0)
            + (1 - q) * max(series[c, s] - series[j, s], 0.0)
            for j in range(8)
            for s in range(10)
        )
        assert q * pos[c] + (1 - q) * neg[c] == pytest.approx(direct, rel=1e-12)


def test_edq_prefix_and_ranking():
    rng = np.random.default_rng(12)
    series = rng.normal(size=(10, 20)).cumsum(axis=1)
    ds = make_dataset(series)
    res = edq_select(ds, (0.5, 0.6, 0.7, 0.8, 0.9), end_step=9)
    assert res.step == 9
    assert len(res.ranking) == len(set(res.ranking))
    # ranking starts at the highest level's winner
    top_q_winner = [w for w, q in res.edq_selection if q == 0.9][0]
    assert res.ranking[0] == top_q_winner
    # likelihood carries the best level per selected point
    for w, q in res.edq_selection:
        assert res.likelihood[w] >= q


def test_edq_levels_validation():
    ds = make_dataset(np.random.default_rng(0).normal(size=(4, 5)))
    with pytest.raises(ConfigError):
        edq_select(ds, [1.5])
    with pytest.raises(ConfigError):
        edq_select(ds, [])


# ---------------------------------------------------------------------------
# raw s-LID baseline
# ---------------------------------------------------------------------------


def test_raw_slid_minmax_and_argmax(grid_noise_dataset):
    res = raw_slid_baseline(grid_noise_dataset, 5, LidConfig(s=6))
    assert res.likelihood.min() == 0.0 and res.likelihood.max() == 1.0
    fld = s_lid_all(grid_noise_dataset, 5, LidConfig(s=6))
    assert np.argmax(res.likelihood) == np.argmax(fld.values)
    assert np.array_equal(res.high_risk, res.likelihood >= 0.5)
    assert len(res.ranking) == res.high_risk.sum()


def test_raw_slid_degenerate():
    ds = make_dataset(np.ones((8, 3)), coords=[(i, 0) for i in range(8)])
    with pytest.raises(DegenerateInputError):
        raw_slid_baseline(ds, 1, LidConfig(s=3))


def test_baseline_scores_dump(grid_noise_dataset, tmp_path):
    from stlid import write_baseline_scores_csv

    ds = grid_noise_dataset
    step = 10
    results = [
        kmeans2(ds.displacement[:, ds.column(step)], step=step),
        lof(ds.samples_at(step), k=6, step=step),
        raw_slid_baseline(ds, step, LidConfig(s=6)),
    ]
    out = tmp_path / "methods.csv"
    write_baseline_scores_csv(out, results, ds)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,point_id,method,score,high_risk"
    assert len(lines) == 1 + 3 * ds.num_points
    t, pid, method, score, high = lines[1].split(",")
    assert int(t) == step and method == "kmeans"
    assert 0.0 <= float(score) <= 1.0 and high in ("0", "1")
