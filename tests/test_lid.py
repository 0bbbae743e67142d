import math

import numpy as np
import pytest
import scipy.spatial

from stlid import LidConfig, kinematic_distance, mle_lid, s_lid_all, t_lid, t_lid_field
from stlid.errors import (
    ConfigError,
    DegenerateNeighborhoodError,
    InsufficientNeighborsError,
)
from stlid import fusion, lid
from stlid.fusion import fuse_rows
from stlid.lid import knn, lid_rows, t_lid_rows

from conftest import make_dataset


def reference_lid(sorted_distances):
    """Independent plain-Python estimator: count / sum(ln(d_max / d_i))."""
    d = [float(x) for x in sorted_distances if x > 0]
    dmax = max(d)
    total = math.fsum(math.log(dmax / x) for x in d)
    return len(d) / total


# ---------------------------------------------------------------------------
# kinematic distance
# ---------------------------------------------------------------------------


def test_kinematic_distance_345():
    assert kinematic_distance((3.0, 1.0), (0.0, -3.0)) == 5.0


def test_kinematic_distance_identity_and_axis():
    assert kinematic_distance((2.0, 7.0), (2.0, 7.0)) == 0.0
    assert kinematic_distance((7.0, 0.0), (7.0, 2.0)) == 2.0


def test_kinematic_distance_rejects_non_finite():
    with pytest.raises(ValueError):
        kinematic_distance((np.nan, 0.0), (0.0, 0.0))


# ---------------------------------------------------------------------------
# the scalar estimator
# ---------------------------------------------------------------------------


def test_mle_two_neighbors_hand_value():
    assert mle_lid([1.0, 2.0]) == pytest.approx(2.0 / math.log(2.0), rel=1e-12)


def test_mle_all_equal_is_degenerate():
    with pytest.raises(DegenerateNeighborhoodError):
        mle_lid([1.0, 1.0, 1.0])


def test_mle_drop_policy_removes_zeros():
    v = mle_lid([0.0, 1.0, 2.0], LidConfig(s=2, zero_distance_policy="drop"))
    assert v == pytest.approx(2.0 / math.log(2.0), rel=1e-12)


def test_mle_floor_policy_keeps_zeros():
    cfg = LidConfig(s=2, zero_distance_policy="floor", epsilon_floor=0.5)
    v = mle_lid([0.0, 1.0, 2.0], cfg)
    assert v == pytest.approx(reference_lid([0.5, 1.0, 2.0]), rel=1e-12)


def test_mle_insufficient_after_drop():
    with pytest.raises(InsufficientNeighborsError):
        mle_lid([0.0, 0.0, 1.0])


def test_mle_requires_sorted():
    with pytest.raises(ValueError, match="sorted"):
        mle_lid([2.0, 1.0])


def test_mle_scale_covariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = np.sort(rng.uniform(0.1, 5.0, size=rng.integers(2, 30)))
        base = mle_lid(d)
        for c in (1e-6, 0.5, 3.0, 1e8):
            assert mle_lid(np.sort(c * d)) == pytest.approx(base, rel=1e-9)


def test_mle_matches_reference_randomized():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = np.sort(rng.uniform(0.01, 10.0, size=rng.integers(2, 50)))
        assert mle_lid(d) == pytest.approx(reference_lid(d), rel=1e-12)


def test_uniform_segment_recovery():
    # 5000 points uniform on a line: for an interior query the estimate is
    # close to the true dimension 1, and matches the reference implementation
    rng = np.random.default_rng(7)
    pts = np.sort(rng.uniform(0.0, 1.0, size=5000))
    query = pts[2500]
    dist = np.sort(np.abs(pts - query))[1:101]  # 100 nearest others
    est = mle_lid(dist, LidConfig(s=100))
    assert est == pytest.approx(reference_lid(dist), rel=1e-12)
    assert 0.8 <= est <= 1.25


def test_ball_dimension_recovery_medians():
    # interior medians within +-30% of the true dimension for d = 1, 2, 3
    rng = np.random.default_rng(42)
    n, s = 2000, 100
    for d in (1, 2, 3):
        u = rng.standard_normal((n, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        pts = u * rng.uniform(0, 1, size=(n, 1)) ** (1.0 / d)
        interior = np.linalg.norm(pts, axis=1) < 0.6
        ests = []
        for i in np.flatnonzero(interior)[:300]:
            dist = np.sort(np.linalg.norm(pts - pts[i], axis=1))[1 : s + 1]
            ests.append(mle_lid(dist, LidConfig(s=s)))
        med = float(np.median(ests))
        assert 0.7 * d <= med <= 1.3 * d, f"d={d}: median {med}"


# ---------------------------------------------------------------------------
# vectorized rows
# ---------------------------------------------------------------------------


def test_lid_rows_chunk_stability():
    rng = np.random.default_rng(5)
    m = rng.uniform(0.1, 4.0, size=(64, 17))
    cfg = LidConfig(s=17)
    whole_v, whole_ok = lid_rows(m, cfg)
    for split in (1, 3, 7, 64):
        parts = np.array_split(np.arange(64), split)
        got = np.concatenate([lid_rows(m[p], cfg)[0] for p in parts])
        assert np.array_equal(
            np.nan_to_num(got, nan=-1), np.nan_to_num(whole_v, nan=-1)
        )


def test_lid_rows_matches_scalar():
    rng = np.random.default_rng(6)
    m = np.sort(rng.uniform(0.1, 4.0, size=(20, 9)), axis=1)
    values, ok = lid_rows(m, LidConfig(s=9))
    assert ok.all()
    for row, v in zip(m, values):
        assert v == pytest.approx(mle_lid(row, LidConfig(s=9)), rel=1e-12)


def test_lid_rows_leaves_its_argument_unchanged():
    d = np.array([[0.0, 0.5, 2.0], [0.0, 0.0, 0.0], [1.0, 3.0, 0.25]])
    before = d.copy()
    for policy in ("drop", "floor"):
        lid_rows(d, LidConfig(s=3, zero_distance_policy=policy))
        assert d.tobytes() == before.tobytes(), policy


def test_lid_rows_overflowed_distances_are_invalid_without_warning():
    d = np.array([[1.0, np.inf, np.inf], [np.inf, np.inf, np.inf], [0.5, 1.0, 2.0]])
    values, valid = lid_rows(d, LidConfig(s=3))  # RuntimeWarnings are errors in tier-1
    assert valid.tolist() == [False, False, True]
    assert np.isnan(values[:2]).all()


# ---------------------------------------------------------------------------
# the streamed t-LID kernel
# ---------------------------------------------------------------------------


def masked_t_lid_rows(history_block, queries, config):
    """The whole-block t-LID formula with the masked log-sum written out,
    independent of the tiled in-place kernel."""
    d = np.abs(np.ascontiguousarray(history_block, dtype=np.float64) - queries[:, None])
    if config.zero_distance_policy == "floor":
        d = np.maximum(d, config.epsilon_floor)
    pos = d > 0.0
    count = pos.sum(axis=1)
    dmax = d.max(axis=1)
    logs = np.log(d, out=np.zeros_like(d), where=pos)
    logsum = count * np.log(np.where(dmax > 0, dmax, 1.0)) - logs.sum(axis=1)
    valid = (count >= 2) & (logsum > 0.0)
    values = np.full(d.shape[0], np.nan)
    np.divide(count, logsum, out=values, where=valid)
    return values, valid


TILE = 24  # cells per tile in the tests below, so every call spans many tiles


@pytest.mark.parametrize("policy", ["drop", "floor"])
@pytest.mark.parametrize("h", [2, 3, 7, TILE - 1, TILE, TILE + 1, 3 * TILE])
def test_t_lid_rows_tiles_match_the_whole_block_formula(monkeypatch, policy, h):
    monkeypatch.setattr(lid, "_TILE_CELLS", TILE)
    per_tile = max(1, TILE // h)
    cfg = LidConfig(zero_distance_policy=policy)
    rng = np.random.default_rng(h)
    for m in (1, per_tile - 1, per_tile, per_tile + 1, 5 * per_tile + 1):
        if m < 1:
            continue
        # displacements: a column slice of a wider matrix, with repeated velocities
        wide = np.round(rng.normal(size=(m, h + 5)), 1)
        block = wide[:, : h + 1]  # h + 1 displacements give h past velocities
        queries = wide[:, h + 2] - wide[:, h + 1]
        k = h // 2 + 2
        wide[::3, :k] = 0.5 * np.arange(k)  # velocities exactly equal to ...
        queries[::3] = 0.5  # ... the query: ties
        wide[1::4] = 7.25  # constant displacement: all-zero velocities
        queries[1::4] = 0.0
        assert not block.flags.c_contiguous or m == 1
        before = wide.copy()
        values, valid = t_lid_rows(block, queries, cfg)
        want_values, want_valid = masked_t_lid_rows(np.diff(block, axis=1), queries, cfg)
        assert values.tobytes() == want_values.tobytes(), (m, h)
        assert valid.tobytes() == want_valid.tobytes(), (m, h)
        assert wide.tobytes() == before.tobytes()
    assert not valid[1::4].any()


def masked_log_sums(d):
    """``_log_sums`` written out with a masked log and ``count_nonzero`` over
    every row."""
    count = np.count_nonzero(d, axis=1)
    dmax = d.max(axis=1)
    logs = np.log(d, out=np.zeros_like(d), where=d != 0.0).sum(axis=1)
    with np.errstate(invalid="ignore"):
        return count, count * np.log(np.where(dmax > 0, dmax, 1.0)) - logs


def test_log_sums_matches_the_masked_count_nonzero_formula(monkeypatch):
    rng = np.random.default_rng(12)
    d = rng.uniform(0.1, 4.0, size=(9, 6))  # rows 0 and 8 stay all-positive
    d[1, 3] = 0.0  # one zero
    d[2, [0, 2, 5]] = 0.0  # many zeros
    d[3] = 0.0  # all zero
    d[4, 1] = np.nan
    d[5, 4] = np.inf
    d[6, [0, 4]] = [0.0, np.inf]
    d[7, [1, 2]] = [np.nan, 0.0]
    count, logsum = lid._log_sums(d.copy())
    want_count, want_logsum = masked_log_sums(d.copy())
    assert count.tolist() == want_count.tolist() == [6, 5, 3, 0, 6, 6, 5, 5, 6]
    assert logsum.tobytes() == want_logsum.tobytes()

    prior = rng.uniform(0.5, 3.0, size=(9, 4))
    weights = np.full((9, 4), 0.25)
    got = [lid_rows(d, LidConfig(s=6, zero_distance_policy=p)) for p in ("drop", "floor")]
    got.append(fuse_rows(prior, weights, d, 1e-6))
    monkeypatch.setattr(lid, "_log_sums", masked_log_sums)
    monkeypatch.setattr(fusion, "_log_sums", masked_log_sums)
    want = [lid_rows(d, LidConfig(s=6, zero_distance_policy=p)) for p in ("drop", "floor")]
    want.append(fuse_rows(prior, weights, d, 1e-6))
    for (values, valid), (want_values, want_valid) in zip(got, want):
        assert values.tobytes() == want_values.tobytes()
        assert valid.tobytes() == want_valid.tobytes()
    assert got[0][1].tolist() == [True, True, True, False, False, False, False, False, True]


# ---------------------------------------------------------------------------
# per-step field
# ---------------------------------------------------------------------------


def brute_slid(samples, s):
    """Quadratic reference for the per-point field."""
    n = len(samples)
    out = []
    for i in range(n):
        d = np.sqrt(((samples - samples[i]) ** 2).sum(axis=1))
        d = np.sort(np.delete(d, i))[:s]
        d = d[d > 0]
        if len(d) < 2 or d.max() == d.min():
            out.append(None)
        else:
            out.append(reference_lid(d))
    return out


def test_filled_field_sets_its_invalid_entries_to_the_largest_valid_value():
    values = np.array([1.0, np.nan, 3.0, np.inf, 2.0])
    valid = np.array([True, False, True, False, True])
    fld = lid.LidField.filled(7, values, valid)
    assert fld.values is values  # filled in place
    assert fld.step == 7 and fld.valid is valid
    assert fld.values.tolist() == [1.0, 3.0, 3.0, 3.0, 2.0]
    none = lid.LidField.filled(7, np.array([np.nan, 5.0]), np.zeros(2, dtype=bool))
    assert none.values.tolist() == [1.0, 1.0]


def test_s_lid_all_identical_points_all_degenerate():
    ds = make_dataset(np.ones((6, 3)), coords=[(i, i) for i in range(6)])
    fld = s_lid_all(ds, 1, LidConfig(s=3))
    assert not fld.valid.any()
    assert np.all(fld.values == 1.0)  # fallback sentinel


def test_s_lid_outlier_exceeds_cluster_median():
    # 9 clustered samples plus one displaced far away, s = 2
    rng = np.random.default_rng(2)
    base = rng.normal(0, 0.05, size=(10, 2))
    base[9] += 30.0
    disp = np.zeros((10, 2))
    disp[:, 0] = base[:, 0]
    disp[:, 1] = base[:, 0] + base[:, 1]  # velocity = second column of base
    ds = make_dataset(disp, coords=[(i, 0) for i in range(10)])
    fld = s_lid_all(ds, 1, LidConfig(s=2))
    ref = brute_slid(ds.samples_at(1), 2)
    for got, want in zip(fld.values[fld.valid], [r for r in ref if r is not None]):
        assert got == pytest.approx(want, rel=1e-9)
    assert fld.values[9] > np.median(fld.values[:9])


def test_s_lid_velocity_motivation():
    # same displacement deviation, but only B deviates in velocity; the bulk
    # spreads in displacement and is tight in velocity, so B is the stronger
    # kinematic outlier
    rng = np.random.default_rng(3)
    n = 40
    x = np.zeros((n, 2))
    x[:, 0] = rng.uniform(0, 30, size=n)  # displacement spread
    x[:, 1] = rng.normal(0, 0.05, size=n)  # velocity tight
    x[38] = (35.0, 0.0)  # A: displaced, bulk-like velocity
    x[39] = (35.0, 4.0)  # B: equally displaced, deviant velocity
    disp = np.zeros((n, 2))
    disp[:, 1] = x[:, 0]
    disp[:, 0] = x[:, 0] - x[:, 1]
    ds = make_dataset(disp, coords=[(i, 0) for i in range(n)])
    fld = s_lid_all(ds, 1, LidConfig(s=5))
    ref = brute_slid(x, 5)
    assert fld.values[38] == pytest.approx(ref[38], rel=1e-9)
    assert fld.values[39] == pytest.approx(ref[39], rel=1e-9)
    assert fld.values[39] > fld.values[38]


def test_s_lid_permutation_equivariance():
    rng = np.random.default_rng(4)
    disp = rng.normal(size=(30, 4))
    coords = rng.normal(size=(30, 2))
    ds = make_dataset(disp, coords=coords)
    fld = s_lid_all(ds, 2, LidConfig(s=6))
    perm = rng.permutation(30)
    ds2 = make_dataset(disp[perm], coords=coords[perm])
    fld2 = s_lid_all(ds2, 2, LidConfig(s=6))
    assert np.allclose(fld2.values, fld.values[perm], rtol=1e-12)
    assert np.array_equal(fld2.valid, fld.valid[perm])


def test_s_lid_config_errors():
    ds = make_dataset(np.random.default_rng(0).normal(size=(5, 3)))
    with pytest.raises(ConfigError):
        s_lid_all(ds, 1, LidConfig(s=5))
    with pytest.raises(ConfigError):
        LidConfig(s=1).validate()
    for bad in (0.0, -1e-12, math.nan, math.inf):
        with pytest.raises(ConfigError, match="epsilon_floor"):
            LidConfig(epsilon_floor=bad).validate()


# ---------------------------------------------------------------------------
# temporal estimator
# ---------------------------------------------------------------------------


def test_t_lid_jump_vs_ramp():
    rng = np.random.default_rng(9)
    jitter = rng.normal(0, 1e-4, size=19)
    jump = np.concatenate([jitter, [5.0]])  # near-constant then a leap
    ramp = np.arange(20, dtype=float)  # smooth growth
    v_jump = t_lid(jump)
    v_ramp = t_lid(ramp)
    assert math.isfinite(v_jump)
    assert v_jump > v_ramp
    # brute-force agreement
    d = np.sort(np.abs(jump[-1] - jump[:-1]))
    assert v_jump == pytest.approx(reference_lid(d), rel=1e-9)


def test_t_lid_constant_history_insufficient():
    with pytest.raises(InsufficientNeighborsError):
        t_lid([2.0, 2.0, 2.0, 2.0])


def test_t_lid_short_history_errors():
    with pytest.raises(InsufficientNeighborsError):
        t_lid([1.0, 2.0])


def test_t_lid_monotone_in_query_isolation():
    rng = np.random.default_rng(10)
    for _ in range(20):
        hist = np.unique(rng.normal(0, 1, size=30))
        top = hist.max()
        values = [
            t_lid(np.concatenate([hist, [top + gap]]))
            for gap in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_t_lid_field_matches_scalar():
    rng = np.random.default_rng(11)
    ds = make_dataset(rng.normal(size=(7, 12)))
    fld = t_lid_field(ds, 8)
    vel = np.diff(ds.displacement, axis=1)
    for p in range(7):
        want = t_lid(vel[p, :8])
        assert fld.values[p] == pytest.approx(want, rel=1e-12)


def test_t_lid_field_needs_three_velocities():
    ds = make_dataset(np.random.default_rng(1).normal(size=(4, 8)))
    with pytest.raises(ConfigError):
        t_lid_field(ds, 2)
    assert t_lid_field(ds, 3).values.shape == (4,)


# ---------------------------------------------------------------------------
# the kNN kernel
# ---------------------------------------------------------------------------


def test_knn_matches_brute_force():
    # untied random points: every sorted neighbor list is unique
    pts = np.random.default_rng(5).uniform(0.0, 10.0, size=(40, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    k = 6
    idx_ref = np.argsort(d, axis=1)[:, :k]
    dist_ref = np.take_along_axis(d, idx_ref, axis=1)

    dist, idx = knn(pts, k)
    assert np.array_equal(idx, idx_ref)
    np.testing.assert_allclose(dist, dist_ref, rtol=1e-12, atol=0.0)

    rows = slice(7, 23)
    dist, idx = knn(pts, k, rows, scipy.spatial.cKDTree(pts))
    assert np.array_equal(idx, idx_ref[rows])
    np.testing.assert_allclose(dist, dist_ref[rows], rtol=1e-12, atol=0.0)

    with pytest.raises(ConfigError, match="more than k"):
        knn(pts[:k], k)
