import math

import numpy as np
import pytest

from stlid import (
    FusionConfig,
    GammaParams,
    LidConfig,
    fuse_all,
    fused_slid,
    gaussian_weights,
    mle_lid,
    observation_params,
    prior_from_neighbors,
    s_lid_all,
)
from stlid.errors import ConfigError
from stlid.fusion import fuse_rows

from conftest import make_dataset


def test_weights_equal_distances():
    w = gaussian_weights((0.0, 0.0), [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)], 1.0)
    assert np.allclose(w, 1.0 / 3.0, atol=1e-15)


def test_weights_hand_value():
    # distances d and 2d with bandwidth d: exp(-1/2) : exp(-2), normalized
    w = gaussian_weights((0.0, 0.0), [(1.0, 0.0), (2.0, 0.0)], 1.0)
    e1, e2 = math.exp(-0.5), math.exp(-2.0)
    assert w[0] == pytest.approx(e1 / (e1 + e2), rel=1e-12)
    assert w[1] == pytest.approx(e2 / (e1 + e2), rel=1e-12)
    assert w[0] == pytest.approx(0.8176, abs=5e-5)


def test_weights_single_neighbor():
    assert gaussian_weights((0.0, 0.0), [(3.0, 4.0)], 2.0).tolist() == [1.0]


@pytest.mark.parametrize("bandwidth", [math.nan, math.inf, -1.0, 0.0])
def test_weights_reject_a_bandwidth_outside_its_range(bandwidth):
    # a NaN bandwidth used to give NaN weights
    with pytest.raises(ConfigError, match="bandwidth"):
        gaussian_weights((0.0, 0.0), [(3.0, 4.0), (1.0, 0.0)], bandwidth)


def test_weights_properties_randomized():
    rng = np.random.default_rng(0)
    for _ in range(50):
        nb = rng.normal(0, 5, size=(rng.integers(1, 12), 2))
        w = gaussian_weights((0.0, 0.0), nb, float(rng.uniform(0.1, 5)))
        assert w.min() > 0
        assert abs(w.sum() - 1.0) < 1e-12
        d = np.hypot(nb[:, 0], nb[:, 1])
        order = np.argsort(d)
        assert np.all(np.diff(w[order]) <= 1e-15)  # non-increasing with distance


def test_weights_order_invariance():
    nb = np.array([(1.0, 0.0), (0.0, 2.0), (3.0, 0.0)])
    w = gaussian_weights((0.0, 0.0), nb, 1.5)
    w_rev = gaussian_weights((0.0, 0.0), nb[::-1], 1.5)
    assert np.array_equal(w, w_rev[::-1])


def test_weights_extreme_distances_do_not_underflow():
    w = gaussian_weights((0.0, 0.0), [(1e4, 0.0), (2e4, 0.0)], 1.0)
    assert abs(w.sum() - 1.0) < 1e-12 and w[0] > 0.99


def test_prior_hand_values():
    p = prior_from_neighbors([1.0, 3.0], [0.5, 0.5])
    assert p.alpha == pytest.approx(4.0, rel=1e-12)
    assert p.beta == pytest.approx(2.0, rel=1e-12)


def test_prior_identical_neighbors_floored():
    p = prior_from_neighbors([2.0, 2.0, 2.0], [0.2, 0.3, 0.5], variance_floor=1e-6)
    assert p.alpha == pytest.approx(4e6, rel=1e-9)
    assert p.beta == pytest.approx(2e6, rel=1e-9)
    assert p.mean == pytest.approx(2.0, rel=1e-12)


def test_prior_moment_identities_randomized():
    rng = np.random.default_rng(1)
    for _ in range(200):
        k = rng.integers(1, 15)
        s = rng.uniform(0.2, 8.0, size=k)
        w = rng.uniform(0.01, 1.0, size=k)
        w /= w.sum()
        p = prior_from_neighbors(s, w)
        mu = float(np.dot(w, s))
        var = max(float(np.dot(w, (s - mu) ** 2)), 1e-6)
        assert abs(p.alpha / p.beta - mu) <= 1e-12 * max(1.0, mu)
        assert abs(p.alpha / p.beta**2 - var) <= 1e-12 * max(1.0, var)


def test_prior_rejects_non_positive():
    with pytest.raises(ValueError):
        prior_from_neighbors([1.0, 0.0], [0.5, 0.5])


def test_observation_hand_values():
    o = observation_params([1.0, 2.0])
    assert o.alpha == 2.0
    assert o.beta == pytest.approx(math.log(2.0), rel=1e-12)


def test_observation_equal_distances():
    o = observation_params([3.0, 3.0, 3.0])
    assert o.alpha == 3.0 and o.beta == 0.0


def test_observation_single_neighbor():
    o = observation_params([5.0])
    assert o.alpha == 1.0 and o.beta == 0.0


def test_observation_rejects_zero_or_unsorted():
    with pytest.raises(ValueError):
        observation_params([0.0, 1.0])
    with pytest.raises(ValueError):
        observation_params([2.0, 1.0])


def test_fused_hand_values():
    prior = GammaParams(4.0, 2.0)
    obs = observation_params([1.0, 2.0])
    got = fused_slid(prior, obs)
    assert got == pytest.approx(6.0 / (2.0 + math.log(2.0)), rel=1e-12)
    assert got == pytest.approx(2.2279, abs=5e-5)
    assert fused_slid(prior, GammaParams(1.0, 0.0)) == 2.5


def test_fused_between_sources():
    rng = np.random.default_rng(2)
    for _ in range(200):
        prior = GammaParams(float(rng.uniform(0.5, 20)), float(rng.uniform(0.5, 10)))
        obs = GammaParams(float(rng.uniform(0.5, 20)), float(rng.uniform(0.01, 10)))
        f = fused_slid(prior, obs)
        lo = min(prior.mean, obs.alpha / obs.beta)
        hi = max(prior.mean, obs.alpha / obs.beta)
        if lo != hi:
            assert lo < f < hi


def test_fused_large_window_tracks_raw_estimate():
    # with a 500-neighbor observation the posterior mean lands within 5% of
    # the raw estimator on the same distances
    rng = np.random.default_rng(3)
    pts = np.sort(rng.uniform(0, 1, size=5000))
    query = pts[2500]
    dist = np.sort(np.abs(pts - query))[1:501]
    obs = observation_params(dist)
    raw = mle_lid(dist, LidConfig(s=500))
    fused = fused_slid(GammaParams(4.0, 2.0), obs)
    assert abs(fused - raw) / raw < 0.05
    # identity: the observation is exactly the estimator's evidence
    assert raw == pytest.approx(obs.alpha / obs.beta, rel=1e-12)


def test_fuse_all_bootstrap_equals_raw():
    rng = np.random.default_rng(4)
    ds = make_dataset(rng.normal(size=(30, 5)), coords=rng.normal(size=(30, 2)))
    raw = s_lid_all(ds, 1, LidConfig(s=5))
    fused = fuse_all(ds, np.ones(30), 1, FusionConfig(k=4), LidConfig(s=5))
    assert np.array_equal(fused.values, raw.values)
    assert np.array_equal(fused.valid, raw.valid)


def test_fuse_all_k_too_large():
    rng = np.random.default_rng(5)
    ds = make_dataset(rng.normal(size=(6, 4)), coords=rng.normal(size=(6, 2)))
    with pytest.raises(ConfigError):
        fuse_all(ds, np.ones(6), 2, FusionConfig(k=6), LidConfig(s=3))


def brute_fuse(ds, prev, step, k, s, floor=1e-6):
    """Plain-loop reference for fuse_all with median bandwidth weights."""
    n = ds.num_points
    samples = ds.samples_at(step)
    out = np.empty(n)
    for i in range(n):
        pd = np.hypot(*(ds.coords - ds.coords[i]).T)
        order = np.argsort(pd, kind="stable")
        nbr = [j for j in order if j != i][:k]
        dist = pd[nbr]
        bw = max(np.median(dist), 1e-12)
        w = np.exp(-(dist**2) / (2 * bw * bw))
        w /= w.sum()
        mu = float(np.dot(w, prev[nbr]))
        var = max(float(np.dot(w, (prev[nbr] - mu) ** 2)), floor)
        ap, bp = mu * mu / var, mu / var
        kd = np.sqrt(((samples - samples[i]) ** 2).sum(axis=1))
        kd = np.sort(np.delete(kd, i))[:s]
        kd = kd[kd > 0]
        bo = math.fsum(math.log(kd.max() / x) for x in kd)
        out[i] = (ap + len(kd)) / (bp + bo)
    return out


def test_fuse_all_matches_brute_force():
    rng = np.random.default_rng(6)
    ds = make_dataset(rng.normal(size=(20, 4)), coords=rng.normal(0, 3, size=(20, 2)))
    prev = rng.uniform(0.5, 4.0, size=20)
    got = fuse_all(ds, prev, 2, FusionConfig(k=5), LidConfig(s=6))
    want = brute_fuse(ds, prev, 2, k=5, s=6)
    assert np.allclose(got.values, want, rtol=1e-9)


def test_fuse_all_constant_prior_convexity():
    # every fused value lies between the shared prior mean and that point's
    # own observation estimate
    rng = np.random.default_rng(7)
    ds = make_dataset(rng.normal(size=(20, 4)), coords=rng.normal(0, 3, size=(20, 2)))
    c = 2.5
    fused = fuse_all(ds, np.full(20, c), 2, FusionConfig(k=5), LidConfig(s=6))
    samples = ds.samples_at(2)
    for i in range(20):
        kd = np.sqrt(((samples - samples[i]) ** 2).sum(axis=1))
        kd = np.sort(np.delete(kd, i))[:6]
        obs_est = mle_lid(kd, LidConfig(s=6))
        lo, hi = min(c, obs_est), max(c, obs_est)
        assert lo - 1e-9 <= fused.values[i] <= hi + 1e-9


def test_fuse_all_smooths_prior_spike():
    # one noisy spike in the previous field, calm observations now: the fused
    # field is flatter than the spiked input
    rng = np.random.default_rng(8)
    n = 36
    coords = [(i % 6, i // 6) for i in range(n)]
    ds = make_dataset(rng.normal(0, 0.3, size=(n, 4)), coords=coords)
    prev = np.full(n, 2.0)
    prev[14] = 40.0  # the spike
    fused = fuse_all(ds, prev, 2, FusionConfig(k=6), LidConfig(s=5))
    spike_ratio_before = prev.max() / np.median(prev)
    spike_ratio_after = fused.values.max() / np.median(fused.values)
    assert spike_ratio_after < spike_ratio_before


def test_fuse_all_permutation_equivariance():
    rng = np.random.default_rng(9)
    disp = rng.normal(size=(25, 5))
    coords = rng.normal(0, 2, size=(25, 2))
    prev = rng.uniform(1, 3, size=25)
    ds = make_dataset(disp, coords=coords)
    fused = fuse_all(ds, prev, 3, FusionConfig(k=4), LidConfig(s=5))
    perm = rng.permutation(25)
    ds2 = make_dataset(disp[perm], coords=coords[perm])
    fused2 = fuse_all(ds2, prev[perm], 3, FusionConfig(k=4), LidConfig(s=5))
    assert np.allclose(fused2.values, fused.values[perm], rtol=1e-12)


def test_fuse_all_validates_prev():
    rng = np.random.default_rng(10)
    ds = make_dataset(rng.normal(size=(10, 4)), coords=rng.normal(size=(10, 2)))
    with pytest.raises(ConfigError):
        fuse_all(ds, np.ones(3), 2, FusionConfig(k=3), LidConfig(s=3))
    with pytest.raises(ValueError):
        fuse_all(ds, np.zeros(10), 2, FusionConfig(k=3), LidConfig(s=3))


def test_fuse_rows_chunk_stability():
    rng = np.random.default_rng(11)
    prev = rng.uniform(0.5, 5, size=(40, 6))
    w = rng.uniform(0.1, 1, size=(40, 6))
    w /= w.sum(axis=1, keepdims=True)
    obs = np.sort(rng.uniform(0.1, 2, size=(40, 8)), axis=1)
    whole, _ = fuse_rows(prev, w, obs, 1e-6)
    parts = np.concatenate(
        [fuse_rows(prev[a:b], w[a:b], obs[a:b], 1e-6)[0] for a, b in ((0, 13), (13, 29), (29, 40))]
    )
    assert np.array_equal(whole, parts)


def test_fuse_rows_leaves_its_distances_unchanged():
    prev = np.array([[1.0, 2.0], [3.0, 1.5]])
    w = np.full((2, 2), 0.5)
    obs = np.array([[0.0, 0.5, 2.0], [0.0, 0.0, 0.0]])
    before = obs.copy()
    fuse_rows(prev, w, obs, 1e-6)
    assert obs.tobytes() == before.tobytes()


def test_fusion_config_validation():
    with pytest.raises(ConfigError):
        FusionConfig(k=0)
    with pytest.raises(ConfigError):
        FusionConfig(bandwidth=-1.0)
    with pytest.raises(ConfigError):
        FusionConfig(bandwidth="adaptive")
    # NaN passes a plain "<= 0" check
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="bandwidth"):
            FusionConfig(bandwidth=bad)
        with pytest.raises(ConfigError, match="variance_floor"):
            FusionConfig(variance_floor=bad)
    FusionConfig(bandwidth=2.0)


def test_gamma_params_invariants():
    with pytest.raises(ValueError):
        GammaParams(0.0, 1.0)
    with pytest.raises(ValueError):
        GammaParams(1.0, -0.5)
    with pytest.raises(ValueError):
        GammaParams(np.inf, 1.0)
