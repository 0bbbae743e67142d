import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlid import (
    AlarmDecision,
    DetectionConfig,
    DetectionState,
    StLidField,
    default_epsilon,
    sigmoid,
    st_lid_field,
    update_detection,
)
from stlid.detection import THRESHOLD, zscore
from stlid.errors import ConfigError


def test_sigmoid_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(2.0) == pytest.approx(0.8808, abs=5e-5)
    for x in (1.0, -1.0, 5.0, -5.0):
        assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-15)
    assert sigmoid(3.0) ** 2 == pytest.approx(1.0 / (1.0 + math.exp(-3.0)) ** 2, rel=1e-12)
    assert sigmoid(5.0) * sigmoid(-5.0) == pytest.approx(0.00665, abs=5e-5)


def test_sigmoid_extreme_arguments():
    assert 0.0 < sigmoid(-700.0) < sigmoid(700.0) <= 1.0
    assert not math.isnan(sigmoid(-800.0)) and not math.isnan(sigmoid(800.0))


def two_branch_sigmoid(x):
    """The logistic function as two fancy-indexed branches, each exp only of
    non-positive arguments."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_the_two_branch_formula_bitwise():
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 700.0, -700.0, 800.0, -800.0])
    rng = np.random.default_rng(3)
    for x in (special, rng.normal(scale=30.0, size=1000), rng.normal(size=(7, 5))):
        assert sigmoid(x).tobytes() == two_branch_sigmoid(x).tobytes()
    for x in special:
        got = sigmoid(np.array(x))  # a 0-d input gives a Python float
        assert type(got) is float
        assert np.float64(got).tobytes() == two_branch_sigmoid(x).tobytes()


def test_zscore_basics():
    assert np.array_equal(zscore(np.array([3.0, 3.0, 3.0])), np.zeros(3))
    v = np.array([1.0, 2.0, 3.0, 10.0])
    z = zscore(v)
    assert abs(z.mean()) < 1e-12 and abs(z.std() - 1.0) < 1e-12


def test_zscore_affine_invariance():
    rng = np.random.default_rng(0)
    v = rng.normal(2, 3, size=50)
    assert np.allclose(zscore(4.5 * v + 7.0), zscore(v), atol=1e-9)


def test_st_field_zero_scores_give_quarter():
    fld = st_lid_field(np.full(5, 2.0), np.full(5, 3.0))
    # all-equal families z-score to zero: sigma(0)^2 = 0.25 everywhere
    assert np.allclose(fld.values, 0.25, atol=1e-15)


def test_st_field_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        st_lid_field(np.ones(3), np.ones(4))


def test_st_field_bounds_and_product_cap():
    rng = np.random.default_rng(1)
    s, t = rng.uniform(0.1, 9, 100), rng.uniform(0.1, 9, 100)
    fld = st_lid_field(s, t)
    assert np.all((fld.values > 0) & (fld.values < 1))
    zs, zt = sigmoid(zscore(s)), sigmoid(zscore(t))
    assert np.array_equal(fld.values, zs * zt)  # the one rule, bit for bit
    assert np.all(fld.values <= np.minimum(zs, zt) + 1e-15)


def test_st_field_zscore_affine_invariance():
    rng = np.random.default_rng(2)
    s, t = rng.uniform(1, 5, 40), rng.uniform(0.2, 3, 40)
    a = st_lid_field(s, t).values
    b = st_lid_field(3.0 * s + 1.0, t).values
    assert np.allclose(a, b, atol=1e-9)


def test_default_epsilon_grid():
    coords = np.array([(i % 4, i // 4) for i in range(16)], dtype=float)
    assert default_epsilon(coords) == pytest.approx(2.0, rel=1e-12)


def test_detection_config_validation():
    with pytest.raises(ConfigError):
        DetectionConfig(n=0)
    with pytest.raises(ConfigError):
        DetectionConfig(epsilon=-1.0)
    for bad in (0.0, math.nan, math.inf):  # no distance lies within a NaN ball
        with pytest.raises(ConfigError, match="epsilon"):
            DetectionConfig(epsilon=bad)
    for retired in ("threshold", "normalization"):  # the st-LID rule has no setting
        with pytest.raises(TypeError, match=retired):
            DetectionConfig(**{retired: 0.5})


# ---------------------------------------------------------------------------
# the persistence state machine
# ---------------------------------------------------------------------------

COORDS = np.array([(0.0, 0.0), (0.1, 0.0), (5.0, 5.0), (9.0, 9.0)])


def field(values, step=0, valid=None):
    values = np.asarray(values, dtype=np.float64)
    if valid is None:
        valid = np.ones(len(values), dtype=bool)
    return StLidField(step=step, values=values, valid=valid)


def run_steps(values_per_step, config, coords=COORDS):
    state = DetectionState()
    events = []
    for step, vals in enumerate(values_per_step):
        _, ev = update_detection(state, field(vals, step=step), coords, config)
        if ev is not None:
            events.append(ev)
    return state, events


def test_n1_fires_immediately():
    cfg = DetectionConfig(n=1, epsilon=0.5)
    _, events = run_steps([[0.9, 0.1, 0.1, 0.1]], cfg)
    assert len(events) == 1
    assert events[0].detection_step == 0 and events[0].point_id == 0


def test_fluctuating_between_two_close_points():
    # argmax alternates between two points 0.1 apart; epsilon 0.5, n = 10:
    # the event lands exactly on the 10th qualifying step
    cfg = DetectionConfig(n=10, epsilon=0.5)
    steps = []
    for i in range(10):
        vals = [0.1, 0.1, 0.1, 0.1]
        vals[i % 2] = 0.8  # winner hops 0 -> 1 -> 0 ...
        steps.append(vals)
    _, events = run_steps(steps, cfg)
    assert len(events) == 1
    assert events[0].detection_step == 9


def test_subthreshold_step_resets():
    cfg = DetectionConfig(n=5, epsilon=0.5)
    steps = [[0.9, 0.1, 0.1, 0.1]] * 4 + [[0.4, 0.1, 0.1, 0.1]] + [[0.9, 0.1, 0.1, 0.1]] * 4
    state, events = run_steps(steps, cfg)
    assert events == []
    assert state.hits == 4


def test_far_jump_resets():
    cfg = DetectionConfig(n=3, epsilon=0.5)
    steps = [
        [0.9, 0.1, 0.1, 0.1],
        [0.9, 0.1, 0.1, 0.1],
        [0.1, 0.1, 0.9, 0.1],  # jumps 7+ units away
        [0.1, 0.1, 0.9, 0.1],
        [0.1, 0.1, 0.9, 0.1],
    ]
    _, events = run_steps(steps, cfg)
    assert len(events) == 1
    assert events[0].detection_step == 4 and events[0].point_id == 2


def test_tie_breaks_toward_lowest_id():
    cfg = DetectionConfig(n=1, epsilon=0.5)
    _, ev = update_detection(
        DetectionState(), field([0.7, 0.7, 0.7, 0.2]), COORDS, cfg
    )
    assert ev.point_id == 0
    ids = np.array([9, 4, 7, 1])
    _, ev = update_detection(
        DetectionState(), field([0.7, 0.7, 0.7, 0.2]), COORDS, cfg, point_ids=ids
    )
    assert ev.point_id == 4


def test_unbroken_chain_fires_once():
    cfg = DetectionConfig(n=3, epsilon=0.5)
    _, events = run_steps([[0.9, 0.1, 0.1, 0.1]] * 12, cfg)
    assert len(events) == 1
    assert events[0].detection_step == 2


def test_chain_break_then_refire():
    cfg = DetectionConfig(n=2, epsilon=0.5)
    steps = (
        [[0.9, 0.1, 0.1, 0.1]] * 2       # event at step 1
        + [[0.1, 0.1, 0.9, 0.1]] * 2     # new chain elsewhere, event at step 3
    )
    _, events = run_steps(steps, cfg)
    assert [e.detection_step for e in events] == [1, 3]
    assert [e.point_id for e in events] == [0, 2]


def test_invalid_points_excluded_from_argmax():
    cfg = DetectionConfig(n=1, epsilon=0.5)
    valid = np.array([False, True, True, True])
    _, ev = update_detection(
        DetectionState(), field([0.99, 0.7, 0.2, 0.2], valid=valid), COORDS, cfg
    )
    assert ev.point_id == 1


def test_all_invalid_breaks_chain():
    cfg = DetectionConfig(n=3, epsilon=0.5)
    state = DetectionState()
    for step in range(2):
        update_detection(state, field([0.9, 0.1, 0.1, 0.1], step=step), COORDS, cfg)
    assert state.hits == 2
    _, ev = update_detection(
        state, field([0.9, 0.9, 0.9, 0.9], step=2, valid=np.zeros(4, bool)), COORDS, cfg
    )
    assert ev is None and state.hits == 0 and state.candidate_coord is None


def test_sliding_anchor_tolerates_slow_drift():
    # consecutive hops below epsilon accumulate beyond it; the sliding anchor
    # keeps the chain alive
    coords = np.array([(0.0, 0.0), (0.4, 0.0), (0.8, 0.0), (1.2, 0.0)])
    cfg = DetectionConfig(n=4, epsilon=0.5)
    steps = []
    for i in range(4):
        vals = [0.1] * 4
        vals[i] = 0.8
        steps.append(vals)
    _, events = run_steps(steps, cfg, coords=coords)
    assert len(events) == 1


def test_event_value_at_threshold():
    cfg = DetectionConfig(n=1, epsilon=0.5)
    _, ev = update_detection(DetectionState(), field([0.5, 0.1, 0.1, 0.1]), COORDS, cfg)
    assert ev is not None and ev.value >= THRESHOLD


def test_replay_invariant():
    # any event implies the argmax stayed in the ball at or above threshold
    # for the n steps ending at the event, replayable from the decisions
    rng = np.random.default_rng(3)
    coords = rng.uniform(0, 10, size=(30, 2))
    cfg = DetectionConfig(n=4, epsilon=2.0)
    state = DetectionState()
    events = []
    records = {}
    for step in range(300):
        vals = rng.uniform(0, 0.45, size=30)
        if step % 17 < 8:
            vals[7] = 0.6 + 0.1 * rng.uniform()  # recurring hot spot
        decision, ev = update_detection(state, field(vals, step=step), coords, cfg)
        records[decision.step] = decision
        if ev:
            events.append(ev)
    assert events, "the recurring hot spot must fire at least once"
    for ev in events:
        window = [records[s] for s in range(ev.detection_step - cfg.n + 1, ev.detection_step + 1)]
        assert all(w[3] >= THRESHOLD for w in window)
        for a, b in zip(window, window[1:]):
            gap = math.hypot(b[2][0] - a[2][0], b[2][1] - a[2][1])
            assert gap < cfg.epsilon


def test_hits_capped_at_n():
    cfg = DetectionConfig(n=3, epsilon=0.5)
    state, _ = run_steps([[0.9, 0.1, 0.1, 0.1]] * 10, cfg)
    assert state.hits == 3


def test_update_requires_resolved_epsilon():
    with pytest.raises(ConfigError):
        update_detection(DetectionState(), field([0.9, 0.1, 0.1, 0.1]), COORDS, DetectionConfig())


def test_update_advances_the_given_state_in_place():
    cfg = DetectionConfig(n=2, epsilon=0.5)
    state = DetectionState()
    steps = [
        # field, the returned decision, the tracker fields after the update
        (field([0.9, 0.1, 0.1, 0.1], step=0),
         (0, 0, (0.0, 0.0), 0.9, 1), ((0.0, 0.0), 1, False)),
        (field([0.9, 0.1, 0.1, 0.1], step=1),  # fires
         (1, 0, (0.0, 0.0), 0.9, 2), ((0.0, 0.0), 2, True)),
        (field([0.9, 0.9, 0.9, 0.9], step=2, valid=np.zeros(4, bool)),  # nothing usable
         (2, None, None, None, 0), (None, 0, False)),
        (field([0.1, 0.1, 0.2, 0.1], step=3),  # below the threshold
         (3, 2, (5.0, 5.0), 0.2, 0), (None, 0, False)),
    ]
    for fld, decision, tracker in steps:
        back, _ = update_detection(state, fld, COORDS, cfg)
        assert isinstance(back, AlarmDecision) and back == decision
        assert (state.candidate_coord, state.hits, state.fired) == tracker
        assert set(vars(state)) == {"candidate_coord", "hits", "fired"}


@st.composite
def successive_failures(draw):
    """Hot windows of at least n steps, each in its own area, with optional
    quiet steps between them. Areas lie 10 apart on a line; each holds a few
    points within 0.3 of one another, over which the hot spot may hop."""
    n = draw(st.integers(1, 5))
    per_area = draw(st.integers(1, 3))
    areas = draw(st.permutations(range(5)))[: draw(st.integers(2, 5))]
    windows = [
        (
            area,
            draw(st.integers(0, 3)),  # quiet steps before the window
            draw(st.lists(st.integers(0, per_area - 1), min_size=n, max_size=n + 6)),
        )
        for area in areas
    ]
    return n, per_area, windows, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(case=successive_failures())
def test_successive_failures_in_distinct_areas_fire_once_each(case):
    n, per_area, windows, seed = case
    cfg = DetectionConfig(n=n, epsilon=1.0)
    coords = np.array([(10.0 * a + 0.15 * j, 0.1 * j) for a in range(5) for j in range(per_area)])
    rng = np.random.default_rng(seed)
    state = DetectionState()
    decisions, events, expected = {}, [], []
    step = 0
    for area, quiet, hot_points in windows:
        for k in [None] * quiet + list(range(len(hot_points))):
            vals = rng.uniform(0.0, 0.45, size=len(coords))
            if k is not None:
                hot = area * per_area + hot_points[k]
                vals[hot] = rng.uniform(THRESHOLD, 1.0)
                if k == n - 1:
                    expected.append((step, hot))
            decision, ev = update_detection(state, field(vals, step=step), coords, cfg)
            decisions[step] = decision
            if ev is not None:
                events.append(ev)
            step += 1

    assert [(ev.detection_step, ev.point_id) for ev in events] == expected
    for ev, (_, hot) in zip(events, expected):
        assert ev.location == tuple(coords[hot])
        window = [decisions[s] for s in range(ev.detection_step - n + 1, ev.detection_step + 1)]
        assert all(d.value >= THRESHOLD for d in window)
        for a, b in zip(window, window[1:]):
            gap = math.hypot(b.location[0] - a.location[0], b.location[1] - a.location[1])
            assert gap < cfg.epsilon
