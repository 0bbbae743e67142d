"""Property tests of the pipeline on small random datasets with ties."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stlid import DetectionConfig, FusionConfig, LidConfig, run_detection

from conftest import make_dataset


@st.composite
def tied_datasets(draw):
    """Coarsely rounded random walks where some points copy another point's
    series, so kinematic and temporal neighborhoods hold zero distances."""
    n = draw(st.integers(8, 30))
    steps = draw(st.integers(5, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    disp = np.round(np.cumsum(rng.normal(0.0, 1.0, size=(n, steps)), axis=1), 1)
    for _ in range(draw(st.integers(0, n // 2))):
        src, dst = rng.integers(0, n, size=2)
        disp[dst] = disp[src]
    side = int(np.ceil(np.sqrt(n)))
    coords = [(float(i % side), float(i // side)) for i in range(n)]
    return make_dataset(disp, coords=coords)


@settings(max_examples=15, deadline=None)
@given(ds=tied_datasets(), policy=st.sampled_from(["drop", "floor"]))
def test_run_bit_identical_across_parallel_degrees(ds, policy):
    cfg = dict(
        lid_config=LidConfig(s=4, zero_distance_policy=policy),
        fusion_config=FusionConfig(k=3),
        detection_config=DetectionConfig(n=2),
    )
    runs = [run_detection(ds, parallel=p, **cfg) for p in (1, 2, 3, 4)]
    first = runs[0]
    assert np.all((first.st_hist >= 0.0) & (first.st_hist <= 1.0))
    for other in runs[1:]:
        for name in ("s_hist", "fused_hist", "t_hist", "st_hist"):
            assert np.array_equal(getattr(first, name), getattr(other, name)), name
        assert first.events == other.events
