"""A walk through the LID estimators: what high and low values mean.

Run:  python demos/01_lid_estimators.py
"""
import numpy as np

from stlid import LidConfig, MonitoredPoint, MonitoringDataset, mle_lid, s_lid_all, t_lid

rng = np.random.default_rng(0)

print("=== the estimator on hand-made neighborhoods ===")
print("distances [1, 2]        ->", round(mle_lid([1.0, 2.0]), 4), "(= 2/ln 2)")
print("shell [9.9, 9.95, 10]   ->", round(mle_lid([9.9, 9.95, 10.0]), 1),
      " <- neighbors crowd a thin shell: strongly outlying")
print("spread [1, 4, 10]       ->", round(mle_lid([1.0, 4.0, 10.0]), 3),
      " <- ordinary expansion: unremarkable")

print("\n=== recovering the dimension of a uniform ball ===")
for d in (1, 2, 3):
    u = rng.standard_normal((4000, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = u * rng.uniform(0, 1, size=(4000, 1)) ** (1 / d)
    interior = np.flatnonzero(np.linalg.norm(pts, axis=1) < 0.6)[:200]
    estimates = []
    for i in interior:
        dist = np.sort(np.linalg.norm(pts - pts[i], axis=1))[1:101]
        estimates.append(mle_lid(dist))
    print(f"d = {d}: median interior estimate = {np.median(estimates):.3f}")

print("\n=== s-LID: one escaping point in a monitored grid ===")
n = 50
disp = np.zeros((n, 2))
disp[:, 0] = rng.normal(0, 0.1, n)
disp[:, 1] = disp[:, 0] + rng.normal(0, 0.1, n)
disp[13] = (0.0, 8.0)  # point 13 lurches 8 mm in one step
ds = MonitoringDataset(
    points=[MonitoredPoint(i, (float(i % 10), float(i // 10))) for i in range(n)],
    displacement=disp,
)
field = s_lid_all(ds, 1, LidConfig(s=8))
print(f"point 13 s-LID = {field.values[13]:.2f}"
      f" vs field median {np.median(field.values):.2f}")

print("\n=== t-LID: a velocity jump against the point's own history ===")
calm = rng.normal(0, 0.05, 60)
jump = np.concatenate([calm, [3.0]])
ramp = np.linspace(0, 3.0, 61)
print(f"calm history then a 3 mm jump -> t-LID {t_lid(jump):8.2f}")
print(f"steady ramp to the same value -> t-LID {t_lid(ramp):8.2f}")
print("the jump dwarfs the history; the ramp is its own precedent")
