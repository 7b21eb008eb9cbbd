"""Build one admissible quintic segment from spherical control data.

Prescribe the outer spherical directions, the middle direction on their
bisecting great circle, the outer lengths and one inner phase; the generator
is then pinned down completely.  Scaling an outer length afterwards keeps
the whole spherical picture and only reparameterizes the tangent image.

Run:  python3 demos/02_segment_from_sphere_data.py
"""

import numpy as np

from rmfspline.ph import curve_from_preimage
from rmfspline.quat import unit
from rmfspline.rrmf import is_class_I
from rmfspline.spherical import (
    construct_from_spherical,
    reparam_map,
    reparam_scaled_preimage,
    spherical_control_points,
    tangent_indicatrix,
    theta1_for_s1,
)

s0 = np.array([1.0, 0.0, 0.0])
s4 = unit(np.array([-0.4330, 0.7500, 0.5000]))
s2 = unit(np.array([0.2662, 0.8325, -0.4858]))   # on the bisecting circle
s1 = unit(np.array([0.7686, 0.3749, -0.5184]))   # desired first inner point

theta1 = theta1_for_s1(s0, s2, s4, 1.0, 1.0, s1, admissibility_tol=1e-3)
print(f"inner phase reproducing s1: theta1 = {theta1:.6f}")

p = construct_from_spherical(s0, s2, s4, 1.0, 1.0, theta1, admissibility_tol=1e-3)
q = curve_from_preimage(np.zeros(3), p)

print("generator coefficients (w, x, y, z):")
for name, c in [("A0", p.a0), ("A1", p.a1), ("A2", p.a2)]:
    print(f"  {name} = {np.round(c.as_wxyz(), 4)}")

print("hodograph control points and lengths:")
for kk, h in enumerate(q.h):
    print(f"  h{kk} = {np.round(h, 4)}   |h{kk}| = {np.linalg.norm(h):.4f}")

check = is_class_I(p)
print(f"admits a rational RMF: {check.ok} (relative residual {check.rel_residual:.2e})")
print("spherical control points:")
print(np.round(spherical_control_points(q), 4))

print()
print("== scaling the last outer length by 0.33 ==")
lam = 0.33 ** 0.25
scaled = reparam_scaled_preimage(p, 1.0, lam)
qs = curve_from_preimage(np.zeros(3), scaled)
print("scaled inner lengths:", np.round(np.linalg.norm(qs.h[1:4], axis=1), 4))
print("spherical points unchanged:",
      np.allclose(spherical_control_points(qs), spherical_control_points(q), atol=1e-12))

ts = np.linspace(0.0, 1.0, 7)
ind, ind_s = tangent_indicatrix(p), tangent_indicatrix(scaled)
err = np.max(np.linalg.norm(ind_s.evaluate(ts) - ind.evaluate(reparam_map(lam, ts)), axis=1))
print(f"tangent images agree through the rational map (lambda={lam:.4f}): "
      f"max deviation {err:.2e}")
