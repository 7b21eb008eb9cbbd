"""One local interpolation problem, plus the geometry of its solvability.

Given two points, the full start frame, and an end tangent making equal
angles with the chord, a single segment interpolates everything.  The free
angle comes from a bisection on the direction of the scaled displacement;
this demo also sweeps that direction to show the two coverage regimes.

Run:  python3 demos/04_local_hermite_solve.py
"""

import math

import numpy as np

from rmfspline import oracle
from rmfspline.hermite import HermiteData, solve, sufficient_condition
from rmfspline.quat import angle_between, bisector, neg_cross, unit

u = unit(np.array([1.0, 0.2, -0.1]))
v = unit(np.cross(np.array([0.0, 0.0, 1.0]), u))
w = np.cross(u, v)

gamma = 0.55 * math.pi
d = unit(np.cross(np.array([0.3, 0.9, 0.1]), u))
u_end = math.cos(gamma) * u + math.sin(gamma) * d

b = bisector(u, u_end)
n = neg_cross(u, u_end)
delta_u = unit(0.6 * b + 0.8 * n)        # any direction on the symmetry circle
p0 = np.array([1.0, 2.0, 3.0])
data = HermiteData(p0, p0 + 4.0 * delta_u, u, v, w, u_end)

print(f"turning angle gamma = {gamma / math.pi:.3f} pi")
print(f"sufficient condition holds: {sufficient_condition(data)}")

sol = solve(data)
diag = sol.diagnostics
print(f"solved: branch={diag['branch']}, phi2 = {sol.phi2 / math.pi:.6f} pi, "
      f"mu = {sol.mu:.6f}")
print(f"  direction residual |S - du| = {diag['s_residual']:.2e}")
print(f"  endpoint residual           = {diag['endpoint_residual']:.2e}")
f0 = sol.frame.frame_matrix(0.0)
print(f"  start frame reproduced to   = "
      f"{max(angle_between(f0[m], [u, v, w][m]) for m in range(3)):.2e} rad")
trace = oracle.integrate_rmf(sol.segment, f0, n_samples=500)
print(f"  frame vs transport          = {oracle.compare_frames(sol.frame, trace):.2e} rad")

print()
print("== coverage of the displacement direction ==")
for g in [math.pi / 3, 0.4 * math.pi, 0.55 * math.pi]:
    rep = oracle.sweep_S(g, 4000)
    kind = ("full circle, winding 1" if rep.winding == 1
            else "half-circle portion" if not rep.vanishing_flagged
            else "quarter circles around the vanishing point")
    print(f"  gamma = {g / math.pi:.3f} pi: min bisector component "
          f"{rep.min_b_component:+.4f}  ({kind})")
