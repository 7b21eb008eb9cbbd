"""The rational rotation-minimizing frame against direct numeric transport.

The frame polynomial is solved from the generator, gauged to a prescribed
start normal, and then compared with an adaptive ODE integration of the
minimal-rotation transport along the same curve.

Run:  python3 demos/03_rational_frame_vs_transport.py
"""

import numpy as np

from rmfspline import oracle
from rmfspline.ph import curve_from_preimage
from rmfspline.quat import unit
from rmfspline.rrmf import compute_rational_frame, han08_residual
from rmfspline.spherical import construct_from_spherical

s0 = np.array([1.0, 0.0, 0.0])
s4 = unit(np.array([-0.4330, 0.7500, 0.5000]))
s2 = unit(np.array([0.2662, 0.8325, -0.4858]))
p = construct_from_spherical(s0, s2, s4, 1.0, 1.0, 0.41643, admissibility_tol=1e-3)
q = curve_from_preimage(np.zeros(3), p)

# gauge the frame so the start normal leans toward +z
v0 = unit(np.cross(np.array([0.0, 0.0, 1.0]), s0))
frame = compute_rational_frame(p, initial_frame=np.array([s0, v0, np.cross(s0, v0)]))

print("frame polynomial (ascending power coefficients):")
print("  a =", np.round(frame.a, 6))
print("  b =", np.round(frame.b, 6))
print(f"rotation-rate identity residual: {han08_residual(p, frame):.2e}")

trace = oracle.integrate_rmf(q, frame.frame_matrix(0.0), n_samples=1000)
print(f"transport integrator: {trace.stats['nfev']} evaluations, "
      f"estimated error {trace.stats['estimated_error']:.2e}")
print(f"max angle rational-vs-transport normals: {oracle.compare_frames(frame, trace):.2e} rad")

ts = np.linspace(0.05, 0.95, 19)
omega = oracle.tangential_angular_velocity(frame, ts)
print(f"max |omega . tangent| by finite differences: {np.max(omega):.2e}")

print()
print("sampled frame (t, f1, f2):")
for t in [0.0, 0.25, 0.5, 0.75, 1.0]:
    f1, f2, _ = frame.frame(float(t))
    print(f"  t={t:4.2f}  f1={np.round(f1, 4)}  f2={np.round(f2, 4)}")
