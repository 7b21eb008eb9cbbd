"""Interpolate a free-form 3D point stream by a frame-carrying spline.

Reference tangents come from the local finite-difference rules, the end
tangents from the constrained circle optimization, and the frame is chained
segment to segment.  No start frame is given, so ``build`` starts along the
first reference tangent with the normal leaning toward +z.  Writes a CSV
sampling for external plotting.

Run:  python3 demos/05_spline_from_stream.py
"""

import numpy as np

from rmfspline.spline import PointStream, build, continuity_report, interpolation_residual

points = np.array([
    [0.0, 0.0, 0.0],
    [-5.0, 5.0, 2.0],
    [0.0, 10.0, -2.0],
    [8.0, 12.0, 5.0],
    [15.0, 2.0, 3.0],
    [2.0, 0.0, 7.0],
])

path = build(PointStream(points=points), mode="chord")
knots = path.knots

print(f"built {path.n_segments} segments over chord parameter [0, {knots[-1]:.4f}]")
print("per-segment summary:")
print("   k  gamma/pi   phi2/pi        mu   |S - du|")
for k, d in enumerate(path.diagnostics):
    print(f"  {k:2d}  {d['gamma'] / np.pi:8.4f}  {path.phi2[k] / np.pi:8.4f}"
          f"  {path.mu[k]:8.4f}  {d.get('s_residual', 0.0):9.2e}")

rep = continuity_report(path)
print(f"tangent continuity across knots: {rep['max_tangent_angle']:.2e} rad")
print(f"frame continuity across knots:   {rep['max_frame_angle']:.2e} rad")
print(f"interpolation residual at knots: {interpolation_residual(path, points):.2e}")

us = np.linspace(knots[0], knots[-1], 201)
pts, frames = path.eval_many(us)
out = "stream_spline_samples.csv"
with open(out, "w", encoding="utf-8") as f:
    f.write("u,x,y,z,f2x,f2y,f2z\n")
    for uu, p, fr in zip(us, pts, frames):
        f.write(",".join(repr(float(c)) for c in [uu, *p, *fr[1]]) + "\n")
print(f"wrote {len(us)} samples to {out} (position + rotation-minimizing normal)")
