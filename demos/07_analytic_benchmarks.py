"""Reconstruction of analytic space curves, and the order of convergence.

Samples the built-in helix, torus-knot and spiral curves at doubling span
counts, interpolates with exact reference tangents and parameters, and
reports continuity plus the largest distance from the spline to the true
curve: 16 spline samples per span, each projected onto the curve by Newton
steps on (C(s) - P) . C'(s) = 0.  The observed order is log2 of the ratio
of successive distances, about 3 or more (the acceptance test C11 pins a
ratio of at least 7.5 per doubling).

Run:  python3 demos/07_analytic_benchmarks.py
"""

import math

import numpy as np

from rmfspline.io_cli import CURVES, sample_curve
from rmfspline.spline import PointStream, build, continuity_report, default_initial_frame


def curve_deviation(path, params, curve, per_span=16):
    """Largest distance from the spline samples to the curve; the spline's
    knots are the curve parameters here."""
    fn, dfn, _ = CURVES[curve]
    t = (np.arange(per_span) + 0.5) / per_span
    s = (params[:-1, None] + t * np.diff(params)[:, None]).ravel()
    points, _ = path.eval_many(s)
    for _ in range(8):
        off, d1 = fn(s) - points, dfn(s)
        d2 = (dfn(s + 1e-6) - dfn(s - 1e-6)) / 2e-6
        s = s - np.sum(off * d1, axis=1) / (np.sum(d1 * d1, axis=1) + np.sum(off * d2, axis=1))
    return float(np.max(np.linalg.norm(fn(s) - points, axis=1)))


print(f"{'curve':>8} {'spans':>5} {'tangent jump':>13} {'frame jump':>11} "
      f"{'max distance':>13} {'order':>6}")
for curve in ("helix", "torus", "spiral"):
    previous = None
    for spans in (16, 32, 64, 128):
        params, pts, tans = sample_curve(curve, spans)
        stream = PointStream(points=pts, initial_frame=default_initial_frame(tans[0]))
        path = build(stream, reference_tangents=tans, knots=params)
        rep = continuity_report(path)
        distance = curve_deviation(path, params, curve)
        order = "" if previous is None else f"{math.log2(previous / distance):6.2f}"
        print(f"{curve:>8} {spans:>5} {rep['max_tangent_angle']:>13.2e} "
              f"{rep['max_frame_angle']:>11.2e} {distance:>13.3e} {order:>6}")
        previous = distance

print()
print("the interpolant matches positions and tangent directions at the")
print("samples; halving the spans divides its distance from the curve by")
print("8 or more: third-order convergence, fourth on the helix")
