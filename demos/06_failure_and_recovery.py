"""When the stream turns too sharply, and what to do about it.

A chord that reverses against the incoming tangent by more than 4/5 of a
half turn admits no symmetric end tangent; the builder reports the segment,
the turning angle, and the angular gap between the two displacements.
Inserting one intermediate point restores feasibility.

Run:  python3 demos/06_failure_and_recovery.py
"""

import math

import numpy as np

from rmfspline.errors import SplineBuildError
from rmfspline.spline import PointStream, build, continuity_report

sharp = np.array([[0.0, 0.0, 0.0], [-5.0, 5.0, 2.0], [2.0, 2.0, 0.0]])
print("attempting the sharp-turn stream", sharp.tolist())
try:
    build(PointStream(points=sharp), mode="chord")
except SplineBuildError as exc:
    print(f"  build failed at segment {exc.segment_index}:")
    print(f"    turning angle tau    = {exc.tau / math.pi:.3f} pi  (bound: 0.800 pi)")
    print(f"    displacement gap     = {exc.gap / math.pi:.3f} pi")
    print(f"    hint: {exc.hint}")

repaired = np.array([[0.0, 0.0, 0.0], [-5.0, 5.0, 2.0], [-4.0, 6.0, -2.0],
                     [2.0, 2.0, 0.0]])
print()
print("inserting (-4, 6, -2) between the last two points and retrying")
path = build(PointStream(points=repaired), mode="chord")
rep = continuity_report(path)
print(f"  success: {path.n_segments} segments, "
      f"tangent continuity {rep['max_tangent_angle']:.1e} rad, "
      f"frame continuity {rep['max_frame_angle']:.1e} rad")
