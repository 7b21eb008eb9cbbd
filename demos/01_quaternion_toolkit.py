"""Tour of the quaternion toolkit the curve constructions are built on.

Run:  python3 demos/01_quaternion_toolkit.py
"""

import math

import numpy as np

from rmfspline.quat import (
    Quaternion,
    bisector,
    neg_cross,
    rotate,
    sandwich,
    star,
)
from rmfspline.spherical import boxop, quat_sqrt

i = np.array([1.0, 0.0, 0.0])
j = np.array([0.0, 1.0, 0.0])
k = np.array([0.0, 0.0, 1.0])

print("== products and rotations ==")
print("i * i          =", (Quaternion.pure(i) * Quaternion.pure(i)).as_wxyz())
print("k * i          =", (Quaternion.pure(k) * Quaternion.pure(i)).as_wxyz())

u = Quaternion.versor(k, math.pi / 4)  # rotates by pi/2 about z
print("rotate(e^{k pi/4}, x) =", rotate(u, i), " (a quarter turn)")

print()
print("== bisectors and oriented normals ==")
v, w = np.array([2.0, 0.0, 0.0]), np.array([0.0, 0.0, 3.0])
print("bisector((2,0,0),(0,0,3)) =", bisector(v, w))
print("neg_cross(x, y)          =", neg_cross(i, j))

print()
print("== the symmetric / antisymmetric vector operators ==")
a = Quaternion(0.4, [0.3, -0.2, 0.9])
b = Quaternion(-0.1, [0.5, 0.7, 0.2])
print("star(a, b, i) =", star(a, b, i), " (symmetric)")
print("star(b, a, i) =", star(b, a, i))
print("boxop(a, b)   =", boxop(a, b), " (antisymmetric)")
print("boxop(b, a)   =", boxop(b, a))

print()
print("== quaternion square roots of a vector ==")
target = np.array([0.0, 0.0, 2.0])
for alpha in [0.0, 0.5, 1.5]:
    root = quat_sqrt(target, i, alpha)
    print(f"alpha={alpha:.1f}: A = {root.as_wxyz()},  A i A* = {sandwich(root, i)}")
print("every member of the one-parameter family maps the axis to the target")
