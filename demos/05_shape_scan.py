"""Scanning the constraint families: does the square minimise?

Fixed-area rectangles (a, 1/a) and fixed-perimeter rectangles (a, 2-a)
are scanned at desk scale.  Every scan below bottoms out at a = 1 — the
square — which is the conjectured global behaviour; a scan is evidence,
not a proof.
"""

import numpy as np

from diracbox import lambda1_2d

n = 32

for m in (0.0, 2.0):
    print(f"mass m = {m}")
    print(f"{'a':>10} {'area family':>14} {'perimeter family':>18}")
    for a in np.round(np.geomspace(0.5, 2.0, 9), 6):
        mu_area = lambda1_2d(a, 1 / a, m, n).mu
        if 0.0 < a < 2.0:
            mu_per = f"{lambda1_2d(a, 2 - a, m, n).mu:18.8f}"
        else:
            mu_per = f"{'-':>18}"
        marker = "   <- square" if abs(a - 1.0) < 1e-12 else ""
        print(f"{a:10.4f} {mu_area:14.8f} {mu_per}{marker}")
    print()

print("both families are scanned with one assembly: the geometry enters")
print("only through scalar weights of the fixed reference-square matrices")
