"""Bracketing the rectangle's lowest Dirac level between analytic bounds.

The conforming discretisation of the squared form over-estimates the true
lambda_1(a,b)^2, so together with the closed-form lower bounds every solve
produces a certified-style interval.  Refining the grid shrinks it from
above; the analytic two-sided bounds stay fixed.
"""

from diracbox import bounds, lambda1_2d, refine_study

a, b, m = 1.0, 1.0, 0.0
print(f"unit square, massless: analytic bracket for lambda_1^2 is "
      f"[{bounds.thm_lower(a, b, m):.4f}, {bounds.thm_upper(a, b, m):.4f}]")
print()

print(f"{'n':>6} {'discrete lambda_1^2':>22} {'lambda_1':>12}")
for n in (16, 32, 64):
    res = lambda1_2d(a, b, m, n)
    print(f"{n:>6} {res.mu:>22.12f} {res.lambda1:>12.8f}")

# the forms and inverses of each grid are built once per process and reused
study = refine_study(a, b, m, [16, 32, 64])
print()
print(f"Richardson extrapolation: lambda_1 ~ {study.lambda1:.6f} "
      f"(observed order {study.observed_order:.2f})")
print("the reduced order reflects the corner behaviour of the eigenspinor")
print()

for (aa, bb, mm) in ((2.0, 0.5, 0.0), (1.2, 1 / 1.2, 5.0)):
    lo, hi = bounds.bracket(aa, bb, mm, lambda1_2d(aa, bb, mm, 32).mu)
    print(f"(a={aa}, b={bb:.4f}, m={mm}): lambda_1^2 in "
          f"[{lo:.5f}, {hi:.5f}], width {hi - lo:.5f}")
