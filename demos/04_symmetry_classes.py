"""Quarter-turn classification of the square's ground eigenspace.

On the square the spinor rotation R commutes with the quadratic form, so
eigenspaces split into classes R psi = alpha psi with alpha^4 = 1.  The
discrete ground space turns out to be doubly degenerate; its certified
representatives balance their axis gradient norms and boundary trace norms
exactly, and neither component is a product of one-dimensional profiles.
"""

from diracbox import (
    assemble,
    build_grid,
    classify_symmetry,
    commutation_check,
    ground_cluster,
    separability_residual,
    verify_norm_identities,
)

n = 32
fm = assemble(build_grid(n))
print(f"grid n={n}: quarter-turn invariance of the square form "
      f"(rounding level): {commutation_check(fm, 1.0, 0.0):.2e}")

mus, cluster = ground_cluster(fm, 1.0, 1.0, 0.0, k=4)
print("four lowest discrete lambda^2:", [f"{mu:.6f}" for mu in mus])
print(f"ground cluster size: {len(cluster)} (degenerate pair)")

print()
print(f"{'alpha':>12} {'R-deviation':>13} {'grad balance':>13} "
      f"{'trace balance':>14} {'sep. ratios':>22}")
for cls in classify_symmetry(fm, cluster, square=True):
    d1, d2 = verify_norm_identities(cls.field, fm)
    s1, s2 = separability_residual(cls.field)
    print(f"{cls.alpha:>12.3f} {cls.deviation:>13.2e} {d1:>13.2e} "
          f"{d2:>14.2e} {f'({s1:.3f}, {s2:.3f})':>22}")

print()
print("a separable (rank-one) component would give ratio 0; the strictly")
print("positive ratios witness that no separated-variable solution exists")
