"""
Conditioning along the cube diagonal
====================================

The transmission factors on the diagonal x = y = z = u follow a one-scalar
closed form: the coupling ratio a = u / sqrt(L^2 - 2 u^2) fixes the whole
spectrum.  The profile below sweeps the synthesized cube diagonal and shows
the factors binding exactly at the reference points, plus the
manipulability ellipsoid at Q2, whose semi-axes are the transmission factors.
"""

import numpy as np

from orthoglide import (
    inverse_jacobian,
    inverse_kinematics,
    diagonal_profile,
    prototype_design,
    prototype_synthesis,
    transmission_factors,
)

np.set_printoptions(precision=4, suppress=True)

res = prototype_synthesis()
d = prototype_design()
print(f"reference points: Q1 = {res.q1}, Q2 = {res.q2}\n")

print("   u (mm)        a    sigma_fwd                kappa")
prof = diagonal_profile(d, res.q1[0], res.q2[0], 9)
for u, a, fwd, kappa in zip(*prof):
    print(f"{u:9.3f}  {a:7.4f}   {fwd}   {kappa:.4f}")

print("\nfactors touch 2.0 at Q1 (a = -1/4) and both 0.5 and 2.0 at Q2 (a = 1/2)\n")

# the ellipsoid at Q2: one slow axis (along the diagonal), two fast axes
p = tuple(res.q2)
tf = transmission_factors(inverse_jacobian(p, inverse_kinematics(p, d)))
print("manipulability ellipsoid at Q2:")
print("  semi-axes:", tf.sigma_fwd)
