"""
Pose analysis walkthrough
=========================

Inverse/forward kinematics and the inverse Jacobian at a few poses of the
prototype-scale machine, including the isotropic configuration where the
parallel machine behaves like a stacked-axis serial one.
"""

import numpy as np

from orthoglide import (
    forward_kinematics,
    inverse_jacobian,
    inverse_kinematics,
    prototype_design,
    transmission_factors,
)

np.set_printoptions(precision=4, suppress=True)

d = prototype_design()
print(f"leg length L = {d.leg_length:.3f} mm")
print(f"slider strokes [{d.stroke_min[0]:.3f}, {d.stroke_max[0]:.3f}] mm\n")

# ---------------------------------------------------------------------------
# the isotropic configuration: tool at the frame origin
p0 = (0.0, 0.0, 0.0)
rho0 = inverse_kinematics(p0, d)
J0 = inverse_jacobian(p0, rho0)
print("tool at origin:")
print("  slider coordinates rho =", rho0)
print("  inverse Jacobian:\n", J0)
print("  -> exactly the identity: joint rates equal tool rates here\n")

# ---------------------------------------------------------------------------
# a generic pose: closure still exact, conditioning degrades a little
p1 = (80.0, -30.0, 45.0)
rho1 = inverse_kinematics(p1, d)
# row i is the leg vector c_i - b_i = p - rho_i e_i, and eta_i its i-th entry
legs = np.subtract(p1, np.diag(rho1))
for i, leg in enumerate(legs):
    resid = abs(float(np.linalg.norm(leg)) - d.leg_length)
    print(f"leg {i + 1}: eta = {leg[i]:8.3f} mm, closure residual = {resid:.2e} mm")
tf = transmission_factors(inverse_jacobian(p1, rho1))
print(f"transmission factors = {tf.sigma_fwd}, kappa = {tf.kappa:.4f}\n")

# ---------------------------------------------------------------------------
# round trip through forward kinematics
back = forward_kinematics(rho1, d)
print("FK(IK(p)) =", back, " max deviation:", np.abs(back - p1).max(), "mm")
