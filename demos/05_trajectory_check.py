"""
Trajectory feasibility check
============================

Drive the tool along the cube diagonal from Q1 to Q2 at the prototype's
rated 1.2 m/s. Near Q2 the inverse Jacobian row sums reach 1 + 2a = 2, so
the sliders must run at 2/sqrt(3) times the tool speed - beyond the motor
rating, and the profiler flags it.  Slowing down clears the flags; the
feasible-speed query predicts exactly how much.
"""

import numpy as np

from orthoglide import (
    max_feasible_tool_speed,
    profile_arrays,
    prototype_design,
    prototype_synthesis,
)

d = prototype_design()
res = prototype_synthesis()
direction = np.ones(3) / np.sqrt(3.0)


def line(speed, n=61):
    duration = float(np.linalg.norm(res.q2 - res.q1)) / speed
    ts = np.linspace(0.0, duration, n)
    return ts, res.q1 + (res.q2 - res.q1) * (ts[:, None] / duration)


prof = profile_arrays(*line(1200.0), d)
peak = np.abs(prof.joint_velocities).max()
n_flagged = int(prof.velocity_flags.any(axis=1).sum())
print(f"Q1 -> Q2 at 1200 mm/s: peak joint speed {peak:.1f} mm/s "
      f"(motor limit {d.motor_vmax:.0f}), {n_flagged} samples flagged")

# what the conditioning analysis says the diagonal can sustain at Q2
safe = max_feasible_tool_speed(tuple(res.q2), direction, d)
print(f"feasible diagonal tool speed at Q2: {safe:.1f} mm/s")

prof_ok = profile_arrays(*line(0.95 * safe), d)
print(f"same line at {0.95 * safe:.0f} mm/s: any flags? {prof_ok.any_flags}")

peak_acc = np.abs(prof_ok.joint_accelerations).max()
print(f"peak joint acceleration on the slowed run: {peak_acc:.0f} mm/s^2 "
      f"(limit {d.motor_amax:.0f})")
