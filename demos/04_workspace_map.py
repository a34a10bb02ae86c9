"""
Workspace map export
====================

Sweep a grid over the synthesized cube and write one CSV record per node
(reachability, stroke feasibility, extreme transmission factors, condition
number) ready for any plotting tool.  A second, deliberately oversized
region shows how degradation and unreachability appear in the data.
"""

import numpy as np

from orthoglide import (
    Bounds,
    CubeSpec,
    map_cube,
    prototype_design,
    prototype_synthesis,
)
from orthoglide.workspace import write_grid_csv

d = prototype_design()
res = prototype_synthesis()
bounds = Bounds(0.5, 2.0)

report = map_cube(d, res.cube, bounds, 21)
write_grid_csv(report.nodes, "workspace_map.csv")
print(f"wrote workspace_map.csv with {report.n_points} records")
print(f"all reachable: {report.n_unreachable == 0}, "
      f"factors within bounds everywhere: {report.n_bound_violations == 0}")

# kappa histogram over the cube, straight from the in-memory node arrays
kappas = report.nodes.kappa
print("\ncondition-number spread over the prescribed cube:")
for lo in np.arange(0.2, 1.0, 0.2):
    n = int(((kappas >= lo) & (kappas < lo + 0.2)).sum())
    print(f"  kappa in [{lo:.1f}, {lo + 0.2:.1f}): {n:5d} nodes " + "#" * (n // 200))

# an oversized region: 1.8x the cube, pushed outward
big = CubeSpec(1.8 * res.q1, 1.8 * res.q2)
rep2 = map_cube(d, big, bounds, 15)
write_grid_csv(rep2.nodes, "workspace_map_oversized.csv")
print(f"\noversized region: {rep2.n_unreachable} unreachable nodes, "
      f"{rep2.n_bound_violations} bound violations, "
      f"{rep2.n_stroke_violations} stroke violations")
print("wrote workspace_map_oversized.csv")
