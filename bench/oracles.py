"""Output oracles, independent of the library's own kernels.

Each oracle takes the workload spec, one command of it, the command's output
file and its exit code, and returns a list of mismatches (empty when the
output is correct).  References come from the closed forms in `model` and
from `np.linalg.svd`.  Program outputs carry 12 significant digits, so
computed quantities are compared to 1e-9 relative and echoed inputs to 1e-11.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from model import (
    AMAX,
    BOUND_REL_TOL,
    SERIAL_TOL,
    VMAX,
    factors,
    grid_points,
    ik,
    jinv,
    joint_rates,
    radicands,
    synthesis,
)
from workloads import path_state

REL = 1e-9
ECHO = 1e-11
EPS = np.finfo(float).eps
GRID_HEADER = "x_mm,y_mm,z_mm,reachable,within_stroke,sigma_min,sigma_max,kappa"
PROFILE_HEADER = (
    "t_s,x_mm,y_mm,z_mm,rho1_mm,rho2_mm,rho3_mm,"
    "v1_mm_s,v2_mm_s,v3_mm_s,a1_mm_s2,a2_mm_s2,a3_mm_s2,"
    "vel_flag1,vel_flag2,vel_flag3,acc_flag1,acc_flag2,acc_flag3"
)


class Mismatches(list):
    def close(self, name, actual, expected, rtol=REL, atol=0.0) -> None:
        actual = np.asarray(actual, dtype=float)
        expected = np.asarray(expected, dtype=float)
        if actual.shape != expected.shape:
            self.append(f"{name}: shape {actual.shape} != {expected.shape}")
            return
        bad = ~np.isclose(actual, expected, rtol=rtol, atol=atol, equal_nan=True)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            self.append(
                f"{name}: {int(bad.sum())} values differ, first {actual.flat[k]!r} "
                f"!= {expected.flat[k]!r}"
            )

    def equal(self, name, actual, expected) -> None:
        if np.shape(actual) != np.shape(expected) or not np.array_equal(actual, expected):
            self.append(f"{name}: {actual!r} != {expected!r}")


def _load_json(path: Path, errs: Mismatches) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        errs.append(f"unreadable output: {e}")
        return None


def _load_csv(path: Path, header: str, columns: int, rows: int, errs: Mismatches):
    try:
        with open(path) as f:
            first = f.readline().rstrip("\n")
            data = np.loadtxt(f, delimiter=",", ndmin=2)
    except (OSError, ValueError) as e:
        errs.append(f"unreadable output: {e}")
        return None
    errs.equal("header", first, header)
    errs.equal("table shape", data.shape, (rows, columns))
    return data if data.shape == (rows, columns) else None


def design_sweep(spec: dict, cmd: dict, path: Path, code) -> list[str]:
    """Summary of one synthesis: grid size, zero violations, the bound binding
    exactly at a diagonal reference point, closed-form dimensions, and
    independent factors at sampled grid nodes inside the reported extremes."""
    errs = Mismatches()
    errs.equal("exit code", code, 0)
    doc = _load_json(path, errs)
    if doc is None:
        return errs
    req, n = cmd["input"], spec["check"]["grid"]
    ref = synthesis(req["lw"], req["s_lo"], req["s_hi"])
    leg, u1, u2 = ref["leg_length"], ref["u1"], ref["u2"]
    ver = doc["verification"]
    errs.equal("n_per_axis", ver["n_per_axis"], n)
    errs.equal("n_points", ver["n_points"], n**3)
    for key in ("n_unreachable", "n_stroke_violations", "n_bound_violations"):
        errs.equal(key, ver[key], 0)
    errs.close("leg_length_mm", doc["leg_length_mm"], leg)
    errs.close("design.leg_length", doc["design"]["leg_length"], leg)
    errs.close("q1_mm", doc["q1_mm"], [u1] * 3, atol=REL * leg)
    errs.close("q2_mm", doc["q2_mm"], [u2] * 3, atol=REL * leg)
    errs.close("stroke_lo_mm", doc["stroke_lo_mm"], ref["stroke_lo"])
    errs.close("stroke_hi_mm", doc["stroke_hi_mm"], ref["stroke_hi"])
    errs.close("worst_sigma_max", ver["worst_sigma_max"], req["s_hi"])
    at = np.asarray(ver["worst_sigma_max_at"], dtype=float)
    if not any(np.allclose(at, u, rtol=0, atol=REL * leg) for u in (u1, u2)):
        errs.append(f"worst_sigma_max_at {at.tolist()} is neither Q1 nor Q2")
    if not ver["worst_sigma_min"] >= req["s_lo"] * (1 - BOUND_REL_TOL):
        errs.append(f"worst_sigma_min {ver['worst_sigma_min']} below s_lo {req['s_lo']}")

    pts = grid_points(np.full(3, u1), u2 - u1, n)
    rng = np.random.default_rng(int(cmd["key"]))
    sample = np.concatenate([[0, n**3 - 1], rng.integers(0, n**3, 254)])
    rho, _ = ik(pts[sample], leg)
    sig, _ = factors(jinv(pts[sample], rho))
    lo, hi = ver["worst_sigma_min"] * (1 - REL), ver["worst_sigma_max"] * (1 + REL)
    if np.any(sig[:, 0] < lo) or np.any(sig[:, 2] > hi):
        errs.append("a sampled node has factors outside the reported extremes")
    slack = REL * leg
    if np.any(rho < ref["stroke_lo"] - slack) or np.any(rho > ref["stroke_hi"] + slack):
        errs.append("a sampled node leaves the synthesized stroke")
    return errs


def map_export(spec: dict, cmd: dict, path: Path, code) -> list[str]:
    """Every CSV record against closed-form IK and `np.linalg.svd`, and the
    exit code against independently counted violations."""
    errs = Mismatches()
    check = spec["check"]
    n, cfg = check["grid"], check["design"]
    leg = cfg["leg_length"]
    data = _load_csv(path, GRID_HEADER, 8, n**3, errs)
    if data is None:
        return errs
    pts = grid_points(check["q1"], check["side"], n)
    errs.close("coordinates", data[:, :3], pts, rtol=ECHO, atol=ECHO * leg)

    rad = radicands(pts, leg)
    reach = np.all(rad > (SERIAL_TOL * leg) ** 2, axis=1)
    rho = pts[reach] - np.sqrt(rad[reach])
    in_stroke = np.zeros(len(pts), dtype=bool)
    in_stroke[reach] = np.all((rho >= cfg["stroke_min"]) & (rho <= cfg["stroke_max"]), axis=1)
    sig = np.full((len(pts), 3), np.nan)
    kappa = np.full(len(pts), np.nan)
    sig[reach], kappa[reach] = factors(jinv(pts[reach], rho))
    errs.equal("reachable", data[:, 3].astype(bool), reach)
    errs.equal("within_stroke", data[:, 4].astype(bool), in_stroke)
    errs.close("sigma_min", data[:, 5], sig[:, 0])
    errs.close("sigma_max", data[:, 6], sig[:, 2])
    errs.close("kappa", data[:, 7], kappa)

    with np.errstate(invalid="ignore"):
        out_of_bounds = (sig[:, 0] < cfg["s_lo"] * (1 - BOUND_REL_TOL)) | (
            sig[:, 2] > cfg["s_hi"] * (1 + BOUND_REL_TOL)
        )
    violations = (~reach).sum() + (reach & ~in_stroke).sum() + (reach & out_of_bounds).sum()
    errs.equal("exit code", code, 2 if violations else 0)
    return errs


def pose_queries(spec: dict, cmd: dict, path: Path, code) -> list[str]:
    """Joints against closed-form IK, factors, kappa and det against
    `np.linalg.svd` / `np.linalg.det` of the closed-form Jinv."""
    errs = Mismatches()
    errs.equal("exit code", code, 0)
    doc = _load_json(path, errs)
    if doc is None:
        return errs
    cfg = spec["check"]["design"]
    leg = cfg["leg_length"]
    p = np.asarray(cmd["input"])
    rho, eta = ik(p, leg)
    m = jinv(p, rho)
    sig, kappa = factors(m)
    errs.close("pose_mm", doc["pose_mm"], p, rtol=ECHO, atol=ECHO * leg)
    errs.close("rho_mm", doc["rho_mm"], rho, atol=REL * leg)
    errs.close("eta_mm", doc["eta_mm"], eta, atol=REL * leg)
    errs.equal(
        "within_stroke",
        doc["within_stroke"],
        ((rho >= cfg["stroke_min"]) & (rho <= cfg["stroke_max"])).tolist(),
    )
    errs.close("jacobian_inverse", doc["jacobian_inverse"], m, atol=REL)
    errs.close("sigma_fwd", doc["sigma_fwd"], sig)
    errs.close("kappa", doc["kappa"], kappa)
    errs.close("det_inv", doc["det_inv"], np.linalg.det(m))
    errs.equal("serial_flags", doc["serial_flags"], [False] * 3)
    errs.equal("parallel_flag", doc["parallel_flag"], False)
    return errs


def path_check(spec: dict, cmd: dict, path: Path, code) -> list[str]:
    """Joints against closed-form IK; finite-difference rates and
    accelerations against the analytic ones to their O(h^2) truncation
    error; flags against the motor limits; exit code against the flags."""
    errs = Mismatches()
    check = spec["check"]
    n, leg = check["n"], check["design"]["leg_length"]
    data = _load_csv(path, PROFILE_HEADER, 19, n, errs)
    if data is None:
        return errs
    t, p, v, a = path_state(check, n)
    rate, acc = joint_rates(p, v, a, leg)
    rho, _ = ik(p, leg)
    errs.close("t_s", data[:, 0], t, rtol=ECHO, atol=ECHO * t[-1])
    errs.close("poses", data[:, 1:4], p, rtol=ECHO, atol=ECHO * leg)
    errs.close("joints", data[:, 4:7], rho, atol=REL * leg)

    # Truncation error of the 3-point stencils is at most h^2/3 |rho'''| for
    # rates and 11/12 h^2 |rho''''| for accelerations (one-sided ends);
    # the higher derivatives are estimated from the analytic accelerations.
    # Rounding adds about eps |rho| / h^k for the k-th derivative.
    h = t[1] - t[0]
    d3 = np.abs(np.diff(acc, axis=0)).max() / h
    d4 = np.abs(np.diff(acc, n=2, axis=0)).max() / h**2
    scale = np.abs(rho).max()
    tol_v = h * h * d3 + 8 * EPS * scale / h + REL * VMAX
    tol_a = 2 * h * h * d4 + 32 * EPS * scale / h**2 + REL * AMAX
    errs.close("joint rates", data[:, 7:10], rate, rtol=0, atol=tol_v)
    errs.close("joint accelerations", data[:, 10:13], acc, rtol=0, atol=tol_a)

    flags = data[:, 13:19].astype(bool)
    for name, values, limit, got in (
        ("vel_flag", data[:, 7:10], VMAX, flags[:, :3]),
        ("acc_flag", data[:, 10:13], AMAX, flags[:, 3:]),
    ):
        clear = np.abs(np.abs(values) - limit) > REL * limit  # printed value not at a tie
        errs.equal(name, got[clear], (np.abs(values) > limit)[clear])
    errs.equal("exit code", code, 2 if flags.any() else 0)
    return errs


ORACLES = {
    "design-sweep": design_sweep,
    "map-export": map_export,
    "pose-queries": pose_queries,
    "path-check": path_check,
}
