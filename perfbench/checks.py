"""Correctness checks on nilcert's outputs, recomputed apart from nilcert.

Every check takes parsed program output (a report fragment, a plan, a
sweep ladder) and recomputes what it guards with numpy from the integer
matrix alone: no nilcert code is imported here.  A check returns nothing
when the output holds and raises :class:`CheckFailure` naming the field
that does not.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


class CheckFailure(AssertionError):
    """An output of the program disagrees with the independent recomputation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def numpy_roots(matrix: Sequence[Sequence[int]]) -> np.ndarray:
    """The three eigenvalues of the integer matrix, ascending, from numpy."""
    ev = np.linalg.eigvals(np.asarray(matrix, dtype=float))
    _require(bool(np.all(np.abs(ev.imag) < 1e-12)), f"matrix has complex eigenvalues {ev}")
    return np.sort(ev.real)


def automorphism_diagonal(roots: Sequence[float]) -> np.ndarray:
    """diag(B) of the nilmanifold automorphism: (r, r, r^2) per Heisenberg factor."""
    return np.array([v for r in roots for v in (r, r, r * r)])


def _annulus_hits(moduli: np.ndarray, annulus: Sequence[float]) -> np.ndarray:
    lo, hi = annulus
    return (moduli >= lo) & (moduli <= hi)


def _pair_moduli(c: float, u: float, thetas: np.ndarray) -> np.ndarray:
    """Eigenvalue moduli of R_theta . diag(c, u) in the rotation plane, shape (N, 2)."""
    ct, st = np.cos(thetas), np.sin(thetas)
    blocks = np.empty((thetas.shape[0], 2, 2))
    blocks[:, 0, 0] = c * ct
    blocks[:, 0, 1] = -u * st
    blocks[:, 1, 0] = c * st
    blocks[:, 1, 1] = u * ct
    return np.abs(np.linalg.eigvals(blocks))


def _rotation(axes: Sequence[int], theta: float, dim: int = 9) -> np.ndarray:
    i, j = axes
    r = np.eye(dim)
    r[i, i] = r[j, j] = math.cos(theta)
    r[j, i] = math.sin(theta)
    r[i, j] = -math.sin(theta)
    return r


def _single_step(plan: dict) -> dict:
    _require(
        plan.get("branch") == "single_step" and len(plan.get("steps", ())) == 1,
        f"plan branch {plan.get('branch')!r} with {len(plan.get('steps', ()))} steps: "
        "only single-step plans are recomputed",
    )
    return plan["steps"][0]


def check_roots(matrix: Sequence[Sequence[int]], roots: Sequence[float]) -> None:
    """Reported roots match numpy within 1e-9, multiply to 1, and satisfy
    0 < r2^2 < r1 < r2 < 1 < r3."""
    _require(len(roots) == 3, f"expected three roots, got {roots}")
    ref = numpy_roots(matrix)
    err = float(np.max(np.abs(np.asarray(roots, dtype=float) - ref)))
    _require(err <= 1e-9, f"roots {list(roots)} differ from numpy {list(ref)} by {err:.3e}")
    r1, r2, r3 = roots
    _require(abs(r1 * r2 * r3 - 1.0) <= 1e-9, f"root product {r1 * r2 * r3!r} is not 1")
    _require(0.0 < r2 * r2 < r1 < r2 < 1.0 < r3, f"roots {list(roots)} break 0 < r2^2 < r1 < r2 < 1 < r3")


def check_plan(matrix: Sequence[Sequence[int]], planner: dict, surplus: float) -> None:
    """Planned moduli recomputed from R_theta . diag(B) at the plan's axes and
    angle: they match the report, multiply to 1, and contain 1 + s and the
    closed form l2 l3^2 / (1 + s)."""
    step = _single_step(planner["plan"])
    l1, l2, l3 = numpy_roots(matrix)
    b = automorphism_diagonal((l1, l2, l3))
    final = _rotation(step["axes"], step["angle"]) @ np.diag(b)
    moduli = np.sort(np.abs(np.linalg.eigvals(final)))
    reported = np.asarray(planner["planned_moduli"], dtype=float)
    _require(reported.shape == moduli.shape, f"{reported.size} planned moduli, expected {moduli.size}")
    err = float(np.max(np.abs(reported - moduli) / moduli))
    _require(err <= 1e-8, f"planned moduli differ from recomputed ones by {err:.3e} (relative)")
    prod = float(np.prod(moduli))
    _require(abs(prod - 1.0) <= 1e-9, f"planned moduli multiply to {prod!r}, not 1")
    for target in (1.0 + surplus, l2 * l3 * l3 / (1.0 + surplus)):
        gap = float(np.min(np.abs(moduli - target)))
        _require(gap <= 1e-8, f"no planned modulus within 1e-8 of {target!r} (closest off by {gap:.3e})")


def check_avoidance(matrix: Sequence[Sequence[int]], planner: dict) -> None:
    """Every avoidance result is certified, and no modulus of R_theta . diag(B)
    lies in either annulus on a theta sample twice as dense as the planner's
    final grid and offset from it by half a sample step."""
    plan = planner["plan"]
    step = _single_step(plan)
    annuli = planner["annuli"]
    results = plan["avoidance"]
    _require(len(results) == len(annuli), f"{len(results)} avoidance results for {len(annuli)} annuli")
    b = automorphism_diagonal(numpy_roots(matrix))
    i, j = step["axes"]
    fixed = np.delete(b, [i, j])
    a = float(step["angle"])
    for k, (res, ann) in enumerate(zip(results, annuli)):
        _require(res["ok"] and res["certified"], f"avoidance result {k} is not certified: {res}")
        n = 2 * int(res["grid"])
        thetas = (np.arange(n) + 0.5) * (a / n)
        # R_theta fixes every axis off the plane, so the other seven moduli stay put.
        moving = _pair_moduli(b[i], b[j], thetas)
        _require(not _annulus_hits(fixed, ann).any(), f"a fixed modulus lies in annulus {ann}")
        hits = _annulus_hits(moving, ann).any(axis=1)
        _require(not hits.any(), f"modulus inside annulus {ann} at theta={thetas[hits][:1]}")


def check_domination(matrix: Sequence[Sequence[int]], planner: dict, certification: dict) -> None:
    """For each annulus, rebuild M = (R_theta D)^n / beta^n at the reported
    exponent and worst theta; the smallest eigenvalue of
    S_tgt - lam S_img (S_tgt = M^T M - I, S_img = I - M^-T M^-1) at the
    reported multiplier reproduces the reported margin, which clears the
    margin floor."""
    step = _single_step(planner["plan"])
    w = certification["witness"]
    n = int(w["exponent"])
    d = np.diag(automorphism_diagonal(numpy_roots(matrix)))
    eye = np.eye(9)
    rows = zip(planner["annuli"], w["worst_thetas"], w["multipliers"], w["worst_margins"])
    for k, ((_, beta), theta, lam, margin) in enumerate(rows):
        m = np.linalg.matrix_power(_rotation(step["axes"], theta) @ d, n) / beta**n
        minv = np.linalg.inv(m)
        s_tgt = m.T @ m - eye
        s_img = eye - minv.T @ minv
        combo = s_tgt - lam * s_img
        recomputed = float(np.linalg.eigvalsh(combo)[0])
        # eigvalsh is accurate to a few ulps of the matrix norm, which for
        # large n and small beta dwarfs the margin itself.
        tol = 8.0 * np.finfo(float).eps * float(np.linalg.norm(combo, 2))
        _require(
            abs(recomputed - margin) <= tol,
            f"annulus {k}: recomputed margin {recomputed!r} != reported {margin!r} (tolerance {tol:.3e})",
        )
        _require(margin >= w["margin_floor"], f"annulus {k}: margin {margin!r} below floor {w['margin_floor']!r}")


def check_robustness(certification: dict, mc_trials: int) -> None:
    """Zero Monte-Carlo failures out of the configured trial count."""
    rob = certification["robustness"]
    _require(rob["trials"] == mc_trials, f"robustness ran {rob['trials']} trials, configured {mc_trials}")
    _require(rob["failures"] == 0, f"robustness: {rob['failures']} failures out of {rob['trials']}")
    _require(rob["delta"] > 0.0, f"robustness radius {rob['delta']!r} is not positive")


def check_undeformed_rates(matrix: Sequence[Sequence[int]], rates: dict) -> None:
    """The undeformed map's measured nu and nu_hat reproduce l1 and 1/l3 within 1e-6."""
    l1, _, l3 = numpy_roots(matrix)
    oracle = rates["undeformed_oracle"]
    for field, ref in (("nu_measured", l1), ("nu_hat_measured", 1.0 / l3)):
        err = abs(oracle[field] - ref)
        _require(err <= 1e-6, f"undeformed {field} {oracle[field]!r} is {err:.3e} from {ref!r}")


def check_sweep(points: Sequence[Sequence[float]], supports: Sequence[float]) -> None:
    """(support_scale, deviation) rows: the configured ladder then the zero
    control; deviations strictly decrease to below 1e-3 and the control is 0."""
    scales = [float(p[0]) for p in points]
    _require(scales == [*map(float, supports), 0.0], f"sweep scales {scales} != {list(supports)} + [0]")
    ladder = [float(p[1]) for p in points[:-1]]
    for a, b in zip(ladder, ladder[1:]):
        _require(a > b, f"sweep ladder not strictly decreasing: {ladder}")
    _require(ladder[-1] < 1e-3, f"final sweep deviation {ladder[-1]!r} is not below 1e-3")
    _require(float(points[-1][1]) == 0.0, f"zero-support control is {points[-1][1]!r}, not 0")


def check_certify_report(report: dict, config: dict) -> None:
    """Every check on a full ``certify`` report produced from ``config``."""
    _require(report.get("verdict") == "PASS", f"verdict {report.get('verdict')!r}, failures {report.get('failures')}")
    stages = report["stages"]
    for name, frag in stages.items():
        _require(frag.get("status") == "pass", f"stage {name} status {frag.get('status')!r}")
    matrix = config["matrix"]
    check_roots(matrix, stages["matrix"]["roots"])
    check_plan(matrix, stages["planner"], config.get("surplus", 0.05))
    check_avoidance(matrix, stages["planner"])
    check_domination(matrix, stages["planner"], stages["certification"])
    check_robustness(stages["certification"], config["mc_trials"])
    check_undeformed_rates(matrix, stages["rates"])
    sweep = stages["sweep"]["points"]
    check_sweep([(p["support_scale"], p["deviation"]) for p in sweep], report["config"]["sweep_supports"])
