"""Determinant-preserving eigenvalue surgery by in-plane rotations.

Given a linear map with simple real spectrum, composing it with a
rotation in a 2-plane spanned by two of its eigendirections changes the
two eigenvalues in that plane while preserving their product (the
in-plane determinant) and leaving the rest of the spectrum untouched.
This module plans sequences of such rotations that push a chosen
sub-unit eigenvalue modulus above one — breaking global hyperbolicity
while keeping a dominated splitting — and provides the supporting
checks:

* :func:`annulus_avoidance` — certifies that the whole rotated family
  ``R_theta . D`` keeps its eigenvalue moduli outside a given annulus,
  with a rigorous inter-grid Lipschitz bound and automatic grid
  densification.  The grid is evaluated as stacks of rotated maps, one
  stacked ``eig`` and ``cond`` per chunk of angles; for diagonal ``D``
  the result is bit-identical to evaluating one angle at a time;
* :func:`find_realifying_angle` — the smallest rotation making a
  complex eigenvalue pair real;
* :func:`jordan_detuning` — a small rotation splitting a Jordan block
  into distinct real eigenvalues;
* :func:`plan_center_collapse` — the redistribution plan itself.

Planned angles are solved by bisection on the trace, which is monotone
in ``cos(theta)``; all closed-form identities are used only to seed and
to cross-check the bisection.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .deformation import RotationPlane
from .nilmanifold import DIM

__all__ = [
    "PlanningError",
    "AnnulusSpec",
    "AvoidanceResult",
    "LabeledSpectrum",
    "PlanStep",
    "RedistributionPlan",
    "annulus_avoidance",
    "in_plane_eigen",
    "solve_plane_rotation_angle",
    "find_realifying_angle",
    "jordan_detuning",
    "check_realification_admissible",
    "plan_center_collapse",
    "apply_plan",
]

_MIN_GRID = 100
# Angles per stacked eig/cond call in annulus_avoidance; sized for memory.
_THETA_CHUNK = 128


class PlanningError(ValueError):
    """Raised when no admissible rotation plan exists for the inputs."""


# ---------------------------------------------------------------------------
# Annulus avoidance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnulusSpec:
    """A closed annulus ``alpha_q <= |z| <= beta_q`` in the complex plane."""

    alpha_q: float
    beta_q: float

    def __post_init__(self) -> None:
        if not (0 < self.alpha_q < self.beta_q):
            raise ValueError(
                f"need 0 < alpha_q < beta_q, got ({self.alpha_q}, {self.beta_q})"
            )

    def distance(self, modulus: float) -> float:
        """Signed distance of a modulus to the annulus (negative inside)."""
        if modulus < self.alpha_q:
            return self.alpha_q - modulus
        if modulus > self.beta_q:
            return modulus - self.beta_q
        return -min(modulus - self.alpha_q, self.beta_q - modulus)


@dataclass(frozen=True)
class AvoidanceResult:
    """Outcome of an annulus-avoidance sweep.

    ``ok`` records that every grid eigenvalue cleared the annulus;
    ``certified`` additionally records that the inter-grid Lipschitz
    bound is below the observed clearance margin, so the whole
    continuous family avoids the annulus, not just the sampled maps.
    """

    ok: bool
    certified: bool
    margin: float
    lip_bound: float
    grid: int
    densifications: int
    violations: tuple[tuple[float, complex], ...] = ()

    def describe(self) -> str:
        if not self.ok:
            th, ev = self.violations[0]
            return (
                f"violation at theta={th:.6f}: eigenvalue {ev:.6g} inside annulus"
            )
        cert = "certified" if self.certified else (
            f"grid-only (needs denser grid; bound {self.lip_bound:.3e} "
            f">= margin {self.margin:.3e})"
        )
        return (
            f"avoided with margin {self.margin:.6e} on grid {self.grid} "
            f"({self.densifications} densifications), {cert}"
        )


def annulus_avoidance(
    dq: np.ndarray,
    plane: RotationPlane,
    a: float,
    ann: AnnulusSpec,
    grid: int = 1024,
    max_densifications: int = 6,
) -> AvoidanceResult:
    """Certify that ``R_theta . dq`` avoids an annulus for all theta in [0, a].

    Eigenvalue moduli are checked on a uniform theta grid.  Between grid
    points, eigenvalue motion is bounded by the Bauer-Fike estimate
    ``kappa(V_theta) * |dtheta| * ||dq||_2`` (rotations move by at most
    ``|dtheta|`` in spectral norm, and ``kappa`` is the eigenbasis
    condition number at the grid point); each grid point covers half a
    step on either side.  If the grid passes but the bound does not
    clear the margin, the grid is doubled up to ``max_densifications``
    times — the result records how much densification was needed.

    The grid is evaluated in chunks of ``_THETA_CHUNK`` angles: one
    ``(k, n, n)`` stack of rotated maps, one stacked ``eig`` and one
    stacked ``cond`` per chunk, and array arithmetic for the distances,
    margins, bounds and violations.  Each rotation is formed in the
    operation order of :meth:`RotationPlane.rotation_matrix`, from
    ``math.cos``/``math.sin``; moduli use ``hypot`` (as scalar ``abs``
    does); and a grid point whose eigenvalues are all real has its
    condition number taken on the real eigenbasis, as a single ``eig``
    would return it.  So for diagonal ``dq`` — every single-step and
    modulus-one plan — the result equals a per-angle evaluation bit for
    bit.  For a general ``dq`` the stacked product ``R_theta . dq`` may
    round differently in the last place, which moves ``margin`` and
    ``lip_bound`` by rounding only.

    With ``a = 0`` the sweep degenerates to a single eigenvalue check of
    ``dq`` and the certificate is exact.

    Raises ``ValueError`` for ``grid < 100`` or negative ``a``.
    """
    if grid < _MIN_GRID:
        raise ValueError(f"grid must be at least {_MIN_GRID}, got {grid}")
    if a < 0:
        raise ValueError("rotation range must be nonnegative")
    dq = np.asarray(dq, dtype=float)
    norm_dq = float(np.linalg.norm(dq, 2))
    eye = np.eye(len(plane.e1))
    proj = np.outer(plane.e1, plane.e1) + np.outer(plane.e2, plane.e2)
    gen = plane.generator

    n_grid = grid
    densifications = 0
    while True:
        if a == 0.0:
            thetas = np.array([0.0])
            half_step = 0.0
        else:
            thetas = np.linspace(0.0, a, n_grid)
            half_step = a / (n_grid - 1) / 2.0
        margin = math.inf
        lip = 0.0
        point_certified = True
        violations: list[tuple[float, complex]] = []
        for start in range(0, len(thetas), _THETA_CHUNK):
            chunk = thetas[start : start + _THETA_CHUNK].tolist()
            ct = np.array([math.cos(t) for t in chunk])
            st = np.array([math.sin(t) for t in chunk])
            rot = eye + (ct - 1.0)[:, None, None] * proj
            rot += st[:, None, None] * gen
            evals, vecs = np.linalg.eig(rot @ dq)
            dist = _annulus_distance(ann, np.hypot(evals.real, evals.imag))
            for i, j in zip(*np.nonzero(dist <= 0)):
                violations.append((chunk[i], complex(evals[i, j])))
            local_margin = np.fmin.reduce(dist, axis=1, initial=math.inf)
            margin = float(np.fmin.reduce(local_margin, initial=margin))
            # Rotations within half a step of a grid point perturb the map
            # by at most half_step in spectral norm; Bauer-Fike moves the
            # eigenvalues by at most kappa(V) times that.
            local_bound = _eigenbasis_cond(evals, vecs) * half_step * norm_dq
            lip = float(np.fmax.reduce(local_bound, initial=lip))
            if np.any(local_bound >= local_margin):
                point_certified = False
        ok = not violations
        certified = ok and point_certified
        if not ok or certified or densifications >= max_densifications:
            return AvoidanceResult(
                ok=ok,
                certified=certified,
                margin=margin,
                lip_bound=lip,
                grid=len(thetas),
                densifications=densifications,
                violations=tuple(violations),
            )
        n_grid *= 2
        densifications += 1


def _annulus_distance(ann: AnnulusSpec, moduli: np.ndarray) -> np.ndarray:
    """:meth:`AnnulusSpec.distance` applied elementwise."""
    inside = -np.minimum(moduli - ann.alpha_q, ann.beta_q - moduli)
    return np.where(
        moduli < ann.alpha_q,
        ann.alpha_q - moduli,
        np.where(moduli > ann.beta_q, moduli - ann.beta_q, inside),
    )


def _eigenbasis_cond(evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Condition numbers of a stack of eigenbases, one per matrix.

    A stacked ``eig`` returns complex eigenvectors for the whole stack as
    soon as one matrix has a complex pair.  Matrices whose eigenvalues
    are all real get the condition number of their real eigenbasis, as
    an unstacked ``eig`` would have returned it.
    """
    if not np.iscomplexobj(vecs):
        return np.linalg.cond(vecs)
    real_rows = np.all(evals.imag == 0.0, axis=1)
    cond = np.empty(len(vecs))
    if real_rows.any():
        cond[real_rows] = np.linalg.cond(vecs[real_rows].real)
    if not real_rows.all():
        cond[~real_rows] = np.linalg.cond(vecs[~real_rows])
    return cond


# ---------------------------------------------------------------------------
# In-plane eigenvalue computations
# ---------------------------------------------------------------------------


def in_plane_eigen(c: float, u: float, theta: float) -> tuple[complex, complex]:
    """Eigenvalues of ``R_theta . diag(c, u)`` restricted to the plane.

    The trace is ``(c + u) cos(theta)`` and the determinant is exactly
    ``c u`` for every angle; the pair is real precisely when
    ``trace^2 >= 4 c u``.  Returned in ascending order of modulus (for a
    conjugate pair, positive imaginary part first).
    """
    tr = (c + u) * math.cos(theta)
    det = c * u
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        s = math.sqrt(disc)
        pair = (complex((tr - s) / 2.0), complex((tr + s) / 2.0))
    else:
        s = cmath.sqrt(complex(disc))
        pair = ((tr - s) / 2.0, (tr + s) / 2.0)
    return tuple(sorted(pair, key=lambda z: (abs(z), -z.imag)))  # type: ignore[return-value]


def solve_plane_rotation_angle(
    p: float, q: float, target_trace: float, tol: float = 1e-10
) -> float:
    """Smallest angle with ``trace(R_theta . diag(p, q)) = target_trace``.

    The trace ``(p + q) cos(theta)`` is monotone on ``[0, pi]``, so the
    angle is found by bisection to the requested tolerance.  Raises
    :class:`PlanningError` when the target trace is outside the
    reachable range ``[-(p+q), p+q]``.
    """
    s = p + q
    if abs(target_trace) > abs(s):
        raise PlanningError(
            f"target trace {target_trace:.6g} unreachable by rotation: "
            f"|trace| is bounded by {abs(s):.6g}"
        )
    if s == 0:
        raise PlanningError("degenerate pair: p + q = 0")
    lo, hi = 0.0, math.pi
    f = lambda th: s * math.cos(th) - target_trace  # noqa: E731
    flo = f(lo)
    if flo < 0:
        # s < 0 with target above s*cos(0); mirror to keep flo >= 0 > fhi.
        f = lambda th: target_trace - s * math.cos(th)  # noqa: E731
        flo = f(lo)
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# Realification and detuning
# ---------------------------------------------------------------------------


def _disc_2x2(m: np.ndarray, theta: float) -> float:
    tr = (m[0, 0] + m[1, 1]) * math.cos(theta) + (m[0, 1] - m[1, 0]) * math.sin(
        theta
    )
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return tr * tr - 4.0 * det


def find_realifying_angle(m2: np.ndarray, tol: float = 1e-10) -> float:
    """Smallest ``a > 0`` making the eigenvalues of ``R_a . m2`` real.

    The discriminant of the rotated 2x2 map is
    ``(T^2 + D^2) cos^2(theta - theta*) - 4 det`` with ``T`` the trace,
    ``D`` the skew part ``m01 - m10`` and ``theta* = atan2(D, T)``; the
    identity ``T^2 + D^2 - 4 det = (m00 - m11)^2 + (m01 + m10)^2 >= 0``
    shows a realifying angle always exists, degenerating to a touching
    point exactly for conformal maps (where the eigenvalue pair keeps
    its modulus for every angle until realification).  The band entry
    angle from the closed form is refined by sign-change bisection to
    ``tol`` whenever the band has numerical width.

    Inputs with real eigenvalues return ``0.0``.
    """
    m2 = np.asarray(m2, dtype=float)
    if m2.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if _disc_2x2(m2, 0.0) >= 0.0:
        return 0.0
    t = m2[0, 0] + m2[1, 1]
    d = m2[0, 1] - m2[1, 0]
    det = m2[0, 0] * m2[1, 1] - m2[0, 1] * m2[1, 0]
    amp = t * t + d * d
    # Complex pair forces det > trace^2/4 >= 0.
    cphi = min(1.0, 2.0 * math.sqrt(det) / math.sqrt(amp))
    delta = math.acos(cphi)  # half-width of the real band around theta*
    theta_star = math.atan2(d, t)
    a = (theta_star - delta) % math.pi
    if a < 1e-13:
        a = math.pi
    if delta <= 1e-9:
        # Conformal (touching) case: the closed form is the answer; there is
        # no sign change to bisect.
        return a
    # Bracket the band entry: disc < 0 just below a, >= 0 just above.
    h = min(delta, 1e-3, a / 2)
    lo, hi = a - h, a + h
    # Guard the bracket (floating point may have put `a` slightly inside).
    while _disc_2x2(m2, lo) >= 0.0 and a - lo < delta:
        lo = a - 2 * (a - lo)
    while _disc_2x2(m2, hi) < 0.0 and hi - a < delta:
        hi = a + 2 * (hi - a)
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if _disc_2x2(m2, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def jordan_detuning(lam: float, b: float, theta_max: float = 0.1) -> float:
    """Small rotation splitting a 2x2 Jordan block into distinct real pair.

    For the block ``[[lam, b], [0, lam]]`` the rotated trace is
    ``2 lam cos(theta) + b sin(theta)``; choosing ``sign(theta) =
    sign(b * lam)`` makes the trace magnitude grow to first order, so a
    small rotation pushes ``trace^2`` strictly above ``4 lam^2`` (the
    determinant is rotation-invariant).  The returned angle has
    ``|theta| <= theta_max``, halved from ``theta_max`` until the strict
    inequality holds.

    Raises :class:`PlanningError` for ``b = 0`` (not a Jordan block) or
    ``lam = 0``.
    """
    if b == 0:
        raise PlanningError("b = 0 is not a Jordan block; nothing to detune")
    if lam == 0:
        raise PlanningError("zero eigenvalue cannot be detuned by rotation")
    theta = math.copysign(theta_max, b * lam)
    for _ in range(80):
        tr = 2.0 * lam * math.cos(theta) + b * math.sin(theta)
        if tr * tr > 4.0 * lam * lam:
            return theta
        theta /= 2.0
    raise PlanningError(
        f"no detuning angle found below {theta_max} for lam={lam}, b={b}"
    )


def check_realification_admissible(
    m2: np.ndarray, annuli: Sequence[AnnulusSpec]
) -> None:
    """Reject realification of a pair whose modulus sits in a domination annulus.

    A complex pair keeps its modulus ``sqrt(det)`` until the realifying
    angle, so if that modulus lies inside an annulus the rotated family
    cannot avoid it.  Raises :class:`PlanningError` in that case.
    """
    m2 = np.asarray(m2, dtype=float)
    if _disc_2x2(m2, 0.0) >= 0.0:
        return
    modulus = math.sqrt(m2[0, 0] * m2[1, 1] - m2[0, 1] * m2[1, 0])
    for ann in annuli:
        if ann.distance(modulus) <= 0:
            raise PlanningError(
                f"complex pair of modulus {modulus:.6g} lies inside the "
                f"domination annulus [{ann.alpha_q:.6g}, {ann.beta_q:.6g}]; "
                "realification would cross it"
            )


# ---------------------------------------------------------------------------
# Redistribution planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledSpectrum:
    """Simple positive eigenvalue moduli labeled stable/center/unstable.

    Each entry is a ``(modulus, axis)`` pair tying the modulus to a
    coordinate axis of the diagonal input map.  Counts are the
    conventional ``k`` (stable), ``l`` (center), ``m`` (unstable).
    """

    stable: tuple[tuple[float, int], ...]
    center: tuple[tuple[float, int], ...]
    unstable: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        axes = [a for _, a in self.stable + self.center + self.unstable]
        if len(set(axes)) != len(axes):
            raise ValueError("each axis may carry exactly one modulus")
        for v, _ in self.stable + self.center + self.unstable:
            if not (v > 0):
                raise ValueError("moduli must be positive")
        for v, _ in self.stable:
            if not v < 1:
                raise ValueError("stable moduli must be below one")
        for v, _ in self.unstable:
            if not v > 1:
                raise ValueError("unstable moduli must exceed one")

    @property
    def counts(self) -> dict[str, int]:
        return {"k": len(self.stable), "l": len(self.center), "m": len(self.unstable)}

    @property
    def dimension(self) -> int:
        return len(self.stable) + len(self.center) + len(self.unstable)

    def product(self) -> float:
        out = 1.0
        for v, _ in self.stable + self.center + self.unstable:
            out *= v
        return out

    def diagonal_matrix(self, dim: int = DIM) -> np.ndarray:
        """The diagonal map carrying each modulus on its axis."""
        d = np.ones(dim)
        for v, a in self.stable + self.center + self.unstable:
            if not 0 <= a < dim:
                raise ValueError(f"axis {a} out of range for dimension {dim}")
            d[a] = v
        return np.diag(d)

    @classmethod
    def from_diagonal(
        cls, diag: Sequence[float], ann_lower: AnnulusSpec, ann_upper: AnnulusSpec
    ) -> "LabeledSpectrum":
        """Label a diagonal by two separating annuli.

        Moduli below the lower annulus are stable, between the annuli
        center, above the upper annulus unstable.  A modulus inside
        either annulus is a labeling failure (:class:`PlanningError`).
        """
        stable, center, unstable = [], [], []
        for axis, v in enumerate(diag):
            mod = abs(float(v))
            if ann_lower.distance(mod) <= 0 or ann_upper.distance(mod) <= 0:
                raise PlanningError(
                    f"modulus {mod:.6g} on axis {axis} lies inside a "
                    "separating annulus; cannot label"
                )
            if mod < ann_lower.alpha_q:
                stable.append((mod, axis))
            elif mod > ann_upper.beta_q:
                unstable.append((mod, axis))
            else:
                center.append((mod, axis))
        return cls(
            stable=tuple(stable), center=tuple(center), unstable=tuple(unstable)
        )


@dataclass(frozen=True)
class PlanStep:
    """One planned in-plane rotation."""

    plane: RotationPlane
    angle: float
    input_pair: tuple[float, float]
    target_pair: tuple[float, float]
    axes: tuple[int, int]  # (accumulator seed axis, partner axis)

    def to_json_dict(self) -> dict:
        return {
            "angle": self.angle,
            "axes": list(self.axes),
            "input_pair": list(self.input_pair),
            "target_pair": list(self.target_pair),
            "plane_e1": [float(x) for x in self.plane.e1],
            "plane_e2": [float(x) for x in self.plane.e2],
        }


@dataclass(frozen=True)
class RedistributionPlan:
    """A sequence of in-plane rotations redistributing eigenvalue moduli.

    ``branch`` is one of ``"modulus_one"`` (a center pair straddling one
    is rotated so one modulus equals one exactly), ``"single_step"``
    (one center modulus and the top unstable modulus are replaced by
    ``(1 + s, product/(1 + s))``) or ``"chain"`` (the general
    redistribution: each unstable modulus is replaced in turn by ``mu``
    while the accumulator collects the surplus).

    In the Anosov-breaking branches ``mu > 1`` and the final spectrum
    has no modulus near one; in the modulus-one branch ``mu == 1``.
    """

    steps: tuple[PlanStep, ...]
    mu: float
    labels: dict[str, int]
    branch: str
    final_moduli: tuple[float, ...]
    avoidance: tuple[AvoidanceResult, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.branch not in ("modulus_one", "single_step", "chain"):
            raise ValueError(f"unknown branch {self.branch!r}")
        if self.branch == "modulus_one":
            if self.mu != 1.0:
                raise ValueError("modulus-one branch must record mu = 1")
        elif not self.mu > 1.0:
            raise ValueError("Anosov-breaking branches need mu > 1")

    def to_json_dict(self) -> dict:
        return {
            "branch": self.branch,
            "mu": self.mu,
            "labels": dict(sorted(self.labels.items())),
            "steps": [s.to_json_dict() for s in self.steps],
            "final_moduli": list(self.final_moduli),
            "notes": list(self.notes),
            "avoidance": [
                {
                    "ok": r.ok,
                    "certified": r.certified,
                    "margin": r.margin,
                    "lip_bound": r.lip_bound,
                    "grid": r.grid,
                    "densifications": r.densifications,
                }
                for r in self.avoidance
            ],
        }


def apply_plan(diag_matrix: np.ndarray, plan: RedistributionPlan) -> np.ndarray:
    """Compose the planned rotations with the diagonal input map."""
    m = np.asarray(diag_matrix, dtype=float).copy()
    for step in plan.steps:
        m = step.plane.rotation_matrix(step.angle) @ m
    return m


def _acc_eigvec_after_step(
    plane: RotationPlane,
    angle: float,
    v_acc: np.ndarray,
    e_partner: np.ndarray,
    pair_in: tuple[float, float],
    target_big: float,
) -> np.ndarray:
    """Eigendirection of the accumulator after one planned rotation.

    Restricted to the rotation plane (in the orthonormal basis
    ``(v_acc, e_partner)``) the map before the step is
    ``diag(pair_in)``; the rotated 2x2 block has the accumulator
    eigenvalue ``target_big`` with an eigenvector computable in closed
    form, which is then lifted back to the ambient space.
    """
    p, q = pair_in
    ct, st = math.cos(angle), math.sin(angle)
    a00, a01 = ct * p, -st * q
    a10, a11 = st * p, ct * q
    # Solve (A - target) w = 0 via the better-conditioned row.
    r0 = (a00 - target_big, a01)
    r1 = (a10, a11 - target_big)
    row = r0 if math.hypot(*r0) >= math.hypot(*r1) else r1
    w = np.array([-row[1], row[0]])
    nw = float(np.hypot(w[0], w[1]))
    if nw == 0.0:
        raise PlanningError("degenerate eigenvector in planned 2x2 block")
    w /= nw
    v = w[0] * v_acc + w[1] * e_partner
    return v / float(np.linalg.norm(v))


def plan_center_collapse(
    eigs: LabeledSpectrum,
    s: float = 0.05,
    annuli: Sequence[AnnulusSpec] = (),
    grid: int = 1024,
    dim: int = DIM,
    product_tol: float = 1e-9,
) -> RedistributionPlan:
    """Plan rotations that collapse the center by pushing one modulus past one.

    Branches, in order of precedence:

    1. *modulus-one*: if two center moduli straddle one, a single
       rotation in their plane replaces them by ``(1, product)``.
    2. *single-step*: a center modulus ``c`` below one is paired with
       the largest unstable modulus ``u``; if ``c u / (1 + s)`` still
       exceeds every remaining unstable modulus (and ``1 + s``), one
       rotation replaces the pair by ``(1 + s, c u / (1 + s))``.
    3. *chain*: otherwise ``mu`` is set to the geometric midpoint of its
       feasible interval ``(1, min(u_min, (c * prod(u))^(1/2m)))`` and the
       unstable moduli are consumed in ascending order: step ``i``
       rotates the current accumulator against ``u_i``, replacing the
       pair ``(pi_i, u_i)`` by ``(pi_i u_i / mu, mu)``.  Each step
       preserves its in-plane product, so the final accumulated modulus
       is ``mu^(-m) c u_1 ... u_m > mu^m``.

    Every step is checked against the supplied domination annuli over
    its full rotation range.  Infeasible configurations (no center below
    one, empty ``mu`` interval, unreachable per-step trace, annulus
    violation) raise :class:`PlanningError` with a diagnostic.
    """
    if not eigs.center:
        raise PlanningError("no center moduli to collapse")
    if abs(eigs.product() - 1.0) > product_tol:
        raise PlanningError(
            f"moduli product {eigs.product():.12g} is not 1 within {product_tol}"
        )
    if not (s > 0):
        raise PlanningError("target surplus s must be positive")

    diag = eigs.diagonal_matrix(dim)
    notes: list[str] = []
    avoidance: list[AvoidanceResult] = []

    def run_avoidance(matrix: np.ndarray, plane: RotationPlane, angle: float) -> None:
        for ann in annuli:
            res = annulus_avoidance(matrix, plane, angle, ann, grid=grid)
            avoidance.append(res)
            if not res.ok:
                raise PlanningError(
                    "planned rotation violates a domination annulus: "
                    + res.describe()
                )

    centers = sorted(eigs.center)  # ascending by modulus
    # Tie-breaks are fixed for determinism: among equal moduli the smallest
    # axis index is preferred.
    below = sorted(
        (cv for cv in centers if cv[0] < 1.0), key=lambda t: (t[0], -t[1])
    )
    above = sorted((cv for cv in centers if cv[0] > 1.0))

    # Branch 1: modulus-one.
    if below and above:
        (c_lo, ax_lo), (c_hi, ax_hi) = below[-1], above[0]
        prod = c_lo * c_hi
        plane = RotationPlane.from_basis_indices(ax_lo, ax_hi, dim=dim)
        angle = solve_plane_rotation_angle(c_lo, c_hi, 1.0 + prod)
        run_avoidance(diag, plane, angle)
        step = PlanStep(
            plane=plane,
            angle=angle,
            input_pair=(c_lo, c_hi),
            target_pair=(1.0, prod),
            axes=(ax_lo, ax_hi),
        )
        final = [v for v, _ in eigs.stable + eigs.unstable]
        final += [v for v, a in centers if a not in (ax_lo, ax_hi)]
        final += [1.0, prod]
        notes.append(
            "modulus-one branch: center pair "
            f"({c_lo:.6g}, {c_hi:.6g}) rotated to (1, {prod:.6g})"
        )
        return RedistributionPlan(
            steps=(step,),
            mu=1.0,
            labels=eigs.counts,
            branch="modulus_one",
            final_moduli=tuple(sorted(final)),
            avoidance=tuple(avoidance),
            notes=tuple(notes),
        )

    if not below:
        raise PlanningError(
            "all center moduli exceed one; collapse is planned for the "
            "inverse map in that case and is not implemented here"
        )
    if not eigs.unstable:
        raise PlanningError("no unstable moduli available for redistribution")

    # The center modulus to promote: the largest below one (cheapest to move).
    c_val, c_axis = below[-1]
    unstable = sorted(eigs.unstable)  # ascending
    u_top_val, u_top_axis = unstable[-1]

    # Branch 2: single-step.
    p_total = c_val * u_top_val
    target_small = 1.0 + s
    target_big = p_total / target_small
    rest_max = unstable[-2][0] if len(unstable) >= 2 else 1.0
    if target_big > max(rest_max, target_small):
        plane = RotationPlane.from_basis_indices(c_axis, u_top_axis, dim=dim)
        angle = solve_plane_rotation_angle(
            c_val, u_top_val, target_small + target_big
        )
        run_avoidance(diag, plane, angle)
        step = PlanStep(
            plane=plane,
            angle=angle,
            input_pair=(c_val, u_top_val),
            target_pair=(target_small, target_big),
            axes=(c_axis, u_top_axis),
        )
        final = [v for v, _ in eigs.stable]
        final += [v for v, a in centers if a != c_axis]
        final += [v for v, a in unstable[:-1]]
        final += [target_small, target_big]
        notes.append(
            f"single-step branch: pair ({c_val:.6g}, {u_top_val:.6g}) "
            f"rotated to ({target_small:.6g}, {target_big:.6g}); feasibility "
            f"{p_total:.6g} > {rest_max:.6g}"
        )
        return RedistributionPlan(
            steps=(step,),
            mu=target_small,
            labels=eigs.counts,
            branch="single_step",
            final_moduli=tuple(sorted(final)),
            avoidance=tuple(avoidance),
            notes=tuple(notes),
        )

    # Branch 3: chain over all unstable moduli, ascending.
    m_count = len(unstable)
    u_prod = 1.0
    for v, _ in unstable:
        u_prod *= v
    upper = min(unstable[0][0], (c_val * u_prod) ** (1.0 / (2 * m_count)))
    if upper <= 1.0:
        raise PlanningError(
            "infeasible mu interval: upper bound "
            f"min(u_min, (c*prod u)^(1/2m)) = {upper:.6g} <= 1"
        )
    mu = math.sqrt(upper)  # geometric midpoint of (1, upper)

    steps: list[PlanStep] = []
    current = diag.copy()
    v_acc = np.zeros(dim)
    v_acc[c_axis] = 1.0
    acc = c_val
    for i, (u_val, u_axis) in enumerate(unstable):
        new_acc = acc * u_val / mu
        pair_in = (acc, u_val)
        pair_out = (new_acc, mu)
        if sum(pair_out) > sum(pair_in) + 1e-12:
            raise PlanningError(
                f"chain step {i + 1} infeasible at mu={mu:.6g}: target pair "
                f"{pair_out} needs trace {sum(pair_out):.6g} > reachable "
                f"{sum(pair_in):.6g} (mu must lie between the pair moduli)"
            )
        e_partner = np.zeros(dim)
        e_partner[u_axis] = 1.0
        plane = RotationPlane(e1=v_acc.copy(), e2=e_partner)
        angle = solve_plane_rotation_angle(acc, u_val, sum(pair_out))
        run_avoidance(current, plane, angle)
        steps.append(
            PlanStep(
                plane=plane,
                angle=angle,
                input_pair=pair_in,
                target_pair=pair_out,
                axes=(c_axis, u_axis),
            )
        )
        v_acc = _acc_eigvec_after_step(
            plane, angle, v_acc, e_partner, pair_in, new_acc
        )
        current = plane.rotation_matrix(angle) @ current
        acc = new_acc

    if not acc > mu**m_count:
        raise PlanningError(
            f"final accumulated modulus {acc:.6g} does not exceed "
            f"mu^m = {mu ** m_count:.6g}"
        )
    final = [v for v, _ in eigs.stable]
    final += [v for v, a in centers if a != c_axis]
    final += [mu] * m_count + [acc]
    notes.append(
        f"chain branch: mu = {mu:.6g} (geometric midpoint of (1, {upper:.6g})), "
        f"{m_count} steps, final accumulator {acc:.6g} > mu^m = {mu**m_count:.6g}"
    )
    return RedistributionPlan(
        steps=tuple(steps),
        mu=mu,
        labels=eigs.counts,
        branch="chain",
        final_moduli=tuple(sorted(final)),
        avoidance=tuple(avoidance),
        notes=tuple(notes),
    )
