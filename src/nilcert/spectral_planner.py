"""Determinant-preserving eigenvalue surgery by one in-plane rotation.

Given a diagonal map with simple real spectrum, composing it with a
rotation in the coordinate plane of two of its axes changes the two
eigenvalues in that plane while preserving their product (the in-plane
determinant) and leaving the rest of the spectrum untouched.  This
module plans the one such rotation that pushes a sub-unit center
modulus above one — breaking global hyperbolicity while keeping a
dominated splitting — and provides the supporting checks:

* :func:`annulus_avoidance` — decides in closed form whether the whole
  rotated family ``R_theta . D`` keeps its eigenvalue moduli outside a
  given annulus: the moving moduli fill two explicit intervals and the
  others stay put.  It certifies the answer with outward rounding; no
  angle is sampled;
* :func:`plan_center_collapse` — the plan itself, or a
  :class:`PlanningError` naming why one rotation cannot plan the
  spectrum.

The planned angle is solved by bisection on the trace, which is
monotone in ``cos(theta)``; closed-form identities are used only to
seed and to cross-check the bisection.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from typing import Sequence

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
    "plan_center_collapse",
    "apply_plan",
]

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
    """Outcome of deciding annulus avoidance for one rotated family.

    ``ok`` records that every modulus of the family clears the annulus in
    floating point, by the signed ``margin``; ``certified`` that it still
    does with every value widened outward by its rounding error, which
    lowers the margin by ``error_bound``.  No grid is sampled: ``grid``
    echoes the planner's ``theta_grid`` and ``densifications`` is 0.
    """

    ok: bool
    certified: bool
    margin: float
    error_bound: float
    grid: int
    densifications: int = 0

    def describe(self) -> str:
        if not self.ok:
            return f"a modulus lies inside the annulus (margin {self.margin:.6e})"
        if not self.certified:
            return f"error bound {self.error_bound:.3e} >= margin {self.margin:.3e}"
        return f"certified with margin {self.margin:.6e}"


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def annulus_avoidance(
    pair: tuple[float, float],
    fixed_moduli: Sequence[float],
    a: float,
    ann: AnnulusSpec,
    grid: int,
) -> AvoidanceResult:
    """Decide whether ``R_theta . D`` avoids an annulus for all theta in [0, a].

    ``R_theta`` rotates a plane spanned by two eigendirections of ``D``
    with moduli ``pair = (p, q)``; ``fixed_moduli`` are the other moduli,
    which the rotation does not move.  On the plane the family is
    ``R_theta . diag(p, q)``, with trace ``(p + q) cos(theta)`` and
    determinant ``p q``.  Its moduli depend only on ``|trace|``, which runs
    from ``T = (p + q) cos(min(a, pi/2))`` to ``p + q``, so they fill
    ``[min(p, q), s(T)]`` and ``[b(T), max(p, q)]``: ``s(T) <= b(T)`` are the
    root moduli of ``z^2 - T z + p q``, both ``sqrt(p q)`` if ``T^2 < 4 p q``.

    ``ok`` and ``margin`` come from the float values, with the small root
    taken as ``p q / b(T)``, which does not cancel.  ``certified`` is
    decided on enclosures: each input modulus is widened by one unit in the
    last place, and each operation is rounded outward with
    ``math.nextafter`` (``cos`` by two units), so a margin inside its own
    rounding error does not certify.  ``grid`` is recorded, not sampled.
    """
    if a < 0:
        raise ValueError("rotation range must be nonnegative")
    p, q = pair
    lo, hi = min(p, q), max(p, q)
    big = abs(in_plane_eigen(p, q, min(a, math.pi / 2))[1])
    margin = _margin(
        ann,
        [(lo, max(lo, p * q / big)), (min(big, hi), hi)]
        + [(m, m) for m in fixed_moduli],
    )

    pq_lo, pq_hi = _down(_down(p) * _down(q)), _up(_up(p) * _up(q))
    t_lo = 0.0  # a lower bound on |trace| over [0, a]
    if a < math.pi / 2:
        cos_lo = _down(_down(math.cos(a)))
        t_lo = max(0.0, _down(_down(_down(p) + _down(q)) * cos_lo))
    disc_lo = _down(_down(t_lo * t_lo) - 4.0 * pq_hi)
    if disc_lo < 0.0:
        small_hi, big_lo = _up(math.sqrt(pq_hi)), _down(math.sqrt(pq_lo))
    else:
        den_lo = _down(t_lo + _down(math.sqrt(disc_lo)))
        small_hi, big_lo = _up(2.0 * pq_hi / den_lo), _down(den_lo / 2.0)
    enclosed = _margin(
        ann,
        [(_down(lo), small_hi), (big_lo, _up(hi))]
        + [(_down(m), _up(m)) for m in fixed_moduli],
    )
    ok = margin > 0
    return AvoidanceResult(
        ok=ok,
        certified=ok and enclosed > 0,
        margin=margin,
        error_bound=margin - enclosed,
        grid=grid,
    )


def _margin(ann: AnnulusSpec, intervals: list[tuple[float, float]]) -> float:
    """Smallest :meth:`AnnulusSpec.distance` over closed intervals.

    The distance falls up to the annulus's mid-radius and rises after it,
    so on each interval it is smallest at the point nearest the mid-radius.
    """
    mid = 0.5 * (ann.alpha_q + ann.beta_q)
    return min(ann.distance(min(max(mid, lo), hi)) for lo, hi in intervals)


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
    """One planned in-plane rotation; ``axes`` are its plane's
    (promoted center axis, partner axis)."""

    plane: RotationPlane
    angle: float
    input_pair: tuple[float, float]
    target_pair: tuple[float, float]

    @property
    def axes(self) -> tuple[int, int]:
        return self.plane.axes

    def to_json_dict(self) -> dict:
        return {
            "angle": self.angle,
            "axes": list(self.axes),
            "input_pair": list(self.input_pair),
            "target_pair": list(self.target_pair),
        }


@dataclass(frozen=True)
class RedistributionPlan:
    """The one in-plane rotation that pushes a center modulus past one.

    ``steps`` holds that rotation, and ``mu = 1 + s`` is the modulus it
    moves the center modulus to.  The JSON form records the step as a
    one-element ``"steps"`` list under ``"branch": "single_step"``.
    """

    steps: tuple[PlanStep]
    mu: float
    labels: dict[str, int]
    final_moduli: tuple[float, ...]
    avoidance: tuple[AvoidanceResult, ...] = ()
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "branch": "single_step",
            "mu": self.mu,
            "labels": dict(sorted(self.labels.items())),
            "steps": [s.to_json_dict() for s in self.steps],
            "final_moduli": list(self.final_moduli),
            "notes": list(self.notes),
            "avoidance": [asdict(r) for r in self.avoidance],
        }


def apply_plan(diag_matrix: np.ndarray, plan: RedistributionPlan) -> np.ndarray:
    """Compose the planned rotation with the diagonal input map."""
    (step,) = plan.steps
    return step.plane.rotation_matrix(step.angle) @ np.asarray(diag_matrix, dtype=float)


def plan_center_collapse(
    eigs: LabeledSpectrum,
    s: float = 0.05,
    annuli: Sequence[AnnulusSpec] = (),
    grid: int = 1024,
    dim: int = DIM,
    product_tol: float = 1e-9,
) -> RedistributionPlan:
    """Plan the rotation that collapses the center by pushing one modulus past one.

    The largest center modulus ``c`` below one is paired with the largest
    unstable modulus ``u``.  If ``c u / (1 + s)`` exceeds both the rest of
    the unstable moduli and ``1 + s``, one rotation in the coordinate
    plane of their axes replaces the pair by ``(1 + s, c u / (1 + s))``;
    among equal center moduli the smallest axis is promoted.  The rotation
    is checked against the supplied domination annuli over its full
    range.

    Every spectrum that one such step cannot plan raises
    :class:`PlanningError` naming the reason: no center modulus, a product
    other than one, ``1 + s`` not above one, a center that straddles one
    or lies above it, no unstable modulus, ``c u / (1 + s)`` not above
    ``max(rest, 1 + s)``, an unreachable trace, or an annulus violation.
    """
    if not eigs.center:
        raise PlanningError("no center moduli to collapse")
    if abs(eigs.product() - 1.0) > product_tol:
        raise PlanningError(
            f"moduli product {eigs.product():.12g} is not 1 within {product_tol}"
        )
    target_small = 1.0 + s
    if not (target_small > 1.0):
        raise PlanningError("target modulus 1 + s must exceed one")

    # Tie-breaks are fixed for determinism: among equal moduli the smallest
    # axis index is preferred.
    below = sorted(
        (cv for cv in eigs.center if cv[0] < 1.0), key=lambda t: (t[0], -t[1])
    )
    above = sorted(cv for cv in eigs.center if cv[0] > 1.0)
    if not below:
        raise PlanningError(
            "all center moduli exceed one; collapse is planned for the "
            "inverse map in that case and is not implemented here"
        )
    if above:
        raise PlanningError(
            f"the center straddles one: moduli {below[-1][0]:.6g} and "
            f"{above[0][0]:.6g}; one step plans only a center below one"
        )
    if not eigs.unstable:
        raise PlanningError("no unstable moduli available for redistribution")

    # The center modulus to promote: the largest below one (cheapest to move).
    c_val, c_axis = below[-1]
    unstable = sorted(eigs.unstable)  # ascending
    u_top_val, u_top_axis = unstable[-1]
    p_total = c_val * u_top_val
    target_big = p_total / target_small
    rest_max = unstable[-2][0] if len(unstable) >= 2 else 1.0
    if not target_big > max(rest_max, target_small):
        raise PlanningError(
            f"one step cannot plan the spectrum: c u/(1 + s) = {target_big:.6g} "
            f"does not exceed max(rest, 1 + s) = {max(rest_max, target_small):.6g}"
        )
    step = PlanStep(
        plane=RotationPlane(c_axis, u_top_axis, dim=dim),
        angle=solve_plane_rotation_angle(c_val, u_top_val, target_small + target_big),
        input_pair=(c_val, u_top_val),
        target_pair=(target_small, target_big),
    )

    # The planned modulus on each axis: the rotation moves only its pair.
    moduli = eigs.diagonal_matrix(dim).diagonal().tolist()
    fixed = [m for k, m in enumerate(moduli) if k not in step.axes]
    avoidance = []
    for ann in annuli:
        res = annulus_avoidance(step.input_pair, fixed, step.angle, ann, grid)
        avoidance.append(res)
        if not res.ok:
            raise PlanningError(
                "planned rotation violates a domination annulus "
                f"[{ann.alpha_q:.6g}, {ann.beta_q:.6g}]: " + res.describe()
            )
    moduli[c_axis], moduli[u_top_axis] = step.target_pair
    labelled = eigs.stable + eigs.center + eigs.unstable
    return RedistributionPlan(
        steps=(step,),
        mu=target_small,
        labels=eigs.counts,
        final_moduli=tuple(sorted(moduli[a] for _, a in labelled)),
        avoidance=tuple(avoidance),
        notes=(
            f"single-step branch: pair ({c_val:.6g}, {u_top_val:.6g}) "
            f"rotated to ({target_small:.6g}, {target_big:.6g}); feasibility "
            f"{p_total:.6g} > {rest_max:.6g}",
        ),
    )
