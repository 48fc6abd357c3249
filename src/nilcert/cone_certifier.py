"""Quadratic cone fields, domination certificates, and splitting extraction.

A dominated splitting is certified through quadratic cones: for a
threshold ``tau`` strictly between the extreme singular values of a
map, the cone of vectors expanded by at least ``tau`` has mixed
signature, and the map dominates at rate ``tau`` precisely when it
sends that cone strictly inside itself.  Strict containment of one
quadratic cone in another is decidable by the S-procedure: the cone of
``S_1`` lies in the open cone of ``S_2`` (zero excepted) iff
``S_2 - lam S_1`` is positive definite for some ``lam >= 0``, and the
best margin over ``lam`` is a concave scalar problem.

The certified maps ``(R_theta D)^n / tau^n`` turn one coordinate plane
of a diagonal map, so ``S_2 - lam S_1`` splits into seven scalars and
one 2x2 block; the margins over a theta grid come from one vectorized
golden-section search over those blocks (``_kernels.block_margins``).
Perturbed maps are full 9x9 matrices: each is decided by one rigorous
Cholesky test at a known multiplier, with the 9x9 search as fallback.

Building on this, the module finds uniform domination exponents for
rotated one-parameter families over a grid, derives a robustness radius
from the observed margins via explicit perturbation bounds, extracts
invariant splittings along orbits by re-orthonormalized cocycle
products, and measures the contraction/expansion/center rates that
enter the bunching inequality ``max(nu, nu_hat) < gamma gamma_hat``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._kernels import (
    block_margins,
    block_norms,
    containment_margin,
    grid_domination_margins,
    qr_product_forward,
    qr_product_pullback,
    rotated_blocks,
    rump_positive_definite,
)
from .deformation import RotationPlane
from .nilmanifold import DIM, AutomorphismSpec, LatticeSpec
from .spectral_planner import AnnulusSpec

__all__ = [
    "CertificationError",
    "DominationWitness",
    "find_domination_exponent",
    "RobustnessReport",
    "robustness_radius",
    "CocycleProduct",
    "cocycle_product",
    "LinearDynamics",
    "principal_angle",
    "splitting_distance",
    "subspace_intersection",
    "SplittingEstimate",
    "extract_splitting",
    "RateReport",
    "bunching_report",
    "SweepPoint",
    "splitting_deviation_sweep",
    "STRONG_STABLE_AXES",
    "CENTER_AXES",
    "EXPANDING_AXES",
]

# Coordinate axes of the three invariant bundles of the block-diagonal
# automorphism with per-plane multipliers (l1, l1, l1^2 | l2, l2, l2^2 |
# l3, l3, l3^2) and eigenvalue chain l2^2 < l1 < l2 < 1 < l3: the four
# most contracted directions, the two intermediate ones, and the three
# expanding ones.
STRONG_STABLE_AXES = (0, 1, 2, 5)
CENTER_AXES = (3, 4)
EXPANDING_AXES = (6, 7, 8)


class CertificationError(RuntimeError):
    """Raised when a certification search exhausts its budget."""


def _axes_frame(axes: Sequence[int], dim: int = DIM) -> np.ndarray:
    q = np.zeros((dim, len(axes)))
    for j, ax in enumerate(axes):
        q[ax, j] = 1.0
    return q


# ---------------------------------------------------------------------------
# Uniform domination exponent over a rotated family
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DominationWitness:
    """A uniform exponent certifying strict cone invariance on a grid.

    Per threshold, ``worst_margins`` is the smallest grid margin,
    ``worst_thetas`` its angle and ``multipliers`` its maximizing
    multiplier; of equal margins, the smallest theta wins.  The exponent
    was accepted because every grid margin, less its own rounding bound,
    clears ``margin_floor``.  The multiplier is searched in
    ``[0, lambda_cap]``; ``lambda_at_cap`` flags, per threshold, a grid
    point whose maximizer reached the cap, where a larger cap could give
    a larger margin.

    ``history`` keeps one row per attempted exponent — ``(n, margin_1,
    ..., margin_k)`` with the worst grid margin per threshold — so
    failed exponents remain inspectable and exportable.
    """

    exponent: int
    thresholds: tuple[float, ...]
    worst_margins: tuple[float, ...]
    worst_thetas: tuple[float, ...]
    multipliers: tuple[float, ...]
    grid: int
    margin_floor: float
    lambda_cap: float
    lambda_at_cap: tuple[bool, ...]
    history: tuple[tuple[float, ...], ...]

    def describe(self) -> str:
        pieces = ", ".join(
            f"tau={t:.4g}: margin {m:.4e} at theta={th:.4f}"
            for t, m, th in zip(
                self.thresholds, self.worst_margins, self.worst_thetas
            )
        )
        return f"n = {self.exponent} ({pieces})"


def _grid(a: float, grid: int) -> np.ndarray:
    if a < 0:
        raise ValueError("rotation range must be nonnegative")
    return np.linspace(0.0, a, grid) if a > 0 else np.array([0.0])


def find_domination_exponent(
    diag: np.ndarray,
    plane: RotationPlane,
    a: float,
    annuli: Sequence[AnnulusSpec],
    n_max: int = 64,
    grid: int = 1024,
    margin_floor: float = 1e-6,
    lam_hi: float = 8.0,
    tol: float = 1e-12,
) -> DominationWitness:
    """Smallest n making every n-step rotated map dominate strictly.

    For each exponent ``n`` and each annulus, the expansion cone at
    threshold ``beta^n`` (the annulus's upper edge, compounded) is
    tested for strict self-containment under ``(R_theta D)^n`` at every
    grid angle ``theta`` in ``[0, a]`` — the untwisted map is the
    ``theta = 0`` grid point.  The first exponent whose grid margins, each
    less its rounding bound, clear ``margin_floor`` for every annulus is
    returned; exhausting ``n_max`` raises :class:`CertificationError`
    carrying the margin history on the exception.  ``plane`` must be a
    coordinate plane (``ValueError`` otherwise).
    """
    diag = np.asarray(diag, dtype=float)
    thetas = _grid(a, grid)
    history: list[tuple[float, ...]] = []
    for n in range(1, n_max + 1):
        rows = [
            grid_domination_margins(
                diag, thetas, n, ann.beta_q, plane.e1, plane.e2, lam_hi, tol
            )
            for ann in annuli
        ]
        worst = [int(np.argmin(res[:, 0])) for res in rows]  # first of ties
        worst_margins = tuple(float(res[k, 0]) for res, k in zip(rows, worst))
        history.append((float(n), *worst_margins))
        if all((res[:, 0] - res[:, 2]).min() >= margin_floor for res in rows):
            return DominationWitness(
                exponent=n,
                thresholds=tuple(ann.beta_q**n for ann in annuli),
                worst_margins=worst_margins,
                worst_thetas=tuple(float(thetas[k]) for k in worst),
                multipliers=tuple(float(res[k, 1]) for res, k in zip(rows, worst)),
                grid=len(thetas),
                margin_floor=margin_floor,
                lambda_cap=float(lam_hi),
                lambda_at_cap=tuple(bool((res[:, 1] >= lam_hi - tol).any()) for res in rows),
                history=tuple(history),
            )
    err = CertificationError(
        f"no uniform exponent up to n_max={n_max} reaches margin "
        f"{margin_floor:g}; best row {max(history, key=lambda r: min(r[1:]))}"
    )
    err.history = tuple(history)  # type: ignore[attr-defined]
    raise err


# ---------------------------------------------------------------------------
# Robustness radius
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RobustnessReport:
    """A perturbation radius under which cone containment persists.

    ``delta`` bounds the spectral norm of an absolute perturbation of
    the n-step map.  It is derived from the grid margins through the
    explicit shift bound (see :func:`robustness_radius`) and then
    stress-tested by random perturbation trials at ``safety * delta``.
    ``fallbacks`` counts the trial-annulus checks whose Cholesky test
    failed and that ran the full margin search.
    """

    delta: float
    exponent: int
    per_threshold: tuple[float, ...]
    trials: int
    failures: int
    fallbacks: int
    safety: float
    seed: int


def robustness_radius(
    diag: np.ndarray,
    plane: RotationPlane,
    a: float,
    annuli: Sequence[AnnulusSpec],
    n: int,
    grid: int = 256,
    trials: int = 1000,
    seed: int = 0,
    safety: float = 0.99,
    lam_hi: float = 8.0,
    tol: float = 1e-12,
) -> RobustnessReport:
    """Largest certified perturbation radius for the n-step family.

    For a perturbation ``E`` of the threshold-normalized map ``M`` with
    ``d = |E|``, the cone matrices shift by at most

    ``|dS_tgt| <= 2 |M| d + d^2`` and
    ``|dS_img| <= 2 |M^-1|^2 e + (|M^-1| e)^2`` with
    ``e = |M^-1| d / (1 - |M^-1| d)``,

    so containment persists while ``shift(d) = |dS_tgt| + lam |dS_img|``
    stays below the unperturbed margin.  The radius is the infimum over
    the theta grid and the annuli of the bisected ``d``, rescaled to an
    absolute perturbation by ``tau^n``; margins and norms come from the
    block form, so ``plane`` must be a coordinate plane (``ValueError``
    otherwise).

    Monte Carlo trials then perturb the n-step map at ``safety * delta``
    in random directions at random angles (drawn per trial: the angle,
    then the 9x9 direction).  Per annulus, all trials are decided
    together: ``S_tgt - lam* S_img`` of the perturbed map, with ``lam*``
    the multiplier at the nearest grid angle, is proven positive definite
    by one stacked Cholesky under Rump's criterion
    (``_kernels.rump_positive_definite``), which proves containment.  A
    trial whose test fails runs the full containment search; the report
    records the failure count (an acceptable certificate has zero).
    """
    diag = np.asarray(diag, dtype=float)
    thetas = _grid(a, grid)
    dim = diag.shape[0]

    per_threshold: list[float] = []
    multipliers: list[np.ndarray] = []
    for ann in annuli:
        tau_n = ann.beta_q**n
        blocks = rotated_blocks(diag, thetas, n, ann.beta_q, plane.e1, plane.e2)
        margin, lam, _ = block_margins(*blocks, n, lam_hi, tol).T
        bad = np.flatnonzero(margin <= 0)
        if bad.size:
            raise CertificationError(
                f"cannot derive robustness radius: margin {margin[bad[0]]:.3e} "
                f"at theta={thetas[bad[0]]:.4f}, threshold {tau_n:.4g}"
            )
        nm, nmi = block_norms(*blocks).T
        # Bisect d on every grid angle at once; shift(d) is infinite once
        # |M^-1| d >= 1.  Stop when no midpoint moves a bracket end.
        lo, hi = np.zeros_like(margin), np.ones_like(margin)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(200):
                mid = (lo + hi) / 2.0
                if ((mid == lo) | (mid == hi)).all():
                    break
                x = nmi * mid
                e = x / (1.0 - x)
                shift = 2.0 * nm * mid + mid * mid + lam * (2.0 * nmi * nmi * e + (nmi * e) ** 2)
                below = (x < 1.0) & (shift < margin)
                lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        per_threshold.append(float(lo.min() * tau_n))
        multipliers.append(lam)

    delta = min(per_threshold)
    rng = np.random.default_rng(seed)
    angles = np.zeros(trials)
    rot = np.empty((trials, dim, dim))
    perturbed = np.empty((trials, dim, dim))
    for t in range(trials):
        angles[t] = float(rng.uniform(0.0, a)) if a > 0 else 0.0
        rot[t] = plane.rotation_matrix(angles[t])
        perturbed[t] = rng.normal(size=(dim, dim))
    perturbed *= (safety * delta / np.linalg.norm(perturbed, 2, axis=(1, 2)))[:, None, None]
    perturbed += np.linalg.matrix_power(rot * diag, n)
    nearest = np.abs(angles[:, None] - thetas).argmin(axis=1)

    eye = np.eye(dim)
    failed = np.zeros(trials, dtype=bool)
    fallbacks = 0
    for ann, lam in zip(annuli, multipliers):
        m = perturbed / ann.beta_q**n
        minv = np.linalg.inv(m)
        s_tgt = np.swapaxes(m, -1, -2) @ m - eye
        s_img = eye - np.swapaxes(minv, -1, -2) @ minv
        proven = rump_positive_definite(s_tgt - lam[nearest, None, None] * s_img)
        for t in np.flatnonzero(~proven & ~failed):
            fallbacks += 1
            failed[t] = containment_margin(s_img[t], s_tgt[t], lam_hi, tol)[0] <= 0.0
    return RobustnessReport(
        delta=float(delta),
        exponent=n,
        per_threshold=tuple(per_threshold),
        trials=trials,
        failures=int(failed.sum()),
        fallbacks=fallbacks,
        safety=safety,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Cocycle products along orbits
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CocycleProduct:
    """A derivative product along an orbit segment, kept in factored form.

    ``factors[i]`` is the one-step derivative at the i-th orbit point,
    so the composite map is the left-fold ``factors[-1] ... factors[0]``.
    Composition concatenates factor sequences — ``later @ earlier``
    represents "apply ``earlier``'s segment, then ``later``'s" — which
    makes the cocycle identity hold exactly: composing the products of
    two consecutive segments is, by construction, the product of the
    concatenated segment.
    """

    factors: tuple[np.ndarray, ...]
    start: np.ndarray
    end: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.factors)

    @property
    def matrix(self) -> np.ndarray:
        out = np.eye(self.start.shape[0])
        for f in self.factors:
            out = f @ out
        return out

    def __matmul__(self, earlier: "CocycleProduct") -> "CocycleProduct":
        if not np.array_equal(earlier.end, self.start):
            raise ValueError(
                "cocycle factors do not chain: left segment must start "
                "where the right segment ends"
            )
        return CocycleProduct(
            factors=earlier.factors + self.factors,
            start=earlier.start,
            end=self.end,
        )


def cocycle_product(dyn, x: np.ndarray, n: int) -> CocycleProduct:
    """Derivative product of ``n`` steps of ``dyn`` starting at ``x``.

    ``dyn`` provides ``step_with_point`` and ``frame_jacobian``; the
    factors are collected in orbit order.
    """
    if n < 0:
        raise ValueError("step count must be nonnegative")
    start = np.asarray(x, dtype=float).copy()
    end, points = _walk(dyn.step_with_point, start, n)
    factors = tuple(dyn.frame_jacobian(p) for p in points)
    return CocycleProduct(factors=factors, start=start, end=end.copy())


class LinearDynamics:
    """Orbit interface for the undeformed automorphism.

    Mirrors the deformed map's stepping API, on one point (9,) or on
    (N, 9) points at once, with the constant block-diagonal derivative,
    so rate measurements and splitting extraction run identically on the
    deformed and undeformed systems.
    """

    def __init__(self, auto: AutomorphismSpec, lattice: Optional[LatticeSpec] = None):
        self.auto = auto
        self.lattice = lattice
        self._matrix = auto.matrix

    def _reduce(self, x: np.ndarray) -> np.ndarray:
        if self.lattice is None:
            return x
        return self.lattice.reduce(x)

    def frame_jacobian(self, p: np.ndarray) -> np.ndarray:
        """The automorphism's matrix, once per row of ``p``."""
        return np.tile(self._matrix, np.shape(p)[:-1] + (1, 1))

    def step(self, x: np.ndarray) -> np.ndarray:
        return self._reduce(self.auto.apply(x))

    def step_with_point(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = self.step(x)
        return y, y

    def step_with_jacobian(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = self.step(x)
        return y, self.frame_jacobian(y)

    def step_inverse(self, x: np.ndarray) -> np.ndarray:
        return self._reduce(self.auto.apply_inverse(x))

    def step_inverse_with_point(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = self.step_inverse(y)
        return x, x

    def step_inverse_with_jacobian(
        self, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        x = self.step_inverse(y)
        return x, self.frame_jacobian(x)


# ---------------------------------------------------------------------------
# Principal angles and subspace arithmetic
# ---------------------------------------------------------------------------


def principal_angle(q1: np.ndarray, q2: np.ndarray) -> float:
    """Largest principal angle between equal-dimension orthonormal frames.

    Computed from the sine ``|(I - Q1 Q1^T) Q2|_2``, which resolves
    angles near zero far better than the cosine route through
    ``svd(Q1^T Q2)``; the two directions are averaged into a max for
    exact symmetry in floating point.
    """
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    if q1.shape != q2.shape:
        raise ValueError("frames must have identical shapes")
    s12 = min(1.0, float(np.linalg.norm(q2 - q1 @ (q1.T @ q2), 2)))
    s21 = min(1.0, float(np.linalg.norm(q1 - q2 @ (q2.T @ q1), 2)))
    return float(np.arcsin(max(s12, s21)))


def splitting_distance(
    a: Sequence[np.ndarray], b: Sequence[np.ndarray]
) -> float:
    """Distance between two splittings: worst principal angle per bundle."""
    if len(a) != len(b):
        raise ValueError("splittings must have the same number of bundles")
    return max(principal_angle(qa, qb) for qa, qb in zip(a, b))


def subspace_intersection(q1: np.ndarray, q2: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal frame of the intersection of two column spans.

    The intersection is the common nullspace of the two projector
    complements; the ``dim`` smallest right singular directions of the
    stacked complements realize it.  Column signs are normalized (the
    entry of largest magnitude is made positive) for determinism.
    Stacks of frame pairs, (N, n, k), give an (N, n, dim) stack.
    """
    eye = np.eye(q1.shape[-2])
    stacked = np.concatenate(
        [q1 @ np.swapaxes(q1, -1, -2) - eye, q2 @ np.swapaxes(q2, -1, -2) - eye],
        axis=-2,
    )
    _, _, vt = np.linalg.svd(stacked)
    frame = np.swapaxes(vt[..., -dim:, :], -1, -2)
    lead = np.take_along_axis(frame, np.argmax(np.abs(frame), axis=-2)[..., None, :], -2)
    return frame * np.where(lead < 0, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Splitting extraction along orbits
# ---------------------------------------------------------------------------


def _walk(step, x: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Take ``steps`` steps of ``step`` (a ``*_with_point`` method) from
    the point or rows ``x``; return the end and the points, one slice
    per step in walk order, at which ``dyn.frame_jacobian`` gives each
    step's derivative: shape ``(steps,) + x.shape``."""
    points = np.empty((steps,) + np.shape(x))
    for i in range(steps):
        x, points[i] = step(x)
    return x, points


@dataclass(frozen=True, eq=False)
class SplittingEstimate:
    """An extracted dominated splitting at a point.

    ``fast_frame`` spans the estimated more-expanded bundle (the
    forward-pushed limit), ``slow_frame`` the complementary bundle (the
    pulled-back limit).  ``gap`` is the last Cauchy increment between
    successive extraction depths; ``converged`` records whether it fell
    below the requested tolerance within the step budget.
    """

    point: np.ndarray
    fast_frame: np.ndarray
    slow_frame: np.ndarray
    steps_used: int
    gap: float
    converged: bool

    @property
    def dims(self) -> tuple[int, int]:
        return (self.slow_frame.shape[1], self.fast_frame.shape[1])


def extract_splitting(
    dyn,
    x: np.ndarray,
    slow_axes: Sequence[int],
    fast_axes: Sequence[int],
    k_start: int = 40,
    k_step: int = 20,
    k_max: int = 200,
    tol: float = 1e-10,
) -> SplittingEstimate:
    """Extract a dominated splitting at ``x`` by cocycle power iteration.

    The fast bundle is the limit of pushing a seed frame forward along
    the backward orbit (the dominant subspace of long products); the
    slow bundle is the limit of pulling a complementary seed back along
    the forward orbit.  Extraction depth increases by ``k_step`` until
    the principal-angle increment between successive depths drops below
    ``tol`` or the budget ``k_max`` is reached.  Each orbit is walked
    once: a deeper round extends both walks by ``k_step`` steps.
    """
    x = np.asarray(x, dtype=float)
    fast_seed = _axes_frame(fast_axes, x.shape[0])
    slow_seed = _axes_frame(slow_axes, x.shape[0])
    prev_fast = prev_slow = None
    fast = slow = None
    gap = math.inf
    steps = k_start
    # Both walks start at x and grow with the depth; pb is nearest first.
    yb = yf = x
    pb = pf = np.empty((0,) + x.shape)
    while steps <= k_max:
        yb, more = _walk(dyn.step_inverse_with_point, yb, steps - len(pb))
        pb = np.concatenate([pb, more])
        yf, more = _walk(dyn.step_with_point, yf, steps - len(pf))
        pf = np.concatenate([pf, more])
        fast = qr_product_forward(pb[::-1], dyn.frame_jacobian, fast_seed)
        slow = qr_product_pullback(pf, dyn.frame_jacobian, slow_seed)
        if prev_fast is not None:
            gap = max(
                principal_angle(fast, prev_fast),
                principal_angle(slow, prev_slow),
            )
            if gap < tol:
                return SplittingEstimate(
                    point=x,
                    fast_frame=fast,
                    slow_frame=slow,
                    steps_used=steps,
                    gap=float(gap),
                    converged=True,
                )
        prev_fast, prev_slow = fast, slow
        steps += k_step
    return SplittingEstimate(
        point=x,
        fast_frame=fast,
        slow_frame=slow,
        steps_used=steps - k_step,
        gap=float(gap),
        converged=False,
    )


# ---------------------------------------------------------------------------
# Rate measurement and the bunching inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RateReport:
    """Measured n-step rates on the extracted bundles, with bounds.

    The four bullet checks compare the worst measured singular values
    against the stated bounds: stable growth below ``(l1 + eps)^n``,
    center growth inside ``((l2 - eps)^n, (1 + eps)^n)``, unstable
    growth above ``(l3 - eps)^n``.  The per-step rates ``nu = s_max^(1/n)``
    etc. feed the bunching margin ``gamma * gamma_hat - max(nu, nu_hat)``.
    """

    exponent: int
    sample_count: int
    s_max: float
    c_lo: float
    c_hi: float
    u_min: float
    s_bound: float
    c_lo_bound: float
    c_hi_bound: float
    u_bound: float
    nu: float
    nu_hat: float
    gamma: float
    gamma_hat: float

    @property
    def bullets(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.s_max < self.s_bound,
            self.c_lo > self.c_lo_bound,
            self.c_hi < self.c_hi_bound,
            self.u_min > self.u_bound,
        )

    @property
    def all_bullets_hold(self) -> bool:
        return all(self.bullets)

    @property
    def bunching_margin(self) -> float:
        return self.gamma * self.gamma_hat - max(self.nu, self.nu_hat)

    @property
    def center_bunched(self) -> bool:
        return self.bunching_margin > 0.0


def _rate_sample_points(
    rng: np.random.Generator,
    dyn,
    count: int,
    inner_scale: float,
    outer_radius: float,
    plane_axes: tuple[int, int],
    dim: int = DIM,
) -> list[np.ndarray]:
    """Deterministic probe set mixing bulk, funnel, and in-plane points.

    Points are drawn on the outer sphere, on a geometric ladder of
    depths down to the deformation core (with short forward orbits so
    transit points through the support appear), and on adversarial rays
    inside the rotation plane where the profile's log branch is active.
    """
    points: list[np.ndarray] = []
    # Outer probes.
    n_outer = max(4, count // 4)
    for _ in range(n_outer):
        d = rng.normal(size=dim)
        points.append(outer_radius * d / np.linalg.norm(d))
    # Funnel ladder with forward transit orbits: one start per depth, the
    # round's starts stepped together.  Each orbit ends at the first step
    # beyond three outer radii.
    depths = [1.0, 0.3, 1e-2, 1e-5, 1e-8, 1e-12, 1e-18]
    while len(points) < count:
        x = np.empty((len(depths), dim))
        for i, dep in enumerate(depths):
            d = rng.normal(size=dim)
            x[i] = inner_scale * dep * d / np.linalg.norm(d)
        orbits = [x]
        for _ in range(12):
            orbits.append(dyn.step(orbits[-1]))
        for orbit in np.stack(orbits, axis=1):
            points.append(orbit[0])
            for p in orbit[1:]:
                points.append(p)
                if np.linalg.norm(p) > 3 * outer_radius:
                    break
            if len(points) >= count:
                break
        # Adversarial in-plane rays.
        for dep in (0.9, 0.5, 0.1, 1e-3, 1e-8, 1e-15):
            x = np.zeros(dim)
            x[plane_axes[0]] = inner_scale * dep / math.sqrt(2.0)
            x[plane_axes[1]] = inner_scale * dep / math.sqrt(2.0)
            points.append(x)
            if len(points) >= count:
                break
    return points[:count]


def bunching_report(
    dyn,
    rates: tuple[float, float, float],
    plane_axes: tuple[int, int],
    n: int = 2,
    eps_rate: float = 0.05,
    sample_count: int = 512,
    inner_scale: float = 0.02,
    outer_radius: float = 0.1,
    seed: int = 0,
    extraction_steps: int = 80,
) -> RateReport:
    """Measure the four rate bullets and the bunching margin.

    At every sample point the three bundles are extracted by cocycle
    power iteration at fixed depth, the n-step derivative product is
    formed, and its singular values restricted to each bundle are
    aggregated into the worst observed stable/center/unstable growth.
    ``rates`` supplies the eigenvalue triple entering the bounds, and
    ``plane_axes`` the rotation plane (the plan's ``step.axes``) whose
    in-plane rays are sampled.  All samples are walked and transported
    together, as one (N, 9) batch.
    """
    l1, l2, l3 = rates
    rng = np.random.default_rng(seed)
    x = np.array(
        _rate_sample_points(rng, dyn, sample_count, inner_scale, outer_radius, plane_axes)
    )
    # All samples are walked together; QR transport is column-nested (leading
    # columns of a transported frame depend on the leading seed columns
    # only), so unstable leads upper and stable leads lower.
    upper_seed = _axes_frame(EXPANDING_AXES + CENTER_AXES)
    lower_seed = _axes_frame(STRONG_STABLE_AXES + CENTER_AXES)
    _, pb = _walk(dyn.step_inverse_with_point, x, extraction_steps)
    _, pf = _walk(dyn.step_with_point, x, max(extraction_steps, n))
    q_upper = qr_product_forward(pb[::-1], dyn.frame_jacobian, upper_seed)
    q_lower = qr_product_pullback(pf[:extraction_steps], dyn.frame_jacobian, lower_seed)
    q_unstable = q_upper[..., : len(EXPANDING_AXES)]
    q_stable = q_lower[..., : len(STRONG_STABLE_AXES)]
    q_center = subspace_intersection(q_upper, q_lower, len(CENTER_AXES))

    # The n-step derivatives, folded as CocycleProduct.matrix folds them.
    t = np.eye(DIM)
    for p in pf[:n]:
        t = dyn.frame_jacobian(p) @ t
    sv_s = np.linalg.svd(t @ q_stable, compute_uv=False)
    sv_c = np.linalg.svd(t @ q_center, compute_uv=False)
    sv_u = np.linalg.svd(t @ q_unstable, compute_uv=False)
    s_max = float(sv_s[:, 0].max())
    c_lo = float(sv_c[:, -1].min())
    c_hi = float(sv_c[:, 0].max())
    u_min = float(sv_u[:, -1].min())

    return RateReport(
        exponent=n,
        sample_count=len(x),
        s_max=s_max,
        c_lo=c_lo,
        c_hi=c_hi,
        u_min=u_min,
        s_bound=(l1 + eps_rate) ** n,
        c_lo_bound=(l2 - eps_rate) ** n,
        c_hi_bound=(1.0 + eps_rate) ** n,
        u_bound=(l3 - eps_rate) ** n,
        nu=s_max ** (1.0 / n),
        nu_hat=u_min ** (-1.0 / n),
        gamma=c_lo ** (1.0 / n),
        gamma_hat=c_hi ** (-1.0 / n),
    )


# ---------------------------------------------------------------------------
# Splitting deviation sweep over support radii
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """Worst splitting deviation on the probe set for one support radius."""

    radius: float
    deviation: float
    probes: int


def _probe_directions(
    rng: np.random.Generator, count: int, dim: int = DIM
) -> list[np.ndarray]:
    """Probe directions biased toward the expanding block.

    Two thirds live entirely in the expanding coordinates (where the
    deformed splitting deviates most), the rest are mixed with the
    expanding block up-weighted.
    """
    dirs = []
    n_pure = (2 * count) // 3
    for _ in range(n_pure):
        w = rng.normal(size=len(EXPANDING_AXES))
        w /= np.linalg.norm(w)
        v = np.zeros(dim)
        v[list(EXPANDING_AXES)] = w
        dirs.append(v)
    while len(dirs) < count:
        w = rng.normal(size=dim)
        w[list(EXPANDING_AXES)] *= 10.0
        dirs.append(w / np.linalg.norm(w))
    return dirs


def splitting_deviation_sweep(
    dynamics_for_radius,
    radii: Sequence[float],
    probe_radius: float = 0.1,
    probe_count: int = 24,
    seed: int = 1,
    extraction_steps: int = 90,
) -> tuple[SweepPoint, ...]:
    """Worst probe-set deviation of the extracted splitting per radius.

    ``dynamics_for_radius`` maps a support radius to an orbit-capable
    system (radius 0 meaning the undeformed map).  For each radius the
    unstable and stable bundles are extracted at every probe point (all
    at distance ``probe_radius`` from the fixed point, outside every
    support ball in the sweep) and compared against the undeformed
    coordinate bundles; the sweep records the worst principal angle.

    The same seeded probe directions are used for every radius, so the
    sweep isolates the effect of the support radius alone.
    """
    rng = np.random.default_rng(seed)
    x = probe_radius * np.array(_probe_directions(rng, probe_count))
    unstable_ref = _axes_frame(EXPANDING_AXES)
    stable_ref = _axes_frame(STRONG_STABLE_AXES)

    out = []
    for radius in radii:
        # All probes are walked together.
        dyn = dynamics_for_radius(radius)
        _, pb = _walk(dyn.step_inverse_with_point, x, extraction_steps)
        _, pf = _walk(dyn.step_with_point, x, extraction_steps)
        q_u = qr_product_forward(pb[::-1], dyn.frame_jacobian, unstable_ref)
        q_s = qr_product_pullback(pf, dyn.frame_jacobian, stable_ref)
        worst = max(
            [0.0]
            + [principal_angle(q, unstable_ref) for q in q_u]
            + [principal_angle(q, stable_ref) for q in q_s]
        )
        out.append(SweepPoint(radius=float(radius), deviation=float(worst), probes=len(x)))
    return tuple(out)
